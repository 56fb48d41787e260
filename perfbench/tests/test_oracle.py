"""The oracle against brute-force sums written from the definitions."""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402


def brute_permanent(A, signed=False):
    n = A.shape[0]
    G = oracle.group(n)
    return sum((G.signs[i] if signed else 1.0) * math.prod(A[g[k], k] for k in range(n))
               for i, g in enumerate(itertools.permutations(range(n))))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_glynn_and_leibniz_match_the_definition(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    per, bound = oracle.glynn(A)
    for b in range(2):
        exact = brute_permanent(A[b])
        assert abs(per[b] - exact) <= bound[b]
        det, det_bound = oracle.leibniz(A[b], True)
        assert abs(det - np.linalg.det(A[b])) <= det_bound + 1e-13 * abs(det)


@pytest.mark.parametrize("species", ["boson", "fermion"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_identity_matches_the_quadratic_form(n, species):
    rng = np.random.default_rng(10 + n)
    A = oracle.haar_unitary(6, rng)[:n, :n]
    r = oracle.delay_matrix(rng.uniform(0, 3, n), 1.0)
    value, bound = oracle.rate(A, r, species)
    exact = oracle.brute_force_rate(A, r, species)
    assert abs(exact.imag) <= bound
    assert abs(value - exact.real) <= 2 * bound


def test_selftest_passes():
    assert oracle.selftest()


@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_limits(species):
    rng = np.random.default_rng(3)
    A = oracle.haar_unitary(8, rng)[:4, :4]
    equal, err = oracle.closed_form(A, species)
    value, bound = oracle.rate(A, np.ones((4, 4)), species)
    assert abs(value - equal) <= bound + err
    classical, cerr = oracle.distinguishable(A)
    value, bound = oracle.rate(A, np.eye(4), species)
    assert abs(value - classical) <= bound + cerr
    singles, serr = oracle.cluster_rate(A, [(0,), (1,), (2,), (3,)], species)
    assert abs(singles - classical) <= serr + cerr
    taus = [0.0, 0.0, 40.0, 0.0]
    far, ferr = oracle.cluster_rate(A, oracle.clusters_of(taus), species)
    value, bound = oracle.rate(A, oracle.delay_matrix(taus, 1.0), species)
    assert abs(value - far) <= bound + ferr


def test_haar_unitary_is_unitary_and_seeded():
    U = oracle.haar_unitary(7, np.random.default_rng(5))
    assert np.allclose(U.conj().T @ U, np.eye(7), atol=1e-13)
    assert np.array_equal(U, oracle.haar_unitary(7, np.random.default_rng(5)))
