import itertools
import math

import numpy as np
import pytest

from partdist.errors import DomainError, SizeLimitError
from partdist.matfun import (
    GLYNN_PRODUCTS,
    determinant,
    dfunction_direct,
    immanant,
    permanent,
)
from partdist.symgroup import all_permutations, character, partitions_of

from cycles import cycle_type


UNIT_ROUNDOFF = np.finfo(float).eps / 2


def gamma(k):
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def _permanent_by_enumeration(M):
    n = M.shape[0]
    return sum(
        math.prod(M[sigma[k], k] for k in range(n))
        for sigma in itertools.permutations(range(n))
    )


def _glynn_against_enumeration_bound(M):
    """|Glynn - enumeration| bound: Glynn is within gamma_(K + 5n) prod_i a_i
    of the permanent (matfun.permanent), a_i the 1-norm of row i and
    K = 2^(n-1); the enumeration sums n! products of n factors, each at most
    prod_i |M[sigma(i), i]|, so it is within gamma_(n! + 4n) per(|M|) <=
    gamma_(n! + 4n) prod_i a_i (complex products round by gamma_4n)."""
    n = M.shape[-1]
    a = np.prod(np.abs(M).sum(axis=-1), axis=-1)
    return (gamma(2 ** (n - 1) + 5 * n) + gamma(math.factorial(n) + 4 * n)) * a


# ---------------------------------------------------------------------------
# Permanent


def test_permanent_small_closed_forms():
    assert permanent(np.array([[7.0]])) == pytest.approx(7.0)
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert permanent(M) == pytest.approx(1 * 4 + 2 * 3)


def test_permanent_of_ones_is_factorial():
    # every Glynn row sum and product is an integer below 2^53: exact
    for n in range(1, 11):
        assert permanent(np.ones((n, n))) == math.factorial(n)
    assert permanent(np.zeros((0, 0))) == 1


def test_permanent_matches_enumeration():
    rng = np.random.default_rng(1)
    for n in (3, 4, 5, 6):
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert permanent(M) == pytest.approx(_permanent_by_enumeration(M), rel=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_permanent_matches_enumeration_and_single_calls(n):
    rng = np.random.default_rng(20 + n)
    stack = rng.normal(size=(2, 3, n, n)) + 1j * rng.normal(size=(2, 3, n, n))
    got = permanent(stack)
    assert got.shape == (2, 3) and got.dtype == complex
    bound = _glynn_against_enumeration_bound(stack)
    for index in np.ndindex(2, 3):
        M = stack[index]
        want = _permanent_by_enumeration(M)
        assert abs(got[index] - want) <= bound[index]
        # Glynn touches each matrix element-wise only: a stacked value is
        # the value of the matrix alone
        assert got[index] == permanent(M)
    real = np.abs(stack) ** 2
    assert np.array_equal(permanent(real), [[permanent(M) for M in row] for row in real])


def test_permanent_stack_spans_several_steps():
    # at n = 8, GLYNN_PRODUCTS / 2^7 matrices go per step; a stack of three
    # steps and a bit gives every matrix the bits of its single call
    n = 8
    width = GLYNN_PRODUCTS >> (n - 1)
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(3 * width + 5, n, n)) + 1j * rng.normal(size=(3 * width + 5, n, n))
    got = permanent(stack)
    for i in (0, width - 1, width, 2 * width + 7, len(stack) - 1):
        assert got[i] == permanent(stack[i])


def test_permanent_and_determinant_shape_checks():
    for fn in (permanent, determinant):
        with pytest.raises(DomainError):
            fn(np.ones(3))
        with pytest.raises(DomainError):
            fn(np.ones((2, 3, 4)))


def test_permanent_row_permutation_invariance():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(5, 5))
    shuffled = M[rng.permutation(5)]
    assert permanent(shuffled) == pytest.approx(permanent(M), rel=1e-12)


def test_permanent_size_guard():
    with pytest.raises(SizeLimitError):
        permanent(np.ones((21, 21)))
    with pytest.raises(SizeLimitError):
        permanent(np.ones((4, 21, 21)))


def test_determinant_is_numpy():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert determinant(M) == pytest.approx(3.0)


def test_stacked_determinant_equals_per_matrix_numpy():
    rng = np.random.default_rng(12)
    stack = rng.normal(size=(4, 5, 6, 6)) + 1j * rng.normal(size=(4, 5, 6, 6))
    got = determinant(stack)
    assert got.shape == (4, 5) and got.dtype == complex
    for index in np.ndindex(4, 5):
        assert got[index] == np.linalg.det(stack[index]) == determinant(stack[index])


# ---------------------------------------------------------------------------
# Immanants


def test_immanant_extremes_are_det_and_per():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        M = rng.normal(size=(n, n))
        assert immanant((n,), M) == pytest.approx(permanent(M), rel=1e-12)
        assert immanant((1,) * n, M) == pytest.approx(determinant(M), rel=1e-12)


def test_immanant_21_explicit():
    # chi_(2,1) = (2, 0, -1) on classes (e, transpositions, 3-cycles)
    rng = np.random.default_rng(4)
    M = rng.normal(size=(3, 3))
    diag = M[0, 0] * M[1, 1] * M[2, 2]
    threecycles = (
        M[1, 0] * M[2, 1] * M[0, 2] + M[2, 0] * M[0, 1] * M[1, 2]
    )
    assert immanant((2, 1), M) == pytest.approx(2 * diag - threecycles, rel=1e-12)


def test_immanant_from_character_sum():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(4, 4))
    for lam in partitions_of(4):
        want = sum(
            character(lam, cycle_type(row)) * math.prod(M[row[k], k] for k in range(4))
            for row in all_permutations(4).tolist()
        )
        assert immanant(lam, M) == pytest.approx(want, rel=1e-12)


def test_immanant_degree_guard():
    with pytest.raises(SizeLimitError):
        immanant((11,), np.eye(11))


def test_immanant_shape_check():
    with pytest.raises(DomainError):
        immanant((2, 1), np.eye(4))


# ---------------------------------------------------------------------------
# Irrep-transformed matrix functions


def test_dfunction_trace_is_immanant():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        M = rng.normal(size=(n, n))
        for lam in partitions_of(n):
            block = dfunction_direct(lam, M)
            assert np.trace(block) == pytest.approx(immanant(lam, M), rel=1e-10)


def test_dfunction_multiplicativity_on_permutations():
    rng = np.random.default_rng(8)
    n = 4
    M = rng.normal(size=(n, n))
    for lam in [(3, 1), (2, 2), (2, 1, 1)]:
        for _ in range(5):
            P = np.eye(n)[all_permutations(n)[rng.integers(math.factorial(n))]]
            left = dfunction_direct(lam, P)
            right = dfunction_direct(lam, M)
            combined = dfunction_direct(lam, P @ M)
            assert np.allclose(left @ right, combined, atol=1e-10)


def test_dfunction_of_identity_is_identity():
    for lam in partitions_of(3):
        block = dfunction_direct(lam, np.eye(3))
        assert np.allclose(block, np.eye(len(block)), atol=1e-14)


def test_dfunction_21_general_matrix_polynomials():
    # frozen 2x2 entries of the mixed-symmetry block for a general 3x3 matrix
    rng = np.random.default_rng(10)
    Z = rng.normal(size=(3, 3))
    a, b, c = Z[0]
    d, e, f = Z[1]
    g, h, i = Z[2]
    block = dfunction_direct((2, 1), Z)
    s3 = math.sqrt(3)
    want = np.array(
        [
            [a * e * i + d * b * i - (g * e * c + a * h * f + d * h * c + g * b * f) / 2,
             s3 / 2 * (a * h * f + d * h * c - g * e * c - g * b * f)],
            [s3 / 2 * (a * h * f + g * b * f - g * e * c - d * h * c),
             a * e * i - d * b * i + (g * e * c + a * h * f - d * h * c - g * b * f) / 2],
        ]
    )
    assert np.allclose(block, want, atol=1e-12)
