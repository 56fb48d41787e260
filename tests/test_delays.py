import math
import sys

import numpy as np
import pytest

from partdist.delays import (
    ArrivalSpec,
    delay_matrix,
    delay_matrix_from_times,
    discretize,
    snapped_delay_matrix,
    snapped_times,
)
from partdist.errors import DomainError


def test_arrival_spec_validation():
    ArrivalSpec((0.0, 0.5), 1.0, 1.0, 4)
    with pytest.raises(DomainError):
        ArrivalSpec((0.0, 1.0), 1.0, 1.0, 4)  # tau at the window edge
    with pytest.raises(DomainError):
        ArrivalSpec((-0.1, 0.5), 1.0, 1.0, 4)
    with pytest.raises(DomainError):
        ArrivalSpec((0.1, 0.5), -1.0, 1.0, 4)
    with pytest.raises(DomainError):
        ArrivalSpec((0.1, 0.5), 1.0, 1.0, 1)
    # a NaN width gave an all-NaN delay matrix; window = inf put every
    # particle in bin 1 while the delay matrix kept them distinct
    for delta_omega, window, field in ((math.nan, 1.0, "delta_omega"), (math.inf, 1.0, "delta_omega"),
                                       (1.0, math.nan, "window"), (1.0, math.inf, "window")):
        with pytest.raises(DomainError, match=f"{field} must be finite and positive"):
            ArrivalSpec((0.1, 0.5), delta_omega, window, 4)
    # a finite width above sqrt(float max) made delta_omega**2 overflow
    with pytest.raises(DomainError, match="its square is finite"):
        ArrivalSpec((0.1, 0.5), 1e200, 1.0, 4)
    widest = math.sqrt(sys.float_info.max)
    r = delay_matrix(ArrivalSpec((0.1, 0.5), widest, 1.0, 4))
    assert r[0, 0] == 1.0 and r[0, 1] == 0.0


def test_delay_matrix_gaussian_form():
    dt = 0.37
    r = delay_matrix_from_times((0.0, dt), 2.0)
    want = math.exp(-(2.0**2) * dt**2 / 2)
    assert r[0, 1] == pytest.approx(want, rel=1e-14)
    assert r[0, 0] == 1.0 and r[1, 1] == 1.0
    assert r[1, 0] == r[0, 1]


def test_delay_matrix_is_positive_semidefinite():
    rng = np.random.default_rng(1)
    for _ in range(20):
        taus = rng.uniform(0, 1, size=5)
        r = delay_matrix_from_times(taus, rng.uniform(0.5, 4.0))
        eigs = np.linalg.eigvalsh(r)
        assert eigs.min() > -1e-12


def test_delay_matrix_depends_on_differences_only():
    taus = np.array([0.1, 0.4, 0.9])
    a = delay_matrix_from_times(taus, 1.3)
    b = delay_matrix_from_times(taus + 57.0, 1.3)
    assert np.allclose(a, b, atol=1e-12)


def test_delay_matrix_from_spec():
    spec = ArrivalSpec((0.1, 0.4), 1.5, 1.0, 4)
    assert np.allclose(delay_matrix(spec), delay_matrix_from_times((0.1, 0.4), 1.5))


def test_discretize_bins_and_partition():
    spec = ArrivalSpec((0.05, 0.05, 0.34, 0.61), 2.0, 1.0, 3)
    bins, part = discretize(spec)
    assert bins == (1, 1, 2, 2)
    assert part == (2, 2)


def test_discretize_boundary_goes_to_upper_bin():
    # bin edges at k/b: a time exactly on an edge belongs to the next bin
    spec = ArrivalSpec((0.0, 0.25, 0.5), 1.0, 1.0, 4)
    bins, _ = discretize(spec)
    assert bins == (1, 2, 3)


def test_snapped_times_are_bin_centers():
    spec = ArrivalSpec((0.05, 0.61), 2.0, 1.0, 4)
    bins, _ = discretize(spec)
    assert snapped_times(bins, spec) == pytest.approx((0.125, 0.625))


def test_snapped_delay_matrix_equal_bins_give_unit_overlap():
    spec = ArrivalSpec((0.05, 0.08, 0.61), 2.0, 1.0, 4)
    bins, _ = discretize(spec)
    r = snapped_delay_matrix(bins, spec)
    assert bins[0] == bins[1]
    assert r[0, 1] == 1.0
    assert 0 < r[0, 2] < 1


def test_stacked_times_give_bit_equal_delay_matrices():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 7):
        taus = rng.uniform(-5, 5, size=(4, 6, n))
        stack = delay_matrix_from_times(taus, 1.7)
        assert stack.shape == (4, 6, n, n)
        assert not stack.flags.writeable
        for idx in np.ndindex(4, 6):
            one = delay_matrix_from_times(taus[idx], 1.7)
            assert one.shape == (n, n)
            assert one.tobytes() == stack[idx].tobytes()
        # the 1-D form is the outer difference it always was
        assert np.array_equal(one, np.exp(-(1.7**2) * np.subtract.outer(taus[idx], taus[idx]) ** 2 / 2.0))
