"""Arrival times, pairwise overlap (delay) matrices, and time-bin snapping.

Particles are modelled as Gaussian wavepackets; with source bandwidth and
detector resolution folded into a single effective width, the overlap of
particles i and j is

    r_ij = exp(-delta_omega^2 (tau_i - tau_j)^2 / 2),

a positive-semidefinite Gram matrix with unit diagonal.  Snapping arrival
times to the centers of b bins spanning the detection window makes same-bin
overlaps exactly 1, which is what turns block vanishing from an approximate
statement into an exact one.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# The largest width whose square is a finite float: the delay matrix
# squares it as a Python float, which raises OverflowError beyond this.
_MAX_DELTA_OMEGA = math.sqrt(sys.float_info.max)

__all__ = [
    "ArrivalSpec",
    "delay_matrix",
    "delay_matrix_from_times",
    "discretize",
    "snapped_times",
    "snapped_delay_matrix",
]


@dataclass(frozen=True)
class ArrivalSpec:
    """Arrival times within a detection window, plus the binning layout.

    taus are absolute times in [0, window); delta_omega is the effective
    Gaussian width entering the overlap matrix; bins is the number of equal
    time bins the window is divided into.  delta_omega and window are
    finite and positive, and delta_omega**2 is finite.
    """

    taus: tuple[float, ...]
    delta_omega: float
    window: float
    bins: int

    def __post_init__(self):
        taus = tuple(float(t) for t in self.taus)
        object.__setattr__(self, "taus", taus)
        if len(taus) < 1:
            raise DomainError("need at least one particle")
        if not 0 < self.delta_omega <= _MAX_DELTA_OMEGA:  # False for NaN too
            raise DomainError(
                f"delta_omega must be finite and positive, at most {_MAX_DELTA_OMEGA:.4g}"
                " so that its square is finite"
            )
        if not 0 < self.window < math.inf:
            raise DomainError("window must be finite and positive")
        if int(self.bins) != self.bins or self.bins < 2:
            raise DomainError("bins must be an integer >= 2")
        object.__setattr__(self, "bins", int(self.bins))
        if any(not (0.0 <= t < self.window) for t in taus):
            raise DomainError(f"arrival times must lie in [0, {self.window}) : {taus}")

    @property
    def n(self) -> int:
        return len(self.taus)


def delay_matrix_from_times(taus, delta_omega: float) -> np.ndarray:
    """Pairwise Gaussian overlaps for raw (continuous) arrival times: an
    n x n matrix for n times, or a stack (..., n, n) for times (..., n),
    each matrix bit-equal to its own call."""
    taus = np.asarray(taus, dtype=float)
    diff = taus[..., :, None] - taus[..., None, :]
    r = np.exp(-(delta_omega**2) * diff**2 / 2.0)
    r.setflags(write=False)
    return r


def delay_matrix(spec: ArrivalSpec) -> np.ndarray:
    return delay_matrix_from_times(spec.taus, spec.delta_omega)


def discretize(spec: ArrivalSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Assign each arrival to its time bin.

    Bin c (1-based) covers [(c-1) T/b, c T/b); returns the per-particle bin
    indices together with the delay partition: how many particles share
    each occupied bin, largest first.
    """
    b, T = spec.bins, spec.window
    indices = tuple(min(int(t * b / T) + 1, b) for t in spec.taus)
    return indices, tuple(sorted(Counter(indices).values(), reverse=True))


def snapped_times(bin_indices: tuple[int, ...], spec: ArrivalSpec) -> tuple[float, ...]:
    """Bin-center times (c - 1/2) T/b for the given bin assignment."""
    b, T = spec.bins, spec.window
    if any(not (1 <= c <= b) for c in bin_indices):
        raise DomainError(f"bin index outside 1..{b}: {bin_indices}")
    return tuple((c - 0.5) * T / b for c in bin_indices)


def snapped_delay_matrix(bin_indices: tuple[int, ...], spec: ArrivalSpec) -> np.ndarray:
    """Overlap matrix after snapping times to bin centers.

    Same-bin pairs get overlap exactly 1.0 (identical snapped times), so the
    matrix is the Gram matrix of only as many distinct wavepackets as there
    are occupied bins.
    """
    return delay_matrix_from_times(snapped_times(bin_indices, spec), spec.delta_omega)

