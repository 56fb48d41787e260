"""Output distributions over collision-free detection patterns, and exact
sampling from them.

A distribution enumerates every n-of-m detector string once, computes its
coincidence rate (a detection probability), and renormalizes over the
collision-free set (post-selection: runs where some detector saw two
particles are discarded).
Sampling is exact inverse-CDF over the enumerated table — no Markov chain,
no approximation — and returns indices into the distribution's strings.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from .delays import ArrivalSpec, delay_matrix
from .errors import DomainError, NumericalError, SizeLimitError
from .interferometer import (
    MAX_DISTRIBUTION_STRINGS,
    Interferometer,
    enumerate_outputs,
    output_text,
    submatrix,
)
from .matfun import determinant, permanent
from .rates import _batches, engine_rates

__all__ = [
    "OutputDistribution",
    "build_distribution",
    "sample",
    "reference_indistinguishable",
    "reference_distinguishable",
    "to_jsonl",
    "entropy_bits",
    "total_variation",
    "MAX_DISTRIBUTION_STRINGS",
    "MAX_SAMPLE_COUNT",
]

MAX_SAMPLE_COUNT = 10**6  # 8-byte deviate and 8-byte index per draw: 16 MB at the cap


@dataclass(frozen=True, eq=False)
class OutputDistribution:
    """Normalized distribution over the collision-free strings G_{m,n}.

    ``strings`` is the read-only array of
    :func:`~partdist.interferometer.enumerate_outputs`, one string per row;
    ``rates`` (raw) and ``probabilities`` are read-only float arrays in the
    same order.  ``parseval_residual`` is the largest |‖T v‖² - ‖v‖²| over
    the strings on the blocked and truncated engines, and None on the
    others; ``cancellation`` is the largest
    sum_S |f(P_S)| / rate of the streaming engine
    (:func:`~partdist.rates.rate_direct_streaming`), and None on the others.
    """

    m: int
    n: int
    species: str
    engine: str
    strings: np.ndarray
    rates: np.ndarray
    probabilities: np.ndarray
    total_rate: float
    parseval_residual: float | None = None
    cancellation: float | None = None

    def __post_init__(self):
        for name in ("rates", "probabilities"):
            values = np.array(getattr(self, name), dtype=float)
            if values.shape != (len(self.strings),):
                raise DomainError(f"{name} must hold one value per output string")
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        probs = self.probabilities
        if probs.min() < 0:
            raise DomainError("probabilities must be non-negative")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise DomainError(f"probabilities sum to {probs.sum()}, not 1")


def _normalize(strings, rates, m, n, species, engine, parseval_residual=None,
               cancellation=None) -> OutputDistribution:
    rates = np.asarray(rates, dtype=float)
    total = float(rates.sum())
    if not total > 0.0:
        raise NumericalError("every collision-free rate vanished; cannot normalize")
    return OutputDistribution(
        m, n, species, engine, strings, rates, rates / total, total,
        parseval_residual, cancellation,
    )


def build_distribution(
    interferometer: Interferometer,
    spec: ArrivalSpec,
    species: str = "boson",
    engine: str = "direct",
    *,
    input_ports: tuple[int, ...] | None = None,
) -> OutputDistribution:
    """Exact output distribution for one interferometer + arrival profile.

    The submatrices of all strings come from one gather, a stack of at most
    MAX_DISTRIBUTION_STRINGS n^2 16 bytes, and their rates from one
    :func:`~partdist.rates.engine_rates` call, which shares the group-level
    objects of ``engine`` across the strings and batches them in their
    fixed order.  The delay matrix is :func:`~partdist.delays.delay_matrix`
    of ``spec``, and the truncated engine drops only the blocks that vanish
    for it (:func:`~partdist.rates.gamas_partition`): particles that share a
    time, such as times at bin centres
    (:func:`~partdist.delays.snapped_times`) in one bin.
    """
    m = interferometer.m
    n = spec.n
    if input_ports is None:
        input_ports = tuple(range(1, n + 1))
    if len(input_ports) != n:
        raise DomainError(f"need {n} input ports, got {len(input_ports)}")

    strings = enumerate_outputs(m, n)
    result = engine_rates(submatrix(interferometer, strings, input_ports), delay_matrix(spec),
                          species, engine)
    return _normalize(strings, result.rates, m, n, species, engine,
                      result.parseval_residual, result.cancellation)


def _check_count(count: int) -> None:
    """Refuse a draw count: :class:`DomainError` when negative,
    :class:`SizeLimitError` above ``MAX_SAMPLE_COUNT``."""
    if count < 0:
        raise DomainError("count must be non-negative")
    if count > MAX_SAMPLE_COUNT:
        raise SizeLimitError(f"{count} draws exceed the limit {MAX_SAMPLE_COUNT}")


def sample(dist: OutputDistribution, count: int, seed: int) -> np.ndarray:
    """``count`` i.i.d. draws by inverse CDF, as a (count,) index array into
    ``dist.strings``; deterministic given the seed, which is required, since
    draws without one cannot be reproduced.  The seed must be a
    non-negative integer, not a bool, and the count pass
    :func:`_check_count`, before any draw."""
    if isinstance(seed, bool) or not hasattr(seed, "__index__") or operator.index(seed) < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    _check_count(count)
    cdf = np.cumsum(dist.probabilities)
    cdf[-1] = 1.0  # guard the last bin against rounding
    rng = np.random.default_rng(seed)
    return np.searchsorted(cdf, rng.random(count), side="right")


# ---------------------------------------------------------------------------
# Classical reference distributions


def _closed_form_distribution(interferometer, n, input_ports, per_batch,
                              species) -> OutputDistribution:
    """Distribution whose rates ``per_batch`` takes from a stack of
    submatrices, in batches of floor(2^17 / 2^n) strings: 2^16 of Glynn's
    products per permanent call."""
    m = interferometer.m
    if input_ports is None:
        input_ports = tuple(range(1, n + 1))
    strings = enumerate_outputs(m, n)
    rates = np.concatenate([
        per_batch(submatrix(interferometer, batch, input_ports))
        for batch in _batches(strings, max(1, 2**17 >> n))
    ])
    return _normalize(strings, rates, m, n, species, "reference")


def reference_indistinguishable(
    interferometer: Interferometer,
    n: int,
    species: str,
    input_ports: tuple[int, ...] | None = None,
) -> OutputDistribution:
    """All arrival times equal: probabilities proportional to |per A(s)|^2
    for bosons and |det A(s)|^2 for fermions, one batched permanent or
    determinant call per batch of strings."""
    if species == "boson":
        fn = lambda As: np.abs(permanent(As)) ** 2
    elif species == "fermion":
        fn = lambda As: np.abs(determinant(As)) ** 2
    else:
        raise DomainError(f"species must be 'boson' or 'fermion', got {species!r}")
    return _closed_form_distribution(interferometer, n, input_ports, fn, species)


def reference_distinguishable(
    interferometer: Interferometer,
    n: int,
    species: str = "boson",
    input_ports: tuple[int, ...] | None = None,
) -> OutputDistribution:
    """Fully distinguishable particles: probabilities proportional to
    per(|A_ij(s)|^2) for either species, one batched permanent call per
    batch of strings."""
    fn = lambda As: permanent(np.abs(As) ** 2).real
    return _closed_form_distribution(interferometer, n, input_ports, fn, species)


# ---------------------------------------------------------------------------
# Export and summary helpers


def to_jsonl(dist: OutputDistribution, path) -> None:
    """One record per string, {"s": "01101", "rate": x, "prob": p}, to the
    file at ``path``, or to ``path`` itself when it is a text stream."""
    text = "".join(json.dumps({"s": s, "rate": rate, "prob": prob}) + "\n"
                   for s, rate, prob in zip(output_text(dist.strings, dist.m),
                                            dist.rates.tolist(), dist.probabilities.tolist()))
    if hasattr(path, "write"):
        path.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def entropy_bits(dist: OutputDistribution) -> float:
    p = dist.probabilities
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def total_variation(a: OutputDistribution, b: OutputDistribution) -> float:
    if not np.array_equal(a.strings, b.strings):
        raise DomainError("distributions enumerate different output strings")
    return float(0.5 * np.abs(a.probabilities - b.probabilities).sum())
