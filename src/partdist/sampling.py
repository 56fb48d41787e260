"""Output distributions over collision-free detection patterns, and exact
sampling from them.

A distribution enumerates every n-of-m detector string once, computes its
coincidence rate (a detection probability), and renormalizes over the
collision-free set (post-selection: runs where some detector saw two
particles are discarded).
Sampling is exact inverse-CDF over the enumerated table — no Markov chain,
no approximation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .delays import ArrivalSpec, delay_matrix, discretize, snapped_delay_matrix
from .errors import DomainError, NumericalError, SizeLimitError
from .interferometer import (
    Interferometer,
    OutputString,
    enumerate_outputs,
    monomial_vector,
    submatrix,
)
from .matfun import determinant, permanent
from .rates import (
    attach_vector,
    build_transform,
    fourier_blocks,
    rate_blocked,
    rate_direct,
    rate_matrix,
    rate_truncated,
)
from .symgroup import all_permutations

__all__ = [
    "OutputDistribution",
    "build_distribution",
    "sample",
    "FermionCheckReport",
    "indistinguishable_fermion_check",
    "reference_indistinguishable",
    "reference_distinguishable",
    "to_jsonl",
    "to_csv",
    "entropy_bits",
    "total_variation",
    "MAX_DISTRIBUTION_STRINGS",
    "MAX_DISTRIBUTION_DEGREE",
]

MAX_DISTRIBUTION_STRINGS = 100_000
MAX_DISTRIBUTION_DEGREE = 7


def _spec_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass(frozen=True)
class OutputDistribution:
    """Normalized distribution over the collision-free strings G_{m,n}.

    ``entries`` holds (string, raw rate, probability) triples, one
    per string, in the fixed enumeration order of the output strings.
    ``parseval_residual`` is the largest |‖T v‖² - ‖v‖²| over the strings on
    the blocked and truncated engines, and None on the others.
    """

    m: int
    n: int
    species: str
    engine: str
    arrival_hash: str
    entries: tuple[tuple[OutputString, float, float], ...]
    total_rate: float
    interferometer: Interferometer | None = None
    input_ports: tuple[int, ...] | None = None
    parseval_residual: float | None = None

    def __post_init__(self):
        probs = self.probabilities
        if probs.min() < 0:
            raise DomainError("probabilities must be non-negative")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise DomainError(f"probabilities sum to {probs.sum()}, not 1")

    @property
    def strings(self) -> tuple[OutputString, ...]:
        return tuple(e[0] for e in self.entries)

    @property
    def rates(self) -> np.ndarray:
        return np.array([e[1] for e in self.entries])

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([e[2] for e in self.entries])


def _normalize(strings, rates, m, n, species, engine, arrival_hash,
               interferometer=None, input_ports=None,
               parseval_residual=None) -> OutputDistribution:
    rates = np.asarray(rates, dtype=float)
    total = float(rates.sum())
    if not total > 0.0:
        raise NumericalError("every collision-free rate vanished; cannot normalize")
    probs = rates / total
    entries = tuple(
        (s, float(r), float(p)) for s, r, p in zip(strings, rates, probs)
    )
    return OutputDistribution(
        m, n, species, engine, arrival_hash, entries, total,
        interferometer, input_ports, parseval_residual,
    )


def build_distribution(
    interferometer: Interferometer,
    spec: ArrivalSpec,
    species: str = "boson",
    engine: str = "direct",
    *,
    input_ports: tuple[int, ...] | None = None,
    snapped: bool = False,
    approximate_mu: tuple[int, ...] | None = None,
    convention: str = "lex",
) -> OutputDistribution:
    """Exact output distribution for one interferometer + arrival profile.

    The expensive group-level objects (the rate matrix for ``direct``; the
    block transform and the Fourier blocks for ``blocked`` and
    ``truncated``) are built once and shared across every output string;
    only the monomial vector changes per string.  ``snapped`` replaces each
    arrival time by its bin center first, which is what makes the truncated
    engine exact; on raw continuous times the truncated engine refuses to
    run unless the caller opts into the approximation by passing the bin
    partition to drop against as ``approximate_mu``.
    """
    m = interferometer.m
    n = spec.n
    if input_ports is None:
        input_ports = tuple(range(1, n + 1))
    if len(input_ports) != n:
        raise DomainError(f"need {n} input ports, got {len(input_ports)}")
    if n > MAX_DISTRIBUTION_DEGREE:
        raise SizeLimitError(f"distributions limited to n <= {MAX_DISTRIBUTION_DEGREE}")
    if math.comb(m, n) > MAX_DISTRIBUTION_STRINGS:
        raise SizeLimitError(
            f"binom({m},{n}) = {math.comb(m, n)} output strings exceeds "
            f"{MAX_DISTRIBUTION_STRINGS}"
        )
    if engine not in ("direct", "blocked", "truncated"):
        raise DomainError(f"unknown engine {engine!r}")

    bins, part = discretize(spec)
    if engine == "truncated" and not snapped and approximate_mu is None:
        raise DomainError(
            "truncated engine on continuous times discards nonzero blocks; "
            "pass snapped=True to bin the times first, or opt in with "
            "approximate_mu"
        )
    r = snapped_delay_matrix(bins, spec) if snapped else delay_matrix(spec)
    arrival_hash = _spec_hash(
        {"taus": list(spec.taus), "delta_omega": spec.delta_omega,
         "window": spec.window, "bins": spec.bins, "snapped": snapped}
    )

    ordering = all_permutations(n, convention)
    strings = enumerate_outputs(m, n, MAX_DISTRIBUTION_STRINGS)
    residuals = []
    if engine == "direct":
        R = rate_matrix(r, species, ordering)
        def one_rate(v):
            return rate_direct(v, R)
    else:
        T = build_transform(ordering)
        blocks = fourier_blocks(r, species, T)
        mu = part.partition if approximate_mu is None else tuple(approximate_mu)
        def one_rate(v):
            decomp = attach_vector(v, blocks, T, species)
            residuals.append(decomp.parseval_residual)
            if engine == "blocked":
                return rate_blocked(decomp)
            return rate_truncated(decomp, mu)

    rates = []
    for s in strings:
        A = submatrix(interferometer, s, input_ports)
        rates.append(one_rate(monomial_vector(A, ordering)))
    return _normalize(strings, rates, m, n, species, engine, arrival_hash,
                      interferometer, input_ports,
                      max(residuals) if residuals else None)


def sample(dist: OutputDistribution, count: int, seed: int | None = None):
    """``count`` i.i.d. draws by inverse CDF; deterministic given the seed."""
    if count < 0:
        raise DomainError("count must be non-negative")
    cdf = np.cumsum(dist.probabilities)
    cdf[-1] = 1.0  # guard the last bin against rounding
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(cdf, rng.random(count), side="right")
    strings = dist.strings
    return [strings[i] for i in idx]


# ---------------------------------------------------------------------------
# Classical reference distributions


def _closed_form_distribution(interferometer, n, input_ports, per_string,
                              species, tag) -> OutputDistribution:
    m = interferometer.m
    if input_ports is None:
        input_ports = tuple(range(1, n + 1))
    if math.comb(m, n) > MAX_DISTRIBUTION_STRINGS:
        raise SizeLimitError(f"binom({m},{n}) output strings exceed the guard")
    strings = enumerate_outputs(m, n, MAX_DISTRIBUTION_STRINGS)
    rates = [per_string(submatrix(interferometer, s, input_ports)) for s in strings]
    return _normalize(strings, rates, m, n, species, "reference",
                      f"reference:{tag}", interferometer, input_ports)


def reference_indistinguishable(
    interferometer: Interferometer,
    n: int,
    species: str,
    input_ports: tuple[int, ...] | None = None,
) -> OutputDistribution:
    """All arrival times equal: probabilities proportional to |per A(s)|^2
    for bosons and |det A(s)|^2 for fermions."""
    if species == "boson":
        fn = lambda A: abs(permanent(A)) ** 2
    elif species == "fermion":
        fn = lambda A: abs(determinant(A)) ** 2
    else:
        raise DomainError(f"species must be 'boson' or 'fermion', got {species!r}")
    return _closed_form_distribution(
        interferometer, n, input_ports, fn, species, "indistinguishable"
    )


def reference_distinguishable(
    interferometer: Interferometer,
    n: int,
    species: str = "boson",
    input_ports: tuple[int, ...] | None = None,
) -> OutputDistribution:
    """Fully distinguishable particles: probabilities proportional to
    per(|A_ij(s)|^2) for either species."""
    fn = lambda A: float(permanent(np.abs(A) ** 2).real)
    return _closed_form_distribution(
        interferometer, n, input_ports, fn, species, "distinguishable"
    )


@dataclass(frozen=True)
class FermionCheckReport:
    """Cross-check of a simultaneous-arrival fermion distribution against the
    determinant distribution it must equal — the case a classical machine
    handles in polynomial time."""

    max_abs_diff: float
    classically_easy: bool
    deviations: tuple[float, ...]


def indistinguishable_fermion_check(
    dist: OutputDistribution, tol: float = 1e-9
) -> FermionCheckReport:
    """Verify each probability equals |det A(s)|^2 / sum.

    Requires the distribution to carry its interferometer (built in-process)
    and to be fermionic with all arrival times equal.
    """
    if dist.species != "fermion":
        raise DomainError("check applies to fermion distributions only")
    if dist.interferometer is None:
        raise DomainError("distribution does not carry its interferometer")
    ref = reference_indistinguishable(
        dist.interferometer, dist.n, "fermion", dist.input_ports
    )
    diffs = np.abs(dist.probabilities - ref.probabilities)
    return FermionCheckReport(
        max_abs_diff=float(diffs.max()),
        classically_easy=bool(diffs.max() < tol),
        deviations=tuple(float(d) for d in diffs),
    )


# ---------------------------------------------------------------------------
# Export and summary helpers


def to_jsonl(dist: OutputDistribution, path) -> None:
    """One record per string: {"s": "01101", "rate": x, "prob": p}."""
    with open(path, "w") as fh:
        for s, rate, prob in dist.entries:
            fh.write(json.dumps({"s": str(s), "rate": rate, "prob": prob}))
            fh.write("\n")


def to_csv(dist: OutputDistribution, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "rate", "prob"])
        for s, rate, prob in dist.entries:
            writer.writerow([str(s), repr(rate), repr(prob)])


def entropy_bits(dist: OutputDistribution) -> float:
    p = dist.probabilities
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def total_variation(a: OutputDistribution, b: OutputDistribution) -> float:
    if a.strings != b.strings:
        raise DomainError("distributions enumerate different output strings")
    return float(0.5 * np.abs(a.probabilities - b.probabilities).sum())
