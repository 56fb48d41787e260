"""Combinatorics of time-bin collisions and what they cost.

Under uniform random arrivals into b equal time bins, the multiset of bin
occupancies is a random partition of n with an exactly computable rational
probability.  Whenever that partition is dominated by the witness partition
(ceil(n/2), floor(n/2)) — equivalently, no bin holds more than ceil(n/2)
particles — the blocked fermion rate keeps contributions from the widest
irrep blocks, the ones whose evaluation the cost model prices exponentially.
Everything here is exact big-integer arithmetic except the closed-form tail
estimate, which is the point of comparison.  A pattern's probability takes
the bins' share as a falling factorial of b, never b!, so any b >= 2 is
exact at the cost of integers of about n log2(b) bits, and an ``analyze``
report walks the partitions of n once.

The tail P(some bin holds more than ceil(n/2) particles) equals
b P(Bin(n, 1/b) >= ceil(n/2) + 1) exactly, because no two bins can both
overflow; the sum over partitions is kept so that this identity stays an
independent check (acceptance criterion 7).  For even n its leading term at large b is C(n, n/2 + 1) b^-(n/2).
The closed form sqrt(2/(n pi)) (4/b)^(n/2) has that order in b, replaces the
binomial coefficient by 2^n sqrt(2/(n pi)) and drops the factor
(1 - 1/b)^(n/2 - 1); the union bound on the binomial tail gives the bracket

    c_n <= closed form / exact <= c_n (1 - 1/b)^-(n/2 - 1),
    c_n = sqrt(2/(n pi)) 2^n / C(n, n/2 + 1) = 1 + O(1/n).

The ratio tends to c_n as b grows but can exceed 2 at small b (2.12 at
n = 12, b = 8).  For odd n the leading term is of order b^-((n+1)/2), half a
power of b below the closed form, so the ratio grows like sqrt(b) (7.2 at
n = 11, b = 5; 12.6 at b = 64).  The source does not state whether odd n is
meant to be covered; the formula is kept as is and serves as a reference.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PartdistError, SizeLimitError, _as_count
from .symgroup import (
    _check_partition,
    conjugate,
    dominates,
    gl_dimension,
    partitions_of,
    standard_tableau_count,
)

__all__ = [
    "witness_partition",
    "requires_witness",
    "catalan",
    "CostEstimate",
    "burgisser_cost",
    "delay_partition_probability",
    "WitnessProbability",
    "witness_probability",
    "analyze_report",
    "MAX_ANALYZE_DEGREE",
]

MAX_ANALYZE_DEGREE = 12


def witness_partition(n: int) -> tuple[int, ...]:
    """The two-row partition (ceil(n/2), floor(n/2)); its conjugate is the
    column shape (2, 2, ..., 2[, 1])."""
    n = _as_count(n, "particle")
    if n < 2:
        raise DomainError("witness partition needs n >= 2")
    return (math.ceil(n / 2), n // 2)


def _as_partition(mu) -> tuple[int, ...]:
    """mu as a tuple of ints, refusing parts that are not integers (2.7 is
    not read as 2) and tuples that are not partitions."""
    try:
        mu = tuple(operator.index(p) for p in mu)
    except TypeError as exc:
        raise DomainError(f"partition parts must be integers: {mu!r}") from exc
    _check_partition(mu)
    return mu


def requires_witness(mu) -> bool:
    """True iff a bin-occupancy pattern mu (a descending tuple of integers,
    as :func:`~partdist.delays.discretize` returns) forces the
    witness-class blocks into the kept set: iff mu is dominated by the
    witness partition of n = sum(mu), which is iff no bin holds more than
    ceil(n/2) particles."""
    mu = _as_partition(mu)
    return dominates(witness_partition(sum(mu)), mu)


def catalan(k: int) -> int:
    """The k-th Catalan number C(2k, k)/(k + 1), which counts the balanced
    strings of k pairs of parentheses."""
    k = _as_count(k, "pair")
    if k < 0:
        raise DomainError("Catalan numbers need k >= 0")
    return math.comb(2 * k, k) // (k + 1)


@dataclass(frozen=True)
class CostEstimate:
    """Operation-count estimate [mult + log2(n)] * n^2 * s * d for evaluating
    one group-function block, with the weight-multiplicity s standing in for
    mult (a deliberate over-approximation used for reporting only)."""

    lam: tuple[int, ...]
    n: int
    s_lam: int
    d_lam: int
    operations: float
    is_column_pair_shape: bool  # lam = (2, 2, ..., 2): Catalan closed forms apply


def burgisser_cost(lam) -> CostEstimate:
    """Cost-model the evaluation of the block labelled by the partition lam
    (a descending tuple of integers) of n = sum(lam), in GL(n).

    For the all-twos column shape (2^k) the tableau count is the Catalan
    number C_k and the GL(2k) dimension is C_k * binom(2k+1, k); both closed
    forms are asserted against the hook formulas on every such call.
    """
    lam = _as_partition(lam)
    n = sum(lam)
    s = standard_tableau_count(lam)
    d = gl_dimension(lam, n)
    pair_shape = set(lam) == {2}
    if pair_shape:
        k = len(lam)
        if s != catalan(k) or d != catalan(k) * math.comb(n + 1, k):
            raise PartdistError(f"Catalan closed form failed for {lam}")
    ops = (s + math.log2(n)) * n**2 * s * d
    return CostEstimate(lam, n, s, d, float(ops), pair_shape)


# ---------------------------------------------------------------------------
# Uniform-arrival bin statistics (exact rationals throughout)


def delay_partition_probability(mu, b: int) -> Fraction:
    """Probability that n = sum(mu) uniform arrivals into b bins produce the
    occupancy pattern mu (a descending tuple of integers):
    multinomial(n; mu) * b!/((b - k)! prod_t t!) / b^n, where k = len(mu)
    and t runs over how many parts share each size, and exactly 0 whenever
    mu has more parts than there are bins.  The bins' factor is the falling
    factorial b (b-1) ... (b-k+1) over the tallies, so b! is never formed
    and any b is exact.
    """
    mu = _as_partition(mu)
    b = _as_count(b, "bin")
    if b < 1:
        raise DomainError("need at least one bin")
    if b < len(mu):
        return Fraction(0)
    n = sum(mu)
    ways_particles = math.factorial(n)
    for part in mu:
        ways_particles //= math.factorial(part)
    ways_bins = math.perm(b, len(mu))
    for tally in Counter(mu).values():
        ways_bins //= math.factorial(tally)
    return Fraction(ways_particles * ways_bins, b**n)


@dataclass(frozen=True)
class WitnessProbability:
    """Exact and asymptotic probability that uniform arrivals land in a
    witness-forcing pattern (no bin with more than ceil(n/2) particles).

    ``tail_exact`` is 1 - ``exact``.  ``tail_asymptotic`` has the large-b
    order of the exact tail for even n and stays within the bracket given in
    the module docstring; for odd n it is off by a factor growing like
    sqrt(b).
    """

    n: int
    b: int
    exact: Fraction
    tail_exact: Fraction
    tail_asymptotic: float
    decaying: bool  # the closed-form tail only decays for b >= 5

    @property
    def exact_float(self) -> float:
        return float(self.exact)

    @property
    def asymptotic_order_exact(self) -> bool:
        """Whether ``tail_asymptotic`` has the large-b order of the exact
        tail: for even n only."""
        return self.n % 2 == 0


def _witness_rows(n: int, b: int):
    """One pass over the partitions of n: each as (mu, probability under b
    bins, whether it forces the witness), in :func:`partitions_of` order,
    and the :class:`WitnessProbability` the forcing ones sum to."""
    n, b = _as_count(n, "particle"), _as_count(b, "bin")
    if n < 2 or b < 2:
        raise DomainError("need n >= 2 and b >= 2")
    rows = [(mu, delay_partition_probability(mu, b), requires_witness(mu))
            for mu in partitions_of(n)]
    exact = sum((p for _, p, forces in rows if forces), Fraction(0))
    tail = math.sqrt(2 / (n * math.pi)) * (4 / b) ** (n / 2)
    return rows, WitnessProbability(n, b, exact, 1 - exact, tail, decaying=b >= 5)


def witness_probability(n: int, b: int) -> WitnessProbability:
    """Sum the exact bin-pattern probabilities over every witness-forcing
    partition of n, against the closed-form tail sqrt(2/(n pi)) (4/b)^(n/2).

    The closed form has the large-b order of the exact tail for even n only:
    asymptotic/exact lies in [c_n, c_n (1 - 1/b)^-(n/2 - 1)] with
    c_n = sqrt(2/(n pi)) 2^n / C(n, n/2 + 1).  For odd n the ratio grows like
    sqrt(b).
    """
    return _witness_rows(n, b)[1]


def analyze_report(n: int, b: int) -> dict:
    """Full JSON-shaped report: witness data, per-partition probabilities,
    exact total, and the asymptotic tail, with
    ``tail_asymptotic_order_exact`` false for odd n, where the closed form
    sits a factor growing like sqrt(b) above the exact tail.  Any b >= 2 is
    exact; n is capped at ``MAX_ANALYZE_DEGREE``."""
    n = _as_count(n, "particle")
    if n > MAX_ANALYZE_DEGREE:
        raise SizeLimitError(f"exact enumeration limited to n <= {MAX_ANALYZE_DEGREE}")
    rows, wp = _witness_rows(n, b)
    witness = witness_partition(n)
    witness_conjugate = conjugate(witness)
    return {
        "n": n,
        "b": b,
        "witness": list(witness),
        "witness_conjugate": list(witness_conjugate),
        "dominant_cost_operations": burgisser_cost(witness_conjugate).operations,
        "partitions": [
            {"mu": list(mu), "prob": str(p), "prob_float": float(p), "requires_witness": forces}
            for mu, p, forces in rows
        ],
        "p_exact": str(wp.exact),
        "p_float": wp.exact_float,
        "tail_exact": float(wp.tail_exact),
        "tail_asymptotic": wp.tail_asymptotic,
        "tail_asymptotic_order_exact": wp.asymptotic_order_exact,
        "tail_decaying": wp.decaying,
    }
