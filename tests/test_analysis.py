import math
from fractions import Fraction

import numpy as np
import pytest

from partdist.analysis import (
    analyze_report,
    burgisser_cost,
    catalan,
    delay_partition_probability,
    requires_witness,
    witness_partition,
    witness_probability,
)
from partdist.errors import DomainError, SizeLimitError
from partdist.symgroup import conjugate, dominates, partitions_of


# ---------------------------------------------------------------------------
# Witness partition


def test_witness_partition_values():
    assert witness_partition(2) == (1, 1)
    assert witness_partition(6) == (3, 3)
    assert witness_partition(7) == (4, 3)
    assert conjugate(witness_partition(6)) == (2, 2, 2)
    assert conjugate(witness_partition(7)) == (2, 2, 2, 1)
    with pytest.raises(DomainError):
        witness_partition(1)


def test_requires_witness_examples():
    assert requires_witness((3, 3))
    assert not requires_witness((4, 2))
    assert requires_witness((2, 2, 2))
    assert requires_witness((2, 2, 1))
    for bad in ((1, 2), (2, 0)):  # not sorted descending, an empty part
        with pytest.raises(DomainError):
            requires_witness(bad)


def _dominated_by_prefix_sums(mu, w):
    # every prefix sum of mu at most the same prefix sum of w, written out
    # apart from symgroup.dominates
    width = max(len(mu), len(w))
    acc_mu = acc_w = 0
    for pm, pw in zip(list(mu) + [0] * (width - len(mu)), list(w) + [0] * (width - len(w))):
        acc_mu += pm
        acc_w += pw
        if acc_mu > acc_w:
            return False
    return True


def test_requires_witness_equals_width_rule_everywhere():
    # the dominance test requires_witness takes, the width rule and the
    # prefix sums agree on every partition of n <= 12
    for n in range(2, 13):
        w = witness_partition(n)
        for mu in partitions_of(n):
            got = requires_witness(mu)
            assert got == (mu[0] <= math.ceil(n / 2))
            assert got == dominates(w, mu)
            assert got == _dominated_by_prefix_sums(mu, w)


@pytest.mark.parametrize("call", [
    requires_witness,
    burgisser_cost,
    lambda mu: delay_partition_probability(mu, 4),
], ids=["requires_witness", "burgisser_cost", "delay_partition_probability"])
def test_non_integral_parts_are_refused(call):
    # int() would read (2.7, 1) as (2, 1)
    for bad in ((2.7, 1), (2.0, 1), ("2", "1")):
        with pytest.raises(DomainError):
            call(bad)
    call((np.int64(2), 1))  # integer types other than int stand for themselves


def test_non_integral_bin_counts_are_refused():
    # math.perm raised a bare TypeError on 4.0; "8" failed the b < 2 check
    for bad in (4.0, 8.5, "8", None):
        with pytest.raises(DomainError, match="bin count"):
            delay_partition_probability((2, 1), bad)
        with pytest.raises(DomainError, match="bin count"):
            witness_probability(6, bad)
    assert delay_partition_probability((2, 1), np.int64(4)) == delay_partition_probability((2, 1), 4)
    assert witness_probability(6, np.int64(8)).exact == witness_probability(6, 8).exact


def test_non_integral_particle_counts_are_refused():
    # witness_partition(6.5) returned (4, 3.0), a partition of 7 with a float
    # part; witness_probability(6.0, 8) raised a bare TypeError
    for bad in (6.5, 6.0, "6", None):
        with pytest.raises(DomainError, match="particle count"):
            witness_partition(bad)
        with pytest.raises(DomainError, match="particle count"):
            witness_probability(bad, 8)
        with pytest.raises(DomainError, match="particle count"):
            analyze_report(bad, 8)
        with pytest.raises(DomainError, match="pair count"):
            catalan(bad)  # math.comb raised a bare TypeError on 6.5
    assert witness_partition(np.int64(7)) == (4, 3)
    assert catalan(np.int64(3)) == catalan(3) == 5
    assert witness_probability(np.int64(6), 8).exact == witness_probability(6, 8).exact
    assert analyze_report(np.int64(6), 8) == analyze_report(6, 8)


# ---------------------------------------------------------------------------
# Cost model


def test_catalan_numbers():
    assert [catalan(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_burgisser_cost_column_pairs():
    est = burgisser_cost((2, 2, 2))
    assert est.s_lam == 5
    assert est.d_lam == 175
    assert est.is_column_pair_shape
    assert est.operations == pytest.approx((5 + math.log2(6)) * 36 * 5 * 175)


def test_burgisser_cost_growth_matches_closed_form_estimate():
    est = burgisser_cost((2,) * 6)
    approx = 2 ** (2 * 12 + 3) / (12**2 * math.pi)
    assert abs(est.d_lam - approx) / approx < 0.25


def test_burgisser_cost_exponential_growth():
    dims = [burgisser_cost((2,) * (n // 2)).d_lam for n in (4, 6, 8, 10, 12)]
    ratios = [b / a for a, b in zip(dims, dims[1:])]
    assert all(r > 8 for r in ratios)  # ~16x per step, comfortably exponential
    assert dims == sorted(dims)


# ---------------------------------------------------------------------------
# Exact bin-collision probabilities


def test_delay_partition_probability_known_value():
    assert delay_partition_probability((2, 2, 1), 8) == Fraction(315, 2048)


@pytest.mark.parametrize("n,b", [(4, 6), (5, 8), (6, 8)])
def test_delay_partition_probabilities_sum_to_one(n, b):
    total = sum(delay_partition_probability(mu, b) for mu in partitions_of(n))
    assert total == 1


def test_no_collision_is_the_birthday_formula():
    for n, b in ((3, 5), (4, 6), (5, 9)):
        want = Fraction(math.factorial(b), math.factorial(b - n) * b**n)
        assert delay_partition_probability((1,) * n, b) == want
    # at a billion bins, where b! could not be formed: the product of
    # (b - i)/b over i < n
    b = 10**9
    for n in (2, 7, 12):
        want = math.prod((Fraction(b - i, b) for i in range(n)), start=Fraction(1))
        assert delay_partition_probability((1,) * n, b) == want


def test_more_parts_than_bins_is_impossible():
    assert delay_partition_probability((1, 1, 1, 1), 3) == 0
    assert delay_partition_probability((2, 1, 1), 2) == 0
    with pytest.raises(DomainError):
        delay_partition_probability((2, 1), 0)


def test_single_bin_forces_full_collision():
    assert delay_partition_probability((4,), 1) == 1
    assert delay_partition_probability((3, 1), 1) == 0


def test_monte_carlo_cross_check_n6_b8():
    # exact tail (some bin holds more than 3 of 6 arrivals) vs simulation
    exact_tail = float(witness_probability(6, 8).tail_exact)
    rng = np.random.default_rng(123)
    trials = 1_000_000
    bins = rng.integers(0, 8, size=(trials, 6))
    max_load = np.array([np.bincount(row, minlength=8).max() for row in bins])
    hits = int((max_load > 3).sum())
    sigma = math.sqrt(exact_tail * (1 - exact_tail) / trials)
    assert abs(hits / trials - exact_tail) < 3 * sigma


# ---------------------------------------------------------------------------
# Witness probability and tail


def test_witness_probability_n6_b8_tail_agreement():
    wp = witness_probability(6, 8)
    rel = abs(float(wp.tail_exact) - wp.tail_asymptotic) / wp.tail_asymptotic
    assert rel < 0.5
    assert wp.decaying


def test_witness_probability_flags_non_decaying_bins():
    assert not witness_probability(6, 4).decaying
    assert witness_probability(6, 5).decaying


def test_witness_probability_monotone_in_bins():
    values = [witness_probability(6, b).exact for b in range(5, 21)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_analyze_report_shape_and_witness_set():
    report = analyze_report(6, 8)
    assert report["n"] == 6 and report["b"] == 8
    assert report["witness"] == [3, 3]
    assert report["witness_conjugate"] == [2, 2, 2]
    assert len(report["partitions"]) == 11
    flagged = {tuple(row["mu"]) for row in report["partitions"] if row["requires_witness"]}
    assert flagged == {
        (3, 3), (3, 2, 1), (3, 1, 1, 1), (2, 2, 2),
        (2, 2, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1),
    }
    total = sum(Fraction(row["prob"]) for row in report["partitions"])
    assert total == 1
    assert Fraction(report["p_exact"]) == witness_probability(6, 8).exact


def test_analyze_report_flags_odd_n_closed_form():
    # even n: the closed form has the exact tail's order, so asymptotic /
    # exact stays put as b grows; odd n: it is half a power of b too high
    def ratios(n):
        return [analyze_report(n, b)["tail_asymptotic"] / analyze_report(n, b)["tail_exact"]
                for b in (16, 64)]

    assert analyze_report(6, 8)["tail_asymptotic_order_exact"] is True
    assert analyze_report(7, 8)["tail_asymptotic_order_exact"] is False
    even, odd = ratios(6), ratios(7)
    assert even[1] / even[0] < 1.5
    assert odd[1] / odd[0] > 1.7  # about sqrt(64 / 16) = 2


def test_analyze_report_degree_guard():
    with pytest.raises(SizeLimitError):
        analyze_report(13, 8)
