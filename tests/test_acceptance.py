"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
happen; without ``-s`` pytest shows them for failing criteria only.

Three criteria pin closed forms whose scale or accuracy is easy to get wrong:

* criterion 5a/5b: at equal times every delay overlap is 1, so the boson
  rate matrix is the all-ones J and v+Jv = |sum_g mono(g)|^2 = |per A|^2
  exactly; the fermion signs turn it into |det A|^2.  The rate is a
  detection probability, not a quantity up to scale, so there is no n! in
  front: with a permutation-matrix interferometer "each detector fires once"
  is certain and the rate must be exactly 1.  The 1e-9 relative bound sits
  above the a-priori rounding bound 2 n! eps (sum_g |v_g|)^2 / target of
  the dense quadratic form, which is at most 4.1e-10 on these inputs.
* criterion 7: no two bins can both hold more than ceil(n/2) particles, so
  the exact tail is b P(Bin(n, 1/b) >= ceil(n/2) + 1), checked here as an
  exact rational identity.  For even n the closed form
  sqrt(2/(n pi)) (4/b)^(n/2) has the large-b order b^-(n/2) of that sum,
  and the union bound on the binomial tail gives the rigorous bracket

      c_n <= asymptotic / exact <= c_n (1 - 1/b)^-(n/2 - 1),
      c_n = sqrt(2/(n pi)) 2^n / C(n, n/2 + 1).

  At (n=12, b=8) the ratio is 2.12, inside [1.19, 2.32]: a fixed factor 2
  is not a bound at small b.
"""

import math
import time
from fractions import Fraction

import numpy as np

import partdist as pd

from orderings import cycle_ordering

RNG_SEED = 20250815


def _gate(num, desc, ok, elapsed, bound):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:>3} [{status}] {desc} ({elapsed:.2f}s, bound {bound}s)")
    assert elapsed < bound, f"criterion {num} exceeded {bound}s: {elapsed:.2f}s"
    assert ok, f"criterion {num} failed: {desc}"


def random_gram(rng, n):
    """Random delay matrix: Gram matrix of random unit vectors."""
    X = rng.normal(size=(n, n + 2))
    G = X @ X.T
    d = np.sqrt(np.diag(G))
    return G / np.outer(d, d)


# ---------------------------------------------------------------------------
# 1. rate-matrix monomials for three particles


def test_rate_monomials_three_particles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    ordering = cycle_ordering(3)
    worst = 0.0
    for _ in range(50):
        r = random_gram(rng, 3)
        r12, r13, r23 = r[0, 1], r[0, 2], r[1, 2]
        triple = r12 * r23 * r13
        expected = np.array([1.0, r12**2, r13**2, r23**2, triple, triple])
        col = pd.rates.rate_matrix(r, "boson", ordering).matrix[:, 0]
        worst = max(worst, np.max(np.abs(col - expected)))
    _gate(1, f"identity-column monomials {{1, r12^2, r13^2, r23^2, triple x2}}, "
             f"max err {worst:.1e}", worst < 1e-12, time.perf_counter() - t0, 1)


# ---------------------------------------------------------------------------
# 2. block entries vs permuted immanants and explicit polynomials


def test_block_entries_match_immanants_and_polynomials():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 1)
    ordering = cycle_ordering(3)
    root3 = math.sqrt(3)

    def rows(r, images):
        return r[list(images), :]

    worst = 0.0
    for _ in range(50):
        r = random_gram(rng, 3)
        r12, r13, r23 = r[0, 1], r[0, 2], r[1, 2]
        triple = r12 * r23 * r13

        per_entry = pd.matfun.dfunction_direct((3,), r, ordering)[0, 0]
        det_entry = pd.matfun.dfunction_direct((1, 1, 1), r, ordering)[0, 0]
        blk = pd.matfun.dfunction_direct((2, 1), r, ordering)

        imm_e = pd.immanant((2, 1), r)
        imm_12 = pd.immanant((2, 1), rows(r, (1, 0, 2)))
        imm_23 = pd.immanant((2, 1), rows(r, (0, 2, 1)))
        imm_132 = pd.immanant((2, 1), rows(r, (2, 0, 1)))

        pairs = [
            # (computed entry, immanant combination, polynomial)
            (per_entry, pd.immanant((3,), r),
             1 + r12**2 + r13**2 + r23**2 + 2 * triple),
            (det_entry, pd.immanant((1, 1, 1), r),
             1 - r12**2 - r13**2 - r23**2 + 2 * triple),
            (blk[0, 0], 0.5 * (imm_e + imm_12),
             1 + r12**2 - 0.5 * r13**2 - 0.5 * r23**2 - triple),
            (blk[0, 1], root3 * (-imm_e / 6 + imm_23 / 3 + imm_12 / 6 - imm_132 / 3),
             (root3 / 2) * (r23**2 - r13**2)),
            (blk[1, 0], root3 * (-imm_e / 6 + imm_23 / 3 + imm_12 / 6 - imm_132 / 3),
             (root3 / 2) * (r23**2 - r13**2)),
            (blk[1, 1], 0.5 * (imm_e - imm_12),
             1 - r12**2 + 0.5 * r13**2 + 0.5 * r23**2 - triple),
        ]
        for got, via_imm, via_poly in pairs:
            scale = max(1.0, abs(got), abs(via_imm), abs(via_poly))
            worst = max(worst, abs(got - via_imm) / scale, abs(got - via_poly) / scale)
    _gate(2, f"six block entries vs immanant combos and polynomials, "
             f"worst rel {worst:.1e}", worst < 1e-9, time.perf_counter() - t0, 5)


# ---------------------------------------------------------------------------
# 3. frozen vanishing pattern for six particles

# rows = block label, columns = bin partition, both in the partitions_of(6)
# order; '1' marks an identically vanishing block
VANISH_PATTERN = [
    "00000000000",  # (6,)
    "10000000000",  # (5,1)
    "11000000000",  # (4,2)
    "11101000000",  # (4,1,1)
    "11110000000",  # (3,3)
    "11111000000",  # (3,2,1)
    "11111101000",  # (3,1,1,1)
    "11111110000",  # (2,2,2)
    "11111111000",  # (2,2,1,1)
    "11111111100",  # (2,1,1,1,1)
    "11111111110",  # (1,1,1,1,1,1)
]


def test_vanishing_block_pattern_six_particles():
    t0 = time.perf_counter()
    parts = pd.partitions_of(6)
    assert len(parts) == 11
    mismatches = sum(
        pd.gamas_vanishes(lam, mu) != (row[j] == "1")
        for lam, row in zip(parts, VANISH_PATTERN)
        for j, mu in enumerate(parts)
    )
    _gate(3, f"121-cell vanishing-block pattern, {mismatches} mismatches",
          mismatches == 0, time.perf_counter() - t0, 1)


# ---------------------------------------------------------------------------
# 4. engine equivalence on random binned cases


def test_engines_agree_on_random_binned_cases():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for n in (2, 3, 4, 5):
        ordering = pd.all_permutations(n)
        T = pd.rates.build_transform(ordering)
        for _ in range(25):
            m = n + int(rng.integers(0, 3))
            itf = pd.haar_unitary(m, seed=int(rng.integers(0, 2**31)))
            bins = int(rng.integers(2, 9))
            window = float(rng.uniform(0.5, 2.0))
            dw = float(rng.uniform(0.5, 4.0))
            idx = rng.integers(1, bins + 1, size=n)
            taus = tuple((int(c) - 0.5) * window / bins for c in idx)
            spec = pd.ArrivalSpec(taus, dw, window, bins)
            r = pd.delay_matrix(spec)
            mu = pd.discretize(spec)[1]
            dets = tuple(sorted(int(x) + 1 for x in rng.choice(m, n, replace=False)))
            ins = tuple(sorted(int(x) + 1 for x in rng.choice(m, n, replace=False)))
            v = pd.monomial_vector(pd.submatrix(itf, dets, ins), ordering)
            for species in ("boson", "fermion"):
                R = pd.rates.rate_matrix(r, species, ordering)
                direct = pd.rates.rate_direct(v, R)
                decomp = pd.rates.attach_vector(v, pd.rates.decompose_rate_matrix(R, T)[0], T, species)
                blocked = pd.rates.rate_blocked(decomp)
                truncated = pd.rates.rate_truncated(decomp, mu)
                scale = max(abs(direct), abs(blocked), abs(truncated))
                worst = max(worst, abs(direct - blocked) / scale,
                            abs(direct - truncated) / scale)
    _gate(4, f"direct/blocked/truncated on 100 random binned cases x both "
             f"species, worst rel {worst:.1e}", worst < 1e-9,
          time.perf_counter() - t0, 120)


# ---------------------------------------------------------------------------
# 5. limit recovery


def _indistinguishable_setup(n):
    m = n + 1
    itf = pd.haar_unitary(m, seed=n)
    ordering = pd.all_permutations(n)
    A = pd.submatrix(itf, tuple(range(1, n + 1)), tuple(range(1, n + 1)))
    return ordering, A, pd.monomial_vector(A, ordering)


def _permutation_rates(species):
    """Equal-time rates for the identity and the cyclic-shift interferometer.

    Each has exactly one nonzero monomial of modulus 1, so every particle is
    certain to reach its own detector and the rate must be exactly 1."""
    for n in range(2, 7):
        ordering = pd.all_permutations(n)
        J = pd.rates.rate_matrix(np.ones((n, n)), species, ordering)
        for A in (np.eye(n), np.roll(np.eye(n), 1, axis=0)):
            yield pd.rates.rate_direct(pd.monomial_vector(A, ordering), J)


def test_equal_time_boson_rate_with_stated_factorial_scale():
    # |per A|^2 with no n! factor, and exactly 1 for permutation matrices
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 7):
        ordering, A, v = _indistinguishable_setup(n)
        rate = pd.rates.rate_direct(v, pd.rates.rate_matrix(np.ones((n, n)), "boson", ordering))
        target = abs(pd.permanent(A)) ** 2
        worst = max(worst, abs(rate - target) / target)
    unit_ok = all(rate == 1.0 for rate in _permutation_rates("boson"))
    _gate("5a", f"equal-time boson rate = |per A|^2 (n <= 6), "
                f"worst rel {worst:.1e}; exactly 1 for permutation A "
                f"({unit_ok})", worst < 1e-9 and unit_ok,
          time.perf_counter() - t0, 30)


def test_equal_time_fermion_rate_with_stated_factorial_scale():
    # |det A|^2 with no n! factor, and exactly 1 for permutation matrices
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 7):
        ordering, A, v = _indistinguishable_setup(n)
        rate = pd.rates.rate_direct(v, pd.rates.rate_matrix(np.ones((n, n)), "fermion", ordering))
        target = abs(np.linalg.det(A)) ** 2
        worst = max(worst, abs(rate - target) / target)
    unit_ok = all(rate == 1.0 for rate in _permutation_rates("fermion"))
    _gate("5b", f"equal-time fermion rate = |det A|^2 (n <= 6), "
                f"worst rel {worst:.1e}; exactly 1 for permutation A "
                f"({unit_ok})", worst < 1e-9 and unit_ok,
          time.perf_counter() - t0, 30)


def test_fully_distinguishable_limit_both_species():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 7):
        ordering, A, v = _indistinguishable_setup(n)
        r_far = pd.delay_matrix_from_times(np.arange(n) * 100.0, 5.0)
        ref = pd.rates.rate_fully_distinguishable(A)
        assert abs(ref - pd.permanent(np.abs(A) ** 2)) <= 1e-12 * ref
        for species in ("boson", "fermion"):
            rate = pd.rates.rate_direct(v, pd.rates.rate_matrix(r_far, species, ordering))
            worst = max(worst, abs(rate - ref) / ref)
    _gate("5c", f"fully distinguishable rate = per(|A_ij|^2), both species "
                f"(n <= 6), worst rel {worst:.1e}", worst < 1e-9,
          time.perf_counter() - t0, 30)


# ---------------------------------------------------------------------------
# 6. exact bin-occupancy probability


def test_bin_occupancy_probability_exact_rational():
    t0 = time.perf_counter()
    p = pd.delay_partition_probability((2, 2, 1), 8)
    exact_ok = isinstance(p, Fraction) and p == Fraction(315, 2048)
    total = sum((pd.delay_partition_probability(mu, 8) for mu in pd.partitions_of(6)),
                start=Fraction(0))
    _gate(6, f"P((2,2,1); 8 bins) = 315/2048 bit-exact (got {p}) and "
             f"sum over partitions of 6 = {total}",
          exact_ok and total == Fraction(1), time.perf_counter() - t0, 1)


# ---------------------------------------------------------------------------
# 7. exact tail identity, asymptotic bracket and monotonicity

# relative slack on the bracket for the few float roundings in sqrt, pow and
# the ratio itself; the smallest margin on the grid is about 3%
BRACKET_SLACK = 1e-12


def _tail_oracle(n, b):
    """b P(Bin(n, 1/b) >= ceil(n/2) + 1): at most one bin can overflow."""
    p = Fraction(1, b)
    k = math.ceil(n / 2) + 1
    return b * sum((math.comb(n, j) * p**j * (1 - p) ** (n - j)
                    for j in range(k, n + 1)), start=Fraction(0))


def _tail_bracket(n, b):
    """Bounds on asymptotic/exact for even n (see the module docstring)."""
    c_n = math.sqrt(2 / (n * math.pi)) * 2**n / math.comb(n, n // 2 + 1)
    return c_n, c_n * (1 - 1 / b) ** -(n / 2 - 1)


def test_tail_asymptotic_agreement_and_monotonicity():
    t0 = time.perf_counter()
    tails = {}
    exact_ok = bracket_ok = True
    max_ratio = 0.0
    for n in (8, 10, 12):
        for b in (8, 16):
            w = pd.witness_probability(n, b)
            exact_ok = exact_ok and w.tail_exact == _tail_oracle(n, b)
            tails[n, b] = float(w.tail_exact)
            ratio = w.tail_asymptotic / float(w.tail_exact)
            lo, hi = _tail_bracket(n, b)
            bracket_ok = bracket_ok and (
                lo * (1 - BRACKET_SLACK) <= ratio <= hi * (1 + BRACKET_SLACK))
            max_ratio = max(max_ratio, ratio)
    mono_n = all(tails[8, b] > tails[10, b] > tails[12, b] for b in (8, 16))
    mono_b = all(tails[n, 8] > tails[n, 16] for n in (8, 10, 12))
    _gate(7, f"exact tail = b P(Bin(n,1/b) > ceil(n/2)) ({exact_ok}); "
             f"sqrt(2/n pi)(4/b)^(n/2) / exact inside [c_n, c_n (1-1/b)^-(n/2-1)] "
             f"({bracket_ok}, max ratio {max_ratio:.3f}); monotone in n, b "
             f"(mono_n={mono_n}, mono_b={mono_b})",
          exact_ok and bracket_ok and mono_n and mono_b,
          time.perf_counter() - t0, 10)


# ---------------------------------------------------------------------------
# 8. counting identities


def test_counting_identities():
    t0 = time.perf_counter()
    squares_ok = all(
        sum(pd.standard_tableau_count(lam) ** 2 for lam in pd.partitions_of(n))
        == math.factorial(n)
        for n in range(1, 9)
    )
    counts_ok = (pd.symgroup.distinct_block_functions(3) == 5
                 and pd.symgroup.distinct_block_functions(4) == 17)
    catalan_ok = all(
        pd.standard_tableau_count((2,) * k) == pd.catalan(k) for k in range(1, 7)
    )
    _gate(8, "sum of squared tableau counts = n! (n <= 8); 5 and 17 distinct "
             "block functions at n=3,4; two-column counts are Catalan (k <= 6)",
          squares_ok and counts_ok and catalan_ok, time.perf_counter() - t0, 1)


# ---------------------------------------------------------------------------
# 9. two-port interference physics and time-shift invariance


def test_two_port_interference_and_shift_invariance():
    t0 = time.perf_counter()
    ordering = pd.all_permutations(2)
    A = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    v = pd.monomial_vector(A, ordering)

    def coincidence(delay, species):
        r = pd.delay_matrix_from_times([0.0, delay], 1.0)
        return pd.rates.rate_direct(v, pd.rates.rate_matrix(r, species, ordering))

    delays = np.linspace(0.0, 3.0, 31)
    boson = np.array([coincidence(d, "boson") for d in delays])
    fermion = np.array([coincidence(d, "fermion") for d in delays])
    dip_ok = abs(boson[0]) < 1e-12 and bool(np.all(np.diff(boson) > 0))
    peak_ok = bool(np.all(fermion[0] >= fermion))

    ordering3 = pd.all_permutations(3)
    itf = pd.haar_unitary(5, seed=1)
    v3 = pd.monomial_vector(pd.submatrix(itf, (1, 2, 3), (1, 2, 3)), ordering3)
    worst_shift = 0.0
    for d2 in np.linspace(-1, 1, 5):
        for d3 in np.linspace(-1, 1, 5):
            for species in ("boson", "fermion"):
                base = pd.rates.rate_direct(v3, pd.rates.rate_matrix(
                    pd.delay_matrix_from_times([0.0, d2, d3], 1.3), species, ordering3))
                moved = pd.rates.rate_direct(v3, pd.rates.rate_matrix(
                    pd.delay_matrix_from_times([5.0, 5.0 + d2, 5.0 + d3], 1.3),
                    species, ordering3))
                worst_shift = max(worst_shift, abs(base - moved))
    _gate(9, f"balanced two-port: boson dip at zero delay rising monotonically, "
             f"fermion peak at zero; global shift invariance {worst_shift:.1e}",
          dip_ok and peak_ok and worst_shift < 1e-12, time.perf_counter() - t0, 5)


# ---------------------------------------------------------------------------
# 10. trace and homomorphism identities


def test_trace_and_homomorphism_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 10)
    worst = 0.0
    for n in range(1, 5):
        ordering = pd.all_permutations(n)
        for lam in pd.partitions_of(n):
            for _ in range(20):
                M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                P = np.eye(n)[ordering.images_array[int(rng.integers(math.factorial(n)))]]
                DM = pd.matfun.dfunction_direct(lam, M, ordering)
                worst = max(worst, abs(np.trace(DM) - pd.immanant(lam, M)))
                DP = pd.matfun.dfunction_direct(lam, P, ordering)
                DPM = pd.matfun.dfunction_direct(lam, P @ M, ordering)
                worst = max(worst, float(np.max(np.abs(DP @ DM - DPM))))
    _gate(10, f"trace equals immanant and permutations act homomorphically, "
              f"all shapes with n <= 4, worst err {worst:.1e}", worst < 1e-8,
          time.perf_counter() - t0, 60)


# ---------------------------------------------------------------------------
# property-based complexity checks


def test_witness_rule_equivalence_and_dimension_growth():
    t0 = time.perf_counter()
    # requires_witness (a dominance test) must agree with the width rule and
    # with the prefix sums on the full domain, and flag the witness itself
    witness_ok = True
    for n in range(2, 11):
        w = pd.witness_partition(n)
        for mu in pd.partitions_of(n):
            flag = pd.requires_witness(mu)
            prefix = all(sum(mu[:k]) <= sum(w[:k]) for k in range(1, len(mu) + 1))
            witness_ok = witness_ok and flag == (mu[0] <= math.ceil(n / 2)) == prefix
            if mu == w:
                witness_ok = witness_ok and flag

    dims = [pd.burgisser_cost((2,) * k).d_lam for k in range(1, 7)]
    growth_ok = all(b >= 2 * a for a, b in zip(dims, dims[1:]))
    closed_form = 2 ** (2 * 12 + 3) / (12**2 * math.pi)
    ratio = dims[-1] / closed_form
    _gate("P", f"witness rule triple-equivalence for all shapes n <= 10; "
               f"paired-column dimension grows exponentially and is within "
               f"25% of its closed form at n=12 (ratio {ratio:.3f})",
          witness_ok and growth_ok and abs(ratio - 1) <= 0.25,
          time.perf_counter() - t0, 30)
