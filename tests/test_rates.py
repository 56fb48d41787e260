import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partdist.delays import ArrivalSpec, delay_matrix_from_times, discretize, snapped_delay_matrix
from partdist.errors import DomainError, NumericalError, SizeLimitError
from partdist.interferometer import OutputString, haar_unitary, monomial_vector, submatrix
from partdist.matfun import determinant, dfunction_direct, immanant, permanent
from partdist.rates import (
    _composition_tables,
    attach_vector,
    BlockTransform,
    block_decompose,
    build_transform,
    decompose_rate_matrix,
    fourier_blocks,
    gamas_vanishes,
    rate_blocked,
    rate_direct,
    rate_direct_streaming,
    rate_fully_distinguishable,
    rate_matrix,
    rate_truncated,
    rate_via_reduction,
    reduce_distinguishable_particle,
    truncation_report,
)
from partdist.symgroup import (
    all_permutations,
    conjugate,
    dominates,
    irrep_matrices,
    partitions_of,
    standard_tableau_count,
)


UNIT_ROUNDOFF = np.finfo(float).eps / 2


def gamma(k):
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def transform_rounding(n):
    """delta with ||fl(T v) - T_exact v|| <= delta ||v||: the stored T lies
    within sqrt(2N) L gamma_{s+3} of an orthogonal matrix (L = n(n-1)/2
    generator products per irrep matrix, s the largest irrep dimension) and
    the product rounds by gamma_N sqrt(N); see rates.attach_vector."""
    N = math.factorial(n)
    s_max = max(standard_tableau_count(lam) for lam in partitions_of(n))
    return math.sqrt(N) * (2 * (n * (n - 1) // 2) * gamma(s_max + 3) + gamma(N))


def block_rounding(n):
    """Entrywise bound on |Fourier block - dense T R T^t block|.  |R_ij| <= 1
    and the rows of T are unit vectors, so |T||R||T|^t <= N entrywise and the
    dense product rounds by gamma_2N N; the transform's distance from
    orthogonal enters once per side, against ||R||_2 <= N."""
    N = math.factorial(n)
    return 2 * N * (gamma(2 * N) + 2 * transform_rounding(n))


def rate_rounding(n, norm2):
    """Bound on |blocked or truncated - direct| for a vector with
    ||v||^2 = norm2: the direct form rounds by 2 gamma_2N ||v||_1^2 <=
    2 gamma_2N N ||v||^2, and the block form by at most four transform
    roundings against ||R||_2 <= N."""
    N = math.factorial(n)
    return N * (2 * gamma(2 * N) + 4 * transform_rounding(n)) * norm2


def _random_case(n, seed):
    rng = np.random.default_rng(seed)
    itf = haar_unitary(2 * n, seed=seed)
    s = OutputString.from_detectors(2 * n, tuple(sorted(rng.choice(2 * n, n, replace=False) + 1)))
    A = submatrix(itf, s)
    taus = rng.uniform(0, 1, size=n)
    r = delay_matrix_from_times(taus, rng.uniform(0.5, 3.0))
    return A, r


# ---------------------------------------------------------------------------
# Rate matrix structure


def test_rate_matrix_monomials_n3_cycle_ordering():
    rng = np.random.default_rng(0)
    ordering = all_permutations(3, "cycle")
    taus = rng.uniform(0, 1, size=3)
    r = delay_matrix_from_times(taus, 1.8)
    R = rate_matrix(r, "boson", ordering).matrix
    triple = r[0, 1] * r[1, 2] * r[0, 2]
    want = [1.0, r[0, 1] ** 2, r[0, 2] ** 2, r[1, 2] ** 2, triple, triple]
    assert np.allclose(R[:, 0], want, atol=1e-14)
    assert np.allclose(np.diag(R), 1.0, atol=1e-14)


def test_rate_matrix_is_symmetric_psd_boson():
    A, r = _random_case(4, 1)
    R = rate_matrix(r, "boson", all_permutations(4)).matrix
    assert np.allclose(R, R.T, atol=1e-13)
    assert np.linalg.eigvalsh(R).min() > -1e-10


def test_fermion_rate_matrix_is_sign_twisted_boson():
    A, r = _random_case(3, 2)
    ordering = all_permutations(3)
    Rb = rate_matrix(r, "boson", ordering).matrix
    Rf = rate_matrix(r, "fermion", ordering).matrix
    signs = ordering.signs
    assert np.allclose(Rf, Rb * np.outer(signs, signs), atol=1e-14)


def _composition_tables_by_columns(ordering):
    # the column-by-column construction the breadth-first table replaced
    n = ordering.n
    N = len(ordering)
    P = ordering.images_array
    powers = n ** np.arange(n, dtype=np.int64)
    lut = np.full(n**n, -1, dtype=np.intp)
    lut[P @ powers] = np.arange(N)
    inv_images = P[ordering.inverse_indices]
    comp = np.empty((N, N), dtype=np.intp)
    for j in range(N):
        comp[:, j] = lut[inv_images[j][P] @ powers]
    return comp


@pytest.mark.parametrize("convention", ["lex", "cycle"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_composition_table_matches_column_loop(n, convention):
    ordering = all_permutations(n, convention)
    table = _composition_tables(ordering)
    assert np.array_equal(table, _composition_tables_by_columns(ordering))
    assert not table.flags.writeable


def test_rate_matrix_input_validation():
    ordering = all_permutations(3)
    with pytest.raises(DomainError):
        rate_matrix(np.eye(3) * 2, "boson", ordering)  # diagonal not 1
    with pytest.raises(DomainError):
        rate_matrix(np.eye(4), "boson", ordering)  # shape mismatch
    with pytest.raises(DomainError):
        rate_matrix(np.eye(3), "photon", ordering)
    with pytest.raises(SizeLimitError):
        rate_matrix(np.eye(8), "boson", all_permutations(8))


# ---------------------------------------------------------------------------
# Hong-Ou-Mandel closed forms


@pytest.mark.parametrize("rho", [0.0, 0.25, 0.8, 1.0])
def test_hom_two_port(rho):
    ordering = all_permutations(2)
    A = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    r = np.array([[1.0, rho], [rho, 1.0]])
    v = monomial_vector(A, ordering)
    boson = rate_direct(v, rate_matrix(r, "boson", ordering))
    fermion = rate_direct(v, rate_matrix(r, "fermion", ordering))
    assert boson == pytest.approx(0.5 * (1 - rho**2), abs=1e-14)
    assert fermion == pytest.approx(0.5 * (1 + rho**2), abs=1e-14)


# ---------------------------------------------------------------------------
# Engine equivalences


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_direct_streaming_blocked_agree(n, species):
    A, r = _random_case(n, 10 + n)
    ordering = all_permutations(n)
    v = monomial_vector(A, ordering)
    R = rate_matrix(r, species, ordering)
    direct = rate_direct(v, R)
    stream = rate_direct_streaming(v, r, species, ordering, chunk=5)
    T = build_transform(ordering)
    blocked = rate_blocked(block_decompose(v, R, T))
    scale = max(1.0, direct)
    assert abs(direct - stream) < 1e-12 * scale
    assert abs(direct - blocked) < 1e-10 * scale


def test_streaming_chunk_size_does_not_change_result_materially():
    A, r = _random_case(4, 3)
    ordering = all_permutations(4)
    v = monomial_vector(A, ordering)
    values = [rate_direct_streaming(v, r, "boson", ordering, chunk=c) for c in (1, 7, 24, 1000)]
    assert max(values) - min(values) < 1e-12
    # identical chunk size is bit-for-bit reproducible
    assert rate_direct_streaming(v, r, "boson", ordering, chunk=7) == values[1]


def test_rate_is_ordering_convention_independent():
    A, r = _random_case(4, 4)
    for species in ("boson", "fermion"):
        vals = []
        for convention in ("lex", "cycle"):
            ordering = all_permutations(4, convention)
            v = monomial_vector(A, ordering)
            vals.append(rate_direct(v, rate_matrix(r, species, ordering)))
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)


# ---------------------------------------------------------------------------
# Block structure


def test_transform_is_orthogonal():
    for n in (2, 3, 4):
        T = build_transform(all_permutations(n))
        N = math.factorial(n)
        assert T.matrix.shape == (N, N)
        assert np.allclose(T.matrix @ T.matrix.T, np.eye(N), atol=1e-12)
        assert sum(dim * dim for _, _, dim in T.layout) == N


def test_boson_blocks_equal_transformed_gram_functions():
    _, r = _random_case(4, 5)
    ordering = all_permutations(4)
    T = build_transform(ordering)
    R = rate_matrix(r, "boson", ordering)
    blocks, offblock = decompose_rate_matrix(R, T)
    assert offblock < 1e-10
    for lam in partitions_of(4):
        want = dfunction_direct(lam, r, irrep_matrices(lam, ordering))
        assert np.allclose(blocks[lam], want, atol=1e-10)


def test_fermion_blocks_have_conjugate_spectra():
    _, r = _random_case(4, 6)
    ordering = all_permutations(4)
    T = build_transform(ordering)
    blocks, _ = decompose_rate_matrix(rate_matrix(r, "fermion", ordering), T)
    for lam in partitions_of(4):
        conj_block = dfunction_direct(conjugate(lam), r, irrep_matrices(conjugate(lam), ordering))
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(blocks[lam])),
            np.sort(np.linalg.eigvalsh(conj_block)),
            atol=1e-10,
        )


def test_block_traces_sum_to_group_order():
    # trace is preserved by the orthogonal transform: each lam block appears
    # s_lam times, and the rate matrix has unit diagonal, so the copy-weighted
    # block traces add up to n!
    _, r = _random_case(4, 7)
    ordering = all_permutations(4)
    blocks, _ = decompose_rate_matrix(rate_matrix(r, "boson", ordering), build_transform(ordering))
    total = sum(
        standard_tableau_count(lam) * np.trace(blocks[lam]) for lam in partitions_of(4)
    )
    assert total == pytest.approx(math.factorial(4), rel=1e-12)


@pytest.mark.parametrize("snapped", [False, True])
@pytest.mark.parametrize("convention", ["lex", "cycle"])
@pytest.mark.parametrize("species", ["boson", "fermion"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_fourier_blocks_match_dense_reference(n, species, convention, snapped):
    rng = np.random.default_rng(100 + n)
    spec = ArrivalSpec(tuple(rng.uniform(0, 1, size=n)), 2.0, 1.0, 3)
    if snapped:
        r = snapped_delay_matrix(discretize(spec)[0], spec)
    else:
        r = delay_matrix_from_times(spec.taus, spec.delta_omega)
    ordering = all_permutations(n, convention)
    T = build_transform(ordering)
    itf = haar_unitary(2 * n, seed=n)
    A = submatrix(itf, OutputString.from_detectors(2 * n, tuple(range(1, n + 1))))
    v = monomial_vector(A, ordering)
    reference = block_decompose(v, rate_matrix(r, species, ordering), T)
    decomp = attach_vector(v, fourier_blocks(r, species, T), T, species)
    tol = block_rounding(n)
    norm2 = float(np.vdot(v.values, v.values).real)
    assert decomp.blocks.keys() == reference.blocks.keys()
    for lam, block in decomp.blocks.items():
        assert not block.flags.writeable
        assert np.max(np.abs(block - reference.blocks[lam])) <= tol
        s = standard_tableau_count(lam)
        assert abs(decomp.term(lam) - reference.term(lam)) <= s * tol * norm2


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    species=st.sampled_from(["boson", "fermion"]),
    convention=st.sampled_from(["lex", "cycle"]),
)
def test_block_engines_equal_direct_property(n, seed, species, convention):
    rng = np.random.default_rng(seed)
    bins = int(rng.integers(2, n + 3))
    spec = ArrivalSpec(tuple(rng.uniform(0, 1, size=n)), float(rng.uniform(0.5, 4.0)), 1.0, bins)
    idx, part = discretize(spec)
    m = n + int(rng.integers(0, 3))
    itf = haar_unitary(m, seed=seed)
    s = OutputString.from_detectors(m, tuple(sorted(rng.choice(m, n, replace=False) + 1)))
    ordering = all_permutations(n, convention)
    T = build_transform(ordering)
    v = monomial_vector(submatrix(itf, s), ordering)
    tol = rate_rounding(n, float(np.vdot(v.values, v.values).real))
    # blocked on continuous times, truncated on the snapped ones
    for r, engine in (
        (delay_matrix_from_times(spec.taus, spec.delta_omega), "blocked"),
        (snapped_delay_matrix(idx, spec), "truncated"),
    ):
        direct = rate_direct(v, rate_matrix(r, species, ordering))
        decomp = attach_vector(v, fourier_blocks(r, species, T), T, species)
        got = rate_blocked(decomp) if engine == "blocked" else rate_truncated(decomp, part)
        assert abs(got - direct) <= tol, (engine, got, direct, tol)


def test_attach_vector_rejects_perturbed_transform():
    ordering = all_permutations(4)
    T = build_transform(ordering)
    A, r = _random_case(4, 8)
    v = monomial_vector(A, ordering)
    blocks = fourier_blocks(r, "boson", T)
    attach_vector(v, blocks, T, "boson")  # the true transform passes
    matrix = T.matrix.copy()
    matrix[0] *= 1 + 1e-6  # row of the trivial irrep: (T v)[0] = per(A) / sqrt(N)
    broken = BlockTransform(ordering, matrix, T.layout)
    with pytest.raises(NumericalError, match="Parseval"):
        attach_vector(v, blocks, broken, "boson")


def test_attach_vector_rejects_mismatched_ordering():
    A, r = _random_case(3, 9)
    T = build_transform(all_permutations(3, "lex"))
    v = monomial_vector(A, all_permutations(3, "cycle"))
    with pytest.raises(DomainError):
        attach_vector(v, fourier_blocks(r, "boson", T), T, "boson")


def test_decompose_rejects_mismatched_orderings():
    r = delay_matrix_from_times((0.0, 0.3, 0.7), 1.5)
    R = rate_matrix(r, "boson", all_permutations(3, "cycle"))
    T = build_transform(all_permutations(3, "lex"))
    with pytest.raises((DomainError, NumericalError)):
        decompose_rate_matrix(R, T)


# ---------------------------------------------------------------------------
# Truncation and vanishing


def _snapped_setup(n, taus, bins, seed=11):
    spec = ArrivalSpec(tuple(taus), 2.0, 1.0, bins)
    idx, part = discretize(spec)
    r = snapped_delay_matrix(idx, spec)
    itf = haar_unitary(2 * n, seed=seed)
    s = OutputString.from_detectors(2 * n, tuple(range(1, n + 1)))
    A = submatrix(itf, s)
    return A, r, part.partition


@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_truncation_exact_on_snapped_times(species):
    A, r, mu = _snapped_setup(4, (0.05, 0.07, 0.34, 0.61), 4)
    assert mu == (2, 1, 1)
    ordering = all_permutations(4)
    v = monomial_vector(A, ordering)
    R = rate_matrix(r, species, ordering)
    decomp = block_decompose(v, R, build_transform(ordering))
    full = rate_direct(v, R)
    assert rate_truncated(decomp, mu) == pytest.approx(full, rel=1e-12, abs=1e-13)
    for entry in truncation_report(decomp, mu):
        label = entry.lam if species == "boson" else conjugate(entry.lam)
        assert entry.kept == dominates(label, mu)
        if not entry.kept:
            assert entry.block_magnitude < 1e-12


def test_vanishing_blocks_match_immanant_vanishing():
    # the lam block of a snapped Gram matrix vanishes exactly when the
    # lam immanant does; check every (lam, occupancy) pair at n = 4
    spec_times = {
        (1, 1, 1, 1): (0.05, 0.3, 0.55, 0.8),
        (2, 1, 1): (0.05, 0.07, 0.3, 0.55),
        (2, 2): (0.05, 0.07, 0.3, 0.32),
        (3, 1): (0.05, 0.07, 0.09, 0.55),
        (4,): (0.05, 0.07, 0.09, 0.11),
    }
    ordering = all_permutations(4)
    T = build_transform(ordering)
    for mu, taus in spec_times.items():
        spec = ArrivalSpec(taus, 2.0, 1.0, 4)
        idx, part = discretize(spec)
        assert part.partition == mu
        r = snapped_delay_matrix(idx, spec)
        blocks, _ = decompose_rate_matrix(rate_matrix(r, "boson", ordering), T)
        for lam in partitions_of(4):
            vanishes = gamas_vanishes(lam, mu)
            assert vanishes == (np.max(np.abs(blocks[lam])) < 1e-12), (lam, mu)
            assert vanishes == (abs(immanant(lam, r)) < 1e-12), (lam, mu)


def test_gamas_vanishes_examples():
    assert gamas_vanishes((1, 1, 1), (2, 1))
    assert not gamas_vanishes((2, 1), (2, 1))
    assert not gamas_vanishes((3,), (2, 1))
    # incomparable pairs vanish in both directions
    assert gamas_vanishes((2, 2, 2), (3, 1, 1, 1))
    assert gamas_vanishes((3, 1, 1, 1), (2, 2, 2))


# ---------------------------------------------------------------------------
# Distinguishability limits and reduction


def test_indistinguishable_limits_no_group_size_factor():
    # at equal times the quadratic form collapses to |per A|^2 (bosons) and
    # |det A|^2 (fermions) with no n! in front
    for n in (2, 3, 4):
        A, _ = _random_case(n, 20 + n)
        ordering = all_permutations(n)
        v = monomial_vector(A, ordering)
        ones = np.ones((n, n))
        boson = rate_direct(v, rate_matrix(ones, "boson", ordering))
        fermion = rate_direct(v, rate_matrix(ones, "fermion", ordering))
        assert boson == pytest.approx(abs(permanent(A)) ** 2, rel=1e-10, abs=1e-13)
        assert fermion == pytest.approx(abs(determinant(A)) ** 2, rel=1e-10, abs=1e-13)


def test_fully_distinguishable_limit_both_species():
    for n in (2, 3, 4):
        A, _ = _random_case(n, 30 + n)
        ordering = all_permutations(n)
        v = monomial_vector(A, ordering)
        want = rate_fully_distinguishable(A)
        assert want == pytest.approx(float(permanent(np.abs(A) ** 2).real), rel=1e-12)
        for species in ("boson", "fermion"):
            got = rate_direct(v, rate_matrix(np.eye(n), species, ordering))
            assert got == pytest.approx(want, rel=1e-10)


def test_reduce_distinguishable_particle():
    r = delay_matrix_from_times((0.1, 0.12, 5000.0), 2.0)
    problem = reduce_distinguishable_particle(r, 2)
    assert problem.copies == 3 and problem.removed == 2
    assert problem.delay_matrix.shape == (2, 2)
    assert problem.delay_matrix[0, 1] == pytest.approx(r[0, 1])
    with pytest.raises(DomainError):
        reduce_distinguishable_particle(r, 0)  # particle 0 overlaps particle 1


@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_rate_via_reduction_matches_direct(species):
    A, _ = _random_case(4, 40)
    r = delay_matrix_from_times((0.1, 0.13, 0.16, 4000.0), 2.0)
    assert np.abs(r[3, :3]).max() == 0.0
    ordering = all_permutations(4)
    v = monomial_vector(A, ordering)
    direct = rate_direct(v, rate_matrix(r, species, ordering))
    reduced = rate_via_reduction(A, r, species)
    assert reduced == pytest.approx(direct, rel=1e-11, abs=1e-14)


def test_rate_via_reduction_fully_separated_is_classical():
    A, _ = _random_case(3, 41)
    r = delay_matrix_from_times((0.0, 3000.0, 6000.0), 2.0)
    for species in ("boson", "fermion"):
        assert rate_via_reduction(A, r, species) == pytest.approx(
            rate_fully_distinguishable(A), rel=1e-11
        )


def test_streaming_size_guard():
    ordering = all_permutations(3)
    with pytest.raises(DomainError):
        rate_direct_streaming(np.ones(6), np.eye(3), "boson", ordering, chunk=0)
