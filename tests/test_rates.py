import dataclasses
import itertools
import json
import math
import tracemalloc
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partdist import rates, symgroup
from partdist.cli import main as cli_main
from partdist.delays import (
    ArrivalSpec,
    delay_matrix,
    delay_matrix_from_times,
    discretize,
    snapped_delay_matrix,
)
from partdist.errors import ClampWarning, DomainError, NumericalError, SizeLimitError
from partdist.interferometer import (
    enumerate_outputs,
    haar_unitary,
    monomial_vector,
    submatrix,
)
from partdist.matfun import GLYNN_PRODUCTS, determinant, dfunction_direct, immanant, permanent
from partdist.rates import (
    _check_delay_matrix,
    _composition_rows,
    _fft_rounding,
    _finalize_rate,
    _parseval_tolerance,
    attach_vector,
    autocorrelation,
    build_transform,
    decompose_rate_matrix,
    fourier_blocks,
    gamas_partition,
    gamas_vanishes,
    rate_blocked,
    rate_direct,
    rate_direct_streaming,
    rate_from_autocorrelation,
    rate_fully_distinguishable,
    rate_matrix,
    rate_truncated,
)
from partdist.sampling import build_distribution
from partdist.symgroup import (
    all_permutations,
    conjugate,
    dominates,
    fourier_transform,
    irrep_matrices,
    partitions_of,
    signs,
    standard_tableau_count,
)

from cycles import positions, relabelling


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


def direct_rounding(v):
    """Bound on |rate_direct - v^dag R v|: |R_ij| <= 1, so the form rounds by
    at most 2 gamma_2N ||v||_1^2 (see rate_rounding)."""
    return 2 * gamma(2 * len(v)) * float(np.abs(v).sum()) ** 2


def walked_autocorrelation(v, n):
    """S_v(c) = conj(v)[comp[c]] . v(h^-1), gathered row block by
    row block along rates._composition_rows: the O(n!^2) reference for
    rates.autocorrelation.  Its real and imaginary parts are real dot
    products of 2N terms, so it lies within sqrt(2) gamma_2N sigma(c) of
    S_v(c), sigma(c) = sum_h |v(h c)| |v(h)|, the walked sum of |v|."""
    values = np.asarray(v)
    inverses = positions(np.argsort(all_permutations(n), axis=1))
    conj, w = values.conj(), values[inverses]
    S = np.empty(math.factorial(n), dtype=np.result_type(values, complex))
    for indices, rows in _composition_rows(n):
        S[indices] = conj[rows] @ w
    return S


def autocorrelation_errors(A):
    """beta(c) = gamma_(K+8n) prod_i a_i(c), K = 2^(n-1) and a_i(c) =
    sum_j |A_ij| |A_(i, c^-1(j))|: the bound on |autocorrelation(A) - S_v|
    entry by entry (derived in rates.autocorrelation)."""
    n = len(A)
    a = np.abs(np.asarray(A))
    columns = np.argsort(all_permutations(n), axis=1)
    return gamma(2 ** (n - 1) + 8 * n) * (a * a[:, columns].transpose(1, 0, 2)).sum(-1).prod(-1)


def autocorrelation_rounding(A):
    """Bound on |rate_from_autocorrelation - v^dag R v| for |f| <= 1:
    (1 + gamma_N) sum_c beta(c) + gamma_N ||v||_1^2 (derived in
    rates.rate_from_autocorrelation)."""
    N = math.factorial(len(A))
    l1 = float(np.abs(monomial_vector(A)).sum()) ** 2
    return (1 + gamma(N)) * float(autocorrelation_errors(A).sum()) + gamma(N) * l1


def dense_decomposition(v, R, T):
    """The dense reference decomposition of one rate: the blocks of T R T^t
    (rates.decompose_rate_matrix) with v projected onto them."""
    return attach_vector(v, decompose_rate_matrix(R, T)[0], T, R.species)


def _random_case(n, seed):
    rng = np.random.default_rng(seed)
    itf = haar_unitary(2 * n, seed=seed)
    s = tuple(sorted(rng.choice(2 * n, n, replace=False) + 1))
    A = submatrix(itf, s)
    taus = rng.uniform(0, 1, size=n)
    r = delay_matrix_from_times(taus, rng.uniform(0.5, 3.0))
    return A, r


# ---------------------------------------------------------------------------
# Rate matrix structure


def test_rate_matrix_monomials_n3_cycle_ordering():
    # R relabelled into the order of worked examples, e, (12), (13), (23),
    # (123), (132): its column e holds the monomials of those elements
    rng = np.random.default_rng(0)
    p = relabelling(3, "cycle")
    taus = rng.uniform(0, 1, size=3)
    r = delay_matrix_from_times(taus, 1.8)
    R = rate_matrix(r, "boson").matrix[np.ix_(p, p)]
    triple = r[0, 1] * r[1, 2] * r[0, 2]
    want = [1.0, r[0, 1] ** 2, r[0, 2] ** 2, r[1, 2] ** 2, triple, triple]
    assert np.allclose(R[:, 0], want, atol=1e-14)
    assert np.allclose(np.diag(R), 1.0, atol=1e-14)


def test_rate_matrix_is_symmetric_psd_boson():
    A, r = _random_case(4, 1)
    R = rate_matrix(r, "boson").matrix
    assert np.allclose(R, R.T, atol=1e-13)
    assert np.linalg.eigvalsh(R).min() > -1e-10


def test_fermion_rate_matrix_is_sign_twisted_boson():
    A, r = _random_case(3, 2)
    Rb = rate_matrix(r, "boson").matrix
    Rf = rate_matrix(r, "fermion").matrix
    w = signs(3)
    assert np.allclose(Rf, Rb * np.outer(w, w), atol=1e-14)


def _composition_tables_by_columns(P):
    # the composition table column by column over the group enumerated by
    # the rows of P: the reference for the row blocks
    N, n = P.shape
    powers = n ** np.arange(n, dtype=np.int64)
    lut = np.full(n**n, -1, dtype=np.intp)
    lut[P @ powers] = np.arange(N)
    inv_images = np.argsort(P, axis=1)
    comp = np.empty((N, N), dtype=np.intp)
    for j in range(N):
        comp[:, j] = lut[inv_images[j][P] @ powers]
    return comp


@pytest.mark.parametrize("convention", ["lex", "cycle"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_composition_table_matches_column_loop(n, convention):
    # the row blocks, stacked by their indices, are the whole table:
    # every row exactly once, in blocks of at most 64 rows; relabelled into
    # the convention's order, it is the column loop over the rows in that
    # order
    p = relabelling(n, convention)
    N = math.factorial(n)
    table = np.full((N, N), -1, dtype=np.intp)
    visits = np.zeros(N, dtype=int)
    for indices, rows in _composition_rows(n):
        assert len(indices) <= rates.TABLE_ROWS and rows.shape == (len(indices), N)
        table[indices] = rows
        visits[indices] += 1
    assert (visits == 1).all()
    want = _composition_tables_by_columns(all_permutations(n)[p])
    assert np.array_equal(np.argsort(p)[table[np.ix_(p, p)]], want)


@pytest.mark.parametrize("convention", ["lex", "cycle"])
@pytest.mark.parametrize("species", ["boson", "fermion"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_rate_matrix_is_bit_identical_to_outer_product_form(n, species, convention):
    # rate_matrix fills R[i, j] = (w mono_r)(gj^-1 gi); the table form it
    # replaced took mono_r(gj^-1 gi) sgn(gi) sgn(gj): multiplying by +-1 is
    # exact, so every bit agrees, signed zeros (r = I) included, in the
    # convention's order as in the package's
    p = relabelling(n, convention)
    table = _composition_tables_by_columns(all_permutations(n)[p])
    for r in (_random_case(n, 70 + n)[1], np.eye(n)):
        want = rates.monomials(r)[p][table]
        if species == "fermion":
            want = want * np.outer(signs(n)[p], signs(n)[p])
        R = rate_matrix(r, species).matrix
        got = R[np.ix_(p, p)]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not R.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_autocorrelation_rate_matches_rate_direct_within_derived_bound(n):
    rng = np.random.default_rng(500 + n)
    spec = ArrivalSpec(tuple(rng.uniform(0, 1, size=n)), 2.0, 1.0, 3)
    delays = (delay_matrix_from_times(spec.taus, spec.delta_omega),
              snapped_delay_matrix(discretize(spec)[0], spec))
    itf = haar_unitary(n + 3, seed=n)
    A = submatrix(itf, tuple(range(2, n + 2)))
    v = monomial_vector(A)
    S = autocorrelation(A)
    assert S.shape == (math.factorial(n),) and not S.flags.writeable
    # against the walked sum, entry by entry and rate by rate
    walked = walked_autocorrelation(v, n)
    sigma = walked_autocorrelation(np.abs(v), n).real
    N = math.factorial(n)
    walk_errors = math.sqrt(2) * gamma(2 * N) * sigma
    assert (np.abs(S - walked) <= autocorrelation_errors(A) + walk_errors).all()
    own = autocorrelation_rounding(A)
    walk_rounding = gamma(4 * N) * float(np.abs(v).sum()) ** 2
    tol = own + direct_rounding(v)
    for species in ("boson", "fermion"):
        for r in delays:
            got = rate_from_autocorrelation(S, r, species)
            want = rate_direct(v, rate_matrix(r, species))
            assert isinstance(got, float)
            assert abs(got - want) <= tol, (species, got, want)
            from_walk = rate_from_autocorrelation(walked, r, species)
            assert abs(got - from_walk) <= own + walk_rounding


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_autocorrelation_pairs_are_exact_conjugates_within_the_bound_of_every_permanent(n):
    # one permanent per pair {c, c^-1} and per involution: S(c^-1) is the
    # conjugate of S(c) bit for bit, and S is real on involutions
    A = submatrix(haar_unitary(n + 2, seed=40 + n), tuple(range(1, n + 1)))
    L = np.asarray(A, dtype=np.clongdouble)
    # all n! permanents per(A ∘ conj(A)[:, c^-1]) in long double: with
    # unit roundoff ratio * u, they lie within 4 ratio beta(c) of S_v(c)
    # (glynn_reference's bound plus the Hadamard products' gamma_3n)
    ratio = float(np.finfo(np.longdouble).eps / np.finfo(float).eps)  # 2^-11 on x86-64
    S = autocorrelation(A)
    columns = np.argsort(all_permutations(n), axis=1)
    inverse = positions(columns)
    assert np.array_equal(S[inverse], S.conj())
    assert (S[inverse == np.arange(math.factorial(n))].imag == 0).all()
    every, _ = glynn_reference(L * L.conj()[:, columns].transpose(1, 0, 2))
    beta = autocorrelation_errors(A)
    assert (np.abs(S - every) <= (1 + 4 * ratio) * beta).all()


@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_one_string_direct_meets_streaming_within_their_bounds_at_n7(species):
    n = 7
    A, r = _random_case(n, 70)
    rng = np.random.default_rng(70)
    rs = np.concatenate([np.stack([r, np.ones((n, n)), np.eye(n)]),
                         delay_matrix_from_times(rng.uniform(0, 1, size=(3, n)), 1.7)])
    direct = rates.engine_rates(A, rs, species, "direct").rates
    stream = rates.engine_rates(A, rs, species, "streaming")
    # both rates are clamped to [0, inf) by a 1-Lipschitz map of their raw values
    own = autocorrelation_rounding(A)
    assert (np.abs(direct - stream.rates) <= own + stream.bounds).all()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    species=st.sampled_from(["boson", "fermion"]),
)
def test_autocorrelation_rate_shift_invariance_and_limits(n, seed, species):
    rng = np.random.default_rng(seed)
    m = n + int(rng.integers(0, 3))
    s = tuple(sorted(rng.choice(m, n, replace=False) + 1))
    A = submatrix(haar_unitary(m, seed=seed), s)
    v = monomial_vector(A)
    S = autocorrelation(A)
    l1 = float(np.abs(v).sum()) ** 2
    own = autocorrelation_rounding(A)

    # a global time shift moves each overlap by rounding only; a product of
    # n overlaps in [0, 1] moves by at most n max|r - r'| plus its own
    # rounding, and sum_c |S(c)| <= ||v||_1^2
    taus = rng.uniform(0, 2, size=n)
    width = float(rng.uniform(0.5, 3.0))
    r = delay_matrix_from_times(taus, width)
    shifted = delay_matrix_from_times(taus + rng.uniform(-5, 5), width)
    base = rate_from_autocorrelation(S, r, species)
    moved = rate_from_autocorrelation(S, shifted, species)
    drift = n * float(np.abs(r - shifted).max()) + 2 * gamma(n)
    assert abs(base - moved) <= drift * l1 + 2 * own

    # equal times: |per A|^2 or |det A|^2; fully distinguishable: per(|A|^2)
    per, per_err = glynn_reference(A)
    det, det_err = det_reference(A)
    value, err = (per, per_err) if species == "boson" else (det, det_err)
    equal = rate_from_autocorrelation(S, np.ones((n, n)), species)
    assert abs(equal - abs(value) ** 2) <= own + (2 * abs(value) + err) * err
    classical, classical_err = glynn_reference(np.abs(A) ** 2)
    apart = rate_from_autocorrelation(S, np.eye(n), species)
    assert abs(apart - classical.real) <= own + classical_err


def test_autocorrelation_rates_of_a_stack_match_one_at_a_time():
    # floor(2^16 / 4!) = 2730 delay matrices per product: 3000 take two
    n = 4
    A, _ = _random_case(n, 8)
    S = autocorrelation(A)
    rs = delay_matrix_from_times(np.random.default_rng(8).uniform(0, 2, size=(3, 1000, n)), 1.3)
    for species in ("boson", "fermion"):
        got = rate_from_autocorrelation(S, rs, species)
        assert got.shape == (3, 1000)
        for idx in [(0, 0), (1, 729), (1, 730), (2, 999)]:
            one = rate_from_autocorrelation(S, rs[idx], species)
            assert abs(got[idx] - one) <= 2 * autocorrelation_rounding(A)


def test_autocorrelation_route_at_n7_stays_within_its_working_set():
    # rates.autocorrelation: the 16 N n^2-byte Hadamard stack, the N
    # permanents, and one Glynn step, which holds its lo and hi row sums
    # (w n 2^3 complex each, w = 2^16 / 2^6 matrices per step) and its w 2^6
    # products, with at most two temporaries at a time: under 5 * 16 * 2^16
    # bytes.  8.5 MB measured
    n, N = 7, 5040
    A, r = _random_case(n, 12)
    tracemalloc.start()
    try:
        S = autocorrelation(A)
        rate_from_autocorrelation(S, r, "fermion")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * N * n**2 + 16 * N + 5 * 16 * GLYNN_PRODUCTS  # 9.3 MB


def test_autocorrelation_route_refuses_degree_8_before_walking(monkeypatch):
    def no_walk(*args, **kwargs):
        pytest.fail("the composition table was filled at n = 8")

    def permanent_below_8(M):
        if np.shape(M)[-1] >= 8:
            pytest.fail("permanents of degree 8 were evaluated")
        return permanent(M)

    monkeypatch.setattr(rates, "_composition_rows", no_walk)
    monkeypatch.setattr(rates, "permanent", permanent_below_8)
    with pytest.raises(SizeLimitError):
        autocorrelation(np.eye(8))
    with pytest.raises(SizeLimitError):
        rate_from_autocorrelation(np.zeros(math.factorial(8), complex), np.eye(8), "boson")
    with pytest.raises(SizeLimitError):
        rate_matrix(np.eye(8), "boson")
    # a stack, a matrix that is not square, or no matrix at all; an
    # autocorrelation whose length is not n! of the delay matrix
    for A in (np.ones((2, 4, 4)), np.ones((4, 3)), np.ones(4)):
        with pytest.raises(DomainError, match="submatrix"):
            autocorrelation(A)
    with pytest.raises(DomainError, match="n!"):
        rate_from_autocorrelation(autocorrelation(np.eye(4)), np.eye(3), "boson")


@pytest.mark.parametrize("n", [4, 6])
def test_one_string_direct_rate_builds_no_code_table(n, monkeypatch):
    # the partner c^-1 of every c is the lexicographic rank of its images;
    # the n^n-entry table of base-n codes is allocated only where R is
    # filled (_composition_rows), and neither may happen here
    A, r = _random_case(n, 40 + n)
    v = monomial_vector(A)
    want = {species: rate_direct(v, rate_matrix(r, species)) for species in ("boson", "fermion")}
    empty = np.empty

    def no_table(shape, *args, **kwargs):
        if shape == n**n:
            pytest.fail("an n^n-entry code table was allocated for one string")
        return empty(shape, *args, **kwargs)

    def no_walk(*args, **kwargs):
        pytest.fail("the composition table was walked for one string")

    monkeypatch.setattr(np, "empty", no_table)
    monkeypatch.setattr(rates, "_composition_rows", no_walk)
    tol = autocorrelation_rounding(A) + direct_rounding(v)
    for species, rate in want.items():
        got = rates.engine_rates(A, r, species, "direct")
        assert abs(float(got.rates) - rate) <= tol, (species, got.rates, rate)


def test_delay_matrix_check_agrees_with_allclose():
    # on finite overlaps in [-1, 1] the check is np.allclose(r, r.T,
    # rtol=0, atol=1e-12) and np.allclose(diag r, 1, rtol=0, atol=1e-12),
    # from plain ufuncs; entries that are not finite or that pass 1 in
    # modulus by more than 1e-12 are refused whatever their symmetry, and no
    # input raises a floating-point warning
    rng = np.random.default_rng(2024)
    specials = [np.nan, np.inf, -np.inf, 1e308, -1e308, 3.0, -1.5, 1 + 2e-5, 1 + 1e-9, 0.0, 1.0, -1.0]
    steps = [1e-5, -1e-5, 9.99e-6, -9.99e-6, 1.001e-5, 1e-12, 2e-12, 1e-9, 1e-6, 0.0]
    verdicts = set()
    out_of_range = 0
    for trial in range(3000):
        n = int(rng.integers(1, 6))
        r = rng.uniform(-1.0, 1.0, (n, n))
        kind = trial % 5
        if kind != 4:
            r = (r + r.T) / 2
        if kind in (0, 1, 2):
            np.fill_diagonal(r, 1.0)
        i, j = rng.integers(0, n, 2)
        if kind == 0:  # asymmetry near the atol and near the old rtol of 1e-5
            r[i, j] *= 1 + rng.choice(steps)
        elif kind == 1:  # a special value, mirrored or not
            r[i, j] = rng.choice(specials)
            if rng.random() < 0.5:
                r[j, i] = r[i, j]
        elif kind == 2:  # diagonal near 1
            r[np.diag_indices(n)] += rng.choice(steps, size=n)
        with np.errstate(invalid="ignore"):
            in_range = bool((np.abs(r) <= 1 + 1e-12).all())
            close = (np.allclose(r, r.T, rtol=0, atol=1e-12)
                     and np.allclose(np.diag(r), 1.0, rtol=0, atol=1e-12))
        out_of_range += close and not in_range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                _check_delay_matrix(r, n)
                got = True
            except DomainError:
                got = False
        assert got == (in_range and close), r
        verdicts.add(got)
    assert verdicts == {True, False}
    assert out_of_range > 50  # symmetric, unit diagonal, yet refused
    for r in ([[1.0, 3.0], [3.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]):
        with pytest.raises(DomainError, match="finite overlaps"):
            _check_delay_matrix(r, 2)
    # a diagonal of 1 + 1e-6, or an overlap of 1 + 1e-9, is refused (both
    # passed the old relative tolerance of 1e-5)
    with pytest.raises(DomainError):
        _check_delay_matrix([[1.0 + 1e-6, 0.5], [0.5, 1.0]], 2)
    with pytest.raises(DomainError, match="unit diagonal"):
        _check_delay_matrix([[1.0 - 1e-6, 0.5], [0.5, 1.0]], 2)
    with pytest.raises(DomainError, match="finite overlaps"):
        _check_delay_matrix([[1.0, 1.0 + 1e-9], [1.0 + 1e-9, 1.0]], 2)
    # a normalised Gram matrix may pass 1 by rounding
    _check_delay_matrix([[1.0 + 2.3e-16, 1.0], [1.0, 1.0]], 2)


def test_rate_matrix_input_validation():
    with pytest.raises(DomainError):
        rate_matrix(np.eye(3) * 2, "boson")  # diagonal not 1
    with pytest.raises(DomainError):
        rate_matrix(np.ones((3, 4)), "boson")  # not square
    with pytest.raises(DomainError):
        rate_matrix(np.eye(3), "photon")
    with pytest.raises(SizeLimitError):
        rate_matrix(np.eye(8), "boson")
    with pytest.raises(DomainError):  # an overlap of 3 is refused up front
        rate_matrix([[1.0, 3.0], [3.0, 1.0]], "boson")


@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_rate_direct_judges_its_raw_value_by_its_own_bound(species):
    # rate_direct passes _finalize_rate 2 gamma_2N ||v||_1^2, since the
    # delay-matrix check keeps max|f| = f(e) = 1; R's matrix is patched so
    # that the raw value is exactly -t for v = e_0 (||v||_1 = 1).  The
    # absolute 1e-10 clamp tolerance it replaces would have clamped both
    # values.  A bound passed in is the one the value is judged by.
    R = rate_matrix(delay_matrix_from_times((0.1, 0.4, 0.9), 1.5), species)
    N = len(R.matrix)
    assert np.abs(R.matrix).max() == 1.0  # f(e) = 1 and |r_ij| <= 1
    bound = 2 * gamma(2 * N)
    v = np.zeros(N, dtype=complex)
    v[0] = 1.0
    patched = np.zeros((N, N))
    patched[0, 0] = -bound * (1 + 1e-6)
    with pytest.raises(NumericalError, match="is negative beyond its bound"):
        rate_direct(v, dataclasses.replace(R, matrix=patched))
    patched[0, 0] = -bound * (1 - 1e-6)
    with pytest.warns(ClampWarning):
        assert rate_direct(v, dataclasses.replace(R, matrix=patched)) == 0.0
    with pytest.raises(NumericalError, match="is negative beyond its bound"):
        rate_direct(v, dataclasses.replace(R, matrix=patched), bound * (1 - 2e-6))


def test_dense_stack_route_returns_the_bounds_it_judged_by(monkeypatch):
    # every raw rate of the route is judged by its entry of the returned
    # bounds, bit for bit, not by a second evaluation of the bound
    A = submatrix(haar_unitary(7, seed=31), enumerate_outputs(7, 3))
    r = delay_matrix_from_times((0.1, 0.4, 0.9), 1.5)
    judged = []
    finalize = rates._finalize_rate
    monkeypatch.setattr(rates, "_finalize_rate",
                        lambda value, bounds=None: judged.append(bounds) or finalize(value, bounds))
    monkeypatch.setattr(rates, "BATCH_ENTRIES", 12 * 6)  # 12 strings per batch: 3 batches
    result = rates.engine_rates(A, r, "fermion", "direct")
    assert len(judged) == len(A) == 35
    assert np.array(judged).tobytes() == result.bounds.tobytes()


# ---------------------------------------------------------------------------
# Hong-Ou-Mandel closed forms


@pytest.mark.parametrize("rho", [0.0, 0.25, 0.8, 1.0])
def test_hom_two_port(rho):
    A = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    r = np.array([[1.0, rho], [rho, 1.0]])
    v = monomial_vector(A)
    boson = rate_direct(v, rate_matrix(r, "boson"))
    fermion = rate_direct(v, rate_matrix(r, "fermion"))
    assert boson == pytest.approx(0.5 * (1 - rho**2), abs=1e-14)
    assert fermion == pytest.approx(0.5 * (1 + rho**2), abs=1e-14)


# ---------------------------------------------------------------------------
# Engine equivalences


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_direct_streaming_blocked_agree(n, species):
    A, r = _random_case(n, 10 + n)
    v = monomial_vector(A)
    R = rate_matrix(r, species)
    direct = rate_direct(v, R)
    stream = rate_direct_streaming(A, r, species)
    T = build_transform(n)
    blocked = rate_blocked(dense_decomposition(v, R, T))
    scale = max(1.0, direct)
    assert abs(direct - float(stream.rates)) <= float(stream.bounds) + direct_rounding(v)
    assert abs(direct - blocked) < 1e-10 * scale


def _step_budgets(n, species, *widths):
    """Values of rates.STREAMING_STEP_BYTES that give one subset matrix per
    step, ``widths`` matrices per step, and every matrix in one step."""
    size = rates._subset_bytes(n, species)
    return (1, *(w * size for w in widths), 2**62)


def test_streaming_chunk_size_does_not_change_result_materially(monkeypatch):
    # every subset value is computed on its own and all 2^n are summed at
    # once, so the step width changes memory, never bits; a batch of
    # strings or of delay matrices gives each element's single-call bits
    for n in (1, 3, 4, 6):
        A = np.stack([_random_case(n, 60 + n + j)[0] for j in range(3)])
        rs = np.stack([_random_case(n, 70 + n + j)[1] for j in range(3)])
        for species in ("boson", "fermion"):
            for As, r in ((A, rs[0]), (A[0], rs)):
                runs = []
                for budget in _step_budgets(n, species, 3, 2**n):
                    monkeypatch.setattr(rates, "STREAMING_STEP_BYTES", budget)
                    runs.append(rate_direct_streaming(As, r, species))
                for run in runs[1:]:
                    assert np.array_equal(run.rates, runs[0].rates)
                    assert np.array_equal(run.bounds, runs[0].bounds)
                single = [float(rate_direct_streaming(a, q, species).rates)
                          for a, q in zip(np.broadcast_to(As, (3, n, n)),
                                          np.broadcast_to(r, (3, n, n)))]
                assert np.array_equal(runs[0].rates, single)


def _own_calls(As, r, species):
    """rate_direct_streaming on each batch element by itself: rates and
    bounds, each stacked, and the largest cancellation."""
    own = [rate_direct_streaming(a, q, species) for a, q in zip(As, r)]
    return [np.stack([s.rates for s in own]), np.stack([s.bounds for s in own]),
            max(s.cancellation for s in own)]


def _assert_same_bits(got, want):
    for field, values in zip(("rates", "bounds"), want):
        assert getattr(got, field).tobytes() == values.tobytes(), field
    assert got.cancellation == want[2]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_shared_subsets_give_each_string_the_bits_of_its_own_call(n, monkeypatch):
    # all C(n + 2, n) strings of one interferometer share their detector
    # rows, so a batch evaluates each distinct subset once; every rate and
    # bound, and the largest cancellation, still has the bits of the
    # strings' own calls
    m = n + 2
    A = submatrix(haar_unitary(m, seed=80 + n), enumerate_outputs(m, n))
    rng = np.random.default_rng(90 + n)
    spec = ArrivalSpec(tuple(rng.uniform(0, 1, size=n)), 2.0, 1.0, 3)
    for r in (delay_matrix_from_times(spec.taus, spec.delta_omega),
              snapped_delay_matrix(discretize(spec)[0], spec)):
        rs = np.broadcast_to(r, A.shape)
        for species in ("boson", "fermion"):
            want = _own_calls(A, rs, species)
            for budget in _step_budgets(n, species, 3):
                monkeypatch.setattr(rates, "STREAMING_STEP_BYTES", budget)
                _assert_same_bits(rate_direct_streaming(A, r, species), want)


def test_shared_subsets_with_repeated_reordered_and_stacked_rows(monkeypatch):
    n = 4
    U = np.array(haar_unitary(7, seed=31).matrix)
    U[5] = U[2]  # detectors 3 and 6 have equal rows
    strings = enumerate_outputs(7, n)
    A = U[strings - 1][:, :, :n]
    rng = np.random.default_rng(32)
    swapped = rng.permuted(np.broadcast_to(np.arange(n), (len(A), n)), axis=1)
    repeated = A.copy()
    repeated[:, 3] = repeated[:, 0]  # every string lists one row twice
    r = delay_matrix_from_times(rng.uniform(0, 1, size=n), 1.5)
    taus = rng.uniform(0, 1, size=(5, n))
    taus[3] = taus[1]
    rs = delay_matrix_from_times(taus, 1.5)  # rs[3] equals rs[1] bit for bit
    cases = ((A, r), (np.take_along_axis(A, swapped[:, :, None], axis=1), r),
             (repeated, r), (A[0], rs))
    for As, q in cases:
        shape = np.broadcast_shapes(np.shape(As)[:-2], np.shape(q)[:-2]) + (n, n)
        for species in ("boson", "fermion"):
            want = _own_calls(np.broadcast_to(As, shape), np.broadcast_to(q, shape), species)
            for budget in _step_budgets(n, species, 5):
                monkeypatch.setattr(rates, "STREAMING_STEP_BYTES", budget)
                _assert_same_bits(rate_direct_streaming(As, q, species), want)
    # one string (detectors 1 to 4, rows all distinct) under 5 delay
    # matrices shares only the empty subset, and what rs[3] shares with rs[1]
    glynn, sizes = rates._glynn, []
    monkeypatch.setattr(rates, "_glynn", lambda M: sizes.append(len(M)) or glynn(M))
    monkeypatch.setattr(rates, "STREAMING_STEP_BYTES", 2**62)
    rate_direct_streaming(A[0], rs, "boson")
    assert sizes == [1 + 4 * (2**n - 1)]


@pytest.mark.parametrize("m, n", [(7, 3), (12, 6)])
@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_streaming_distribution_evaluates_each_detector_subset_once(m, n, species, monkeypatch):
    # the strings list their rows in detector order, so their subsets are
    # the sets of at most n of the m detectors: sum_(j <= n) C(m, j) of
    # them (2510 at m = 12, n = 6) against C(m, n) 2^n pairs (59136)
    evaluated = []

    def counted(evaluate):
        def count(M):
            evaluated.append(len(M))
            return evaluate(M)
        return count

    if species == "boson":
        monkeypatch.setattr(rates, "_glynn", counted(rates._glynn))
    else:
        monkeypatch.setattr(rates.np.linalg, "det", counted(np.linalg.det))
    spec = ArrivalSpec(tuple(0.3 * k for k in range(n)), 1.0, 4.0, 4)
    monkeypatch.setattr(rates, "STREAMING_STEP_BYTES", 512 * rates._subset_bytes(n, species))
    dist = build_distribution(haar_unitary(m, seed=m), spec, species, "streaming")
    assert len(dist.strings) * 2**n <= rates.BATCH_ENTRIES  # one streaming call
    assert sum(evaluated) == sum(math.comb(m, j) for j in range(n + 1))
    assert max(evaluated) == min(512, sum(evaluated))


def _streaming_peak(A, r, species):
    """tracemalloc peak of one rate_direct_streaming call, and the
    _streaming_bytes the call sized itself at."""
    n = A.shape[-1]
    width = min(max(1, rates.STREAMING_STEP_BYTES // rates._subset_bytes(n, species)), len(A) * 2**n)
    tracemalloc.start()
    try:
        rate_direct_streaming(A, r, species)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, rates._streaming_bytes(n, species, width, len(A))


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_streaming_peak_stays_under_its_memory_guard(n, species, monkeypatch):
    # one engine_rates batch of m = 12 strings: the subset codes, the table
    # of distinct subsets and each step stay inside _streaming_bytes, with
    # one, 64 and 4096 subset matrices per step
    A = submatrix(haar_unitary(12, seed=n), enumerate_outputs(12, n))[: rates.BATCH_ENTRIES >> n]
    r = delay_matrix_from_times(np.linspace(0.0, 2.0, n), 1.0)
    for budget in _step_budgets(n, species, 64, 4096)[:-1]:
        monkeypatch.setattr(rates, "STREAMING_STEP_BYTES", budget)
        peak, guard = _streaming_peak(A, r, species)
        assert peak <= guard, (budget, peak)


def test_streaming_guard_admits_a_boson_batch_at_n8():
    # the 256 strings of one m = 12, n = 8 batch: sized by the default step
    # budget, not by one matrix per (string, subset) pair, the call fits the
    # guard and its peak stays inside what it was sized at
    A = submatrix(haar_unitary(12, seed=8), enumerate_outputs(12, 8))[: rates.BATCH_ENTRIES >> 8]
    assert len(A) == 256
    r = delay_matrix_from_times(np.linspace(0.0, 2.0, 8), 1.0)
    peak, guard = _streaming_peak(A, r, "boson")
    assert guard <= rates.MAX_STREAMING_BYTES
    assert peak <= guard, peak


@pytest.mark.parametrize("snapped", [False, True])
@pytest.mark.parametrize("species", ["boson", "fermion"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_streaming_matches_direct_within_derived_bound(n, species, snapped):
    rng = np.random.default_rng(200 + n)
    spec = ArrivalSpec(tuple(rng.uniform(0, 1, size=n)), 2.0, 1.0, 3)
    if snapped:
        r = snapped_delay_matrix(discretize(spec)[0], spec)
    else:
        r = delay_matrix_from_times(spec.taus, spec.delta_omega)
    itf = haar_unitary(n + 3, seed=n)
    A = submatrix(itf, tuple(range(2, n + 2)))
    v = monomial_vector(A)
    direct = rate_direct(v, rate_matrix(r, species))
    stream = rate_direct_streaming(A, r, species)
    assert abs(float(stream.rates) - direct) <= float(stream.bounds) + direct_rounding(v)
    assert stream.cancellation >= 1.0 and float(stream.rates) > 0.0


def glynn_reference(M):
    """Permanents of a stack by Glynn's formula with every sign vector as one
    matrix product, and the bound 4 gamma_(2n + 2^(n-1)) prod_i sum_j |M_ij|
    on their rounding."""
    n = M.shape[-1]
    deltas = np.array([(1,) + d for d in itertools.product((1.0, -1.0), repeat=n - 1)])
    value = np.prod(M @ deltas.T, axis=-2) @ np.prod(deltas, axis=1) / len(deltas)
    bound = 4 * gamma(2 * n + len(deltas)) * np.prod(np.abs(M).sum(axis=-1), axis=-1)
    return value, bound


def det_reference(M):
    """LAPACK determinants of a stack and a bound on their rounding: the
    exact determinant of M + E, ||E||_2 <= e = 4 gamma_3n n^2 2^(n-1) max|M|
    (partial pivoting with Wilkinson's growth bound), so the relative error
    is at most (1 + e / sigma_min)^n - 1, plus gamma_4n for the product."""
    n = M.shape[-1]
    value = np.linalg.det(M)
    smin = np.linalg.svd(M, compute_uv=False)[..., -1]
    e = 4 * gamma(3 * n) * n * n * 2 ** (n - 1) * np.abs(M).max(axis=(-2, -1))
    return value, ((1 + e / smin) ** n - 1 + gamma(4 * n)) * np.abs(value)


def squared_sum(f, M):
    """sum_j |f(M_j)|^2 over a stack and its rounding bound."""
    value, err = f(M)
    size = np.abs(value)
    return float(np.sum(size**2)), float(np.sum((2 * size + err) * err) + gamma(2 * len(M) + 2) * np.sum(size**2))


@pytest.mark.parametrize("species", ["boson", "fermion"])
@pytest.mark.parametrize("n", [8, 9, 10])
def test_streaming_matches_internal_mode_sum(n, species):
    # r = Phi^T Phi with two internal modes: the rate is the sum over mode
    # assignments j of |f(M_j)|^2, M_j[k, i] = A[k, i] Phi[j_k, i], a route
    # that shares no code with the engine
    rng = np.random.default_rng(300 + n)
    angles = rng.uniform(0, math.pi, n)
    Phi = np.stack([np.cos(angles), np.sin(angles)])
    r = Phi.T @ Phi
    itf = haar_unitary(n + 2, seed=300 + n)
    A = submatrix(itf, tuple(range(1, n + 1)))
    modes = np.array(list(itertools.product(range(2), repeat=n)))  # (2^n, n)
    M = A[None, :, :] * Phi[modes, :]  # M[j, k, i] = A[k, i] Phi[j_k, i]
    want, err = squared_sum(glynn_reference if species == "boson" else det_reference, M)
    got = rate_direct_streaming(A, r, species)
    assert abs(float(got.rates) - want) <= float(got.bounds) + err


@pytest.mark.parametrize("n", [2, 5, 8, 10])
def test_streaming_limits_up_to_n10(n):
    A, _ = _random_case(n, 400 + n)
    per, per_err = glynn_reference(A)
    det, det_err = det_reference(A)
    classical, classical_err = glynn_reference(np.abs(A) ** 2)
    limits = {
        # equal times: |per A|^2 and |det A|^2, no n! factor
        ("boson", "equal"): (abs(per) ** 2, (2 * abs(per) + per_err) * per_err),
        ("fermion", "equal"): (abs(det) ** 2, (2 * abs(det) + det_err) * det_err),
        # fully distinguishable: per(|A|^2) for either species
        ("boson", "apart"): (classical.real, classical_err),
        ("fermion", "apart"): (classical.real, classical_err),
    }
    for (species, times), (want, err) in limits.items():
        r = np.ones((n, n)) if times == "equal" else np.eye(n)
        got = rate_direct_streaming(A, r, species)
        assert abs(float(got.rates) - want) <= float(got.bounds) + err, (species, times)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    species=st.sampled_from(["boson", "fermion"]),
)
def test_streaming_shift_invariant_and_relabelling_covariant(n, seed, species):
    rng = np.random.default_rng(seed)
    m = n + int(rng.integers(0, 3))
    s = tuple(sorted(rng.choice(m, n, replace=False) + 1))
    A = submatrix(haar_unitary(m, seed=seed), s)
    taus = rng.uniform(0, 2, size=n)
    width = float(rng.uniform(0.5, 3.0))
    base = rate_direct_streaming(A, delay_matrix_from_times(taus, width), species)
    # a global time shift changes no overlap; relabelling the particles
    # (columns of A with the rows and columns of r) or the detectors (rows
    # of A) permutes the terms of the rate
    particles, detectors = rng.permutation(n), rng.permutation(n)
    variants = [
        (A, delay_matrix_from_times(taus + float(rng.uniform(-50, 50)), width)),
        (A[detectors][:, particles], delay_matrix_from_times(taus[particles], width)),
    ]
    for A2, r2 in variants:
        other = rate_direct_streaming(A2, r2, species)
        assert abs(float(other.rates) - float(base.rates)) <= float(other.bounds + base.bounds)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    species=st.sampled_from(["boson", "fermion"]),
    snapped=st.booleans(),
)
def test_stacked_streaming_matches_stacked_dense_within_bounds(n, seed, species, snapped):
    # all C(m, n) strings of one interferometer through engine_rates, with
    # BATCH_ENTRIES patched so that the streaming stack spans two or more
    # calls: each rate is within its own bound in the concatenated bounds
    # plus the dense form's 2 gamma_2N ||v||_1^2
    rng = np.random.default_rng(seed)
    m = int(rng.integers(n + 1, 10))
    A = submatrix(haar_unitary(m, seed=seed), enumerate_outputs(m, n))
    spec = ArrivalSpec(tuple(rng.uniform(0, 1, size=n)), float(rng.uniform(0.5, 4.0)), 1.0, 3)
    r = (snapped_delay_matrix(discretize(spec)[0], spec) if snapped
         else delay_matrix_from_times(spec.taus, spec.delta_omega))
    width = int(rng.integers(1, len(A)))  # strings per streaming call, fewer than all
    calls = []
    streaming = rates.rate_direct_streaming
    with mock.patch.object(rates, "BATCH_ENTRIES", width << n), \
         mock.patch.object(rates, "rate_direct_streaming",
                           lambda *args: calls.append(len(args[0])) or streaming(*args)):
        stream = rates.engine_rates(A, r, species, "streaming")
        dense = rates.engine_rates(A, r, species, "direct")
    assert len(calls) == -(-len(A) // width) >= 2
    assert stream.bounds.shape == stream.rates.shape == dense.rates.shape == (len(A),)
    values = monomial_vector(A)
    dense_rounding = 2 * gamma(2 * values.shape[1]) * np.abs(values).sum(axis=1) ** 2
    # the dense stack route reports the bound it judged each raw rate by,
    # 2 gamma_2N ||v||_1^2
    assert dense.bounds.shape == (len(A),)
    assert np.allclose(dense.bounds, dense_rounding, rtol=1e-12, atol=0)
    assert (np.abs(stream.rates - dense.rates) <= stream.bounds + dense_rounding).all()


# ---------------------------------------------------------------------------
# Block structure


def test_transform_is_orthogonal():
    for n in (2, 3, 4):
        T = build_transform(n)
        N = math.factorial(n)
        assert T.matrix.shape == (N, N)
        assert np.allclose(T.matrix @ T.matrix.T, np.eye(N), atol=1e-12)
        assert sum(dim * dim for _, _, dim in T.layout) == N


@pytest.mark.parametrize("convention", ["lex", "cycle"])
def test_fourier_transform_matches_irreps_built_transform(convention, monkeypatch):
    # the reference T is read from irrep_matrices, independently of the
    # FFT; at n = 7 the irreps and T take about 400 MB, so they are built
    # uncached here and freed with the test.  f is drawn along the
    # convention's order, and the reference product sums along it
    monkeypatch.setattr(rates, "irrep_matrices", irrep_matrices.__wrapped__)
    rng = np.random.default_rng(500)
    for n in range(1, 8):
        p = relabelling(n, convention)
        T = build_transform(n)
        Tp = T.matrix[:, p]
        N = math.factorial(n)
        scale = np.concatenate([np.full(s * s, math.sqrt(s / N)) for _, _, s in T.layout])
        one = rng.normal(size=N) + 1j * rng.normal(size=N)
        batch = rng.normal(size=(N, 3)) + 1j * rng.normal(size=(N, 3))
        for f in (one, batch, batch.real):
            got = fourier_transform(f[np.argsort(p)], n)
            assert got.shape == f.shape and got.dtype == f.dtype
            got = got * (scale if f.ndim == 1 else scale[:, None])
            want = Tp @ f.real + 1j * (Tp @ f.imag)
            err = np.linalg.norm(got - want, axis=0)
            bound = (_fft_rounding(n) + transform_rounding(n)) * np.linalg.norm(f, axis=0)
            assert np.all(err <= bound), (n, err, bound)


def test_block_route_at_n7_allocates_no_dense_array():
    A, r = _random_case(7, 12)
    v = monomial_vector(A)
    tracemalloc.start()
    try:
        T = build_transform(7)
        rate_blocked(attach_vector(v, fourier_blocks(r, "boson", T), T, "boson"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # one 5040 x 5040 float64 array is 194 MiB


def test_boson_blocks_equal_transformed_gram_functions():
    _, r = _random_case(4, 5)
    T = build_transform(4)
    R = rate_matrix(r, "boson")
    blocks, offblock = decompose_rate_matrix(R, T)
    assert offblock < 1e-10
    for lam in partitions_of(4):
        want = dfunction_direct(lam, r)
        assert np.allclose(blocks[lam], want, atol=1e-10)


def test_fermion_blocks_have_conjugate_spectra():
    _, r = _random_case(4, 6)
    T = build_transform(4)
    blocks, _ = decompose_rate_matrix(rate_matrix(r, "fermion"), T)
    for lam in partitions_of(4):
        conj_block = dfunction_direct(conjugate(lam), r)
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
    blocks, _ = decompose_rate_matrix(rate_matrix(r, "boson"), build_transform(4))
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
    T = build_transform(n)
    itf = haar_unitary(2 * n, seed=n)
    A = submatrix(itf, tuple(range(1, n + 1)))
    v = monomial_vector(A)
    # the dense reference with the group relabelled into the convention's
    # order, so that T R T^t sums along that order
    p = relabelling(n, convention)
    R = rate_matrix(r, species)
    Rp = dataclasses.replace(R, matrix=R.matrix[np.ix_(p, p)])
    Tp = types.SimpleNamespace(matrix=T.matrix[:, p], layout=T.layout)
    reference = attach_vector(v, decompose_rate_matrix(Rp, Tp)[0], T, species)
    decomp = attach_vector(v, fourier_blocks(r, species, T), T, species)
    tol = block_rounding(n)
    norm2 = float(np.vdot(v, v).real)
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
)
def test_block_engines_equal_direct_property(n, seed, species):
    rng = np.random.default_rng(seed)
    bins = int(rng.integers(2, n + 3))
    spec = ArrivalSpec(tuple(rng.uniform(0, 1, size=n)), float(rng.uniform(0.5, 4.0)), 1.0, bins)
    idx, part = discretize(spec)
    m = n + int(rng.integers(0, 3))
    itf = haar_unitary(m, seed=seed)
    s = tuple(sorted(rng.choice(m, n, replace=False) + 1))
    T = build_transform(n)
    v = monomial_vector(submatrix(itf, s))
    tol = rate_rounding(n, float(np.vdot(v, v).real))
    # blocked on continuous times, truncated on the snapped ones
    for r, engine in (
        (delay_matrix_from_times(spec.taus, spec.delta_omega), "blocked"),
        (snapped_delay_matrix(idx, spec), "truncated"),
    ):
        direct = rate_direct(v, rate_matrix(r, species))
        decomp = attach_vector(v, fourier_blocks(r, species, T), T, species)
        got = rate_blocked(decomp) if engine == "blocked" else rate_truncated(decomp, part)
        assert abs(got - direct) <= tol, (engine, got, direct, tol)


def test_attach_vector_rejects_perturbed_transform(monkeypatch):
    plan = symgroup._level_plan
    for n in (4, 7):
        T = build_transform(n)
        A, r = _random_case(n, 8)
        v = monomial_vector(A)
        blocks = fourier_blocks(r, "boson", T)
        attach_vector(v, blocks, T, "boson")  # the true transform passes

        def perturbed(k):
            levels = plan(k)
            if k != 2:
                return levels
            # level 2 sets F_c((2)) = f(c s_0) + f(c) for every coset c of
            # S_2; scaling the first coefficient by 1 + 1e-6 moves the
            # transform's squared norm by about 1e-6 ‖v‖² / 2, and every later
            # level is orthogonal
            (lam, s, ((mu, W, idx),)), *rest = levels
            W = W.copy()
            W[0, 0] *= 1 + 1e-6
            return ((lam, s, ((mu, W, idx),)), *rest)

        monkeypatch.setattr(symgroup, "_level_plan", perturbed)
        with pytest.raises(NumericalError, match="Parseval"):
            attach_vector(v, blocks, T, "boson")
        monkeypatch.setattr(symgroup, "_level_plan", plan)


# ---------------------------------------------------------------------------
# Truncation and vanishing


def _snapped_setup(n, taus, bins, seed=11):
    spec = ArrivalSpec(tuple(taus), 2.0, 1.0, bins)
    idx, part = discretize(spec)
    r = snapped_delay_matrix(idx, spec)
    itf = haar_unitary(2 * n, seed=seed)
    s = tuple(range(1, n + 1))
    A = submatrix(itf, s)
    return A, r, part


@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_truncation_exact_on_snapped_times(species):
    A, r, mu = _snapped_setup(4, (0.05, 0.07, 0.34, 0.61), 4)
    assert mu == (2, 1, 1)
    v = monomial_vector(A)
    R = rate_matrix(r, species)
    decomp = dense_decomposition(v, R, build_transform(4))
    full = rate_direct(v, R)
    assert rate_truncated(decomp, mu) == pytest.approx(full, rel=1e-12, abs=1e-13)
    got = rates.engine_rates(A, r, species, "truncated")
    assert [row["lam"] for row in got.blocks] == list(decomp.blocks)
    for row in got.blocks:
        label = row["lam"] if species == "boson" else conjugate(row["lam"])
        assert row["kept"] == dominates(label, mu)
        dense = np.max(np.abs(decomp.blocks[row["lam"]]))
        assert abs(row["magnitude"] - dense) <= block_rounding(4)
        if not row["kept"]:
            assert row["magnitude"] < 1e-12


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
    T = build_transform(4)
    for mu, taus in spec_times.items():
        spec = ArrivalSpec(taus, 2.0, 1.0, 4)
        idx, part = discretize(spec)
        assert part == mu
        r = snapped_delay_matrix(idx, spec)
        blocks, _ = decompose_rate_matrix(rate_matrix(r, "boson"), T)
        for lam in partitions_of(4):
            vanishes = gamas_vanishes(lam, mu)
            assert vanishes == (np.max(np.abs(blocks[lam])) < 1e-12), (lam, mu)
            assert vanishes == (abs(immanant(lam, r)) < 1e-12), (lam, mu)


@settings(max_examples=40, deadline=None)
@given(
    assignment=st.lists(st.integers(0, 2**16), min_size=1, max_size=6),
    bins=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    species=st.sampled_from(["boson", "fermion"]),
)
def test_gamas_dropped_blocks_vanish_on_random_bins(assignment, bins, seed, species):
    # Gamas's theorem on snapped times: each block at a label that
    # rate_truncated drops is zero within block_rounding, so dropping them
    # moves the rate by at most those blocks' terms and two evaluations'
    # rounding (rates.rate_blocked)
    n = len(assignment)
    rng = np.random.default_rng(seed)
    # a random time inside each particle's bin, then snapped to its center
    taus = tuple((x % bins + rng.uniform(0, 1)) / bins for x in assignment)
    spec = ArrivalSpec(taus, float(rng.uniform(0.5, 4.0)), 1.0, bins)
    idx, part = discretize(spec)
    assert idx == tuple(x % bins + 1 for x in assignment)
    m = n + int(rng.integers(0, 3))
    s = tuple(sorted(rng.choice(m, n, replace=False) + 1))
    T = build_transform(n)
    v = monomial_vector(submatrix(haar_unitary(m, seed=seed), s))
    decomp = attach_vector(v, fourier_blocks(snapped_delay_matrix(idx, spec), species, T), T, species)
    tol = block_rounding(n)
    dropped = [lam for lam in decomp.blocks if decomp.vanishes(lam, part)]
    for lam in dropped:
        assert np.max(np.abs(decomp.blocks[lam])) <= tol, lam
    # |term| <= ‖K‖_2 ‖w‖² <= s max|K| ‖w‖², ‖w‖ <= (1 + δ) ‖v‖
    N = math.factorial(n)
    s_max = max(standard_tableau_count(lam) for lam in partitions_of(n))
    w2 = float(np.vdot(v, v).real) * (1 + _fft_rounding(n)) ** 2
    evaluation = (gamma(s_max**3 + 6) * math.sqrt(s_max) + gamma(len(decomp.blocks))) * N * w2
    bound = len(dropped) * s_max * tol * w2 + 2 * evaluation
    assert abs(rate_truncated(decomp, part) - rate_blocked(decomp)) <= bound


@settings(max_examples=200, deadline=None)
@given(
    indices=st.lists(st.integers(1, 20), min_size=1, max_size=7),
    bins=st.integers(2, 20),
    window=st.floats(0.5, 10.0),
    delta_omega=st.floats(0.1, 10.0),
)
def test_gamas_partition_is_the_bin_partition_on_binned_specs(indices, bins, window, delta_omega):
    # particles placed at their bin centres, as a binned config places them:
    # the classes of equal rows of the delay matrix are the occupied bins
    idx = tuple((c - 1) % bins + 1 for c in indices)
    spec = ArrivalSpec(tuple((c - 0.5) * window / bins for c in idx), delta_omega, window, bins)
    bins_of, part = discretize(spec)
    assert bins_of == idx
    r = delay_matrix(spec)
    assert r.tobytes() == snapped_delay_matrix(idx, spec).tobytes()
    assert gamas_partition(r) == part


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    species=st.sampled_from(["boson", "fermion"]),
)
def test_truncated_matches_direct_on_tied_continuous_times(n, seed, species):
    # continuous times, not bin centres, with n particles on n - 1 or fewer
    # distinct times: at least one exact tie, so truncation drops blocks
    rng = np.random.default_rng(seed)
    slots = rng.integers(0, n - 1, size=n)
    r = delay_matrix_from_times(rng.uniform(0, 1, size=n - 1)[slots], float(rng.uniform(0.5, 4.0)))
    assert gamas_partition(r) == tuple(sorted(np.bincount(slots)[np.bincount(slots) > 0], reverse=True))
    m = n + int(rng.integers(0, 3))
    s = tuple(sorted(rng.choice(m, n, replace=False) + 1))
    A = submatrix(haar_unitary(m, seed=seed), s)
    got = rates.engine_rates(A, r, species, "truncated")
    assert not all(row["kept"] for row in got.blocks)
    v = monomial_vector(A)
    direct = rate_direct(v, rate_matrix(r, species))
    tol = rate_rounding(n, float(np.vdot(v, v).real))
    assert abs(float(got.rates) - direct) <= tol


def test_truncated_stack_needs_one_gamas_partition():
    A, _ = _random_case(3, 12)
    tied = delay_matrix_from_times([0.2, 0.2, 0.7], 1.5)
    distinct = delay_matrix_from_times([0.2, 0.3, 0.7], 1.5)
    assert (gamas_partition(tied), gamas_partition(distinct)) == ((2, 1), (1, 1, 1))
    with pytest.raises(DomainError, match="one Gamas partition"):
        rates.engine_rates(A, np.stack([tied, distinct]), "boson", "truncated")
    blocked = rates.engine_rates(A, np.stack([tied, distinct]), "boson", "blocked").rates
    # a stack of one partition runs; with every block kept it is blocked's
    assert np.array_equal(rates.engine_rates(A, np.stack([distinct, distinct]), "boson",
                                             "truncated").rates, blocked[[1, 1]])


REPORT_TIMES = {  # arrival times of four particles, and their Gamas partition
    "continuous": ((0.1, 0.42, 0.77, 0.93), (1, 1, 1, 1)),
    "mixed bins": ((0.125, 0.375, 0.125, 0.875), (2, 1, 1)),
    "one bin": ((0.625,) * 4, (4,)),
}


@pytest.mark.parametrize("times", sorted(REPORT_TIMES))
@pytest.mark.parametrize("species", ["boson", "fermion"])
@pytest.mark.parametrize("engine", ["blocked", "truncated"])
def test_block_report_sums_to_the_rate(engine, species, times):
    # the rate is the sum of the kept terms in report order, bit for bit,
    # unless that sum is below 0 and clamped; blocked keeps every label and
    # one bin leaves one block, (n,) for bosons and (1^n) for fermions
    taus, mu = REPORT_TIMES[times]
    r = delay_matrix_from_times(taus, 1.5)
    assert gamas_partition(r) == mu
    for seed in range(4):
        A = submatrix(haar_unitary(7, seed=seed), (1, 3, 4, 6), (2, 3, 5, 7))
        got = rates.engine_rates(A, r, species, engine)
        assert [row["lam"] for row in got.blocks] == list(partitions_of(4))
        kept = [row["lam"] for row in got.blocks if row["kept"]]
        total = sum(row["term"] for row in got.blocks if row["kept"])
        if total >= 0:
            assert float(got.rates) == total
        else:
            assert float(got.rates) == 0.0
        if engine == "blocked":
            assert kept == list(partitions_of(4))
        elif times == "one bin":
            assert kept == [(4,) if species == "boson" else (1, 1, 1, 1)]
        # on a partition without ties the truncated report is the blocked one
        if times == "continuous":
            other = rates.engine_rates(A, r, species, "truncated" if engine == "blocked" else "blocked")
            assert other.blocks == got.blocks


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
        v = monomial_vector(A)
        ones = np.ones((n, n))
        boson = rate_direct(v, rate_matrix(ones, "boson"))
        fermion = rate_direct(v, rate_matrix(ones, "fermion"))
        assert boson == pytest.approx(abs(permanent(A)) ** 2, rel=1e-10, abs=1e-13)
        assert fermion == pytest.approx(abs(determinant(A)) ** 2, rel=1e-10, abs=1e-13)


def test_fully_distinguishable_limit_both_species():
    for n in (2, 3, 4):
        A, _ = _random_case(n, 30 + n)
        v = monomial_vector(A)
        want = rate_fully_distinguishable(A)
        assert want == pytest.approx(float(permanent(np.abs(A) ** 2).real), rel=1e-12)
        for species in ("boson", "fermion"):
            got = rate_direct(v, rate_matrix(np.eye(n), species))
            assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_rate_via_reduction_matches_direct(species):
    A, _ = _random_case(4, 40)
    r = delay_matrix_from_times((0.1, 0.13, 0.16, 4000.0), 2.0)
    assert np.abs(r[3, :3]).max() == 0.0
    v = monomial_vector(A)
    direct = rate_direct(v, rate_matrix(r, species))
    # particle 3 overlaps no other: it leaves by port q with weight
    # |A[q, 3]|^2, and the other three interfere among the remaining rows
    reduced = sum(
        abs(A[q, 3]) ** 2
        * float(rates.engine_rates(np.delete(A, q, axis=0)[:, :3], r[:3, :3], species, "direct").rates)
        for q in range(4)
    )
    assert reduced == pytest.approx(direct, rel=1e-11, abs=1e-14)


def test_streaming_size_guard(monkeypatch):
    def no_evaluation(*args, **kwargs):
        pytest.fail("a subset matrix was evaluated past the size guard")

    monkeypatch.setattr(rates, "_glynn", no_evaluation)
    monkeypatch.setattr(rates.np.linalg, "det", no_evaluation)
    # the cost guard: O(4^n n) flops for bosons, O(2^n n^3) for fermions
    assert rates._streaming_cost(14, "boson") <= rates.MAX_STREAMING_FLOPS
    assert rates._streaming_cost(19, "fermion") <= rates.MAX_STREAMING_FLOPS
    for n, species in ((15, "boson"), (20, "fermion")):
        with pytest.raises(SizeLimitError):
            rate_direct_streaming(np.eye(n), np.eye(n), species)
    # the memory guard: O(w 2^(n-1) n) working set for bosons at w subset
    # matrices per step, here all 2^13 of them in one step
    monkeypatch.setattr(rates, "STREAMING_STEP_BYTES", 2**62)
    with pytest.raises(SizeLimitError):
        rate_direct_streaming(np.eye(13), np.eye(13), "boson")


# ---------------------------------------------------------------------------
# Batched block rates


def batch_agreement_bound(n, norm2, blocks_differ):
    """|batched rate - per-string rate| bound derived in rates.rate_blocked:
    4 N δ (1 + δ) ‖v‖² for the two projections, 2 δ' N (1 + δ)² ‖v‖² when
    the blocks come from different transforms too, and 2E for the two
    evaluations of the quadratic form."""
    N = math.factorial(n)
    delta = _fft_rounding(n)
    s = max(standard_tableau_count(lam) for lam in partitions_of(n))
    labels = len(partitions_of(n))
    bound = 4 * N * delta * (1 + delta) * norm2
    if blocks_differ:
        bound += 2 * (delta + (1 + delta) * gamma(n)) * N * (1 + delta) ** 2 * norm2
    evaluation = (gamma(s * s + s + 4) * math.sqrt(s) + gamma(labels)) * N * (1 + delta) ** 2 * norm2
    return bound + 2 * evaluation


@pytest.mark.parametrize("snapped", [False, True])
@pytest.mark.parametrize("species", ["boson", "fermion"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_batched_block_rates_match_per_string(n, species, snapped):
    rng = np.random.default_rng(300 + n)
    spec = ArrivalSpec(tuple(rng.uniform(0, 1, size=n)), 2.0, 1.0, 3)
    idx, part = discretize(spec)
    r = snapped_delay_matrix(idx, spec) if snapped else delay_matrix_from_times(spec.taus, 2.0)
    T = build_transform(n)
    blocks = fourier_blocks(r, species, T)
    m = n + 2
    strings = enumerate_outputs(m, n)
    V = monomial_vector(submatrix(haar_unitary(m, seed=n), strings))
    norm2 = np.einsum("ij,ij->i", V.conj(), V).real
    # on continuous times truncation drops blocks that are only nearly
    # zero; batched and per-string rates still drop the same ones
    engines = {"blocked": rate_blocked, "truncated": lambda d: rate_truncated(d, part)}
    for engine, rate in engines.items():
        single = []
        for v in V:
            got = rate(attach_vector(v, blocks, T, species))
            assert isinstance(got, float)
            single.append(got)
        for width in (1, 3, max(1, 2**16 // math.factorial(n))):  # the last as build_distribution
            batched = []
            for start in range(0, len(strings), width):
                decomp = attach_vector(V[start : start + width], blocks, T, species)
                got = rate(decomp)
                assert got.shape == (len(V[start : start + width]),)
                batched.append(got)
            batched = np.concatenate(batched)
            tol = batch_agreement_bound(n, norm2, blocks_differ=False)
            assert np.all(np.abs(batched - single) <= tol), (engine, width)


def test_batched_decomposition_keeps_the_checks(monkeypatch):
    n = 4
    T = build_transform(n)
    A, r = _random_case(n, 31)
    blocks = fourier_blocks(r, "boson", T)
    V = monomial_vector(np.stack([A, 2 * A, A.conj()]))
    decomp = attach_vector(V, blocks, T, "boson")
    assert decomp.parseval_residual <= _parseval_tolerance(n) * 4 * np.vdot(V[0], V[0]).real
    with pytest.raises(DomainError):
        attach_vector(V[:, :-1], blocks, T, "boson")
    # one vector of the batch off the transform fails the whole batch
    calls = []
    transform = rates.fourier_transform

    def skewed(f, n):
        out = transform(f, n)
        calls.append(out.shape)
        out[0, 1] *= 1 + 1e-6
        return out

    monkeypatch.setattr(rates, "fourier_transform", skewed)
    with pytest.raises(NumericalError, match="Parseval"):
        attach_vector(V, blocks, T, "boson")
    assert calls == [(24, 3)]


def test_finalize_rate_checks_each_element_and_warns_once():
    assert isinstance(_finalize_rate(complex(0.25)), float)
    assert _finalize_rate(complex(0.25)) == 0.25
    values = np.array([0.5, -1e-12, 0.0, -5e-11, 0.25 + 1e-12j])
    with pytest.warns(ClampWarning) as caught:
        got = _finalize_rate(values)
    assert len(caught) == 1
    assert caught[0].message.count == 2 and caught[0].message.lowest == -5e-11
    assert got.tolist() == [0.5, 0.0, 0.0, 0.0, 0.25]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _finalize_rate(np.array([0.5, 0.0])).tolist() == [0.5, 0.0]
    with pytest.raises(NumericalError, match="negative"):
        _finalize_rate(np.array([0.5, -1e-9]))
    with pytest.raises(NumericalError, match="imaginary"):
        _finalize_rate(np.array([0.5, 0.5 + 1e-9j]))
    with pytest.raises(NumericalError, match="imaginary"):
        _finalize_rate(np.array([[2e3, 2e3 + 1e-6j]]))


def test_finalize_rate_refuses_values_that_are_not_finite():
    # with or without bounds: no bound of max(1, |value|) admits them
    for value in (np.nan, np.inf, -np.inf, complex(-1.0, np.nan), complex(0.5, np.inf)):
        with pytest.raises(NumericalError, match="not finite"):
            _finalize_rate(np.array([0.25, value]))
        with pytest.raises(NumericalError, match="not finite"):
            _finalize_rate(np.array([0.25, value]), np.array([1e-3, 1e-3]))


def test_streaming_rates_meet_the_shared_verdict(monkeypatch):
    # the 4 strings of m = 4, n = 3 in one streaming call, with every subset
    # value but the full sets' replaced by 0 (as
    # test_clamped_rates_are_counted_on_stderr does on the CLI), so each raw
    # rate is the value given to its full set; _finalize_rate judges it
    # against the string's own rounding bound
    A = submatrix(haar_unitary(4, seed=3), enumerate_outputs(4, 3))
    r = delay_matrix_from_times([0.1, 0.5, 0.7], 1.5)
    distinct, codes, full_values = rates._distinct_subsets, [], []

    def record_codes(rowid, rows):
        code, pair = distinct(rowid, rows)
        codes.append(code)
        return code, pair

    def full_sets_only(M):
        assert len(M) == codes[-1].max() + 1  # one step, in code order
        values = np.zeros(len(M), dtype=complex)
        values[codes[-1][:, -1]] = full_values
        return values

    monkeypatch.setattr(rates, "_distinct_subsets", record_codes)
    monkeypatch.setattr(rates, "_glynn", full_sets_only)
    full_values[:] = [1.0, 1e-30, 0.25, 0.5]
    bounds = rate_direct_streaming(A, r, "boson").bounds
    assert (bounds > 0).all() and bounds[1] < 1e-12

    full_values[:] = [-1.0, 1e-30, 0.25, 0.5]  # the bound of +-1.0 is bounds[0]
    with pytest.raises(NumericalError, match="negative") as raised:
        rate_direct_streaming(A, r, "boson")
    assert f"{bounds[0]:.3e}" in str(raised.value)

    full_values[:] = [-1e-30, -2e-30, 0.25, 0.5]  # far inside each bound
    with pytest.warns(ClampWarning) as caught:
        got = rate_direct_streaming(A, r, "boson")
    assert len(caught) == 1
    assert (caught[0].message.count, caught[0].message.lowest) == (2, -2e-30)
    assert got.rates.tolist() == [0.0, 0.0, 0.25, 0.5]
    assert got.bounds.shape == (4,) and got.cancellation >= 1.0


@pytest.mark.parametrize("n, steps", [(3, 9), (6, 100), (7, 30)])
def test_batched_landscape_matches_per_point_rates(tmp_path, capsys, n, steps):
    # the blocked landscape takes floor(2^16 / n!) grid points per transform:
    # one batch of 81 at n = 3, 91 + 9 at n = 6, 13 + 13 + 4 at n = 7
    m, ports, delta_omega = n + 2, list(range(1, n + 1)), 1.5
    config = {
        "m": m, "n": n, "unitary": {"type": "haar", "seed": 5}, "engine": "blocked",
        "detectors": ports, "input_ports": ports,
        "arrival": {"type": "continuous", "taus": [0.1 * k for k in range(n)],
                    "delta_omega": delta_omega, "window": 1.0, "bins": 4},
    }
    path = tmp_path / "landscape.json"
    path.write_text(json.dumps(config))
    axes = (2, 3) if n == 3 else (n,)
    extra = () if n == 3 else ("--axis", str(n))
    code = cli_main(["landscape", "--config", str(path), "--range", "-2", "2",
                     "--steps", str(steps), *extra])
    out, err = capsys.readouterr()
    assert code == 0, err
    rows = np.array([[float(x) for x in line.split(",")] for line in out.splitlines()[2:]])
    assert rows.shape == (steps ** len(axes), len(axes) + 1)

    T = build_transform(n)
    A = submatrix(haar_unitary(m, seed=5), tuple(ports))
    v = monomial_vector(A)
    projected = attach_vector(v, {}, T, "boson")
    tol = batch_agreement_bound(n, float(np.vdot(v, v).real), blocks_differ=True)
    for row in rows:
        taus = np.zeros(n)
        for axis, d in zip(axes, row[:-1]):
            taus[axis - 1] += d
        blocks = fourier_blocks(delay_matrix_from_times(taus, delta_omega), "boson", T)
        want = rate_blocked(dataclasses.replace(projected, blocks=blocks))
        assert abs(row[-1] - want) <= tol, (row, want)


def dispatch_before_engine_rates(A, r, species, engine, mu, chunk):
    """The route choice as ``rate``, ``landscape`` and ``build_distribution``
    each spelled it out before :func:`rates.engine_rates`, when ``direct``
    with ``chunk > 0`` selected the streaming engine: (rates, Parseval
    residual, cancellation, decomposition of one string under one delay
    matrix on the block engines)."""
    n = A.shape[-1]
    if A.ndim == 3:  # build_distribution: strings in batches, one delay matrix
        if engine == "direct" and chunk > 0:
            parts, cancellation = [], 0.0
            for i in range(0, len(A), max(1, 2**16 >> n)):
                streamed = rate_direct_streaming(A[i : i + max(1, 2**16 >> n)], r, species)
                parts.append(streamed.rates)
                cancellation = max(cancellation, streamed.cancellation)
            return np.concatenate(parts), None, cancellation, None
        width = max(1, 2**16 // math.factorial(n))
        if engine == "direct":
            R = rate_matrix(r, species)
        else:
            T = build_transform(n)
            blocks = fourier_blocks(r, species, T)
            residual = 0.0
        parts = []
        for i in range(0, len(A), width):
            vs = monomial_vector(A[i : i + width])
            if engine == "direct":
                parts.append([rate_direct(v, R) for v in vs])
            else:
                decomp = attach_vector(vs, blocks, T, species)
                residual = max(residual, decomp.parseval_residual)
                parts.append(rate_blocked(decomp) if engine == "blocked" else rate_truncated(decomp, mu))
        return np.concatenate(parts), None if engine == "direct" else residual, None, None
    if engine == "direct" and chunk > 0:  # rate and landscape: one string
        streamed = rate_direct_streaming(A, r, species)
        return streamed.rates, None, streamed.cancellation, None
    if engine == "direct":
        S = autocorrelation(A)
        return np.asarray(rate_from_autocorrelation(S, r, species)), None, None, None
    T = build_transform(n)
    rate = (lambda d: rate_truncated(d, mu)) if engine == "truncated" else rate_blocked
    if r.ndim == 2:  # rate: the decomposition behind the block report
        decomp = attach_vector(monomial_vector(A), fourier_blocks(r, species, T), T, species)
        return np.asarray(rate(decomp)), decomp.parseval_residual, None, decomp
    projected = attach_vector(monomial_vector(A), {}, T, species)
    width = max(1, 2**16 // math.factorial(n))
    parts = [rate(dataclasses.replace(projected, blocks=fourier_blocks(r[i : i + width], species, T)))
             for i in range(0, len(r), width)]
    return np.concatenate(parts), projected.parseval_residual, None, None


@pytest.mark.parametrize("n, bins_of, m, strings, points", [
    # n = 3: batches of 10922 strings or points, 8192 streamed strings
    (3, (1, 4, 4), 7, 35, 12),
    # n = 6: 91 strings or points per batch, 1024 streamed strings; each
    # stack crosses a batch boundary of its route
    (6, (1, 1, 2, 2, 3, 5), 13, 100, 100),
])
@pytest.mark.parametrize("species", ["boson", "fermion"])
@pytest.mark.parametrize("engine, chunk", [
    ("direct", 0), ("direct", 7), ("blocked", 0), ("truncated", 0),
])
def test_engine_rates_match_the_dispatch_it_replaced(n, bins_of, m, strings, points, species,
                                                     engine, chunk, monkeypatch):
    # the old spelling direct with chunk > 0 is the engine "streaming" now,
    # and its chunk of subset matrices per step a step budget of as many
    named = "streaming" if engine == "direct" and chunk > 0 else engine
    if named == "streaming":
        monkeypatch.setattr(rates, "STREAMING_STEP_BYTES", chunk * rates._subset_bytes(n, species))
    rng = np.random.default_rng(n)
    itf = haar_unitary(m, seed=n)
    outputs = enumerate_outputs(m, n)
    if engine == "direct" and chunk > 0 and n == 6:
        strings = 1030
    A = submatrix(itf, outputs[: strings])
    # snapped times (bin centres of 8 bins), permuted per point: every delay
    # matrix has the same bin partition, so truncation is exact
    taus = (np.array(bins_of) - 0.5) / 8
    stack = delay_matrix_from_times(np.array([rng.permutation(taus) for _ in range(points)]), 1.5)
    mu = discretize(ArrivalSpec(tuple(taus), 1.5, 1.0, 8))[1]
    for a, r in ((A[0], stack[0]), (A[0], stack), (A, stack[0])):
        want, residual, cancellation, decomp = dispatch_before_engine_rates(
            a, r, species, engine, mu, chunk)
        got = rates.engine_rates(a, r, species, named)
        assert got.rates.shape == want.shape == a.shape[:-2] + r.shape[:-2]
        assert np.array_equal(got.rates, want)
        assert got.parseval_residual == residual
        assert got.cancellation == cancellation
        assert (got.blocks is None) == (decomp is None)
        if decomp is not None:  # the report rate printed from the decomposition
            assert [row["lam"] for row in got.blocks] == list(decomp.blocks)
            for row in got.blocks:
                lam = row["lam"]
                label = lam if species == "boson" else conjugate(lam)
                assert row["kept"] == (engine == "blocked" or dominates(label, mu))
                assert row["magnitude"] == float(np.max(np.abs(decomp.blocks[lam])))
                assert row["term"] == decomp.term(lam)
    with pytest.raises(DomainError, match="one delay matrix"):
        rates.engine_rates(A, stack, species, named)


def test_engine_rates_refuses_an_unknown_engine():
    A, r = _random_case(3, 5)
    for engine in ("dense", "Streaming", ""):
        with pytest.raises(DomainError, match="unknown engine"):
            rates.engine_rates(A, r, "boson", engine)


@pytest.mark.parametrize("engine", ["direct", "streaming", "blocked", "truncated"])
def test_engine_rates_refuse_a_complex_delay_matrix(engine):
    # the float cast dropped the imaginary parts behind a ComplexWarning, so
    # a Hermitian r with r_12 = 0.5j gave the rate of r.real
    A, r = _random_case(3, 5)
    hermitian = r.astype(complex)
    hermitian[0, 1], hermitian[1, 0] = 0.5j, -0.5j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for species in ("boson", "fermion"):
            for bad in (hermitian, hermitian[None], hermitian.tolist(), r.astype(complex)):
                with pytest.raises(DomainError, match="must be real"):
                    rates.engine_rates(A, bad, species, engine)
            # a real r keeps its bits, whatever container holds it
            want = rates.engine_rates(A, r, species, engine).rates
            for same in (r.tolist(), np.asfortranarray(r), r[None]):
                got = rates.engine_rates(A, same, species, engine).rates
                assert got.tobytes() == np.reshape(want, np.shape(got)).tobytes()
    with pytest.raises(DomainError, match="must be real"):
        rates.gamas_partition(hermitian)


@pytest.mark.parametrize("engine", ["direct", "streaming", "blocked", "truncated"])
@pytest.mark.parametrize("empty", ["strings", "delay matrices"])
def test_engine_rates_of_an_empty_stack_are_empty(engine, empty):
    # K = 0 strings under one delay matrix, or one string under P = 0
    A, r = _random_case(3, 5)
    if empty == "strings":
        A = A[None][:0]
    else:
        r = r[None][:0]
    for species in ("boson", "fermion"):
        got = rates.engine_rates(A, r, species, engine)
        assert got.rates.shape == (0,)
        if engine == "streaming":
            assert got.bounds.shape == (0,)
        else:
            assert got.bounds is None
    # a non-square A is refused as on a nonempty stack
    bad = (np.zeros((0, 2, 3)), r) if empty == "strings" else (A[:2], r)
    with pytest.raises(DomainError):
        rates.engine_rates(*bad, "boson", engine)
