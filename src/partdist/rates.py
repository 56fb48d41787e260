"""Coincidence rates: direct n! x n! form, streaming inclusion-exclusion
form and block-diagonalized form.

The direct route is the literal rate v^dag R v, v the scattering monomial
vector and R the rate matrix over a group ordering,

    R[i, j] = f(gj^-1 gi),   f(c) = w(c) prod_k r[c(k), k],

w = 1 for bosons and sgn(c) for fermions (sgn(gi) sgn(gj) = sgn(gj^-1 gi)).
R is the group matrix of the one function f on S_n, so the same sum is

    rate = sum_c f(c) S_v(c),   S_v(c) = sum_h conj(v(h c)) v(h),

with S_v the autocorrelation of v over the group, an n!-vector.  One string
and one or more delay matrices (``rate``, ``landscape``) take that form
(:func:`autocorrelation`, :func:`rate_from_autocorrelation`): each S_v(c)
is one permanent and S_v(c^-1) = conj S_v(c), so S_v costs one batched
Glynn call of (n! + I_n)/2 permanents, one per pair {c, c^-1} and one per
involution (I_n of them), O(n! 2^(n-2) n), once per string, then one dot
product per delay matrix, with no monomial vector and no n! x n! object.
One delay matrix and many strings (``distribution``) keep R
(:func:`rate_matrix`) and take v^dag R v per string (:func:`rate_direct`),
rounding by 2 γ_2N max|f| ‖v‖_1² (N = n!); R is filled 64 rows at a time
by looking f up through the rows of the composition table
(:func:`_composition_rows`), each block of rows one exact float64 product
of base-n codes, so the table is never held whole.

The streaming route (:func:`rate_direct_streaming`) needs no group at all:
with P_k = diag(conj A[k, :]) r diag(A[k, :]) for detector k,

    rate = sum_(S ⊆ [n]) (-1)^(n - |S|) f(sum_(k in S) P_k),

f = per for bosons and det for fermions, at O(4^n n) or O(2^n n^3) cost
per rate, batched over strings or delay matrices, with a derived rounding
bound on every rate.  Strings that share detector rows share subsets, and
a batch evaluates each distinct one once: sum_(j <= n) C(m, j) subset
matrices for all C(m, n) strings of an m-detector interferometer.

The blocked route works in the basis of the orthogonal group-Fourier
transform T, whose rows are sqrt(s_lam / n!) D_lam(gamma)[a, b].  There R
becomes s_lam repeated copies of one symmetric s_lam x s_lam block per
partition lam, and by Fourier inversion on S_n that block is

    K_lam = sum_g w(g) mono_r(g) D_lam(g),    w = 1 (bosons), sgn(g) (fermions),

with mono_r(g) = prod_k r[g(k), k].  Both K_lam and the projected vector
T v come from the fast Fourier transform on S_n
(:func:`~partdist.symgroup.fourier_transform`), at O(n! n^2 s) cost for
s the largest irrep dimension: :func:`fourier_blocks` transforms w * mono_r
of one delay matrix or of a stack of them, and :func:`attach_vector` one
monomial vector or a batch of them, in one call each.  A batch stays batched through
the rate step: :func:`rate_blocked` and :func:`rate_truncated` evaluate one
broadcasting einsum per kept label for all of it.  No n! x n! object and no
irrep table is built on this route.  The dense T and the O((n!)^3)
conjugation T R T^t stay in :func:`decompose_rate_matrix` as the reference.
For fermions the sign weighting makes K_lam orthogonally equivalent to the
boson block of the conjugate label lam'.  Particles whose rows of r agree
bit for bit are identical wavepackets, and f is invariant under the Young
subgroup of their classes; blocks whose label fails to dominate the class
sizes (:func:`gamas_partition`) vanish identically (Gamas's theorem,
:func:`gamas_vanishes`, through the conjugate label for fermions in
:meth:`BlockDecomposition.vanishes`), which is what the truncated engine
exploits.

Every engine runs behind :func:`engine_rates`, the one entry point the CLI
and :mod:`partdist.sampling` call.  On the block engines, one string under
one delay matrix comes back with its per-label report (label, kept,
magnitude and term of each block) in ``EngineRates.blocks``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .errors import ClampWarning, DomainError, NumericalError, SizeLimitError
from .interferometer import MonomialVector, monomial_vector
from .matfun import _glynn, permanent
from .symgroup import (
    GroupOrdering,
    all_permutations,
    conjugate,
    dominates,
    fourier_transform,
    irrep_matrices,
    monomials,
    partitions_of,
    standard_tableau_count,
)

__all__ = [
    "RateMatrix",
    "rate_matrix",
    "rate_direct",
    "autocorrelation",
    "rate_from_autocorrelation",
    "rate_direct_streaming",
    "BlockTransform",
    "build_transform",
    "BlockDecomposition",
    "decompose_rate_matrix",
    "fourier_blocks",
    "attach_vector",
    "rate_blocked",
    "rate_truncated",
    "gamas_vanishes",
    "gamas_partition",
    "rate_fully_distinguishable",
    "EngineRates",
    "engine_rates",
    "MAX_DENSE_DEGREE",
]

MAX_DENSE_DEGREE = 7  # 7!^2 doubles is ~200 MB; 8! would need 13 GB
MAX_STREAMING_FLOPS = 2**34  # about half a minute per rate on a 2-core machine
MAX_STREAMING_BYTES = 2**29
STREAMING_STEP_BYTES = 2**20  # subset-matrix bytes per step of rate_direct_streaming
RATE_CLAMP_TOL = 1e-10
DELAY_MATRIX_TOL = 1e-12
TABLE_ROWS = 64  # composition-table rows per block of _composition_rows
BATCH_ENTRIES = 2**16  # coefficients per batch: n! per string or delay matrix, 2^n per streamed string


def _as_real(r) -> np.ndarray:
    """r as floats.  A complex r is refused rather than cast, since the cast
    would drop the imaginary parts that a Hermitian overlap matrix carries
    and the rates depend on."""
    if np.iscomplexobj(r):
        raise DomainError("delay matrix must be real: complex overlaps are not supported")
    return np.asarray(r, dtype=float)


def _check_delay_matrix(r, n: int, batch: bool = False) -> np.ndarray:
    """r as floats, after checking that it is a real n x n symmetric matrix with
    unit diagonal whose entries are finite overlaps in [-1, 1]; with
    ``batch`` a stack (..., n, n) of them.  Each of the three holds to
    DELAY_MATRIX_TOL = 1e-12 absolute, as a normalised Gram matrix does by
    rounding.  Every delay matrix of :mod:`partdist.delays` passes exactly,
    since (t_i - t_j)^2 = (t_j - t_i)^2 in IEEE arithmetic and exp(0) = 1;
    the rounding bounds of the dense and block routes take |r_ij| <= 1.
    """
    r = _as_real(r)
    if r.shape[-2:] != (n, n) or (r.ndim != 2 and not batch):
        raise DomainError(f"delay matrix shape {r.shape} does not match degree {n}")
    if not (np.abs(r) <= 1.0 + DELAY_MATRIX_TOL).all():  # False for NaN and infinities too
        raise DomainError("delay matrix entries must be finite overlaps in [-1, 1]")
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    if not ((np.abs(r - np.swapaxes(r, -1, -2)) <= DELAY_MATRIX_TOL).all()
            and (np.abs(diagonal - 1.0) <= DELAY_MATRIX_TOL).all()):
        raise DomainError("delay matrix must be symmetric with unit diagonal")
    return r


def _code_lookup(ordering: GroupOrdering) -> tuple[np.ndarray, np.ndarray]:
    """(lut, powers): a permutation h has the code h @ powers = sum_v h(v)
    n^v, below n^n, and lut[code] is its position in ``ordering`` (int32,
    4 n^n bytes, 3.3 MB at n = 7)."""
    n = ordering.n
    powers = n ** np.arange(n, dtype=np.int64)
    lut = np.empty(n**n, dtype=np.int32)
    lut[ordering.images_array @ powers] = np.arange(len(ordering))
    return lut, powers


def _composition_rows(ordering: GroupOrdering):
    """The composition table comp[i, j] = the position of gj^-1 gi in the
    ordering, with no table kept: yields (indices, rows), rows[a] =
    comp[indices[a]] (int32), W = TABLE_ROWS = 64 rows at a time in
    ordering order.

    A permutation h has the code sum_v h(v) n^v, below n^n, and a table of
    n^n entries turns a code into its index (:func:`_code_lookup`).  With
    inv[j] the one-line images of gj^-1, (gj^-1 gi)(v) = inv[j, gi(v)];
    putting u = gi(v), the code of gj^-1 gi is sum_u inv[j, u] n^(inv[i, u])
    = (Q inv^t)[i, j] with Q[i, u] = n^(inv[i, u]).  So a block of rows is
    one float64 product, exact because every partial sum is an integer below
    n^n <= 7^7 < 2^53, and one lookup.  The call holds the 4 n^n-byte
    lookup table, inv, Q and a float copy of inv (24 n N bytes) and, for a
    block of W rows, the 8 N W-byte product and its 4 N W bytes of codes,
    then the 4 N W bytes of rows: 8 MB at n = 7, the same for any ordering.
    """
    N = len(ordering)
    lut, powers = _code_lookup(ordering)
    inv = np.argsort(ordering.images_array, axis=1)
    Q, invT = powers[inv].astype(float), inv.T.astype(float)
    for start in range(0, N, TABLE_ROWS):
        stop = min(start + TABLE_ROWS, N)
        yield range(start, stop), lut[(Q[start:stop] @ invT).astype(np.int32)]


@dataclass(frozen=True, eq=False)
class RateMatrix:
    """Dense rate matrix over a fixed group ordering."""

    species: str
    ordering: GroupOrdering
    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.ordering.n


def _check_species(species: str) -> str:
    if species not in ("boson", "fermion"):
        raise DomainError(f"species must be 'boson' or 'fermion', got {species!r}")
    return species


def _check_dense_degree(n: int) -> None:
    if n > MAX_DENSE_DEGREE:
        raise SizeLimitError(
            f"routes over S_n limited to n <= {MAX_DENSE_DEGREE}; the streaming engine "
            f"goes further (in a config, engine 'direct' with \"chunk\" > 0)"
        )


def _weighted_monomials(r: np.ndarray, species: str, ordering: GroupOrdering) -> np.ndarray:
    """f(g) = w(g) mono_r(g) over the ordering, w = sgn for fermions; r may
    be a stack (..., n, n)."""
    f = monomials(r, ordering)
    return f * ordering.signs if species == "fermion" else f


def rate_matrix(r, species: str, ordering: GroupOrdering) -> RateMatrix:
    """Dense n! x n! rate matrix from a delay matrix: R[i, j] = f(gj^-1 gi)
    with f = w mono_r, filled 64 rows at a time by a lookup of f through the
    rows of the composition table (:func:`_composition_rows`).  Beyond R
    (8 (n!)² bytes, 203 MB at n = 7) the fill holds the rows' lookup table
    and one block of rows and of their values, 9.3 MB traced at n = 7.

    Every entry is a degree-n monomial in the pairwise overlaps; for
    fermions sgn(gi) sgn(gj) = sgn(gj^-1 gi) folds the sign factors into f,
    and multiplying by +-1 is exact.
    """
    _check_species(species)
    n = ordering.n
    _check_dense_degree(n)
    r = _check_delay_matrix(r, n)
    f = _weighted_monomials(r, species, ordering)
    R = np.empty((len(ordering), len(ordering)))
    for indices, rows in _composition_rows(ordering):
        R[indices] = f[rows]
    R.setflags(write=False)
    return RateMatrix(species, ordering, R)


def autocorrelation(A, ordering: GroupOrdering) -> np.ndarray:
    """Group autocorrelation S_v(c) = sum_h conj(v(h c)) v(h) over
    ``ordering``, an n!-vector (complex), of the monomial vector
    v(h) = prod_j A[h(j), j] of an n x n submatrix A, which is never built.

    With R[i, j] = f(gj^-1 gi), v^dag R v = sum_c f(c) S_v(c): the rate of
    one string for any delay matrix is one dot product with S_v
    (:func:`rate_from_autocorrelation`).  Writing k = c(j) in conj(v(h c)),

        S_v(c) = sum_h prod_k A[h(k), k] conj(A[h(k), c^-1(k)]) = per(A ∘ conj(A)[:, c^-1]),

    and S_v(c^-1) = conj S_v(c) (put h -> h c^-1 in the sum), so S_v is
    real on involutions.  One batched Glynn :func:`~partdist.matfun.permanent`
    call takes one permanent per pair {c, c^-1}, the one of c earlier in
    the ordering, and one per involution (the real part kept): (n! + I_n)/2
    permanents, I_n the number of involutions (2636 of 5040 at n = 7), at
    O(2^(n-1) n) each; the partner entry is the exact conjugate, its index
    read off the base-n codes of the ordering's rows (:func:`_code_lookup`).
    The call holds the lookup table, then the 8 n² (n! + I_n)-byte Hadamard
    stack of the evaluated permanents and one Glynn step, 6.6 MB traced at
    n = 7 (8.2 MB when all n! were evaluated).  Each entry of the stack
    rounds by √2 γ_2 <= γ_3 relative, which moves its permanent by at most γ_3n prod_i a_i(c),
    a_i(c) = sum_j |A_ij| |A_(i, c^-1(j))|; with Glynn's γ_(K+5n) prod_i a_i
    (K = 2^(n-1)) on the rounded entries, |fl S(c) - S_v(c)| <= γ_(K+8n)
    prod_i a_i(c).  The bound carries over unchanged to the partner entries,
    since conjugation is exact and a_i(c^-1) = a_i(c) (put j -> c(j) in the
    sum), and to the involutions, since dropping the imaginary part of a
    real quantity's approximation moves it no further from it.
    """
    n = ordering.n
    _check_dense_degree(n)
    A = np.asarray(A, dtype=complex)
    if A.shape != (n, n):
        raise DomainError(f"autocorrelation takes one {n}x{n} submatrix, got shape {A.shape}")
    inverse_images = np.argsort(ordering.images_array, axis=1)  # row c: the images of c^-1
    lut, powers = _code_lookup(ordering)
    partner = lut[inverse_images @ powers]  # partner[c] = position of c^-1
    del lut
    first = np.flatnonzero(np.arange(len(ordering)) <= partner)
    M = A.conj()[np.arange(n)[:, None], inverse_images[first, None, :]]
    M *= A  # M[k] = A ∘ conj(A)[:, c^-1] for c = first[k]
    values = permanent(M)
    involution = partner[first] == first
    values[involution] = values[involution].real
    S = np.empty(len(ordering), dtype=complex)
    S[partner[first]] = values.conj()
    S[first] = values
    S.setflags(write=False)
    return S


def rate_from_autocorrelation(S, r, species: str, ordering: GroupOrdering):
    """Rates sum_c f(c) S(c), f = w mono_r, from the autocorrelation S of a
    monomial vector over ``ordering`` (:func:`autocorrelation`): a float
    for one delay matrix, an array for a stack (..., n, n) of them.

    No n! x n! object is built: each delay matrix costs its n! weighted
    monomials and one real product against the real and imaginary parts of
    S, floor(2^16 / n!) delay matrices per product, and every raw value goes
    through one :func:`_finalize_rate` call.  The rate equals v^dag R v;
    rounding bound, with N = n!, γ_k = k u / (1 - k u), u = 2^-53 and f the
    computed weighted monomials: :func:`autocorrelation` gives each S(c)
    within β(c) = γ_(K+8n) prod_i a_i(c), and the product with f rounds each
    part by γ_N sum_c |f(c)| |fl S(c)|, where sum_c |S(c)| <= sum_c sum_h
    |v(h c)| |v(h)| = ‖v‖_1².  So the real and the imaginary part of the raw
    rate lie within (1 + γ_N) sum_c |f(c)| β(c) + γ_N max|f| ‖v‖_1² of
    v^dag R v.  At n = 7 sum_c prod_i a_i(c) is about 140 ‖v‖_1² and
    γ_(K+8n) about γ_N / 40, so the bound stays near γ_4N max|f| ‖v‖_1².
    """
    _check_species(species)
    n = ordering.n
    _check_dense_degree(n)
    S = np.asarray(S, dtype=complex)
    if S.shape != (len(ordering),):
        raise DomainError("autocorrelation length does not match the ordering")
    r = _check_delay_matrix(r, n, batch=True)
    parts = np.ascontiguousarray(S).view(float).reshape(-1, 2)  # columns Re S, Im S
    flat = r.reshape(-1, n, n)
    width = max(1, BATCH_ENTRIES // len(ordering))
    raw = np.concatenate([
        _weighted_monomials(flat[i : i + width], species, ordering) @ parts
        for i in range(0, len(flat), width)
    ])
    return _finalize_rate((raw[:, 0] + 1j * raw[:, 1]).reshape(r.shape[:-2]))


def _finalize_rate(value, bounds=None):
    """Real, non-negative rate from a raw value, or rates from an array of
    them, element by element, judged against ``bounds`` (the rounding bound
    of each raw value) or else RATE_CLAMP_TOL max(1, |value|): a value that
    is not finite, an imaginary part above the bound or a real part below
    minus it raises :class:`NumericalError`; a real part within the bound
    below 0 clamps to 0, with one :class:`ClampWarning` per call.  Exact
    zeros are physical (the Hong-Ou-Mandel dip), so a bound above the rate
    is no error.  A scalar gives a float, an array a float array of its
    shape.  Without ``bounds`` the real part meets the absolute
    RATE_CLAMP_TOL in effect: a finite value with |value| > 1 whose real
    part lies in [-bound, -RATE_CLAMP_TOL) has |imag| above the bound."""
    values = np.asarray(value, dtype=complex)
    bound = RATE_CLAMP_TOL * np.maximum(1.0, np.abs(values)) if bounds is None else bounds
    if not np.isfinite(values).all():
        raise NumericalError(f"rate {values[~np.isfinite(values)].flat[0]} is not finite")
    for excess, what in ((np.abs(values.imag) - bound, "has an imaginary part"),
                         (-values.real - bound, "is negative")):
        if (excess > 0).any():
            worst = np.unravel_index(np.argmax(excess), excess.shape)
            raise NumericalError(f"rate {values[worst]} {what} beyond its bound {bound[worst]:.3e}")
    rates = values.real
    negative = rates < 0.0
    if negative.any():
        warnings.warn(ClampWarning(int(negative.sum()), float(rates.min())), stacklevel=3)
        rates = np.where(negative, 0.0, rates)
    return float(rates) if rates.ndim == 0 else rates


def rate_direct(v: MonomialVector | np.ndarray, R: RateMatrix) -> float:
    """Coincidence rate v^dag R v (real, non-negative).

    The value is the probability that the n particles leave on the given
    collision-free string, one per detector: |per A|^2 (bosons) or |det A|^2
    (fermions) at equal times, per(|A|^2) for fully distinguishable
    particles.  Only :mod:`partdist.sampling` renormalises, over the
    collision-free set.
    """
    if isinstance(v, MonomialVector):
        if v.ordering is not R.ordering:
            raise DomainError("monomial vector and rate matrix use different orderings")
        v = v.values
    values = np.asarray(v)
    if values.shape != (len(R.matrix),):
        raise DomainError("monomial vector length does not match rate matrix")
    return _finalize_rate(complex(values.conj() @ R.matrix @ values))


def _streaming_cost(n: int, species: str) -> int:
    """Flops of one rate: 2^n determinants of n x n complex matrices, or
    2^n Glynn permanents of 2^(n-1) products of n row sums."""
    if species == "fermion":
        return 2**n * 8 * n**3 // 3
    return 2**n * 2 ** (n - 1) * 8 * n


def _subset_bytes(n: int, species: str) -> int:
    """Bytes one distinct subset matrix takes in a step: P_S with its
    gathered P_k and row norms, and for Glynn the half row sums and the
    2^(n-1) products."""
    step = 3 * n * n + 4 * n
    if species == "boson":
        lo, hi = 2 ** ((n + 1) // 2 - 1), 2 ** (n - (n + 1) // 2)
        step += n * (lo + hi) + 3 * lo * hi
    return 16 * step


def _streaming_bytes(n: int, species: str, width: int, batch: int) -> int:
    """Peak working set: the ``width`` distinct subset matrices of one step
    (:func:`_subset_bytes` each); the P_k, row sums and row keys of every
    row of the batch; the subset code, value and bound of every (batch
    element, subset) pair, with the keys of the doubling; and the pair,
    value, row sums, row norms, bound and key of every distinct subset, at
    most one per (batch element, subset) pair."""
    rows = batch * n * (16 * n * n + 24 * (n * n + 3 * n) + 48 * n)
    pairs = batch * 2**n
    return width * _subset_bytes(n, species) + rows + 80 * pairs + (40 * n + 96) * (pairs + 1)


def _bit_ids(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the rows of a 2-D array of 8-byte items: the index of one row of
    each distinct bit pattern, and the pattern's number for every row."""
    rows = np.ascontiguousarray(rows).view(np.uint64)
    _, first, ids = np.unique(rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel(),
                              return_index=True, return_inverse=True)
    return first, ids


def _distinct_subsets(rowid: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Codes of the detector subsets of a batch, equal exactly when two
    subsets list the same rows in the same order.

    ``rowid[b, k]`` (batch, n) is the id, below ``rows``, of the row that
    detector k gives batch element b.  By doubling, S = S' ∪ {k} with k its
    top detector is the pair (code of S', row id of k); one table of pairs
    spans all levels, so a subset keeps its code wherever its rows recur.
    Returns ``code`` (batch, 2^n), 0 for the empty subset, and for each
    code one flat index b 2^n + S that has it.
    """
    batch, n = rowid.shape
    code = np.zeros((batch, 2**n), dtype=np.int64)
    # the pair keys (code of S') * rows + (row id of k) met so far, sorted,
    # then a sentinel above every key, and the code of each
    known = np.array([np.iinfo(np.int64).max])
    known_code = np.zeros(1, dtype=np.int64)
    for k in range(n):
        keys, inverse = np.unique(code[:, : 2**k] * rows + rowid[:, k, None], return_inverse=True)
        at = np.searchsorted(known, keys)
        new = known[at] != keys
        key_code = known_code[at]
        key_code[new] = len(known) + np.arange(np.count_nonzero(new))
        known = np.insert(known, at[new], keys[new])
        known_code = np.insert(known_code, at[new], key_code[new])
        code[:, 2**k : 2 ** (k + 1)] = key_code[inverse].reshape(batch, 2**k)
    pair = np.empty(len(known), dtype=np.int64)
    pair[code.ravel()] = np.arange(code.size)
    return code, pair


def _subset_errors(species: str, values, norms, ell) -> np.ndarray:
    """Bound on |f̂_S - f(P_S)| for every subset, from the computed values,
    the row norms of the computed P_S (1-norms for bosons, 2-norms for
    fermions) and the row sums ell of |P|_S; derived in
    :func:`rate_direct_streaming`."""
    n = norms.shape[-1]
    g = _gamma(n + 4)
    if species == "boson":
        upper = np.prod(norms + 2 * g * ell, axis=-1)
        return (
            upper
            - np.prod(norms + g * ell, axis=-1)
            + _gamma(2 ** (n - 1) + 5 * n) * np.prod(norms, axis=-1)
            + _gamma(2 * n + 2) * upper
        )
    top = norms.max(axis=-1)
    eta = 4 * _gamma(n) * (1 + 2 * (n * n - n) * 2 ** (n - 1)) * (1 + g) * math.sqrt(n)
    upper = np.prod(norms + 2 * g * ell + eta * top[..., None], axis=-1)
    size = np.abs(values)
    with np.errstate(divide="ignore"):  # log 0 = -inf: an empty S or a zero det
        logs = np.where(size > 0, np.abs(np.log(size)), 0.0)
        pivots = 2 * n * np.maximum(0.0, (n - 1) * math.log(2) + np.log(top))
    return (
        upper
        - np.prod(norms + g * ell, axis=-1)
        + _gamma(2 * n + 2) * upper
        + (_gamma(3 * n + 2) + _gamma(2 * n) * (logs + pivots)) * size
    )


def rate_direct_streaming(A, r, species: str) -> EngineRates:
    """Rates with no n! object, by inclusion-exclusion over detector subsets.

    With P_k = diag(conj A[k, :]) r diag(A[k, :]) and P_S = sum_(k in S) P_k,

        rate = sum_(S ⊆ [n]) (-1)^(n - |S|) f(P_S),   f = per (bosons), det (fermions):

    v^dag R v is the coefficient of t_1...t_n in f(sum_k t_k P_k), since
    both expand to sum_(a,b) w(a) w(b) prod_k conj(A[k, a_k]) A[k, b_k]
    r[a_k, b_k], and inclusion-exclusion extracts that coefficient (the
    mixed discriminant for det; Tichy 2015, Shchesnovich 2015).  The
    identity is polynomial in r and needs no rank or positivity.  Each f
    costs O(n^3) (fermions, batched LAPACK determinants) or O(2^(n-1) n)
    (bosons, batched Glynn permanents).

    ``A`` (..., n, n) and ``r`` (..., n, n) broadcast over leading batch
    axes.  P_S depends only on the rows of A that S lists, in detector
    order, and on r, so a call evaluates f and the row norms once per
    distinct subset: rows of A that agree bit for bit under the same delay
    matrix share one P_k, and (batch element, subset) pairs that list the
    same rows in the same order share one P_S (:func:`_distinct_subsets`).
    The C(m, n) strings of an m-detector interferometer list their rows in
    detector order, so a batch of them costs at most sum_(j <= n) C(m, j)
    evaluations instead of 2^n per string (2510 against 59136 at m = 12,
    n = 6).  One string costs 2^n per rate; under a stack of delay
    matrices it costs 2^n per bitwise-distinct delay matrix, so a
    landscape's +-d points share theirs.  A step evaluates
    as many distinct subset matrices as fit in ``STREAMING_STEP_BYTES``, at
    least one, each counted by :func:`_subset_bytes` (O(n^2) for P_S, and
    for bosons O(2^(n-1)) for Glynn's products), the way
    :func:`~partdist.matfun.permanent` steps by ``GLYNN_PRODUCTS``; one
    matrix takes at most 436 KiB (bosons, n = 14), so a step stays within
    1 MiB for any batch.  Besides a step the call holds a code, value and
    bound for each (batch element, subset) pair.  Every value of f is
    computed element-wise or by its own LAPACK call, each P_S and its row
    sums ℓ are added up in detector order as for the string alone, and all
    2^n values of a rate are summed at once in a fixed order, so the rates
    and bounds are bit-identical for every step width and batch.
    Raises :class:`SizeLimitError`, before allocating, when one rate costs
    more than ``MAX_STREAMING_FLOPS`` or the working set exceeds
    ``MAX_STREAMING_BYTES`` (:func:`_streaming_bytes`, which counts every
    pair as distinct).

    Rounding bound, with γ_k = k u / (1 - k u), u = 2^-53 and K = 2^(n-1).
    Let M = fl(P_S), a_i the norm of its row i (1-norm for bosons, 2-norm
    for fermions) and ℓ_i = sum_(k in S) |A[k, i]| sum_j |r[i, j]| |A[k, j]|
    the row sums of |P|_S = sum_(k in S) |P_k|:

    - M = P_S + E with |E| <= γ_(n+4) |P|_S (two products, n - 1 sums), so
      row i of E has norm at most γ ℓ_i and row i of P_S at most
      a_i + γ ℓ_i.  per and det are multilinear in the rows, and a term of
      the expansion with rows x_i is at most prod_i ‖x_i‖ (1-norms for per,
      2-norms for det by Hadamard), so |f(X + D) - f(X)| <= prod_i (‖X_i‖ +
      ‖D_i‖) - prod_i ‖X_i‖, which grows with ‖X_i‖.
    - Bosons: |per M - per P_S| <= prod_i (a_i + 2γ ℓ_i) - prod_i (a_i +
      γ ℓ_i).  Glynn rounds each row sum by γ_n a_i, each product of n by a
      further γ_4n and the sum of K products, each at most prod_i a_i, by
      γ_K; the division by K is exact: γ_(K+5n) prod_i a_i in all.
    - Fermions: LAPACK LU with partial pivoting gives the exact determinant
      of M + F with ‖F‖_∞ <= 4γ_n (1 + 2(n^2 - n) 2^(n-1)) ‖M‖_∞ (Higham,
      Thm 9.3 and Lemma 9.6 with Wilkinson's growth bound, 4 for complex
      arithmetic) and ‖M‖_∞ <= √n max_i a_i, so |det(M + F) - det P_S| <=
      prod_i (a_i + 2γ ℓ_i + η max a) - prod_i (a_i + γ ℓ_i), η =
      4γ_n (1 + 2(n^2 - n) 2^(n-1)) (1 + γ_(n+4)) √n.  NumPy forms det =
      sign exp(sum_i log |U_ii|), a further relative γ_(3n+2) + γ_2n sum_i
      |log |U_ii||, and sum_i |log |U_ii|| <= |log |det|| + 2n log+(2^(n-1)
      max a) since no pivot exceeds 2^(n-1) max |M_ij|.  The worst-case
      growth makes this term dominate; it passes the rate near n = 14.
    - Evaluating these products adds γ_(2n+2) of the largest, and the
      alternating sum of the 2^n computed values f̂_S adds γ_(2^n) sum_S
      |f̂_S|.

    The bound is the sum of these terms over S.  :func:`_finalize_rate`
    judges each raw rate against its bound, as it judges every route's.
    Returns :class:`EngineRates` with ``bounds``, and with ``cancellation``
    the largest sum_S |f̂_S| / rate of the batch (0.0 for an empty one).
    """
    _check_species(species)
    A = np.ascontiguousarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] == 0:
        raise DomainError(f"scattering submatrices must be square and nonempty, got shape {A.shape}")
    n = A.shape[-1]
    cost = _streaming_cost(n, species)
    if cost > MAX_STREAMING_FLOPS:
        raise SizeLimitError(
            f"streaming {species} rate at n = {n} costs {cost:.2e} flops, "
            f"above {MAX_STREAMING_FLOPS:.2e}"
        )
    r = _check_delay_matrix(r, n, batch=True)
    shape = np.broadcast_shapes(A.shape[:-2], r.shape[:-2])
    A = np.broadcast_to(A, shape + (n, n)).reshape(-1, n, n)
    r = np.broadcast_to(r, shape + (n, n)).reshape(-1, n, n)
    batch, subsets = len(A), 2**n
    total = batch * subsets
    width = max(1, min(STREAMING_STEP_BYTES // _subset_bytes(n, species), total))
    need = _streaming_bytes(n, species, width, batch)
    if need > MAX_STREAMING_BYTES:
        raise SizeLimitError(
            f"streaming rates need about {need / 2**20:.0f} MiB for {batch} rates at "
            f"n = {n}; the limit is {MAX_STREAMING_BYTES / 2**20:.0f} MiB"
        )

    # rows of A that agree bit for bit, with their row sums of |P_k| (a
    # matrix product, which need not round a row alike in every position),
    # under delay matrices that agree bit for bit share one id and one P_k
    absA = np.abs(A)
    sums = absA * (absA @ np.abs(r))  # sums[b, k, i] = row i sum of |P_k|
    delay = _bit_ids(r.reshape(batch, n * n))[1].astype(np.uint64)
    keys = np.concatenate([A.view(np.uint64), sums.view(np.uint64),
                           np.broadcast_to(delay[:, None, None], (batch, n, 1))], axis=-1)
    first, rowid = _bit_ids(keys.reshape(batch * n, -1))
    a, sums = A.reshape(-1, n)[first], sums.reshape(-1, n)[first]
    P = a.conj()[:, :, None] * r[first // n] * a[:, None, :]  # diag(conj a) r diag(a)
    rowid = rowid.reshape(batch, n)
    code, pair = _distinct_subsets(rowid, len(P))

    # each distinct P_S, and the row sums ell of |P|_S, added up in detector
    # order from one (batch element, subset) pair that lists its rows
    b, subset = np.divmod(pair, subsets)
    ell = np.zeros((len(pair), n))
    for k in range(n):
        np.add(ell, sums[rowid[b, k]], out=ell, where=((subset >> k) & 1 == 1)[:, None])
    values = np.empty(len(pair), dtype=complex)
    norms = np.empty((len(pair), n))
    evaluate, order = (np.linalg.det, 2) if species == "fermion" else (_glynn, 1)
    for start in range(0, len(pair), width):
        step = slice(start, start + width)
        rows, bits = rowid[b[step]], (subset[step, None] >> np.arange(n)) & 1 == 1
        M = np.zeros((len(rows), n, n), dtype=complex)
        for k in range(n):
            np.add(M, P[rows[:, k]], out=M, where=bits[:, k, None, None])
        values[step] = evaluate(M)
        norms[step] = np.linalg.norm(M, ord=order, axis=-1)
    values, errors = values[code], _subset_errors(species, values, norms, ell)[code]

    popcount = ((np.arange(subsets)[:, None] >> np.arange(n)) & 1).sum(axis=1)
    raw = (values * np.where((n - popcount) % 2, -1.0, 1.0)).sum(axis=-1)
    magnitudes = np.abs(values).sum(axis=-1)
    bounds = errors.sum(axis=-1) + _gamma(subsets) * magnitudes
    rates = _finalize_rate(raw, bounds)
    ratios = magnitudes / np.maximum(rates, np.finfo(float).tiny)
    return EngineRates(rates.reshape(shape), bounds=bounds.reshape(shape),
                       cancellation=float(ratios.max()) if batch else 0.0)


# ---------------------------------------------------------------------------
# Block-diagonalized route


@dataclass(frozen=True)
class BlockTransform:
    """Orthogonal change of basis that block-diagonalizes every rate matrix
    over the same ordering.

    Rows are grouped per partition lam (reverse-lexicographic), and within
    lam in row-major (copy a, component b) order; row (lam, a, b) holds
    sqrt(s_lam/n!) D_lam(gamma)[a, b] as gamma runs along the ordering.  The
    engines apply it with :func:`~partdist.symgroup.fourier_transform`;
    ``matrix`` is the dense n! x n! form, read from
    :func:`~partdist.symgroup.irrep_matrices` on first use, for the dense
    reference only.
    """

    ordering: GroupOrdering
    layout: tuple[tuple[tuple[int, ...], int, int], ...]  # (lam, offset, dim)

    @property
    def n(self) -> int:
        return self.ordering.n

    @cached_property
    def matrix(self) -> np.ndarray:
        N = len(self.ordering)
        T = np.empty((N, N))
        for lam, offset, s in self.layout:
            stack = irrep_matrices(lam, self.ordering)  # (N, s, s)
            T[offset : offset + s * s] = (
                math.sqrt(s / N) * stack.transpose(1, 2, 0).reshape(s * s, N)
            )
        T.setflags(write=False)
        return T


def build_transform(ordering: GroupOrdering) -> BlockTransform:
    """The group-Fourier transform T over ``ordering``: its ordering and
    block layout.  T is orthogonal: conjugating a boson rate matrix gives
    s_lam identical copies of the symmetric block K_lam for every partition
    lam."""
    n = ordering.n
    _check_dense_degree(n)
    layout = []
    offset = 0
    for lam in partitions_of(n):
        s = standard_tableau_count(lam)
        layout.append((lam, offset, s))
        offset += s * s
    return BlockTransform(ordering, tuple(layout))


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Per-partition blocks and projected vectors of one rate computation,
    or of a batch of them.

    For bosons the block stored at label lam is K_lam; for fermions it is
    the sign-weighted block, orthogonally equivalent to the conjugate boson
    block K_lam' (same spectrum).  The vectors are the s_lam copies of the
    projected monomial vector; the rate is the sum of v^dag K v over all
    copies of all labels.  Blocks (..., s_lam, s_lam) and vectors (...,
    s_lam, s_lam) may carry leading batch axes, which broadcast: a batch of
    strings shares one set of blocks (:func:`attach_vector`), and a grid of
    delay matrices one projected vector (:func:`fourier_blocks` of a stack).
    ``parseval_residual`` is the largest |‖T v‖² - ‖v‖²| of the projections
    (see :func:`attach_vector`).
    """

    species: str
    transform: BlockTransform
    blocks: dict[tuple[int, ...], np.ndarray]
    vectors: dict[tuple[int, ...], np.ndarray]  # (s_lam copies, s_lam)
    parseval_residual: float

    @property
    def n(self) -> int:
        return self.transform.n

    def term(self, lam: tuple[int, ...]):
        """Contribution of all copies of one partition label: a float, or an
        array over the broadcast batch axes."""
        vecs = self.vectors[lam]
        total = np.einsum("...ab,...bd,...ad->...", vecs.conj(), self.blocks[lam], vecs).real
        return float(total) if total.ndim == 0 else total

    def vanishes(self, lam: tuple[int, ...], mu) -> bool:
        """Whether the block at label lam vanishes identically for the
        partition mu (:func:`gamas_vanishes`): the block stored at lam is
        K_lam for bosons and the conjugate boson block K_lam' for fermions."""
        return gamas_vanishes(conjugate(lam) if self.species == "fermion" else lam, mu)


def decompose_rate_matrix(
    R: RateMatrix, T: BlockTransform
) -> tuple[dict[tuple[int, ...], np.ndarray], float]:
    """Dense reference: extract the per-partition blocks of T R T^t.

    Costs O((n!)^3) and a dense R; the engines use :func:`fourier_blocks`,
    and tests and demos compare against this.  Returns the copy-averaged
    blocks plus the largest entry found outside the predicted block-diagonal
    positions (a structural health check: it should sit at rounding level).
    """
    if R.ordering is not T.ordering:
        raise DomainError("rate matrix and transform use different orderings")
    M = T.matrix @ R.matrix @ T.matrix.T
    blocks = {}
    mask = np.ones_like(M, dtype=bool)
    for lam, offset, s in T.layout:
        copies = []
        for a in range(s):
            rows = slice(offset + a * s, offset + (a + 1) * s)
            copies.append(M[rows, rows])
            mask[rows, rows] = False
        block = np.mean(copies, axis=0)
        block.setflags(write=False)
        blocks[lam] = block
    offblock = float(np.max(np.abs(M[mask]))) if mask.any() else 0.0
    scale = max(1.0, float(np.max(np.abs(M))))
    if offblock > 1e-6 * scale:
        raise NumericalError(
            f"transform failed to block-diagonalize the rate matrix "
            f"(stray entry {offblock:.3e}); orderings probably disagree"
        )
    return blocks, offblock


def fourier_blocks(r, species: str, T: BlockTransform) -> dict[tuple[int, ...], np.ndarray]:
    """Every block K_lam = sum_g w(g) mono_r(g) D_lam(g) from one fast
    Fourier transform of w * mono_r.

    w = 1 for bosons and sgn(g) for fermions; each block equals the one
    :func:`decompose_rate_matrix` finds at the same label, with no n! x n!
    object built.  ``r`` is one delay matrix, giving blocks (s_lam, s_lam),
    or a stack (..., n, n) of them, giving blocks (..., s_lam, s_lam) from
    one transform with a column per delay matrix.
    """
    _check_species(species)
    ordering = T.ordering
    r = _check_delay_matrix(r, ordering.n, batch=True)
    weighted = _weighted_monomials(r, species, ordering).reshape(-1, len(ordering))
    y = np.ascontiguousarray(fourier_transform(weighted.T, ordering).T)
    y.setflags(write=False)
    batch = r.shape[:-2]
    return {
        lam: y[:, offset : offset + s * s].reshape(batch + (s, s))
        for lam, offset, s in T.layout
    }


_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _gamma(k: int) -> float:
    return k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)


@cache
def _fft_rounding(n: int) -> float:
    """δ with ‖fl(T v) - T v‖ <= δ ‖v‖ for T v from the fast Fourier
    transform; derived in :func:`attach_vector`."""
    growth = 1 + _gamma(3)
    for k in range(2, n + 1):
        s = max(standard_tableau_count(lam) for lam in partitions_of(k))
        growth *= 1 + math.sqrt(k) * (k - 1) * math.sqrt(2 * s) * _gamma(s + 3)
        growth *= 1 + math.sqrt(k * s) * _gamma(k * s)
    return growth - 1


@cache
def _parseval_tolerance(n: int) -> float:
    delta = _fft_rounding(n)
    return 2 * delta + delta**2 + 2 * _gamma(2 * math.factorial(n)) * (1 + delta) ** 2


def attach_vector(
    v: MonomialVector | np.ndarray,
    blocks: dict[tuple[int, ...], np.ndarray],
    T: BlockTransform,
    species: str,
) -> BlockDecomposition:
    """Project a monomial vector onto the block layout (the cheap
    per-output-string step): T v, taken from one fast Fourier transform of
    v and scaled by sqrt(s_lam/n!) per label.

    ``v`` is one vector (n!,), giving vectors (s_lam, s_lam) per label, or a
    stack of K vectors as rows (K, n!)
    (:func:`~partdist.interferometer.monomial_vector` of a stack of
    submatrices), projected by one transform of all of them as columns and
    giving vectors (K, s_lam, s_lam), so that :func:`rate_blocked` and
    :func:`rate_truncated` give K rates.  Every vector passes its own
    Parseval check.

    Raises :class:`DomainError` when v was built over another ordering than
    T, and :class:`NumericalError` when the Parseval residual
    |‖T v‖² - ‖v‖²| exceeds (2δ + δ² + 2γ_2N (1 + δ)²) ‖v‖², with
    1 + δ = (1 + γ_3) prod_k (1 + √k (k-1) √(2s) γ_{s+3}) (1 + √(ks) γ_ks),
    k = 2..n, γ_k = k u / (1 - k u), u = 2^-53, N = n! and s the largest
    irrep dimension of S_k.  The bound is the rounding of the transform.  In
    coordinates scaled by sqrt(s_lam/k!), level k of the FFT is an
    orthogonal map, computed as products [D(c_0) | ... | D(c_(k-1))] E.
    Each coset matrix D(c_j) is a product of at most k-1 of Young's generator
    matrices, each factor adding at most √(2s) γ_{s+3} in Frobenius norm, so
    the stored row is within √k (k-1) √(2s) γ_{s+3} of the exact one in
    2-norm; the product rounds by γ_ks ‖W‖_F ≤ γ_ks √(ks) against the level's
    input norm, since the branching rule sum_(lam ⊃ mu) s_lam = k s_mu makes
    the scaled norms of the E add up to it.  The final scaling by
    sqrt(s_lam/n!) adds γ_3, and each squared norm γ_2N (N complex terms).
    """
    _check_species(species)
    if isinstance(v, MonomialVector):
        if v.ordering is not T.ordering:
            raise DomainError("monomial vector and transform use different orderings")
        v = v.values
    V = np.asarray(v)
    N = len(T.ordering)
    if V.ndim not in (1, 2) or V.shape[-1] != N:
        raise DomainError("monomial vector length does not match transform")
    rows = V.reshape(-1, N)
    scale = np.concatenate([np.full(s * s, math.sqrt(s / N)) for _, _, s in T.layout])
    W = np.ascontiguousarray((fourier_transform(rows.T, T.ordering) * scale[:, None]).T)
    W.setflags(write=False)
    norm2 = np.einsum("ij,ij->i", rows.conj(), rows).real
    residuals = np.abs(np.einsum("ij,ij->i", W.conj(), W).real - norm2)
    bad = residuals > _parseval_tolerance(T.n) * norm2
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(
            f"transform is not orthogonal on this vector: Parseval residual "
            f"{residuals[i]:.3e} against ‖v‖² = {norm2[i]:.3e}"
        )
    batch = V.shape[:-1]
    vectors = {
        lam: W[:, offset : offset + s * s].reshape(batch + (s, s)) for lam, offset, s in T.layout
    }
    return BlockDecomposition(species, T, blocks, vectors, float(residuals.max()))


def rate_blocked(decomp: BlockDecomposition):
    """Rate assembled block by block; equals the direct rate exactly (the
    transform is orthogonal).  A float, or an array over the batch axes of
    a batched decomposition: one broadcasting einsum per label for the whole
    batch (:meth:`BlockDecomposition.term`), and the same checks and clamps
    per element as for one string.

    A batch and its strings (or delay matrices) one at a time agree to a
    rounding bound; the batched transforms may round differently.  With
    N = n!, ‖v‖ the monomial vector's norm, δ the transform rounding of
    :func:`attach_vector`, γ_k = k u / (1 - k u) and u = 2^-53:

    - Every K_lam is a diagonal block of T R T^t, so ‖K_lam‖_2 <= ‖R‖_2 <= N
      (|R_ij| <= 1).  Each computed projection w is within δ‖v‖ of T v, so
      ‖w‖ <= (1 + δ)‖v‖, and two projections move the rate by at most
      ‖K‖ (‖w_1‖ + ‖w_2‖) ‖w_1 - w_2‖ <= 4 N δ (1 + δ) ‖v‖².
    - The blocks are the transform of the weighted monomials f, |f(g)| <= 1
      so ‖f‖² <= N, whose entries round by γ_n relative.  In the orthogonal
      scaling both errors together move sum_lam (s_lam/N) ‖ΔK_lam‖_F² by
      at most (δ' ‖f‖)², δ' = δ + (1 + δ) γ_n, so ‖ΔK_lam‖_2 <= δ' N and
      the rate moves by at most δ' N ‖w‖²: two sets of blocks, by
      2 δ' N (1 + δ)² ‖v‖².
    - One evaluation rounds each label's s^3 products of three factors
      and their sum by γ_(s^3+6) sum |w| |K| |w| <= γ_(s^3+6) ‖K_lam‖_F
      ‖w_lam‖² <= γ_(s^3+6) √s N ‖w_lam‖², and the sum over the p(n) labels
      by γ_p(n) N ‖w‖², s the largest irrep dimension: E = (γ_(s^3+6) √s +
      γ_p(n)) N (1 + δ)² ‖v‖² per evaluation, 2E between two.

    Clamping a negative raw rate to 0 moves it toward any non-negative
    value, so the bound holds after clamping too."""
    total = sum(decomp.term(lam) for lam in decomp.blocks)
    return _finalize_rate(total)


def rate_truncated(decomp: BlockDecomposition, mu):
    """Rate summing only the blocks that do not vanish for the partition mu,
    a descending tuple (:meth:`BlockDecomposition.vanishes`).

    Exact when mu is :func:`gamas_partition` of the blocks' delay matrix,
    as :func:`engine_rates` takes it: every dropped block then vanishes
    identically, and so it is against a finer mu.  Against a coarser one,
    such as the bin partition of raw continuous times, a dropped block need
    not vanish.  The kept labels are decided once per call, for a whole
    batch; the result is a float or an array as for :func:`rate_blocked`.
    """
    total = sum(decomp.term(lam) for lam in decomp.blocks if not decomp.vanishes(lam, mu))
    return _finalize_rate(total)


def gamas_partition(r) -> tuple[int, ...]:
    """Sizes, largest first, of the classes of particles whose rows of the
    delay matrix r agree bit for bit: identical wavepackets.

    If rows i and j agree, r[σ(a), b] = r[a, b] for the transposition σ of
    i and j, so f(σ g) = ±f(g) with the same factors in the same order, bit
    for bit (the sign for fermions).  f is thus invariant, up to sign, under
    the Young subgroup of these classes, and every block whose label fails
    to dominate this partition (for fermions, whose conjugate fails to)
    vanishes for r as given.  Distinct times give (1,) * n and keep every
    block; times at bin centres give the bin partition.
    """
    r = _as_real(r)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise DomainError(f"gamas_partition takes one square delay matrix, got shape {r.shape}")
    sizes = np.bincount(_bit_ids(r)[1])
    return tuple(sorted(sizes.tolist(), reverse=True))


def gamas_vanishes(lam: tuple[int, ...], mu) -> bool:
    """Gamas's rule: True iff the boson block K_lam is identically zero for
    the partition mu of identical particles, which holds exactly when lam
    fails to dominate mu (as the lam-immanant of the snapped Gram matrix
    vanishes).  The fermion block at lam is K_lam' and follows the conjugate
    label (:meth:`BlockDecomposition.vanishes`)."""
    return not dominates(lam, mu)


# ---------------------------------------------------------------------------
# One entry point for every engine


@dataclass(frozen=True, eq=False)
class EngineRates:
    """Rates from :func:`engine_rates` and the health figures of their route.

    ``rates`` is 0-d for one string under one delay matrix, else one rate
    per string or per delay matrix.  ``parseval_residual`` (block engines)
    and ``cancellation`` (streaming engine: the largest sum_S |f(P_S)| /
    rate) are None on the other routes.  ``bounds``, of the shape of
    ``rates``, is the rounding bound of each raw rate that
    :func:`_finalize_rate` judged it by, or None on a route that derives
    none yet (all but streaming).

    ``blocks`` is the per-label report of one string under one delay matrix
    on the block engines, None otherwise: one row per partition label, in
    the layout order of :func:`build_transform`, with the keys ``lam``
    (the label), ``kept`` (whether the rate summed its term: every label on
    ``blocked``, the labels that survive :func:`gamas_partition` of the
    delay matrix on ``truncated``), ``magnitude`` (the largest |entry| of
    the block) and ``term`` (:meth:`BlockDecomposition.term`).  The rate is
    the sum of the kept terms in this order, clamped at 0.
    """

    rates: np.ndarray
    parseval_residual: float | None = None
    cancellation: float | None = None
    blocks: tuple[dict, ...] | None = None
    bounds: np.ndarray | None = None


def _batches(stack, width: int):
    return [stack[i : i + width] for i in range(0, len(stack), width)]


def engine_rates(A, r, species: str, engine: str) -> EngineRates:
    """Rates of one engine, for one scattering submatrix ``A`` (n, n) under
    one delay matrix ``r`` (n, n) or a stack of them (P, n, n), or for a
    stack of submatrices (K, n, n) under one delay matrix.

    ``engine`` is ``direct``, ``streaming``, ``blocked`` or ``truncated``;
    ``truncated`` drops the blocks that vanish identically for
    :func:`gamas_partition` of the delay matrix, so it equals ``blocked``
    bit for bit when it drops none.  A stack of delay matrices must share
    one partition, or :class:`DomainError` is raised.  The route follows
    from the engine and the shapes:

    - ``streaming``: :func:`rate_direct_streaming`, which sizes its own
      steps and builds no group; one call for one string, floor(2^16 / 2^n)
      strings per call for a stack.  A call evaluates each distinct detector
      subset once, so a batch of the C(m, n) strings costs at most
      sum_(j <= n) C(m, j) subset matrices, and one string 2^n per
      bitwise-distinct delay matrix.
    - ``direct``, one string: one :func:`autocorrelation`, then
      :func:`rate_from_autocorrelation` for every delay matrix.
    - ``direct``, a stack of strings: one :func:`rate_matrix`, then one
      :func:`rate_direct` per string.
    - ``blocked``, ``truncated``: one route of decompositions.  One string
      is projected once (:func:`attach_vector`) and meets the
      :func:`fourier_blocks` of each batch of its delay matrices; a stack of
      strings meets the blocks of its one delay matrix, projected batch by
      batch.  Each decomposition takes one :func:`rate_blocked` or
      :func:`rate_truncated`, and only one batch is held at a time.  One
      string under one delay matrix also gets the per-label report
      ``EngineRates.blocks``.

    Every route but the streaming one refuses n > MAX_DENSE_DEGREE with
    :class:`SizeLimitError` before it enumerates S_n.
    An empty stack, of no strings or no delay matrices, gives empty rates
    (and empty bounds on ``streaming``) and no health figures.

    Determinism: the dense and block routes take their rates from BLAS
    matrix products: R v per string; the weighted monomials of the delay
    matrices times the autocorrelation, whose entries come from element-wise
    Glynn permanents and so depend on no BLAS library, batch or thread count;
    and the per-label products of each level of the fast Fourier transform
    on S_n that yields T v and the blocks.  A BLAS library may split a
    product's sums differently for another thread count or another number of
    rows or columns, and a batched einsum need not round like the same step
    on one string; so the batches are fixed.  Strings and delay matrices go
    in their given order, floor(2^16 / n!) per batch, and batch widths depend
    on n and that order alone.  The streaming engine evaluates each subset
    matrix by element-wise operations or its own LAPACK determinant call,
    whichever strings share it, and sums all 2^n values of a rate at once,
    so neither the step width nor the batch changes its bits.
    """
    n = np.shape(A)[-1]
    one_string = np.ndim(A) == 2
    if np.ndim(A) not in (2, 3) or np.ndim(r) not in (2, 3) or not (one_string or np.ndim(r) == 2):
        raise DomainError("engine rates take one string or a stack of strings under one delay matrix")
    if engine not in ("direct", "streaming", "blocked", "truncated"):
        raise DomainError(f"unknown engine {engine!r}")
    if engine != "streaming":
        _check_dense_degree(n)
    if 0 in np.shape(A)[:-2] + np.shape(r)[:-2]:
        if np.shape(A)[-2:] != (n, n):
            raise DomainError(f"scattering submatrices must be square, got shape {np.shape(A)}")
        _check_species(species)
        _check_delay_matrix(r, n, batch=True)
        return EngineRates(np.zeros(0), bounds=np.zeros(0) if engine == "streaming" else None)
    if engine == "streaming":
        if one_string:
            return rate_direct_streaming(A, r, species)
        streams = [rate_direct_streaming(a, r, species)
                   for a in _batches(A, max(1, BATCH_ENTRIES >> n))]
        return EngineRates(np.concatenate([s.rates for s in streams]),
                           bounds=np.concatenate([s.bounds for s in streams]),
                           cancellation=max(s.cancellation for s in streams))
    mu = (1,) * n  # every block survives: the blocked engine keeps them all
    if engine == "truncated":
        partitions = set(map(gamas_partition, _check_delay_matrix(r, n, batch=True).reshape(-1, n, n)))
        if len(partitions) > 1:
            raise DomainError(f"truncated rates need one Gamas partition for the stack of "
                              f"delay matrices, got {sorted(partitions)}")
        (mu,) = partitions
    ordering = all_permutations(n)
    width = max(1, BATCH_ENTRIES // len(ordering))
    if engine == "direct" and one_string:
        S = autocorrelation(A, ordering)
        return EngineRates(np.asarray(rate_from_autocorrelation(S, r, species, ordering)))
    if engine == "direct":
        R = rate_matrix(r, species, ordering)
        return EngineRates(np.concatenate([
            [rate_direct(v, R) for v in monomial_vector(a, ordering).values]
            for a in _batches(A, width)
        ]))

    T = build_transform(ordering)

    def decompositions():
        """(decomposition, single): single for one string under one delay
        matrix, whose result carries the block report."""
        if one_string:
            projected = attach_vector(monomial_vector(A, ordering), {}, T, species)
            for rs in [r] if np.ndim(r) == 2 else _batches(r, width):
                yield replace(projected, blocks=fourier_blocks(rs, species, T)), np.ndim(rs) == 2
        else:
            blocks = fourier_blocks(r, species, T)
            for a in _batches(A, width):
                yield attach_vector(monomial_vector(a, ordering), blocks, T, species), False

    rates, residual = [], 0.0
    for decomp, single in decompositions():
        rate = rate_truncated(decomp, mu) if engine == "truncated" else rate_blocked(decomp)
        if single:
            report = tuple(
                {"lam": lam, "kept": not decomp.vanishes(lam, mu),
                 "magnitude": float(np.max(np.abs(block))), "term": decomp.term(lam)}
                for lam, block in decomp.blocks.items()
            )
            return EngineRates(np.asarray(rate), decomp.parseval_residual, blocks=report)
        residual = max(residual, decomp.parseval_residual)
        rates.append(rate)
    return EngineRates(np.concatenate(rates), residual)


# ---------------------------------------------------------------------------
# Fully distinguishable limit


def rate_fully_distinguishable(A) -> float:
    """Classical rate per(|A_ij|^2): all interference terms gone."""
    A = np.asarray(A)
    return _finalize_rate(permanent(np.abs(A) ** 2))
