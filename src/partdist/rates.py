"""Coincidence rates: direct n! x n! form and block-diagonalized form.

The direct route builds the rate matrix R over a group ordering,

    R[i, j]  = prod_k r[(gj^-1 gi)(k), k]          (bosons)
    R[i, j] *= sgn(gi) sgn(gj)                     (fermions)

and evaluates rate = v^dag R v with v the scattering monomial vector.

The blocked route works in the basis of the orthogonal group-Fourier
transform T, whose rows are sqrt(s_lam / n!) D_lam(gamma)[a, b].  There R
becomes s_lam repeated copies of one symmetric s_lam x s_lam block per
partition lam, and by Fourier inversion on S_n that block is

    K_lam = sum_g w(g) mono_r(g) D_lam(g),    w = 1 (bosons), sgn(g) (fermions),

with mono_r(g) = prod_k r[g(k), k].  Both K_lam and the projected vector
T v come from the fast Fourier transform on S_n
(:func:`~partdist.symgroup.fourier_transform`), at O(n! n^2 s) cost for
s the largest irrep dimension: :func:`fourier_blocks` transforms w * mono_r
once per delay matrix and :func:`attach_vectors` a batch of monomial
vectors at a time.  No n! x n! object and no irrep table is built on this
route.  The dense T and the O((n!)^3) conjugation T R T^t stay in
:func:`decompose_rate_matrix` as the reference.
For fermions the sign weighting makes K_lam orthogonally equivalent to the
boson block of the conjugate label lam'.  Blocks whose label fails to
dominate the bin-occupancy partition vanish identically, which is what the
truncated engine exploits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .delays import DelayPartition
from .errors import DomainError, NumericalError, SizeLimitError
from .interferometer import MonomialVector, monomial_vector
from .matfun import permanent
from .symgroup import (
    GroupOrdering,
    Permutation,
    all_permutations,
    conjugate,
    dominates,
    fourier_transform,
    irrep_matrices,
    partitions_of,
    standard_tableau_count,
)

__all__ = [
    "RateMatrix",
    "rate_matrix",
    "rate_direct",
    "rate_direct_streaming",
    "BlockTransform",
    "build_transform",
    "BlockDecomposition",
    "block_decompose",
    "decompose_rate_matrix",
    "fourier_blocks",
    "attach_vector",
    "attach_vectors",
    "rate_blocked",
    "rate_truncated",
    "truncation_report",
    "TruncationEntry",
    "gamas_vanishes",
    "rate_fully_distinguishable",
    "reduce_distinguishable_particle",
    "ReducedDelayProblem",
    "rate_via_reduction",
    "MAX_DENSE_DEGREE",
    "MAX_STREAMING_DEGREE",
    "DISTINGUISHABLE_THRESHOLD",
]

MAX_DENSE_DEGREE = 7  # 7!^2 doubles is ~200 MB; 8! would need 13 GB
MAX_STREAMING_DEGREE = 8
DISTINGUISHABLE_THRESHOLD = 1e-12
RATE_CLAMP_TOL = 1e-10


def _allclose(a, b) -> bool:
    """np.allclose(a, b, atol=1e-12) with its default rtol of 1e-5, from
    plain ufuncs: |a - b| <= 1e-12 + 1e-5 |b| where b is finite, equality
    elsewhere, and no NaN ever close."""
    with np.errstate(invalid="ignore", over="ignore"):
        near = (np.abs(a - b) <= 1e-12 + 1e-5 * np.abs(b)) & np.isfinite(b)
    return bool((near | (a == b)).all())


def _check_delay_matrix(r, n: int) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.shape != (n, n):
        raise DomainError(f"delay matrix shape {r.shape} does not match degree {n}")
    if not _allclose(r, r.T) or not _allclose(np.diag(r), 1.0):
        raise DomainError("delay matrix must be symmetric with unit diagonal")
    return r


@cache
def _composition_tables(ordering: GroupOrdering):
    """Index tables: comp[i, j] = ordering.index(gj^-1 * gi).

    Row i is filled from a row already known: for gi = gp * s_k, gj^-1 gi is
    (gj^-1 gp) * s_k, so comp[i] is comp[p] sent through the
    right-multiplication-by-s_k index map.  The rows are visited breadth
    first from the identity, whose row is the inverse indices.
    """
    n = ordering.n
    N = len(ordering)
    P = ordering.images_array
    powers = n ** np.arange(n, dtype=np.int64)
    lut = np.full(n**n, -1, dtype=np.intp)
    lut[P @ powers] = np.arange(N)
    right = []  # right[k][x] = index of g_x * s_k: images at k, k+1 swapped
    for k in range(n - 1):
        cols = np.arange(n)
        cols[[k, k + 1]] = k + 1, k
        right.append(lut[P[:, cols] @ powers])
    comp = np.empty((N, N), dtype=np.intp)
    identity = ordering.index(Permutation.identity(n))
    comp[identity] = ordering.inverse_indices
    seen = np.zeros(N, dtype=bool)
    seen[identity] = True
    frontier = np.array([identity])
    while frontier.size:
        reached = []
        for step in right:
            child = step[frontier]
            new = ~seen[child]  # step is a bijection: no child appears twice
            child, parent = child[new], frontier[new]
            seen[child] = True
            for c, p in zip(child.tolist(), parent.tolist()):
                np.take(step, comp[p], out=comp[c])  # no temporary row
            reached.append(child)
        frontier = np.concatenate([frontier[:0], *reached])
    comp.setflags(write=False)
    return comp


def _monomials_of(r: np.ndarray, ordering: GroupOrdering) -> np.ndarray:
    return np.prod(r[ordering.images_array, np.arange(ordering.n)], axis=1)


@dataclass(frozen=True)
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


def rate_matrix(r, species: str, ordering: GroupOrdering) -> RateMatrix:
    """Dense n! x n! rate matrix from a delay matrix.

    Every entry is a degree-n monomial in the pairwise overlaps; the diagonal
    is 1 (bosons) or +/-1 patterns absorbed into the sign factors (fermions).
    """
    _check_species(species)
    n = ordering.n
    if n > MAX_DENSE_DEGREE:
        raise SizeLimitError(
            f"dense rate matrix limited to n <= {MAX_DENSE_DEGREE}; "
            f"use rate_direct_streaming for n = 8"
        )
    r = _check_delay_matrix(r, n)
    mono = _monomials_of(r, ordering)
    R = mono[_composition_tables(ordering)]
    if species == "fermion":
        signs = ordering.signs
        R = R * np.outer(signs, signs)
    R.setflags(write=False)
    return RateMatrix(species, ordering, R)


def _finalize_rate(value: complex) -> float:
    scale = max(1.0, abs(value))
    if abs(value.imag) > RATE_CLAMP_TOL * scale:
        raise NumericalError(f"rate has a non-negligible imaginary part: {value}")
    rate = value.real
    if rate < -RATE_CLAMP_TOL:
        raise NumericalError(f"rate {rate} is negative beyond tolerance")
    if rate < 0.0:
        warnings.warn(f"clamping slightly negative rate {rate} to 0", stacklevel=3)
        return 0.0
    return float(rate)


def rate_direct(v: MonomialVector | np.ndarray, R: RateMatrix) -> float:
    """Coincidence rate v^dag R v (real, non-negative).

    The value is the probability that the n particles leave on the given
    collision-free string, one per detector: |per A|^2 (bosons) or |det A|^2
    (fermions) at equal times, per(|A|^2) for fully distinguishable
    particles.  Only :mod:`partdist.sampling` renormalises, over the
    collision-free set.
    """
    values = v.values if isinstance(v, MonomialVector) else np.asarray(v)
    if values.shape != (len(R.matrix),) :
        raise DomainError("monomial vector length does not match rate matrix")
    return _finalize_rate(complex(values.conj() @ R.matrix @ values))


def rate_direct_streaming(
    v: MonomialVector | np.ndarray,
    r,
    species: str,
    ordering: GroupOrdering,
    chunk: int = 512,
) -> float:
    """Direct rate without materializing R: row chunks are generated on the
    fly and accumulated in a fixed order, so results are reproducible
    bit-for-bit for a fixed chunk size."""
    _check_species(species)
    n = ordering.n
    if n > MAX_STREAMING_DEGREE:
        raise SizeLimitError(f"streaming rate limited to n <= {MAX_STREAMING_DEGREE}")
    if chunk < 1:
        raise DomainError("chunk must be >= 1")
    r = _check_delay_matrix(r, n)
    values = v.values if isinstance(v, MonomialVector) else np.asarray(v)
    N = len(ordering)
    P = ordering.images_array
    powers = n ** np.arange(n, dtype=np.int64)
    lut = np.full(n**n, -1, dtype=np.intp)
    lut[P @ powers] = np.arange(N)
    inv_images = P[ordering.inverse_indices]
    mono = _monomials_of(r, ordering)
    signs = ordering.signs if species == "fermion" else None
    total = 0.0 + 0.0j
    for start in range(0, N, chunk):
        rows = np.arange(start, min(start + chunk, N))
        # codes[i, j] = base-n encoding of gj^-1 gi for i in rows; built one
        # letter at a time to keep the intermediates at (chunk, N)
        codes = np.zeros((len(rows), N), dtype=np.int64)
        for k in range(n):
            codes += powers[k] * inv_images[:, P[rows, k]].T
        Rchunk = mono[lut[codes]]
        if signs is not None:
            Rchunk = Rchunk * np.outer(signs[rows], signs)
        total += values[rows].conj() @ (Rchunk @ values)
    return _finalize_rate(complex(total))


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
    ``matrix`` is the dense n! x n! form, stacked from
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
            stack = np.stack(irrep_matrices(lam, self.ordering).matrices)  # (N, s, s)
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
    if n > MAX_DENSE_DEGREE:
        raise SizeLimitError(f"block transform limited to n <= {MAX_DENSE_DEGREE}")
    layout = []
    offset = 0
    for lam in partitions_of(n):
        s = standard_tableau_count(lam)
        layout.append((lam, offset, s))
        offset += s * s
    return BlockTransform(ordering, tuple(layout))


@dataclass(frozen=True)
class BlockDecomposition:
    """Per-partition blocks and projected vectors of one rate computation.

    For bosons the block stored at label lam is K_lam; for fermions it is
    the sign-weighted block, orthogonally equivalent to the conjugate boson
    block K_lam' (same spectrum).  The vectors are the s_lam copies of the
    projected monomial vector; the rate is the sum of v^dag K v over all
    copies of all labels.  ``parseval_residual`` is |‖T v‖² - ‖v‖²| of the
    projection (see :func:`attach_vector`).
    """

    species: str
    transform: BlockTransform
    blocks: dict[tuple[int, ...], np.ndarray]
    vectors: dict[tuple[int, ...], np.ndarray]  # (s_lam copies, s_lam)
    offblock_max: float
    parseval_residual: float

    @property
    def n(self) -> int:
        return self.transform.n

    def term(self, lam: tuple[int, ...]) -> float:
        """Contribution of all copies of one partition label."""
        vecs = self.vectors[lam]
        block = self.blocks[lam]
        return float(np.real(np.einsum("ab,bd,ad->", vecs.conj(), block, vecs)))


def decompose_rate_matrix(
    R: RateMatrix, T: BlockTransform
) -> tuple[dict[tuple[int, ...], np.ndarray], float]:
    """Dense reference: extract the per-partition blocks of T R T^t.

    Costs O((n!)^3) and a dense R; the engines use :func:`fourier_blocks`,
    and tests and demos compare against this.  Returns the copy-averaged
    blocks plus the largest entry found outside the predicted block-diagonal
    positions (a structural health check: it should sit at rounding level).
    """
    if R.ordering is not T.ordering and R.ordering != T.ordering:
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
    object built.
    """
    _check_species(species)
    ordering = T.ordering
    r = _check_delay_matrix(r, ordering.n)
    weighted = _monomials_of(r, ordering)
    if species == "fermion":
        weighted = weighted * ordering.signs
    y = fourier_transform(weighted, ordering)
    y.setflags(write=False)
    return {lam: y[offset : offset + s * s].reshape(s, s) for lam, offset, s in T.layout}


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


def attach_vectors(
    vs,
    blocks: dict[tuple[int, ...], np.ndarray],
    T: BlockTransform,
    species: str,
) -> tuple[BlockDecomposition, ...]:
    """:func:`attach_vector` for a batch of monomial vectors, projected by
    one fast Fourier transform of all of them as columns."""
    _check_species(species)
    columns = []
    for v in vs:
        if isinstance(v, MonomialVector):
            if v.ordering is not T.ordering and v.ordering != T.ordering:
                raise DomainError("monomial vector and transform use different orderings")
            v = v.values
        values = np.asarray(v)
        if values.shape != (len(T.ordering),):
            raise DomainError("monomial vector length does not match transform")
        columns.append(values)
    V = np.stack(columns, axis=1)
    N = len(T.ordering)
    scale = np.concatenate([np.full(s * s, math.sqrt(s / N)) for _, _, s in T.layout])
    W = np.ascontiguousarray((fourier_transform(V, T.ordering) * scale[:, None]).T)
    W.setflags(write=False)
    norm2 = np.einsum("ij,ij->j", V.conj(), V).real
    residuals = np.abs(np.einsum("ij,ij->i", W.conj(), W).real - norm2)
    tolerance = _parseval_tolerance(T.n)
    decomps = []
    for w, residual, size in zip(W, residuals, norm2):
        if residual > tolerance * size:
            raise NumericalError(
                f"transform is not orthogonal on this vector: Parseval residual "
                f"{residual:.3e} against ‖v‖² = {size:.3e}"
            )
        vectors = {lam: w[offset : offset + s * s].reshape(s, s) for lam, offset, s in T.layout}
        decomps.append(BlockDecomposition(species, T, blocks, vectors, 0.0, float(residual)))
    return tuple(decomps)


def attach_vector(
    v: MonomialVector | np.ndarray,
    blocks: dict[tuple[int, ...], np.ndarray],
    T: BlockTransform,
    species: str,
    offblock_max: float = 0.0,
) -> BlockDecomposition:
    """Project a monomial vector onto the block layout (the cheap
    per-output-string step): T v, taken from one fast Fourier transform of
    v and scaled by sqrt(s_lam/n!) per label.

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
    return replace(attach_vectors([v], blocks, T, species)[0], offblock_max=offblock_max)


def block_decompose(
    v: MonomialVector | np.ndarray,
    R: RateMatrix,
    T: BlockTransform,
    species: str | None = None,
) -> BlockDecomposition:
    """Dense reference decomposition of one rate computation: blocks of
    T R T^t (:func:`decompose_rate_matrix`) plus the projected vector
    copies.  The engines use :func:`fourier_blocks` instead."""
    species = R.species if species is None else species
    if species != R.species:
        raise DomainError(f"decomposition species {species!r} != rate matrix {R.species!r}")
    blocks, offblock = decompose_rate_matrix(R, T)
    return attach_vector(v, blocks, T, species, offblock)


def rate_blocked(decomp: BlockDecomposition) -> float:
    """Rate assembled block by block; equals the direct rate exactly (the
    transform is orthogonal)."""
    total = sum(decomp.term(lam) for lam in decomp.blocks)
    return _finalize_rate(complex(total))


def _kept_labels(decomp: BlockDecomposition, mu: tuple[int, ...]):
    # A block vanishes identically unless its own label dominates the bin
    # partition.  The block sitting at vector label lam is K_lam for bosons
    # but the conjugate K_lam' for fermions, hence the conjugate test there.
    if decomp.species == "boson":
        return {lam: dominates(lam, mu) for lam in decomp.blocks}
    return {lam: dominates(conjugate(lam), mu) for lam in decomp.blocks}


def _as_partition(mu) -> tuple[int, ...]:
    return mu.partition if isinstance(mu, DelayPartition) else tuple(mu)


def rate_truncated(decomp: BlockDecomposition, mu) -> float:
    """Rate summing only the blocks that survive for bin partition mu.

    Exact when the delay matrix came from snapped (bin-center) times; for raw
    continuous times the dropped blocks are only approximately zero, so use
    :func:`truncation_report` to see what is being discarded.
    """
    mu = _as_partition(mu)
    kept = _kept_labels(decomp, mu)
    total = sum(decomp.term(lam) for lam, keep in kept.items() if keep)
    return _finalize_rate(complex(total))


@dataclass(frozen=True)
class TruncationEntry:
    lam: tuple[int, ...]
    kept: bool
    block_magnitude: float  # max |entry| of the block
    term: float  # contribution of all copies of this label


def truncation_report(decomp: BlockDecomposition, mu) -> tuple[TruncationEntry, ...]:
    mu = _as_partition(mu)
    kept = _kept_labels(decomp, mu)
    return tuple(
        TruncationEntry(
            lam,
            kept[lam],
            float(np.max(np.abs(decomp.blocks[lam]))),
            decomp.term(lam),
        )
        for lam in decomp.blocks
    )


def gamas_vanishes(lam: tuple[int, ...], mu) -> bool:
    """True iff the block labelled lam is identically zero for bin partition
    mu: the lam-immanant of the snapped Gram matrix vanishes exactly when lam
    fails to dominate mu."""
    return not dominates(lam, _as_partition(mu))


# ---------------------------------------------------------------------------
# Fully / partially distinguishable limits


def rate_fully_distinguishable(A) -> float:
    """Classical rate per(|A_ij|^2): all interference terms gone."""
    A = np.asarray(A)
    return _finalize_rate(permanent(np.abs(A) ** 2))


@dataclass(frozen=True)
class ReducedDelayProblem:
    """Bookkeeping for peeling one fully distinguishable particle off.

    The remaining (n-1)-particle delay matrix appears n times over — once for
    each output port the removed particle can occupy."""

    delay_matrix: np.ndarray
    removed: int  # 0-based index of the particle taken out
    copies: int  # multiplicity of the reduced block: n


def reduce_distinguishable_particle(
    r, k: int, threshold: float = DISTINGUISHABLE_THRESHOLD
) -> ReducedDelayProblem:
    """Remove particle k (0-based) from the delay matrix.

    Requires every overlap of particle k with the others to sit below the
    distinguishability threshold; the Gaussian overlaps never reach zero for
    finite separations, so the cut is an explicit threshold, not a limit.
    """
    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    if not (0 <= k < n):
        raise DomainError(f"particle index {k} outside 0..{n - 1}")
    off = np.abs(np.delete(r[k], k))
    if off.size and off.max() >= threshold:
        raise DomainError(
            f"particle {k} is not fully distinguishable: max overlap {off.max():.3e}"
        )
    keep = [i for i in range(n) if i != k]
    reduced = r[np.ix_(keep, keep)].copy()
    reduced.setflags(write=False)
    return ReducedDelayProblem(reduced, k, n)


def rate_via_reduction(
    A,
    r,
    species: str,
    threshold: float = DISTINGUISHABLE_THRESHOLD,
    convention: str = "lex",
) -> float:
    """Rate computed by recursively peeling off fully distinguishable
    particles: the removed particle contributes classically, port by port,
    and each residual problem is one particle smaller.  Falls back to the
    direct rate once no particle is below threshold."""
    _check_species(species)
    A = np.asarray(A)
    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    if A.shape != (n, n):
        raise DomainError("scattering submatrix and delay matrix sizes differ")
    if n == 1:
        return float(np.abs(A[0, 0]) ** 2)
    for k in range(n):
        off = np.abs(np.delete(r[k], k))
        if off.max() < threshold:
            problem = reduce_distinguishable_particle(r, k, threshold)
            total = 0.0
            cols = [j for j in range(n) if j != k]
            for q in range(n):
                weight = float(np.abs(A[q, k]) ** 2)
                if weight == 0.0:
                    continue
                rows = [i for i in range(n) if i != q]
                total += weight * rate_via_reduction(
                    A[np.ix_(rows, cols)],
                    problem.delay_matrix,
                    species,
                    threshold,
                    convention,
                )
            return total
    ordering = all_permutations(n, convention)
    R = rate_matrix(r, species, ordering)
    return rate_direct(monomial_vector(A, ordering), R)
