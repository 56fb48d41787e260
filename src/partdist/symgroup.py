"""Symmetric-group machinery: the group as an array, partitions,
characters, irreps.

Everything downstream (rate matrices, block transforms, immanants) is built
on top of this module.  A group element is a row of 0-based one-line images
in the (n!, n) array of a :class:`GroupOrdering`; its sign and cycle class
are entries of arrays over the rows, and its irrep matrix a slice of one
(n!, s, s) array, so no per-element object is ever built.

Irreducible representations are realised in Young's orthogonal form, so every
representation matrix is real orthogonal and traces give the characters.
That basis is adapted to the chain S_1 < S_2 < ... < S_n, which is what
:func:`fourier_transform` (Clausen's fast Fourier transform) runs on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DomainError, SizeLimitError

__all__ = [
    "GroupOrdering",
    "monomials",
    "all_permutations",
    "partitions_of",
    "conjugate",
    "dominates",
    "character",
    "standard_tableau_count",
    "gl_dimension",
    "standard_tableaux",
    "irrep_matrices",
    "fourier_transform",
    "distinct_block_functions",
]

MAX_GROUP_DEGREE = 10  # 10! = 3.6M elements is the largest group we enumerate


@dataclass(frozen=True, eq=False)
class GroupOrdering:
    """An enumeration of the full symmetric group in a fixed order: row k of
    the read-only (n!, n) ``images_array`` holds the one-line images of the
    k-th permutation, and each row must be a bijection on 0..n-1.

    Signs, cycle classes and coset positions are arrays over the rows.
    Orderings compare and hash by identity, and :func:`all_permutations`
    keeps one per degree.
    """

    n: int
    images_array: np.ndarray

    def __post_init__(self):
        n = self.n
        P = np.asarray(self.images_array)
        if P.dtype != np.intp or P.flags.writeable:  # else kept: 290 MB at n = 10
            P = np.array(P, dtype=np.intp)
            P.setflags(write=False)
        if n < 1 or P.shape != (math.factorial(n), n) or P.min() < 0 or P.max() >= n:
            raise DomainError(f"need an (n!, n) array of images in 0..{n - 1}, got {P.shape}")
        hit = np.zeros(P.shape, dtype=bool)
        hit[np.arange(len(P))[:, None], P] = True
        if not hit.all():
            raise DomainError(f"row {hit.all(axis=1).argmin()} is not a bijection on 0..{n - 1}")
        object.__setattr__(self, "images_array", P)

    def __len__(self) -> int:
        return len(self.images_array)

    @cached_property
    def signs(self) -> np.ndarray:
        """(n!,) float signs, (-1)^(number of inversions) of each row of
        ``images_array``."""
        P = self.images_array
        i, j = np.triu_indices(self.n, 1)
        inversions = (P[:, i] > P[:, j]).sum(axis=1)  # 0 for n = 1: no pairs
        arr = 1.0 - 2.0 * (inversions % 2)
        arr.setflags(write=False)
        return arr

    @cached_property
    def cycle_classes(self) -> np.ndarray:
        """(n!,) read-only positions in :func:`partitions_of` (n) of each
        row's cycle type, fixed points included.

        Following the images from point i, the first step that comes back
        to i is the length L_i of its cycle.  A type with c_k cycles of
        length k puts k c_k <= n points on k-cycles, so the key
        sum_i (n+1)^(L_i - 1) = sum_k k c_k (n+1)^(k-1) tells types apart.
        """
        n = self.n
        P = self.images_array
        rows = np.arange(len(P))
        keys = np.zeros(len(P), dtype=np.int64)
        for i in range(n):
            point, length = P[:, i], np.zeros(len(P), dtype=np.int64)
            for step in range(1, n + 1):
                length[(point == i) & (length == 0)] = step
                point = P[rows, point]
            keys += (n + 1) ** (length - 1)
        types = np.array([sum(k * (n + 1) ** (k - 1) for k in rho) for rho in partitions_of(n)])
        order = np.argsort(types)
        classes = order[np.searchsorted(types[order], keys)]
        classes.setflags(write=False)
        return classes

    @cached_property
    def coset_gather(self) -> np.ndarray:
        """Indices that put a function on this ordering into the coset-digit
        order of :func:`fourier_transform`.

        Every g factors uniquely as c_{j_n} c_{j_(n-1)} ... c_{j_2}, where the
        level-k coset representative c_j = s_j s_(j+1) ... s_(k-2) of S_(k-1)
        in S_k maps k-1 to j (0-based, s_i swapping i and i+1).  So j_n is
        the last one-line image, and the S_(n-1) part has the other images,
        those above j_n decremented.  Position sum_k j_k n!/k! of the digit
        order holds g.
        """
        n = self.n
        P = self.images_array
        position = np.zeros(len(self), dtype=np.intp)
        stride = 1
        for k in range(n, 1, -1):
            j = P[:, k - 1]
            position += stride * j
            P = P[:, : k - 1] - (P[:, : k - 1] > j[:, None])
            stride *= k
        gather = np.empty_like(position)
        gather[position] = np.arange(len(self))
        gather.setflags(write=False)
        return gather


def monomials(M, ordering: GroupOrdering) -> np.ndarray:
    """The permutation monomials prod_k M[g(k), k] for every g of the
    ordering, in ordering order along the last axis; M may be a stack
    (..., n, n).  They are gathered one column of M at a time,
    ((M[g(0), 0] M[g(1), 1]) ...) M[g(n-1), n-1], by element-wise products,
    so a stacked value has the bits of the matrix alone."""
    M = np.asarray(M)
    images = ordering.images_array
    values = M[..., images[:, 0], 0]
    for k in range(1, ordering.n):
        values = values * M[..., images[:, k], k]
    return values


@cache
def all_permutations(n: int) -> GroupOrdering:
    """Enumerate the symmetric group on n symbols, one-line images in
    lexicographic order, which puts the identity first.  Level k of the
    image array runs f = 0..k-1 as first image, each followed by level k-1
    on the other symbols, P_(k-1) + (P_(k-1) >= f)."""
    if not (1 <= n <= MAX_GROUP_DEGREE):
        raise SizeLimitError(f"group degree n={n} outside 1..{MAX_GROUP_DEGREE}")
    P = np.zeros((1, 0), dtype=np.intp)
    for k in range(1, n + 1):
        level = np.empty((k, len(P), k), dtype=np.intp)
        for f in range(k):
            level[f, :, 0] = f
            level[f, :, 1:] = P + (P >= f)
        P = level.reshape(-1, k)
    P.setflags(write=False)
    return GroupOrdering(n, P)


# ---------------------------------------------------------------------------
# Partitions


def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n < 0:
        raise DomainError("partitions_of expects n >= 0")

    def gen(rest: int, cap: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(cap, rest), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(gen(n, n))


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of the Young diagram."""
    _check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0]))


def dominates(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """True iff lam >= mu in dominance order (prefix sums of lam never fall
    behind).  Both partitions must be of the same integer."""
    _check_partition(lam)
    _check_partition(mu)
    if sum(lam) != sum(mu):
        raise DomainError(f"{lam} and {mu} partition different integers")
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def _check_partition(lam) -> None:
    if any(a <= 0 for a in lam) or any(a < b for a, b in zip(lam, lam[1:])):
        raise DomainError(f"not a partition (weakly decreasing, positive): {lam}")


# ---------------------------------------------------------------------------
# Characters via the Murnaghan–Nakayama rule


def character(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Irreducible character chi_lam on the class of cycle type rho, a
    partition of the same integer (see :attr:`GroupOrdering.cycle_classes`)."""
    _check_partition(lam)
    _check_partition(rho)
    if sum(lam) != sum(rho):
        raise DomainError(f"character: |{lam}| != |{rho}|")
    return _mn(tuple(lam), tuple(rho))


@cache
def _mn(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    # Murnaghan–Nakayama recursion on beta-sets: removing a border strip of
    # length t moves one beta number down by t; the sign is (-1)^(number of
    # beta numbers jumped over), which equals (-1)^(strip height).
    if not rho:
        return 1
    t, rest = rho[0], rho[1:]
    k = len(lam)
    betas = [lam[j] + (k - 1 - j) for j in range(k)]
    beta_set = set(betas)
    total = 0
    for b in betas:
        c = b - t
        if c < 0 or c in beta_set:
            continue
        height = sum(1 for x in betas if c < x < b)
        new_betas = sorted(beta_set - {b} | {c}, reverse=True)
        new_lam = tuple(x - (k - 1 - j) for j, x in enumerate(new_betas))
        new_lam = tuple(x for x in new_lam if x > 0)
        total += (-1) ** height * _mn(new_lam, rest)
    return total


# ---------------------------------------------------------------------------
# Dimensions


def _cells(lam):
    return [(i, j) for i, part in enumerate(lam) for j in range(part)]


def _hook_lengths(lam):
    conj = conjugate(lam)
    return {
        (i, j): (lam[i] - j) + (conj[j] - i) - 1
        for (i, j) in _cells(lam)
    }


def standard_tableau_count(lam: tuple[int, ...]) -> int:
    """Number of standard Young tableaux (hook length formula).  This is the
    multiplicity s_lam of the irrep lam inside the regular representation."""
    _check_partition(lam)
    n = sum(lam)
    hooks = _hook_lengths(lam)
    denom = math.prod(hooks.values())
    return math.factorial(n) // denom


def gl_dimension(lam: tuple[int, ...], n: int) -> int:
    """Dimension of the GL(n) irrep with highest weight lam (hook content
    formula).  Returns 0 when lam has more than n parts: no such irrep."""
    _check_partition(lam)
    if n < 1:
        raise DomainError("gl_dimension expects n >= 1")
    if len(lam) > n:
        return 0
    hooks = _hook_lengths(lam)
    num = math.prod(n + j - i for (i, j) in _cells(lam))
    den = math.prod(hooks.values())
    return num // den


def distinct_block_functions(n: int) -> int:
    """Number of distinct entries across all symmetric blocks of the
    block-diagonalized rate matrix: sum over lam of s_lam (s_lam + 1) / 2."""
    return sum(
        standard_tableau_count(lam) * (standard_tableau_count(lam) + 1) // 2
        for lam in partitions_of(n)
    )


# ---------------------------------------------------------------------------
# Standard tableaux and Young's orthogonal representation


@cache
def standard_tableaux(lam: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All standard Young tableaux of shape lam, sorted by row-reading word.

    The sort pins the basis order used by the orthogonal representation; for
    shape (2,1) it lists [[1,2],[3]] before [[1,3],[2]].
    """
    _check_partition(lam)
    n = sum(lam)
    rows = len(lam)
    out = []

    def place(v: int, filled: list[int], cells: list[list[int]]):
        if v > n:
            out.append(tuple(tuple(row) for row in cells))
            return
        for i in range(rows):
            c = filled[i]
            if c >= lam[i]:
                continue
            if i > 0 and filled[i - 1] <= c:
                continue  # cell above must already be filled
            filled[i] += 1
            cells[i].append(v)
            place(v + 1, filled, cells)
            cells[i].pop()
            filled[i] -= 1

    place(1, [0] * rows, [[] for _ in range(rows)])
    out.sort(key=lambda t: tuple(itertools.chain.from_iterable(t)))
    return tuple(out)


def _adjacent_transposition_matrices(lam: tuple[int, ...]) -> list[np.ndarray]:
    """Young's orthogonal matrices for s_k = (k, k+1), k = 1..n-1.

    Diagonal entries are 1/d with d the axial distance from k to k+1; when
    swapping k and k+1 keeps the tableau standard the two tableaux couple
    with off-diagonal sqrt(1 - 1/d^2).  A tableau is found by its row word
    (the row of each value), so its partner is the word with entries k and
    k+1 swapped.
    """
    n = sum(lam)
    basis = standard_tableaux(lam)
    dim = len(basis)
    words, contents = [], []  # [t][v - 1]: row, and column - row, of value v
    for tab in basis:
        word, content = [0] * n, [0] * n
        for i, row in enumerate(tab):
            for j, v in enumerate(row):
                word[v - 1], content[v - 1] = i, j - i
        words.append(tuple(word))
        contents.append(content)
    index = {word: t for t, word in enumerate(words)}

    mats = []
    for k in range(1, n):
        m = np.zeros((dim, dim))
        for t, word in enumerate(words):
            d = contents[t][k] - contents[t][k - 1]  # axial distance, never 0
            m[t, t] = 1.0 / d
            other = index.get(word[: k - 1] + (word[k], word[k - 1]) + word[k + 1 :])
            if other is not None and other > t:
                coupling = math.sqrt(1.0 - 1.0 / d**2)
                m[t, other] = m[other, t] = coupling
        mats.append(m)
    return mats


def _lex_rank(images: np.ndarray) -> np.ndarray:
    """Positions in :func:`all_permutations` of the rows of ``images`` (..., n):
    the counts d_i = #{j > i : images[j] < images[i]} read in the mixed
    radix (n-1)!, (n-2)!, ..., 1!."""
    n = images.shape[-1]
    rank = np.zeros(images.shape[:-1], dtype=np.intp)
    for i in range(n - 1):
        rank = rank * (n - i) + (images[..., i + 1 :] < images[..., i, None]).sum(axis=-1)
    return rank


@cache
def irrep_matrices(lam: tuple[int, ...], ordering: GroupOrdering) -> np.ndarray:
    """Young's orthogonal representation of the whole group: a read-only
    (n!, s_lam, s_lam) array whose k-th matrix represents row k of the
    ordering.  The matrices are real orthogonal, D(p q) = D(p) @ D(q).

    Built by breadth-first search along right-multiplication by adjacent
    transpositions, so only n-1 generator matrices are ever constructed
    explicitly.  A level's children sigma s_k run sigma-major, k-minor, and
    each new one is D(sigma) @ D(s_k) of the first sigma that reaches it.
    """
    n = ordering.n
    if sum(lam) != n:
        raise DomainError(f"partition {lam} does not match group degree {n}")
    gens = _adjacent_transposition_matrices(lam)
    s = len(standard_tableaux(lam))
    D = np.empty((len(ordering), s, s))  # in lexicographic order, the identity first
    D[0] = np.eye(s)
    reached = np.zeros(len(ordering), dtype=bool)
    reached[0] = True
    frontier, frontier_rank = np.arange(n)[None], np.zeros(1, dtype=np.intp)
    k = np.arange(n - 1)
    while len(frontier):
        # images of sigma * s_k: positions k and k+1 swapped
        children = np.repeat(frontier[:, None], n - 1, axis=1)
        children[:, k, k], children[:, k, k + 1] = frontier[:, k + 1], frontier[:, k]
        children = children.reshape(-1, n)
        rank = _lex_rank(children)
        _, first = np.unique(rank, return_index=True)
        new = np.sort(first[~reached[rank[first]]])
        reached[rank[new]] = True
        parent, gen = np.divmod(new, n - 1)
        for j in range(n - 1):
            pick = gen == j
            D[rank[new[pick]]] = D[frontier_rank[parent[pick]]] @ gens[j]
        frontier, frontier_rank = children[new], rank[new]
    D = D[_lex_rank(ordering.images_array)]
    D.setflags(write=False)
    return D


# ---------------------------------------------------------------------------
# Fast Fourier transform on S_n (Clausen)


@cache
def _level_plan(k: int):
    """Level k >= 2 of :func:`fourier_transform`, the same for every n.

    One entry (lam, s_lam, branches) per lam |- k in :func:`partitions_of`
    order, with one branch (mu, W, idx) per mu = lam minus a corner cell:
    idx lists the tableaux of lam whose cell holding k is that corner,
    ordered so that removing k gives :func:`standard_tableaux` (mu), and W is
    [D_lam(c_0)[:, idx] | ... | D_lam(c_(k-1))[:, idx]].  In Young's
    orthogonal form D_lam restricted to S_(k-1) is D_mu on the rows and
    columns idx, and zero between different branches.  idx is None when the
    branch holds every tableau of lam.
    """
    plan = []
    for lam in partitions_of(k):
        tableaux = standard_tableaux(lam)
        s = len(tableaux)
        reps = [np.eye(s)]  # D(c_(k-1)) = 1, then D(c_j) = D(s_j) D(c_(j+1))
        for gen in reversed(_adjacent_transposition_matrices(lam)):
            reps.append(gen @ reps[-1])
        reps.reverse()
        where: dict[tuple[int, ...], dict] = {}
        for t, tab in enumerate(tableaux):
            rest = tuple(
                kept for kept in (row[:-1] if row[-1] == k else row for row in tab) if kept
            )
            where.setdefault(tuple(map(len, rest)), {})[rest] = t
        branches = []
        for mu, index in where.items():
            idx = np.array([index[tab] for tab in standard_tableaux(mu)], dtype=np.intp)
            W = np.hstack([rep[:, idx] for rep in reps])
            W.setflags(write=False)
            idx.setflags(write=False)
            branches.append((mu, W, None if len(where) == 1 else idx))
        plan.append((lam, s, tuple(branches)))
    return tuple(plan)


def fourier_transform(f, ordering: GroupOrdering) -> np.ndarray:
    """F(lam) = sum_g f(g) D_lam(g) for every partition lam of n at once.

    ``f`` holds one value per element of ``ordering``, shape (n!,), or a batch
    of columns, shape (n!, B); real or complex.  The result has the same
    shape, and per column it holds, for lam in :func:`partitions_of` order,
    F(lam) flattened row-major in the basis of :func:`standard_tableaux`:
    the row layout of the orthogonal transform in :mod:`partdist.rates`.

    Clausen's algorithm: g = c_{j_n} h with h in S_(n-1) (see
    :attr:`GroupOrdering.coset_gather`), so F(lam) = sum_j D_lam(c_j) (+)_mu
    F_j(mu) over the branches mu of lam, with F_j the transform on S_(n-1)
    of f(c_j .).  Applied level by level from S_1 up, each level k is one
    matrix product per (lam, mu) branch with the coset and batch columns
    trailing: 2 k (n!/k!) sum_(lam, mu) s_lam s_mu^2 <= 2 k s n! flops per
    column, s the largest irrep dimension, so O(n^2 s n!) in all, and no
    level holds more than the input.  Complex input runs as interleaved
    real and imaginary columns.
    """
    values = np.asarray(f)
    N = len(ordering)
    if values.ndim not in (1, 2) or values.shape[0] != N:
        raise DomainError(f"function shape {values.shape} does not match {N} group elements")
    columns = values.reshape(N, -1)
    if np.iscomplexobj(columns):
        columns = np.ascontiguousarray(columns, dtype=complex).view(float)
    width = columns.shape[1]
    # level[mu] is (s_mu, s_mu, cosets * width): F_c(mu) over the cosets c of
    # S_(k-1), whose leading digit j_k varies slowest
    level = {(1,): np.asarray(columns, dtype=float)[ordering.coset_gather].reshape(1, 1, -1)}
    for k in range(2, ordering.n + 1):
        trailing = N // math.factorial(k) * width
        stacked = {}  # rows (j_k, a), columns (b, remaining cosets, batch)
        for mu, x in level.items():
            s = x.shape[0]
            stacked[mu] = x.reshape(s, s, k, -1).transpose(2, 0, 1, 3).reshape(k * s, -1)
        level = {}
        for lam, s, branches in _level_plan(k):
            if len(branches) == 1:
                mu, W, _ = branches[0]
                level[lam] = (W @ stacked[mu]).reshape(s, s, trailing)
                continue
            out = np.empty((s, s, trailing))
            for mu, W, idx in branches:
                out[:, idx] = (W @ stacked[mu]).reshape(s, len(idx), trailing)
            level[lam] = out
    # the last level holds the labels in partitions_of order
    out = np.concatenate([x.reshape(-1, width) for x in level.values()])
    if np.iscomplexobj(values):
        out = out.view(complex)
    return out.reshape(values.shape)
