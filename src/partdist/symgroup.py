"""Symmetric-group machinery: permutations, partitions, characters, irreps.

Everything downstream (rate matrices, block transforms, immanants) is built
on top of the objects in this module.  Permutations use 0-based one-line
notation internally; cycle notation in constructors and reprs is 1-based to
match the usual (12), (123) shorthand.

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
    "Permutation",
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
    "IrrepMatrixSet",
    "fourier_transform",
    "distinct_block_functions",
]

MAX_GROUP_DEGREE = 10  # 10! = 3.6M elements is the largest group we enumerate


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} stored as 0-based one-line images.

    ``images[i]`` is the (0-based) image of position ``i``.  Composition
    follows the function convention ``(p * q)(i) = p(q(i))``.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise DomainError(f"not a bijection on 0..{n - 1}: {self.images}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @staticmethod
    def from_cycles(n: int, *cycles: tuple[int, ...]) -> "Permutation":
        """Build from 1-based cycles, e.g. ``from_cycles(3, (1, 2))``."""
        images = list(range(n))
        for cyc in cycles:
            if len(set(cyc)) != len(cyc):
                raise DomainError(f"repeated element in cycle {cyc}")
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if not (1 <= a <= n):
                    raise DomainError(f"cycle entry {a} outside 1..{n}")
                images[a - 1] = b - 1
        return Permutation(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if other.n != self.n:
            raise DomainError("cannot compose permutations of different degree")
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Non-trivial cycles, 1-based, smallest element first."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = []
            i = start
            while not seen[i]:
                seen[i] = True
                cyc.append(i + 1)
                i = self.images[i]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed points, sorted descending."""
        lengths = [len(c) for c in self.cycles()]
        lengths += [1] * (self.n - sum(lengths))
        return tuple(sorted(lengths, reverse=True))

    @cached_property
    def sign(self) -> int:
        return -1 if (self.n - len(self.cycle_type())) % 2 else 1

    def matrix(self) -> np.ndarray:
        """Row-selection matrix P with (P @ M)[i] = M[images[i]]."""
        return np.eye(self.n)[list(self.images)]

    def __repr__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return f"e{self.n}"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


@dataclass(frozen=True, eq=False)
class GroupOrdering:
    """An enumeration of the full symmetric group in a fixed order: row k of
    the read-only (n!, n) ``images_array`` holds the one-line images of the
    k-th permutation, and each row must be a bijection on 0..n-1.

    ``ordering[k]`` and iteration make :class:`Permutation` objects on
    demand; :meth:`index` is a permutation's position.  Orderings compare
    and hash by identity, and :func:`all_permutations` keeps one per degree.
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

    def __getitem__(self, i: int) -> Permutation:
        return Permutation(tuple(self.images_array[i].tolist()))

    def __iter__(self):
        return map(Permutation, map(tuple, self.images_array.tolist()))

    def index(self, p: Permutation) -> int:
        return self._index[p.images]

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {images: k for k, images in enumerate(map(tuple, self.images_array.tolist()))}

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


def character(lam: tuple[int, ...], sigma) -> int:
    """Irreducible character chi_lam evaluated on a permutation or on a cycle
    type given as a partition tuple."""
    rho = sigma.cycle_type() if isinstance(sigma, Permutation) else tuple(sigma)
    _check_partition(lam)
    _check_partition(rho)
    if sum(lam) != sum(rho):
        raise DomainError(f"character: |{lam}| != |{rho}|")
    return _mn(tuple(lam), tuple(sorted(rho, reverse=True)))


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


@dataclass(frozen=True, eq=False)
class IrrepMatrixSet:
    """Orthogonal irrep matrices for one partition over a full group ordering.

    ``matrices[k]`` represents ``ordering[k]``; ``matrix(p)`` is the matrix
    at ``ordering.index(p)``.  Matrices are real orthogonal and satisfy
    D(p * q) = D(p) @ D(q).
    """

    lam: tuple[int, ...]
    ordering: GroupOrdering
    matrices: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return int(self.matrices[0].shape[0])

    def matrix(self, p: Permutation) -> np.ndarray:
        return self.matrices[self.ordering.index(p)]


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


@cache
def irrep_matrices(lam: tuple[int, ...], ordering: GroupOrdering) -> IrrepMatrixSet:
    """Young's orthogonal representation of the whole group.

    Built by breadth-first search along right-multiplication by adjacent
    transpositions, so only n-1 generator matrices are ever constructed
    explicitly.
    """
    n = ordering.n
    if sum(lam) != n:
        raise DomainError(f"partition {lam} does not match group degree {n}")
    gens = _adjacent_transposition_matrices(lam)
    dim = len(standard_tableaux(lam))
    identity = tuple(range(n))
    by_images: dict[tuple[int, ...], np.ndarray] = {identity: np.eye(dim)}
    frontier = [identity]
    while frontier:
        nxt = []
        for images in frontier:
            mat = by_images[images]
            for k in range(n - 1):
                # images of sigma * s_k: swap positions k, k+1
                child = list(images)
                child[k], child[k + 1] = child[k + 1], child[k]
                child = tuple(child)
                if child not in by_images:
                    by_images[child] = mat @ gens[k]
                    nxt.append(child)
        frontier = nxt
    for m in by_images.values():
        m.setflags(write=False)
    matrices = tuple(by_images[images] for images in map(tuple, ordering.images_array.tolist()))
    return IrrepMatrixSet(lam, ordering, matrices)


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
