"""Symmetric-group machinery: permutations, partitions, characters, irreps.

Everything downstream (rate matrices, block transforms, immanants) is built
on top of the objects in this module.  Permutations use 0-based one-line
notation internally; cycle notation in constructors and reprs is 1-based to
match the usual (12), (123) shorthand.

Irreducible representations are realised in Young's orthogonal form, so every
representation matrix is real orthogonal and traces give the characters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import DomainError, SizeLimitError

__all__ = [
    "Permutation",
    "GroupOrdering",
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


def _cycle_sort_key(p: Permutation):
    # Class order: cycle types compared as tuples; within a class, canonical
    # cycle notation compared lexicographically.  For n=3 this yields
    # e, (12), (13), (23), (123), (132).
    flat = tuple(itertools.chain.from_iterable(p.cycles()))
    return (p.cycle_type(), flat)


@dataclass(frozen=True)
class GroupOrdering:
    """An enumeration of the full symmetric group in a fixed order."""

    n: int
    convention: str
    permutations: tuple[Permutation, ...]
    _index: dict[tuple[int, ...], int] = field(repr=False, compare=False, default=None)

    def __len__(self) -> int:
        return len(self.permutations)

    def __getitem__(self, i: int) -> Permutation:
        return self.permutations[i]

    def __iter__(self):
        return iter(self.permutations)

    def index(self, p: Permutation) -> int:
        return self._index[p.images]

    @cached_property
    def images_array(self) -> np.ndarray:
        """(n!, n) int array of one-line images, row k = permutations[k]."""
        arr = np.array([p.images for p in self.permutations], dtype=np.intp)
        arr.setflags(write=False)
        return arr

    @cached_property
    def signs(self) -> np.ndarray:
        arr = np.array([p.sign for p in self.permutations], dtype=np.float64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def inverse_indices(self) -> np.ndarray:
        """inverse_indices[k] = index of permutations[k]^-1."""
        arr = np.array(
            [self.index(p.inverse()) for p in self.permutations], dtype=np.intp
        )
        arr.setflags(write=False)
        return arr


@cache
def all_permutations(n: int, convention: str = "lex") -> GroupOrdering:
    """Enumerate the symmetric group on n symbols.

    ``convention="lex"`` lists one-line images lexicographically, which puts
    the identity first.  ``convention="cycle"`` sorts by cycle type and then
    by cycle notation — the order used in small worked examples
    (e, (12), (13), (23), (123), (132) for n=3).
    """
    if not (1 <= n <= MAX_GROUP_DEGREE):
        raise SizeLimitError(f"group degree n={n} outside 1..{MAX_GROUP_DEGREE}")
    perms = [Permutation(im) for im in itertools.permutations(range(n))]
    if convention == "cycle":
        perms.sort(key=_cycle_sort_key)
    elif convention != "lex":
        raise DomainError(f"unknown ordering convention {convention!r}")
    index = {p.images: k for k, p in enumerate(perms)}
    return GroupOrdering(n, convention, tuple(perms), index)


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


@dataclass(frozen=True)
class IrrepMatrixSet:
    """Orthogonal irrep matrices for one partition over a full group ordering.

    ``matrices[k]`` represents ``ordering[k]``; ``matrix(p)`` looks up any
    permutation.  Matrices are real orthogonal and satisfy
    D(p * q) = D(p) @ D(q).
    """

    lam: tuple[int, ...]
    ordering: GroupOrdering
    matrices: tuple[np.ndarray, ...]
    _by_images: dict = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return int(self.matrices[0].shape[0])

    def matrix(self, p: Permutation) -> np.ndarray:
        return self._by_images[p.images]


def _adjacent_transposition_matrices(lam: tuple[int, ...]) -> list[np.ndarray]:
    """Young's orthogonal matrices for s_k = (k, k+1), k = 1..n-1.

    Diagonal entries are 1/d with d the axial distance from k to k+1; when
    swapping k and k+1 keeps the tableau standard the two tableaux couple
    with off-diagonal sqrt(1 - 1/d^2).
    """
    n = sum(lam)
    basis = standard_tableaux(lam)
    dim = len(basis)
    pos = []  # pos[t][v] = (row, col) of value v in tableau t
    for tab in basis:
        p = {}
        for i, row in enumerate(tab):
            for j, v in enumerate(row):
                p[v] = (i, j)
        pos.append(p)
    index = {tab: t for t, tab in enumerate(basis)}

    def swapped(tab, a, b):
        return tuple(
            tuple(b if v == a else a if v == b else v for v in row) for row in tab
        )

    mats = []
    for k in range(1, n):
        m = np.zeros((dim, dim))
        for t, tab in enumerate(basis):
            (ri, ci), (rj, cj) = pos[t][k], pos[t][k + 1]
            d = (cj - rj) - (ci - ri)  # axial distance, never 0
            m[t, t] = 1.0 / d
            other = index.get(swapped(tab, k, k + 1))
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
    matrices = tuple(by_images[p.images] for p in ordering)
    return IrrepMatrixSet(lam, ordering, matrices, by_images)
