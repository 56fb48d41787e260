"""Reference numerics for the partdist benchmark, written apart from the
package: nothing here imports ``partdist``.

The coincidence rate of n particles with scattering submatrix A (rows =
detectors, columns = particles) and overlap matrix r is computed from the
permanent-sum identity (Tichy 2015, PRA 91 022316; Shchesnovich 2015,
PRA 91 013844)

    rate = sum_tau w(tau) * prod_k r[tau(k), k] * per(A o conj(A[:, tau^-1]))

with w = 1 for bosons and w = sgn(tau) for fermions, the permanents taken by
Glynn's formula over all 2^(n-1) sign vectors at once.  Every value comes
with an a-priori rounding bound, built from gamma(k) = k u / (1 - k u) with
u the unit roundoff; a factor 4 covers complex arithmetic.  The checks
compare the program against these values within the sum of both bounds.
"""

from __future__ import annotations

import itertools
import math
from functools import cache

import numpy as np

UNIT_ROUNDOFF = 2.0**-53
COMPLEX = 4.0  # headroom for complex products and sums over real gamma(k)


def gamma(k: float) -> float:
    """Higham's gamma_k: relative error of k chained roundings."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random m x m unitary: QR of a complex Ginibre matrix with the
    phases of diag(R) moved into Q."""
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def delay_matrix(taus, delta_omega: float) -> np.ndarray:
    """Gaussian wavepacket overlaps r_ij = exp(-dw^2 (t_i - t_j)^2 / 2)."""
    t = np.asarray(taus, dtype=float)
    diff = t[:, None] - t[None, :]
    return np.exp(-(delta_omega**2) * diff**2 / 2.0)


class Group:
    """All n! permutations of 0..n-1 in one-line notation, with inverses and
    signs."""

    def __init__(self, n: int):
        self.n = n
        self.images = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        self.inverse = np.argsort(self.images, axis=1)
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        inversions = ((self.images[:, :, None] > self.images[:, None, :]) & upper).sum(axis=(1, 2))
        self.signs = np.where(inversions % 2, -1.0, 1.0)

    def __len__(self) -> int:
        return len(self.images)

    def monomials(self, M: np.ndarray) -> np.ndarray:
        """prod_k M[g(k), k] for every g, over any leading batch axes."""
        return np.prod(M[..., self.images, np.arange(self.n)], axis=-1)


@cache
def group(n: int) -> Group:
    return Group(n)


def leibniz(M: np.ndarray, signed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Determinant (signed) or permanent of a stack (..., n, n) as the plain
    sum over n! monomials, with its rounding bound."""
    G = group(M.shape[-1])
    terms = G.monomials(M)
    value = terms @ G.signs if signed else terms.sum(axis=-1)
    bound = COMPLEX * gamma(len(G) + M.shape[-1]) * np.abs(terms).sum(axis=-1)
    return value, bound


@cache
def _glynn_signs(n: int) -> np.ndarray:
    rest = np.array(list(itertools.product((1.0, -1.0), repeat=n - 1))).reshape(2 ** (n - 1), n - 1)
    return np.hstack([np.ones((len(rest), 1)), rest])


def glynn(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Permanents of a stack (..., n, n) by Glynn's formula,

        per B = 2^-(n-1) sum_d (prod_k d_k) prod_i sum_j d_j B_ij,  d_1 = 1,

    with every sign vector d at once, plus the rounding bound
    gamma(2n + 2^(n-1)) * prod_i sum_j |B_ij|."""
    n = B.shape[-1]
    deltas = _glynn_signs(n)
    sums = B @ deltas.T  # (..., n, K)
    value = np.prod(sums, axis=-2) @ np.prod(deltas, axis=1) / len(deltas)
    bound = COMPLEX * gamma(2 * n + len(deltas)) * np.prod(np.abs(B).sum(axis=-1), axis=-1)
    return value, bound


def rate(A: np.ndarray, r: np.ndarray, species: str) -> tuple[float, float]:
    """Coincidence rate from the permanent-sum identity, and its bound."""
    A = np.asarray(A, dtype=complex)
    G = group(A.shape[0])
    w = G.monomials(np.asarray(r, dtype=float))
    if species == "fermion":
        w = w * G.signs
    B = A[None, :, :] * A.conj()[:, G.inverse].transpose(1, 0, 2)
    pers, bounds = glynn(B)
    value = complex(w @ pers)
    bound = float(np.abs(w) @ bounds + COMPLEX * gamma(len(G)) * (np.abs(w) @ np.abs(pers)))
    return value.real, bound


def closed_form(A: np.ndarray, species: str) -> tuple[np.ndarray, np.ndarray]:
    """|per A|^2 (bosons) or |det A|^2 (fermions), the equal-time rate, over
    any leading batch axes, with its bound."""
    x, e = leibniz(np.asarray(A, dtype=complex), species == "fermion")
    return np.abs(x) ** 2, (2.0 * np.abs(x) + e) * e


def distinguishable(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """per(|A|^2), the rate of fully distinguishable particles, and its
    bound; equal to ||v||^2 for the monomial vector v of A."""
    return leibniz(np.abs(A) ** 2, False)


def cluster_rate(A: np.ndarray, clusters, species: str) -> tuple[float, float]:
    """Rate when the particles (columns) form clusters that arrive together
    inside a cluster and with zero overlap between clusters: each cluster
    takes its own rows and interferes as in :func:`closed_form`, the clusters
    add classically,

        rate = sum over row splits S_1..S_p of prod_c |imm A[S_c, C_c]|^2.

    One cluster gives |per A|^2 or |det A|^2; singletons give per(|A|^2).
    """
    A = np.asarray(A, dtype=complex)

    def expand(rows, rest):
        if not rest:
            return 1.0, 0.0
        cols, total, err = list(rest[0]), 0.0, 0.0
        for S in itertools.combinations(rows, len(cols)):
            x, e = closed_form(A[np.ix_(S, cols)], species)
            y, f = expand(tuple(i for i in rows if i not in S), rest[1:])
            total += float(x) * y
            err += float(e) * y + float(x) * f + float(e) * f
        return total, err + gamma(2 * len(rest)) * total

    return expand(tuple(range(A.shape[0])), [tuple(c) for c in clusters])


def clusters_of(taus) -> list[tuple[int, ...]]:
    """Particles grouped by equal arrival time, in order of first index."""
    groups: dict[float, list[int]] = {}
    for k, t in enumerate(taus):
        groups.setdefault(float(t), []).append(k)
    return [tuple(g) for g in groups.values()]


def rate_matrix_norm(r: np.ndarray, species: str) -> float:
    """Frobenius norm of the n! x n! rate matrix, sqrt(n! * sum_tau
    mono_r(tau)^2): each tau fills n! entries and signs do not matter."""
    G = group(r.shape[0])
    return math.sqrt(len(G) * float(np.sum(G.monomials(np.asarray(r, dtype=float)) ** 2)))


def engine_bound(engine: str, n: int, v_norm2: float, r_norm: float) -> float:
    """Rounding bound on a rate the program computes as v^dag R v over the
    n! monomials, given ||v||^2 and ||R||_F.

    direct, streaming: |fl(v^dag R v) - v^dag R v| <= gamma(N + 2n) |v|^T |R| |v|
        <= gamma(N + 2n) ||v||^2 ||R||_F, with N = n! (monomials of n
        factors, sums of N terms).
    blocked, truncated: the rate goes through M = T R T^t and w = T v with an
        orthogonal T, ||T||_F = sqrt(N).  Each product adds at most
        gamma(N) ||T||_F ||R||_F = gamma(N) sqrt(N) ||R||_F to ||M||_F, and
        w is off by gamma(N) sqrt(N) ||v||, which costs 2 ||R||_2 ||v|| of it;
        with the block sums that is at most 5 gamma(N + 2n) sqrt(N) ||R||_F
        ||v||^2.  Dropping blocks that vanish in exact arithmetic adds only
        their rounding, which the same bound covers.
    """
    N = math.factorial(n)
    base = COMPLEX * gamma(N + 2 * n) * r_norm * v_norm2
    return base if engine in ("direct", "streaming") else 5.0 * math.sqrt(N) * base


def ryser_bound(A: np.ndarray) -> np.ndarray:
    """Bound on a permanent summed over the 2^n column subsets with row sums
    updated along a Gray code (Ryser): each of 2^n terms is at most
    prod_i sum_j |A_ij| and carries gamma(2^(n+1) + 2n)."""
    n = A.shape[-1]
    return (COMPLEX * gamma(2 ** (n + 1) + 2 * n) * 2**n
            * np.prod(np.abs(A).sum(axis=-1), axis=-1))


def lu_det_bound(A: np.ndarray) -> np.ndarray:
    """Bound on |det A| taken from an LU factorisation with partial pivoting.

    The computed value is det(A + E) times a product rounding gamma(n), with
    ||E||_2 <= gamma(3n) n^2 2^(n-1) max|A| (Higham, Thm 9.3 with growth
    factor 2^(n-1)), and |det(A + E) / det A - 1| <= (1 + ||A^-1||_2 ||E||_2)^n - 1.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[-1]
    smin = np.linalg.svd(A, compute_uv=False)[..., -1]
    e = gamma(3 * n) * n * n * 2 ** (n - 1) * np.abs(A).max(axis=(-2, -1))
    rel = (1.0 + e / smin) ** n - 1.0 + gamma(n)
    return COMPLEX * rel * np.abs(np.linalg.det(A))


def normalized(x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x / sum(x) for non-negative x with absolute errors e, and the bound on
    each quotient: (e_i + q_i sum e) / sum x plus the division and sum."""
    total = float(x.sum())
    q = x / total
    return q, (e + q * float(e.sum())) / total + gamma(len(x) + 1) * q


def brute_force_rate(A: np.ndarray, r: np.ndarray, species: str) -> complex:
    """v^dag R v summed term by term from the definition, O(n!^2):
    v_g = prod_k A[g(k), k] and R_gh = prod_k r[(h^-1 g)(k), k], times
    sgn(g) sgn(h) for fermions."""
    n = A.shape[0]
    perms = list(itertools.permutations(range(n)))
    G = group(n)
    total = 0j
    for i, g in enumerate(perms):
        vg = math.prod(A[g[k], k] for k in range(n))
        for j, h in enumerate(perms):
            tau = [h.index(g[k]) for k in range(n)]
            sign = G.signs[i] * G.signs[j] if species == "fermion" else 1.0
            vh = math.prod(A[h[k], k] for k in range(n))
            total += np.conj(vg) * sign * math.prod(r[tau[k], k] for k in range(n)) * vh
    return total


def selftest(max_n: int = 4) -> bool:
    """The identity against :func:`brute_force_rate`, and Glynn against
    Leibniz, on random complex matrices up to ``max_n``."""
    rng = np.random.default_rng(0)
    for n in range(1, max_n + 1):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        r = delay_matrix(rng.uniform(0.0, 2.0, n), 1.0)
        per, e1 = glynn(A)
        ref, e2 = leibniz(A, False)
        if not abs(per - ref) <= e1 + e2:
            return False
        for species in ("boson", "fermion"):
            value, bound = rate(A, r, species)
            exact = brute_force_rate(A, r, species)
            if not abs(value - exact.real) <= 2 * bound:
                return False
    return True
