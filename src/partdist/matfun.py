"""Permanents, determinants and immanants.

The permanent and determinant are the extreme cases of the immanant family
imm_lam(B) = sum_sigma chi_lam(sigma) * B[sigma(1),1] * ... * B[sigma(n),n],
where chi_lam is computed once per cycle class of S_n.
:func:`permanent` and :func:`determinant` take one matrix or a stack
(..., n, n) of them, so a whole batch of output strings costs one call.

Beyond scalars, each partition lam yields a matrix-valued function
D_lam(M) = sum_gamma D_lam(gamma) * M[gamma(1),1] * ... * M[gamma(n),n]
(the block of the GL irrep lam acting on the weight-(1,...,1) subspace),
whose trace is the immanant (:func:`dfunction_direct`, over an ordering).
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import DomainError, SizeLimitError
from .symgroup import (
    GroupOrdering,
    all_permutations,
    character,
    irrep_matrices,
    monomials,
    partitions_of,
)

__all__ = [
    "determinant",
    "permanent",
    "immanant",
    "dfunction_direct",
    "MAX_PERMANENT_SIZE",
]

MAX_PERMANENT_SIZE = 20
GLYNN_PRODUCTS = 2**16  # Glynn products held per step of permanent(), 1 MiB of complex


def _square(M, stack: bool = False) -> np.ndarray:
    """M as an array after checking that it is a square matrix, or with
    ``stack`` a stack (..., n, n) of them."""
    M = np.asarray(M)
    if M.ndim < 2 or (M.ndim != 2 and not stack) or M.shape[-1] != M.shape[-2]:
        raise DomainError(f"expected a square matrix, got shape {M.shape}")
    return M


def determinant(M):
    """LU-based determinant (numpy) of an n x n matrix, as a complex number,
    or of every matrix of a stack (..., n, n), as a complex array of shape
    (...).  Each matrix gets its own LAPACK factorisation, so a stacked
    value equals the value of the matrix alone."""
    M = _square(M, stack=True)
    values = np.linalg.det(M)
    return complex(values) if M.ndim == 2 else values.astype(complex)


@cache
def _sign_vectors(m: int) -> np.ndarray:
    """All 2^m vectors of +-1 as rows, the first all +1."""
    bits = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
    return (1 - 2 * bits).astype(float)


def _glynn(M: np.ndarray) -> np.ndarray:
    """Permanents of a stack (w, n, n), n >= 1, by Glynn's formula

        per M = 2^-(n-1) sum_d (prod_j d_j) prod_i sum_j d_j M[i, j],  d_0 = 1,

    the row sums met in the middle: columns 0..h-1 (d_0 = 1) give the lo
    half sums, columns h..n-1 the hi ones, and every row sum is lo + hi.
    Only element-wise operations touch a matrix, so its permanent does not
    depend on the other matrices of the stack."""
    w, n, _ = M.shape
    h = (n + 1) // 2
    lo_d, hi_d = _sign_vectors(h - 1), _sign_vectors(n - h)
    lo = np.repeat(M[:, :, :1], len(lo_d), axis=2)  # (w, n, 2^(h-1))
    for j in range(1, h):
        lo = lo + M[:, :, j, None] * lo_d[:, j - 1]
    hi = np.zeros((w, n, len(hi_d)), dtype=M.dtype)  # (w, n, 2^(n-h))
    for j in range(h, n):
        hi = hi + M[:, :, j, None] * hi_d[:, j - h]
    prod = lo[:, 0, :, None] + hi[:, 0, None, :]
    for i in range(1, n):
        prod *= lo[:, i, :, None] + hi[:, i, None, :]
    total = ((prod * np.prod(hi_d, axis=1)).sum(axis=-1) * np.prod(lo_d, axis=1)).sum(axis=-1)
    return total / 2 ** (n - 1)


def permanent(M):
    """Permanent of an n x n matrix, as a complex number, or of every matrix
    of a stack (..., n, n), as a complex array of shape (...).

    Glynn's formula (Glynn 2010, Eur. J. Combin. 31:1887) over the 2^(n-1)
    sign vectors d with d_0 = 1, O(2^(n-1) n) per matrix.  With a_i the
    1-norm of row i, the computed value is within γ_(K+5n) prod_i a_i of
    the permanent, K = 2^(n-1), γ_k = k u / (1 - k u), u = 2^-53: each row
    sum rounds by γ_n a_i, each product of n row sums by a further γ_4n,
    and the sum of K products, each at most prod_i a_i, by γ_K.  A stack is
    evaluated ``GLYNN_PRODUCTS`` / K matrices per step; only element-wise
    operations touch a matrix, so a stacked value equals the value of the
    matrix alone.  The empty matrix has permanent 1.
    """
    M = _square(M, stack=True)
    n = M.shape[-1]
    if n > MAX_PERMANENT_SIZE:
        raise SizeLimitError(f"permanent limited to n <= {MAX_PERMANENT_SIZE}, got {n}")
    stack = M.reshape((math.prod(M.shape[:-2]), n, n))
    values = np.ones(len(stack), dtype=complex)
    if n:
        width = max(1, GLYNN_PRODUCTS >> (n - 1))
        for start in range(0, len(stack), width):
            values[start : start + width] = _glynn(stack[start : start + width])
    return complex(values[0]) if M.ndim == 2 else values.reshape(M.shape[:-2])


def immanant(lam: tuple[int, ...], M) -> complex:
    """Character-weighted sum over all n! permutation monomials, the
    characters read per cycle class; n <= 10 like the group itself."""
    M = _square(M)
    n = M.shape[0]
    if sum(lam) != n:
        raise DomainError(f"partition {lam} does not match matrix size {n}")
    ordering = all_permutations(n)
    table = np.array([character(lam, rho) for rho in partitions_of(n)], dtype=np.float64)
    return complex(table[ordering.cycle_classes] @ monomials(M, ordering))


def dfunction_direct(lam: tuple[int, ...], M, ordering: GroupOrdering) -> np.ndarray:
    """D_lam(M) evaluated directly as sum_gamma D_lam(gamma) * monomial(M, gamma)
    over ``ordering``.

    Tests compare it with immanants, polynomial closed forms and the blocks
    of the rate engines.
    """
    M = _square(M)
    if M.shape[0] != ordering.n:
        raise DomainError("matrix size does not match irrep degree")
    return np.tensordot(monomials(M, ordering), irrep_matrices(lam, ordering), axes=(0, 0))
