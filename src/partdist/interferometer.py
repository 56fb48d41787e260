"""Interferometers, output strings, and scattering submatrices.

An m-channel interferometer is a unitary U; feeding one particle into each of
the first n input ports and post-selecting on a collision-free detector
pattern s picks out the n x n submatrix A(s) whose rows are the detector
ports and whose columns are the occupied input ports.

An output string is the row of its n clicked detectors, 1-based and
ascending, and many strings are one (K, n) array of rows.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SizeLimitError, _as_count
from .symgroup import GroupOrdering, monomials

__all__ = [
    "Interferometer",
    "haar_unitary",
    "submatrix",
    "output_text",
    "monomial_vector",
    "MonomialVector",
    "enumerate_outputs",
    "unitary_to_json",
    "unitary_from_json",
    "MAX_DISTRIBUTION_STRINGS",
]

UNITARITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Interferometer:
    """An m-channel unitary: every entry of U^dag U - I is within
    UNITARITY_TOL = 1e-10 in modulus, absolute (a Haar unitary drawn by QR
    has entries near 1e-15, up to m = 2048)."""

    matrix: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.matrix, dtype=complex)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise DomainError(f"interferometer matrix must be square, got {U.shape}")
        if not np.allclose(U.conj().T @ U, np.eye(U.shape[0]), rtol=0, atol=UNITARITY_TOL):
            raise DomainError("matrix is not unitary within 1e-10")
        U.setflags(write=False)
        object.__setattr__(self, "matrix", U)

    @property
    def m(self) -> int:
        return int(self.matrix.shape[0])


def haar_unitary(m: int, seed: int | None = None) -> Interferometer:
    """Haar-random unitary: QR of a complex Ginibre matrix with the phases of
    diag(R) absorbed so the distribution is exactly uniform."""
    m = _as_count(m, "channel")
    if m < 1:
        raise DomainError("need at least one channel")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return Interferometer(q * phases)


def _detector_rows(detectors, m: int) -> np.ndarray:
    """``detectors`` as one row (n,) or a stack (K, n) of 1-based detector
    positions, refusing positions that are not integers in 1..m and rows
    that repeat one."""
    try:
        rows = np.asarray(detectors)
    except ValueError as exc:  # rows of different lengths
        raise DomainError(f"detector rows differ in length: {exc}") from exc
    if rows.ndim not in (1, 2) or rows.dtype.kind not in "iu" or rows.size == 0:
        raise DomainError(f"need a row or a stack of rows of detectors, got {rows.dtype} {rows.shape}")
    if ((rows < 1) | (rows > m)).any():
        raise DomainError(f"detector positions outside 1..{m}")
    if (np.diff(np.sort(rows, axis=-1), axis=-1) == 0).any():
        raise DomainError("repeated detector position")
    return rows


def submatrix(
    interferometer: Interferometer,
    detectors,
    input_ports: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Scattering submatrix A: rows = the clicked detectors in the order
    given, columns = occupied input ports (1-based; defaults to ports 1..n).

    ``detectors`` is one row (n,) or a stack (K, n) of rows, such as
    :func:`enumerate_outputs` returns, whose submatrices come as a stack
    (K, n, n) from one gather (:func:`_detector_rows` checks them)."""
    U = interferometer.matrix
    m = interferometer.m
    rows = _detector_rows(detectors, m)
    n = rows.shape[-1]
    if input_ports is None:
        input_ports = tuple(range(1, n + 1))
    if len(input_ports) != n:
        raise DomainError(f"{n} detectors clicked but {len(input_ports)} input ports given")
    if any(not (1 <= p <= m) for p in input_ports):
        raise DomainError("input port outside 1..m")
    cols = np.array(input_ports, dtype=np.intp) - 1
    return U[(rows - 1)[..., None], cols]


def output_text(detectors, m: int):
    """0/1 text of strings over m channels, "10110" for detectors (1, 3, 4)
    at m = 5: one str for a row, a list for a stack, cut from the text of
    one (K, m) byte array; rows are checked as by :func:`submatrix`."""
    rows = _detector_rows(detectors, m)
    chars = np.full(rows.shape[:-1] + (m,), ord("0"), dtype=np.uint8)
    np.put_along_axis(chars, rows - 1, ord("1"), axis=-1)
    text = chars.tobytes().decode("ascii")
    return text if rows.ndim == 1 else [text[k : k + m] for k in range(0, len(text), m)]


@dataclass(frozen=True, eq=False)
class MonomialVector:
    """v[gamma] = A[gamma(1),1] * ... * A[gamma(n),n] over a group ordering;
    ``values`` has shape (n!,), or (K, n!) for a stack of K submatrices."""

    ordering: GroupOrdering
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def monomial_vector(A, ordering: GroupOrdering) -> MonomialVector:
    """Monomial vector of an n x n submatrix, or of every matrix of a stack
    (K, n, n) (:func:`~partdist.symgroup.monomials`)."""
    A = np.asarray(A)
    n = ordering.n
    if A.shape[-2:] != (n, n) or A.ndim not in (2, 3):
        raise DomainError(f"expected a {n}x{n} submatrix or a stack of them, got {A.shape}")
    values = monomials(A, ordering)
    values.setflags(write=False)
    return MonomialVector(ordering, values)


MAX_DISTRIBUTION_STRINGS = 100_000


def enumerate_outputs(m: int, n: int) -> np.ndarray:
    """All C(m, n) collision-free strings as a read-only (C(m, n), n) array,
    in ascending order of their 0/1 text (:func:`itertools.combinations`
    order reversed); the last array is kept, so a distribution and its
    references share it.  More than ``MAX_DISTRIBUTION_STRINGS`` strings
    raise :class:`SizeLimitError` before any is built."""
    return _enumerate_outputs(_as_count(m, "channel"), _as_count(n, "particle"))


@lru_cache(maxsize=1)  # keyed by ints, so 5.0 cannot hit the array of 5
def _enumerate_outputs(m: int, n: int) -> np.ndarray:
    if not (0 <= n <= m):
        raise DomainError(f"cannot place {n} single clicks among {m} channels")
    count = math.comb(m, n)
    if count > MAX_DISTRIBUTION_STRINGS:
        raise SizeLimitError(f"C({m},{n}) = {count} exceeds the limit {MAX_DISTRIBUTION_STRINGS}")
    combos = itertools.chain.from_iterable(itertools.combinations(range(1, m + 1), n))
    rows = np.fromiter(combos, dtype=np.intp, count=count * n).reshape(count, n)[::-1].copy()
    rows.setflags(write=False)
    return rows


def unitary_to_json(interferometer: Interferometer, path) -> None:
    """Write the unitary as a JSON array-of-arrays of [re, im] pairs."""
    U = np.ascontiguousarray(interferometer.matrix, dtype=complex)
    text = json.dumps(U.view(float).reshape(U.shape + (2,)).tolist())
    with open(path, "w") as fh:
        fh.write(text)


def unitary_from_json(path) -> Interferometer:
    """Load a unitary written by :func:`unitary_to_json`: the file is read
    as one (m, m, 2) array of real numbers, [re, im] per entry, and viewed
    as complex.  Any other shape or content (strings, nulls, integers too
    large for a float) raises :class:`DomainError`, and unitarity is
    re-validated so corrupted files are rejected."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read unitary file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise DomainError(f"unitary file {path} is not valid JSON: {exc}") from exc
    try:
        pairs = np.array(data)
    except ValueError as exc:  # rows of different lengths
        raise DomainError(f"malformed unitary file {path}: {exc}") from exc
    if pairs.dtype.kind not in "iuf" or pairs.ndim != 3 or pairs.shape[1:] != (len(pairs), 2):
        raise DomainError(f"malformed unitary file {path}: need an m x m array of [re, im] "
                          f"number pairs, got {pairs.dtype} {pairs.shape}")
    return Interferometer(np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0])
