"""Interferometers, output strings, and scattering submatrices.

An m-channel interferometer is a unitary U; feeding one particle into each of
the first n input ports and post-selecting on a collision-free detector
pattern s picks out the n x n submatrix A(s) whose rows are the detector
ports and whose columns are the occupied input ports.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SizeLimitError
from .symgroup import GroupOrdering, monomials

__all__ = [
    "Interferometer",
    "OutputString",
    "haar_unitary",
    "submatrix",
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
    if m < 1:
        raise DomainError("need at least one channel")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return Interferometer(q * phases)


@dataclass(frozen=True)
class OutputString:
    """Collision-free detection pattern: s[k] in {0, 1} for each channel."""

    s: tuple[int, ...]

    def __post_init__(self):
        if any(x not in (0, 1) for x in self.s):
            raise DomainError(f"output string must be 0/1 valued, got {self.s}")

    @staticmethod
    def from_detectors(m: int, detectors: tuple[int, ...]) -> "OutputString":
        """Build from 1-based detector positions."""
        if any(not (1 <= d <= m) for d in detectors):
            raise DomainError(f"detector positions {detectors} outside 1..{m}")
        if len(set(detectors)) != len(detectors):
            raise DomainError("repeated detector position")
        s = [0] * m
        for d in detectors:
            s[d - 1] = 1
        return OutputString(tuple(s))

    @property
    def m(self) -> int:
        return len(self.s)

    @property
    def n(self) -> int:
        return sum(self.s)

    @property
    def detectors(self) -> tuple[int, ...]:
        """1-based positions of the clicked detectors, ascending."""
        return tuple(k + 1 for k, x in enumerate(self.s) if x)

    def __str__(self) -> str:
        return "".join(map(str, self.s))


def submatrix(
    interferometer: Interferometer,
    s,
    input_ports: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Scattering submatrix A(s): rows = clicked detectors, columns = occupied
    input ports (1-based; defaults to ports 1..n).

    ``s`` is one :class:`OutputString`, or a sequence of K strings with the
    same number of clicks, whose submatrices come as a stack (K, n, n) from
    one gather."""
    U = interferometer.matrix
    single = isinstance(s, OutputString)
    strings = (s,) if single else tuple(s)
    if not strings:
        raise DomainError("need at least one output string")
    for x in strings:
        if x.m != interferometer.m:
            raise DomainError(f"output string length {x.m} != channel count {interferometer.m}")
    clicks = np.array([x.s for x in strings], dtype=bool)  # (K, m)
    counts = clicks.sum(axis=1)
    n = int(counts[0])
    if (counts != n).any():
        raise DomainError("output strings click different numbers of detectors")
    if input_ports is None:
        input_ports = tuple(range(1, n + 1))
    if len(input_ports) != n:
        raise DomainError(f"{n} detectors clicked but {len(input_ports)} input ports given")
    if any(not (1 <= p <= interferometer.m) for p in input_ports):
        raise DomainError("input port outside 1..m")
    rows = np.nonzero(clicks)[1].reshape(len(strings), n)  # ascending per string
    cols = np.array(input_ports, dtype=np.intp) - 1
    A = U[rows[:, :, None], cols]
    return A[0] if single else A


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


@lru_cache(maxsize=1)
def enumerate_outputs(m: int, n: int) -> tuple[OutputString, ...]:
    """All C(m, n) collision-free strings, lexicographic in the 0/1 tuples;
    the last tuple is kept, so a distribution and its references share it.
    More than ``MAX_DISTRIBUTION_STRINGS`` strings raise
    :class:`SizeLimitError` before any is built."""
    if not (0 <= n <= m):
        raise DomainError(f"cannot place {n} single clicks among {m} channels")
    count = math.comb(m, n)
    if count > MAX_DISTRIBUTION_STRINGS:
        raise SizeLimitError(f"C({m},{n}) = {count} exceeds the limit {MAX_DISTRIBUTION_STRINGS}")
    strings = [
        OutputString.from_detectors(m, tuple(d + 1 for d in combo))
        for combo in itertools.combinations(range(m), n)
    ]
    strings.sort(key=lambda x: x.s)
    return tuple(strings)


def unitary_to_json(interferometer: Interferometer, path) -> None:
    """Write the unitary as a JSON array-of-arrays of [re, im] pairs."""
    U = np.ascontiguousarray(interferometer.matrix, dtype=complex)
    text = json.dumps(U.view(float).reshape(U.shape + (2,)).tolist())
    with open(path, "w") as fh:
        fh.write(text)


def unitary_from_json(path) -> Interferometer:
    """Load a unitary written by :func:`unitary_to_json`; unitarity is
    re-validated so corrupted files are rejected."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read unitary file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise DomainError(f"unitary file {path} is not valid JSON: {exc}") from exc
    try:
        U = np.array([[complex(re, im) for re, im in row] for row in data])
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed unitary file {path}: {exc}") from exc
    return Interferometer(U)
