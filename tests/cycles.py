"""Cycle notation for the tests, by a plain Python walk along each row of
images, independently of the package's array-level cycle classes.

The package enumerates S_n in lexicographic order only
(:func:`partdist.symgroup.all_permutations`).  Some tests also compute
their reference in a second enumeration, which sorts by cycle type and then
by cycle notation: the order of small worked examples, e, (12), (13), (23),
(123), (132) for n = 3.  They bring the package's arrays into that order
by the gather :func:`relabelling` returns, so the reference shares neither
the order nor the summation order of the package.
"""

import math
from functools import cache

import numpy as np

from partdist.symgroup import all_permutations


def cycles(images) -> tuple[tuple[int, ...], ...]:
    """The cycles of length above 1 of one row of 0-based images, 1-based,
    each from its smallest element, in order of that element."""
    seen, out = set(), []
    for start in range(len(images)):
        cycle, i = [], start
        while i not in seen:
            seen.add(i)
            cycle.append(i + 1)
            i = images[i]
        if len(cycle) > 1:
            out.append(tuple(cycle))
    return tuple(out)


def cycle_type(images) -> tuple[int, ...]:
    """Cycle lengths of one row of images, fixed points included, descending."""
    lengths = [len(c) for c in cycles(images)]
    return tuple(sorted(lengths + [1] * (len(images) - sum(lengths)), reverse=True))


@cache
def cycle_order(n: int) -> np.ndarray:
    """The rows of :func:`all_permutations` (n) listed in cycle order: cycle
    types compared as tuples, then canonical cycle notation compared
    lexicographically within a class."""
    rows = all_permutations(n).tolist()
    order = np.array(sorted(range(len(rows)),
                            key=lambda k: (cycle_type(rows[k]), sum(cycles(rows[k]), ()))))
    order.setflags(write=False)
    return order


def relabelling(n: int, convention: str) -> np.ndarray:
    """Rows of :func:`all_permutations` (n) in the order of ``convention``:
    all of them in place for ``"lex"``, :func:`cycle_order` for ``"cycle"``.
    ``x[p]`` puts an n!-vector of the package into that order."""
    return cycle_order(n) if convention == "cycle" else np.arange(math.factorial(n))


def positions(images) -> np.ndarray:
    """The rows of :func:`all_permutations` that hold the rows of ``images``
    (..., n), looked up in a dict of its rows."""
    images = np.asarray(images)
    n = images.shape[-1]
    where = {row: k for k, row in enumerate(map(tuple, all_permutations(n).tolist()))}
    found = [where[tuple(row)] for row in images.reshape(-1, n).tolist()]
    return np.array(found, dtype=np.intp).reshape(images.shape[:-1])
