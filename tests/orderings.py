"""Group orderings for the tests.

The package enumerates S_n in lexicographic order only.  A result that must
not depend on the order of the group is checked against a second order,
which sorts by cycle type and then by cycle notation: the order of small
worked examples, e, (12), (13), (23), (123), (132) for n = 3.

The cycles here are found by a plain Python walk along each row of images,
independently of the package's array-level cycle classes.
"""

from functools import cache

import numpy as np

from partdist.symgroup import GroupOrdering, all_permutations


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
def cycle_ordering(n: int) -> GroupOrdering:
    # Class order: cycle types compared as tuples; within a class, canonical
    # cycle notation compared lexicographically.
    lex = all_permutations(n)
    rows = lex.images_array.tolist()
    order = sorted(range(len(rows)),
                   key=lambda k: (cycle_type(rows[k]), sum(cycles(rows[k]), ())))
    return GroupOrdering(n, lex.images_array[order])


def ordering_of(n: int, convention: str) -> GroupOrdering:
    """The package's order for ``"lex"``, :func:`cycle_ordering` for ``"cycle"``."""
    return {"lex": all_permutations, "cycle": cycle_ordering}[convention](n)


def positions(ordering: GroupOrdering, images) -> np.ndarray:
    """The positions in ``ordering`` of the rows of ``images`` (..., n),
    looked up in a dict of the ordering's rows."""
    where = {row: k for k, row in enumerate(map(tuple, ordering.images_array.tolist()))}
    images = np.asarray(images)
    found = [where[tuple(row)] for row in images.reshape(-1, ordering.n).tolist()]
    return np.array(found, dtype=np.intp).reshape(images.shape[:-1])
