"""Group orderings for the tests.

The package enumerates S_n in lexicographic order only.  A result that must
not depend on the order of the group is checked against a second order,
which sorts by cycle type and then by cycle notation: the order of small
worked examples, e, (12), (13), (23), (123), (132) for n = 3.
"""

import itertools
from functools import cache

from partdist.symgroup import GroupOrdering, Permutation, all_permutations


def _cycle_sort_key(p: Permutation):
    # Class order: cycle types compared as tuples; within a class, canonical
    # cycle notation compared lexicographically.
    flat = tuple(itertools.chain.from_iterable(p.cycles()))
    return (p.cycle_type(), flat)


@cache
def cycle_ordering(n: int) -> GroupOrdering:
    lex = all_permutations(n)
    order = sorted(range(len(lex)), key=lambda k: _cycle_sort_key(lex[k]))
    return GroupOrdering(n, lex.images_array[order])


def ordering_of(n: int, convention: str) -> GroupOrdering:
    """The package's order for ``"lex"``, :func:`cycle_ordering` for ``"cycle"``."""
    return {"lex": all_permutations, "cycle": cycle_ordering}[convention](n)
