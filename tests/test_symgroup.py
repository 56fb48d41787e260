import itertools
import math

import numpy as np
import pytest

from partdist.errors import DomainError, SizeLimitError
from partdist.symgroup import (
    all_permutations,
    character,
    conjugate,
    cycle_classes,
    distinct_block_functions,
    dominates,
    gl_dimension,
    irrep_matrices,
    monomials,
    partitions_of,
    signs,
    standard_tableau_count,
    standard_tableaux,
)

from cycles import cycle_order, cycle_type, cycles, positions


# ---------------------------------------------------------------------------
# The enumeration of S_n


def test_cycle_type_includes_fixed_points():
    # cycle classes index partitions_of(n), fixed points counted as 1-cycles
    for images, want in (((1, 2, 0, 4, 3, 5), (3, 2, 1)),   # (123)(45)
                         ((0, 1, 2, 3, 4, 5), (1,) * 6),
                         ((1, 0, 2, 3, 4, 5), (2, 1, 1, 1, 1))):
        k = all_permutations(6).tolist().index(list(images))
        assert partitions_of(6)[cycle_classes(6)[k]] == want


@pytest.mark.parametrize("n", range(1, 8))
def test_cycle_classes_match_a_cycle_walk(n):
    parts = partitions_of(n)
    classes = cycle_classes(n)
    assert classes.shape == (math.factorial(n),) and not classes.flags.writeable
    want = [cycle_type(row) for row in all_permutations(n).tolist()]
    assert [parts[c] for c in classes.tolist()] == want


def test_sign_matches_permutation_matrix_determinant():
    for n in (2, 3, 4, 5, 6):
        for row, sign in zip(all_permutations(n), signs(n)):
            assert sign == round(np.linalg.det(np.eye(n)[row]))


def test_permutation_matrix_is_row_selection():
    # left multiplication by P = eye[images] permutes rows, (P @ M)[i] =
    # M[g(i)]; the monomial vector of P is supported on g inverse alone,
    # which is what makes the transformed block of P equal D(g) transpose
    rng = np.random.default_rng(11)
    M = rng.normal(size=(4, 4))
    P = all_permutations(4)
    inverse = positions(np.argsort(P, axis=1))
    for k, row in enumerate(P):
        E = np.eye(4)[row]
        assert np.array_equal(E @ M, M[row])
        mono = monomials(E)
        assert mono[inverse[k]] == 1 and np.count_nonzero(mono) == 1


def test_lex_ordering_n3():
    assert all_permutations(3).tolist() == [
        [0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0],
    ]


def test_cycle_ordering_n3_groups_by_class():
    # the order that some tests relabel into (tests/cycles.py)
    rows = all_permutations(3)[cycle_order(3)].tolist()
    assert [cycles(row) for row in rows] == [
        (), ((1, 2),), ((1, 3),), ((2, 3),), ((1, 2, 3),), ((1, 3, 2),),
    ]


def test_ordering_index_and_arrays_agree():
    for n in range(1, 9):
        lex = all_permutations(n)
        want = np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)
        assert lex.dtype == want.dtype and np.array_equal(lex, want)
        assert all_permutations(n) is lex  # one cached array per degree
        with pytest.raises(ValueError):
            lex[0, 0] = 0
        # each permutation once: the rows' positions are 0..n!-1
        assert np.array_equal(positions(lex), np.arange(math.factorial(n)))
        assert np.array_equal(cycle_order(n)[np.argsort(cycle_order(n))],
                              np.arange(math.factorial(n)))


@pytest.mark.parametrize("n", range(1, 8))
def test_signs_and_inverse_images_from_the_image_array(n):
    # signs by inversion parity and inverse images by argsort, as the rate
    # layer takes them, against the parity of a cycle walk and the inverse
    # images written out point by point
    rows = all_permutations(n).tolist()
    want = np.array([(-1.0) ** (n - len(cycle_type(row))) for row in rows])
    assert signs(n).dtype == want.dtype and signs(n).tobytes() == want.tobytes()
    assert not signs(n).flags.writeable
    inverse = np.zeros((len(rows), n), dtype=np.intp)
    for k, row in enumerate(rows):
        for i, image in enumerate(row):
            inverse[k, image] = i
    assert np.array_equal(np.argsort(all_permutations(n), axis=1), inverse)


def test_group_degree_guard():
    with pytest.raises(SizeLimitError):
        all_permutations(11)


# ---------------------------------------------------------------------------
# Partitions


def test_partition_counts():
    expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30, 10: 42}
    for n, count in expected.items():
        assert len(partitions_of(n)) == count


def test_partitions_reverse_lex_order():
    assert partitions_of(5) == (
        (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1),
    )


def test_conjugate_pairs_and_involution():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam
            assert sum(conjugate(lam)) == n


def test_dominance_basics():
    assert dominates((4, 2), (3, 3))
    assert dominates((3, 3), (2, 2, 2))
    assert not dominates((2, 2, 2), (3, 3))
    assert dominates((3, 2, 1), (3, 2, 1))
    with pytest.raises(DomainError):
        dominates((3, 1), (2, 2, 1))


@pytest.mark.parametrize("call", [
    lambda: character((1.5, 1.5), (3,)),
    lambda: dominates((2.5, 0.5), (2, 1)),
    lambda: conjugate((2.5,)),
    lambda: standard_tableau_count((1.5, 1.5)),
    lambda: gl_dimension((2.0, 1), 3),
    lambda: standard_tableaux((2, "1")),
    lambda: conjugate(3),
], ids=["character", "dominates", "conjugate", "tableau-count", "gl-dimension",
        "tableaux", "not-a-tuple"])
def test_partition_parts_must_be_integers(call):
    # a part is read as an integer only if it is one: 1.5 + 1.5 is no
    # partition of 3, and 2.0 is not taken for 2
    with pytest.raises(DomainError, match="integers"):
        call()


def test_partition_parts_may_be_numpy_integers():
    assert conjugate((np.int64(2), np.int64(1))) == (2, 1)
    assert type(conjugate((np.int64(2),))[0]) is int
    assert character((np.int64(2), 1), (3,)) == -1


def test_dominance_incomparable_pairs_at_n6():
    # the only incomparable pairs among partitions of 6
    for a, b in [((3, 3), (4, 1, 1)), ((2, 2, 2), (3, 1, 1, 1))]:
        assert not dominates(a, b) and not dominates(b, a)


def test_dominance_conjugation_antiautomorphism():
    for n in range(2, 8):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                assert dominates(lam, mu) == dominates(conjugate(mu), conjugate(lam))


# ---------------------------------------------------------------------------
# Characters (Murnaghan-Nakayama)

CHARACTER_TABLES = {
    # cycle type -> {partition: character}
    3: {
        (1, 1, 1): {(3,): 1, (2, 1): 2, (1, 1, 1): 1},
        (2, 1): {(3,): 1, (2, 1): 0, (1, 1, 1): -1},
        (3,): {(3,): 1, (2, 1): -1, (1, 1, 1): 1},
    },
    4: {
        (1, 1, 1, 1): {(4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1},
        (2, 1, 1): {(4,): 1, (3, 1): 1, (2, 2): 0, (2, 1, 1): -1, (1, 1, 1, 1): -1},
        (2, 2): {(4,): 1, (3, 1): -1, (2, 2): 2, (2, 1, 1): -1, (1, 1, 1, 1): 1},
        (3, 1): {(4,): 1, (3, 1): 0, (2, 2): -1, (2, 1, 1): 0, (1, 1, 1, 1): 1},
        (4,): {(4,): 1, (3, 1): -1, (2, 2): 0, (2, 1, 1): 1, (1, 1, 1, 1): -1},
    },
    5: {
        (1, 1, 1, 1, 1): {(5,): 1, (4, 1): 4, (3, 2): 5, (3, 1, 1): 6,
                          (2, 2, 1): 5, (2, 1, 1, 1): 4, (1, 1, 1, 1, 1): 1},
        (2, 1, 1, 1): {(5,): 1, (4, 1): 2, (3, 2): 1, (3, 1, 1): 0,
                       (2, 2, 1): -1, (2, 1, 1, 1): -2, (1, 1, 1, 1, 1): -1},
        (2, 2, 1): {(5,): 1, (4, 1): 0, (3, 2): 1, (3, 1, 1): -2,
                    (2, 2, 1): 1, (2, 1, 1, 1): 0, (1, 1, 1, 1, 1): 1},
        (3, 1, 1): {(5,): 1, (4, 1): 1, (3, 2): -1, (3, 1, 1): 0,
                    (2, 2, 1): -1, (2, 1, 1, 1): 1, (1, 1, 1, 1, 1): 1},
        (3, 2): {(5,): 1, (4, 1): -1, (3, 2): 1, (3, 1, 1): 0,
                 (2, 2, 1): -1, (2, 1, 1, 1): 1, (1, 1, 1, 1, 1): -1},
        (4, 1): {(5,): 1, (4, 1): 0, (3, 2): -1, (3, 1, 1): 0,
                 (2, 2, 1): 1, (2, 1, 1, 1): 0, (1, 1, 1, 1, 1): -1},
        (5,): {(5,): 1, (4, 1): -1, (3, 2): 0, (3, 1, 1): 1,
               (2, 2, 1): 0, (2, 1, 1, 1): -1, (1, 1, 1, 1, 1): 1},
    },
}


def _representative(rho):
    """Images of the permutation with one cycle on each run of consecutive
    points, of the lengths in rho."""
    images, start = [], 0
    for length in rho:
        images += [start + (j + 1) % length for j in range(length)]
        start += length
    return images


@pytest.mark.parametrize("n", [3, 4, 5])
def test_character_tables(n):
    rows = all_permutations(n).tolist()
    for rho, table in CHARACTER_TABLES[n].items():
        k = rows.index(_representative(rho))
        assert partitions_of(n)[cycle_classes(n)[k]] == rho
        for lam, value in table.items():
            assert character(lam, rho) == value


def test_character_is_a_class_function():
    # h g h^-1 lies in the class of g, and the irrep traces agree on it
    P = all_permutations(4)
    for h, h_inv in zip(P, np.argsort(P, axis=1)):
        conjugates = positions(h[P[:, h_inv]])
        assert np.array_equal(cycle_classes(4)[conjugates], cycle_classes(4))
        for lam in partitions_of(4):
            traces = np.trace(irrep_matrices(lam), axis1=1, axis2=2)
            assert np.allclose(traces[conjugates], traces, atol=1e-12)


def test_character_column_orthogonality_identity_class():
    for n in range(2, 7):
        assert sum(character(lam, (1,) * n) ** 2
                   for lam in partitions_of(n)) == math.factorial(n)


# ---------------------------------------------------------------------------
# Dimensions and tableaux

TABLEAU_COUNTS = {
    (2, 1): 2, (2, 2): 2, (3, 1): 3, (3, 2): 5, (2, 2, 1): 5,
    (3, 3): 5, (2, 2, 2): 5, (4, 2): 9, (3, 2, 1): 16, (4, 4): 14,
}


def test_standard_tableau_counts():
    for lam, count in TABLEAU_COUNTS.items():
        assert standard_tableau_count(lam) == count


def test_tableau_count_equals_character_degree():
    for n in range(2, 8):
        for lam in partitions_of(n):
            assert standard_tableau_count(lam) == character(lam, (1,) * n)


def test_gl_dimensions():
    assert gl_dimension((1, 1), 2) == 1
    assert gl_dimension((2,), 2) == 3
    assert gl_dimension((2, 1), 3) == 8
    assert gl_dimension((2, 2), 4) == 20
    assert gl_dimension((2, 2, 2), 6) == 175
    assert gl_dimension((1, 1, 1), 2) == 0  # more rows than the group rank


def test_distinct_block_function_counts():
    assert distinct_block_functions(3) == 5
    assert distinct_block_functions(4) == 17


def test_standard_tableaux_explicit():
    assert standard_tableaux((2, 1)) == (((1, 2), (3,)), ((1, 3), (2,)))
    assert len(standard_tableaux((3, 2))) == 5
    for tab in standard_tableaux((3, 2)):
        flat = sorted(x for row in tab for x in row)
        assert flat == [1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# Irreducible matrices


def test_irrep_matrices_are_orthogonal():
    for lam in partitions_of(4):
        rep = irrep_matrices(lam)
        s = standard_tableau_count(lam)
        assert rep.shape == (24, s, s) and not rep.flags.writeable
        for D in rep:
            assert np.allclose(D @ D.T, np.eye(s), atol=1e-12)


def test_irrep_homomorphism_property():
    # D(p q) = D(p) D(q), with (p q)(i) = p(q(i)) on the image rows
    rng = np.random.default_rng(3)
    P = all_permutations(5)
    for lam in [(3, 2), (2, 2, 1), (4, 1)]:
        rep = irrep_matrices(lam)
        for _ in range(40):
            a, b = rng.integers(len(P), size=2)
            ab = positions(P[a][P[b]])
            assert np.allclose(rep[ab], rep[a] @ rep[b], atol=1e-12)


def test_irrep_traces_are_characters():
    for n in range(1, 7):
        types = [cycle_type(row) for row in all_permutations(n).tolist()]
        for lam in partitions_of(n):
            traces = np.trace(irrep_matrices(lam), axis1=1, axis2=2)
            want = np.array([character(lam, rho) for rho in types], dtype=float)
            assert np.abs(traces - want).max() < 1e-12


def test_irrep_adjacent_transposition_n3():
    # the two-dimensional standard module in the orthogonal (Young) basis
    rep = irrep_matrices((2, 1))
    s12, s23 = rep[positions([[1, 0, 2], [0, 2, 1]])]
    assert np.allclose(s12, np.diag([1.0, -1.0]), atol=1e-15)
    half = np.array([[-0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, 0.5]])
    assert np.allclose(s23, half, atol=1e-15)


def test_sum_of_squared_dimensions_is_group_order():
    for n in range(2, 9):
        assert sum(standard_tableau_count(lam) ** 2 for lam in partitions_of(n)) \
            == math.factorial(n)


def test_sign_representation_matches_sign():
    rep = irrep_matrices((1, 1, 1, 1))
    assert rep.shape == (24, 1, 1) and np.abs(rep[:, 0, 0] - signs(4)).max() < 1e-15
