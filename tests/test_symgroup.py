import itertools
import math

import numpy as np
import pytest

from partdist.errors import DomainError, SizeLimitError
from partdist.symgroup import (
    GroupOrdering,
    all_permutations,
    character,
    conjugate,
    distinct_block_functions,
    dominates,
    gl_dimension,
    irrep_matrices,
    monomials,
    partitions_of,
    standard_tableau_count,
    standard_tableaux,
)

from orderings import cycle_ordering, cycle_type, cycles, positions


# ---------------------------------------------------------------------------
# Group orderings


def test_permutation_rejects_non_bijections():
    # a row of an ordering is a permutation only when it hits every point
    for row in ((0, 0, 1), (0, 3, 1)):
        images = np.array(list(itertools.permutations(range(3))))
        images[3] = row
        with pytest.raises(DomainError):
            GroupOrdering(3, images)


def test_cycle_type_includes_fixed_points():
    # cycle classes index partitions_of(n), fixed points counted as 1-cycles
    ordering = all_permutations(6)
    for images, want in (((1, 2, 0, 4, 3, 5), (3, 2, 1)),   # (123)(45)
                         ((0, 1, 2, 3, 4, 5), (1,) * 6),
                         ((1, 0, 2, 3, 4, 5), (2, 1, 1, 1, 1))):
        k = ordering.images_array.tolist().index(list(images))
        assert partitions_of(6)[ordering.cycle_classes[k]] == want


@pytest.mark.parametrize("n", range(1, 8))
def test_cycle_classes_match_a_cycle_walk(n):
    parts = partitions_of(n)
    for ordering in (all_permutations(n), cycle_ordering(n)):
        classes = ordering.cycle_classes
        assert classes.shape == (len(ordering),) and not classes.flags.writeable
        want = [cycle_type(row) for row in ordering.images_array.tolist()]
        assert [parts[c] for c in classes.tolist()] == want


def test_sign_matches_permutation_matrix_determinant():
    for n in (2, 3, 4, 5, 6):
        for ordering in (all_permutations(n), cycle_ordering(n)):
            for row, sign in zip(ordering.images_array, ordering.signs):
                assert sign == round(np.linalg.det(np.eye(n)[row]))


def test_permutation_matrix_is_row_selection():
    # left multiplication by P = eye[images] permutes rows, (P @ M)[i] =
    # M[g(i)]; the monomial vector of P is supported on g inverse alone,
    # which is what makes the transformed block of P equal D(g) transpose
    ordering = all_permutations(4)
    rng = np.random.default_rng(11)
    M = rng.normal(size=(4, 4))
    inverse = positions(ordering, np.argsort(ordering.images_array, axis=1))
    for k, row in enumerate(ordering.images_array):
        P = np.eye(4)[row]
        assert np.array_equal(P @ M, M[row])
        mono = monomials(P, ordering)
        assert mono[inverse[k]] == 1 and np.count_nonzero(mono) == 1


def test_lex_ordering_n3():
    ordering = all_permutations(3)
    assert ordering.images_array.tolist() == [
        [0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0],
    ]


def test_cycle_ordering_n3_groups_by_class():
    ordering = cycle_ordering(3)
    assert [cycles(row) for row in ordering.images_array.tolist()] == [
        (), ((1, 2),), ((1, 3),), ((2, 3),), ((1, 2, 3),), ((1, 3, 2),),
    ]


def test_ordering_index_and_arrays_agree():
    for n in range(1, 9):
        lex = all_permutations(n)
        want = np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)
        assert lex.images_array.dtype == want.dtype and np.array_equal(lex.images_array, want)
        with pytest.raises(ValueError):
            lex.images_array[0, 0] = 0
        broken = want.copy()
        broken[-1, 0] = broken[-1, -1] if n > 1 else 1
        for images in (broken, want[1:]):
            with pytest.raises(DomainError):
                GroupOrdering(n, images)
        # every ordering holds each permutation once: the rows' positions
        # in it are 0..n!-1
        for ordering in (lex, cycle_ordering(n)):
            assert len(ordering) == math.factorial(n)
            assert np.array_equal(positions(ordering, ordering.images_array),
                                  np.arange(len(ordering)))


@pytest.mark.parametrize("n", range(1, 8))
def test_signs_and_inverse_images_from_the_image_array(n):
    # signs by inversion parity and inverse images by argsort, as the rate
    # layer takes them, against the parity of a cycle walk and the inverse
    # images written out point by point
    for ordering in (all_permutations(n), cycle_ordering(n)):
        rows = ordering.images_array.tolist()
        want = np.array([(-1.0) ** (n - len(cycle_type(row))) for row in rows])
        assert ordering.signs.dtype == want.dtype and ordering.signs.tobytes() == want.tobytes()
        inverse = np.zeros((len(rows), n), dtype=np.intp)
        for k, row in enumerate(rows):
            for i, image in enumerate(row):
                inverse[k, image] = i
        assert np.array_equal(np.argsort(ordering.images_array, axis=1), inverse)


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
    ordering = all_permutations(n)
    rows = ordering.images_array.tolist()
    for rho, table in CHARACTER_TABLES[n].items():
        k = rows.index(_representative(rho))
        assert partitions_of(n)[ordering.cycle_classes[k]] == rho
        for lam, value in table.items():
            assert character(lam, rho) == value


def test_character_is_a_class_function():
    # h g h^-1 lies in the class of g, and the irrep traces agree on it
    ordering = all_permutations(4)
    P = ordering.images_array
    for h, h_inv in zip(P, np.argsort(P, axis=1)):
        conjugates = positions(ordering, h[P[:, h_inv]])
        assert np.array_equal(ordering.cycle_classes[conjugates], ordering.cycle_classes)
        for lam in partitions_of(4):
            traces = np.trace(irrep_matrices(lam, ordering), axis1=1, axis2=2)
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
    ordering = all_permutations(4)
    for lam in partitions_of(4):
        rep = irrep_matrices(lam, ordering)
        s = standard_tableau_count(lam)
        assert rep.shape == (24, s, s) and not rep.flags.writeable
        for D in rep:
            assert np.allclose(D @ D.T, np.eye(s), atol=1e-12)


def test_irrep_homomorphism_property():
    # D(p q) = D(p) D(q), with (p q)(i) = p(q(i)) on the image rows
    rng = np.random.default_rng(3)
    for ordering in (all_permutations(5), cycle_ordering(5)):
        P = ordering.images_array
        for lam in [(3, 2), (2, 2, 1), (4, 1)]:
            rep = irrep_matrices(lam, ordering)
            for _ in range(20):
                a, b = rng.integers(len(ordering), size=2)
                ab = positions(ordering, P[a][P[b]])
                assert np.allclose(rep[ab], rep[a] @ rep[b], atol=1e-12)


def test_irrep_traces_are_characters():
    for n in range(1, 7):
        for ordering in (all_permutations(n), cycle_ordering(n)):
            types = [cycle_type(row) for row in ordering.images_array.tolist()]
            for lam in partitions_of(n):
                traces = np.trace(irrep_matrices(lam, ordering), axis1=1, axis2=2)
                want = np.array([character(lam, rho) for rho in types], dtype=float)
                assert np.abs(traces - want).max() < 1e-12


def test_irrep_adjacent_transposition_n3():
    # the two-dimensional standard module in the orthogonal (Young) basis
    ordering = all_permutations(3)
    rep = irrep_matrices((2, 1), ordering)
    s12, s23 = rep[positions(ordering, [[1, 0, 2], [0, 2, 1]])]
    assert np.allclose(s12, np.diag([1.0, -1.0]), atol=1e-15)
    half = np.array([[-0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, 0.5]])
    assert np.allclose(s23, half, atol=1e-15)


def test_sum_of_squared_dimensions_is_group_order():
    for n in range(2, 9):
        assert sum(standard_tableau_count(lam) ** 2 for lam in partitions_of(n)) \
            == math.factorial(n)


def test_sign_representation_matches_sign():
    ordering = all_permutations(4)
    rep = irrep_matrices((1, 1, 1, 1), ordering)
    assert rep.shape == (24, 1, 1) and np.abs(rep[:, 0, 0] - ordering.signs).max() < 1e-15
