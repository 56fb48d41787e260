import itertools
import math

import numpy as np
import pytest

from partdist.errors import DomainError, SizeLimitError
from partdist.symgroup import (
    GroupOrdering,
    Permutation,
    all_permutations,
    character,
    conjugate,
    distinct_block_functions,
    dominates,
    gl_dimension,
    irrep_matrices,
    partitions_of,
    standard_tableau_count,
    standard_tableaux,
)

from orderings import cycle_ordering


# ---------------------------------------------------------------------------
# Permutations


def test_permutation_composition_and_inverse():
    p = Permutation.from_cycles(4, (1, 2, 3))
    q = Permutation.from_cycles(4, (3, 4))
    pq = p * q
    for i in range(4):
        assert pq(i) == p(q(i))
    assert (p * p.inverse()) == Permutation.identity(4)
    assert (p.inverse() * p) == Permutation.identity(4)


def test_permutation_rejects_non_bijections():
    with pytest.raises(DomainError):
        Permutation((0, 0, 1))
    with pytest.raises(DomainError):
        Permutation((0, 3, 1))


def test_cycle_notation_round_trip():
    p = Permutation.from_cycles(5, (1, 3), (2, 5, 4))
    assert p.cycles() == ((1, 3), (2, 5, 4))
    assert Permutation.from_cycles(5, *p.cycles()) == p


def test_cycle_type_includes_fixed_points():
    p = Permutation.from_cycles(6, (1, 2, 3), (4, 5))
    assert p.cycle_type() == (3, 2, 1)
    assert Permutation.identity(4).cycle_type() == (1, 1, 1, 1)


def test_sign_matches_permutation_matrix_determinant():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 5, 6):
        for _ in range(10):
            images = tuple(rng.permutation(n).tolist())
            p = Permutation(images)
            assert p.sign == round(np.linalg.det(p.matrix()))


def test_permutation_matrix_is_row_selection():
    # left multiplication permutes rows: (P @ M)[i] = M[p(i)]
    p = Permutation.from_cycles(3, (1, 2, 3))
    rng = np.random.default_rng(11)
    M = rng.normal(size=(3, 3))
    assert np.array_equal(p.matrix() @ M, M[list(p.images)])
    # and the monomial of P_sigma is supported on sigma inverse alone, which
    # is what makes the transformed block of P_sigma equal D(sigma) transpose
    assert np.array_equal(p.matrix() @ p.inverse().matrix(), np.eye(3))


# ---------------------------------------------------------------------------
# Group orderings


def test_lex_ordering_n3():
    ordering = all_permutations(3)
    assert [p.images for p in ordering] == [
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    ]


def test_cycle_ordering_n3_groups_by_class():
    ordering = cycle_ordering(3)
    assert [p.cycles() for p in ordering] == [
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
        for ordering in (lex, cycle_ordering(n)):
            for k, p in enumerate(ordering):
                assert ordering.index(ordering[k]) == k
                assert tuple(ordering.images_array[k]) == p.images
                assert ordering.signs[k] == p.sign


@pytest.mark.parametrize("n", range(1, 8))
def test_signs_and_inverse_images_from_the_image_array(n):
    # signs by inversion parity and inverse images by argsort, as the rate
    # layer takes them, against the permutation objects
    for ordering in (all_permutations(n), cycle_ordering(n)):
        want = np.array([p.sign for p in ordering], dtype=np.float64)
        assert ordering.signs.dtype == want.dtype and ordering.signs.tobytes() == want.tobytes()
        inverse = np.array([p.inverse().images for p in ordering], dtype=np.intp)
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


def _representative(n, cycle_type):
    cycles, start = [], 1
    for length in cycle_type:
        if length > 1:
            cycles.append(tuple(range(start, start + length)))
        start += length
    return Permutation.from_cycles(n, *cycles)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_character_tables(n):
    for cycle_type, row in CHARACTER_TABLES[n].items():
        sigma = _representative(n, cycle_type)
        assert sigma.cycle_type() == cycle_type
        for lam, value in row.items():
            assert character(lam, sigma) == value


def test_character_is_a_class_function():
    sigma = Permutation.from_cycles(4, (1, 3), (2, 4))
    tau = Permutation.from_cycles(4, (1, 2), (3, 4))
    for lam in partitions_of(4):
        assert character(lam, sigma) == character(lam, tau)


def test_character_column_orthogonality_identity_class():
    for n in range(2, 7):
        assert sum(character(lam, Permutation.identity(n)) ** 2
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
        e = Permutation.identity(n)
        for lam in partitions_of(n):
            assert standard_tableau_count(lam) == character(lam, e)


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
        for D in rep.matrices:
            assert np.allclose(D @ D.T, np.eye(rep.dim), atol=1e-12)


def test_irrep_homomorphism_property():
    rng = np.random.default_rng(3)
    ordering = all_permutations(5)
    for lam in [(3, 2), (2, 2, 1), (4, 1)]:
        rep = irrep_matrices(lam, ordering)
        for _ in range(20):
            p, q = (ordering[rng.integers(len(ordering))] for _ in range(2))
            assert np.allclose(rep.matrix(p * q), rep.matrix(p) @ rep.matrix(q),
                               atol=1e-12)


def test_irrep_traces_are_characters():
    ordering = all_permutations(5)
    for lam in partitions_of(5):
        rep = irrep_matrices(lam, ordering)
        for p, D in zip(ordering, rep.matrices):
            assert abs(np.trace(D) - character(lam, p)) < 1e-12


def test_irrep_adjacent_transposition_n3():
    # the two-dimensional standard module in the orthogonal (Young) basis
    ordering = all_permutations(3)
    rep = irrep_matrices((2, 1), ordering)
    s12 = rep.matrix(Permutation.from_cycles(3, (1, 2)))
    s23 = rep.matrix(Permutation.from_cycles(3, (2, 3)))
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
    for p, D in zip(ordering, rep.matrices):
        assert D.shape == (1, 1) and abs(D[0, 0] - p.sign) < 1e-15
