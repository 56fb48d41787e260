import itertools
import json
import math

import numpy as np
import pytest

from partdist.errors import DomainError, SizeLimitError
from partdist.interferometer import (
    Interferometer,
    enumerate_outputs,
    haar_unitary,
    monomial_vector,
    output_text,
    submatrix,
    unitary_from_json,
    unitary_to_json,
)


def test_interferometer_rejects_nonunitary():
    with pytest.raises(DomainError):
        Interferometer(np.ones((3, 3)))
    with pytest.raises(DomainError):
        Interferometer(np.eye(3)[:2])


def test_unitarity_is_checked_to_1e_10_absolute(tmp_path):
    # one column of a Haar unitary scaled by 1 + 1e-6 or 1 + 1e-9: max
    # |U^dag U - I| is 2e-6 or 2e-9, inside np.allclose's default rtol of
    # 1e-5 and outside the stated 1e-10
    U = haar_unitary(8, seed=4).matrix
    for scale in (1 + 1e-6, 1 + 1e-9):
        skewed = U.copy()
        skewed[:, 3] *= scale
        assert 1e-10 < np.abs(skewed.conj().T @ skewed - np.eye(8)).max() < 1e-5
        with pytest.raises(DomainError, match="not unitary within 1e-10"):
            Interferometer(skewed)
    for m in (1, 8, 64, 256):
        for seed in range(3):
            assert haar_unitary(m, seed=seed).m == m
    # a unitary_to_json round trip at m = 512, written as perfbench writes
    # its unitary files (the same text, from one json.dumps)
    itf = haar_unitary(512, seed=6)
    path = tmp_path / "u512.json"
    path.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in itf.matrix.tolist()]))
    assert np.array_equal(unitary_from_json(path).matrix, itf.matrix)


def test_interferometer_accepts_unitary():
    itf = Interferometer(np.eye(4, dtype=complex))
    assert itf.m == 4


def test_haar_deterministic_given_seed():
    a = haar_unitary(5, seed=17)
    b = haar_unitary(5, seed=17)
    c = haar_unitary(5, seed=18)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, c.matrix)


def test_haar_columns_are_unit_norm():
    itf = haar_unitary(6, seed=0)
    norms = np.linalg.norm(itf.matrix, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-10)


def test_haar_first_entry_moment():
    # E|U_11|^2 = 1/m for Haar measure; 2000 samples at m=4
    m, samples = 4, 2000
    vals = np.array(
        [abs(haar_unitary(m, seed=s).matrix[0, 0]) ** 2 for s in range(samples)]
    )
    mean = vals.mean()
    stderr = vals.std(ddof=1) / math.sqrt(samples)
    assert abs(mean - 1 / m) < 3 * stderr


def test_output_string_round_trip():
    # a string is the row of its clicked detectors; its text marks them
    assert output_text((1, 3, 4), 5) == "10110"
    assert output_text(np.array([[1, 3, 4], [2, 3, 5]]), 5) == ["10110", "01101"]
    assert output_text(enumerate_outputs(5, 5), 5) == ["11111"]
    with pytest.raises(DomainError):
        output_text((0, 2), 5)  # not read as (5, 2)


def test_output_string_validation():
    # submatrix refuses rows that are not strings: detectors that are not
    # integers, repeated within a row, or outside 1..m
    itf = haar_unitary(3, seed=0)
    for bad in ((1, 2.5), (True, False), ("1", "2"), (1, 1), (0, 2), (2, 4),
                [[1, 2], [3, 3]], [[1, 2], [1, 2, 3]], np.zeros((0, 2), dtype=int)):
        with pytest.raises(DomainError):
            submatrix(itf, bad)
    assert submatrix(itf, np.array([3, 1], dtype=np.uint8)).shape == (2, 2)


def test_submatrix_rows_and_columns():
    m = 5
    U = haar_unitary(m, seed=2).matrix
    itf = Interferometer(U)
    A = submatrix(itf, (2, 4, 5))
    assert A.shape == (3, 3)
    assert np.array_equal(A, U[np.ix_([1, 3, 4], [0, 1, 2])])
    B = submatrix(itf, (2, 4, 5), input_ports=(1, 3, 5))
    assert np.array_equal(B, U[np.ix_([1, 3, 4], [0, 2, 4])])
    # rows in the order given; a stack gives one gather of the same bits
    assert np.array_equal(submatrix(itf, (5, 2, 4)), U[np.ix_([4, 1, 3], [0, 1, 2])])
    stack = submatrix(itf, enumerate_outputs(m, 3), (1, 3, 5))
    assert stack.shape == (10, 3, 3)
    assert np.array_equal(stack[4], submatrix(itf, enumerate_outputs(m, 3)[4], (1, 3, 5)))


def test_monomial_vector_n2():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    v = monomial_vector(A)
    # lex order: identity then the swap
    assert v == pytest.approx([1 * 4, 3 * 2])
    assert not v.flags.writeable


def test_monomial_vector_sum_is_permanent():
    from partdist.matfun import permanent

    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    v = monomial_vector(A)
    assert v.sum() == pytest.approx(permanent(A), rel=1e-12)
    # a stack gives one row per matrix, and a matrix that is not square none
    stack = monomial_vector(np.stack([A, 2 * A]))
    assert stack.shape == (2, 24) and np.array_equal(stack[0], v)
    with pytest.raises(DomainError):
        monomial_vector(A[:, :3])


def test_enumerate_outputs_counts_and_order():
    outs = enumerate_outputs(4, 2)
    assert enumerate_outputs(4, 2) is outs  # a distribution and its references share it
    assert outs.shape == (6, 2) and outs.dtype == np.intp
    assert not outs.flags.writeable
    assert output_text(outs[:3], 4) == ["0011", "0101", "0110"]
    # ascending 0/1 text is itertools.combinations order reversed
    for m, n in ((1, 1), (4, 2), (5, 1), (6, 3), (7, 7), (9, 4)):
        outs = enumerate_outputs(m, n)
        combos = list(itertools.combinations(range(1, m + 1), n))[::-1]
        assert outs.tolist() == [list(c) for c in combos]
        text = output_text(outs, m)
        assert text == sorted(text) and len(set(text)) == math.comb(m, n)
    with pytest.raises(SizeLimitError):
        enumerate_outputs(40, 20)
    with pytest.raises(DomainError):
        enumerate_outputs(3, 4)


def test_non_integral_channel_and_particle_counts_are_refused():
    # math.comb and NumPy raised a bare TypeError on these; 5.0 must not
    # reach the array kept for (5, 2) either
    outs = enumerate_outputs(5, 2)
    for m, n in ((5.0, 2), (5, 2.0), (5.5, 2), ("5", 2), (None, 2)):
        with pytest.raises(DomainError, match="count must be an integer"):
            enumerate_outputs(m, n)
    for m in (3.5, 3.0, "3", None):
        with pytest.raises(DomainError, match="channel count must be an integer"):
            haar_unitary(m)
    assert enumerate_outputs(np.int64(5), np.int64(2)) is outs
    assert np.array_equal(haar_unitary(np.int64(3), seed=1).matrix, haar_unitary(3, seed=1).matrix)


def test_unitary_json_round_trip(tmp_path):
    itf = haar_unitary(4, seed=9)
    path = tmp_path / "u.json"
    unitary_to_json(itf, path)
    loaded = unitary_from_json(path)
    assert np.array_equal(loaded.matrix, itf.matrix)
    payload = json.loads(path.read_text())
    assert len(payload) == 4 and len(payload[0][0]) == 2  # rows of [re, im] pairs


def test_unitary_json_loads_the_bits_of_the_per_entry_reader(tmp_path):
    # one array viewed as complex gives the matrix that complex(re, im) per
    # entry gave, for the writer's floats and for hand-written integers and
    # signed zeros
    swap = "[[[0, -0.0], [1, 0]], [[1, 0], [-0.0, 0]]]"
    for m, text in ((2, swap), (5, None), (16, None)):
        path = tmp_path / f"u{m}.json"
        if text is None:
            unitary_to_json(haar_unitary(m, seed=m), path)
        else:
            path.write_text(text)
        data = json.loads(path.read_text())
        want = np.array([[complex(re, im) for re, im in row] for row in data])
        got = unitary_from_json(path).matrix
        assert got.dtype == want.dtype and got.shape == want.shape == (m, m)
        assert got.tobytes() == want.tobytes()


def test_unitary_json_bytes_match_the_per_entry_writer(tmp_path):
    # the file as json.dump of a per-entry list of [float(re), float(im)]
    # pairs wrote it
    for m in (1, 8, 64):
        itf = haar_unitary(m, seed=m)
        path = tmp_path / f"u{m}.json"
        unitary_to_json(itf, path)
        pairs = [[[float(z.real), float(z.imag)] for z in row] for row in itf.matrix]
        with open(tmp_path / "reference.json", "w") as fh:
            json.dump(pairs, fh)
        assert path.read_bytes() == (tmp_path / "reference.json").read_bytes()
