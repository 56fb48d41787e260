"""Records that hold arrays compare and hash by identity: a generated
``__eq__`` would compare arrays element-wise and raise, and the ``__hash__``
generated beside it would hash them and raise too."""

import dataclasses
import importlib
import pkgutil
import re

import numpy as np

import partdist
from partdist.interferometer import haar_unitary, monomial_vector
from partdist.rates import attach_vector, build_transform, engine_rates, fourier_blocks, rate_matrix


def _dataclasses():
    for info in pkgutil.iter_modules(partdist.__path__):
        module = importlib.import_module(f"partdist.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__):
                yield value


def test_no_array_record_generates_eq():
    # a field annotated with an array or a dict of them rules out eq=True
    offenders = [
        (cls.__qualname__, field.name)
        for cls in _dataclasses()
        if cls.__dataclass_params__.eq
        for field in dataclasses.fields(cls)
        if re.search(r"\b(ndarray|dict)\b", str(field.type))
    ]
    assert offenders == []


def test_array_records_hash_and_compare_by_identity():
    A = haar_unitary(4, seed=2).matrix[:3, :3]
    r = np.eye(3)
    T = build_transform(3)
    v = monomial_vector(A)
    records = [
        haar_unitary(4, seed=2),
        rate_matrix(r, "boson"),
        attach_vector(v, fourier_blocks(r, "boson", T), T, "boson"),
        engine_rates(A, r, "boson", "direct"),
    ]
    assert len({type(x) for x in records}) == 4
    for x in records:
        assert hash(x) == hash(x)
        assert x == x
        twin = dataclasses.replace(x)
        assert twin != x and hash(twin) != hash(x)
