"""Coincidence rates and sampling distributions for partially
distinguishable bosons and fermions in linear interferometers.

The building blocks, bottom to top:

- :mod:`partdist.symgroup` — permutations, partitions, characters, and the
  orthogonal irreducible matrices of the symmetric group;
- :mod:`partdist.matfun` — batched permanents (Glynn) and determinants,
  immanants, and the irrep-transformed matrix functions whose entries fill
  the diagonal blocks;
- :mod:`partdist.interferometer` — unitaries, Haar samples, output strings
  as rows of clicked detectors, scattering submatrices;
- :mod:`partdist.delays` — arrival-time specs, Gaussian-overlap delay
  matrices, time-bin discretization;
- :mod:`partdist.rates` — the n! x n! rate quadratic form, its streaming
  inclusion-exclusion form and its exact block-diagonalized and truncated
  equivalents, behind one entry point;
- :mod:`partdist.sampling` — normalized output distributions, their
  equal-time and distinguishable references, exact inverse-CDF sampling and
  JSONL export;
- :mod:`partdist.analysis` — bin-collision probabilities, the witness
  partition, and the evaluation-cost model.

``import partdist`` loads the first five; the last two load when one of
their names is first looked up here, or when they are imported.
"""

import importlib

from .errors import DomainError, NumericalError, PartdistError, SizeLimitError
from .symgroup import (
    Permutation,
    GroupOrdering,
    all_permutations,
    partitions_of,
    conjugate,
    dominates,
    character,
    standard_tableau_count,
    gl_dimension,
    irrep_matrices,
)
from .matfun import determinant, permanent, immanant, dfunction_direct
from .interferometer import (
    Interferometer,
    haar_unitary,
    submatrix,
    monomial_vector,
    enumerate_outputs,
    unitary_to_json,
    unitary_from_json,
)
from .delays import (
    ArrivalSpec,
    delay_matrix,
    delay_matrix_from_times,
    discretize,
    snapped_times,
    snapped_delay_matrix,
)
from .rates import (
    rate_matrix,
    rate_direct,
    rate_direct_streaming,
    build_transform,
    block_decompose,
    rate_blocked,
    rate_truncated,
    truncation_report,
    gamas_vanishes,
    rate_fully_distinguishable,
)

# The names of ``sampling`` and ``analysis`` load their module on first
# access (PEP 562), so ``import partdist``, ``rate`` and ``landscape``
# compile neither module and never import ``fractions``.
_LAZY = {
    "sampling": (
        "OutputDistribution",
        "build_distribution",
        "sample",
        "reference_indistinguishable",
        "reference_distinguishable",
        "to_jsonl",
        "entropy_bits",
        "total_variation",
    ),
    "analysis": (
        "witness_partition",
        "requires_witness",
        "catalan",
        "burgisser_cost",
        "delay_partition_probability",
        "witness_probability",
        "analyze_report",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name not in _LAZY_MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY_MODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY_MODULE.keys())


__version__ = "0.1.0"
