"""Coincidence rates and sampling distributions for partially
distinguishable bosons and fermions in linear interferometers.

The building blocks, bottom to top:

- :mod:`partdist.symgroup` — the symmetric group as one array of one-line
  images, partitions, characters per cycle class, and the orthogonal
  irreducible matrices as one array per label;
- :mod:`partdist.matfun` — batched permanents (Glynn) and determinants,
  immanants, and the irrep-transformed matrix functions whose entries fill
  the diagonal blocks;
- :mod:`partdist.interferometer` — unitaries, Haar samples, output strings
  as rows of clicked detectors, scattering submatrices;
- :mod:`partdist.delays` — arrival-time specs, Gaussian-overlap delay
  matrices, time-bin discretization;
- :mod:`partdist.rates` — the n! x n! rate quadratic form, its streaming
  inclusion-exclusion form and its exact block-diagonalized and truncated
  equivalents, behind one entry point, :func:`~partdist.rates.engine_rates`,
  which returns the rates with the per-label block report;
- :mod:`partdist.sampling` — normalized output distributions, their
  equal-time and distinguishable references, exact inverse-CDF sampling and
  JSONL export;
- :mod:`partdist.analysis` — bin-collision probabilities, the witness
  partition, and the evaluation-cost model.

``import partdist`` loads none of them, nor NumPy: each name exported here,
and each module's own name, imports its module when it is first looked up,
and a module loads when it is imported.  The root exports each module's
entry points; the per-route functions and dense references (``rate_matrix``,
``rate_blocked``, ``irrep_matrices``, ...) stay in their modules, reached as
``partdist.rates.rate_matrix`` and the like.
"""

# Every public name, by the module that defines it. A name imports its
# module on first access (PEP 562) and is then cached in this module's
# globals, so ``import partdist`` runs this file alone: no NumPy, no engine.
# A module name resolves the same way, so ``partdist.errors.ClampWarning``
# works after a bare ``import partdist``.
_LAZY = {
    "errors": ("DomainError", "NumericalError", "PartdistError", "SizeLimitError"),
    "symgroup": (
        "all_permutations",
        "partitions_of",
        "conjugate",
        "dominates",
        "character",
        "standard_tableau_count",
        "gl_dimension",
    ),
    "matfun": ("determinant", "permanent", "immanant"),
    "interferometer": (
        "Interferometer",
        "haar_unitary",
        "submatrix",
        "monomial_vector",
        "enumerate_outputs",
        "unitary_to_json",
        "unitary_from_json",
    ),
    "delays": (
        "ArrivalSpec",
        "delay_matrix",
        "delay_matrix_from_times",
        "discretize",
        "snapped_times",
        "snapped_delay_matrix",
    ),
    "rates": ("engine_rates", "gamas_vanishes"),
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
__all__ = list(_LAZY_MODULE)


def __getattr__(name: str):
    module = name if name in _LAZY else _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ binds the submodule in this module's globals and, unlike
    # importlib.import_module, shows in ``python -X importtime``
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys() | _LAZY_MODULE.keys())


__version__ = "0.1.0"
