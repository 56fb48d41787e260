"""The package's public names are pinned: a new entry point belongs in its
module, not in ``partdist/__init__``, and a removed name leaves this list
too, so that it cannot come back unnoticed."""

import importlib
import pkgutil
import types

import partdist

PUBLIC = {
    "ArrivalSpec", "DomainError", "GroupOrdering", "Interferometer",
    "NumericalError", "OutputDistribution", "PartdistError", "Permutation",
    "SizeLimitError", "all_permutations", "analyze_report", "block_decompose",
    "build_distribution", "build_transform", "burgisser_cost", "catalan", "character",
    "conjugate", "delay_matrix", "delay_matrix_from_times", "delay_partition_probability",
    "determinant", "dfunction_direct", "discretize", "dominates", "entropy_bits",
    "enumerate_outputs", "gamas_vanishes", "gl_dimension", "haar_unitary", "immanant",
    "irrep_matrices", "monomial_vector", "partitions_of", "permanent", "rate_blocked",
    "rate_direct", "rate_direct_streaming", "rate_fully_distinguishable", "rate_matrix",
    "rate_truncated", "reference_distinguishable", "reference_indistinguishable",
    "requires_witness", "sample", "snapped_delay_matrix", "snapped_times",
    "standard_tableau_count", "submatrix", "to_jsonl", "total_variation", "truncation_report",
    "unitary_from_json", "unitary_to_json", "witness_partition", "witness_probability",
}


def test_public_api_does_not_grow():
    # dir() lists the names that resolve on first access too, and getattr
    # resolves them; submodules count as attributes once imported, so they
    # are left out
    public = {
        name for name in dir(partdist)
        if not name.startswith("_") and not isinstance(getattr(partdist, name), types.ModuleType)
    }
    assert public == PUBLIC, (sorted(public - PUBLIC), sorted(PUBLIC - public))


def test_every_module_export_resolves():
    # a name deleted from a module must leave its __all__ too
    for info in pkgutil.iter_modules(partdist.__path__):
        module = importlib.import_module(f"partdist.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
