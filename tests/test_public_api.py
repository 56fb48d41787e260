"""The package's public names may shrink but not grow: a new entry point
belongs in its module, not in ``partdist/__init__``."""

import types

import partdist

PUBLIC = {
    "ArrivalSpec", "DelayPartition", "DomainError", "GroupOrdering", "Interferometer",
    "NumericalError", "OutputDistribution", "OutputString", "PartdistError", "Permutation",
    "SizeLimitError", "all_permutations", "analyze_report", "block_decompose",
    "build_distribution", "build_transform", "burgisser_cost", "catalan", "character",
    "conjugate", "delay_matrix", "delay_matrix_from_times", "delay_partition_probability",
    "determinant", "dfunction_direct", "discretize", "dominates", "effective_width",
    "entropy_bits", "enumerate_outputs", "gamas_vanishes", "gl_dimension", "haar_unitary",
    "immanant", "indistinguishable_fermion_check", "irrep_matrices", "monomial_vector",
    "partitions_of", "permanent", "rate_blocked", "rate_direct", "rate_direct_streaming",
    "rate_fully_distinguishable", "rate_matrix", "rate_truncated", "rate_via_reduction",
    "reduce_distinguishable_particle", "reference_distinguishable",
    "reference_indistinguishable", "requires_witness", "sample", "snapped_delay_matrix",
    "snapped_times", "standard_tableau_count", "submatrix", "to_csv", "to_jsonl",
    "total_variation", "truncation_report", "unitary_from_json", "unitary_to_json",
    "witness_partition", "witness_probability", "witness_report",
}


def test_public_api_does_not_grow():
    # submodules count as attributes once imported, so they are left out
    public = {
        name for name, value in vars(partdist).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= PUBLIC, sorted(public - PUBLIC)
