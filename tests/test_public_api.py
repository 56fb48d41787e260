"""The package's public names are pinned: a new entry point belongs in its
module, not in ``partdist/__init__``, and a removed name leaves this list
too, so that it cannot come back unnoticed."""

import ast
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import partdist

PUBLIC = {
    "ArrivalSpec", "DomainError", "Interferometer",
    "NumericalError", "OutputDistribution", "PartdistError",
    "SizeLimitError", "all_permutations", "analyze_report", "build_distribution",
    "burgisser_cost", "catalan", "character", "conjugate", "delay_matrix",
    "delay_matrix_from_times", "delay_partition_probability", "determinant", "discretize",
    "dominates", "engine_rates", "entropy_bits", "enumerate_outputs", "gamas_vanishes",
    "gl_dimension", "haar_unitary", "immanant", "monomial_vector", "partitions_of",
    "permanent", "reference_distinguishable", "reference_indistinguishable",
    "requires_witness", "sample", "snapped_delay_matrix", "snapped_times",
    "standard_tableau_count", "submatrix", "to_jsonl", "total_variation",
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


def test_no_callable_takes_a_group_ordering():
    # S_n has one enumeration, the rows of symgroup.all_permutations: no
    # function or record of the package takes or holds another, and the
    # types that carried one are gone
    offenders = []
    for info in pkgutil.iter_modules(partdist.__path__):
        module = importlib.import_module(f"partdist.{info.name}")
        for gone in ("GroupOrdering", "MonomialVector"):
            assert not hasattr(module, gone), (info.name, gone)
        for name, value in vars(module).items():
            if not callable(value) or getattr(value, "__module__", None) != module.__name__:
                continue
            if not (isinstance(value, type) and issubclass(value, Exception)):  # no signature
                if "ordering" in inspect.signature(value).parameters:
                    offenders.append(f"{info.name}.{name}")
    assert offenders == []


def test_demos_import_public_root_names_only():
    # a demo shows the API a user meets: the names that ``partdist`` itself
    # exports, never a submodule's own
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
                assert not [m for m in modules if m.startswith("partdist.")], (demo.name, modules)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("partdist"):
                assert node.module == "partdist", (demo.name, node.module)
                names = {alias.name for alias in node.names}
                assert names <= PUBLIC, (demo.name, sorted(names - PUBLIC))
