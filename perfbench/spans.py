"""Layer spans for the partdist benchmark.

Run as a script, this starts one traced CLI operation:

    python perfbench/spans.py --spans FILE --op ID -- rate --config c.json ...

It wraps the public functions of each partdist module at every place they
are looked up (``partdist.cli.rate_direct``, ``partdist.sampling.permanent``,
``partdist.delays.delay_matrix_from_times``, ...), calls ``partdist.cli.main``
inside a root span ``cli.main``, and when the operation ends writes one JSON
line per span (name, start, end, parent, operation id) and one line of
counters.  :func:`layer_metrics` turns those lines into the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time

TRACED = {
    "symgroup": ("all_permutations", "irrep_matrices"),
    "interferometer": ("submatrix", "monomial_vector", "enumerate_outputs"),
    "delays": ("delay_matrix", "delay_matrix_from_times", "snapped_delay_matrix"),
    "matfun": ("permanent", "determinant"),
    "rates": ("rate_matrix", "rate_direct", "rate_direct_streaming", "build_transform",
              "decompose_rate_matrix", "attach_vector", "rate_blocked", "rate_truncated"),
    "sampling": ("build_distribution", "sample", "to_jsonl", "reference_indistinguishable",
                 "reference_distinguishable"),
    "cli": ("load_config",),
}

# metric -> spans whose self time or number of calls it sums
SELF_TIME = {
    "cli.self_s": ("cli.main",),
    "cli.load_config_s": ("cli.load_config",),
    "symgroup.all_permutations_s": ("symgroup.all_permutations",),
    "symgroup.irrep_matrices_s": ("symgroup.irrep_matrices",),
    "interferometer.submatrix_s": ("interferometer.submatrix",),
    "interferometer.monomial_vector_s": ("interferometer.monomial_vector",),
    "interferometer.enumerate_outputs_s": ("interferometer.enumerate_outputs",),
    "delays.delay_matrix_s": ("delays.delay_matrix", "delays.delay_matrix_from_times",
                              "delays.snapped_delay_matrix"),
    "matfun.permanent_s": ("matfun.permanent",),
    "matfun.determinant_s": ("matfun.determinant",),
    "rates.rate_matrix_s": ("rates.rate_matrix",),
    "rates.rate_direct_s": ("rates.rate_direct",),
    "rates.rate_streaming_s": ("rates.rate_direct_streaming",),
    "rates.build_transform_s": ("rates.build_transform",),
    "rates.decompose_s": ("rates.decompose_rate_matrix",),
    "rates.attach_vector_s": ("rates.attach_vector",),
    "rates.rate_blocked_s": ("rates.rate_blocked",),
    "rates.rate_truncated_s": ("rates.rate_truncated",),
    "sampling.build_distribution_s": ("sampling.build_distribution",),
    "sampling.reference_s": ("sampling.reference_indistinguishable",
                             "sampling.reference_distinguishable"),
    "sampling.sample_s": ("sampling.sample",),
    "sampling.to_jsonl_s": ("sampling.to_jsonl",),
}
CALLS = {
    "delays.delay_matrix_calls": SELF_TIME["delays.delay_matrix_s"],
    "matfun.permanent_calls": ("matfun.permanent",),
    "rates.rate_matrix_calls": ("rates.rate_matrix",),
    "rates.rate_direct_calls": ("rates.rate_direct",),
    "rates.rate_streaming_calls": ("rates.rate_direct_streaming",),
    "rates.decompose_calls": ("rates.decompose_rate_matrix",),
    "rates.attach_vector_calls": ("rates.attach_vector",),
}
COUNTERS = {  # summed over the operations of a round, except the maximum
    "rates.rate_matrix_bytes": ("B", sum),
    "rates.decompose_flops": ("flop", sum),
    "rates.blocks_evaluated": ("count", sum),
    "rates.blocks_kept": ("count", sum),
    "rates.offblock_max": ("1", max),
}


def units() -> dict[str, str]:
    """Unit of every per-layer metric."""
    out = {name: "s" for name in SELF_TIME}
    out.update({name: "count" for name in CALLS})
    out.update({name: unit for name, (unit, _) in COUNTERS.items()})
    return out


class Tracer:
    """Spans kept in memory: [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {name: 0 for name in COUNTERS}

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()
            if after is not None:
                after(args, result)
            return result

        return traced

    def inside(self, *names: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0] in names

    def install(self) -> None:
        modules = {short: importlib.import_module(f"partdist.{short}") for short in TRACED}
        c = self.counters

        def built(args, result):
            c["rates.rate_matrix_bytes"] += result.matrix.nbytes

        def decomposed(args, result):
            size = args[0].matrix.shape[0]
            c["rates.decompose_flops"] += 4 * size**3  # two dense n! x n! products
            c["rates.offblock_max"] = max(c["rates.offblock_max"], float(result[1]))

        def summed(args, result):
            c["rates.blocks_evaluated"] += len(args[0].blocks)

        after = {
            "rates.rate_matrix": built,
            "rates.decompose_rate_matrix": decomposed,
            "rates.rate_blocked": summed,
            "rates.rate_truncated": summed,
        }
        wrappers = {}
        for short, names in TRACED.items():
            for name in names:
                fn = getattr(modules[short], name)
                wrappers[id(fn)] = self.wrap(f"{short}.{name}", fn, after.get(f"{short}.{name}"))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

        # a block counts as kept when the rate step sums it
        cls = modules["rates"].BlockDecomposition
        term = cls.term

        def counted_term(decomp, lam):
            if self.inside("rates.rate_blocked", "rates.rate_truncated"):
                c["rates.blocks_kept"] += 1
            return term(decomp, lam)

        cls.term = counted_term

    def write(self, path: str, op: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"op": op, "counters": self.counters}) + "\n")


def layer_metrics(lines) -> dict[str, float]:
    """Per-layer metrics of one traced operation from its JSON lines."""
    spans = [json.loads(line) for line in lines if line.strip()]
    counters = next((s["counters"] for s in spans if "counters" in s), {})
    spans = [s for s in spans if "name" in s]
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    out = {}
    by_name: dict[str, list[float]] = {}
    for s, t in zip(spans, own):
        by_name.setdefault(s["name"], []).append(t)
    for metric, names in SELF_TIME.items():
        out[metric] = sum((sum(by_name.get(n, ())) for n in names), 0.0)
    for metric, names in CALLS.items():  # a call made from within the same layer is not counted
        out[metric] = sum(1 for s in spans if s["name"] in names
                          and (s["parent"] is None or spans[s["parent"]]["name"] not in names))
    for metric in COUNTERS:
        out[metric] = counters.get(metric, 0)
    return out


def combine(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of a round from those of its operations."""
    out = {}
    for metric in per_op[0]:
        values = [m[metric] for m in per_op]
        out[metric] = COUNTERS[metric][1](values) if metric in COUNTERS else sum(values)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one partdist CLI operation with layer spans.")
    parser.add_argument("--spans", required=True, help="JSON-lines file the spans are written to")
    parser.add_argument("--op", required=True, help="operation id stored with every span")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- then the partdist CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = Tracer()
    tracer.install()
    from partdist import cli

    run = tracer.wrap("cli.main", cli.main)
    try:
        return run(cli_args)
    finally:
        tracer.write(args.spans, args.op)


if __name__ == "__main__":
    sys.exit(main())
