"""The benchmark's layer trace (perfbench/spans.py) installs its hooks on
partdist's public names; this runs it on small operations so that a renamed
or removed traced name fails here rather than in a benchmark run, and so
that each operation's route shows in the counters it reads."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"

CONFIG = {
    "m": 6,
    "n": 3,
    "unitary": {"type": "haar", "seed": 5},
    "species": "boson",
    "detectors": [1, 2, 3],
    "arrival": {"type": "binned", "bin_indices": [1, 4, 4], "delta_omega": 1.5,
                "window": 1.0, "bins": 8},
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # Tracer.install looks each traced name up before cli.main runs, so one
    # name missing from its module fails every traced operation
    spans = load_spans()
    for short, names in spans.TRACED.items():
        module = importlib.import_module(f"partdist.{short}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, (short, missing)
    assert callable(importlib.import_module("partdist.rates").BlockDecomposition.term)


def traced(tmp_path, op, *argv):
    """Layer metrics of one CLI operation run under spans.py in a fresh
    interpreter."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = tmp_path / f"{op}.jsonl"
    done = subprocess.run(
        [sys.executable, str(SPANS), "--spans", str(out), "--op", op, "--", *argv],
        capture_output=True, text=True, env=env, timeout=120, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    return load_spans().layer_metrics(out.read_text().splitlines())


def test_trace_hooks_cover_the_batched_block_routes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    rate = traced(tmp_path, "rate", "rate", "--config", str(cfg), "--engine", "blocked",
                  "--out", str(tmp_path / "rate.json"))
    dist = traced(tmp_path, "distribution", "distribution", "--config", str(cfg),
                  "--engine", "truncated", "--out", str(tmp_path / "dist.jsonl"))
    land = traced(tmp_path, "landscape", "landscape", "--config", str(cfg), "--engine", "blocked",
                  "--steps", "9", "--out", str(tmp_path / "land.csv"))

    assert rate["rates.attach_vector_calls"] == 1
    assert rate["rates.blocks_evaluated"] == 3
    # 20 strings in one batch: one projection and one rate_truncated call,
    # both references from one batched permanent call each
    assert dist["sampling.build_distribution_s"] > 0
    assert dist["rates.attach_vector_calls"] == 1
    assert dist["matfun.permanent_calls"] == 2
    assert dist["rates.blocks_evaluated"] == 3
    assert dist["interferometer.monomial_vector_s"] > 0
    # 81 grid points from one stacked delay-matrix call, in one transform
    # and one rate_blocked call
    assert land["rates.blocks_evaluated"] == 3
    assert land["delays.delay_matrix_calls"] == 1


def test_trace_shows_the_dense_routes(tmp_path):
    # one string (rate, landscape) goes through its autocorrelation and
    # builds no rate matrix; one delay matrix for many strings
    # (distribution) builds R once
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    rate = traced(tmp_path, "rate", "rate", "--config", str(cfg), "--engine", "direct",
                  "--out", str(tmp_path / "rate.json"))
    land = traced(tmp_path, "landscape", "landscape", "--config", str(cfg), "--engine", "direct",
                  "--steps", "9", "--out", str(tmp_path / "land.csv"))
    dist = traced(tmp_path, "distribution", "distribution", "--config", str(cfg),
                  "--engine", "direct", "--out", str(tmp_path / "dist.jsonl"))

    for metrics in (rate, land):
        assert metrics["rates.rate_matrix_calls"] == 0
        assert metrics["rates.rate_direct_calls"] == 0
        assert metrics["rates.rate_matrix_bytes"] == 0
    assert land["delays.delay_matrix_calls"] == 1
    assert dist["rates.rate_matrix_calls"] == 1
    assert dist["rates.rate_matrix_bytes"] == 6 * 6 * 8
    assert dist["rates.rate_direct_calls"] == 20
