"""BENCHMARK.json names exactly the workloads and metrics the benchmark
prints, and layer self times add up."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.units()


def test_self_time_subtracts_children_and_calls_skip_nesting():
    lines = [json.dumps(s) for s in (
        {"op": "x", "name": "cli.main", "start": 0.0, "end": 10.0, "parent": None},
        {"op": "x", "name": "delays.delay_matrix", "start": 1.0, "end": 4.0, "parent": 0},
        {"op": "x", "name": "delays.delay_matrix_from_times", "start": 2.0, "end": 3.0, "parent": 1},
        {"op": "x", "name": "rates.rate_direct", "start": 5.0, "end": 9.0, "parent": 0},
        {"op": "x", "counters": {"rates.offblock_max": 2.0, "rates.decompose_flops": 8}},
    )]
    m = spans.layer_metrics(lines)
    assert m["cli.self_s"] == 3.0
    assert m["delays.delay_matrix_s"] == 3.0
    assert m["delays.delay_matrix_calls"] == 1
    assert m["rates.rate_direct_s"] == 4.0 and m["rates.rate_direct_calls"] == 1
    both = spans.combine([m, m])
    assert both["rates.decompose_flops"] == 16 and both["rates.offblock_max"] == 2.0
