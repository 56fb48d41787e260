"""Each workload check passes outputs made by the oracle and rejects an
output whose rate moves beyond its derived tolerance.  Small sizes keep the
tests fast; the checks are the ones the benchmark runs."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402
import workloads  # noqa: E402
from workloads import Result  # noqa: E402


def failing(wl, results):
    return {k for k, v in wl.check(results).items() if v}


# --------------------------------------------------------------------------- rate


@pytest.fixture
def rate_wl(tmp_path):
    return workloads.RateN7(4, tmp_path, m=5, n=3, occupancy=(2, 1), chunk=2)


def rate_results(wl, shift=None):
    out = {}
    for op in wl.ops:
        value = wl.inputs[op.id].rate[0] + (shift or {}).get(op.id, 0.0)
        blocks = None if op.kind != "blocked" else [
            {"lam": [], "kept": i == 0, "magnitude": 1.0, "term": 0.0} for i in range(wl.blocks)]
        out[op.id] = Result(0, json.dumps({"rate": value, "blocks": blocks}), "")
    return out


def test_rate_passes_oracle_outputs(rate_wl):
    assert failing(rate_wl, rate_results(rate_wl)) == set()


@pytest.mark.parametrize("index", range(16))
def test_rate_rejects_a_rate_beyond_tolerance(rate_wl, index):
    op = rate_wl.ops[index]
    x = rate_wl.inputs[op.id]
    tol = x.bound(op.kind) + x.rate[1]
    assert op.id in failing(rate_wl, rate_results(rate_wl, {op.id: 1.01 * tol}))
    assert failing(rate_wl, rate_results(rate_wl, {op.id: 0.4 * x.bound(op.kind)})) == set()


def test_rate_rejects_exit_codes_and_garbage(rate_wl):
    results = rate_results(rate_wl)
    results["direct-boson-1"] = Result(4, None, "")
    results["blocked-boson"] = Result(0, "not json", "")
    assert failing(rate_wl, results) == {"direct-boson-1", "blocked-boson"}


def test_rate_one_bin_block_report(rate_wl):
    results = rate_results(rate_wl)
    doc = json.loads(results["truncated-boson-onebin"].out)
    doc["blocks"][1]["kept"] = True
    results["truncated-boson-onebin"] = Result(0, json.dumps(doc), "")
    assert failing(rate_wl, results) == {"truncated-boson-onebin"}


# --------------------------------------------------------------------------- distribution


@pytest.fixture
def dist_wl(tmp_path):
    return workloads.Distribution(5, tmp_path, big=(5, 3), small=(6, 3), occupancy=(2, 1),
                                  count=3000, checked=(3, 5), chunk=2)


def dist_results(wl, rate_shift=None, tv_shift=0.0, draws=None):
    out = {}
    for op in wl.ops[:5]:
        table, species = wl.table_of[op.id]
        rates = np.array([table.rate(i, species)[0] for i in range(len(table.strings))])
        if rate_shift and op.id in rate_shift:
            i, delta = rate_shift[op.id]
            rates[i] += delta
        p = rates / rates.sum()
        lines = "".join(json.dumps({"s": s, "rate": float(r), "prob": float(q)}) + "\n"
                        for s, r, q in zip(table.strings, rates, p))
        summary = {"strings": len(p), "total_rate": float(rates.sum()),
                   "tv_from_indistinguishable": 0.5 * float(np.abs(p - table.equal_time(species)[0]).sum()) + tv_shift,
                   "tv_from_distinguishable": 0.5 * float(np.abs(p - table.classical()[0]).sum())}
        out[op.id] = Result(0, lines, json.dumps(summary))
        if op.id == "direct-n6":
            probs = p
    strings = wl.tables["small"].strings
    if draws is None:
        draws = np.random.default_rng(0).choice(len(strings), size=wl.count, p=probs)
    text = "".join(strings[i] + "\n" for i in draws)
    out["sample"] = Result(0, text, "")
    out["sample-again"] = Result(0, text, "")
    return out


def test_distribution_passes_oracle_outputs(dist_wl):
    assert failing(dist_wl, dist_results(dist_wl)) == set()


@pytest.mark.parametrize("op_id", ["direct-n7", "direct-n6", "blocked-n6", "truncated-n6", "truncated-n6-fermion"])
def test_distribution_rejects_a_rate_beyond_tolerance(dist_wl, op_id):
    op = next(o for o in dist_wl.ops if o.id == op_id)
    table, species = dist_wl.table_of[op_id]
    i = table.checked[0]
    tol = table.engine_bounds(species, op.kind)[i] + table.rate(i, species)[1]
    assert op_id in failing(dist_wl, dist_results(dist_wl, rate_shift={op_id: (i, 1.01 * tol)}))


def test_distribution_rejects_a_wrong_tv(dist_wl):
    assert failing(dist_wl, dist_results(dist_wl, tv_shift=1e-6)) == set(o.id for o in dist_wl.ops[:5])


def test_distribution_rejects_bad_samples(dist_wl):
    results = dist_results(dist_wl, draws=[0] * dist_wl.count)
    assert failing(dist_wl, results) == {"sample"}
    results = dist_results(dist_wl)
    results["sample-again"] = Result(0, results["sample"].out[::-1], "")
    assert failing(dist_wl, results) == {"sample-again"}


# --------------------------------------------------------------------------- landscape


@pytest.fixture
def land_wl(tmp_path):
    return workloads.Landscape(6, tmp_path, m=5, grid=(3, 9), slice_=(4, 9), checked=2, chunks=(2, 4))


def land_results(wl, shift=None):
    out = {}
    for op in wl.ops:
        sweep = wl.cases[op.id.split("-")[0]]
        rows = ["# config_hash=0", ",".join(f"dtau_{k}" for k in range(len(sweep.points[0]))) + ",rate"]
        for i, p in enumerate(sweep.points):
            value = oracle.rate(sweep.A, oracle.delay_matrix(sweep.taus[i], 1.0), sweep.species)[0]
            if shift and shift[0] == op.id and shift[1] == i:
                value += shift[2]
            rows.append(",".join(repr(x) for x in (*p, value)))
        out[op.id] = Result(0, "\n".join(rows) + "\n", "")
    return out


def test_landscape_passes_oracle_outputs(land_wl):
    assert failing(land_wl, land_results(land_wl)) == set()


@pytest.mark.parametrize("op_index", range(6))
def test_landscape_rejects_a_rate_beyond_tolerance(land_wl, op_index):
    op = land_wl.ops[op_index]
    sweep = land_wl.cases[op.id.split("-")[0]]
    i = sweep.checked[0]
    j = sweep.points.index(tuple(-d for d in sweep.points[i]))
    tol = sweep.bounds(op.kind)
    delta = 1.01 * max(tol[i] + sweep.oracle(i)[1], tol[i] + tol[j])
    assert op.id in failing(land_wl, land_results(land_wl, (op.id, i, delta)))


def test_landscape_limits_hold_at_zero_and_far_ends(land_wl):
    sweep = land_wl.cases["slice"]
    zero = sweep.points.index((0.0,))
    assert zero in sweep.limits and sweep.points.index((workloads.FAR,)) in sweep.limits
    value, _ = sweep.limits[zero]
    assert value == pytest.approx(float(oracle.closed_form(sweep.A, "boson")[0]), rel=1e-12)
