"""End-to-end tests for the command-line interface.

Everything runs in-process through ``main(argv)`` so exit codes, stdout
artifacts, and stderr diagnostics are all observable.  Wall-clock timing
lines go to stderr by design, so stdout comparisons can be byte-exact.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import partdist.rates
from partdist import analysis
from partdist.cli import main
from partdist.rates import gamas_vanishes
from partdist.symgroup import partitions_of

BASE = {
    "m": 6,
    "n": 3,
    "seed": 11,
    "unitary": {"type": "haar", "seed": 5},
    "species": "boson",
    "engine": "direct",
    "chunk": 0,
    "arrival": {
        "type": "continuous",
        "taus": [0.1, 0.42, 0.77],
        "delta_omega": 1.5,
        "window": 1.0,
        "bins": 8,
    },
    "detectors": [1, 2, 3],
    "input_ports": [1, 2, 3],
}

BINNED = {
    "type": "binned",
    "bin_indices": [1, 4, 7],
    "delta_omega": 1.5,
    "window": 1.0,
    "bins": 8,
}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {**BASE, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_payload(err):
    """Parse the JSON part of stderr, ignoring wall-clock timing lines."""
    body = "\n".join(
        line for line in err.splitlines() if not line.startswith("wall_time_s=")
    )
    return json.loads(body)


# ---------------------------------------------------------------------------
# rate


def test_rate_engines_agree_on_binned_times(tmp_path, capsys):
    rates = {}
    for engine in ("direct", "blocked", "truncated"):
        cfg = write_config(tmp_path, f"{engine}.json", engine=engine, arrival=BINNED)
        code, out, _ = run_cli(capsys, "rate", "--config", cfg)
        assert code == 0
        rates[engine] = json.loads(out)
    base = rates["direct"]["rate"]
    assert base > 0
    for engine in ("blocked", "truncated"):
        assert rates[engine]["rate"] == pytest.approx(base, rel=1e-9)
    # distinct bins mean nothing is dropped
    assert all(b["kept"] for b in rates["truncated"]["blocks"])
    assert rates["direct"]["blocks"] is None
    assert rates["direct"]["bin_partition"] == [1, 1, 1]


def test_rate_truncated_reports_dropped_blocks(tmp_path, capsys):
    arrival = {**BINNED, "bin_indices": [2, 2, 7]}
    cfg = write_config(tmp_path, engine="truncated", species="fermion", arrival=arrival)
    code, out, _ = run_cli(capsys, "rate", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["bin_partition"] == [2, 1]
    kept = {tuple(b["lam"]) for b in report["blocks"] if b["kept"]}
    dropped = {tuple(b["lam"]) for b in report["blocks"] if not b["kept"]}
    # fermion labels survive when the conjugate shape dominates the bin partition
    assert kept == {(2, 1), (1, 1, 1)}
    assert dropped == {(3,)}
    scale = max(b["magnitude"] for b in report["blocks"])
    for b in report["blocks"]:
        if not b["kept"]:
            assert b["magnitude"] <= 1e-9 * scale

    cfg_direct = write_config(tmp_path, "direct.json", species="fermion", arrival=arrival)
    code, out, _ = run_cli(capsys, "rate", "--config", cfg_direct)
    assert code == 0
    assert report["rate"] == pytest.approx(json.loads(out)["rate"], rel=1e-9)


def test_truncated_on_continuous_times_is_refused(tmp_path, capsys):
    cfg = write_config(tmp_path, engine="truncated")
    code, _, err = run_cli(capsys, "rate", "--config", cfg)
    assert code == 2
    assert "truncated" in err

    cfg_ok = write_config(
        tmp_path, "opt_in.json", engine="truncated", allow_approximate_truncation=True
    )
    code, out, _ = run_cli(capsys, "rate", "--config", cfg_ok)
    assert code == 0
    assert json.loads(out)["engine"] == "truncated"


def test_rate_rerun_is_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, engine="blocked")
    code, first, _ = run_cli(capsys, "rate", "--config", cfg)
    assert code == 0
    code, second, _ = run_cli(capsys, "rate", "--config", cfg)
    assert code == 0
    assert first == second


def test_engine_and_chunk_overrides_change_hash_not_rate(tmp_path, capsys):
    cfg = write_config(tmp_path)
    _, base_out, _ = run_cli(capsys, "rate", "--config", cfg)
    _, blocked_out, _ = run_cli(capsys, "rate", "--config", cfg, "--engine", "blocked")
    _, chunk_out, _ = run_cli(capsys, "rate", "--config", cfg, "--threads-chunk", "3")
    base, blocked, chunked = map(json.loads, (base_out, blocked_out, chunk_out))
    assert blocked["rate"] == pytest.approx(base["rate"], rel=1e-9)
    assert chunked["rate"] == pytest.approx(base["rate"], rel=1e-12)
    assert len({base["config_hash"], blocked["config_hash"], chunked["config_hash"]}) == 3


def test_seed_override_changes_unitary_and_hash(tmp_path, capsys):
    cfg = write_config(tmp_path, unitary={"type": "haar"})
    _, out_a, _ = run_cli(capsys, "rate", "--config", cfg)
    _, out_b, _ = run_cli(capsys, "rate", "--config", cfg, "--seed", "12")
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["config_hash"] != b["config_hash"]
    assert a["rate"] != pytest.approx(b["rate"], rel=1e-6)


# ---------------------------------------------------------------------------
# config validation and guards


@pytest.mark.parametrize(
    "overrides",
    [
        {"n": 9},  # n > m
        {"species": "anyon"},
        {"engine": "magic"},
        {"arrival": {**BINNED, "bin_indices": [0, 4, 7]}},  # bin index out of range
        {"arrival": {**BINNED, "bin_indices": [1, 4]}},  # wrong count
        {"detectors": [1, 1, 2]},  # repeated port
        {"input_ports": [1, 2, 99]},  # port out of range
        {"unitary": {"type": "haar"}, "seed": None},  # no seed anywhere
        {"chunk": -1},
    ],
)
def test_invalid_configs_exit_2(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, **overrides)
    code, _, err = run_cli(capsys, "rate", "--config", cfg)
    assert code == 2
    assert "error:" in err


def test_missing_and_malformed_config_files_exit_2(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "rate", "--config", str(tmp_path / "nope.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "rate", "--config", str(bad))
    assert code == 2
    assert "JSON" in err


def test_size_guards_exit_3(tmp_path, capsys):
    # dense transform is capped well below 8 particles
    big_n = write_config(
        tmp_path,
        "big_n.json",
        m=8,
        n=8,
        engine="blocked",
        detectors=list(range(1, 9)),
        input_ports=list(range(1, 9)),
        arrival={**BASE["arrival"], "taus": [0.1 * k for k in range(8)]},
    )
    code, _, err = run_cli(capsys, "rate", "--config", big_n)
    assert code == 3
    assert "size limit" in err

    # too many output strings for a full distribution
    wide = write_config(
        tmp_path,
        "wide.json",
        m=50,
        n=4,
        detectors=[1, 2, 3, 4],
        input_ports=[1, 2, 3, 4],
        arrival={**BASE["arrival"], "taus": [0.0, 0.1, 0.2, 0.3]},
    )
    code, _, _ = run_cli(capsys, "distribution", "--config", wide)
    assert code == 3

    # landscape grid cap
    cfg = write_config(tmp_path)
    code, _, _ = run_cli(capsys, "landscape", "--config", cfg, "--steps", "160")
    assert code == 3


def test_block_engines_refuse_n8_before_building_irreps(tmp_path, capsys, monkeypatch):
    def no_irreps(*args, **kwargs):
        pytest.fail("irrep matrices were built for n = 8")

    monkeypatch.setattr(partdist.rates, "irrep_matrices", no_irreps)
    ports = list(range(1, 9))
    configs = [
        write_config(
            tmp_path, "blocked.json", m=8, n=8, engine="blocked",
            detectors=ports, input_ports=ports,
            arrival={**BASE["arrival"], "taus": [0.1 * k for k in range(8)]},
        ),
        write_config(
            tmp_path, "truncated.json", m=8, n=8, engine="truncated",
            detectors=ports, input_ports=ports,
            arrival={**BINNED, "bin_indices": [1, 1, 2, 3, 4, 5, 6, 7]},
        ),
    ]
    for cfg in configs:
        code, out, err = run_cli(capsys, "rate", "--config", cfg)
        assert code == 3
        assert "size limit" in err
        assert out == ""


def run_process(*argv):
    """One CLI run in a fresh interpreter, which inherits this process's
    BLAS thread settings."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-m", "partdist.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_block_engine_reruns_are_byte_identical_across_processes(tmp_path):
    # the determinism contract of the cli module: same build, same BLAS
    # thread count, cold caches in each process
    landscape = write_config(tmp_path, "landscape.json", engine="blocked")
    truncated = write_config(tmp_path, "truncated.json", engine="truncated", arrival=BINNED)
    for argv in (
        ("landscape", "--config", landscape, "--steps", "9"),
        ("distribution", "--config", truncated),
    ):
        first, second = run_process(*argv), run_process(*argv)
        assert first.returncode == 0 and second.returncode == 0, first.stderr
        assert first.stdout and first.stdout == second.stdout
        timing = first.stderr.splitlines()[0].split()
        assert timing[0].startswith("wall_time_s=")
        assert timing[1].startswith("parseval_residual=")
        assert float(timing[1].removeprefix("parseval_residual=")) >= 0.0


# ---------------------------------------------------------------------------
# distribution


def test_distribution_stdout_is_jsonl_plus_summary(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out, err = run_cli(capsys, "distribution", "--config", cfg)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == math.comb(6, 3)
    probs = []
    for line in lines:
        entry = json.loads(line)
        assert set(entry) == {"s", "rate", "prob"}
        assert len(entry["s"]) == 6 and entry["s"].count("1") == 3
        probs.append(entry["prob"])
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)
    summary = stderr_payload(err)
    assert summary["strings"] == 20
    assert 0 < summary["entropy_bits"] < math.log2(20)
    assert summary["max_prob"] == pytest.approx(max(probs))


def test_distribution_out_file(tmp_path, capsys):
    cfg = write_config(tmp_path)
    target = tmp_path / "dist.jsonl"
    code, out, _ = run_cli(capsys, "distribution", "--config", cfg, "--out", str(target))
    assert code == 0
    summary = json.loads(out)
    assert summary["out"] == str(target)
    lines = target.read_text().strip().splitlines()
    assert len(lines) == 20


def test_distribution_point_mass_when_all_ports_fire(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        m=2,
        n=2,
        detectors=[1, 2],
        input_ports=[1, 2],
        arrival={**BASE["arrival"], "taus": [0.1, 0.3]},
    )
    code, out, err = run_cli(capsys, "distribution", "--config", cfg)
    assert code == 0
    (line,) = out.strip().splitlines()
    entry = json.loads(line)
    assert entry["s"] == "11"
    assert entry["prob"] == pytest.approx(1.0, abs=1e-12)
    assert stderr_payload(err)["entropy_bits"] == pytest.approx(0.0, abs=1e-9)


def test_equal_time_fermions_match_indistinguishable_reference(tmp_path, capsys):
    arrival = {**BINNED, "bin_indices": [3, 3, 3]}
    cfg = write_config(tmp_path, species="fermion", arrival=arrival)
    code, _, err = run_cli(capsys, "distribution", "--config", cfg)
    assert code == 0
    summary = stderr_payload(err)
    assert summary["tv_from_indistinguishable"] < 1e-9
    assert summary["tv_from_distinguishable"] > 1e-3


def test_far_separated_times_match_distinguishable_reference(tmp_path, capsys):
    arrival = {
        "type": "continuous",
        "taus": [0.01, 0.45, 0.93],
        "delta_omega": 500.0,
        "window": 1.0,
        "bins": 8,
    }
    cfg = write_config(tmp_path, arrival=arrival)
    code, _, err = run_cli(capsys, "distribution", "--config", cfg)
    assert code == 0
    summary = stderr_payload(err)
    assert summary["tv_from_distinguishable"] < 1e-9
    assert summary["tv_from_indistinguishable"] > 1e-3


# ---------------------------------------------------------------------------
# sample


def test_sample_is_seed_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, first, err = run_cli(capsys, "sample", "--config", cfg, "--count", "50")
    assert code == 0
    meta = stderr_payload(err)
    assert meta["count"] == 50 and meta["seed"] == 11
    code, second, _ = run_cli(capsys, "sample", "--config", cfg, "--count", "50")
    assert first == second
    code, other, _ = run_cli(capsys, "sample", "--config", cfg, "--count", "50", "--seed", "99")
    assert first != other
    for line in first.strip().splitlines():
        assert len(line) == 6 and line.count("1") == 3 and set(line) <= {"0", "1"}


# ---------------------------------------------------------------------------
# landscape


def read_landscape(out):
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config_hash=")
    header = lines[1].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    return header, rows


def test_landscape_is_invariant_under_global_time_shift(tmp_path, capsys):
    cfg = write_config(tmp_path)
    _, out0, _ = run_cli(
        capsys, "landscape", "--config", cfg, "--range", "-1", "1", "--steps", "7"
    )
    _, out4, _ = run_cli(
        capsys, "landscape", "--config", cfg, "--range", "-1", "1",
        "--steps", "7", "--shift", "4.0",
    )
    header, rows0 = read_landscape(out0)
    _, rows4 = read_landscape(out4)
    assert header == ["dtau_2", "dtau_3", "rate"]
    assert rows0.shape == (49, 3)
    np.testing.assert_allclose(rows4, rows0, atol=1e-12)


def test_landscape_balanced_splitter_dip(tmp_path, capsys):
    root = 1 / math.sqrt(2)
    bs = tmp_path / "bs.json"
    bs.write_text(json.dumps([[[root, 0.0], [root, 0.0]], [[root, 0.0], [-root, 0.0]]]))
    cfg = write_config(
        tmp_path,
        m=2,
        n=2,
        unitary={"type": "file", "path": str(bs)},
        detectors=[1, 2],
        input_ports=[1, 2],
        arrival={
            "type": "continuous",
            "taus": [0.0, 0.0],
            "delta_omega": 1.0,
            "window": 1.0,
            "bins": 4,
        },
    )
    code, out, _ = run_cli(
        capsys, "landscape", "--config", cfg, "--range", "-2", "2", "--steps", "41"
    )
    assert code == 0
    header, rows = read_landscape(out)
    assert header == ["dtau_2", "rate"]
    d, rate = rows[:, 0], rows[:, 1]
    # coincidences vanish at zero relative delay and grow monotonically away
    assert rate[20] < 1e-12
    assert np.all(np.diff(rate[20:]) > 0)
    np.testing.assert_allclose(rate, rate[::-1], atol=1e-12)
    np.testing.assert_allclose(rate, 0.5 * (1 - np.exp(-(d**2))), atol=1e-9)


def test_landscape_refuses_truncated_engine(tmp_path, capsys):
    cfg = write_config(tmp_path, engine="truncated", arrival=BINNED)
    code, _, err = run_cli(capsys, "landscape", "--config", cfg)
    assert code == 2
    assert "landscape" in err


def test_landscape_needs_axis_above_three_particles(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        m=6,
        n=4,
        detectors=[1, 2, 3, 4],
        input_ports=[1, 2, 3, 4],
        arrival={**BASE["arrival"], "taus": [0.0, 0.1, 0.2, 0.3]},
    )
    code, _, _ = run_cli(capsys, "landscape", "--config", cfg, "--steps", "5")
    assert code == 2
    code, out, _ = run_cli(
        capsys, "landscape", "--config", cfg, "--steps", "5", "--axis", "4"
    )
    assert code == 0
    header, rows = read_landscape(out)
    assert header == ["dtau_4", "rate"] and rows.shape == (5, 2)


# ---------------------------------------------------------------------------
# analyze / gamas-table


def test_analyze_matches_library_report(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--n", "6", "--b", "8")
    assert code == 0
    got = json.loads(out)
    got.pop("config_hash")
    want = json.loads(json.dumps(analysis.analyze_report(6, 8)))
    assert got == want


def test_gamas_table_matches_vanishing_predicate(capsys):
    code, out, _ = run_cli(capsys, "gamas-table", "--n", "6")
    assert code == 0
    lines = out.strip().splitlines()
    parts = partitions_of(6)
    labels = ["+".join(map(str, p)) for p in parts]
    assert lines[2].split() == labels
    assert len(lines) == 3 + len(parts)
    for lam, line in zip(parts, lines[3:]):
        tokens = line.split()
        assert tokens[0] == "+".join(map(str, lam))
        assert len(tokens) == 1 + len(parts)
        for mu, cell in zip(parts, tokens[1:]):
            assert cell == ("0" if gamas_vanishes(lam, mu) else ".")


def test_gamas_table_rejects_large_n(capsys):
    code, _, _ = run_cli(capsys, "gamas-table", "--n", "13")
    assert code == 2
