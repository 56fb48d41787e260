"""End-to-end tests for the command-line interface.

Everything runs in-process through ``main(argv)`` so exit codes, stdout
artifacts, and stderr diagnostics are all observable.  Wall-clock timing
lines go to stderr by design, so stdout comparisons can be byte-exact.
"""

import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import partdist.cli
import partdist.interferometer
import partdist.rates
import partdist.errors
import partdist.sampling
import partdist.symgroup
from partdist import analysis
from partdist.cli import main
from partdist.interferometer import haar_unitary, output_text, submatrix, unitary_to_json
from partdist.rates import gamas_vanishes, rate_direct_streaming
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


@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_truncated_on_continuous_times_keeps_every_block(tmp_path, capsys, species):
    # distinct continuous times share no row of the delay matrix, so the
    # Gamas partition is (1, 1, 1), nothing is dropped and truncated is
    # blocked bit for bit
    reports = {}
    for engine in ("blocked", "truncated"):
        cfg = write_config(tmp_path, f"{engine}.json", engine=engine, species=species)
        code, out, err = run_cli(capsys, "rate", "--config", cfg)
        assert code == 0, err
        reports[engine] = json.loads(out)
    blocked, truncated = reports["blocked"], reports["truncated"]
    assert truncated["rate"] == blocked["rate"] > 0
    assert truncated["blocks"] == blocked["blocks"]
    assert all(b["kept"] for b in truncated["blocks"])
    for command in ("distribution", "sample"):
        outs = [run_cli(capsys, command, "--config", cfg, "--engine", engine)
                for engine in ("blocked", "truncated")]
        assert outs[0][0] == outs[1][0] == 0
        assert outs[0][1] == outs[1][1]


REPORT_ARRIVALS = {
    "continuous": BASE["arrival"],
    "mixed bins": {**BINNED, "bin_indices": [2, 7, 2]},
    "one bin": {**BINNED, "bin_indices": [5, 5, 5]},
}


@pytest.mark.parametrize("arrival", sorted(REPORT_ARRIVALS))
@pytest.mark.parametrize("species", ["boson", "fermion"])
@pytest.mark.parametrize("engine", ["blocked", "truncated"])
def test_rate_report_terms_sum_to_the_printed_rate(tmp_path, capsys, engine, species, arrival):
    # the report is the one the engine summed: the kept terms, added in
    # report order, give the printed rate bit for bit unless that sum is
    # below 0 and clamped; blocked keeps every label, and on one bin
    # truncated keeps one
    cfg = write_config(tmp_path, engine=engine, species=species, arrival=REPORT_ARRIVALS[arrival])
    code, out, err = run_cli(capsys, "rate", "--config", cfg)
    assert code == 0, err
    report = json.loads(out)
    assert [tuple(b["lam"]) for b in report["blocks"]] == list(partitions_of(3))
    kept = [tuple(b["lam"]) for b in report["blocks"] if b["kept"]]
    total = sum(b["term"] for b in report["blocks"] if b["kept"])
    assert report["rate"] == (total if total >= 0 else 0.0)
    if engine == "blocked":
        assert kept == list(partitions_of(3))
    elif arrival == "one bin":
        assert kept == [(3,) if species == "boson" else (1, 1, 1)]


def test_retired_approximate_truncation_key_is_ignored(tmp_path, capsys):
    # a config that still carries the key loads as one without it, like any
    # unknown key, and the hash is that of the resolved config, which has no
    # such key: here BASE with the engine set
    plain = write_config(tmp_path, "plain.json", engine="truncated")
    for value in (True, False):
        keyed = write_config(tmp_path, f"keyed{value}.json", engine="truncated",
                             allow_approximate_truncation=value)
        for command in ("rate", "distribution"):
            want = run_cli(capsys, command, "--config", plain)
            got = run_cli(capsys, command, "--config", keyed)
            assert got[0] == want[0] == 0
            assert got[1] == want[1]
    code, out, _ = run_cli(capsys, "rate", "--config", plain)
    resolved = json.dumps({**BASE, "engine": "truncated"}, sort_keys=True, separators=(",", ":"))
    assert json.loads(out)["config_hash"] == hashlib.sha256(resolved.encode()).hexdigest()


def test_rate_rerun_is_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, engine="blocked")
    code, first, _ = run_cli(capsys, "rate", "--config", cfg)
    assert code == 0
    code, second, _ = run_cli(capsys, "rate", "--config", cfg)
    assert code == 0
    assert first == second


def test_engine_and_chunk_overrides_change_hash_not_rate(tmp_path, capsys):
    cfg = write_config(tmp_path)
    chunked_cfg = write_config(tmp_path, "chunked.json", chunk=3)
    _, base_out, _ = run_cli(capsys, "rate", "--config", cfg)
    _, blocked_out, _ = run_cli(capsys, "rate", "--config", cfg, "--engine", "blocked")
    _, chunk_out, _ = run_cli(capsys, "rate", "--config", chunked_cfg)
    base, blocked, chunked = map(json.loads, (base_out, blocked_out, chunk_out))
    assert blocked["rate"] == pytest.approx(base["rate"], rel=1e-9)
    assert chunked["rate"] == pytest.approx(base["rate"], rel=1e-12)
    assert len({base["config_hash"], blocked["config_hash"], chunked["config_hash"]}) == 3


def test_chunk_is_a_config_key_and_the_flag_is_gone(tmp_path, capsys):
    # "chunk" alone selects the streaming engine for direct and is hashed
    # as resolved; the retired --threads-chunk flag is an unknown argument
    cfg = write_config(tmp_path, chunk=3)
    code, out, err = run_cli(capsys, "rate", "--config", cfg)
    assert code == 0 and "cancellation=" in err
    resolved = json.dumps({**BASE, "chunk": 3}, sort_keys=True, separators=(",", ":"))
    assert json.loads(out)["config_hash"] == hashlib.sha256(resolved.encode()).hexdigest()
    with pytest.raises(SystemExit) as exited:
        main(["rate", "--config", cfg, "--threads-chunk", "3"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --threads-chunk" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "overrides, argv, field",
    [
        pytest.param({"n": True}, (), "'n'", id="n-true"),
        pytest.param({"chunk": True}, (), "'chunk'", id="chunk-true"),
        pytest.param({"input_ports": [True, 2, 3]}, (), "'input_ports'", id="port-true"),
        pytest.param({"arrival": {**BINNED, "bin_indices": [True, 4, 7]}}, (),
                     "'arrival.bin_indices'", id="bin-index-true"),
        pytest.param({"arrival": {**BASE["arrival"], "window": 2.0, "taus": [True, 0.42, 0.77]}}, (),
                     "'arrival.taus'", id="tau-true"),
        pytest.param({"seed": -1}, (), "'seed'", id="seed-negative"),
        pytest.param({}, ("--seed", "-1"), "--seed", id="seed-flag-negative"),
        pytest.param({"unitary": {"type": "haar", "seed": -5}}, (), "'unitary.seed'",
                     id="unitary-seed-negative"),
        pytest.param({"unitary": {"type": "haar", "seed": 2.5}}, (), "'seed'", id="unitary-seed-float"),
        pytest.param({"unitary": {"type": "haar", "seed": True}}, (), "'seed'", id="unitary-seed-true"),
    ],
)
def test_booleans_and_bad_seeds_exit_2(tmp_path, capsys, overrides, argv, field):
    # JSON true is a Python int, and NumPy refuses negative or fractional
    # seeds with its own exceptions: each must be a config error naming its
    # field, not a traceback or a silent reading as 1
    cfg = write_config(tmp_path, **overrides)
    code, out, err = run_cli(capsys, "sample", "--config", cfg, "--count", "3", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and field in err


def test_missing_and_malformed_config_files_exit_2(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "rate", "--config", str(tmp_path / "nope.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "rate", "--config", str(bad))
    assert code == 2
    assert "JSON" in err


def test_missing_and_malformed_unitary_files_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad_unitary.json"
    bad.write_text("[[[1, 0]], oops")
    for path, says in ((tmp_path / "nope.json", "cannot read"), (bad, "JSON")):
        cfg = write_config(tmp_path, m=1, n=1, unitary={"type": "file", "path": str(path)},
                           arrival={**BASE["arrival"], "taus": [0.0]}, detectors=[1], input_ports=[1])
        for argv in (("rate",), ("distribution",)):
            code, out, err = run_cli(capsys, *argv, "--config", cfg)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and says in err and str(path) in err


MALFORMED_UNITARIES = {
    "ragged row": "[[[1, 0], [0, 0]], [[0, 0]]]",
    "triple": "[[[1, 0, 0]]]",
    "string": '[[["1", 0]]]',
    "null": "[[[null, 0]]]",
    "huge integer": f"[[[{10**400}, 0]]]",  # too large for a float
    "not square": "[[[1, 0], [0, 0]]]",
}


@pytest.mark.parametrize("content", sorted(MALFORMED_UNITARIES))
def test_unitary_file_of_the_wrong_shape_or_content_exits_2(tmp_path, capsys, content):
    path = tmp_path / "unitary.json"
    path.write_text(MALFORMED_UNITARIES[content])
    with pytest.raises(partdist.errors.DomainError, match="malformed unitary file"):
        partdist.interferometer.unitary_from_json(path)
    cfg = write_config(tmp_path, m=1, n=1, unitary={"type": "file", "path": str(path)},
                       arrival={**BASE["arrival"], "taus": [0.0]}, detectors=[1], input_ports=[1])
    code, out, err = run_cli(capsys, "rate", "--config", cfg)
    assert code == 2 and out == ""
    assert err.startswith("error: malformed unitary file") and str(path) in err


def test_a_width_or_window_that_is_not_finite_exits_2(tmp_path, capsys):
    # json reads NaN and Infinity: a NaN width made an all-NaN delay matrix,
    # and window Infinity put every particle in bin 1 while the delay
    # matrix kept them apart, so rate printed "bin_partition": [3]
    for arrival in (BASE["arrival"], BINNED):
        for field, value in (("delta_omega", math.nan), ("delta_omega", math.inf),
                             ("delta_omega", 1e200), ("window", math.nan), ("window", math.inf)):
            cfg = write_config(tmp_path, arrival={**arrival, field: value})
            if not math.isfinite(value):
                assert ("NaN" if math.isnan(value) else "Infinity") in Path(cfg).read_text()
            for argv in (("rate",), ("distribution",), ("landscape", "--steps", "3")):
                code, out, err = run_cli(capsys, *argv, "--config", cfg)
                assert code == 2 and out == "", (arrival["type"], field, value, argv)
                assert err.startswith("error: ") and f"{field} must be finite and positive" in err


def test_unitary_file_off_by_2e_6_exits_2(tmp_path, capsys):
    # one column of a Haar unitary scaled by 1 + 1e-6: the diagonal of
    # U^dag U is off by 2e-6, far above the stated 1e-10
    U = haar_unitary(6, seed=5).matrix.copy()
    U[:, 3] *= 1 + 1e-6
    path = tmp_path / "skewed.json"
    path.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in U.tolist()]))
    cfg = write_config(tmp_path, unitary={"type": "file", "path": str(path)})
    code, out, err = run_cli(capsys, "rate", "--config", cfg)
    assert code == 2 and out == ""
    assert "not unitary within 1e-10" in err


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


def refuse_group_at_8(monkeypatch):
    """Make every enumeration of S_n from n = 8 on fail, in each module of
    the CLI, rate and group layers that looks all_permutations up."""
    enumerate_group = partdist.symgroup.all_permutations

    def all_permutations(n, *args, **kwargs):
        if n >= 8:
            pytest.fail(f"S_{n} was enumerated before the size guard")
        return enumerate_group(n, *args, **kwargs)

    for module in (partdist.cli, partdist.sampling, partdist.rates, partdist.symgroup):
        if hasattr(module, "all_permutations"):
            monkeypatch.setattr(module, "all_permutations", all_permutations)


def test_block_engines_refuse_n8_before_building_irreps(tmp_path, capsys, monkeypatch):
    def no_irreps(*args, **kwargs):
        pytest.fail("irrep matrices were built on a block route")

    plan = partdist.symgroup._level_plan
    levels = set()

    def level_plan(k):
        if k >= 8:
            pytest.fail("a fast Fourier transform plan was built for n = 8")
        levels.add(k)
        return plan(k)

    monkeypatch.setattr(partdist.rates, "irrep_matrices", no_irreps)
    monkeypatch.setattr(partdist.symgroup, "_level_plan", level_plan)
    refuse_group_at_8(monkeypatch)
    # the block routes run on the FFT plans and build no irreps at all
    code, _, _ = run_cli(capsys, "rate", "--config", write_config(tmp_path), "--engine", "blocked")
    assert code == 0
    assert levels == {2, 3}
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


def test_direct_engine_refuses_n8_before_walking(tmp_path, capsys, monkeypatch):
    def no_walk(*args, **kwargs):
        pytest.fail("the composition table was filled at n = 8")

    permanent = partdist.rates.permanent

    def permanent_below_8(M):
        if np.shape(M)[-1] >= 8:
            pytest.fail("permanents of degree 8 were evaluated")
        return permanent(M)

    monkeypatch.setattr(partdist.rates, "_composition_rows", no_walk)
    monkeypatch.setattr(partdist.rates, "permanent", permanent_below_8)
    refuse_group_at_8(monkeypatch)
    ports = list(range(1, 9))
    cfg = write_config(
        tmp_path, "direct.json", m=8, n=8, engine="direct", detectors=ports, input_ports=ports,
        arrival={**BASE["arrival"], "taus": [0.1 * k for k in range(8)]},
    )
    for argv in (("rate",), ("landscape", "--axis", "2", "--steps", "5")):
        code, out, err = run_cli(capsys, *argv, "--config", cfg)
        assert code == 3
        assert "size limit" in err
        assert out == ""


def test_direct_engine_one_string_builds_no_walk_and_no_monomial_vector(tmp_path, capsys,
                                                                      monkeypatch):
    # rate and landscape take the autocorrelation from n! permanents of the
    # submatrix; only R (distribution, sample) is filled from the composition table
    def refuse(*args, **kwargs):
        pytest.fail("the one-string direct route filled R's rows or built a monomial vector")

    for name in ("_composition_rows", "monomial_vector"):
        monkeypatch.setattr(partdist.rates, name, refuse)
    monkeypatch.setattr(partdist.interferometer, "monomial_vector", refuse)
    ports = list(range(1, 8))
    cfg = write_config(tmp_path, "seven.json", m=9, n=7, species="fermion", detectors=ports,
                       input_ports=ports,
                       arrival={**BASE["arrival"], "taus": [0.11 * k for k in range(7)]})
    for argv in (("rate",), ("landscape", "--axis", "3", "--steps", "5")):
        code, out, err = run_cli(capsys, *argv, "--config", cfg)
        assert code == 0, err
        assert out


def run_python(*args, threads=None):
    """A fresh interpreter run with ``args`` and this checkout's ``src`` on
    its path, which inherits this process's BLAS thread settings unless
    ``threads`` sets OPENBLAS_NUM_THREADS for the child alone."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def run_process(*argv, threads=None, flags=()):
    """One CLI run in a fresh interpreter started with ``flags``."""
    return run_python(*flags, "-m", "partdist.cli", *argv, threads=threads)


# Each refused run names its cause on stderr and exits with a documented
# code, never with a traceback: an --out path that is a directory or lies
# in a missing directory, the retired --shift flag, a missing config and a
# channel count above the cap.
EXIT_CONTRACT = {
    "rate-out-dir": (("rate", "--config", "{cfg}", "--out", "{dir}"), 2),
    "rate-out-missing-dir": (("rate", "--config", "{cfg}", "--out", "{dir}/no/x.json"), 2),
    "distribution-out-dir": (("distribution", "--config", "{cfg}", "--out", "{dir}"), 2),
    "sample-out-dir": (("sample", "--config", "{cfg}", "--count", "3", "--out", "{dir}"), 2),
    "landscape-out-dir": (("landscape", "--config", "{cfg}", "--steps", "3", "--out", "{dir}"), 2),
    "analyze-out-dir": (("analyze", "--n", "4", "--b", "4", "--out", "{dir}"), 2),
    "gamas-table-out-dir": (("gamas-table", "--n", "3", "--out", "{dir}"), 2),
    "landscape-shift": (("landscape", "--config", "{cfg}", "--steps", "3", "--shift", "4"), 2),
    "missing-config": (("rate", "--config", "{dir}/missing.json"), 2),
    "oversized-m": (("rate", "--config", "{big}"), 3),
}


@pytest.mark.parametrize("case", sorted(EXIT_CONTRACT))
def test_refused_runs_exit_with_a_documented_code_and_no_traceback(tmp_path, case):
    argv, code = EXIT_CONTRACT[case]
    paths = {"cfg": write_config(tmp_path), "dir": str(tmp_path),
             "big": write_config(tmp_path, "big.json", m=100_000)}
    done = run_process(*(arg.format(**paths) for arg in argv))
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr and done.stderr.strip(), done.stderr


@pytest.mark.parametrize("command", ["rate", "distribution"])
def test_unwritable_out_is_refused_before_any_engine_runs(tmp_path, capsys, monkeypatch, command):
    # a directory, a path in a missing directory and a file without write
    # access exit 2 before the rates are computed, and nothing is written
    def no_engine(*args, **kwargs):
        pytest.fail("an engine ran for an --out path that cannot be written")

    monkeypatch.setattr(partdist.cli, "engine_rates", no_engine)
    monkeypatch.setattr(partdist.sampling, "engine_rates", no_engine)
    cfg = write_config(tmp_path)
    for out in (str(tmp_path), str(tmp_path / "no" / "x.json")):
        code, stdout, err = run_cli(capsys, command, "--config", cfg, "--out", out)
        assert code == 2 and stdout == "" and f"cannot write {out}" in err, err
    assert not (tmp_path / "no").exists()
    kept = tmp_path / "kept.json"
    kept.write_text("kept")
    access = os.access  # as a user without write permission on kept.json sees it

    def no_write(path, mode):
        return False if os.fspath(path) == str(kept) and mode & os.W_OK else access(path, mode)

    monkeypatch.setattr(os, "access", no_write)
    code, stdout, err = run_cli(capsys, command, "--config", cfg, "--out", str(kept))
    assert code == 2 and stdout == "" and "no write permission" in err, err
    assert kept.read_text() == "kept"


def test_import_partdist_loads_no_numpy_and_no_submodule():
    # every public name imports its module on first access, so the package
    # alone runs only its __init__, and dir() lists the names unloaded
    done = run_python("-X", "importtime", "-c", "import partdist; assert len(dir(partdist)) > 56")
    assert done.returncode == 0, done.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
              if line.startswith("import time:")}
    assert "partdist" in loaded
    assert not {name for name in loaded
                if name == "numpy" or name.startswith(("numpy.", "partdist."))}, loaded
    # sys.modules tells what a first access loads
    done = run_python("-c", "import sys, partdist; partdist.permanent; print(*sys.modules)")
    assert done.returncode == 0, done.stderr
    touched = set(done.stdout.split())
    assert {"numpy", "partdist.matfun", "partdist.symgroup"} <= touched
    assert not touched & {"partdist.rates", "partdist.sampling", "partdist.cli"}
    # a submodule resolves through the package as well, as it did when
    # the package imported it eagerly
    done = run_python("-c", "import partdist; partdist.errors.ClampWarning; "
                      "partdist.rates.engine_rates; partdist.interferometer.output_text; "
                      "partdist.rates.gamas_partition; partdist.sampling.sample")
    assert done.returncode == 0, done.stderr


def test_each_subcommand_imports_only_what_it_runs(tmp_path):
    # rate and landscape compile neither partdist.sampling nor
    # partdist.analysis and never import fractions; the other subcommands
    # import what they use when they run
    cfg = write_config(tmp_path)
    chunked = write_config(tmp_path, "chunked.json", chunk=4)

    def imported(*argv):
        done = run_process(*argv, flags=("-X", "importtime"))
        assert done.returncode == 0 and done.stdout, done.stderr
        return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}

    lazy = {"partdist.sampling", "partdist.analysis", "fractions"}
    for argv in (
        ("rate", "--config", cfg), ("rate", "--engine", "blocked", "--config", cfg),
        ("rate", "--engine", "truncated", "--config", cfg), ("rate", "--config", chunked),
        ("landscape", "--steps", "5", "--config", cfg),
        ("landscape", "--steps", "5", "--engine", "blocked", "--config", cfg),
    ):
        loaded = imported(*argv)
        assert "partdist.rates" in loaded and not loaded & lazy, (argv, loaded & lazy)
    for argv, used in (
        (("distribution", "--config", cfg), {"partdist.sampling"}),
        (("sample", "--config", cfg, "--count", "5"), {"partdist.sampling"}),
        (("analyze", "--n", "6", "--b", "8"), {"partdist.analysis", "fractions"}),
        (("gamas-table", "--n", "5"), set()),
    ):
        assert used <= imported(*argv), argv


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


def test_direct_engine_reruns_are_byte_identical_across_processes(tmp_path):
    # one string through its autocorrelation (rate, landscape), whose
    # element-wise Glynn permanents use no BLAS: only the product with the
    # weighted monomials does, so two BLAS threads and one give the same
    # bytes; R v per string (distribution) reruns at one thread count
    ports = list(range(1, 7))
    six = write_config(tmp_path, "six.json", m=8, n=6, detectors=ports, input_ports=ports,
                       arrival={**BASE["arrival"], "taus": [0.13 * k for k in range(6)]})
    cfg = write_config(tmp_path, species="fermion")
    for argv, threads in (
        (("rate", "--config", six), (2, 1)),
        (("landscape", "--config", six, "--axis", "4", "--steps", "9"), (2, 1)),
        (("landscape", "--config", cfg, "--steps", "9"), (2, 1)),
        (("distribution", "--config", cfg), (None, None)),
    ):
        first, second = (run_process(*argv, threads=t) for t in threads)
        assert first.returncode == 0 and second.returncode == 0, first.stderr
        assert first.stdout and first.stdout == second.stdout


def test_streaming_reruns_are_byte_identical_across_processes(tmp_path):
    # chunk > 0 takes the streaming engine: each subset value is computed on
    # its own, and the chunk's value is hashed but sizes nothing
    rows = []
    for chunk, argv in (
        (2, ("landscape", "--steps", "9")),
        (1000, ("landscape", "--steps", "9")),
        (5, ("distribution",)),
    ):
        cfg = write_config(tmp_path, f"streaming{chunk}.json", species="fermion", chunk=chunk)
        first, second = run_process(*argv, "--config", cfg), run_process(*argv, "--config", cfg)
        assert first.returncode == 0 and second.returncode == 0, first.stderr
        assert first.stdout and first.stdout == second.stdout
        timing = first.stderr.splitlines()[0].split()
        assert timing[0].startswith("wall_time_s=")
        assert timing[1].startswith("cancellation=")
        assert float(timing[1].removeprefix("cancellation=")) >= 1.0
        if argv[0] == "landscape":  # the config hash differs with the chunk
            rows.append(read_landscape(first.stdout)[1])
    assert np.array_equal(rows[0], rows[1])


def test_streaming_routes_build_no_group(tmp_path, capsys, monkeypatch):
    def no_group(*args, **kwargs):
        pytest.fail("the streaming route enumerated the group")

    monkeypatch.setattr(partdist.rates, "all_permutations", no_group)
    monkeypatch.setattr(partdist.symgroup, "all_permutations", no_group)
    monkeypatch.setattr(partdist.rates, "monomial_vector", no_group)
    cfg = write_config(tmp_path, chunk=4)
    for argv in (("rate",), ("distribution",), ("sample", "--count", "5"),
                 ("landscape", "--steps", "5")):
        code, out, err = run_cli(capsys, *argv, "--config", cfg)
        assert code == 0, err
        assert "cancellation=" in err


def big_config(tmp_path, n, species, m=None):
    m = n + 2 if m is None else m
    ports = list(range(1, n + 1))
    return write_config(
        tmp_path, f"n{n}.json", m=m, n=n, species=species, chunk=64,
        detectors=ports, input_ports=ports,
        arrival={**BINNED, "bin_indices": [1] * n},
    )


def test_streaming_size_guard_exits_3_before_evaluating(tmp_path, capsys, monkeypatch):
    # under the test suite's 4 GiB address-space cap
    def no_evaluation(*args, **kwargs):
        pytest.fail("a subset matrix was evaluated past the size guard")

    monkeypatch.setattr(partdist.rates, "_glynn", no_evaluation)
    monkeypatch.setattr(partdist.rates.np.linalg, "det", no_evaluation)
    for n, species in ((15, "boson"), (20, "fermion")):
        code, out, err = run_cli(capsys, "rate", "--config", big_config(tmp_path, n, species))
        assert code == 3, err
        assert "size limit" in err and out == ""


def test_streaming_fermion_rate_at_n12(tmp_path, capsys):
    cfg = big_config(tmp_path, 12, "fermion")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "rate", "--config", cfg)
    assert code == 0, err
    assert time.perf_counter() - start < 30
    rate = json.loads(out)["rate"]
    A = submatrix(haar_unitary(14, seed=5), tuple(range(1, 13)))
    own = rate_direct_streaming(A, np.ones((12, 12)), "fermion")
    assert rate == float(own.rates) > 0.0


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


def test_every_subcommand_reruns_byte_identically(tmp_path, capsys):
    # the cli module's contract: the same (config, seed) gives the same
    # bytes on stdout and in the artifact; only wall_time_s may differ
    cfg = write_config(tmp_path)
    chunked = write_config(tmp_path, "chunked.json", chunk=8)
    runs = [("analyze", "--n", "6", "--b", "8"), ("gamas-table", "--n", "6")]
    for command, extra in (("rate", ()), ("distribution", ()), ("sample", ("--count", "20")),
                           ("landscape", ("--steps", "5"))):
        engines = ("direct", "blocked") if command == "landscape" else ("direct", "blocked", "truncated")
        for choice in [("--config", cfg, "--engine", e) for e in engines] + [("--config", chunked)]:
            runs.append((command, *choice, *extra))
    artifact = tmp_path / "artifact.out"
    for argv in runs:
        for to_file in (False, True):
            seen = []
            for _ in range(2):
                code, out, err = run_cli(capsys, *argv, *(("--out", str(artifact)) if to_file else ()))
                assert code == 0, (argv, err)
                assert err.count("wall_time_s=") == 1
                written = artifact.read_bytes() if to_file else None
                seen.append((out, re.sub(r"wall_time_s=\S+", "wall_time_s=", err), written))
            assert seen[0] == seen[1], argv
            assert seen[0][2] if to_file else seen[0][0]

    # draws with no seed anywhere could not be reproduced: refused before
    # anything is built, whether the unitary is a file or a seeded Haar draw
    unitary = tmp_path / "unitary.json"
    unitary_to_json(haar_unitary(6, seed=5), unitary)
    seedless = {k: v for k, v in BASE.items() if k != "seed"}
    for name, uni in (("file.json", {"type": "file", "path": str(unitary)}),
                      ("haar.json", {"type": "haar", "seed": 5})):
        path = tmp_path / name
        path.write_text(json.dumps({**seedless, "unitary": uni}))
        code, out, err = run_cli(capsys, "sample", "--config", str(path), "--count", "8")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "--seed" in err
        assert run_cli(capsys, "sample", "--config", str(path), "--count", "8", "--seed", "3")[0] == 0
        assert run_cli(capsys, "rate", "--config", str(path))[0] == 0


def test_output_strings_print_as_sorted_0_1_text(tmp_path, capsys):
    # distribution rows in ascending text order, rate's string from its
    # detectors whatever their order, and every draw one of the rows
    code, out, err = run_cli(capsys, "distribution", "--config", write_config(tmp_path))
    assert code == 0, err
    texts = ["".join("1" if k in c else "0" for k in range(6))
             for c in itertools.combinations(range(6), 3)]
    assert [json.loads(line)["s"] for line in out.splitlines()] == sorted(texts)
    for detectors in ([1, 3, 4], [4, 1, 3]):
        cfg = write_config(tmp_path, "rate.json", m=5, detectors=detectors)
        code, rate_out, err = run_cli(capsys, "rate", "--config", cfg)
        assert code == 0, err
        assert json.loads(rate_out)["output_string"] == "10110"
    code, drawn, err = run_cli(capsys, "sample", "--config", write_config(tmp_path), "--count", "200")
    assert code == 0, err
    assert len(drawn.splitlines()) == 200 and set(drawn.splitlines()) <= set(texts)


def test_sample_count_above_the_cap_exits_3_before_drawing(tmp_path, capsys):
    # 10^15 uniform deviates would need 8 PB: only a refusal before the
    # draw gets out with exit 3
    cfg = write_config(tmp_path)
    code, out, err = run_cli(capsys, "sample", "--config", cfg, "--count", str(10**15))
    assert code == 3 and out == ""
    assert "size limit" in err and str(partdist.sampling.MAX_SAMPLE_COUNT) in err


def test_sample_count_is_refused_before_the_distribution_is_built(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("the distribution was built for a refused count")

    monkeypatch.setattr(partdist.sampling, "build_distribution", refuse)  # cli imports it on use
    cfg = write_config(tmp_path)
    for count, want in ((partdist.sampling.MAX_SAMPLE_COUNT + 1, 3), (-1, 2)):
        code, out, err = run_cli(capsys, "sample", "--config", cfg, "--count", str(count))
        assert (code, out) == (want, "")
        assert "size limit:" in err if want == 3 else "error:" in err


def test_sample_artifact_written_line_by_line_keeps_its_bytes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    argv = ("sample", "--config", cfg, "--count", "50")
    _, printed, _ = run_cli(capsys, *argv)
    out = tmp_path / "draws.txt"
    assert run_cli(capsys, *argv, "--out", str(out))[0] == 0
    config = partdist.cli.load_config(cfg, partdist.cli.build_parser().parse_args(argv))
    dist = partdist.cli._build_dist(config)
    text = output_text(dist.strings, dist.m)
    draws = partdist.sampling.sample(dist, 50, config.seed)
    assert printed == out.read_text() == "".join(f"{text[i]}\n" for i in draws)


def test_channel_count_above_the_cap_exits_3_before_any_unitary(tmp_path, capsys, monkeypatch):
    # a 100 000-channel Haar draw would ask for 160 GB of complex matrices
    def refuse(*args, **kwargs):
        pytest.fail("a unitary was drawn or read past the channel cap")

    monkeypatch.setattr(partdist.cli, "haar_unitary", refuse)
    monkeypatch.setattr(partdist.cli, "unitary_from_json", refuse)
    one = {"detectors": [1], "input_ports": [1], "arrival": {**BASE["arrival"], "taus": [0.0]}}
    haar = write_config(tmp_path, "haar.json", m=100_000, n=1, **one)
    listed = write_config(tmp_path, "file.json", m=partdist.cli.MAX_CHANNELS + 1, n=1,
                          unitary={"type": "file", "path": str(tmp_path / "absent.json")}, **one)
    for cfg in (haar, listed):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "rate", "--config", cfg)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err.startswith("size limit:") and "Traceback" not in err


# ---------------------------------------------------------------------------
# landscape


def read_landscape(out):
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config_hash=")
    header = lines[1].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    return header, rows


@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_landscape_stacked_delay_matrices_change_no_bits(tmp_path, capsys, monkeypatch, species):
    # the grid's delay matrices come from one stacked call; fed one point
    # at a time instead, every engine writes the same CSV byte for byte
    cfg = write_config(tmp_path, species=species)
    chunked = write_config(tmp_path, "chunked.json", species=species, chunk=3)
    runs = [("--config", cfg, "--engine", "direct"), ("--config", chunked, "--engine", "direct"),
            ("--config", cfg, "--engine", "blocked")]
    argv = ("landscape", "--range", "-1.5", "2", "--steps", "9")
    stacked = [run_cli(capsys, *argv, *extra) for extra in runs]

    one_at_a_time = partdist.cli.delay_matrix_from_times

    def per_point(taus, delta_omega):
        taus = np.asarray(taus)
        n = taus.shape[-1]
        rows = [one_at_a_time(t, delta_omega) for t in taus.reshape(-1, n)]
        return np.stack(rows).reshape(taus.shape + (n,))

    monkeypatch.setattr(partdist.cli, "delay_matrix_from_times", per_point)
    looped = [run_cli(capsys, *argv, *extra) for extra in runs]
    for (code, out, err), (code2, out2, _) in zip(stacked, looped):
        assert code == code2 == 0, err
        assert out == out2
        assert len(read_landscape(out)[1]) == 81


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


def test_analyze_takes_any_bin_count_exactly(capsys):
    # b! is never formed: a trillion bins cost no more than eight
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", "--n", "12", "--b", str(10**12))
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    report = json.loads(out)
    assert sum(Fraction(row["prob"]) for row in report["partitions"]) == 1
    assert Fraction(report["p_exact"]) == analysis.witness_probability(12, 10**12).exact


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


def test_clamped_rates_are_counted_on_stderr(tmp_path, capsys, monkeypatch):
    binned = write_config(tmp_path, "binned.json", arrival=BINNED)
    chunked = write_config(tmp_path, "chunked.json", arrival=BINNED, chunk=8)
    runs = (("distribution", "--engine", "blocked", "--config", binned),
            ("sample", "--engine", "truncated", "--count", "3", "--config", binned),
            ("landscape", "--engine", "blocked", "--steps", "5", "--config", binned),
            ("distribution", "--config", chunked))
    clean = {}
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and "clamped=" not in err
        clean[argv] = out

    # every block rate call (one per run here) meets two raw rates 1e-12
    # below 0, within the tolerance; on the streaming route (a step budget of
    # 8 distinct subset matrices) every subset value but the full sets' is
    # replaced by 0, so each rate is the permanent of its full P_S (a
    # positive semidefinite matrix, so >= 0), and the first string's by
    # -1e-30, a raw rate below 0 but within its rounding bound; both routes
    # are judged by _finalize_rate, the streaming one with its bounds, which
    # the stub leaves as they are
    finalize = partdist.rates._finalize_rate

    def one_negative(value, bounds=None):
        if bounds is not None:
            return finalize(value, bounds)
        value = np.array(value, dtype=complex)
        value.flat[:2] = -1e-12
        return finalize(value)

    distinct = partdist.rates._distinct_subsets
    codes = []

    def record_codes(rowid, rows):
        code, pair = distinct(rowid, rows)
        codes.append(code)
        return code, pair

    glynn = partdist.rates._glynn
    steps = []

    def full_sets_only(M):
        values = glynn(M)
        done = sum(steps)
        steps.append(len(M))
        step = np.arange(done, done + len(M))  # subsets are evaluated in code order
        full = codes[-1][:, -1]
        values[~np.isin(step, full)] = 0.0
        values[step == full[0]] = -1e-30
        return values

    monkeypatch.setattr(partdist.rates, "_finalize_rate", one_negative)
    monkeypatch.setattr(partdist.rates, "_distinct_subsets", record_codes)
    monkeypatch.setattr(partdist.rates, "_glynn", full_sets_only)
    eight = 8 * partdist.rates._subset_bytes(3, "boson")
    monkeypatch.setattr(partdist.rates, "STREAMING_STEP_BYTES", eight)
    for argv in runs:
        with pytest.warns(partdist.errors.ClampWarning) as caught:
            code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        timing = [line for line in err.splitlines() if line.startswith("wall_time_s=")]
        want = (2, -1e-12) if "--engine" in argv else (1, -1e-30)
        assert len(timing) == 1 and timing[0].split()[-1] == f"clamped={want[0]}", err
        clamps = [w.message for w in caught if w.category is partdist.errors.ClampWarning]
        assert [(w.count, w.lowest) for w in clamps] == [want]
        if argv[0] != "sample":
            assert out != clean[argv]
    assert steps[0] == 8
