"""The partdist benchmark: one workload, run for a set time, checked.

    python3 perfbench/run.py --workload rate_n7 --seed 1 --seconds 20 --trace 0

Run from the root of a partdist checkout; the package is taken from
``src/``.  The workload's inputs are made from ``--seed`` (see
:mod:`workloads`), and every operation is one ``partdist`` CLI process in a
fresh interpreter, run one at a time, timed by wall clock and measured for
peak RSS with ``os.wait4``.  Rounds of all the workload's operations repeat,
at least the workload's ``min_rounds`` and then while another round is
expected to end within ``--seconds``; each round's outputs are checked.  With
``--trace 1`` every operation runs under :mod:`spans` and the per-layer
metrics are reported instead of the end-to-end ones.  The last line of
stdout is the JSON result; progress goes to stderr.  Artifacts and spans are
left in ``perfbench/_out/<workload>-trace<0|1>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 165  # stop starting operations after this; every run ends within 180 s
END_TO_END = {  # metric -> unit
    "setup_s": "s",
    "rates_per_s": "1/s",
    "direct_s": "s",
    "streaming_s": "s",
    "blocked_s": "s",
    "direct_rss_mb": "MB",
    "streaming_rss_mb": "MB",
    "blocked_rss_mb": "MB",
}


class Runner:
    """Starts one process at a time and waits for it with ``os.wait4``."""

    def __init__(self, outdir: Path, deadline: float):
        self.outdir = outdir
        self.deadline = deadline
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def spawn(self, argv, stdout, stderr) -> tuple[int, float, float]:
        """Exit code, wall seconds and peak RSS in MB of one child; the child
        is killed once the run's deadline has passed."""
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.outdir, env=self.env, stdout=stdout, stderr=stderr)
        left = self.deadline - time.monotonic()

        def kill(*_):
            os.kill(proc.pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, max(left, 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def setup(self) -> float:
        rc, wall, _ = self.spawn([sys.executable, "-c", "import partdist"], subprocess.DEVNULL, None)
        if rc != 0:
            raise SystemExit("error: 'import partdist' failed")
        return wall

    def op(self, op: workloads.Op, trace: bool, tag: str):
        """Run one operation; returns its result, wall time, RSS and, when
        traced, its per-layer metrics."""
        artifact = self.outdir / op.out
        artifact.unlink(missing_ok=True)
        if trace:
            span_file = f"spans-{tag}-{op.id}.jsonl"
            argv = [sys.executable, str(HERE / "spans.py"), "--spans", span_file, "--op", f"{tag}-{op.id}",
                    "--", *op.argv]
        else:
            argv = [sys.executable, "-m", "partdist.cli", *op.argv]
        stdout_path = self.outdir / f"{op.id}.stdout"
        with open(stdout_path, "w") as out, open(self.outdir / f"{op.id}.stderr", "w") as err:
            rc, wall, rss = self.spawn(argv, out, err)
        result = workloads.Result(rc, artifact.read_text() if artifact.exists() else None,
                                  stdout_path.read_text())
        layers = None
        if trace:
            path = self.outdir / span_file
            layers = spans.layer_metrics(path.read_text().splitlines()) if path.exists() else None
        return result, wall, rss, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "partdist" / "cli.py").is_file():
        print(f"error: no partdist sources in {ROOT / 'src'}; run from a partdist checkout", file=sys.stderr)
        return 2
    outdir = HERE / "_out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    runner = Runner(outdir, time.monotonic() + DEADLINE_S)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so a running child is killed too
    trace = bool(args.trace)

    correct = oracle.selftest()
    wl = workloads.WORKLOADS[args.workload](args.seed, outdir)
    setup = []  # one import after every operation, so the samples span the run
    if not trace:
        runner.setup()  # writes the bytecode caches once

    rounds, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        record = {"wall": {}, "rss": {}, "layers": []}
        results = {}
        for op in wl.ops:
            res, wall, rss, layers = runner.op(op, trace, f"r{len(rounds)}")
            results[op.id] = res
            record["wall"][op.id], record["rss"][op.id] = wall, rss
            if layers is not None:
                record["layers"].append(layers)
            print(f"round {len(rounds)} {op.id}: {wall:.3f} s, {rss:.0f} MB, exit {res.rc}", file=sys.stderr)
            if not trace:
                setup.append(runner.setup())
        for op_id, messages in wl.check(results).items():
            attempted += 1
            if messages:
                failed += 1
                print(f"FAILED {op_id}: " + "; ".join(messages[:5]), file=sys.stderr)
        rounds.append(record)
        # after the workload's minimum, start another round only if it should
        # end within --seconds, so that a round just shorter than the run
        # does not double the run
        now = time.perf_counter()
        if len(rounds) >= wl.min_rounds and now + (now - round_start) - start > args.seconds \
                or time.monotonic() > runner.deadline - 60:
            break

    if trace:
        complete = [r for r in rounds if len(r["layers"]) == len(wl.ops)]
        correct = correct and bool(complete)
        per_round = [spans.combine(r["layers"]) for r in complete] or [{}]
        units = spans.units()
        metrics = {name: {"value": statistics.median(r.get(name, 0) for r in per_round), "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = end_to_end(wl.ops, rounds, setup)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def end_to_end(ops, rounds, setup) -> dict:
    """Medians over rounds of the per-round sums; RSS is the largest seen."""
    def median_of(fn):
        return statistics.median(fn(r) for r in rounds)

    values = {
        "setup_s": statistics.median(setup),
        "rates_per_s": median_of(lambda r: sum(op.rates for op in ops) / sum(r["wall"].values())),
    }
    for kind in ("direct", "streaming", "blocked"):
        ids = [op.id for op in ops if op.kind == kind]
        values[f"{kind}_s"] = median_of(lambda r: sum(r["wall"][i] for i in ids))
        values[f"{kind}_rss_mb"] = max(r["rss"][i] for r in rounds for i in ids)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


if __name__ == "__main__":
    sys.exit(main())
