"""The benchmark's workloads: inputs made from a seed, the partdist CLI
operations run on them, and the checks on every output.

Each operation is one ``partdist`` CLI process.  Its ``kind`` is the engine
route it exercises (``direct``, ``streaming`` or ``blocked``, where
``blocked`` covers the truncated engine too), which decides the end-to-end
metrics its wall time and peak RSS count toward; ``rates`` is the number of
coincidence rates it evaluates.  Checks compare outputs with
:mod:`oracle`, which shares no code with the program, and with each other;
every tolerance is a rounding bound from :mod:`oracle`.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

WINDOW = 4.0
BINS = 4
DELTA_OMEGA = 1.0
FAR = 10.0  # |d| at the ends of a landscape: overlap exp(-50) with the rest
SAMPLE_FAILURE = 1e-9  # chance that a correct sampler exceeds the TV bound


@dataclass(frozen=True)
class Op:
    id: str
    kind: str
    argv: tuple[str, ...]
    rates: int
    out: str


@dataclass(frozen=True)
class Result:
    """What one operation left behind: exit code, artifact and stdout."""

    rc: int
    out: str | None
    stdout: str


class Input:
    """One (A, r, species) problem with its oracle rate and the norms that
    the engine rounding bounds need."""

    def __init__(self, A: np.ndarray, taus, species: str):
        r = oracle.delay_matrix(taus, DELTA_OMEGA)
        self.species, self.n = species, A.shape[0]
        self.v_norm2 = float(oracle.distinguishable(A)[0])
        self.r_norm = oracle.rate_matrix_norm(r, species)
        self.rate = oracle.rate(A, r, species)

    def bound(self, kind: str) -> float:
        return oracle.engine_bound(kind, self.n, self.v_norm2, self.r_norm)


class Failures(dict):
    """Check messages per operation id."""

    def close(self, op: Op, what: str, got: float, want: float, tol: float) -> None:
        if not abs(got - want) <= tol:
            self[op.id].append(f"{what}: {got!r} vs {want!r}, tolerance {tol:.3e}")

    def require(self, op: Op, ok: bool, what: str) -> None:
        if not ok:
            self[op.id].append(what)


def partition_count(n: int, largest: int | None = None) -> int:
    largest = n if largest is None else largest
    if n == 0:
        return 1
    return sum(partition_count(n - k, k) for k in range(1, min(n, largest) + 1))


def binned_times(indices) -> list[float]:
    return [(c - 0.5) * WINDOW / BINS for c in indices]


def occupancy_indices(rng: np.random.Generator, occupancy) -> list[int]:
    """Bin index per particle with the given bin tallies, bins and particles
    shuffled by the seed."""
    bins = rng.permutation(BINS)[: len(occupancy)] + 1
    indices = [int(b) for b, k in zip(bins, occupancy) for _ in range(k)]
    return [int(c) for c in rng.permutation(indices)]


def ports(rng: np.random.Generator, m: int, n: int) -> list[int]:
    return sorted(int(p) + 1 for p in rng.choice(m, size=n, replace=False))


class Workload:
    """Base: a directory of generated inputs, the operations, the checks."""

    min_rounds = 1

    def __init__(self, seed: int, outdir: Path):
        self.rng = np.random.default_rng([seed, self.stream])
        self.outdir = Path(outdir)
        self.ops: list[Op] = []

    def write(self, name: str, obj) -> str:
        (self.outdir / name).write_text(json.dumps(obj))
        return name

    def unitary(self, m: int) -> tuple[np.ndarray, str]:
        U = oracle.haar_unitary(m, self.rng)
        name = self.write(f"unitary{m}.json", [[[z.real, z.imag] for z in row] for row in U.tolist()])
        return U, name

    def config(self, name: str, m: int, n: int, unitary: str, arrival: dict, **extra) -> str:
        arrival = dict(arrival, delta_omega=DELTA_OMEGA, window=WINDOW, bins=BINS)
        cfg = {"m": m, "n": n, "unitary": {"type": "file", "path": unitary},
               "arrival": arrival, **extra}
        return self.write(name, cfg)

    def check(self, results: dict[str, Result]) -> dict[str, list[str]]:
        """Messages per operation id; an operation with none passed."""
        fail = Failures({op.id: [] for op in self.ops})
        parsed = {}
        for op in self.ops:
            res = results[op.id]
            if res.rc != 0:
                fail[op.id].append(f"exit code {res.rc}")
                continue
            try:
                parsed[op.id] = self.parse(op, res)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                fail[op.id].append(f"unreadable output: {exc!r}")
        self.check_outputs(parsed, fail)
        return dict(fail)

    def parse(self, op: Op, res: Result):
        raise NotImplementedError

    def check_outputs(self, parsed: dict, fail: Failures) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class RateN7(Workload):
    """One ``partdist rate`` per operation: set-up dominated, nothing per
    string.  ``direct`` and streaming run for both species on ``strings``
    inputs (detectors, input ports and continuous times drawn from the seed),
    so their metrics sum several short processes.  ``blocked`` shares the
    first input; ``truncated`` runs on it with a mixed bin pattern and with
    every particle in one bin.  The heavy operations sit between the groups
    of light ones, so that each metric samples the whole run."""

    name = "rate_n7"
    stream = 1

    def __init__(self, seed, outdir, m=10, n=7, occupancy=(3, 2, 1, 1), chunk=512, strings=3):
        super().__init__(seed, outdir)
        U, uni = self.unitary(m)
        cases = []
        for j in range(strings):
            det, inp = ports(self.rng, m, n), ports(self.rng, m, n)
            A = U[np.ix_([d - 1 for d in det], [p - 1 for p in inp])]
            taus = sorted(float(t) for t in self.rng.uniform(0.0, WINDOW, n))
            cases.append(({"detectors": det, "input_ports": inp}, A, taus))
        common, A0, taus0 = cases[0]
        mixed = occupancy_indices(self.rng, occupancy)
        single = [int(self.rng.integers(1, BINS + 1))] * n
        binned = self.config("mixed.json", m, n, uni, {"type": "binned", "bin_indices": mixed}, **common)
        onebin = self.config("onebin.json", m, n, uni, {"type": "binned", "bin_indices": single}, **common)
        heavy = [
            ("blocked-boson", "blocked", "continuous0.json", "boson", "blocked", taus0),
            ("truncated-fermion-mixed", "blocked", binned, "fermion", "truncated", binned_times(mixed)),
            ("truncated-boson-onebin", "blocked", onebin, "boson", "truncated", binned_times(single)),
            ("truncated-fermion-onebin", "blocked", onebin, "fermion", "truncated", binned_times(single)),
        ]
        self.equal_time = {sp: oracle.closed_form(A0, sp) for sp in ("boson", "fermion")}
        self.blocks = partition_count(n)
        self.inputs, self.reference = {}, {}
        for j, (common, A, taus) in enumerate(cases):
            arrival = {"type": "continuous", "taus": taus}
            cont = self.config(f"continuous{j}.json", m, n, uni, arrival, **common)
            chunked = self.config(f"chunked{j}.json", m, n, uni, arrival, chunk=chunk, **common)
            light = [(f"{kind}-{sp}-{j}", kind, cfg, sp, "direct", taus)
                     for kind, cfg in (("direct", cont), ("streaming", chunked)) for sp in ("boson", "fermion")]
            for op_id, kind, cfg, species, engine, times in light + heavy[j::strings]:
                out = f"{op_id}.json"
                self.ops.append(Op(op_id, kind, ("rate", "--config", cfg, "--species", species,
                                                 "--engine", engine, "--out", out), 1, out))
                self.inputs[op_id] = Input(A if engine == "direct" else A0, times, species)
                if kind != "direct" and engine != "truncated":
                    self.reference[op_id] = f"direct-{species}-{j}"

    def parse(self, op, res):
        doc = json.loads(res.out)
        return float(doc["rate"]), [bool(b["kept"]) for b in doc["blocks"] or ()]

    def check_outputs(self, parsed, fail):
        rate = {k: v[0] for k, v in parsed.items()}
        for op in self.ops:
            if op.id not in parsed:
                continue
            x = self.inputs[op.id]
            value, bound = x.rate
            fail.close(op, "oracle", rate[op.id], value, x.bound(op.kind) + bound)
            if op.id.endswith("-onebin"):
                exact, err = self.equal_time[x.species]
                fail.close(op, "one-bin limit", rate[op.id], float(exact), x.bound(op.kind) + float(err))
                kept = parsed[op.id][1]
                fail.require(op, len(kept) == self.blocks and sum(kept) == 1,
                             f"one-bin report keeps {sum(kept)} of {len(kept)} blocks")
            reference = self.reference.get(op.id)
            if reference in rate:
                fail.close(op, reference, rate[op.id], rate[reference], x.bound(op.kind) + x.bound("direct"))


# ---------------------------------------------------------------------------


class Distribution(Workload):
    """``partdist distribution`` and ``partdist sample``: one delay matrix
    shared by every output string, so per-string work dominates."""

    name = "distribution"
    stream = 2

    def __init__(self, seed, outdir, big=(10, 7), small=(12, 6), occupancy=(2, 2, 1, 1),
                 count=20000, checked=(6, 12), chunk=256):
        super().__init__(seed, outdir)
        self.count = count
        m7, n7 = big
        U7, uni7 = self.unitary(m7)
        taus7 = sorted(float(t) for t in self.rng.uniform(0.0, WINDOW, n7))
        inp7 = ports(self.rng, m7, n7)
        big_cfg = self.config("big.json", m7, n7, uni7, {"type": "continuous", "taus": taus7},
                              input_ports=inp7)
        m6, n6 = small
        U6, uni6 = self.unitary(m6)
        bins6 = occupancy_indices(self.rng, occupancy)
        inp6 = ports(self.rng, m6, n6)
        arrival6 = {"type": "binned", "bin_indices": bins6}
        small_cfg = self.config("small.json", m6, n6, uni6, arrival6, input_ports=inp6)
        sample_cfg = self.config("sample.json", m6, n6, uni6, arrival6, input_ports=inp6,
                                 chunk=chunk, seed=int(self.rng.integers(2**31)))
        self.tables = {
            "big": Table(U7, inp7, taus7, self.rng, checked[0]),
            "small": Table(U6, inp6, binned_times(bins6), self.rng, checked[1]),
        }
        self.table_of = {}
        for op_id, kind, cfg, table, species, engine in [
            ("direct-n7", "direct", big_cfg, "big", "boson", "direct"),
            ("direct-n6", "direct", small_cfg, "small", "boson", "direct"),
            ("blocked-n6", "blocked", small_cfg, "small", "boson", "blocked"),
            ("truncated-n6", "blocked", small_cfg, "small", "boson", "truncated"),
            ("truncated-n6-fermion", "blocked", small_cfg, "small", "fermion", "truncated"),
        ]:
            out = f"{op_id}.jsonl"
            self.ops.append(Op(op_id, kind, ("distribution", "--config", cfg, "--species", species,
                                             "--engine", engine, "--out", out),
                               len(self.tables[table].strings), out))
            self.table_of[op_id] = (self.tables[table], species)
        # chunk > 0 asks for the streaming engine; sample reruns with the same seed
        for op_id in ("sample", "sample-again"):
            self.ops.append(Op(op_id, "streaming", ("sample", "--config", sample_cfg,
                                                    "--count", str(count), "--out", f"{op_id}.txt"),
                               len(self.tables["small"].strings), f"{op_id}.txt"))

    def parse(self, op, res):
        if op.kind == "streaming":
            return res.out
        rows = [json.loads(line) for line in res.out.splitlines()]
        summary = json.loads(res.stdout)
        return ([r["s"] for r in rows], np.array([float(r["rate"]) for r in rows]),
                np.array([float(r["prob"]) for r in rows]),
                {k: float(summary[k]) for k in ("strings", "total_rate", "tv_from_indistinguishable",
                                                "tv_from_distinguishable")})

    def check_outputs(self, parsed, fail):
        for op in self.ops[:5]:
            if op.id not in parsed:
                continue
            table, species = self.table_of[op.id]
            strings, rate, p, summary = parsed[op.id]
            K = len(table.strings)
            fail.require(op, strings == table.strings, "output strings differ from the C(m, n) in order")
            if strings != table.strings:
                continue
            fail.require(op, bool(np.all(p >= 0.0)), "negative probability")
            fail.close(op, "sum of probabilities", float(p.sum()), 1.0, oracle.gamma(2 * K + 2))
            bound = table.engine_bounds(species, op.kind)
            for i in table.checked:
                value, err = table.rate(i, species)
                fail.close(op, f"oracle at {table.strings[i]}", float(rate[i]), value, bound[i] + err)
            fail.require(op, summary["strings"] == K, "summary string count")
            fail.close(op, "total_rate", summary["total_rate"], float(rate.sum()),
                       oracle.gamma(K) * float(rate.sum()))
            for key, (q, tol) in (("tv_from_indistinguishable", table.equal_time(species)),
                                  ("tv_from_distinguishable", table.classical())):
                fail.close(op, key, summary[key], 0.5 * float(np.abs(p - q).sum()),
                           tol + oracle.gamma(2 * K + 2))
            direct = parsed.get("direct-n6")
            if table is self.tables["small"] and species == "boson" and op.id != "direct-n6" and direct:
                tol = bound + table.engine_bounds(species, "direct")
                bad = np.flatnonzero(~(np.abs(rate - direct[1]) <= tol))
                fail.require(op, bad.size == 0, f"{bad.size} rates differ from direct-n6 beyond tolerance")
        self.check_samples(parsed, fail)

    def check_samples(self, parsed, fail):
        first, again = self.ops[5], self.ops[6]
        if first.id in parsed and again.id in parsed:
            fail.require(again, parsed[again.id] == parsed[first.id],
                         "sample rerun with the same seed gave different bytes")
        if first.id not in parsed:
            return
        direct = parsed.get("direct-n6")
        fail.require(first, direct is not None, "no direct-n6 distribution to check the samples against")
        if direct is None:
            return
        p = direct[2]
        index = {s: i for i, s in enumerate(self.tables["small"].strings)}
        draws = parsed[first.id].split()
        fail.require(first, len(draws) == self.count, f"{len(draws)} draws, asked for {self.count}")
        known = [index.get(s) for s in draws]
        fail.require(first, None not in known, "a sampled string is not a collision-free output")
        hits = np.bincount([i for i in known if i is not None], minlength=len(p))
        fail.require(first, bool(np.all(p[hits > 0] > 0.0)), "a sampled string has probability 0")
        N = max(len(draws), 1)
        tv = 0.5 * float(np.abs(hits / N - p).sum())
        # E[TV] <= 1/2 sum sqrt(p(1-p)/N), and one draw moves TV by at most
        # 1/N, so by McDiarmid TV exceeds E[TV] + t with chance exp(-2 N t^2)
        limit = 0.5 * float(np.sqrt(p * (1 - p) / N).sum()) + math.sqrt(math.log(1 / SAMPLE_FAILURE) / (2 * N))
        fail.require(first, tv <= limit, f"empirical TV {tv:.4f} above {limit:.4f}")


class Table:
    """Every collision-free output string of one interferometer and arrival
    profile, with a seeded subset checked against the oracle."""

    def __init__(self, U, inputs, taus, rng, checked):
        m, n = U.shape[0], len(inputs)
        combos = list(itertools.combinations(range(m), n))
        self.strings = sorted("".join("1" if k in c else "0" for k in range(m)) for c in combos)
        rows = [[k for k, x in enumerate(s) if x == "1"] for s in self.strings]
        cols = [p - 1 for p in inputs]
        self.A = np.stack([U[np.ix_(r, cols)] for r in rows])
        self.taus = taus
        self.checked = sorted(int(i) for i in rng.choice(len(self.strings), size=min(checked, len(self.strings)), replace=False))
        self.v_norm2 = oracle.distinguishable(self.A)[0]
        self._rates = {}

    def rate(self, i: int, species: str) -> tuple[float, float]:
        key = (i, species)
        if key not in self._rates:
            self._rates[key] = oracle.rate(self.A[i], oracle.delay_matrix(self.taus, DELTA_OMEGA), species)
        return self._rates[key]

    def engine_bounds(self, species: str, kind: str) -> np.ndarray:
        r_norm = oracle.rate_matrix_norm(oracle.delay_matrix(self.taus, DELTA_OMEGA), species)
        return np.array([oracle.engine_bound(kind, self.A.shape[-1], float(v), r_norm) for v in self.v_norm2])

    def equal_time(self, species: str) -> tuple[np.ndarray, float]:
        """Normalised |per A|^2 or |det A|^2 and the TV tolerance against the
        program's own reference (Ryser permanent, LU determinant)."""
        x, e = oracle.closed_form(self.A, species)
        d = oracle.ryser_bound(self.A) if species == "boson" else oracle.lu_det_bound(self.A)
        return self._tv_reference(x, e, (2 * np.sqrt(x) + d) * d)

    def classical(self) -> tuple[np.ndarray, float]:
        x, e = oracle.distinguishable(self.A)
        return self._tv_reference(x, e, oracle.ryser_bound(np.abs(self.A) ** 2))

    @staticmethod
    def _tv_reference(x, e_own, e_program):
        q, eq = oracle.normalized(x, e_own)
        _, ep = oracle.normalized(x, e_program)
        return q, 0.5 * float((eq + ep).sum())


# ---------------------------------------------------------------------------


class Landscape(Workload):
    """``partdist landscape``: the string is fixed and the delay matrix
    changes at every grid point, the opposite use of the rate layer from
    ``distribution``.  A 2-D fermion grid at small n exposes per-call
    overhead; a 1-D boson slice at n = 6 rebuilds a rate matrix per point."""

    name = "landscape"
    stream = 3
    min_rounds = 3  # its operations are short, so one round is a noisy sample

    def __init__(self, seed, outdir, m=10, grid=(3, 41), slice_=(6, 81), checked=4, chunks=(2, 256)):
        super().__init__(seed, outdir)
        U, uni = self.unitary(m)
        self.cases = {}
        for case, (n, steps), species, chunk in (("grid", grid, "fermion", chunks[0]),
                                                 ("slice", slice_, "boson", chunks[1])):
            det, inp = ports(self.rng, m, n), ports(self.rng, m, n)
            A = U[np.ix_([d - 1 for d in det], [p - 1 for p in inp])]
            axes = (2, 3) if case == "grid" else (int(self.rng.integers(2, n + 1)),)
            taus = [float(t) for t in self.rng.uniform(0.0, WINDOW, n)]  # the landscape replaces them
            common = dict(detectors=det, input_ports=inp, species=species)
            arrival = {"type": "continuous", "taus": taus}
            dense = self.config(f"{case}.json", m, n, uni, arrival, **common)
            chunked = self.config(f"{case}-chunked.json", m, n, uni, arrival, chunk=chunk, **common)
            self.cases[case] = Sweep(A, species, axes, steps, self.rng, checked)
            extra = ("--axis", str(axes[0])) if case == "slice" else ()
            for kind, cfg, engine in (("direct", dense, "direct"), ("streaming", chunked, "direct"),
                                      ("blocked", dense, "blocked")):
                op_id = f"{case}-{kind}"
                self.ops.append(Op(op_id, kind, ("landscape", "--config", cfg, "--engine", engine,
                                                 "--range", str(-FAR), str(FAR), "--steps", str(steps),
                                                 *extra, "--out", f"{op_id}.csv"),
                                   len(self.cases[case].points), f"{op_id}.csv"))

    def parse(self, op, res):
        rows = [row for row in csv.reader(io.StringIO(res.out)) if row and not row[0].startswith("#")]
        return [tuple(float(x) for x in row[:-1]) for row in rows[1:]], np.array([float(row[-1]) for row in rows[1:]])

    def check_outputs(self, parsed, fail):
        for op in self.ops:
            if op.id not in parsed:
                continue
            case = op.id.split("-")[0]
            sweep = self.cases[case]
            points, rate = parsed[op.id]
            fail.require(op, points == sweep.points, "grid points differ from the requested grid")
            if points != sweep.points:
                continue
            tol = sweep.bounds(op.kind)
            at = {p: i for i, p in enumerate(points)}
            for i, p in enumerate(points):
                j = at[tuple(-d for d in p)]
                fail.close(op, f"rate{p} = rate(-d)", float(rate[i]), float(rate[j]), tol[i] + tol[j])
            for i, (value, err) in sweep.limits.items():
                fail.close(op, f"limit at {points[i]}", float(rate[i]), value, tol[i] + err)
            for i in sweep.checked:
                value, err = sweep.oracle(i)
                fail.close(op, f"oracle at {points[i]}", float(rate[i]), value, tol[i] + err)
            reference = parsed.get(case + "-direct")
            if op.kind != "direct" and reference and reference[0] == points:
                both = tol + sweep.bounds("direct")
                bad = np.flatnonzero(~(np.abs(rate - reference[1]) <= both))
                fail.require(op, bad.size == 0, f"{bad.size} points differ from {case}-direct beyond tolerance")


class Sweep:
    """Grid of relative delays d on the given particle axes, every other
    particle at time 0, as ``partdist landscape`` lays it out."""

    def __init__(self, A, species, axes, steps, rng, checked):
        self.A, self.species, self.n = A, species, A.shape[0]
        line = np.linspace(-FAR, FAR, steps)
        self.points = [tuple(float(x) for x in p) for p in itertools.product(line, repeat=len(axes))]
        self.taus = []
        for p in self.points:
            t = np.zeros(self.n)
            for axis, d in zip(axes, p):
                t[axis - 1] += d
            self.taus.append(t)
        self.v_norm2 = float(oracle.distinguishable(A)[0])
        self.r_norm = np.array([oracle.rate_matrix_norm(oracle.delay_matrix(t, DELTA_OMEGA), species)
                                for t in self.taus])
        self.checked = sorted(int(i) for i in rng.choice(len(self.points), size=checked, replace=False))
        # equal times, and every delay 0 or +-FAR: clusters that interfere
        # inside and add classically between; overlaps across clusters are at
        # most exp(-dw^2 FAR^2 / 2), worth at most that much of each R entry
        leak = self.v_norm2 * math.factorial(self.n) * math.exp(-(DELTA_OMEGA * FAR) ** 2 / 2)
        self.limits = {}
        for i, p in enumerate(self.points):
            if all(d in (0.0, FAR, -FAR) for d in p):
                value, err = oracle.cluster_rate(A, oracle.clusters_of(self.taus[i]), species)
                self.limits[i] = (value, err + (leak if any(p) else 0.0))
        self._oracle = {}

    def bounds(self, kind: str) -> np.ndarray:
        return np.array([oracle.engine_bound(kind, self.n, self.v_norm2, float(rn)) for rn in self.r_norm])

    def oracle(self, i: int) -> tuple[float, float]:
        if i not in self._oracle:
            self._oracle[i] = oracle.rate(self.A, oracle.delay_matrix(self.taus[i], DELTA_OMEGA), self.species)
        return self._oracle[i]


WORKLOADS = {cls.name: cls for cls in (RateN7, Distribution, Landscape)}
