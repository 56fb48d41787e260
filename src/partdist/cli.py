"""Command-line surface: rate, distribution, sample, landscape, analyze,
gamas-table.

Every run is deterministic given (config, seed): artifacts carry the config
hash, and wall-clock timing goes to stderr so reruns with the same hash stay
byte-identical; ``sample`` refuses a config with no seed (exit 2).
``direct`` with a config ``"chunk"`` above 0 runs the streaming engine, and
:func:`load_config` is the one place that says so; the chunk's value is
hashed but sizes nothing, since the engine sizes its own steps, and
artifacts print the configured engine.  No flag sets the chunk.  Exit codes:
0 success, 2 bad config/usage or unwritable --out, 3 size guard, 4 numerical failure.

Output strings print as 0/1 text ("10110") through one helper,
:func:`partdist.interferometer.output_text`, in every subcommand.  ``rate``
prints the rate and, on the block engines, the per-label block report that
:func:`partdist.rates.engine_rates` returns with it (``EngineRates.blocks``).

Each subcommand imports what it runs: ``distribution`` and ``sample``
import :mod:`partdist.sampling`, and ``analyze`` :mod:`partdist.analysis`,
when they run, so ``rate`` and ``landscape`` load neither.

Determinism under BLAS threading: the batch widths of the rate engines are
fixed in :func:`partdist.rates.engine_rates`, and strings go in their
enumeration order and grid points in grid order; the references take
floor(2^17 / 2^n) strings per permanent or determinant call.  Reruns are
byte-identical on the same NumPy and BLAS build with the same thread count
(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS); across builds or thread counts the
strings, their order and the config hash stay the same, and rates agree to
rounding.

On stderr the block engines report, next to ``wall_time_s``, the largest
Parseval residual |‖T v‖² - ‖v‖²| of the run (``parseval_residual``), and
the streaming engine the largest cancellation sum_S |f(P_S)| / rate
(``cancellation``).  Every engine adds ``clamped=N`` when N slightly
negative raw rates, within their rounding bound, were clamped to 0; each
rate call also warns once with its own count.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .delays import ArrivalSpec, delay_matrix, delay_matrix_from_times, discretize
from .errors import ClampWarning, DomainError, NumericalError, SizeLimitError
from .interferometer import (
    Interferometer,
    haar_unitary,
    output_text,
    submatrix,
    unitary_from_json,
)
from .rates import engine_rates, gamas_vanishes
from .symgroup import partitions_of

MAX_GRID_POINTS = 20_000
MAX_CHANNELS = 2048  # an m x m complex array is 64 MiB; see README Limits

ENGINES = ("direct", "blocked", "truncated")
SPECIES = ("boson", "fermion")


# ---------------------------------------------------------------------------
# Config


@dataclass
class Config:
    m: int
    n: int
    interferometer: Interferometer
    species: str
    engine: str  # as configured, printed in artifacts
    rate_engine: str  # the rates engine that runs: streaming for direct with chunk > 0
    seed: int | None
    detectors: tuple[int, ...]
    input_ports: tuple[int, ...]
    spec: ArrivalSpec
    mu: tuple[int, ...]  # bin-occupancy partition of the arrival times
    config_hash: str


def _canonical_hash(obj) -> str:
    """SHA-256 of the canonical JSON of ``obj``: sorted keys, no spaces."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _cfg_get(raw: dict, field: str, types, default="__required__"):
    """raw[field] checked against ``types``, or ``default`` when absent.
    JSON true and false load as bools, which are ints too, so they pass only
    where ``types`` is bool."""
    if field not in raw:
        if default == "__required__":
            raise DomainError(f"config field '{field}': missing")
        return default
    value = raw[field]
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise DomainError(f"config field '{field}': expected {types}, got {type(value).__name__}")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_seed(seed, field: str):
    if seed is not None and seed < 0:
        raise DomainError(f"{field}: seed must be a non-negative integer, got {seed}")
    return seed


def _port_tuple(raw, field: str, n: int, m: int, default) -> tuple[int, ...]:
    ports = _cfg_get(raw, field, list, default=list(default))
    for p in ports:
        if not _is_int(p) or not 1 <= p <= m:
            raise DomainError(f"config field '{field}': port {p!r} outside 1..{m}")
    if len(ports) != n or len(set(ports)) != n:
        raise DomainError(f"config field '{field}': need {n} distinct ports")
    return tuple(ports)


def load_config(path: str, args: argparse.Namespace) -> Config:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"config {path} is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise DomainError("config root must be a JSON object")

    m = _cfg_get(raw, "m", int)
    if m > MAX_CHANNELS:  # before a unitary is drawn or read
        raise SizeLimitError(f"config field 'm': {m} channels exceed {MAX_CHANNELS}")
    n = _cfg_get(raw, "n", int)
    if not 1 <= n <= m:
        raise DomainError(f"config field 'n': need 1 <= n <= m, got n={n}, m={m}")

    seed = _check_seed(_cfg_get(raw, "seed", int, default=None), "config field 'seed'")
    if getattr(args, "seed", None) is not None:
        seed = _check_seed(args.seed, "--seed")

    uni = _cfg_get(raw, "unitary", dict)
    utype = _cfg_get(uni, "type", str)
    if utype == "haar":
        useed = _check_seed(_cfg_get(uni, "seed", int, default=seed), "config field 'unitary.seed'")
        if useed is None:
            raise DomainError("config field 'unitary.seed': required for haar unitaries")
        itf = haar_unitary(m, seed=useed)
        unitary_key = {"type": "haar", "seed": useed}
    elif utype == "file":
        upath = _cfg_get(uni, "path", str)
        itf = unitary_from_json(upath)
        if itf.m != m:
            raise DomainError(f"config field 'unitary.path': matrix is {itf.m}x{itf.m}, config says m={m}")
        digest = hashlib.sha256(np.ascontiguousarray(itf.matrix).tobytes()).hexdigest()
        unitary_key = {"type": "file", "sha256": digest}
    else:
        raise DomainError(f"config field 'unitary.type': expected 'haar' or 'file', got {utype!r}")

    species = _cfg_get(raw, "species", str, default="boson")
    if getattr(args, "species", None) is not None:
        species = args.species
    if species not in SPECIES:
        raise DomainError(f"config field 'species': expected one of {SPECIES}, got {species!r}")

    engine = _cfg_get(raw, "engine", str, default="direct")
    if getattr(args, "engine", None) is not None:
        engine = args.engine
    if engine not in ENGINES:
        raise DomainError(f"config field 'engine': expected one of {ENGINES}, got {engine!r}")

    chunk = _cfg_get(raw, "chunk", int, default=0)
    if chunk < 0:
        raise DomainError("config field 'chunk': must be >= 0 (0 = dense)")

    arrival = _cfg_get(raw, "arrival", dict)
    atype = _cfg_get(arrival, "type", str)
    delta_omega = float(_cfg_get(arrival, "delta_omega", (int, float)))
    window = float(_cfg_get(arrival, "window", (int, float)))
    bins = _cfg_get(arrival, "bins", int)
    if atype == "continuous":
        taus = _cfg_get(arrival, "taus", list)
        if len(taus) != n:
            raise DomainError(f"config field 'arrival.taus': need {n} times, got {len(taus)}")
        for t in taus:
            if not isinstance(t, (int, float)) or isinstance(t, bool):
                raise DomainError(f"config field 'arrival.taus': time {t!r} is not a number")
        spec = ArrivalSpec(tuple(float(t) for t in taus), delta_omega, window, bins)
        arrival_key = {"type": "continuous", "taus": list(spec.taus)}
    elif atype == "binned":
        idx = _cfg_get(arrival, "bin_indices", list)
        if len(idx) != n:
            raise DomainError(f"config field 'arrival.bin_indices': need {n} indices, got {len(idx)}")
        for c in idx:
            if not _is_int(c) or not 1 <= c <= bins:
                raise DomainError(f"config field 'arrival.bin_indices': index {c!r} outside 1..{bins}")
        # place each particle at its bin center: particles of one bin share
        # a time, so truncation drops the blocks of the bin partition
        taus = tuple((c - 0.5) * window / bins for c in idx)
        spec = ArrivalSpec(taus, delta_omega, window, bins)
        arrival_key = {"type": "binned", "bin_indices": list(idx)}
    else:
        raise DomainError(f"config field 'arrival.type': expected 'continuous' or 'binned', got {atype!r}")
    arrival_key.update({"delta_omega": delta_omega, "window": window, "bins": bins})
    _, mu = discretize(spec)

    detectors = _port_tuple(raw, "detectors", n, m, range(1, n + 1))
    input_ports = _port_tuple(raw, "input_ports", n, m, range(1, n + 1))

    resolved = {
        "m": m, "n": n, "unitary": unitary_key, "species": species,
        "engine": engine, "chunk": chunk, "seed": seed,
        "arrival": arrival_key, "detectors": list(detectors),
        "input_ports": list(input_ports),
    }
    rate_engine = "streaming" if engine == "direct" and chunk > 0 else engine
    return Config(m, n, itf, species, engine, rate_engine, seed, detectors, input_ports,
                  spec, mu, _canonical_hash(resolved))


# ---------------------------------------------------------------------------
# Output plumbing


def _check_out(out: str | None) -> None:
    """Refuse an ``--out`` path that cannot be written, before any work
    runs: a directory, a path whose parent directory is missing, or one
    without write access is a :class:`DomainError` (exit 2).  Nothing is
    created or truncated here; :func:`_output` opens the file at the end."""
    if not out:
        return
    parent = os.path.dirname(os.path.abspath(out))
    if os.path.isdir(out):
        problem = "it is a directory"
    elif not os.path.isdir(parent):
        problem = f"no directory {parent}"
    elif not os.access(out if os.path.exists(out) else parent, os.W_OK):
        problem = "no write permission"
    else:
        return
    raise DomainError(f"cannot write {out}: {problem}")


@contextlib.contextmanager
def _output(out: str | None):
    """The file ``out`` opened for writing, or stdout when ``out`` is empty.
    Every artifact is written through here, so a path that cannot be
    written is a :class:`DomainError` (exit 2) in every subcommand; main
    refuses the paths that :func:`_check_out` can tell apart before the
    subcommand runs."""
    if not out:
        yield sys.stdout
        return
    try:
        with open(out, "w") as fh:
            yield fh
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc}") from exc


def _emit(pieces, out: str | None) -> None:
    """Write the strings ``pieces`` in order to the file ``out``, or to
    stdout when ``out`` is empty."""
    with _output(out) as fh:
        fh.writelines(pieces)


def _emit_json(obj, out: str | None) -> None:
    _emit([json.dumps(obj, indent=2), "\n"], out)


class _Timer:
    """Times a subcommand and writes its stderr report line, with the
    health figures of ``result``, the :class:`~partdist.rates.EngineRates`
    of the run when it has one; the warnings raised inside are shown when it
    ends, and the clamps they count are summed into ``clamped=``."""

    def __enter__(self):
        self.t0 = time.perf_counter()
        self.result = None
        self._recorder = warnings.catch_warnings(record=True)
        self._caught = self._recorder.__enter__()
        warnings.simplefilter("always", ClampWarning)
        return self

    def __exit__(self, *exc):
        wall = time.perf_counter() - self.t0
        self._recorder.__exit__(*exc)
        clamped = 0
        for w in self._caught:
            if isinstance(w.message, ClampWarning):
                clamped += w.message.count
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        line = f"wall_time_s={wall:.3f}"
        for name in ("parseval_residual", "cancellation"):
            value = getattr(self.result, name, None)
            if value is not None:
                line += f" {name}={value:.3e}"
        if clamped:
            line += f" clamped={clamped}"
        print(line, file=sys.stderr)
        return False


# ---------------------------------------------------------------------------
# Subcommands


def cmd_rate(args) -> None:
    cfg = load_config(args.config, args)
    with _Timer() as timer:
        detectors = sorted(cfg.detectors)  # A's rows in channel order
        A = submatrix(cfg.interferometer, detectors, cfg.input_ports)
        r = delay_matrix(cfg.spec)
        timer.result = result = engine_rates(A, r, cfg.species, cfg.rate_engine)
        report = {
            "config_hash": cfg.config_hash,
            "m": cfg.m,
            "n": cfg.n,
            "species": cfg.species,
            "engine": cfg.engine,
            "detectors": list(cfg.detectors),
            "output_string": output_text(detectors, cfg.m),
            "bin_partition": list(cfg.mu),
            "rate": float(result.rates),
            "blocks": result.blocks,
        }
    _emit_json(report, args.out)


def _build_dist(cfg: Config):
    from .sampling import build_distribution

    return build_distribution(
        cfg.interferometer, cfg.spec, cfg.species, cfg.rate_engine, input_ports=cfg.input_ports
    )


def cmd_distribution(args) -> None:
    from .sampling import (
        entropy_bits,
        reference_distinguishable,
        reference_indistinguishable,
        to_jsonl,
        total_variation,
    )

    cfg = load_config(args.config, args)
    with _Timer() as timer:
        dist = _build_dist(cfg)
        timer.result = dist.result
        ref_i = reference_indistinguishable(cfg.interferometer, cfg.n, cfg.species, cfg.input_ports)
        ref_d = reference_distinguishable(cfg.interferometer, cfg.n, cfg.species, cfg.input_ports)
        best = int(np.argmax(dist.probabilities))  # the first of equal maxima
        summary = {
            "config_hash": cfg.config_hash,
            "m": cfg.m,
            "n": cfg.n,
            "species": cfg.species,
            "engine": cfg.engine,
            "strings": len(dist.strings),
            "total_rate": dist.total_rate,
            "entropy_bits": entropy_bits(dist),
            "max_prob_string": output_text(dist.strings[best], cfg.m),
            "max_prob": float(dist.probabilities[best]),
            "tv_from_indistinguishable": total_variation(dist, ref_i),
            "tv_from_distinguishable": total_variation(dist, ref_d),
            "out": args.out,
        }
    with _output(args.out) as fh:
        to_jsonl(dist, fh)
    if args.out:
        _emit_json(summary, None)
    else:
        print(json.dumps(summary, indent=2), file=sys.stderr)


def cmd_sample(args) -> None:
    from .sampling import _check_count, sample

    cfg = load_config(args.config, args)
    if cfg.seed is None:  # draws without a seed could not be reproduced
        raise DomainError("sample needs a seed: set 'seed' in the config or pass --seed")
    _check_count(args.count)  # before the distribution is built
    with _Timer() as timer:
        dist = _build_dist(cfg)
        timer.result = dist.result
        draws = sample(dist, args.count, cfg.seed)
    lines = [f"{s}\n" for s in output_text(dist.strings, cfg.m)]  # once per string, not per draw
    _emit(map(lines.__getitem__, draws), args.out)  # line by line: no second copy of the artifact
    print(
        json.dumps({"config_hash": cfg.config_hash, "count": args.count, "seed": cfg.seed}),
        file=sys.stderr,
    )


def cmd_landscape(args) -> None:
    cfg = load_config(args.config, args)
    if cfg.engine == "truncated":
        raise DomainError("landscape supports engines 'direct' and 'blocked' only")
    lo, hi = args.range
    steps = args.steps
    if steps < 2:
        raise DomainError("--steps must be >= 2")
    if not hi > lo:
        raise DomainError("--range must satisfy MIN < MAX")
    axes = None
    if args.axis is not None:
        if not 2 <= args.axis <= cfg.n:
            raise DomainError(f"--axis must be in 2..{cfg.n}")
        axes = (args.axis,)
    elif cfg.n == 2:
        axes = (2,)
    elif cfg.n == 3:
        axes = (2, 3)
    else:
        raise DomainError("full grids are limited to n in {2,3}; pass --axis for a 1-D slice")
    if steps ** len(axes) > MAX_GRID_POINTS:
        raise SizeLimitError(f"grid of {steps ** len(axes)} points exceeds {MAX_GRID_POINTS}")

    grid = np.linspace(lo, hi, steps)
    if len(axes) == 1:
        points = [{axes[0]: float(d)} for d in grid]
    else:
        points = [{2: float(d2), 3: float(d3)} for d2 in grid for d3 in grid]
    A = submatrix(cfg.interferometer, sorted(cfg.detectors), cfg.input_ports)

    taus = np.zeros((len(points), cfg.n))
    for i, p in enumerate(points):
        for axis, d in p.items():
            taus[i, axis - 1] += d

    with _Timer() as timer:
        rs = delay_matrix_from_times(taus, cfg.spec.delta_omega)
        timer.result = result = engine_rates(A, rs, cfg.species, cfg.rate_engine)
        rows = [[f"dtau_{a}" for a in axes] + ["rate"]]
        for p, rate in zip(points, result.rates.tolist()):
            rows.append([repr(d) for d in p.values()] + [repr(rate)])
        buf = io.StringIO()
        buf.write(f"# config_hash={cfg.config_hash}\n")
        writer = csv.writer(buf)
        writer.writerows(rows)
    _emit([buf.getvalue()], args.out)


def cmd_analyze(args) -> None:
    from . import analysis

    with _Timer():
        report = analysis.analyze_report(args.n, args.b)
        report["config_hash"] = _canonical_hash({"analyze": {"n": args.n, "b": args.b}})
    _emit_json(report, args.out)


def cmd_gamas_table(args) -> None:
    n = args.n
    if not 1 <= n <= 12:
        raise DomainError("gamas-table supports 1 <= n <= 12")
    with _Timer():
        parts = partitions_of(n)
        labels = ["+".join(map(str, p)) for p in parts]
        width = max(len(x) for x in labels) + 2
        out = [f"# config_hash={_canonical_hash({'gamas_table': {'n': n}})}"]
        out.append(
            "block label \\ bin partition: 0 = identically vanishing block, . = generically nonzero"
        )
        out.append(" " * width + "".join(x.rjust(width) for x in labels))
        for lam, lam_label in zip(parts, labels):
            cells = [
                ("0" if gamas_vanishes(lam, mu) else ".").rjust(width)
                for mu in parts
            ]
            out.append(lam_label.ljust(width) + "".join(cells))
    _emit([f"{line}\n" for line in out], args.out)


# ---------------------------------------------------------------------------
# Entry point


def _add_common(p: argparse.ArgumentParser, config_required=True) -> None:
    p.add_argument("--config", required=config_required, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--engine", choices=ENGINES, default=None, help="override the config engine")
    p.add_argument("--species", choices=SPECIES, default=None, help="override the config species")
    p.add_argument("--out", default=None, help="write the artifact here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partdist",
        description="Coincidence rates and sampling distributions for "
        "partially distinguishable bosons and fermions in linear interferometers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", help="coincidence rate for one output string")
    _add_common(p)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("distribution", help="full collision-free output distribution")
    _add_common(p)
    p.set_defaults(func=cmd_distribution)

    p = sub.add_parser("sample", help="draw output strings from the distribution")
    _add_common(p)
    p.add_argument("--count", type=int, default=1, help="number of draws")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("landscape", help="rate over a grid of relative arrival delays")
    _add_common(p)
    p.add_argument("--range", type=float, nargs=2, default=(-3.0, 3.0),
                   metavar=("MIN", "MAX"), help="relative-delay range")
    p.add_argument("--steps", type=int, default=41, help="grid points per axis")
    p.add_argument("--axis", type=int, default=None,
                   help="particle index (2..n) for a 1-D slice at any n")
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("analyze", help="witness partition + bin-collision probabilities")
    p.add_argument("--n", type=int, required=True, help="particle count")
    p.add_argument("--b", type=int, required=True, help="time-bin count")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gamas-table", help="which blocks vanish for which bin partitions")
    p.add_argument("--n", type=int, required=True, help="particle count")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gamas_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
