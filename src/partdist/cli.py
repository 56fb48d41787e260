"""Command-line surface: rate, distribution, sample, landscape, analyze,
gamas-table.

Every run is deterministic given (config, seed, chunk): artifacts carry the
config hash, and wall-clock timing goes to stderr so reruns with the same
hash stay byte-identical.  Exit codes: 0 success, 2 bad config/usage,
3 size guard, 4 numerical failure.

Determinism under BLAS threading: rates come from BLAS matrix products
(R v, T v, T (w * mono_r)), and a BLAS library may split a product's sums
differently for another thread count.  Reruns are byte-identical on the same
NumPy and BLAS build with the same thread count (OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS); across builds or thread counts the strings, their order
and the config hash stay the same, and rates agree to rounding.

On stderr the block engines report, next to ``wall_time_s``, the largest
Parseval residual |‖T v‖² - ‖v‖²| of the run (``parseval_residual``).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import analysis
from .delays import ArrivalSpec, delay_matrix, delay_matrix_from_times, discretize
from .errors import DomainError, NumericalError, SizeLimitError
from .interferometer import (
    Interferometer,
    OutputString,
    haar_unitary,
    monomial_vector,
    submatrix,
    unitary_from_json,
)
from .rates import (
    attach_vector,
    build_transform,
    fourier_blocks,
    gamas_vanishes,
    rate_blocked,
    rate_direct,
    rate_direct_streaming,
    rate_matrix,
    rate_truncated,
    truncation_report,
)
from .sampling import (
    build_distribution,
    entropy_bits,
    reference_distinguishable,
    reference_indistinguishable,
    sample,
    to_jsonl,
    total_variation,
)
from .symgroup import all_permutations, partitions_of

MAX_GRID_POINTS = 20_000

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
    engine: str
    chunk: int
    seed: int | None
    detectors: tuple[int, ...]
    input_ports: tuple[int, ...]
    spec: ArrivalSpec
    binned: bool
    mu: tuple[int, ...]  # bin-occupancy partition of the (possibly snapped) times
    allow_approximate_truncation: bool
    config_hash: str


def _cfg_get(raw: dict, field: str, types, default="__required__"):
    if field not in raw:
        if default == "__required__":
            raise DomainError(f"config field '{field}': missing")
        return default
    value = raw[field]
    if types is not None and not isinstance(value, types):
        raise DomainError(f"config field '{field}': expected {types}, got {type(value).__name__}")
    return value


def _port_tuple(raw, field: str, n: int, m: int, default) -> tuple[int, ...]:
    ports = _cfg_get(raw, field, list, default=list(default))
    if len(ports) != n or len(set(ports)) != n:
        raise DomainError(f"config field '{field}': need {n} distinct ports")
    for p in ports:
        if not isinstance(p, int) or not 1 <= p <= m:
            raise DomainError(f"config field '{field}': port {p!r} outside 1..{m}")
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
    n = _cfg_get(raw, "n", int)
    if not 1 <= n <= m:
        raise DomainError(f"config field 'n': need 1 <= n <= m, got n={n}, m={m}")

    seed = _cfg_get(raw, "seed", int, default=None)
    if getattr(args, "seed", None) is not None:
        seed = args.seed

    uni = _cfg_get(raw, "unitary", dict)
    utype = _cfg_get(uni, "type", str)
    if utype == "haar":
        useed = uni.get("seed", seed)
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
    if getattr(args, "threads_chunk", None) is not None:
        chunk = args.threads_chunk
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
        spec = ArrivalSpec(tuple(float(t) for t in taus), delta_omega, window, bins)
        binned = False
        arrival_key = {"type": "continuous", "taus": list(spec.taus)}
    elif atype == "binned":
        idx = _cfg_get(arrival, "bin_indices", list)
        if len(idx) != n:
            raise DomainError(f"config field 'arrival.bin_indices': need {n} indices, got {len(idx)}")
        for c in idx:
            if not isinstance(c, int) or not 1 <= c <= bins:
                raise DomainError(f"config field 'arrival.bin_indices': index {c!r} outside 1..{bins}")
        # place each particle at its bin center; truncation is then exact
        taus = tuple((c - 0.5) * window / bins for c in idx)
        spec = ArrivalSpec(taus, delta_omega, window, bins)
        binned = True
        arrival_key = {"type": "binned", "bin_indices": list(idx)}
    else:
        raise DomainError(f"config field 'arrival.type': expected 'continuous' or 'binned', got {atype!r}")
    arrival_key.update({"delta_omega": delta_omega, "window": window, "bins": bins})
    _, part = discretize(spec)

    detectors = _port_tuple(raw, "detectors", n, m, range(1, n + 1))
    input_ports = _port_tuple(raw, "input_ports", n, m, range(1, n + 1))
    allow_approx = bool(_cfg_get(raw, "allow_approximate_truncation", bool, default=False))

    resolved = {
        "m": m, "n": n, "unitary": unitary_key, "species": species,
        "engine": engine, "chunk": chunk, "seed": seed,
        "arrival": arrival_key, "detectors": list(detectors),
        "input_ports": list(input_ports),
        "allow_approximate_truncation": allow_approx,
    }
    digest = hashlib.sha256(
        json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

    return Config(m, n, itf, species, engine, chunk, seed, detectors,
                  input_ports, spec, binned, part.partition, allow_approx, digest)


# ---------------------------------------------------------------------------
# Output plumbing


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", out)


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        self.parseval_residual = None
        return self

    def __exit__(self, *exc):
        line = f"wall_time_s={time.perf_counter() - self.t0:.3f}"
        if self.parseval_residual is not None:
            line += f" parseval_residual={self.parseval_residual:.3e}"
        print(line, file=sys.stderr)
        return False


def _check_truncation_allowed(cfg: Config) -> None:
    if cfg.engine == "truncated" and not cfg.binned and not cfg.allow_approximate_truncation:
        raise DomainError(
            "engine 'truncated' on continuous arrival times drops nonzero "
            "blocks; use a binned arrival spec or set "
            "'allow_approximate_truncation': true"
        )


# ---------------------------------------------------------------------------
# Subcommands


def cmd_rate(args) -> None:
    cfg = load_config(args.config, args)
    _check_truncation_allowed(cfg)
    with _Timer() as timer:
        ordering = all_permutations(cfg.n)
        s = OutputString.from_detectors(cfg.m, cfg.detectors)
        A = submatrix(cfg.interferometer, s, cfg.input_ports)
        v = monomial_vector(A, ordering)
        r = delay_matrix(cfg.spec)
        blocks_out = None
        if cfg.engine == "direct":
            if cfg.chunk > 0:
                rate = rate_direct_streaming(v, r, cfg.species, ordering, cfg.chunk)
            else:
                rate = rate_direct(v, rate_matrix(r, cfg.species, ordering))
        else:
            T = build_transform(ordering)
            decomp = attach_vector(v, fourier_blocks(r, cfg.species, T), T, cfg.species)
            timer.parseval_residual = decomp.parseval_residual
            # against the all-singletons partition every label dominates, so
            # the blocked report shows everything as kept
            mu = cfg.mu if cfg.engine == "truncated" else (1,) * cfg.n
            rate = rate_truncated(decomp, mu) if cfg.engine == "truncated" else rate_blocked(decomp)
            blocks_out = [
                {
                    "lam": list(e.lam),
                    "kept": e.kept,
                    "magnitude": e.block_magnitude,
                    "term": e.term,
                }
                for e in truncation_report(decomp, mu)
            ]
        report = {
            "config_hash": cfg.config_hash,
            "m": cfg.m,
            "n": cfg.n,
            "species": cfg.species,
            "engine": cfg.engine,
            "detectors": list(cfg.detectors),
            "output_string": str(s),
            "bin_partition": list(cfg.mu),
            "rate": rate,
            "blocks": blocks_out,
        }
    _emit_json(report, args.out)


def _build_dist(cfg: Config):
    _check_truncation_allowed(cfg)
    approximate = cfg.engine == "truncated" and not cfg.binned
    return build_distribution(
        cfg.interferometer,
        cfg.spec,
        cfg.species,
        cfg.engine,
        input_ports=cfg.input_ports,
        snapped=cfg.binned,
        approximate_mu=cfg.mu if approximate else None,
    )


def cmd_distribution(args) -> None:
    cfg = load_config(args.config, args)
    with _Timer() as timer:
        dist = _build_dist(cfg)
        timer.parseval_residual = dist.parseval_residual
        ref_i = reference_indistinguishable(cfg.interferometer, cfg.n, cfg.species, cfg.input_ports)
        ref_d = reference_distinguishable(cfg.interferometer, cfg.n, cfg.species, cfg.input_ports)
        best = max(dist.entries, key=lambda e: e[2])
        summary = {
            "config_hash": cfg.config_hash,
            "m": cfg.m,
            "n": cfg.n,
            "species": cfg.species,
            "engine": cfg.engine,
            "strings": len(dist.entries),
            "total_rate": dist.total_rate,
            "entropy_bits": entropy_bits(dist),
            "max_prob_string": str(best[0]),
            "max_prob": best[2],
            "tv_from_indistinguishable": total_variation(dist, ref_i),
            "tv_from_distinguishable": total_variation(dist, ref_d),
            "out": args.out,
        }
    if args.out:
        to_jsonl(dist, args.out)
        _emit_json(summary, None)
    else:
        for s, rate, prob in dist.entries:
            print(json.dumps({"s": str(s), "rate": rate, "prob": prob}))
        print(json.dumps(summary, indent=2), file=sys.stderr)


def cmd_sample(args) -> None:
    cfg = load_config(args.config, args)
    with _Timer() as timer:
        dist = _build_dist(cfg)
        timer.parseval_residual = dist.parseval_residual
        draws = sample(dist, args.count, cfg.seed)
        text = "".join(str(s) + "\n" for s in draws)
    _emit(text, args.out)
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
    ordering = all_permutations(cfg.n)
    s = OutputString.from_detectors(cfg.m, cfg.detectors)
    A = submatrix(cfg.interferometer, s, cfg.input_ports)
    v = monomial_vector(A, ordering)
    T = build_transform(ordering) if cfg.engine == "blocked" else None
    residuals = []

    def rate_at(dtaus: dict[int, float]) -> float:
        taus = np.full(cfg.n, args.shift, dtype=float)
        for axis, d in dtaus.items():
            taus[axis - 1] += d
        r = delay_matrix_from_times(taus, cfg.spec.delta_omega)
        if cfg.engine == "direct":
            if cfg.chunk > 0:
                return rate_direct_streaming(v, r, cfg.species, ordering, cfg.chunk)
            return rate_direct(v, rate_matrix(r, cfg.species, ordering))
        decomp = attach_vector(v, fourier_blocks(r, cfg.species, T), T, cfg.species)
        residuals.append(decomp.parseval_residual)
        return rate_blocked(decomp)

    with _Timer() as timer:
        header = [f"dtau_{a}" for a in axes] + ["rate"]
        rows = [header]
        if len(axes) == 1:
            for d in grid:
                rows.append([repr(float(d)), repr(rate_at({axes[0]: float(d)}))])
        else:
            for d2 in grid:
                for d3 in grid:
                    rows.append([
                        repr(float(d2)),
                        repr(float(d3)),
                        repr(rate_at({2: float(d2), 3: float(d3)})),
                    ])
        buf = io.StringIO()
        buf.write(f"# config_hash={cfg.config_hash}\n")
        writer = csv.writer(buf)
        writer.writerows(rows)
        if residuals:
            timer.parseval_residual = max(residuals)
    _emit(buf.getvalue(), args.out)


def cmd_analyze(args) -> None:
    with _Timer():
        report = analysis.analyze_report(args.n, args.b)
        key = {"analyze": {"n": args.n, "b": args.b}}
        report["config_hash"] = hashlib.sha256(
            json.dumps(key, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
    _emit_json(report, args.out)


def cmd_gamas_table(args) -> None:
    n = args.n
    if not 1 <= n <= 12:
        raise DomainError("gamas-table supports 1 <= n <= 12")
    with _Timer():
        parts = partitions_of(n)
        labels = ["+".join(map(str, p)) for p in parts]
        width = max(len(x) for x in labels) + 2
        key = {"gamas_table": {"n": n}}
        digest = hashlib.sha256(
            json.dumps(key, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        out = [f"# config_hash={digest}"]
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
    _emit("\n".join(out) + "\n", args.out)


# ---------------------------------------------------------------------------
# Entry point


def _add_common(p: argparse.ArgumentParser, config_required=True) -> None:
    p.add_argument("--config", required=config_required, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--engine", choices=ENGINES, default=None, help="override the config engine")
    p.add_argument("--species", choices=SPECIES, default=None, help="override the config species")
    p.add_argument("--out", default=None, help="write the artifact here instead of stdout")
    p.add_argument(
        "--threads-chunk", type=int, default=None,
        help="row-chunk size for the streaming direct engine (0 = dense)",
    )


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
    p.add_argument("--shift", type=float, default=0.0,
                   help="constant added to every arrival time (invariance probe)")
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
