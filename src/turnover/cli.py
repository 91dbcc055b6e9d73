"""Command-line front end: simulation runs, exact moment tables, CF grids and
empirical-vs-analytic comparison reports, all as plot-ready CSV/JSON.

Every command writes a run manifest next to its outputs (config echo, seed,
code version, python / numpy / platform versions, timestamps, content
digests; for ``simulate`` also the wall time of each phase and the peak
RSS). Payload files themselves carry no timestamps, so rerunning a
command with the same flags and seed reproduces them byte for byte. JSON is
the canonical format; CSV cells use Python's shortest round-trip float
representation.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import gc
import hashlib
import json
import math
import os
import platform
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .charfn import (
    DEFAULT_CAP,
    ResourceLimitError,
    distance_cf,
    distance_cf_limit,
    distance_pdf,
    distances_joint_cf,
    distances_joint_cf_limit,
    laplace_pdf,
    particle_cf,
    particle_cf_limit,
)
from .empirical import EmpiricalSummary, summarize
from .moments import build_phi_table, phi_base
from .offsets import OffsetDistribution, from_name
from .simulator import SimConfig, run

OUT_DIR_ENV = "TURNOVER_OUT_DIR"

# mode -> (needs --n, needs --k)
CF_MODES = {
    "psiN": (True, False),
    "psiNk": (True, True),
    "psiInfK": (False, True),
    "phiN": (True, False),
    "gammaN": (True, False),
    "laplaceCF": (False, False),
    "laplacePdf": (False, False),
    "muNpdf": (True, False),
}

DEFAULT_MOMENT_TOL = {2: 0.05, 4: 0.10, 6: 0.25, 8: 0.60}
ORDER_LIMIT = 60


class CliError(Exception):
    """Validation failure that should exit with status 2."""


# What a command hands back to ``main``, which writes the manifest and prints
# the first output path: (output paths, config echo, exit status,
# manifest-only entries such as timings, which stay out of the payloads).
# The manifest's seed is the config echo's ``seed``, null where it has none.
CommandResult = tuple[list[str], dict, int, dict]


def _resolve(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _fmt(x) -> str:
    return repr(float(x))


def _write_json(path: str, obj: dict) -> None:
    # encode first: a payload that cannot be written leaves no partial file
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _environment() -> dict:
    """What a byte-identical rerun depends on besides the flags and seed. On
    Linux the platform string is ``platform.platform()``'s, built without the
    processor field that it gets from ``uname -p`` in a subprocess."""
    libc = "".join(platform.libc_ver())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": "-".join(
            [platform.system(), platform.release(), platform.machine()]
            + ([f"with-{libc}"] if libc else [])
        ),
    }


def _peak_rss_mb() -> float:
    """The process's RSS high-water mark in MB (``ru_maxrss`` is in kB on
    Linux and in bytes on macOS)."""
    import resource  # only simulate reads it, so it is not loaded at import

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"grid must be 'start:stop:count', got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CliError(f"bad grid {text!r}: {exc}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise CliError(f"bad grid {text!r}: start and stop must be finite")
    if count < 1 or stop < start:
        raise CliError(f"bad grid {text!r}: need stop >= start and count >= 1")
    return np.linspace(start, stop, count)


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise CliError(f"bad float list {text!r}: {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise CliError(f"bad float list {text!r}: values must be finite")
    return values


def _parse_tols(text: str) -> dict[int, float]:
    tols = dict(DEFAULT_MOMENT_TOL)
    if not text:
        return tols
    for item in text.split(","):
        if not item.strip():
            continue
        try:
            order, tol = item.split(":")
            order, tol = int(order), float(tol)
        except ValueError as exc:
            raise CliError(f"bad tolerance item {item!r}: {exc}") from None
        if not (math.isfinite(tol) and tol >= 0):
            raise CliError(f"bad tolerance item {item!r}: tolerances must be finite and >= 0")
        tols[order] = tol
    return tols


def _check_eps(eps: float) -> None:
    # the mixture's discarded mass, checked whether or not the mode draws one
    if not 0 < eps < 1:
        raise CliError(f"--eps must be in (0, 1), got {eps!r}")


# ---------------------------------------------------------------------- simulate


def cmd_simulate(args: argparse.Namespace) -> CommandResult:
    offsets = from_name(args.offset, args.sigma)
    ecf_points = _parse_floats(args.ecf_s)
    # the summary's flags are checked here, so a bad one fails before the run
    if args.max_order < 1:
        raise CliError(f"--max-order must be >= 1, got {args.max_order}")
    if args.bins < 1:
        raise CliError(f"--bins must be >= 1, got {args.bins}")
    if args.kde_points < 1:
        raise CliError(f"--kde-points must be >= 1, got {args.kde_points}")
    bandwidth = args.kde_bandwidth
    if bandwidth is not None and not (bandwidth > 0 and math.isfinite(bandwidth)):
        raise CliError(f"--kde-bandwidth must be a positive finite real, got {bandwidth!r}")
    thin = args.thin if args.thin is not None else args.particles
    config = SimConfig(
        n_particles=args.particles,
        offsets=offsets,
        steps=args.steps,
        burn_in=args.burn_in,
        seed=args.seed,
        thin=thin,
        init=args.init.replace("-", "_"),
        init_scale=args.init_scale,
    )
    clock = time.perf_counter()
    trajectory = run(config)
    ran = time.perf_counter()
    frames = trajectory.observable(args.observe)

    hist_range = None
    if args.observe == "raw":
        # the raw ensemble drifts, so a fixed +-6 sigma window is useless
        lo, hi = float(frames.min()), float(frames.max())
        pad = max(1e-12, 0.05 * (hi - lo))
        hist_range = (lo - pad, hi + pad)

    summary = summarize(
        frames,
        args.sigma,
        max_order=args.max_order,
        ecf_points=ecf_points,
        bins=args.bins,
        hist_range=hist_range,
        bandwidth=bandwidth,
        kde_points=args.kde_points,
        config={
            "observable": args.observe,
            "n_particles": args.particles,
            "sigma": args.sigma,
            "offset": offsets.kind,
            "steps": args.steps,
            "burn_in": config.resolved_burn_in,
            "seed": args.seed,
            "thin": thin,
            "init": config.init,
            "n_frames": trajectory.n_frames,
        },
    )

    summarized = time.perf_counter()
    out = _resolve(args.out)
    _write_json(out, summary.to_json_dict())
    outputs = [out]

    if args.trajectory_out:
        tpath = _resolve(args.trajectory_out)
        n = config.n_particles
        # one frame at a time as Python floats, so no whole-trajectory list
        recorded = zip(trajectory.times.tolist(), map(np.ndarray.tolist, trajectory.positions))
        if args.trajectory_format == "wide":
            header = "step," + ",".join(f"x{i + 1}" for i in range(n))
            rows = ([t] + [_fmt(v) for v in frame] for t, frame in recorded)
        else:
            header = "step,particle,position"
            rows = (
                [t, p, _fmt(v)] for t, frame in recorded for p, v in enumerate(frame, 1)
            )
        _write_csv(tpath, header, rows)
        outputs.append(tpath)
    phases = {
        "run_s": ran - clock,
        "summarize_s": summarized - ran,
        "write_s": time.perf_counter() - summarized,
        "peak_rss_mb": _peak_rss_mb(),
        "moves_applied": trajectory.moves_applied,
    }
    return outputs, summary.config, 0, {"phases": phases}


# ---------------------------------------------------------------------- moments


def _phi_table(max_order: int):
    """The exact moment table to ``max_order``, refused past ``ORDER_LIMIT``.
    ``build_phi_table`` is looked up by name at call time, so rebinding it
    (as a tracer does) reaches every command that builds a table."""
    if max_order > ORDER_LIMIT:
        raise ResourceLimitError(
            f"--max-order {max_order} exceeds the feasibility guard {ORDER_LIMIT}"
        )
    return build_phi_table(max_order)


def cmd_moments(args: argparse.Namespace) -> CommandResult:
    if args.max_order < 2:
        raise CliError("--max-order must be >= 2")
    if not (args.sigma > 0 and math.isfinite(args.sigma)):
        raise CliError(f"--sigma must be a positive finite real, got {args.sigma!r}")
    clock = time.perf_counter()
    table = _phi_table(args.max_order)
    phases = {"build_s": time.perf_counter() - clock, "table_entries": table.stored}
    rows = []
    for order in range(1, args.max_order + 1):
        moment = table.moment(order)
        rows.append(
            (order, moment.numerator, moment.denominator, float(moment) * args.sigma**order)
        )
    out = _resolve(args.out)
    if args.format == "csv":
        _write_csv(
            out,
            "order,num,den,approx",
            ([o, n, d, _fmt(v)] for o, n, d, v in rows),
        )
    else:
        _write_json(
            out,
            {
                "schema_version": 1,
                "sigma": args.sigma,
                "rows": [
                    {"order": o, "num": n, "den": d, "value": v}
                    for o, n, d, v in rows
                ],
            },
        )
    config = {"max_order": args.max_order, "sigma": args.sigma, "format": args.format}
    return [out], config, 0, {"phases": phases}


# ---------------------------------------------------------------------- cf


def _cf_values(
    mode: str, n: int | None, k: int | None, offsets: OffsetDistribution,
    cap: int, eps: float, points: np.ndarray,
) -> np.ndarray:
    """Values of ``mode`` on ``points``; every evaluator takes the whole grid,
    the recursive ones walk their memo once for it."""
    # the evaluators are looked up by name at call time, so rebinding them
    # (as a tracer does) reaches this dispatch
    sigma = offsets.sigma
    if mode == "psiN":
        return distance_cf(points, n, offsets)
    if mode == "laplaceCF":
        return distance_cf_limit(points, sigma)
    if mode == "laplacePdf":
        return laplace_pdf(points, sigma)
    if mode == "muNpdf":
        return distance_pdf(points, n, sigma, eps)
    if mode == "phiN":
        return particle_cf(points, n, offsets, cap=cap)
    if mode == "gammaN":
        return particle_cf_limit(points, n, sigma, cap=cap)
    # the all-equal k-tuple at each grid point
    lattice = np.broadcast_to(points, (k, points.size))
    if mode == "psiNk":
        return distances_joint_cf(lattice, n, offsets, cap=cap)
    return distances_joint_cf_limit(lattice, sigma, cap=cap)


def cmd_cf(args: argparse.Namespace) -> CommandResult:
    mode = args.mode
    points = _parse_grid(args.grid)
    sigma = args.sigma
    needs_n, needs_k = CF_MODES[mode]
    if needs_n and args.n is None:
        raise CliError(f"--n is required for mode {mode}")
    if needs_k and args.k is None:
        raise CliError(f"--k is required for mode {mode}")
    if needs_k and args.k < 1:
        raise CliError(f"--k must be >= 1, got {args.k}")
    _check_eps(args.eps)
    offsets = from_name(args.offset, sigma)
    values = _cf_values(mode, args.n, args.k, offsets, args.cap, args.eps, points)

    pairs = list(zip(points.tolist(), values.tolist()))
    out = _resolve(args.out)
    if args.format == "json":
        _write_json(
            out,
            {
                "schema_version": 1,
                "mode": mode,
                "n": args.n if needs_n else None,
                "k": args.k if needs_k else None,
                "sigma": sigma,
                "points": [{"s": s, "value": v} for s, v in pairs],
            },
        )
    else:
        _write_csv(out, "s,value", ([_fmt(s), _fmt(v)] for s, v in pairs))
    config = {
        "mode": mode,
        "n": args.n,
        "k": args.k,
        "sigma": sigma,
        "offset": args.offset,
        "grid": args.grid,
        "eps": args.eps,
        "cap": args.cap,
    }
    return [out], config, 0, {}


# ---------------------------------------------------------------------- compare


def _read_summary(path: str) -> EmpiricalSummary:
    """The summary in ``path``; a file that is not one raises ``CliError``."""
    with open(_resolve(path), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        summary = EmpiricalSummary.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path!r} is not a summary ({type(exc).__name__}: {exc})") from None
    if not isinstance(summary.config, dict) or not summary.config:
        raise CliError(f"summary {path!r} carries no config block")
    for key, values in (
        ("moments", summary.raw_moments),
        ("se.moments", summary.moment_ses),
        ("ecf", [v for point in summary.ecf for v in point]),
        ("se.ecf", summary.ecf_ses),
        ("ks_laplace", [summary.ks_laplace]),
    ):
        for value in values:
            if not isinstance(value, (int, float)):
                raise CliError(
                    f"summary {path!r} has a {key} value that is not a number: {value!r}"
                )
    return summary


def _check_config(name: str, config: dict, expected: dict, source: str) -> None:
    """Raise ``CliError`` at the first key of ``expected`` whose value in the
    ``name`` summary's config differs from the one ``source`` gives."""
    for key, value in expected.items():
        if config.get(key) != value:
            raise CliError(
                f"{name} {key} mismatch: {name} has {config.get(key)!r}, "
                f"{source} has {value!r}"
            )


def cmd_compare(args: argparse.Namespace) -> CommandResult:
    if args.max_order < 1:
        raise CliError(f"--max-order must be >= 1, got {args.max_order}")
    if not (math.isfinite(args.ks_threshold) and args.ks_threshold >= 0):
        raise CliError(
            f"--ks-threshold must be finite and >= 0, got {args.ks_threshold!r}"
        )
    _check_eps(args.eps)
    summary = _read_summary(args.summary)
    cfg = summary.config
    expected = {"sigma": args.sigma, "n_particles": args.n}
    if args.offset is not None:
        expected["offset"] = from_name(args.offset, args.sigma).kind
    _check_config("summary", cfg, expected, "the command line")
    observable = cfg.get("observable")
    if observable not in ("distances", "positions"):
        raise CliError(
            f"compare needs a distances or positions summary, got {observable!r}"
        )
    distances = observable == "distances"

    sigma = args.sigma
    n = args.n
    offsets = from_name(cfg.get("offset", "gaussian"), sigma)
    tols = _parse_tols(args.moment_tol)
    max_order = min(args.max_order, len(summary.raw_moments))
    orders = range(1, max_order + 1)

    # the references every row is checked against: a baseline run, or the
    # Laplace limit and the finite-n one-distance CF for distances, or the
    # exact limit-law moments for positions (which have no CF reference)
    analytic_cf = {}
    if args.baseline:
        baseline = _read_summary(args.baseline)
        if baseline.config.get("observable") != observable:
            raise CliError(f"baseline is not a {observable} summary")
        law = {key: cfg.get(key) for key in ("sigma", "n_particles", "offset")}
        _check_config("baseline", baseline.config, law, "the summary")
        if len(baseline.raw_moments) < max_order:
            raise CliError(f"baseline has {len(baseline.raw_moments)} moments, need {max_order}")
        exact_moments = baseline.raw_moments
        if distances:
            # the first baseline ECF row at each s wins
            for s, re, _im in baseline.ecf:
                analytic_cf.setdefault(s, re)
    elif distances:
        # the Laplace moments k! (sigma^2/2)^(k/2) are |phi_base(k)| sigma^k
        exact_moments = [float(abs(phi_base(order))) * sigma**order for order in orders]
        analytic_cf = {s: float(distance_cf(s, n, offsets)) for s, _re, _im in summary.ecf}
    else:
        table = _phi_table(max_order)
        exact_moments = [float(table.moment(order)) * sigma**order for order in orders]

    all_pass = True
    moment_rows = []
    for order, emp, se, exact in zip(
        orders, summary.raw_moments, summary.moment_ses, exact_moments
    ):
        if exact != 0.0:
            rel = abs(emp - exact) / abs(exact)
            ok = rel <= tols.get(order, 0.60)
        else:
            rel = None
            # a zero reference is checked against the sampling error instead
            ok = math.isfinite(se) and abs(emp - exact) <= 4.0 * se
        all_pass = all_pass and ok
        moment_rows.append(
            {
                "order": order,
                "empirical": emp,
                "exact": exact,
                "relative_gap": rel,
                "se": None if not math.isfinite(se) else se,
                "pass": ok,
            }
        )

    cf_rows = []
    for (s, re, _im), se in zip(summary.ecf, summary.ecf_ses):
        analytic = analytic_cf.get(s)
        if analytic is None:
            continue
        gap = abs(re - analytic)
        ok = math.isfinite(se) and gap <= 4.0 * se
        all_pass = all_pass and ok
        cf_rows.append(
            {
                "s": s,
                "empirical": re,
                "analytic": analytic,
                "gap": gap,
                "se": None if not math.isfinite(se) else se,
                "pass": ok,
            }
        )

    ks_block = None
    overlay = {
        "grid": summary.kde_grid.tolist(),
        "kde": summary.kde_values.tolist(),
        "laplace": None,
        "mixture": None,
    }
    if distances:
        ok = summary.ks_laplace <= args.ks_threshold
        all_pass = all_pass and ok
        ks_block = {
            "stat": summary.ks_laplace,
            "threshold": args.ks_threshold,
            "pass": ok,
        }
        overlay["laplace"] = laplace_pdf(summary.kde_grid, sigma).tolist()
        if offsets.kind == "gaussian" and n > 2:
            overlay["mixture"] = distance_pdf(summary.kde_grid, n, sigma, args.eps).tolist()

    report = {
        "schema_version": 1,
        "observable": observable,
        "n": n,
        "sigma": sigma,
        "moments": moment_rows,
        "cf_gaps": cf_rows,
        "ks": ks_block,
        "density_overlay": overlay,
        "pass": all_pass,
    }
    out = _resolve(args.out)
    _write_json(out, report)
    config = {
        "summary": args.summary,
        "baseline": args.baseline,
        "sigma": sigma,
        "n": n,
        "ks_threshold": args.ks_threshold,
    }
    return [out], config, 0 if all_pass else 1, {}


# ---------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turnover",
        description="Branching-turnover particle system: simulate, evaluate, compare.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--out", required=True)
    outputs.add_argument("--manifest", default=None)
    command = functools.partial(sub.add_parser, parents=[outputs])
    offset_kinds = ["gaussian", "uniform", "two-point", "two_point"]

    sim = command("simulate", help="run the chain and summarise an observable")
    sim.add_argument("--particles", type=int, required=True)
    sim.add_argument("--sigma", type=float, required=True)
    sim.add_argument("--offset", default="gaussian", choices=offset_kinds)
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument(
        "--burn-in", type=int, default=None, dest="burn_in",
        help="moves before the first recorded frame (default: 100 * particles; "
        "a distance relaxes over about particles**2 / 2 moves, so the default "
        "is too short beyond 200 particles)",
    )
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--thin", type=int, default=None)
    sim.add_argument(
        "--init", default="all-zero", choices=["all-zero", "iid-gaussian", "iid-uniform"]
    )
    sim.add_argument("--init-scale", type=float, default=1.0, dest="init_scale")
    sim.add_argument(
        "--observe", default="distances", choices=["distances", "positions", "raw"]
    )
    sim.add_argument("--max-order", type=int, default=8, dest="max_order")
    sim.add_argument("--ecf-s", default="5,10,20,40", dest="ecf_s")
    sim.add_argument("--bins", type=int, default=201)
    sim.add_argument(
        "--kde-bandwidth", type=float, default=None, dest="kde_bandwidth"
    )
    sim.add_argument("--kde-points", type=int, default=201, dest="kde_points")
    sim.add_argument("--trajectory-out", default=None, dest="trajectory_out")
    sim.add_argument(
        "--trajectory-format",
        default="long",
        choices=["long", "wide"],
        dest="trajectory_format",
    )

    mom = command("moments", help="exact moments of the limiting particle law")
    mom.add_argument("--max-order", type=int, required=True, dest="max_order")
    mom.add_argument("--sigma", type=float, default=1.0)
    mom.add_argument("--format", default="json", choices=["json", "csv"])

    cf = command("cf", help="evaluate a CF or density on a grid")
    cf.add_argument("--mode", required=True, choices=list(CF_MODES))
    cf.add_argument("--n", type=int, default=None)
    cf.add_argument("--k", type=int, default=None)
    cf.add_argument("--sigma", type=float, required=True)
    cf.add_argument("--offset", default="gaussian", choices=offset_kinds)
    cf.add_argument("--grid", required=True, help="start:stop:count, endpoints inclusive")
    cf.add_argument("--eps", type=float, default=1e-10)
    cf.add_argument("--cap", type=int, default=DEFAULT_CAP)
    cf.add_argument("--format", default="csv", choices=["json", "csv"])

    cmp_ = command("compare", help="empirical summary vs analytic references")
    cmp_.add_argument("--summary", required=True)
    cmp_.add_argument("--baseline", default=None)
    cmp_.add_argument("--sigma", type=float, required=True)
    cmp_.add_argument("--n", type=int, required=True)
    cmp_.add_argument("--offset", default=None, choices=offset_kinds)
    cmp_.add_argument("--max-order", type=int, default=8, dest="max_order")
    cmp_.add_argument(
        "--ks-threshold", type=float, default=0.02, dest="ks_threshold"
    )
    cmp_.add_argument("--moment-tol", default="", dest="moment_tol")
    cmp_.add_argument("--eps", type=float, default=1e-10)

    return parser


COMMANDS = {
    "simulate": cmd_simulate,
    "moments": cmd_moments,
    "cf": cmd_cf,
    "compare": cmd_compare,
}


def _merge_dash_values(argv: list[str]) -> list[str]:
    # values like "-50:50:1001" would otherwise be taken for option names
    merged = []
    skip = False
    for pos, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in ("--grid", "--ecf-s") and pos + 1 < len(argv):
            merged.append(f"{token}={argv[pos + 1]}")
            skip = True
        else:
            merged.append(token)
    return merged


def main(argv: list[str] | None = None) -> int:
    # numpy's and the package's objects live until exit; frozen once, they
    # are skipped by the collections the interpreter runs at shutdown
    if not gc.get_freeze_count():
        gc.freeze()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(_merge_dash_values(argv))
    started = _utcnow()
    try:
        outputs, config, status, extra = COMMANDS[args.command](args)
        _write_json(
            _resolve(args.manifest or args.out + ".manifest.json"),
            {
                "schema_version": 1,
                "command": args.command,
                "argv": argv,
                "config": config,
                "seed": config.get("seed"),
                "code_version": __version__,
                "environment": _environment(),
                "started_utc": started,
                "finished_utc": _utcnow(),
                "outputs": [
                    {
                        "path": os.path.basename(p),
                        "sha256": _sha256(p),
                        "bytes": os.path.getsize(p),
                    }
                    for p in outputs
                ],
                **extra,
            },
        )
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(outputs[0])
    return status


if __name__ == "__main__":
    sys.exit(main())
