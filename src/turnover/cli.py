"""Command-line front end: simulation runs, exact moment tables, CF grids and
empirical-vs-analytic comparison reports, all as plot-ready CSV/JSON.

Every command writes a run manifest next to its outputs (the parsed flags,
seed, code version, python / numpy / platform versions, timestamps, the
process's CPU time, content digests; for ``simulate`` also the wall time of
each phase and the peak RSS). Payload files themselves carry no timestamps,
so rerunning a command with the same flags and seed reproduces them byte for
byte. JSON is the canonical format; CSV cells use Python's shortest
round-trip float representation.
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

# the package calls no BLAS routine, so OpenBLAS needs no second thread
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .charfn import (
    DEFAULT_CAP,
    ResourceLimitError,
    check_eps,
    distance_cf,
    distance_cf_limit,
    distance_pdf,
    distances_joint_cf,
    distances_joint_cf_limit,
    laplace_pdf,
    particle_cf,
    particle_cf_limit,
)
from .empirical import EmpiricalSummary, finite_or_none, summarize
from .moments import build_phi_table, phi_base
from .offsets import KINDS, check_count, check_scale, from_name
from .simulator import INIT_KINDS, SimConfig, run

OUT_DIR_ENV = "TURNOVER_OUT_DIR"

# mode -> (reads --n, reads --k, evaluator over (grid, parsed flags, offset
# law)). Every evaluator takes the whole grid; the recursive ones walk their
# memo once for it, and the k-modes take the all-equal k-tuple at each grid
# point. The evaluators are looked up by name at call time, so rebinding them
# (as a tracer does) reaches this table
CF_MODES = {
    "psiN": (True, False, lambda s, a, law: distance_cf(s, a.n, law)),
    "psiNk": (True, True, lambda s, a, law: distances_joint_cf(
        np.broadcast_to(s, (a.k, s.size)), a.n, law, cap=a.cap)),
    "psiInfK": (False, True, lambda s, a, law: distances_joint_cf_limit(
        np.broadcast_to(s, (a.k, s.size)), law.sigma, cap=a.cap)),
    "phiN": (True, False, lambda s, a, law: particle_cf(s, a.n, law, cap=a.cap)),
    "gammaN": (True, False, lambda s, a, law: particle_cf_limit(s, a.n, law.sigma, cap=a.cap)),
    "laplaceCF": (False, False, lambda s, a, law: distance_cf_limit(s, law.sigma)),
    "laplacePdf": (False, False, lambda s, a, law: laplace_pdf(s, law.sigma)),
    "muNpdf": (True, False, lambda s, a, law: distance_pdf(s, a.n, law.sigma, a.eps)),
}

DEFAULT_MOMENT_TOL = {2: 0.05, 4: 0.10, 6: 0.25, 8: 0.60}
ORDER_LIMIT = 60


# What a command hands back to ``main``, which writes the manifest and prints
# the first output path: (output paths, exit status, manifest-only entries
# such as timings, which stay out of the payloads).
CommandResult = tuple[list[str], int, dict]


def _resolve(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _fmt(x) -> str:
    return repr(float(x))


def _scaled(value, sigma: float, order: int) -> float:
    """``float(value) * sigma**order`` for a ``value`` >= 0, where a power too
    large for a float gives inf, or 0 for a zero value."""
    try:
        return float(value) * sigma**order
    except OverflowError:
        return math.inf if value else 0.0


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
        raise ValueError(f"grid must be 'start:stop:count', got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad grid {text!r}: {exc}") from None
    if not (math.isfinite(start) and math.isfinite(stop) and start <= stop):
        raise ValueError(f"bad grid {text!r}: need finite start <= stop")
    check_count(count, 1, f"the count of grid {text!r}")
    return np.linspace(start, stop, count)


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"bad float list {text!r}: {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"bad float list {text!r}: values must be finite")
    return values


def _check_tolerance(value: float, name: str) -> None:
    """Raise ``ValueError`` unless ``value``, a verdict's threshold, is finite
    and at least 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


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
            raise ValueError(f"bad tolerance item {item!r}: {exc}") from None
        check_count(order, 1, f"the order of --moment-tol item {item!r}")
        _check_tolerance(tol, f"the tolerance of --moment-tol item {item!r}")
        tols[order] = tol
    return tols


# ---------------------------------------------------------------------- simulate


def cmd_simulate(args: argparse.Namespace) -> CommandResult:
    offsets = from_name(args.offset, args.sigma)
    ecf_points = _parse_floats(args.ecf_s)
    # the summary's flags are checked here, so a bad one fails before the run
    check_count(args.max_order, 1, "--max-order")
    check_count(args.bins, 1, "--bins")
    check_count(args.kde_points, 1, "--kde-points")
    bandwidth = args.kde_bandwidth
    if bandwidth is not None:
        check_scale(bandwidth, "--kde-bandwidth")
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
    # only raw values need every walk to reach its gap's start
    trajectory = run(config, centred=args.observe != "raw" and not args.trajectory_out)
    ran = time.perf_counter()
    run_peak_rss_mb = _peak_rss_mb()
    frames = trajectory.observable(args.observe)
    n_frames = trajectory.n_frames
    counts = {
        "moves_applied": trajectory.moves_applied,
        "frames_coalesced": int(trajectory.coalesced.sum()),
        "burn_in_coalesced": bool(trajectory.coalesced[0]),
    }
    if not args.trajectory_out:
        # the summary needs only the frames, so the positions go before it
        # runs (raw frames are the positions themselves)
        del trajectory

    hist_range = None
    if args.observe == "raw":
        # the raw ensemble drifts, so a fixed +-6 sigma window is useless
        lo, hi = float(frames.min()), float(frames.max())
        pad = max(1e-12, 0.05 * (hi - lo))
        hist_range = (lo - pad, hi + pad)

    # moments past the float range are written as null, without warnings
    with np.errstate(over="ignore", invalid="ignore"):
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
                "n_frames": n_frames,
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
        "run_peak_rss_mb": run_peak_rss_mb,
        "peak_rss_mb": _peak_rss_mb(),
        **counts,
    }
    return outputs, 0, {"phases": phases}


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
    check_count(args.max_order, 2, "--max-order")
    check_scale(args.sigma, "--sigma")
    clock = time.perf_counter()
    table = _phi_table(args.max_order)
    phases = {"build_s": time.perf_counter() - clock, "table_entries": table.stored}
    rows = []
    for order in range(1, args.max_order + 1):
        moment = table.moment(order)
        rows.append(
            (order, moment.numerator, moment.denominator, _scaled(moment, args.sigma, order))
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
                    {"order": o, "num": n, "den": d, "value": finite_or_none(v)}
                    for o, n, d, v in rows
                ],
            },
        )
    return [out], 0, {"phases": phases}


# ---------------------------------------------------------------------- cf


def cmd_cf(args: argparse.Namespace) -> CommandResult:
    mode = args.mode
    points = _parse_grid(args.grid)
    sigma = args.sigma
    needs_n, needs_k, evaluate = CF_MODES[mode]
    if needs_n and args.n is None:
        raise ValueError(f"--n is required for mode {mode}")
    if needs_k and args.k is None:
        raise ValueError(f"--k is required for mode {mode}")
    # checked in every mode, as the manifest records them whether read or not
    if args.n is not None:
        check_count(args.n, 2, "--n")
    if args.k is not None:
        check_count(args.k, 1, "--k")
    check_count(args.cap, 1, "--cap")
    check_eps(args.eps, "--eps")
    values = evaluate(points, args, from_name(args.offset, sigma))

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
    return [out], 0, {}


# ---------------------------------------------------------------------- compare


def _read_summary(path: str) -> EmpiricalSummary:
    """The summary in ``path``; a file that is not one raises ``ValueError``."""
    with open(_resolve(path), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        summary = EmpiricalSummary.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path!r} is not a summary ({type(exc).__name__}: {exc})") from None
    if not isinstance(summary.config, dict) or not summary.config:
        raise ValueError(f"summary {path!r} carries no config block")
    return summary


def _check_config(name: str, config: dict, expected: dict, source: str) -> None:
    """Raise ``ValueError`` at the first key of ``expected`` whose value in the
    ``name`` summary's config differs from the one ``source`` gives."""
    for key, value in expected.items():
        if config.get(key) != value:
            raise ValueError(
                f"{name} {key} mismatch: {name} has {config.get(key)!r}, "
                f"{source} has {value!r}"
            )


def _verdict(estimate, se, reference, reference_se, band=None):
    """``(gap, relative gap, pass)`` of one row; the relative gap is None
    for a zero reference. A nonzero reference with a relative ``band`` (an
    exact moment) is judged by the band. Every other row passes when the gap
    is at most 4 times its SE, sqrt(se^2 + reference_se^2), which is 4 se
    against an exact reference (reference_se 0); a row whose SE is not
    finite fails. So does a row whose estimate or reference is not finite
    (a null in a summary reads as NaN): its gap is inf or NaN."""
    gap = abs(estimate - reference)
    rel = gap / abs(reference) if reference != 0.0 else None
    if band is not None and rel is not None:
        return gap, rel, rel <= band
    spread = math.hypot(se, reference_se)
    return gap, rel, math.isfinite(spread) and gap <= 4.0 * spread


def cmd_compare(args: argparse.Namespace) -> CommandResult:
    check_count(args.max_order, 1, "--max-order")
    _check_tolerance(args.ks_threshold, "--ks-threshold")
    check_eps(args.eps, "--eps")
    summary = _read_summary(args.summary)
    cfg = summary.config
    expected = {"sigma": args.sigma, "n_particles": args.n}
    if args.offset is not None:
        expected["offset"] = from_name(args.offset, args.sigma).kind
    _check_config("summary", cfg, expected, "the command line")
    observable = cfg.get("observable")
    if observable not in ("distances", "positions"):
        raise ValueError(
            f"compare needs a distances or positions summary, got {observable!r}"
        )
    distances = observable == "distances"

    sigma = args.sigma
    n = args.n
    offsets = from_name(cfg.get("offset", "gaussian"), sigma)
    tols = _parse_tols(args.moment_tol)
    max_order = min(args.max_order, len(summary.raw_moments))
    orders = range(1, max_order + 1)

    # each reference as (value, SE), the SE 0 for an exact law: a baseline
    # run's moments and ECF, or the Laplace limit and the finite-n
    # one-distance CF for distances, or the exact limit-law moments for
    # positions (which have no exact CF reference)
    cf_refs = {}
    if args.baseline:
        baseline = _read_summary(args.baseline)
        if baseline.config.get("observable") != observable:
            raise ValueError(f"baseline is not a {observable} summary")
        law = {key: cfg.get(key) for key in ("sigma", "n_particles", "offset")}
        _check_config("baseline", baseline.config, law, "the summary")
        if len(baseline.raw_moments) < max_order:
            raise ValueError(f"baseline has {len(baseline.raw_moments)} moments, need {max_order}")
        moment_refs = list(zip(baseline.raw_moments, baseline.moment_ses))
        # the first baseline ECF row at each s wins
        for (s, re, _im), se in zip(baseline.ecf, baseline.ecf_ses):
            cf_refs.setdefault(s, (re, se))
    elif distances:
        # the Laplace moments k! (sigma^2/2)^(k/2) are |phi_base(k)| sigma^k
        moment_refs = [(_scaled(abs(phi_base(k)), sigma, k), 0.0) for k in orders]
        cf_refs = {s: (float(distance_cf(s, n, offsets)), 0.0) for s, _re, _im in summary.ecf}
    else:
        table = _phi_table(max_order)
        moment_refs = [(_scaled(table.moment(k), sigma, k), 0.0) for k in orders]

    moment_rows = []
    for order, emp, se, (ref, ref_se) in zip(
        orders, summary.raw_moments, summary.moment_ses, moment_refs
    ):
        # only an exact reference has relative bands
        band = None if args.baseline else tols.get(order, 0.60)
        _gap, rel, ok = _verdict(emp, se, ref, ref_se, band)
        moment_rows.append({"order": order, "empirical": finite_or_none(emp),
                            "exact": finite_or_none(ref), "relative_gap": finite_or_none(rel),
                            "se": finite_or_none(se), "pass": ok})
    cf_rows = []
    for (s, re, _im), se in zip(summary.ecf, summary.ecf_ses):
        if s in cf_refs:
            ref, ref_se = cf_refs[s]
            gap, _rel, ok = _verdict(re, se, ref, ref_se)
            cf_rows.append({"s": s, "empirical": re, "analytic": finite_or_none(ref),
                            "gap": finite_or_none(gap), "se": finite_or_none(se), "pass": ok})

    ks_block = None
    overlay = {
        "grid": summary.kde_grid.tolist(),
        "kde": summary.kde_values.tolist(),
        "laplace": None,
        "mixture": None,
    }
    if distances:
        ks_block = {
            "stat": finite_or_none(summary.ks_laplace),
            "threshold": args.ks_threshold,
            "pass": summary.ks_laplace <= args.ks_threshold,
        }
        overlay["laplace"] = laplace_pdf(summary.kde_grid, sigma).tolist()
        if offsets.kind == "gaussian" and n > 2:
            overlay["mixture"] = distance_pdf(summary.kde_grid, n, sigma, args.eps).tolist()
    all_pass = all(row["pass"] for row in moment_rows + cf_rows) and (
        ks_block is None or ks_block["pass"]
    )

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
    return [out], 0 if all_pass else 1, {}


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
    # each offset kind also in its dashed spelling; the init kinds only in it
    offset_kinds = list(dict.fromkeys(s for k in KINDS for s in (k.replace("_", "-"), k)))

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
        "--init", default="all-zero", choices=[k.replace("_", "-") for k in INIT_KINDS]
    )
    sim.add_argument("--init-scale", type=float, default=1.0, dest="init_scale")
    sim.add_argument(
        "--observe", default="distances", choices=["distances", "positions", "raw"]
    )
    sim.add_argument("--max-order", type=int, default=8, dest="max_order")
    sim.add_argument(
        "--ecf-s", default="5,10,20,40", dest="ecf_s",
        help="ECF points; a point exactly twice the one before it is derived "
        "from it by angle doubling, so order matters (default: %(default)s, "
        "one doubling chain)",
    )
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
    flags = {key: value for key, value in vars(args).items() if key != "command"}
    started = _utcnow()
    try:
        outputs, status, extra = COMMANDS[args.command](args)
        _write_json(
            _resolve(args.manifest or args.out + ".manifest.json"),
            {
                "schema_version": 1,
                "command": args.command,
                "argv": argv,
                "config": flags,
                "seed": flags.get("seed"),
                "code_version": __version__,
                "environment": _environment(),
                "started_utc": started,
                "finished_utc": _utcnow(),
                # start-up included, and every thread's time, not only this one's
                "process_cpu_s": time.process_time(),
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(outputs[0])
    return status


if __name__ == "__main__":
    sys.exit(main())
