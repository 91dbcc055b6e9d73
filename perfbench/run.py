"""Benchmark of the ``turnover`` command line, run from a checkout's root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--report FILE]

One client runs the workload's command sequence (see workloads.py) in a
closed loop: each command is a fresh ``python3 -m turnover.cli`` child, the
next one starts after the previous one has exited, and sequences repeat
until ``--seconds`` have passed. Before the loop, fresh interpreters time
``import turnover.cli`` (set-up). Every output is checked. A fixed reference
kernel (reference.py) runs before the first sequence and after each command.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported as
medians over the sequences; the times among them are divided by the run's
mean reference time, and the plain times are printed next to them. With
``--trace 1`` plain and traced sequences alternate; traced ones run each
command under tracer.py, and the per-layer metrics of BENCHMARK.json are
medians over the traced sequences.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit, quartiles and sample count, and the
environment. ``--report`` also writes all of it, with every sample,
to a JSON file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import stats
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, os.pardir, "BENCHMARK.json")
WORK_DIR = ".perfbench_work"
TRACER = os.path.join(HERE, "tracer.py")
REFERENCE = os.path.join(HERE, "reference.py")

SETUP_REPEATS = 9
SETUP_PROBE = "import time, turnover.cli; print(repr(time.monotonic()))"
MB = 1024.0  # ru_maxrss is in kB on Linux
CLI_COMMANDS = ("simulate", "moments", "cf", "compare")
# Plain measurements printed next to the gated end-to-end metrics: the
# gated *_ref ones are these divided by (or, for a rate, multiplied by) the
# mean time of the reference kernel in the same run.
UNGATED = (("wall_s", "s"), ("cpu_s", "s"), ("steps_per_s", "1/s"), ("ref_s", "s"))
# A traced sequence's wall time is its commands' start-up (each up to the end
# of ``import turnover.cli``) plus the self times of all spans plus a gap:
# the tracer's install and span dump, and process exit. A gap beyond this
# share of the wall time, either way, is a failed check.
GAP_SHARE = 0.1


def environment(root: str) -> dict:
    """Versions, platform and hardware the numbers were measured on."""
    def read(path: str) -> str | None:
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        size = read(f"{base}/size")
        if size is None:
            break
        caches[f"L{read(base + '/level')}{(read(base + '/type') or '')[:1].lower()}"] = size

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    src = os.path.join(root, "src", "turnover")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())

    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


class Runner:
    """Runs one workload's sequences in a work directory and collects
    timings, check failures and (for traced sequences) spans."""

    def __init__(self, root: str, work: str, workload: workloads.Workload):
        self.work = work
        self.workload = workload
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}
        self.refs: list[float] = []

    def _op(self, errors: list[str], n_checks: int = 1) -> None:
        self.attempted += n_checks
        self.failures.extend(errors)

    def _spawn(self, argv: list[str], err_path: str):
        """Run a child to completion: (exit status, ``time.monotonic`` at
        launch, wall seconds, rusage)."""
        with open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, start, wall, usage

    def setup_times(self) -> list[float]:
        """Seconds for a fresh interpreter to finish ``import turnover.cli``.

        One untimed probe first writes the bytecode caches, which a user
        pays once per install, not once per command.
        """
        times = []
        for probe in range(SETUP_REPEATS + 1):
            start = time.monotonic()
            done = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE], cwd=self.work, env=self.env,
                stdin=subprocess.DEVNULL, capture_output=True, text=True,
            )
            self._op([] if done.returncode == 0 else
                     [f"import turnover.cli failed: {done.stderr.strip()[-500:]}"])
            if done.returncode != 0:
                break
            if probe:
                times.append(float(done.stdout) - start)
        return times

    def sequence(self, traced: bool) -> dict:
        """Run the workload's commands once; return the sequence's numbers."""
        result = {"traced": traced, "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0,
                  "output_bytes": 0, "commands": [], "spans": [], "counts": {},
                  "startup_s": 0.0}
        for index, command in enumerate(self.workload.commands):
            spans_path = os.path.join(self.work, f"spans{index}.json")
            err_path = os.path.join(self.work, f"stderr{index}.txt")
            prefix = [TRACER, spans_path] if traced else ["-m", "turnover.cli"]
            code, launched, wall, usage = self._spawn(
                [sys.executable, *prefix, *command.argv], err_path)
            self.refs.append(self.reference_time())
            cpu = usage.ru_utime + usage.ru_stime
            result["wall_s"] += wall
            result["cpu_s"] += cpu
            result["peak_rss_mb"] = max(result["peak_rss_mb"], usage.ru_maxrss / MB)
            result["commands"].append({"kind": command.kind, "wall_s": wall, "cpu_s": cpu,
                                       "rss_mb": usage.ru_maxrss / MB, "exit": code})
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                stderr = fh.read()
            if not workloads.classify_exit(command.kind, code, stderr):
                self._op([f"{command.kind} exited with {code}: {stderr.strip()[-500:]}"])
                self._op([f"{command.kind} output not checked"] * command.n_checks,
                         command.n_checks)
                continue
            self._op([])
            out = os.path.join(self.work, command.out)
            self._op(workloads.run_check(command, out), command.n_checks)
            for path in (out, out + ".manifest.json"):
                if os.path.exists(path):
                    result["output_bytes"] += os.path.getsize(path)
            if command.kind == "simulate":
                self._check_repeatable(index, out)
            if traced:
                self._collect_spans(result, spans_path, launched)
        if traced:
            self._check_table(result)
            self._check_gap(result)
        return result

    def _check_repeatable(self, index: int, out: str) -> None:
        """Every repetition of one seed writes a byte-identical payload."""
        with open(out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if index not in self.digests:
            self.digests[index] = digest
            return
        first = self.digests[index]
        self._op([] if digest == first else
                 [f"simulate payload differs between repetitions of one seed "
                  f"({digest[:12]} vs {first[:12]})"])

    def _collect_spans(self, result: dict, spans_path: str, launched: float) -> None:
        with open(spans_path, encoding="utf-8") as fh:
            dump = json.load(fh)
        result["startup_s"] += dump["ready"] - launched
        offset = len(result["spans"])
        for span in dump["spans"]:
            span["id"] += offset
            if span["parent"] is not None:
                span["parent"] += offset
            result["spans"].append(span)
        for name, count in dump["counts"].items():
            result["counts"][name] = result["counts"].get(name, 0) + count

    def _check_table(self, result: dict) -> None:
        """The moment table holds one entry per partition of each order."""
        if self.workload.table_entries is None:
            return
        entries = tracer.layer_totals(result["spans"]).get("moments.build_phi_table")
        entries = entries["attrs"].get("entries") if entries else None
        self._op([] if entries == self.workload.table_entries else
                 [f"moment table has {entries} entries, expected "
                  f"{self.workload.table_entries} (partitions of 0..{workloads.MOMENT_ORDER})"])

    def _check_gap(self, result: dict) -> None:
        """Start-up and the layers' self times add up to the traced wall
        time, within GAP_SHARE of it."""
        _, gap = trace_gap(result)
        limit = GAP_SHARE * result["wall_s"]
        self._op([] if abs(gap) <= limit else
                 [f"traced wall time {result['wall_s']:.3f} s is not covered by start-up "
                  f"and span self times: gap {gap:.3f} s, limit {limit:.3f} s"])

    def reference_time(self) -> float:
        """Seconds of one run of the fixed reference kernel (reference.py)."""
        done = subprocess.run([sys.executable, REFERENCE], cwd=self.work, env=self.env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              check=True)
        return float(done.stdout)

    def loop(self, seconds: float, trace: bool) -> list[dict]:
        """Closed loop of sequences for ``seconds``; a sequence is started
        only if the mean one so far would still end in time. Traced runs
        alternate plain and traced sequences and make at least one of each.

        A reference run precedes the first sequence and follows each
        command; their times are kept in ``self.refs``."""
        start = time.perf_counter()
        done: list[dict] = []
        self.refs.append(self.reference_time())
        while True:
            done.append(self.sequence(traced=trace and len(done) % 2 == 1))
            elapsed = time.perf_counter() - start
            if elapsed * (len(done) + 1) / len(done) > seconds and (not trace or len(done) >= 2):
                return done


def trace_gap(seq: dict) -> tuple[float, float]:
    """(sum of every span's self time, traced wall time left over by it and
    by the commands' start-up)."""
    self_sum = sum(t["self_s"] for t in tracer.layer_totals(seq["spans"]).values())
    return self_sum, seq["wall_s"] - seq["startup_s"] - self_sum


def layer_metrics(seq: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sequence."""
    totals = tracer.layer_totals(seq["spans"])

    def get(name: str, key: str = "s") -> float:
        return totals[name][key] if name in totals else 0

    def attr(name: str, key: str) -> int:
        return totals[name]["attrs"].get(key, 0) if name in totals else 0

    steps = attr("simulator.run", "steps")
    entries = attr("moments.build_phi_table", "entries")
    self_sum, gap = trace_gap(seq)
    metrics = {
        "simulator.run.s": get("simulator.run"),
        "simulator.run.self_s": get("simulator.run", "self_s"),
        "simulator.run.ns_per_step": get("simulator.run") / steps * 1e9 if steps else 0.0,
        "simulator.draw_moves.s": get("simulator.draw_moves"),
        "offsets.sample.s": get("offsets.sample"),
        "simulator.run.rss_delta_mb": get("simulator.run", "rss_growth_kb") / MB,
        "simulator.frames": attr("simulator.run", "frames"),
        "simulator.frame_bytes": attr("simulator.run", "frame_bytes"),
        "simulator.observable.s": get("simulator.observable"),
        "empirical.summarize.s": get("empirical.summarize"),
        "empirical.summarize.self_s": get("empirical.summarize", "self_s"),
        "empirical.summarize.rss_delta_mb": get("empirical.summarize", "rss_growth_kb") / MB,
        "empirical.samples": attr("empirical.summarize", "samples"),
        "empirical.kde.kernel_evals": attr("empirical.kde", "kernel_evals"),
        "moments.build_phi_table.s": get("moments.build_phi_table"),
        "moments.build_phi_table.entries": entries,
        "moments.build_phi_table.us_per_entry":
            get("moments.build_phi_table") / entries * 1e6 if entries else 0.0,
        "charfn.particle_cf.calls": get("charfn.particle_cf", "calls"),
        "offsets.cf_scaled.calls": seq["counts"].get("offsets.cf_scaled", 0),
        "cli.output_bytes": seq["output_bytes"],
        "trace.wall_s": seq["wall_s"],
        "trace.setup_s": seq["startup_s"],
        "trace.self_sum_s": self_sum,
        "trace.hook_s": get(tracer.HOOK_SPAN),
        "trace.gap_s": gap,
    }
    for name in ("kde", "accumulate_moments", "empirical_cf", "ks_laplace", "batch_means_se"):
        metrics[f"empirical.{name}.s"] = get(f"empirical.{name}")
    for name in ("particle_cf", "particle_cf_limit", "distances_joint_cf", "distance_cf",
                 "distance_pdf"):
        metrics[f"charfn.{name}.s"] = get(f"charfn.{name}")
    for name in CLI_COMMANDS:
        metrics[f"cli.{name}.s"] = get(f"cli.{name}")
        metrics[f"cli.{name}.self_s"] = get(f"cli.{name}", "self_s")
    return metrics


def summarise_run(workload, sequences, setup, refs, trace: bool) -> dict[str, dict]:
    """Every metric of the run: median, quartiles and samples."""
    plain = [s for s in sequences if not s["traced"]]
    metrics = {"setup_s": stats.summary(setup), "ref_s": stats.summary(refs)}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        metrics[key] = stats.summary([s[key] for s in plain])
    steps_per_s = [workload.work_units / s["commands"][0]["wall_s"] for s in plain]
    metrics["steps_per_s"] = stats.summary(steps_per_s)
    # One gauge per run, the mean of its reference runs. The host's speed
    # flips between levels some 30 % apart that last seconds; a command
    # lasting seconds averages over them, and so does the mean of many
    # reference runs, while a median of few jumps from one level to another.
    ref = statistics.fmean(refs)
    metrics["wall_ref"] = stats.summary([s["wall_s"] / ref for s in plain])
    metrics["cpu_ref"] = stats.summary([s["cpu_s"] / ref for s in plain])
    metrics["steps_per_ref"] = stats.summary([rate * ref for rate in steps_per_s])
    if trace:
        traced = [layer_metrics(s) for s in sequences if s["traced"]]
        for name in traced[0]:
            metrics[name] = stats.summary([t[name] for t in traced])
        metrics["trace.overhead_s"] = stats.summary(
            [metrics["trace.wall_s"]["median"] - metrics["wall_s"]["median"]]
        )
    return metrics


def print_metric(name: str, unit: str, m: dict) -> None:
    print(f"  {name:38s} {m['median']:>12.6g} {unit:5s} median of {m['samples']} "
          f"[{m['q1']:.6g} .. {m['q3']:.6g}]")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=None, help="write the full result as JSON here")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "turnover", "cli.py")):
        print("error: run from the root of a turnover checkout "
              "(src/turnover/cli.py not found)", file=sys.stderr)
        return 2
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = workloads.build(args.workload, args.seed)
    work = os.path.join(root, WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(root, work, workload)
        setup = runner.setup_times()
        if len(setup) < SETUP_REPEATS:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        sequences = runner.loop(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass  # another run is still using it
    metrics = summarise_run(workload, sequences, setup, runner.refs, bool(args.trace))
    env = environment(root)
    env["seeds"] = {args.workload: args.seed}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {len(sequences)} sequences of "
          f"{len(workload.commands)} command(s), one client, closed loop")
    print("environment: " + json.dumps(env, sort_keys=True))
    for m in listed:
        print_metric(m["name"], m["unit"], metrics[m["name"]])
    if not args.trace:
        print("  not gated:")
        for name, unit in UNGATED:
            print_metric(name, unit, metrics[name])
    failed = len(runner.failures)
    print(f"  {'failed_ops':38s} {failed / runner.attempted:>12.6g} {'ratio':5s} "
          f"{failed} failed of {runner.attempted} attempted")
    for message in runner.failures[:20]:
        print(f"  FAILED: {message}")

    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "environment": env, "metrics": metrics,
                       "attempted": runner.attempted, "failures": runner.failures,
                       "sequences": [{k: v for k, v in s.items() if k != "spans"}
                                     for s in sequences]},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["median"], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
