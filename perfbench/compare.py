"""Parent-vs-change comparison with the benchmark's own rules.

    python3 perfbench/compare.py run --parent DIR --change DIR --out RESULTS.json
                                 [--first-seed 1]
    python3 perfbench/compare.py judge RESULTS.json [--baseline-out FILE]

``run`` measures two checkouts (each a directory holding ``src/turnover``)
with this directory's run.py, so both sides use identical benchmark code and
settings. It makes 10 pairs on every workload of BENCHMARK.json. Pair i uses
seed ``first-seed + i`` on both sides and alternates which side goes first;
each side's run is a plain (``--trace 0``) run of BENCHMARK.json's
``run_seconds``. Results are saved after every run.

``judge`` refuses (exit status 2) results that lack a workload of
BENCHMARK.json or hold fewer than 10 pairs of one. It applies, to every
(workload, end-to-end metric) row:

* gain: the change wins at least 9 of 10 pairs (ties count for neither) and
  the medians differ, in the change's favour, by more than the parent's
  interquartile range; a gain does not count if more operations failed;
* regression: the change's median is worse than the parent's by more than
  the metric's bound (a share of the parent's median);
* unresolved: otherwise, when either side's interquartile range exceeds the
  bound (as a share of its median), unless every change run beats every
  parent run;
* no regression: everything else.

``--baseline-out`` writes the parent side's values, medians and quartiles, with the
environment they were measured in, as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_PY = os.path.join(HERE, "run.py")
SPEC_PATH = os.path.join(HERE, os.pardir, "BENCHMARK.json")
PAIRS = 10
WIN_SHARE = 0.9
RUN_TIMEOUT_S = 600


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def better(a: float, b: float, direction: str) -> bool:
    """True when value ``a`` is strictly better than ``b``."""
    return a < b if direction == "lower" else a > b


def pair_wins(parent: list[float], change: list[float], direction: str) -> int:
    """Pairs in which the change is strictly better; ties count for neither."""
    return sum(better(c, p, direction) for p, c in zip(parent, change))


def is_gain(parent: list[float], change: list[float], direction: str) -> bool:
    """The gain rule: at least 9 of 10 pairs won, and the medians differ in
    the change's favour by more than the parent's interquartile range."""
    q1, med_p, q3 = stats.quartiles(parent)
    med_c = stats.quartiles(change)[1]
    wins = pair_wins(parent, change, direction)
    return (wins >= math.ceil(WIN_SHARE * len(parent))
            and better(med_c, med_p, direction)
            and abs(med_c - med_p) > q3 - q1)


def worse_share(parent: list[float], change: list[float], direction: str) -> float:
    """How much worse the change's median is, as a share of the parent's."""
    med_p = stats.quartiles(parent)[1]
    med_c = stats.quartiles(change)[1]
    worse = med_c - med_p if direction == "lower" else med_p - med_c
    return worse / abs(med_p)


def verdict(parent: list[float], change: list[float], direction: str, bound: float,
            more_failures: bool = False) -> str:
    if worse_share(parent, change, direction) > bound:
        return "regression"
    if not more_failures and is_gain(parent, change, direction):
        return "gain"
    spread = max(stats.relative_iqr(parent), stats.relative_iqr(change))
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    return "no regression"


def _run_side(side_dir: str, workload: str, seed: int, seconds: int, report: str) -> dict:
    argv = [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--report", report]
    done = subprocess.run(argv, cwd=side_dir, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"run.py failed in {side_dir} ({workload}, seed {seed}):\n"
                         f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    report_dir = os.path.splitext(os.path.abspath(args.out))[0] + "-reports"
    os.makedirs(report_dir, exist_ok=True)
    results = {"run_seconds": spec["run_seconds"], "pairs": [], "environment": None}
    for index in range(PAIRS):
        seed = args.first_seed + index
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for workload in names:
            row = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                report = os.path.join(report_dir, f"{side}-{workload}-{seed}.json")
                row[side] = _run_side(sides[side], workload, seed, spec["run_seconds"], report)
                if results["environment"] is None:
                    with open(report, encoding="utf-8") as fh:
                        results["environment"] = json.load(fh)["environment"]
                print(f"pair {index + 1}/{PAIRS} {workload} seed {seed} {side}: "
                      + json.dumps(row[side]["metrics"]), flush=True)
            results["pairs"].append(row)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(results, fh, indent=1)
                fh.write("\n")
    return 0


def series(results: dict, workload: str, side: str, metric: str) -> list[float]:
    return [p[side]["metrics"][metric]["value"] for p in results["pairs"]
            if p["workload"] == workload]


def cmd_judge(args: argparse.Namespace) -> int:
    spec = load_spec()
    with open(args.results, encoding="utf-8") as fh:
        results = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    short = {w: n for w in workloads
             if (n := sum(p["workload"] == w for p in results["pairs"])) < PAIRS}
    if short:
        print(f"incomplete results: fewer than {PAIRS} pairs for "
              + ", ".join(f"{w} ({n})" for w, n in short.items()), file=sys.stderr)
        return 2
    flagged = False
    baseline = {}
    print(f"{'workload':14s} {'metric':12s} {'parent median [q1..q3]':>30s} "
          f"{'change median [q1..q3]':>30s} {'change':>8s} {'wins':>6s}  verdict")
    for workload in workloads:
        pairs = [p for p in results["pairs"] if p["workload"] == workload]
        failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
        more_failures = failed["change"] > failed["parent"]
        if more_failures:
            flagged = True
            print(f"{workload}: {failed['change']} failed operations against the parent's "
                  f"{failed['parent']}; no gain counts")
        baseline[workload] = {}
        for metric in spec["end_to_end"]:
            name, direction = metric["name"], metric["better"]
            parent = series(results, workload, "parent", name)
            change = series(results, workload, "change", name)
            p1, pm, p3 = stats.quartiles(parent)
            c1, cm, c3 = stats.quartiles(change)
            result = verdict(parent, change, direction, metric["bound"], more_failures)
            flagged |= result == "regression"
            print(f"{workload:14s} {name:12s} {pm:>12.5g} [{p1:.5g}..{p3:.5g}] "
                  f"{cm:>12.5g} [{c1:.5g}..{c3:.5g}] {(cm - pm) / abs(pm):>+8.1%} "
                  f"{pair_wins(parent, change, direction):>3d}/{len(parent):<2d}  {result}")
            baseline[workload][name] = {"unit": metric["unit"], "median": pm, "q1": p1,
                                        "q3": p3, "values": parent}
    if args.baseline_out:
        environment = dict(results["environment"])
        environment.pop("seeds", None)  # the first run's; all seeds are listed below
        with open(args.baseline_out, "w", encoding="utf-8") as fh:
            json.dump({"run_seconds": results["run_seconds"],
                       "seeds": sorted({p["seed"] for p in results["pairs"]}),
                       "environment": environment, "workloads": baseline},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if flagged else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="alternate parent and change runs by pair")
    run.add_argument("--parent", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--first-seed", type=int, default=1, dest="first_seed")
    judge = sub.add_parser("judge", help="apply the gain and no-regression rules")
    judge.add_argument("results")
    judge.add_argument("--baseline-out", default=None, dest="baseline_out")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_judge(args)


if __name__ == "__main__":
    sys.exit(main())
