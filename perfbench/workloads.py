"""The benchmark's workloads: CLI command sequences built from a seed, and
the checks on their outputs.

Each workload is what one user would type, one command after another:

* ``chain-n100``: a long ``simulate`` at n = 100 that records five frames, so
  the per-step jump loop over a cache-resident list dominates.
* ``chain-n100k``: the same loop at n = 100 000 (working set outside L2) on
  the integer draw path of two-point offsets, with two recorded frames.
* ``pipeline-n100``: the README's ``simulate`` (one frame per n steps, about
  one sample per step) then ``compare``, so the summaries (KDE above all)
  dominate.
* ``exact``: the exact moment table and three recursive ``cf`` grids; no
  simulation and no large arrays.

The seed picks the simulator seed, or for ``exact`` the offset scale and the
grid's upper end (the recursions' cost does not depend on either).
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

NAMES = ("chain-n100", "chain-n100k", "pipeline-n100", "exact")

# M2..M8 of the limiting single-particle law, as multiples of sigma^k.
EXACT_MOMENTS = {2: Fraction(1, 2), 4: Fraction(5, 4), 6: Fraction(215, 24), 8: Fraction(102877, 720)}
MOMENT_ORDER = 26
CF_POINTS = 101


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the checks on what it wrote.

    ``check(path)`` reads the output at ``path`` (relative to the work
    directory) and returns one message per failed check.
    """

    argv: tuple[str, ...]
    out: str
    check: Callable[[str], list[str]]
    # how many checks ``check`` makes, so that the attempted-operation count
    # does not depend on which of them fail
    n_checks: int

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # units of work of the first command: chain steps (burn-in + steps) for
    # the simulate workloads, moment-table entries for ``exact``
    work_units: int
    # exact entry count of the moment table, checked in traced runs
    table_entries: int | None = None


def classify_exit(kind: str, returncode: int, stderr: str) -> bool:
    """True when an invocation's exit status is a success.

    ``compare`` exits with 1 to report a failed verdict; that is a result,
    not a failure, unless the process died with a traceback. Every other
    non-zero status (2 for rejected input, 1 for a crash, a signal) fails.
    """
    if returncode == 0:
        return True
    return kind == "compare" and returncode == 1 and "Traceback" not in stderr


def partition_count_total(max_order: int) -> int:
    """Number of integer partitions of 0, 1, ..., max_order."""
    p = [1] + [0] * max_order
    for part in range(1, max_order + 1):
        for total in range(part, max_order + 1):
            p[total] += p[total - part]
    return sum(p)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _simulate_check(particles: int, frames: int) -> Callable[[str], list[str]]:
    def check(path: str) -> list[str]:
        try:
            data = _load_json(path)
        except (OSError, ValueError) as exc:
            return [f"simulate output unreadable: {exc}"] * 3
        errors = []
        count = data["sample_count"]
        if data["config"]["n_frames"] != frames:
            errors.append(f"simulate recorded {data['config']['n_frames']} frames, expected {frames}")
        if count != frames * (particles - 1):
            errors.append(f"sample_count {count} != frames x (n-1) = {frames * (particles - 1)}")
        if sum(data["histogram"]["counts"]) != count:
            errors.append(f"histogram counts sum to {sum(data['histogram']['counts'])}, not {count}")
        return errors

    return check


def _compare_check(path: str) -> list[str]:
    try:
        report = _load_json(path)
    except (OSError, ValueError) as exc:
        return [f"compare report unreadable: {exc}"]
    ks = report["ks"]
    if not ks["stat"] < ks["threshold"]:
        return [f"compare ks.stat {ks['stat']} is not below its threshold {ks['threshold']}"]
    return []


def _moments_check(path: str) -> list[str]:
    try:
        rows = {r["order"]: r for r in _load_json(path)["rows"]}
    except (OSError, ValueError) as exc:
        return [f"moments output unreadable: {exc}"] * 2
    errors = []
    for order, exact in EXACT_MOMENTS.items():
        got = Fraction(rows[order]["num"], rows[order]["den"]) if order in rows else None
        if got != exact:
            errors.append(f"moment M{order} = {got}, expected {exact}")
            break
    if sorted(rows) != list(range(1, MOMENT_ORDER + 1)):
        errors.append(f"moments table has orders {sorted(rows)}, expected 1..{MOMENT_ORDER}")
    return errors


def _cf_check(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = [(float(r["s"]), float(r["value"])) for r in csv.DictReader(fh)]
    except (OSError, ValueError, KeyError) as exc:
        return [f"cf output unreadable: {exc}"] * 2
    errors = []
    outside = [(s, v) for s, v in rows if not -1.0 <= v <= 1.0]
    if len(rows) != CF_POINTS or outside:
        errors.append(f"cf has {len(rows)} rows, {len(outside)} outside [-1, 1]")
    at_zero = [v for s, v in rows if s == 0.0]
    if at_zero != [1.0]:
        errors.append(f"cf at s = 0 is {at_zero}, expected [1.0]")
    return errors


def _simulate(argv: list[str], particles: int, frames: int, out: str) -> Command:
    return Command(
        ("simulate", *argv, "--out", out), out, _simulate_check(particles, frames), 3
    )


def build(name: str, seed: int) -> Workload:
    """The workload's command sequence for one seed."""
    rng = random.Random(f"{name}:{seed}")
    sim_seed = str(rng.randrange(2**31))
    if name == "chain-n100":
        steps, thin = 10_000_000, 2_500_000
        argv = ["--particles", "100", "--offset", "gaussian", "--sigma", "0.1",
                "--observe", "distances", "--steps", str(steps), "--burn-in", "10000",
                "--thin", str(thin), "--seed", sim_seed]
        return Workload(name, (_simulate(argv, 100, steps // thin + 1, "chain.json"),),
                        10_000 + steps)
    if name == "chain-n100k":
        burn_in = steps = thin = 2_500_000
        argv = ["--particles", "100000", "--offset", "two-point", "--sigma", "0.1",
                "--steps", str(steps), "--burn-in", str(burn_in), "--thin", str(thin),
                "--seed", sim_seed]
        return Workload(name, (_simulate(argv, 100_000, 2, "chain.json"),), burn_in + steps)
    if name == "pipeline-n100":
        steps = 1_000_000
        argv = ["--particles", "100", "--sigma", "0.1", "--offset", "gaussian",
                "--steps", str(steps), "--burn-in", "10000", "--seed", sim_seed,
                "--observe", "distances"]
        compare = Command(
            ("compare", "--summary", "d.json", "--sigma", "0.1", "--n", "100",
             "--out", "report.json"),
            "report.json", _compare_check, 1,
        )
        return Workload(name, (_simulate(argv, 100, steps // 100 + 1, "d.json"), compare),
                        10_000 + steps)
    if name == "exact":
        sigma = f"{rng.uniform(0.05, 0.2):.4f}"
        grid = f"0:{rng.randint(40, 60)}:{CF_POINTS}"

        def cf(mode: str, extra: list[str], out: str) -> Command:
            argv = ("cf", "--mode", mode, *extra, "--sigma", sigma, "--grid", grid, "--out", out)
            return Command(argv, out, _cf_check, 2)

        entries = partition_count_total(MOMENT_ORDER)
        return Workload(
            name,
            (
                Command(("moments", "--max-order", str(MOMENT_ORDER), "--sigma", sigma,
                         "--out", "moments.json"), "moments.json", _moments_check, 2),
                cf("phiN", ["--n", "12"], "phi.csv"),
                cf("gammaN", ["--n", "14", "--cap", "14"], "gamma.csv"),
                cf("psiNk", ["--n", "100", "--k", "10"], "psik.csv"),
            ),
            entries,
            table_entries=entries,
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def run_check(command: Command, path: str) -> list[str]:
    """Run a command's checks; a check that raises counts as failed."""
    try:
        errors = command.check(path)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{command.kind} output malformed: {exc!r}"] * command.n_checks
    return errors[: command.n_checks]
