"""Outside-in tracer for one ``turnover`` CLI invocation.

Run as ``python3 perfbench/tracer.py SPANS.json ARG...``: it wraps public
functions of the package's modules, calls ``turnover.cli.main(ARG...)``
inside a root span named ``cli.<command>``, writes the recorded spans and
call counts to SPANS.json, and exits with main's status. SPANS.json also
holds ``ready``, the ``time.monotonic`` reading once ``import turnover.cli``
has finished, so the caller can tell start-up from the rest. Nothing inside
the library is changed on disk; the wrappers live only in this process.

A span records name, start, end (``time.perf_counter`` seconds), the id of
the enclosing span, the growth of ``ru_maxrss`` (the process's RSS
high-water mark) while it was open, and attributes computed from the call's
arguments and result after the span has closed.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) -> span name. Every binding of the same function object
# in any turnover module is replaced by the one wrapper, so a call is traced
# whichever name it goes through.
SPAN_TARGETS = {
    ("turnover.simulator", "run"): "simulator.run",
    ("turnover.simulator", "draw_moves"): "simulator.draw_moves",
    ("turnover.empirical", "summarize"): "empirical.summarize",
    ("turnover.empirical", "kde"): "empirical.kde",
    ("turnover.empirical", "accumulate_moments"): "empirical.accumulate_moments",
    ("turnover.empirical", "empirical_cf"): "empirical.empirical_cf",
    ("turnover.empirical", "ks_laplace"): "empirical.ks_laplace",
    ("turnover.empirical", "batch_means_se"): "empirical.batch_means_se",
    ("turnover.moments", "build_phi_table"): "moments.build_phi_table",
    ("turnover.charfn", "distance_cf"): "charfn.distance_cf",
    ("turnover.charfn", "distance_pdf"): "charfn.distance_pdf",
    ("turnover.charfn", "distances_joint_cf"): "charfn.distances_joint_cf",
    ("turnover.charfn", "laplace_pdf"): "charfn.laplace_pdf",
    ("turnover.charfn", "particle_cf"): "charfn.particle_cf",
    ("turnover.charfn", "particle_cf_limit"): "charfn.particle_cf_limit",
}

# Methods wrapped at class level: (module, class, method) -> span name.
METHOD_SPANS = {
    ("turnover.offsets", "OffsetDistribution", "sample"): "offsets.sample",
    ("turnover.simulator", "Trajectory", "observable"): "simulator.observable",
}

# Methods called too often inside the recursions for a span each: counted only.
METHOD_COUNTS = {
    ("turnover.offsets", "OffsetDistribution", "cf_scaled"): "offsets.cf_scaled",
}

HOOK_SPAN = "perfbench.hook"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans and call counts of one process, kept in memory until dumped."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None, hook=None):
        """Call ``fn`` inside a span; ``hook(bound_args, result)`` returns the
        span's attributes and runs in a span of its own once ``fn`` is done,
        so its cost lands on the tracer, not on the traced layer."""
        kwargs = kwargs or {}
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        rss = _maxrss_kb()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            span["rss_growth_kb"] = _maxrss_kb() - rss
            self._stack.pop()
        if hook is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            span["attrs"] = self.call(HOOK_SPAN, hook, (bound, result))
        return result

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        return traced

    def wrap_count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _run_attrs(bound, trajectory) -> dict:
    config = bound["config"]
    return {
        "steps": config.resolved_burn_in + config.steps,
        "frames": trajectory.n_frames,
        "frame_bytes": trajectory.positions.nbytes,
    }


def _summarize_attrs(bound, _summary) -> dict:
    return {"samples": int(bound["frames"].size)}


def _kde_attrs(bound, _values) -> dict:
    import numpy as np

    return {"kernel_evals": int(np.size(bound["samples"]) * np.size(bound["grid"]))}


def _table_attrs(_bound, table) -> dict:
    return {"entries": sum(1 for _ in table.items_in_order())}


HOOKS = {
    "simulator.run": _run_attrs,
    "empirical.summarize": _summarize_attrs,
    "empirical.kde": _kde_attrs,
    "moments.build_phi_table": _table_attrs,
}


def install(tracer: Tracer) -> None:
    """Replace the traced functions and methods of the imported package."""
    import importlib

    modules = [
        importlib.import_module(m)
        for m in ("turnover", "turnover.cli", "turnover.simulator", "turnover.empirical",
                  "turnover.moments", "turnover.charfn", "turnover.offsets")
    ]
    for (mod_name, attr), name in SPAN_TARGETS.items():
        original = getattr(importlib.import_module(mod_name), attr)
        wrapper = tracer.wrap(name, original, HOOKS.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    for (mod_name, cls_name, method), name in METHOD_SPANS.items():
        cls = getattr(importlib.import_module(mod_name), cls_name)
        setattr(cls, method, tracer.wrap(name, getattr(cls, method)))
    for (mod_name, cls_name, method), name in METHOD_COUNTS.items():
        cls = getattr(importlib.import_module(mod_name), cls_name)
        setattr(cls, method, tracer.wrap_count(name, getattr(cls, method)))


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: inclusive seconds, self seconds, calls, RSS high-water
    growth (kB) and summed attributes.

    Self time is a span's duration minus the durations of its direct
    children. Inclusive time skips spans nested inside a span of the same
    name, so a recursive or re-entrant layer is not counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def nested_in_same_name(s: dict) -> bool:
        parent = s["parent"]
        while parent is not None:
            if by_id[parent]["name"] == s["name"]:
                return True
            parent = by_id[parent]["parent"]
        return False

    totals: dict[str, dict] = {}
    for s in spans:
        row = totals.setdefault(
            s["name"],
            {"s": 0.0, "self_s": 0.0, "calls": 0, "rss_growth_kb": 0, "attrs": Counter()},
        )
        duration = s["end"] - s["start"]
        row["self_s"] += duration - child_time[s["id"]]
        row["calls"] += 1
        if not nested_in_same_name(s):
            row["s"] += duration
            row["rss_growth_kb"] += s["rss_growth_kb"]
        row["attrs"].update(s["attrs"])
    return totals


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    import turnover.cli

    ready = time.monotonic()
    tracer = Tracer()
    install(tracer)
    command = cli_argv[0] if cli_argv else "main"
    try:
        return tracer.call(f"cli.{command}", turnover.cli.main, (cli_argv,))
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(dict(tracer.dump(), ready=ready), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
