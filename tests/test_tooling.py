"""The benchmark's tracer (perfbench/tracer.py) wraps package functions and
methods by name and reads their arguments in its attribute hooks; a rename or
deletion in the package would break traced benchmark runs without failing any
other test. The benchmark also times each command's start-up, so what
importing the CLI loads is checked here too."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("target", sorted(tracer.SPAN_TARGETS), ids=".".join)
def test_span_targets_resolve(target):
    mod_name, attr = target
    assert callable(getattr(importlib.import_module(mod_name), attr))


@pytest.mark.parametrize(
    "target", sorted({**tracer.METHOD_SPANS, **tracer.METHOD_COUNTS}), ids=".".join
)
def test_method_targets_resolve(target):
    mod_name, cls_name, method = target
    cls = getattr(importlib.import_module(mod_name), cls_name)
    assert inspect.isfunction(getattr(cls, method))


@pytest.mark.parametrize(
    "argv, spans, nested",
    [
        (
            ["simulate", "--particles", "5", "--sigma", "0.1", "--steps", "200",
             "--seed", "1", "--out", "d.json"],
            {"simulator.run", "simulator.draw_moves", "offsets.sample",
             "empirical.summarize", "empirical.kde"},
            # the draws run on the calling thread, directly in the run's span;
            # the KDE and KS run there too, in the summary's span, while its
            # worker forms the moment and ECF sums
            {"simulator.draw_moves": "simulator.run", "offsets.sample": "simulator.run",
             "empirical.kde": "empirical.summarize",
             "empirical.ks_laplace": "empirical.summarize"},
        ),
        (
            # thin = n**2: the gaps are cut down to their lineage moves on the
            # worker thread while the offsets are drawn
            ["simulate", "--particles", "64", "--sigma", "0.1", "--steps", "8192",
             "--thin", "4096", "--seed", "1", "--out", "d.json"],
            {"simulator.run", "simulator.draw_moves", "offsets.sample"},
            # the tracer's span stack is not per thread: a traced call made
            # off the calling thread would nest in whatever span is open there
            {"simulator.draw_moves": "simulator.run", "offsets.sample": "simulator.run"},
        ),
        (["moments", "--max-order", "6", "--out", "m.json"], {"moments.build_phi_table"}, {}),
        (["cf", "--mode", "phiN", "--n", "4", "--sigma", "0.1", "--grid", "0:5:3",
          "--out", "phi.csv"], {"charfn.particle_cf"}, {}),
        (["cf", "--mode", "psiN", "--n", "4", "--sigma", "0.1", "--grid", "0:5:3",
          "--out", "psi.csv"], {"charfn.distance_cf"}, {}),
    ],
    ids=["simulate", "simulate-lineage", "moments", "cf-phiN", "cf-psiN"],
)
def test_traced_cli_run_records_hook_attributes(tmp_path, argv, spans, nested):
    # the hooks run on real calls, so a renamed parameter fails here
    done = subprocess.run(
        [sys.executable, str(TRACER), "spans.json", *argv],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    recorded = json.loads((tmp_path / "spans.json").read_text())["spans"]
    by_name = {s["name"]: s for s in recorded}
    assert spans <= set(by_name)
    for name in spans & set(tracer.HOOKS):
        assert by_name[name]["attrs"], name
    for name, outer in nested.items():
        for span in recorded:
            if span["name"] == name:
                parent = span["parent"]
                assert parent is not None and recorded[parent]["name"] == outer, name


def test_cli_import_leaves_the_executor_unloaded():
    # concurrent.futures pulls in logging; `simulator.run` imports it itself,
    # so neither the other commands nor the benchmark's setup_s pay for it
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, turnover.cli; print('concurrent.futures' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
