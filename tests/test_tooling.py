"""The benchmark's tracer (perfbench/tracer.py) wraps package functions and
methods by name and reads their arguments in its attribute hooks; a rename or
deletion in the package would break traced benchmark runs without failing any
other test. The benchmark also times each command's start-up, so what
importing the CLI loads is checked here too, and so is every import that a
package module makes and never uses."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "turnover"
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


def test_centred_chain_draws_only_the_blocks_its_walks_reach(monkeypatch):
    # the chain-n100 workload's run: five frames 2.5M moves apart at n = 100,
    # whose lineages coalesce within about n**2 moves. A walk draws the block
    # of its frame and, rarely, one or two before it; a change that drew
    # whole gaps again would draw 39 blocks a frame
    from turnover import offsets, simulator

    draw, calls = simulator.draw_moves, []

    def draw_moves(*args):
        calls.append(None)
        return draw(*args)

    monkeypatch.setattr(simulator, "draw_moves", draw_moves)
    config = simulator.SimConfig(
        n_particles=100, offsets=offsets.gaussian(0.1), steps=10_000_000,
        burn_in=10_000, seed=3, thin=2_500_000,
    )
    trajectory = simulator.run(config, centred=True)
    assert trajectory.n_frames == 5
    assert len(calls) <= 3 * trajectory.n_frames


def test_summarize_calls_traced_names_on_the_calling_thread(monkeypatch):
    # the tracer keeps one span stack for the process, so a traced name that
    # summarize's worker called would nest in whatever span this thread has
    # open; the worker's sums must reach none of them
    import numpy as np

    from turnover import empirical

    threads = {}
    for mod_name, name in tracer.SPAN_TARGETS:
        if mod_name == "turnover.empirical":
            fn = getattr(empirical, name)

            def traced(*args, fn=fn, name=name, **kwargs):
                threads.setdefault(name, set()).add(threading.get_ident())
                return fn(*args, **kwargs)

            monkeypatch.setattr(empirical, name, traced)
    frames = np.random.default_rng(0).laplace(0.0, 0.1, (40, 9))
    empirical.summarize(frames, 0.1)
    assert {"kde", "ks_laplace", "batch_means_se"} <= set(threads)
    assert all(idents == {threading.get_ident()} for idents in threads.values()), threads


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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        # the package's imports are its re-exports
        used |= {
            elt.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts
        }
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name} imports and never uses {unused}"
