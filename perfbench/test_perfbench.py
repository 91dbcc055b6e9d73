"""Self-tests of the benchmark's own logic: span arithmetic, the comparison
rules and exit-status classing. Run with ``python3 -m pytest perfbench``."""

import json

import pytest

import compare
import run
import tracer
import workloads


def span(sid, parent, name, start, end, **attrs):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end,
            "rss_growth_kb": 0, "attrs": attrs}


def test_self_time_is_duration_minus_direct_children():
    spans = [
        span(0, None, "cli.simulate", 0.0, 10.0),
        span(1, 0, "simulator.run", 1.0, 7.0, steps=100),
        span(2, 1, "simulator.draw_moves", 2.0, 3.0),
        span(3, 1, "simulator.draw_moves", 4.0, 4.5),
        span(4, 0, "empirical.summarize", 8.0, 9.0),
    ]
    totals = tracer.layer_totals(spans)
    assert totals["cli.simulate"]["self_s"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert totals["simulator.run"]["self_s"] == pytest.approx(6.0 - 1.5)
    assert totals["simulator.draw_moves"]["s"] == pytest.approx(1.5)
    assert totals["simulator.draw_moves"]["calls"] == 2
    assert totals["simulator.run"]["attrs"]["steps"] == 100
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.0)


def test_gap_is_wall_left_over_by_startup_and_self_times():
    spans = [
        span(0, None, "cli.moments", 0.0, 3.0),
        span(1, 0, "moments.build_phi_table", 0.5, 2.5),
        span(2, None, "cli.cf", 10.0, 11.0),
    ]
    seq = {"wall_s": 5.0, "startup_s": 0.6, "spans": spans}
    self_sum, gap = run.trace_gap(seq)
    assert self_sum == pytest.approx(4.0)
    assert gap == pytest.approx(0.4)


def test_nested_span_of_the_same_name_is_counted_once():
    spans = [
        span(0, None, "charfn.distance_cf", 0.0, 4.0),
        span(1, 0, "charfn.distance_cf", 1.0, 2.0),
    ]
    totals = tracer.layer_totals(spans)
    assert totals["charfn.distance_cf"]["s"] == pytest.approx(4.0)
    assert totals["charfn.distance_cf"]["self_s"] == pytest.approx(4.0)
    assert totals["charfn.distance_cf"]["calls"] == 2


def test_tracer_links_parents_and_runs_hooks_outside_the_span():
    t = tracer.Tracer()

    def inner(x):
        return x + 1

    traced_inner = t.wrap("inner", inner, hook=lambda bound, result: {"value": result})
    outer = t.wrap("outer", lambda: traced_inner(1) + traced_inner(x=2))
    assert outer() == 5
    names = [(s["name"], s["parent"]) for s in t.spans]
    assert names == [("outer", None), ("inner", 0), (tracer.HOOK_SPAN, 0),
                     ("inner", 0), (tracer.HOOK_SPAN, 0)]
    assert [s["attrs"] for s in t.spans if s["name"] == "inner"] == [{"value": 2}, {"value": 3}]


def test_gain_needs_nine_of_ten_pair_wins():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    change = [p - 2.0 for p in parent]
    assert compare.pair_wins(parent, change, "lower") == 10
    assert compare.is_gain(parent, change, "lower")
    assert compare.verdict(parent, change, "lower", 0.1) == "gain"
    two_losses = change[:8] + [parent[8] + 1.0, parent[9] + 1.0]
    assert compare.pair_wins(parent, two_losses, "lower") == 8
    assert not compare.is_gain(parent, two_losses, "lower")


def test_gain_needs_median_gap_beyond_parent_iqr():
    parent = [8.0, 12.0, 9.0, 11.0, 8.5, 11.5, 9.5, 10.5, 10.0, 10.0]
    change = [p - 0.5 for p in parent]
    assert compare.pair_wins(parent, change, "lower") == 10
    assert not compare.is_gain(parent, change, "lower")


def test_ties_count_for_neither_side():
    parent = [1.0] * 10
    assert compare.pair_wins(parent, [1.0] * 10, "higher") == 0
    assert compare.pair_wins(parent, [1.0] * 10, "lower") == 0
    assert compare.verdict(parent, [1.0] * 10, "lower", 0.05) == "no regression"


def test_regression_bound_and_unresolved_spread():
    parent = [100.0] * 10
    assert compare.verdict(parent, [111.0] * 10, "lower", 0.1) == "regression"
    assert compare.verdict(parent, [109.0] * 10, "lower", 0.1) == "no regression"
    assert compare.verdict(parent, [89.0] * 10, "higher", 0.1) == "regression"
    noisy = [70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 75.0, 125.0, 100.0, 100.0]
    assert compare.verdict(parent, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, [101.0] * 10, "lower", 0.1, more_failures=True) == "no regression"


def test_compare_exit_one_is_a_verdict_and_exit_two_a_failure():
    assert workloads.classify_exit("compare", 0, "")
    assert workloads.classify_exit("compare", 1, "")
    assert not workloads.classify_exit("compare", 2, "error: sigma mismatch")
    assert not workloads.classify_exit("compare", 1, "Traceback (most recent call last):")
    assert not workloads.classify_exit("simulate", 1, "")
    assert not workloads.classify_exit("cf", 2, "resource limit: n=30 exceeds the cap")
    assert not workloads.classify_exit("moments", -9, "")


def test_partition_count_total_and_workloads_are_seeded():
    assert workloads.partition_count_total(5) == 1 + 1 + 2 + 3 + 5 + 7
    def argvs(name, seed):
        return [c.argv for c in workloads.build(name, seed).commands]

    for name in workloads.NAMES:
        assert argvs(name, 3) == argvs(name, 3)
        assert argvs(name, 3) != argvs(name, 4)


def test_judge_refuses_results_missing_a_workload_or_pairs(tmp_path, capsys):
    metrics = {m["name"]: {"value": 1.0} for m in compare.load_spec()["end_to_end"]}
    side = {"metrics": metrics, "failed": 0}
    pairs = [{"workload": w, "seed": i, "parent": side, "change": side}
             for w in workloads.NAMES for i in range(compare.PAIRS)]
    path = tmp_path / "results.json"
    for kept in (pairs[1:], [p for p in pairs if p["workload"] != workloads.NAMES[-1]]):
        path.write_text(json.dumps({"run_seconds": 1, "pairs": kept}))
        assert compare.main(["judge", str(path)]) == 2
    path.write_text(json.dumps({"run_seconds": 1, "pairs": pairs}))
    assert compare.main(["judge", str(path)]) == 0
    assert "incomplete" in capsys.readouterr().err
