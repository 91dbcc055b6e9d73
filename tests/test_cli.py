import hashlib
import json
import math
import platform
import subprocess
import sys
import weakref

import numpy as np
import pytest

from turnover import charfn, cli, offsets
from turnover.cli import main
from turnover.moments import build_phi_table

from closed_forms import particle_cf_three


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_moments_csv_rows(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert run_cli("moments", "--max-order", 8, "--sigma", 1, "--format", "csv", "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "order,num,den,approx"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[:3] for r in rows] == [
        ["1", "0", "1"],
        ["2", "1", "2"],
        ["3", "0", "1"],
        ["4", "5", "4"],
        ["5", "0", "1"],
        ["6", "215", "24"],
        ["7", "0", "1"],
        ["8", "102877", "720"],
    ]
    assert float(rows[5][3]) == pytest.approx(215 / 24)
    assert float(rows[7][3]) == pytest.approx(102877 / 720)


def test_moments_json_and_sigma_scaling(tmp_path):
    out = tmp_path / "m.json"
    assert run_cli("moments", "--max-order", 2, "--sigma", 0.1, "--out", out) == 0
    data = read_json(out)
    assert data["rows"][1] == {"order": 2, "num": 1, "den": 2, "value": 0.5 * 0.1**2}


def test_moments_manifest_phases(tmp_path):
    out = tmp_path / "m.json"
    assert run_cli("moments", "--max-order", 8, "--out", out) == 0
    # the build's cost goes in the manifest, never in the payload
    phases = read_json(tmp_path / "m.json.manifest.json")["phases"]
    assert set(phases) == {"build_s", "table_entries"}
    assert isinstance(phases["build_s"], float) and phases["build_s"] >= 0
    # one numerator per partition of 0, 2, 4, 6 and 8: 1 + 2 + 5 + 11 + 22
    assert phases["table_entries"] == 41
    assert "phases" not in read_json(out)


def test_moments_guard(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run_cli("moments", "--max-order", 80, "--out", out) == 2
    assert "resource limit" in capsys.readouterr().err
    # --order-limit is gone: the guard is a constant, and argparse rejects the flag
    with pytest.raises(SystemExit) as exc:
        run_cli("moments", "--max-order", 80, "--order-limit", 100, "--out", out)
    assert exc.value.code == 2
    assert "--order-limit" in capsys.readouterr().err
    assert run_cli("moments", "--max-order", 1, "--out", out) == 2
    for sigma in ("nan", "inf", "0", "-0.1"):
        assert run_cli("moments", "--max-order", 4, "--sigma", sigma, "--out", out) == 2
        assert "--sigma" in capsys.readouterr().err
    assert not out.exists()


def test_moments_writes_a_value_past_the_float_range_as_null(tmp_path):
    # 1e45**8 is past the float range: that row's JSON value is null, its CSV
    # value inf, and an odd order's exact 0 stays 0
    out = tmp_path / "m.json"
    assert run_cli("moments", "--max-order", 8, "--sigma", 1e45, "--out", out) == 0
    rows = read_json(out)["rows"]
    assert rows[5]["value"] == pytest.approx(215 / 24 * 1e270)
    assert rows[6]["value"] == 0.0
    assert rows[7] == {"order": 8, "num": 102877, "den": 720, "value": None}
    csv = tmp_path / "m.csv"
    assert run_cli("moments", "--max-order", 8, "--sigma", 1e45, "--format", "csv",
                   "--out", csv) == 0
    assert csv.read_text().splitlines()[-1] == "8,102877,720,inf"


def test_failed_json_payload_leaves_no_file(tmp_path):
    out = tmp_path / "p.json"
    with pytest.raises(ValueError):
        cli._write_json(str(out), {"sigma": 0.1, "value": float("nan")})
    assert not out.exists()


def test_cf_psi_n_grid(tmp_path):
    out = tmp_path / "g.csv"
    assert run_cli(
        "cf", "--mode", "psiN", "--n", 100, "--sigma", 0.1,
        "--grid", "-50:50:11", "--out", out,
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,value"
    assert len(lines) == 12
    mid = lines[6].split(",")
    assert float(mid[0]) == 0.0 and float(mid[1]) == 1.0


def test_cf_phi_n_matches_closed_form(tmp_path):
    out = tmp_path / "phi3.json"
    assert run_cli(
        "cf", "--mode", "phiN", "--n", 3, "--sigma", 0.1,
        "--grid", "0:30:31", "--format", "json", "--out", out,
    ) == 0
    data = read_json(out)
    assert data["mode"] == "phiN" and data["n"] == 3
    dist = offsets.gaussian(0.1)
    for point in data["points"]:
        assert abs(point["value"] - particle_cf_three(point["s"], dist)) < 1e-12


def test_cf_gamma_cauchy_decrease(tmp_path):
    vals = {}
    for n in (4, 8, 12):
        out = tmp_path / f"g{n}.json"
        assert run_cli(
            "cf", "--mode", "gammaN", "--n", n, "--sigma", 0.1,
            "--grid", "5:10:2", "--format", "json", "--out", out,
        ) == 0
        vals[n] = np.array([p["value"] for p in read_json(out)["points"]])
    assert np.max(np.abs(vals[8] - vals[12])) < np.max(np.abs(vals[4] - vals[8]))


def test_cf_mu_n_pdf(tmp_path):
    out = tmp_path / "mu.csv"
    assert run_cli(
        "cf", "--mode", "muNpdf", "--n", 100, "--sigma", 0.1,
        "--grid", "-0.5:0.5:101", "--out", out,
    ) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    dens = np.array([float(r[1]) for r in rows])
    assert np.all(dens >= 0)
    assert dens.argmax() == 50


def test_cf_errors(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run_cli(
        "cf", "--mode", "psiNk", "--n", 3, "--k", 5, "--sigma", 0.1,
        "--grid", "0:1:2", "--out", out,
    ) == 2
    assert run_cli(
        "cf", "--mode", "phiN", "--n", 40, "--sigma", 0.1,
        "--grid", "0:1:2", "--out", out,
    ) == 2
    err = capsys.readouterr().err
    assert "cap" in err
    assert run_cli(
        "cf", "--mode", "psiN", "--n", 10, "--sigma", 0.1,
        "--grid", "0:1", "--out", out,
    ) == 2
    for mode, extra in (("psiNk", ["--n", 10, "--k", -1]), ("psiInfK", ["--k", 0])):
        assert run_cli(
            "cf", "--mode", mode, *extra, "--sigma", 0.1, "--grid", "0:1:2", "--out", out,
        ) == 2
        assert "--k must be >= 1" in capsys.readouterr().err
    # --n, --k and --cap are checked whenever given, also in a mode that does
    # not read them, since the manifest records them
    for mode, extra, message in (
        ("laplaceCF", ["--n", -5], "--n must be >= 2"),
        ("laplacePdf", ["--k", -3], "--k must be >= 1"),
        ("psiN", ["--n", 10, "--cap", 0], "--cap must be >= 1"),
    ):
        assert run_cli(
            "cf", "--mode", mode, *extra, "--sigma", 0.1, "--grid", "0:1:3", "--out", out,
        ) == 2
        assert message in capsys.readouterr().err
    # eps is the mixture's discarded mass, so it lies in (0, 1), and it is
    # checked for every mode, also those that draw no mixture
    for mode, extra in (("muNpdf", ["--n", 100]), ("psiN", ["--n", 100]),
                        ("phiN", ["--n", 5]), ("psiInfK", ["--k", 2])):
        for eps in ("inf", "2", "5", "1", "0", "nan"):
            assert run_cli(
                "cf", "--mode", mode, *extra, "--sigma", 0.1, "--eps", eps,
                "--grid", "0:1:3", "--out", out,
            ) == 2
            assert "eps must be in (0, 1)" in capsys.readouterr().err
    # --threads is gone: argparse rejects it as an unknown argument
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "cf", "--mode", "phiN", "--n", 5, "--sigma", 0.1, "--grid", "0:1:3",
            "--threads", 2, "--out", out,
        )
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    # non-finite grid ends are rejected up front, not by an evaluator
    for mode, grid in (("phiN", "0:nan:3"), ("psiN", "0:inf:3"), ("psiN", "-inf:0:3")):
        assert run_cli(
            "cf", "--mode", mode, "--n", 3, "--sigma", 0.1, "--grid", grid, "--out", out,
        ) == 2
        assert "finite" in capsys.readouterr().err
    assert not out.exists()


# mode -> (its flags, the library call that gives its value at one point)
CF_POINTWISE = {
    "psiN": (["--n", 30, "--offset", "uniform"],
             lambda s: charfn.distance_cf(s, 30, offsets.uniform(0.1))),
    "psiNk": (["--n", 20, "--k", 4, "--offset", "two-point"],
              lambda s: charfn.distances_joint_cf((s,) * 4, 20, offsets.two_point(0.1))),
    "psiInfK": (["--k", 3], lambda s: charfn.distances_joint_cf_limit((s,) * 3, 0.1)),
    "phiN": (["--n", 5, "--offset", "uniform"],
             lambda s: charfn.particle_cf(s, 5, offsets.uniform(0.1))),
    "gammaN": (["--n", 8], lambda s: charfn.particle_cf_limit(s, 8, 0.1)),
    "laplaceCF": ([], lambda s: charfn.distance_cf_limit(s, 0.1)),
    "laplacePdf": ([], lambda s: charfn.laplace_pdf(s, 0.1)),
    "muNpdf": (["--n", 100], lambda s: charfn.distance_pdf(s, 100, 0.1)),
}


def test_cf_pointwise_cases_cover_every_mode():
    assert sorted(CF_POINTWISE) == sorted(cli.CF_MODES)


@pytest.mark.parametrize("mode", sorted(CF_POINTWISE))
def test_cf_grid_matches_pointwise(tmp_path, mode):
    # the whole grid in one evaluation writes what one call per point gives
    extra, evaluate = CF_POINTWISE[mode]
    out = tmp_path / "grid.json"
    assert run_cli(
        "cf", "--mode", mode, *extra, "--sigma", 0.1, "--grid", "-20:20:9",
        "--format", "json", "--out", out,
    ) == 0
    points = read_json(out)["points"]
    assert [p["value"] for p in points] == [float(evaluate(p["s"])) for p in points]


@pytest.mark.parametrize("mode", sorted(cli.CF_MODES))
def test_cf_json_nulls_the_flags_a_mode_does_not_read(tmp_path, mode):
    # --n and --k are given to every mode; the payload records only those it reads
    reads_n = mode in ("psiN", "psiNk", "phiN", "gammaN", "muNpdf")
    reads_k = mode in ("psiNk", "psiInfK")
    out = tmp_path / "grid.json"
    assert run_cli(
        "cf", "--mode", mode, "--n", 6, "--k", 2, "--sigma", 0.1, "--grid", "0:5:3",
        "--format", "json", "--out", out,
    ) == 0
    data = read_json(out)
    assert (data["n"], data["k"]) == (6 if reads_n else None, 2 if reads_k else None)


def test_simulate_canonical_distance_run(tmp_path):
    # the flagship invocation: a long n=100 run whose distance law is close
    # to the Laplace limit
    out = tmp_path / "d.json"
    assert run_cli(
        "simulate", "--particles", 100, "--sigma", 0.1, "--offset", "gaussian",
        "--steps", 1_000_000, "--burn-in", 10_000, "--seed", 7,
        "--observe", "distances", "--out", out,
    ) == 0
    data = read_json(out)
    assert data["ks_laplace"] < 0.02
    assert data["sample_count"] == (1_000_000 // 100 + 1) * 99
    assert math.isclose(sum(data["histogram"]["counts"]), data["sample_count"])


def test_simulate_zero_steps_summarises_initial_state(tmp_path):
    out = tmp_path / "d.json"
    assert run_cli(
        "simulate", "--particles", 2, "--sigma", 0.1, "--steps", 0,
        "--burn-in", 0, "--seed", 5, "--out", out,
    ) == 0
    data = read_json(out)
    assert data["sample_count"] == 1  # one frame, one distance
    assert data["moments"][0] == 0.0
    assert data["config"]["observable"] == "distances"


def test_simulate_deterministic_and_manifest(tmp_path):
    args = [
        "simulate", "--particles", 10, "--sigma", 0.1, "--steps", 5000,
        "--seed", 7, "--observe", "distances",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(*args, "--out", out1) == 0
    assert run_cli(*args, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    manifest = read_json(tmp_path / "a.json.manifest.json")
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    digest = hashlib.sha256(out1.read_bytes()).hexdigest()
    assert manifest["outputs"][0]["sha256"] == digest
    env = manifest["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["platform"].startswith(platform.system())
    if sys.platform.startswith("linux"):
        assert env["platform"] == platform.platform()
    # per-phase costs go in the manifest, never in the payload
    phases = manifest["phases"]
    assert set(phases) == {"run_s", "summarize_s", "write_s", "run_peak_rss_mb", "peak_rss_mb",
                           "moves_applied", "frames_coalesced", "burn_in_coalesced"}
    applied = phases.pop("moves_applied")
    # n = 10 applies every gap whole, so no walk ends with one lineage
    assert phases.pop("frames_coalesced") == 0 and phases.pop("burn_in_coalesced") is False
    assert all(isinstance(v, float) and v >= 0 for v in phases.values())
    assert 0 < phases["run_peak_rss_mb"] <= phases["peak_rss_mb"]
    assert "phases" not in read_json(out1)
    assert isinstance(applied, int) and 0 < applied <= 1000 + 5000

    def moves_applied(thin):
        out = tmp_path / "c.json"
        assert run_cli(
            "simulate", "--particles", 64, "--sigma", 0.1, "--steps", 5000,
            "--burn-in", 0, "--thin", thin, "--seed", 7, "--out", out,
        ) == 0
        return read_json(tmp_path / "c.json.manifest.json")["phases"]["moves_applied"]

    # one frame per step: every move is applied
    assert moves_applied(1) == 5000
    # one gap of 5000 >= n**2 moves: only its lineage moves are applied
    assert moves_applied(5000) < 5000


def test_simulate_manifest_counts_coalesced_frames(tmp_path):
    # gaps of 6 n**2 at n = 64: every frame's lineages coalesce within its gap
    # (at this seed), which the walks of a centred run see and a raw run's,
    # which all run to their gap's start, do not
    gap = 6 * 64 * 64
    out = tmp_path / "d.json"

    def phases(observe):
        assert run_cli(
            "simulate", "--particles", 64, "--sigma", 0.1, "--steps", 4 * gap,
            "--burn-in", gap, "--thin", gap, "--seed", 3, "--observe", observe, "--out", out,
        ) == 0
        return read_json(tmp_path / "d.json.manifest.json")["phases"]

    centred = phases("distances")
    assert centred["frames_coalesced"] == 5 and centred["burn_in_coalesced"] is True
    raw = phases("raw")
    assert raw["frames_coalesced"] == 0 and raw["burn_in_coalesced"] is False


def test_simulate_refuses_a_negative_seed(tmp_path, capsys):
    assert run_cli("simulate", "--particles", 3, "--sigma", 0.1, "--steps", 10,
                   "--seed", -1, "--out", tmp_path / "d.json") == 2
    assert "seed" in capsys.readouterr().err


def test_simulate_burn_in_help_states_the_default(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--help"])
    assert excinfo.value.code == 0
    assert "default: 100 * particles" in " ".join(capsys.readouterr().out.split())
    out = tmp_path / "d.json"
    assert run_cli("simulate", "--particles", 7, "--sigma", 0.1, "--steps", 10,
                   "--out", out) == 0
    assert read_json(out)["config"]["burn_in"] == 700


def test_simulate_trajectory_exports(tmp_path):
    base = [
        "simulate", "--particles", 3, "--sigma", 0.5, "--steps", 4,
        "--burn-in", 0, "--thin", 1, "--seed", 1, "--out",
    ]
    long_csv = tmp_path / "t_long.csv"
    assert run_cli(*base, tmp_path / "s1.json", "--trajectory-out", long_csv) == 0
    lines = long_csv.read_text().strip().splitlines()
    assert lines[0] == "step,particle,position"
    assert len(lines) == 1 + 5 * 3

    wide_csv = tmp_path / "t_wide.csv"
    assert run_cli(
        *base, tmp_path / "s2.json",
        "--trajectory-out", wide_csv, "--trajectory-format", "wide",
    ) == 0
    lines = wide_csv.read_text().strip().splitlines()
    assert lines[0] == "step,x1,x2,x3"
    assert len(lines) == 6
    # wide and long agree
    wide_last = [float(v) for v in lines[-1].split(",")[1:]]
    long_last = [float(line.split(",")[2]) for line in long_csv.read_text().strip().splitlines()[-3:]]
    assert wide_last == long_last


@pytest.mark.parametrize("export", [False, True], ids=["summary-only", "trajectory-out"])
def test_simulate_frees_the_positions_before_summarising(tmp_path, monkeypatch, export):
    positions, alive = [], []
    real_run, real_summarize = cli.run, cli.summarize

    def run(*args, **kwargs):
        trajectory = real_run(*args, **kwargs)
        positions.append(weakref.ref(trajectory.positions))
        return trajectory

    def summarize(*args, **kwargs):
        alive.append(positions[0]() is not None)
        return real_summarize(*args, **kwargs)

    monkeypatch.setattr(cli, "run", run)
    monkeypatch.setattr(cli, "summarize", summarize)
    csv = tmp_path / "t.csv"
    export_args = ["--trajectory-out", csv] if export else []
    assert run_cli(
        "simulate", "--particles", 20, "--sigma", 0.1, "--steps", 2000, "--seed", 4,
        "--observe", "distances", "--out", tmp_path / "s.json", *export_args,
    ) == 0
    # the CSV export still reads the positions after the summary
    assert alive == [export]
    assert csv.exists() == export


def test_simulate_raw_observable_histogram_covers_samples(tmp_path):
    out = tmp_path / "raw.json"
    assert run_cli(
        "simulate", "--particles", 4, "--sigma", 1.0, "--steps", 2000,
        "--seed", 2, "--observe", "raw", "--out", out,
    ) == 0
    data = read_json(out)
    assert sum(data["histogram"]["counts"]) == data["sample_count"]


def test_simulate_checks_summary_flags_before_the_run(tmp_path, monkeypatch, capsys):
    def no_run(config):
        raise AssertionError("the chain ran before the summary flags were checked")

    monkeypatch.setattr(cli, "run", no_run)
    out = tmp_path / "d.json"
    for flags, message in (
        (["--max-order", 0], "--max-order must be >= 1"),
        (["--bins", 0], "--bins"),
        (["--bins", -5], "--bins"),
        (["--kde-points", 0], "--kde-points"),
        (["--kde-bandwidth", 0], "--kde-bandwidth"),
        (["--kde-bandwidth", -0.1], "--kde-bandwidth"),
        (["--kde-bandwidth", "nan"], "--kde-bandwidth"),
        (["--kde-bandwidth", "inf"], "--kde-bandwidth"),
    ):
        assert run_cli(
            "simulate", "--particles", 5, "--sigma", 0.1, "--steps", 100, *flags,
            "--out", out,
        ) == 2
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_compare_against_itself_has_zero_gaps(tmp_path):
    summary = tmp_path / "d.json"
    assert run_cli(
        "simulate", "--particles", 10, "--sigma", 0.1, "--steps", 20000,
        "--seed", 3, "--out", summary,
    ) == 0
    report_path = tmp_path / "rep.json"
    code = run_cli(
        "compare", "--summary", summary, "--baseline", summary,
        "--sigma", 0.1, "--n", 10, "--out", report_path,
    )
    report = read_json(report_path)
    for row in report["moments"]:
        if row["relative_gap"] is not None:
            assert row["relative_gap"] == 0.0
    for row in report["cf_gaps"]:
        assert row["gap"] == 0.0
    assert code in (0, 1)  # the ks verdict still judges the data itself


def test_compare_judges_baseline_rows_by_their_combined_se(tmp_path):
    # two runs of one law: a baseline's moments and ECF are noisy too, so
    # every row is judged by 4 SEs of the gap, sqrt(se^2 + se_baseline^2),
    # and never by the relative bands of an exact reference
    summary, baseline = tmp_path / "d.json", tmp_path / "b.json"
    for seed, path in ((1, summary), (2, baseline)):
        assert run_cli(
            "simulate", "--particles", 10, "--sigma", 0.1, "--steps", 20000,
            "--seed", seed, "--out", path,
        ) == 0
    report_path = tmp_path / "rep.json"
    code = run_cli(
        "compare", "--summary", summary, "--baseline", baseline,
        "--sigma", 0.1, "--n", 10, "--out", report_path,
    )
    report, own, base = read_json(report_path), read_json(summary), read_json(baseline)
    rows = list(zip(report["moments"], own["moments"], own["se"]["moments"],
                    base["moments"], base["se"]["moments"]))
    assert len(rows) == 8
    for row, emp, se, ref, ref_se in rows:
        gap = abs(emp - ref)
        assert row["pass"] is (gap <= 4.0 * math.hypot(se, ref_se))
        assert ref != 0.0 and row["relative_gap"] == gap / abs(ref)
    cf_rows = list(zip(report["cf_gaps"], own["ecf"], own["se"]["ecf"],
                       base["ecf"], base["se"]["ecf"]))
    assert len(cf_rows) == 4
    for row, point, se, ref, ref_se in cf_rows:
        assert row["s"] == point["s"] == ref["s"] and row["analytic"] == ref["re"]
        assert row["pass"] is (row["gap"] <= 4.0 * math.hypot(se, ref_se))
    verdicts = [row["pass"] for row in report["moments"] + report["cf_gaps"]]
    assert report["pass"] is (all(verdicts) and report["ks"]["pass"])
    assert (code == 0) is report["pass"]


def test_compare_gives_positions_their_baseline_cf_rows(tmp_path):
    # a baseline ECF is a reference for any observable, positions too
    summary, baseline = tmp_path / "p.json", tmp_path / "b.json"
    for seed, path in ((3, summary), (4, baseline)):
        assert run_cli(
            "simulate", "--particles", 20, "--sigma", 0.1, "--steps", 200_000,
            "--observe", "positions", "--seed", seed, "--out", path,
        ) == 0
    report_path = tmp_path / "rep.json"
    assert run_cli(
        "compare", "--summary", summary, "--baseline", baseline,
        "--sigma", 0.1, "--n", 20, "--out", report_path,
    ) in (0, 1)
    report, own, base = read_json(report_path), read_json(summary), read_json(baseline)
    shared = [p["s"] for p in own["ecf"] if p["s"] in {q["s"] for q in base["ecf"]}]
    assert shared and [row["s"] for row in report["cf_gaps"]] == shared
    for row, point in zip(report["cf_gaps"], base["ecf"]):
        assert row["analytic"] == point["re"]


def test_compare_offset_flag_takes_either_spelling(tmp_path, capsys):
    summary = tmp_path / "d.json"
    assert run_cli(
        "simulate", "--particles", 5, "--sigma", 0.1, "--steps", 1000,
        "--offset", "two-point", "--seed", 4, "--out", summary,
    ) == 0
    report = tmp_path / "rep.json"
    for spelling in ("two-point", "two_point"):
        assert run_cli(
            "compare", "--summary", summary, "--sigma", 0.1, "--n", 5,
            "--offset", spelling, "--out", report,
        ) in (0, 1)
    assert run_cli(
        "compare", "--summary", summary, "--sigma", 0.1, "--n", 5,
        "--offset", "gaussian", "--out", report,
    ) == 2
    assert "offset mismatch" in capsys.readouterr().err


def test_compare_validates_flags(tmp_path, capsys):
    summary = tmp_path / "d.json"
    assert run_cli(
        "simulate", "--particles", 5, "--sigma", 0.1, "--steps", 1000,
        "--seed", 4, "--out", summary,
    ) == 0
    report = tmp_path / "rep.json"
    assert run_cli(
        "compare", "--summary", summary, "--sigma", 0.2, "--n", 5, "--out", report
    ) == 2
    assert "sigma mismatch" in capsys.readouterr().err
    assert run_cli(
        "compare", "--summary", summary, "--sigma", 0.1, "--n", 6, "--out", report
    ) == 2
    assert run_cli(
        "compare", "--summary", summary, "--sigma", 0.1, "--n", 5,
        "--offset", "uniform", "--out", report,
    ) == 2
    for tol, message in (
        ("2:nan", "finite"), ("4:inf", "finite"), ("2:-0.1", "finite"),
        ("2:0.1,6:nan", "finite"), ("0:0.1", "--moment-tol"), ("-2:0.3", "--moment-tol"),
        ("0:0.1,-2:0.3", "must be >= 1"),
    ):
        assert run_cli(
            "compare", "--summary", summary, "--sigma", 0.1, "--n", 5,
            f"--moment-tol={tol}", "--out", report,
        ) == 2
        assert message in capsys.readouterr().err
    for flags, message in (
        (["--max-order", 0], "--max-order must be >= 1"),
        (["--max-order", -2], "--max-order must be >= 1"),
        (["--ks-threshold", "nan"], "--ks-threshold"),
        (["--ks-threshold", "inf"], "--ks-threshold"),
        (["--ks-threshold", -0.01], "--ks-threshold"),
        (["--eps", 2], "eps must be in (0, 1)"),
        (["--eps", 5], "eps must be in (0, 1)"),
        (["--eps", 0], "eps must be in (0, 1)"),
        (["--eps", "nan"], "eps must be in (0, 1)"),
    ):
        assert run_cli(
            "compare", "--summary", summary, "--sigma", 0.1, "--n", 5, *flags,
            "--out", report,
        ) == 2
        assert message in capsys.readouterr().err
    assert not report.exists()
    # a positions summary draws no mixture, and still gets its --eps checked
    positions = tmp_path / "p.json"
    assert run_cli(
        "simulate", "--particles", 5, "--sigma", 0.1, "--steps", 1000,
        "--seed", 4, "--observe", "positions", "--out", positions,
    ) == 0
    for eps in ("5", "0", "nan"):
        assert run_cli(
            "compare", "--summary", positions, "--sigma", 0.1, "--n", 5,
            "--eps", eps, "--out", report,
        ) == 2
        assert "eps must be in (0, 1)" in capsys.readouterr().err
    assert not report.exists()
    # a uniform range past the float range is an error line, not numpy's
    # OverflowError from the draw
    for init, scale in (
        ("iid-gaussian", "nan"), ("iid-uniform", "6e307"), ("iid-uniform", "1e308")
    ):
        assert run_cli(
            "simulate", "--particles", 5, "--sigma", 0.1, "--steps", 100,
            "--init", init, "--init-scale", scale, "--out", report,
        ) == 2
        assert "init_scale" in capsys.readouterr().err
    assert not report.exists()
    bad = tmp_path / "s.json"
    for ecf_s in ("nan", "5,inf"):
        assert run_cli(
            "simulate", "--particles", 5, "--sigma", 0.1, "--steps", 100,
            "--ecf-s", ecf_s, "--out", bad,
        ) == 2
        assert "finite" in capsys.readouterr().err
    assert not bad.exists()
    assert run_cli(
        "simulate", "--particles", 5, "--sigma", 0.1, "--steps", 100,
        "--max-order", 0, "--out", bad,
    ) == 2
    assert "--max-order must be >= 1" in capsys.readouterr().err
    assert not bad.exists()


def test_compare_rejects_mismatched_baselines(tmp_path, capsys):
    common = ["--particles", 5, "--sigma", 0.1, "--steps", 1000, "--seed", 4]
    summary, short, other = tmp_path / "d.json", tmp_path / "d4.json", tmp_path / "p.json"
    assert run_cli("simulate", *common, "--out", summary) == 0
    assert run_cli("simulate", *common, "--max-order", 4, "--out", short) == 0
    assert run_cli("simulate", *common, "--observe", "positions", "--out", other) == 0
    # baselines of another law: sigma, n or offset differ from the summary's
    sigma2, n6, unif = tmp_path / "s2.json", tmp_path / "n6.json", tmp_path / "u.json"
    assert run_cli("simulate", *common, "--sigma", 0.2, "--out", sigma2) == 0
    assert run_cli("simulate", *common, "--particles", 6, "--out", n6) == 0
    assert run_cli("simulate", *common, "--offset", "uniform", "--out", unif) == 0
    report = tmp_path / "rep.json"
    for observed, baseline, message in (
        (summary, short, "4 moments, need 8"),
        (other, summary, "not a positions summary"),
        (summary, other, "not a distances summary"),
        (summary, sigma2, "baseline sigma mismatch"),
        (summary, n6, "baseline n_particles mismatch"),
        (summary, unif, "baseline offset mismatch"),
    ):
        assert run_cli(
            "compare", "--summary", observed, "--baseline", baseline,
            "--sigma", 0.1, "--n", 5, "--out", report,
        ) == 2
        assert message in capsys.readouterr().err
    assert not report.exists()
    # a shorter comparison only needs as many baseline moments as it checks
    assert run_cli(
        "compare", "--summary", summary, "--baseline", short, "--max-order", 4,
        "--sigma", 0.1, "--n", 5, "--out", report,
    ) in (0, 1)
    assert len(read_json(report)["moments"]) == 4


def test_compare_rejects_files_that_are_not_summaries(tmp_path, capsys):
    summary = tmp_path / "d.json"
    assert run_cli(
        "simulate", "--particles", 5, "--sigma", 0.1, "--steps", 1000,
        "--seed", 4, "--out", summary,
    ) == 0
    table = tmp_path / "m.json"
    assert run_cli("moments", "--max-order", 4, "--out", table) == 0
    data = read_json(summary)
    files = [(table, "is not a summary")]
    for name, content, message in (
        ("c.json", {"sample_count": 3}, "is not a summary"),
        ("l.json", [1, 2], "is not a summary"),
        ("b.json", {k: v for k, v in data.items() if k != "config"}, "carries no config block"),
        ("f.json", dict(data, config=[1]), "carries no config block"),
        # the right keys, but values that are not numbers
        ("mv.json", dict(data, moments=["a", *data["moments"][1:]]), "moments value"),
        ("sm.json", dict(data, se=dict(data["se"], moments=[[1]])), "se.moments value"),
        ("e.json", dict(data, ecf=[dict(data["ecf"][0], re="x")]), "ecf value"),
        ("se.json", dict(data, se=dict(data["se"], ecf=["x"])), "se.ecf value"),
        ("k.json", dict(data, ks_laplace="0.1"), "ks_laplace value"),
        # a statistic without its SE would drop its row from the report
        ("ss.json", dict(data, se=dict(data["se"], ecf=data["se"]["ecf"][:1])), "needs its SE"),
        ("ms.json", dict(data, se=dict(data["se"], moments=data["se"]["moments"][:3])),
         "needs its SE"),
        ("h.json", dict(data, histogram=dict(data["histogram"], edges=["a"])), "is not a summary"),
        ("kv.json", dict(data, kde=dict(data["kde"], values=["x"])), "is not a summary"),
    ):
        path = tmp_path / name
        path.write_text(json.dumps(content))
        files.append((path, message))
    capsys.readouterr()
    report = tmp_path / "rep.json"
    for path, message in files:
        # exit 1 is a failed verdict, so a file that is not a summary must
        # not crash into it
        for role in (["--summary", path], ["--summary", summary, "--baseline", path]):
            assert run_cli("compare", *role, "--sigma", 0.1, "--n", 5, "--out", report) == 2
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
    assert not report.exists()


def test_compare_rejects_boolean_summary_values(tmp_path, capsys):
    # JSON true and false load as Python bools, which are ints; read as
    # numbers they would reach the report as true or false
    summary = tmp_path / "d.json"
    assert run_cli(
        "simulate", "--particles", 5, "--sigma", 0.1, "--steps", 1000,
        "--seed", 4, "--out", summary,
    ) == 0
    data = read_json(summary)
    report = tmp_path / "rep.json"
    for name, content, message in (
        ("mv.json", dict(data, moments=[True, *data["moments"][1:]]), "moments value True"),
        ("sm.json", dict(data, se=dict(data["se"], moments=[False, *data["se"]["moments"][1:]])),
         "se.moments value False"),
        ("e.json", dict(data, ecf=[dict(data["ecf"][0], re=True), *data["ecf"][1:]]),
         "ecf value True"),
        ("k.json", dict(data, ks_laplace=False), "ks_laplace value False"),
    ):
        path = tmp_path / name
        path.write_text(json.dumps(content))
        capsys.readouterr()
        assert run_cli("compare", "--summary", path, "--sigma", 0.1, "--n", 5, "--out", report) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    assert not report.exists()


def test_compare_positions_keeps_the_order_guard(tmp_path, monkeypatch, capsys):
    summary = tmp_path / "p.json"
    assert run_cli(
        "simulate", "--particles", 5, "--sigma", 0.1, "--steps", 1000, "--seed", 4,
        "--observe", "positions", "--max-order", 61, "--out", summary,
    ) == 0
    built = []

    def guarded_build(max_order):
        assert max_order <= cli.ORDER_LIMIT, f"table built to order {max_order}"
        built.append(max_order)
        return build_phi_table(max_order)

    monkeypatch.setattr(cli, "build_phi_table", guarded_build)
    report = tmp_path / "rep.json"
    flags = ["--summary", summary, "--sigma", 0.1, "--n", 5, "--out", report]
    assert run_cli("compare", *flags, "--max-order", 61) == 2
    assert "resource limit" in capsys.readouterr().err
    assert run_cli("moments", "--max-order", 61, "--out", tmp_path / "m.json") == 2
    assert "resource limit" in capsys.readouterr().err
    assert built == [] and not report.exists()
    assert run_cli("compare", *flags, "--max-order", 8) in (0, 1)
    assert built == [8]
    assert len(read_json(report)["moments"]) == 8


def test_compare_positions_against_exact_moments(tmp_path):
    summary = tmp_path / "p.json"
    assert run_cli(
        "simulate", "--particles", 10, "--sigma", 0.1, "--steps", 20000,
        "--seed", 3, "--observe", "positions", "--out", summary,
    ) == 0
    report_path = tmp_path / "rep.json"
    code = run_cli(
        "compare", "--summary", summary, "--sigma", 0.1, "--n", 10, "--out", report_path
    )
    report = read_json(report_path)
    assert report["observable"] == "positions"
    assert [row["order"] for row in report["moments"]] == list(range(1, 9))
    for row in report["moments"]:
        k = row["order"]
        assert row["exact"] == float(build_phi_table(k).moment(k)) * 0.1**k
    assert report["cf_gaps"] == []
    assert report["ks"] is None
    assert report["density_overlay"]["laplace"] is None
    assert report["density_overlay"]["mixture"] is None
    assert (code == 0) is report["pass"]


def test_compare_fails_rows_past_the_float_range_and_writes_the_report(tmp_path):
    # at sigma 1e60 the positions' sixth to eighth moments and the exact
    # sixth and eighth overflow: the summary and the report hold them as null
    summary = tmp_path / "p.json"
    assert run_cli(
        "simulate", "--particles", 5, "--sigma", 1e60, "--steps", 2000,
        "--seed", 4, "--observe", "positions", "--out", summary,
    ) == 0
    assert read_json(summary)["moments"][5:] == [None, None, None]
    report_path = tmp_path / "rep.json"
    assert run_cli(
        "compare", "--summary", summary, "--sigma", 1e60, "--n", 5, "--out", report_path
    ) == 1
    report = read_json(report_path)
    rows = report["moments"]
    assert [row["exact"] for row in rows[5:]] == [None, 0.0, None]
    assert all(row["empirical"] is None and row["pass"] is False for row in rows[5:])
    assert report["pass"] is False


def test_simulate_past_the_float_range_writes_no_warnings(tmp_path):
    # the summary writes its overflowed moments and SEs as null, so numpy's
    # overflow and invalid-value warnings on the way are only noise
    done = subprocess.run(
        [sys.executable, "-m", "turnover.cli", "simulate", "--particles", "5",
         "--sigma", "1e60", "--steps", "2000", "--seed", "4", "--observe", "positions",
         "--out", str(tmp_path / "p.json")],
        capture_output=True, text=True,
    )
    assert done.returncode == 0 and done.stderr == ""
    # the payload as it was written while the warnings still showed, but for
    # its ECF values, which take s = 10, 20 and 40 by angle doubling
    assert hashlib.sha256((tmp_path / "p.json").read_bytes()).hexdigest() == (
        "48bfd73eb931af21b0a0791a0c4a78c2b24a657010592e86483c5138fb7cc8d9"
    )


def test_simulate_refuses_a_gaussian_init_past_the_float_range(tmp_path):
    # some drawn positions overflow to inf: refused before the chain runs,
    # with an error line that names init_scale and no numpy warning
    done = subprocess.run(
        [sys.executable, "-m", "turnover.cli", "simulate", "--particles", "50",
         "--sigma", "0.1", "--steps", "100", "--init", "iid-gaussian", "--init-scale", "1e308",
         "--out", str(tmp_path / "g.json")],
        capture_output=True, text=True,
    )
    assert done.returncode == 2
    [line] = done.stderr.splitlines()
    assert line.startswith("error: init_scale 1e+308") and "iid_gaussian" in line
    assert not (tmp_path / "g.json").exists()


def test_compare_fails_null_summary_values_and_writes_the_report(tmp_path):
    # a summary writes a moment or KS value that is not finite as null, and
    # compare reads it back as NaN: its row fails, and the report is written
    summary = tmp_path / "d.json"
    assert run_cli(
        "simulate", "--particles", 10, "--sigma", 0.1, "--steps", 20000,
        "--seed", 3, "--out", summary,
    ) == 0
    data = read_json(summary)
    data["moments"][1] = None
    data["ks_laplace"] = None
    summary.write_text(json.dumps(data))
    report_path = tmp_path / "rep.json"
    assert run_cli(
        "compare", "--summary", summary, "--sigma", 0.1, "--n", 10, "--out", report_path
    ) == 1
    report = read_json(report_path)
    row = report["moments"][1]
    assert row["empirical"] is None and row["relative_gap"] is None and row["pass"] is False
    assert report["ks"]["stat"] is None and report["ks"]["pass"] is False
    assert report["pass"] is False


def test_compare_rejects_raw_summaries(tmp_path):
    summary = tmp_path / "raw.json"
    assert run_cli(
        "simulate", "--particles", 5, "--sigma", 0.1, "--steps", 1000,
        "--seed", 4, "--observe", "raw", "--out", summary,
    ) == 0
    assert run_cli(
        "compare", "--summary", summary, "--sigma", 0.1, "--n", 5,
        "--out", tmp_path / "rep.json",
    ) == 2


def test_compare_report_shape(tmp_path):
    summary = tmp_path / "d.json"
    assert run_cli(
        "simulate", "--particles", 100, "--sigma", 0.1, "--steps", 200_000,
        "--burn-in", 10_000, "--seed", 11, "--out", summary,
    ) == 0
    report_path = tmp_path / "rep.json"
    code = run_cli(
        "compare", "--summary", summary, "--sigma", 0.1, "--n", 100, "--out", report_path
    )
    report = read_json(report_path)
    assert {"moments", "cf_gaps", "ks", "density_overlay", "pass"} <= set(report)
    assert report["ks"]["threshold"] == 0.02
    assert report["ks"]["pass"] is (report["ks"]["stat"] <= 0.02)
    assert len(report["density_overlay"]["mixture"]) == len(report["density_overlay"]["grid"])
    assert (code == 0) is report["pass"]


def _command_argv(tmp_path, command):
    """A short argv of ``command``, writing to ``tmp_path``; compare reads a
    summary made here."""
    summary = tmp_path / "d.json"
    assert run_cli(
        "simulate", "--particles", 5, "--sigma", 0.1, "--steps", 1000,
        "--seed", 4, "--out", summary,
    ) == 0
    argv = {
        "simulate": ["simulate", "--particles", 3, "--sigma", 0.5, "--steps", 20,
                     "--seed", 9, "--trajectory-out", tmp_path / "t.csv"],
        "moments": ["moments", "--max-order", 4],
        "cf": ["cf", "--mode", "psiN", "--n", 10, "--sigma", 0.1, "--grid", "0:5:3"],
        "compare": ["compare", "--summary", summary, "--sigma", 0.1, "--n", 5],
    }[command]
    return [str(a) for a in argv + ["--out", tmp_path / "out.json",
                                    "--manifest", tmp_path / "run.manifest.json"]]


@pytest.mark.parametrize("command", ["simulate", "moments", "cf", "compare"])
def test_manifest_of_every_command(tmp_path, command):
    manifest_path = tmp_path / "run.manifest.json"
    assert main(_command_argv(tmp_path, command)) in (0, 1)
    assert not (tmp_path / "out.json.manifest.json").exists()
    manifest = read_json(manifest_path)
    keys = {
        "schema_version", "command", "argv", "config", "seed", "code_version",
        "environment", "started_utc", "finished_utc", "process_cpu_s", "outputs",
    }
    if command in ("simulate", "moments"):
        keys.add("phases")
    assert set(manifest) == keys
    assert manifest["process_cpu_s"] > 0
    assert manifest["command"] == command
    assert manifest["seed"] == (9 if command == "simulate" else None)
    assert [entry["path"] for entry in manifest["outputs"]] == (
        ["out.json", "t.csv"] if command == "simulate" else ["out.json"]
    )
    for entry in manifest["outputs"]:
        payload = (tmp_path / entry["path"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(payload).hexdigest()
        assert entry["bytes"] == len(payload)


@pytest.mark.parametrize("command", ["simulate", "moments", "cf", "compare"])
def test_manifest_config_is_the_parsed_flags(tmp_path, command):
    argv = _command_argv(tmp_path, command)
    assert main(argv) in (0, 1)
    flags = vars(cli.build_parser().parse_args(argv))
    del flags["command"]
    # defaults included: every flag that shapes the payload is echoed
    assert read_json(tmp_path / "run.manifest.json")["config"] == flags


def test_env_var_output_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("TURNOVER_OUT_DIR", str(tmp_path))
    assert run_cli("moments", "--max-order", 2, "--out", "m.json") == 0
    assert (tmp_path / "m.json").exists()
    assert (tmp_path / "m.json.manifest.json").exists()


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "turnover.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_usage_error_is_nonzero():
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--particles", "not-an-int", "--sigma", "0.1",
              "--steps", "1", "--out", "x.json"])
    assert excinfo.value.code == 2
