"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The heavy n=100 gaussian run is shared by criteria 7, 8 and 10.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from turnover import charfn, empirical, moments, offsets, simulator
from turnover.cli import main as cli_main

from closed_forms import distance_pair_cf_three, particle_cf_three

SIGMA = 0.1
GAUSS = offsets.gaussian(SIGMA)
GRID = np.linspace(-50.0, 50.0, 101)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} [{status}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


# --------------------------------------------------------------- shared runs


@pytest.fixture(scope="module")
def gaussian_run_100():
    t0 = time.time()
    config = simulator.SimConfig(
        n_particles=100,
        offsets=GAUSS,
        steps=320_000_000,
        burn_in=200_000,
        seed=7,
        thin=2000,
    )
    trajectory = simulator.run(config)
    xbar = trajectory.renormalised()
    rows = trajectory.distance_rows()
    return {"xbar": xbar, "rows": rows, "seconds": time.time() - t0}


@pytest.fixture(scope="module")
def gaussian_run_10():
    config = simulator.SimConfig(
        n_particles=10,
        offsets=GAUSS,
        steps=2_000_000,
        burn_in=10_000,
        seed=13,
        thin=10,
    )
    return simulator.run(config).distance_rows()


def _distance_samples(kind: str, seed: int) -> np.ndarray:
    config = simulator.SimConfig(
        n_particles=100,
        offsets=offsets.OffsetDistribution(kind, SIGMA),
        steps=4_000_000,
        burn_in=100_000,
        seed=seed,
        thin=200,
    )
    return simulator.run(config).distance_rows().ravel()


# ----------------------------------------------------------------- criteria


def test_criterion_01_exact_moment_table_via_cli(tmp_path):
    out = tmp_path / "m.csv"
    t0 = time.time()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "turnover.cli",
            "moments",
            "--max-order",
            "8",
            "--sigma",
            "1",
            "--format",
            "csv",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    elapsed = time.time() - t0
    rows = {
        int(line.split(",")[0]): (line.split(",")[1], line.split(",")[2])
        for line in out.read_text().strip().splitlines()[1:]
    }
    expected = {2: ("1", "2"), 4: ("5", "4"), 6: ("215", "24"), 8: ("102877", "720")}
    ok = (
        proc.returncode == 0
        and all(rows[k] == v for k, v in expected.items())
        and elapsed < 1.0
    )
    report(
        1,
        "exact moments 1/2, 5/4, 215/24, 102877/720 via CLI",
        ok,
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_02_derivative_table_order_four():
    table = moments.build_phi_table(4)
    expected = {
        (2,): Fraction(-1),
        (1, 1): Fraction(-1, 2),
        (4,): Fraction(6),
        (3, 1): Fraction(3),
        (2, 2): Fraction(3),
        (2, 1, 1): Fraction(11, 6),
        (1, 1, 1, 1): Fraction(5, 4),
    }
    ok = all(table.coefficient(k) == v for k, v in expected.items())
    report(2, "derivative table to order 4 is bit-exact", ok)


def test_criterion_03_kurtosis_identity():
    table = moments.build_phi_table(4)
    kurtosis = table.moment(4) / table.moment(2) ** 2
    report(3, "kurtosis m4/m2^2 equals 5 exactly", kurtosis == Fraction(5), str(kurtosis))


def test_criterion_04_bound_suite_to_order_twenty():
    t0 = time.time()
    table = moments.build_phi_table(20)
    bound_ok = True
    odd_ok = True
    for parts, value in table.items_in_order():
        order = sum(parts)
        # the bound n! / 2^(n/2) is |phi_base(n)| at even n
        bound_ok &= abs(value) <= abs(moments.phi_base(order))
        if order % 2:
            odd_ok &= value == 0
    elapsed = time.time() - t0
    report(
        4,
        "order<=20 derivative bound and odd-order vanishing",
        bound_ok and odd_ok and elapsed < 60.0,
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_05_order_thirty_scales():
    t0 = time.time()
    table = moments.build_phi_table(30)
    elapsed = time.time() - t0
    m30 = table.moment(30)
    ok = elapsed < 600.0 and m30 > 0
    report(5, "order-30 table builds at desk scale", ok, f"runtime {elapsed:.1f}s")


def test_criterion_06_cf_identity_suite():
    t0 = time.time()
    worst = {}

    gap = 0.0
    for n in (3, 10, 100):
        for s in GRID:
            gap = max(
                gap,
                abs(
                    charfn.distances_joint_cf((s,), n, GAUSS)
                    - charfn.distance_cf(s, n, GAUSS)
                ),
            )
    worst["k1_vs_closed"] = gap

    pairs = [(GRID[i], GRID[(i * 37 + 11) % 101]) for i in range(101)]
    worst["pair_vs_closed"] = max(
        abs(
            charfn.distances_joint_cf((s1, s2), 3, GAUSS)
            - distance_pair_cf_three(s1, s2, GAUSS)
        )
        for s1, s2 in pairs
    )
    worst["diag3_vs_closed"] = max(
        abs(charfn.particle_cf(s, 3, GAUSS) - particle_cf_three(s, GAUSS))
        for s in GRID
    )
    worst["limit_k1"] = max(
        abs(
            charfn.distances_joint_cf_limit((s,), SIGMA)
            - 2.0 / (2.0 + SIGMA**2 * s**2)
        )
        for s in GRID
    )
    worst["marginalise"] = max(
        max(
            abs(
                charfn.distances_joint_cf((s, 0.6 * s, 0.0), 10, GAUSS)
                - charfn.distances_joint_cf((s, 0.6 * s), 10, GAUSS)
            ),
            abs(
                charfn.distances_joint_cf_limit((s, 0.6 * s, 0.0), SIGMA)
                - charfn.distances_joint_cf_limit((s, 0.6 * s), SIGMA)
            ),
        )
        for s in GRID
    )
    worst["permute"] = max(
        max(
            abs(
                charfn.distances_joint_cf((s, -0.3 * s, 2.0), 10, GAUSS)
                - charfn.distances_joint_cf((2.0, s, -0.3 * s), 10, GAUSS)
            ),
            abs(
                charfn.distances_joint_cf_limit((s, -0.3 * s, 2.0), SIGMA)
                - charfn.distances_joint_cf_limit((2.0, s, -0.3 * s), SIGMA)
            ),
        )
        for s in GRID
    )
    elapsed = time.time() - t0
    ok = all(v < 1e-12 for v in worst.values()) and elapsed < 30.0
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items()) + f", runtime {elapsed:.1f}s"
    report(6, "cf identity suite at 1e-12 on the 101-point grid", ok, detail)


def test_criterion_07_laplace_limit_reproduction(gaussian_run_100):
    samples = gaussian_run_100["rows"].ravel()
    ks = empirical.ks_laplace(samples, SIGMA)

    h = 0.01
    fd_var = -(
        charfn.distance_cf(h, 100, GAUSS)
        - 2.0
        + charfn.distance_cf(-h, 100, GAUSS)
    ) / h**2
    closed = 99 * SIGMA**2 / 100
    assert fd_var == pytest.approx(closed, rel=1e-6)

    var = float(samples.var())
    var_gap = abs(var - fd_var) / fd_var
    elapsed = gaussian_run_100["seconds"]
    ok = ks < 0.02 and var_gap < 0.03 and elapsed < 300.0
    report(
        7,
        "n=100 gaussian run: KS to Laplace and distance variance",
        ok,
        f"KS={ks:.4f} (<0.02), var gap {var_gap * 100:.2f}% (<3%), runtime {elapsed:.0f}s",
    )


def test_criterion_08_single_particle_moments(gaussian_run_100):
    xbar = gaussian_run_100["xbar"]
    flat = xbar.ravel()
    m = empirical.accumulate_moments(flat, 8)
    gap2 = abs(m[1] - 0.5 * SIGMA**2) / (0.5 * SIGMA**2)
    gap4 = abs(m[3] - 1.25 * SIGMA**4) / (1.25 * SIGMA**4)

    odd_ok = True
    odd_detail = []
    power = xbar.copy()
    for j in range(1, 8):
        if j > 1:
            power *= xbar
        if j % 2:
            se = empirical.batch_means_se(power.mean(axis=1))
            odd_ok &= abs(m[j - 1]) <= 4.0 * se
            odd_detail.append(f"|M{j}|/4SE={abs(m[j - 1]) / (4 * se):.2f}")
    kurtosis = m[3] / m[1] ** 2
    ok = gap2 < 0.05 and gap4 < 0.10 and odd_ok and abs(kurtosis - 5.0) < 0.5
    report(
        8,
        "single-particle moments near the limit law",
        ok,
        f"M2 gap {gap2 * 100:.2f}% (<5%), M4 gap {gap4 * 100:.2f}% (<10%), "
        f"kurtosis {kurtosis:.3f} (5 +-10%), " + ", ".join(odd_detail),
    )


def test_criterion_09_universality_uniform():
    ks = empirical.ks_laplace(_distance_samples("uniform", seed=11), SIGMA)
    report(9, "universality of the Laplace limit (uniform offsets)", ks < 0.02, f"KS={ks:.4f}")


# The two-point distance law at n particles lives on the multiples of
# sigma/sqrt(n); it is inverted on LATTICE_ANGLES angles, so atoms further than
# LATTICE_ANGLES/2 spacings from 0 (far past any mass that matters) alias.
LATTICE_ANGLES = 2**16


def _two_point_lattice_pmf(n: int) -> np.ndarray:
    """Exact stationary pmf of one distance at n particles with two-point
    offsets, on the atoms m*sigma/sqrt(n) for m from -LATTICE_ANGLES/2 to
    LATTICE_ANGLES/2 - 1.

    The lattice CF at angle theta is charfn.distance_cf(theta*sqrt(n)/sigma);
    a real inverse FFT over LATTICE_ANGLES angles gives the pmf.
    """
    theta = 2.0 * np.pi * np.arange(LATTICE_ANGLES // 2 + 1) / LATTICE_ANGLES
    cf = charfn.distance_cf(theta * math.sqrt(n) / SIGMA, n, offsets.two_point(SIGMA))
    pmf = np.fft.fftshift(np.fft.irfft(cf, LATTICE_ANGLES))
    assert abs(pmf.sum() - 1.0) < 1e-12 and pmf.min() > -1e-12, (n, pmf.sum(), pmf.min())
    return pmf


def _lattice_ks_laplace(pmf: np.ndarray, n: int) -> float:
    """Exact KS distance between a lattice law and the Laplace limit: the
    sup is taken at an atom, from the right or from the left."""
    atoms = (np.arange(LATTICE_ANGLES) - LATTICE_ANGLES // 2) * SIGMA / math.sqrt(n)
    cdf = np.cumsum(pmf)
    ref = charfn.laplace_cdf(atoms, SIGMA)
    return float(max(np.abs(cdf - ref).max(), np.abs(cdf - pmf - ref).max()))


def _ks_step(samples: np.ndarray, pmf: np.ndarray, n: int) -> float:
    """KS statistic of samples against a lattice law as a step CDF: F(x) for
    the upper deviation and F(x-) for the lower one, so ties on an atom are
    counted exactly. A point within 1e-9 spacing of an atom counts as on it."""
    k = np.sort(samples) * math.sqrt(n) / SIGMA + LATTICE_ANGLES // 2
    cdf = np.cumsum(pmf)
    at = cdf[np.floor(k + 1e-9).astype(np.int64)]
    before = cdf[np.ceil(k - 1e-9).astype(np.int64) - 1]
    i = np.arange(1, k.size + 1)
    return float(max((i / k.size - at).max(), (before - (i - 1) / k.size).max()))


def test_criterion_09_universality_two_point():
    """Two-point offsets keep the n=100 law on a lattice, 0.035 away in KS
    from its Laplace limit; universality shows as that gap closing with n."""
    n = 100
    samples = _distance_samples("two_point", seed=11)
    laws = {m: _two_point_lattice_pmf(m) for m in (n, 4 * n, 16 * n, 64 * n)}
    pmf = laws[n]

    spacings = samples * math.sqrt(n) / SIGMA
    residual = float(np.abs(spacings - np.rint(spacings)).max())
    ks = _ks_step(samples, pmf, n)
    atom = float(np.mean(np.rint(spacings) == 0))

    laplace_ks = {m: _lattice_ks_laplace(law, m) for m, law in laws.items()}
    gaps = list(laplace_ks.values())
    closing = all(a > b for a, b in zip(gaps, gaps[1:]))
    close = all(v < 0.02 for v in gaps[1:])

    ok = residual < 1e-9 and ks < 0.02 and closing and close
    detail = (
        f"KS to the exact n=100 lattice law {ks:.4f} (<0.02), atom at 0 {atom:.4f}"
        f" (exact {pmf[LATTICE_ANGLES // 2]:.4f}), off-lattice residual {residual:.1e}"
        f" spacings (<1e-9); exact KS of the lattice law to Laplace "
        + ", ".join(
            f"n={m}: {v:.4f} (x sqrt(n) = {v * math.sqrt(m):.3f})" for m, v in laplace_ks.items()
        )
        + " (decreasing, <0.02 from n=400)"
    )
    report(9, "universality of the Laplace limit (two-point offsets)", ok, detail)


def test_criterion_10_cf_bridge(gaussian_run_100, gaussian_run_10):
    checks = []
    for n, rows in ((10, gaussian_run_10), (100, gaussian_run_100["rows"])):
        d12 = rows[:, 0]
        for s in (5.0, 10.0, 20.0, 40.0):
            series = np.cos(s * d12)
            se = empirical.batch_means_se(series)
            gap = abs(series.mean() - charfn.distance_cf(s, n, GAUSS))
            checks.append((n, s, gap, se, gap <= 4.0 * se))
    ok = all(c[-1] for c in checks)
    worst = max(checks, key=lambda c: c[2] / c[3])
    report(
        10,
        "empirical CF of D12 matches the analytic CF at 4 SE",
        ok,
        f"worst n={worst[0]}, s={worst[1]}: gap={worst[2]:.2e}, 4SE={4 * worst[3]:.2e}",
    )


def test_criterion_11_diagonal_limit_family():
    decreasing = True
    finite = True
    for s in (5.0, 10.0):
        g4 = charfn.particle_cf_limit(s, 4, SIGMA)
        g8 = charfn.particle_cf_limit(s, 8, SIGMA)
        g12 = charfn.particle_cf_limit(s, 12, SIGMA)
        finite &= all(map(math.isfinite, (g4, g8, g12)))
        decreasing &= abs(g8 - g12) < abs(g4 - g8)
    h = 0.5
    curvature = (
        charfn.particle_cf_limit(h, 12, SIGMA)
        - 2.0
        + charfn.particle_cf_limit(-h, 12, SIGMA)
    ) / h**2
    target = -SIGMA**2 / 2.0
    curv_gap = abs(curvature - target) / abs(target)
    ok = finite and decreasing and curv_gap < 0.15
    report(
        11,
        "diagonal limit family converges and curves like -sigma^2/2",
        ok,
        f"curvature gap {curv_gap * 100:.1f}% (<15%)",
    )


def test_compare_cli_verdicts_on_reference_run(gaussian_run_100, tmp_path):
    """The compare command's built-in verdicts on the shared n=100 run:
    moment gaps inside their bands, CF gaps inside 4 SE, KS under threshold."""
    jobs = {
        "positions": gaussian_run_100["xbar"][::8],
        "distances": gaussian_run_100["rows"][::8],
    }
    for observable, frames in jobs.items():
        summary = empirical.summarize(
            frames,
            SIGMA,
            config={
                "observable": observable,
                "n_particles": 100,
                "sigma": SIGMA,
                "offset": "gaussian",
                "seed": 7,
            },
        )
        spath = tmp_path / f"{observable}.json"
        with open(spath, "w", encoding="utf-8") as fh:
            json.dump(summary.to_json_dict(), fh, allow_nan=False)
        rpath = tmp_path / f"{observable}.report.json"
        code = cli_main(
            ["compare", "--summary", str(spath), "--sigma", str(SIGMA),
             "--n", "100", "--out", str(rpath)]
        )
        with open(rpath, "r", encoding="utf-8") as fh:
            rep = json.load(fh)
        gaps = {
            row["order"]: row["relative_gap"]
            for row in rep["moments"]
            if row["relative_gap"] is not None
        }
        assert code == 0 and rep["pass"], (observable, rep["moments"], rep["ks"])
        if observable == "positions":
            assert gaps[2] <= 0.05 and gaps[4] <= 0.10 and gaps[6] <= 0.25


def test_criterion_12_cli_determinism(tmp_path):
    jobs = {
        "simulate": [
            "simulate", "--particles", "10", "--sigma", "0.1", "--steps", "20000",
            "--seed", "3", "--out", str(tmp_path / "sim.json"),
        ],
        "moments": [
            "moments", "--max-order", "8", "--format", "json",
            "--out", str(tmp_path / "mom.json"),
        ],
        "cf": [
            "cf", "--mode", "phiN", "--n", "6", "--sigma", "0.1",
            "--grid", "-20:20:41", "--out", str(tmp_path / "cf.csv"),
        ],
    }
    payloads = {}
    for name, argv in jobs.items():
        assert cli_main(argv) in (0, 1)
        out = argv[argv.index("--out") + 1]
        payloads[name] = (out, open(out, "rb").read())
    # compare consumes the simulate output
    compare_argv = [
        "compare", "--summary", str(tmp_path / "sim.json"), "--sigma", "0.1",
        "--n", "10", "--out", str(tmp_path / "rep.json"),
    ]
    cli_main(compare_argv)
    payloads["compare"] = (str(tmp_path / "rep.json"), open(tmp_path / "rep.json", "rb").read())

    identical = True
    for name, argv in {**jobs, "compare": compare_argv}.items():
        manifest_path = payloads[name][0] + ".manifest.json"
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        cli_main(manifest["argv"])  # rerun exactly as recorded
        rerun = open(payloads[name][0], "rb").read()
        identical &= rerun == payloads[name][1]
    report(12, "rerunning each command from its manifest is byte-identical", identical)
