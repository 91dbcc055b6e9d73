import hashlib
import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from turnover import charfn, offsets, simulator
from turnover.empirical import batch_means_se

from closed_forms import distance_pair_cf_three, particle_cf_three

SIGMA = 0.1
GAUSS = offsets.gaussian(SIGMA)
GRID = np.linspace(-50.0, 50.0, 101)
GRID_FINE = np.linspace(-50.0, 50.0, 1001)


def geometric_series_oracle(s, n, dist, tail=1e-12):
    """Independent evaluation of the one-distance CF through its geometric
    convolution series sum_k ((n-2)/(n-1))^k xi_n(s)^k / (n-2)."""
    r = (n - 2) / (n - 1)
    x = dist.cf_scaled(s, n)
    q = r * x
    total, term = 0.0, 1.0
    k = 0
    while True:
        k += 1
        term *= q
        total += term
        if abs(q) ** (k + 1) / ((n - 2) * (1 - abs(q))) < tail:
            break
    return total / (n - 2)


def test_distance_cf_at_zero():
    for n in (2, 3, 100):
        assert charfn.distance_cf(0.0, n, GAUSS) == 1.0


def test_distance_cf_two_particles_collapses_to_offset_cf():
    for s in GRID:
        assert charfn.distance_cf(s, 2, GAUSS) == pytest.approx(
            GAUSS.cf_scaled(s, 2), rel=1e-15
        )


def test_distance_cf_matches_convolution_series():
    val = charfn.distance_cf(20.0, 100, GAUSS)
    assert val == pytest.approx(geometric_series_oracle(20.0, 100, GAUSS), abs=1e-9)
    for s in (1.0, 5.0, 33.3):
        assert charfn.distance_cf(s, 17, GAUSS) == pytest.approx(
            geometric_series_oracle(s, 17, GAUSS), abs=1e-9
        )


def test_distance_cf_even_and_bounded():
    vals = charfn.distance_cf(GRID, 10, GAUSS)
    np.testing.assert_array_equal(vals, charfn.distance_cf(-GRID, 10, GAUSS)[::-1])
    assert np.all(np.abs(vals) <= 1.0)


def test_distance_cf_limit_values():
    assert charfn.distance_cf_limit(0.0, SIGMA) == 1.0
    assert charfn.distance_cf_limit(math.sqrt(2) / SIGMA, SIGMA) == pytest.approx(0.5)


def test_distance_cf_approaches_limit_at_rate_one_over_n():
    s = 5.0
    gap1 = abs(charfn.distance_cf(s, 1000, GAUSS) - charfn.distance_cf_limit(s, SIGMA))
    gap2 = abs(charfn.distance_cf(s, 2000, GAUSS) - charfn.distance_cf_limit(s, SIGMA))
    assert gap1 / gap2 == pytest.approx(2.0, rel=0.2)


def test_laplace_pdf_values_and_quadrature():
    assert charfn.laplace_pdf(0.0, SIGMA) == pytest.approx(1.0 / (math.sqrt(2) * SIGMA))
    assert charfn.laplace_pdf(0.3, SIGMA) == charfn.laplace_pdf(-0.3, SIGMA)
    total, _ = quad(lambda y: charfn.laplace_pdf(y, SIGMA), -3, 3, limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)
    second, _ = quad(lambda y: y * y * charfn.laplace_pdf(y, SIGMA), -3, 3, limit=200)
    assert second == pytest.approx(SIGMA**2, abs=1e-6)


@pytest.mark.parametrize("sigma", [0.1, 1.0, 3.0])
def test_laplace_cdf_integrates_laplace_pdf(sigma):
    def pdf(y):
        return float(charfn.laplace_pdf(y, sigma))

    tight = dict(epsabs=1e-14, epsrel=1e-14)
    for x in (0.0, 0.3 * sigma, -0.3 * sigma, 6 * sigma, -6 * sigma):
        # split at the density's kink at 0, where quad's rule loses digits
        area = quad(pdf, -math.inf, min(x, 0.0), **tight)[0]
        if x > 0:
            area += quad(pdf, 0.0, x, **tight)[0]
        assert abs(charfn.laplace_cdf(x, sigma) - area) < 1e-12, x
    assert charfn.laplace_cdf(0.0, sigma) == 0.5


def test_distance_pdf_mass_and_fourier_oracle():
    eps = 1e-10
    n = 100
    total, _ = quad(
        lambda y: charfn.distance_pdf(y, n, SIGMA, eps), -1.5, 1.5, limit=400
    )
    assert total == pytest.approx(1.0, abs=2 * eps + 1e-8)
    # Fourier-transforming the density recovers the closed-form CF
    ys = np.linspace(-1.5, 1.5, 30_001)
    dens = charfn.distance_pdf(ys, n, SIGMA, eps)
    for s in (10.0, 3.0):
        transform = np.trapezoid(dens * np.cos(s * ys), ys)
        assert transform == pytest.approx(
            charfn.distance_cf(s, n, GAUSS), abs=1e-7
        )


def test_distance_pdf_approaches_laplace_density():
    val = charfn.distance_pdf(0.0, 10_000, SIGMA, 1e-8)
    assert val == pytest.approx(charfn.laplace_pdf(0.0, SIGMA), rel=0.02)


def test_distance_pdf_validation():
    with pytest.raises(ValueError):
        charfn.distance_pdf(0.0, 2, SIGMA)
    with pytest.raises(ValueError):
        charfn.distance_pdf(0.0, 10, SIGMA, eps=0.0)
    with pytest.raises(ValueError):
        charfn.series_truncation(2, 1e-6)
    # eps is a discarded mass: 0 < eps < 1, or the series has no meaning
    for eps in (1.0, 2.0, math.inf, math.nan, -1e-3):
        with pytest.raises(ValueError, match="eps"):
            charfn.series_truncation(100, eps)
        with pytest.raises(ValueError, match="eps"):
            charfn.distance_pdf(0.0, 100, SIGMA, eps)


@pytest.mark.parametrize(
    "make", [offsets.gaussian, offsets.uniform, offsets.two_point],
    ids=["gaussian", "uniform", "two_point"],
)
def test_scalar_and_array_evaluation_agree_bitwise(make):
    dist = make(SIGMA)
    evaluators = {
        "distance_cf": (lambda s: charfn.distance_cf(s, 100, dist), GRID_FINE),
        "distance_cf_limit": (lambda s: charfn.distance_cf_limit(s, SIGMA), GRID_FINE),
        "cf": (dist.cf, GRID_FINE),
        "laplace_pdf": (lambda y: charfn.laplace_pdf(y, SIGMA), GRID_FINE * SIGMA / 100),
    }
    if dist.kind != offsets.TWO_POINT:
        evaluators["pdf"] = (dist.pdf, GRID_FINE * SIGMA / 10)
    if dist.kind == offsets.GAUSSIAN:
        evaluators["distance_pdf"] = (
            lambda y: charfn.distance_pdf(y, 100, SIGMA), GRID_FINE / 100
        )
    for name, (evaluate, points) in evaluators.items():
        scalars = [evaluate(x) for x in points.tolist()]
        assert all(type(v) is np.float64 for v in scalars), name
        assert np.array(scalars).tobytes() == evaluate(points).tobytes(), name


def _grid_evaluators(dist):
    """(name, grid call, point call) of every lattice evaluator."""
    def joint(s, k):
        return charfn.distances_joint_cf(np.broadcast_to(s, (k, np.size(s))), 30, dist)

    def joint_limit(s, k):
        return charfn.distances_joint_cf_limit(np.broadcast_to(s, (k, np.size(s))), SIGMA)

    return [
        ("particle_cf", lambda s: charfn.particle_cf(s, 7, dist),
         lambda s: charfn.particle_cf(s, 7, dist)),
        ("particle_cf_limit", lambda s: charfn.particle_cf_limit(s, 9, SIGMA),
         lambda s: charfn.particle_cf_limit(s, 9, SIGMA)),
        ("distances_joint_cf", lambda s: joint(s, 5),
         lambda s: charfn.distances_joint_cf((s,) * 5, 30, dist)),
        ("distances_joint_cf_limit", lambda s: joint_limit(s, 6),
         lambda s: charfn.distances_joint_cf_limit((s,) * 6, SIGMA)),
    ]


@pytest.mark.parametrize("block", [charfn.GRID_BLOCK, 3], ids=["block", "block3"])
@pytest.mark.parametrize(
    "make", [offsets.gaussian, offsets.uniform, offsets.two_point],
    ids=["gaussian", "uniform", "two_point"],
)
def test_grid_walk_equals_pointwise_bitwise(make, block, monkeypatch):
    # one memo walk over the grid gives each point the bits of its own walk,
    # also across block seams (101 points in blocks of 3)
    monkeypatch.setattr(charfn, "GRID_BLOCK", block)
    dist = make(SIGMA)
    for name, grid_call, point_call in _grid_evaluators(dist):
        values = grid_call(GRID)
        points = [point_call(s) for s in GRID.tolist()]
        assert all(type(v) is float for v in points), name
        assert values.shape == GRID.shape, name
        assert values.tobytes() == np.array(points).tobytes(), name
        assert values[50] == 1.0, name  # s = 0 is exactly 1


def test_grid_arguments_need_shape_k_by_p():
    with pytest.raises(ValueError, match="shape"):
        charfn.particle_cf(np.ones((2, 2)), 5, GAUSS)


def _pair_grid(half_width, points):
    """The (2, points^2) grid of (s1, s2) over [-half_width, half_width]^2."""
    axis = np.linspace(-half_width, half_width, points)
    s1, s2 = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([s1.ravel(), s2.ravel()])


def test_lattice_grids_match_pinned_digest():
    # phiN n=12, gammaN n=14 and psiNk n=100 k=10 on the grid 0:50:101, as the
    # integer-multiplier walk computed them before states became count vectors
    s = np.linspace(0.0, 50.0, 101)
    digest = hashlib.sha256()
    for values in (
        charfn.particle_cf(s, 12, GAUSS),
        charfn.particle_cf_limit(s, 14, SIGMA, cap=14),
        charfn.distances_joint_cf(np.broadcast_to(s, (10, s.size)), 100, GAUSS),
    ):
        digest.update(values.astype("<f8").tobytes())
    assert digest.hexdigest() == (
        "186d7525f6aaf7a5aa7818c6975dc7e85d4adac8090e305aa69aa313ffe6ddb7"
    )


def test_general_pair_grid_matches_three_particle_closed_form():
    grid = _pair_grid(50.0, 21)
    values = charfn.distances_joint_cf(grid, 3, GAUSS)
    closed = [distance_pair_cf_three(s1, s2, GAUSS) for s1, s2 in grid.T]
    assert np.abs(values - closed).max() < 1e-12


@pytest.mark.parametrize(
    "make", [offsets.gaussian, offsets.uniform, offsets.two_point],
    ids=["gaussian", "uniform", "two_point"],
)
def test_permuting_grid_rows_changes_no_bit(make):
    # classes are ordered by their rows, not by their place in the grid
    dist = make(SIGMA)
    rng = np.random.default_rng(3)
    grid = rng.uniform(-40.0, 40.0, (4, 50))
    grid[2] = grid[0]  # one class of two arguments
    for evaluate in (
        lambda g: charfn.distances_joint_cf(g, 10, dist),
        lambda g: charfn.distances_joint_cf_limit(g, SIGMA),
    ):
        values = evaluate(grid).tobytes()
        for order in ([3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]):
            assert evaluate(grid[order]).tobytes() == values


@pytest.mark.parametrize(
    "make", [offsets.gaussian, offsets.uniform, offsets.two_point],
    ids=["gaussian", "uniform", "two_point"],
)
def test_general_grid_is_close_to_its_points(make):
    # a grid orders its classes by row, a point by value, and a point with
    # s1 == s2 has one class where the grid has two: sums form in another
    # order, so entries may differ from their points by a few ulps (at most
    # 6.0e-15 measured, two-point offsets, 41 x 41 at n = 100)
    dist = make(SIGMA)
    grid = _pair_grid(50.0, 41)
    unequal = np.array([[1.0, 2.0, 3.0], [1.0, 2.5, 3.0]])
    for coords in (grid, unequal):
        values = charfn.distances_joint_cf(coords, 100, dist)
        limit = charfn.distances_joint_cf_limit(coords, SIGMA)
        points = [charfn.distances_joint_cf(tuple(c), 100, dist) for c in coords.T.tolist()]
        limit_points = [charfn.distances_joint_cf_limit(tuple(c), SIGMA) for c in coords.T.tolist()]
        assert np.abs(values - points).max() < 1e-14
        assert np.abs(limit - limit_points).max() < 1e-14


def test_grid_bound_check_reports_the_offending_entry():
    assert charfn._check_cf(np.array([0.5, -1.0, 1.0])).tolist() == [0.5, -1.0, 1.0]
    with pytest.raises(AssertionError, match=r"left \[-1, 1\]: 1.5"):
        charfn._check_cf(np.array([0.5, 1.5, -2.0]))
    with pytest.raises(AssertionError, match="nan"):
        charfn._check_cf(np.array([0.5, math.nan]))


def test_grid_walk_memory_is_bounded_by_the_block():
    # the memo holds one array per lattice state; unblocked, a 100k-point
    # n=12 grid peaks near 170 MB, in blocks of GRID_BLOCK points near 3.4 MB
    grid = np.linspace(-50.0, 50.0, 100_000)
    tracemalloc.start()
    try:
        values = charfn.particle_cf(grid, 12, GAUSS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == grid.shape
    assert peak < 16e6


def test_state_count_is_the_walk_memo_size():
    # the walk's block size is taken from this count
    for counts in ([1], [12], [13], [1, 1], [2, 1], [6, 6], [3, 2, 1], [1] * 7):
        radix = sum(counts) + 1
        parts = tuple(sorted(radix**c for c, n in enumerate(counts) for _ in range(n)))
        memo = {}
        charfn._joint_cf(parts, lambda m: 0.5, lambda p, x: 2.0, memo)
        assert charfn._state_count(counts) == len(memo), counts


def test_general_grid_walk_memory_shrinks_with_the_states():
    # 7 distinct rows reach 4139 states, so a walk over GRID_BLOCK points
    # would peak near 36 MB; one walk over all 130 points here would hold
    # 4139 arrays of 130 floats in its memo alone
    points = 130
    grid = np.random.default_rng(4).uniform(-20.0, 20.0, (7, points))
    tracemalloc.start()
    try:
        values = charfn.distances_joint_cf(grid, 8, GAUSS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (points,)
    assert peak < 16e6
    assert peak < 4139 * points * 8


def test_joint_cf_k1_equals_distance_cf():
    for n in (3, 10, 100):
        for s in GRID:
            assert abs(
                charfn.distances_joint_cf((s,), n, GAUSS) - charfn.distance_cf(s, n, GAUSS)
            ) < 1e-12


def test_joint_cf_three_particles_matches_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s1, s2 = rng.uniform(-50, 50, 2)
        assert abs(
            charfn.distances_joint_cf((s1, s2), 3, GAUSS)
            - distance_pair_cf_three(s1, s2, GAUSS)
        ) < 1e-12


def test_joint_cf_trailing_zero_marginalises():
    rng = np.random.default_rng(1)
    for k in (2, 3, 4):
        args = tuple(rng.uniform(-30, 30, k - 1))
        with_zero = charfn.distances_joint_cf(args + (0.0,), 10, GAUSS)
        without = charfn.distances_joint_cf(args, 10, GAUSS)
        assert abs(with_zero - without) < 1e-12


def test_joint_cf_permutation_invariant():
    args = (3.0, -7.5, 11.0)
    vals = {
        charfn.distances_joint_cf(p, 10, GAUSS) for p in itertools.permutations(args)
    }
    assert len(vals) == 1  # canonical sorting makes this exact


def test_joint_cf_validation():
    with pytest.raises(ValueError):
        charfn.distances_joint_cf((1.0, 2.0, 3.0), 3, GAUSS)  # k >= n
    with pytest.raises(charfn.ResourceLimitError, match="cap"):
        charfn.distances_joint_cf(tuple(range(1, 15)), 100, GAUSS)


def test_joint_cf_limit_k1_closed_form():
    for s in GRID:
        expected = 2.0 / (2.0 + SIGMA**2 * s**2)
        assert abs(charfn.distances_joint_cf_limit((s,), SIGMA) - expected) < 1e-12


def test_joint_cf_limit_marginalisation_and_symmetry():
    a, b, c = 4.0, -9.0, 2.5
    assert abs(
        charfn.distances_joint_cf_limit((a, b, 0.0), SIGMA)
        - charfn.distances_joint_cf_limit((a, b), SIGMA)
    ) < 1e-12
    assert charfn.distances_joint_cf_limit((a, b, c), SIGMA) == (
        charfn.distances_joint_cf_limit((c, a, b), SIGMA)
    )


def test_joint_cf_at_zero_vector_is_exactly_one():
    assert charfn.distances_joint_cf((0.0, 0.0), 5, GAUSS) == 1.0
    assert charfn.distances_joint_cf((0.0,) * 10, 100, GAUSS) == 1.0
    assert charfn.distances_joint_cf_limit((0.0, 0.0, 0.0), SIGMA) == 1.0


def test_joint_cf_even():
    args = (3.0, 8.0, -2.0)
    neg = tuple(-a for a in args)
    assert charfn.distances_joint_cf(args, 12, GAUSS) == pytest.approx(
        charfn.distances_joint_cf(neg, 12, GAUSS), rel=1e-14
    )


# (s, particle_cf(s, 12), particle_cf_limit(s, 14), distances_joint_cf((s,)*10,
# 100), distances_joint_cf((s, 0.6 s, 2.0), 10)) for gaussian sigma = 0.1, as
# computed by the ungrouped k^2 recursions
PINNED_CF = [
    (0.5, 0.9994750582001408, 0.9994199387811282, 0.9357735248877882, 0.9732801330835686),
    (5.0, 0.9496909001512127, 0.9447601855437386, 0.034712893457380274, 0.7571983112728151),
    (20.0, 0.49975574846570486, 0.47658411290682245, 1.8405497805830765e-07,
     0.1345257724830663),
    (50.0, 0.053346474550158444, 0.047284885892166846, 7.939407236047182e-13,
     0.003876662178368451),
]


@pytest.mark.parametrize("row", PINNED_CF, ids=lambda row: f"s={row[0]}")
def test_recursions_match_pinned_values(row):
    s, phi, gamma, psi_diag, psi_mixed = row
    assert charfn.particle_cf(s, 12, GAUSS) == pytest.approx(phi, abs=1e-13)
    assert charfn.particle_cf_limit(s, 14, SIGMA, cap=14) == pytest.approx(
        gamma, abs=1e-13
    )
    assert charfn.distances_joint_cf((s,) * 10, 100, GAUSS) == pytest.approx(
        psi_diag, abs=1e-13
    )
    assert charfn.distances_joint_cf((s, 0.6 * s, 2.0), 10, GAUSS) == pytest.approx(
        psi_mixed, abs=1e-13
    )


def test_cf_bound_check_survives_optimised_mode():
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "from turnover import charfn; charfn._check_cf(1.5)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode != 0
    assert "characteristic function left [-1, 1]: 1.5" in proc.stderr


def test_argument_rules_survive_optimised_mode():
    script = (
        "import math\n"
        "from turnover import charfn, simulator\n"
        "for call in (lambda: charfn.distance_cf_limit(1.0, math.inf),\n"
        "             lambda: simulator.draw_moves(None, 1, 1)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines() == [
        "sigma must be a positive finite real, got inf",
        "n_particles must be >= 2 and integral, got 1",
    ]


def test_particle_cf_two_particles_closed_form():
    for s in (0.0, 1.0, 7.3, -20.0):
        assert charfn.particle_cf(s, 2, GAUSS) == pytest.approx(
            GAUSS.cf(s / (2 * math.sqrt(2))), rel=1e-14
        )


def test_particle_cf_three_particles_closed_form():
    for s in GRID:
        assert abs(
            charfn.particle_cf(s, 3, GAUSS) - particle_cf_three(s, GAUSS)
        ) < 1e-12
    assert charfn.particle_cf(0.0, 3, GAUSS) == 1.0


@pytest.mark.parametrize(
    "make", [offsets.gaussian, offsets.uniform, offsets.two_point],
    ids=["gaussian", "uniform", "two_point"],
)
def test_particle_cfs_are_the_joint_cf_diagonal(make):
    dist = make(SIGMA)
    for n in (2, 3, 7, 12):
        for s in (0.0, 1.0, 13.7, -40.0):
            diagonal = (s / n,) * (n - 1)
            assert charfn.particle_cf(s, n, dist) == charfn.distances_joint_cf(
                diagonal, n, dist
            )
            assert charfn.particle_cf_limit(s, n, SIGMA) == charfn.distances_joint_cf_limit(
                diagonal, SIGMA
            )


def test_particle_cf_cap():
    with pytest.raises(charfn.ResourceLimitError, match="cap"):
        charfn.particle_cf(1.0, 13, GAUSS)
    with pytest.raises(charfn.ResourceLimitError, match="cap"):
        charfn.particle_cf_limit(1.0, 13, SIGMA)
    # explicit override allows a slightly deeper evaluation
    val = charfn.particle_cf(1.0, 13, GAUSS, cap=13)
    assert abs(val) <= 1.0


def test_particle_cf_limit_family():
    for n in (2, 4, 8, 12):
        assert charfn.particle_cf_limit(0.0, n, SIGMA) == 1.0
    # Cauchy behaviour on the way to the limit
    for s in (1.0 / SIGMA, 2.0 / SIGMA):
        g4 = charfn.particle_cf_limit(s, 4, SIGMA)
        g8 = charfn.particle_cf_limit(s, 8, SIGMA)
        g12 = charfn.particle_cf_limit(s, 12, SIGMA)
        assert abs(g8 - g12) < abs(g4 - g8)


def test_particle_cf_limit_curvature_tends_to_half_variance():
    h = 0.5
    target = -SIGMA**2 / 2.0
    gaps = []
    for n in (4, 8, 12):
        curv = (
            charfn.particle_cf_limit(h, n, SIGMA)
            - 2.0
            + charfn.particle_cf_limit(-h, n, SIGMA)
        ) / h**2
        gaps.append(abs(curv - target))
    assert gaps[2] < gaps[0]
    assert gaps[2] < 0.15 * abs(target)


def distance_pair_pdf_three(y1, y2, sigma, eps=1e-10):
    """Joint density of two distances sharing a particle, for n=3, gaussian
    offsets: the symmetric six-term product form."""
    root = math.sqrt(3)
    dist = offsets.gaussian(sigma)

    def rho_d(v):
        return charfn.distance_pdf(v, 3, sigma, eps)

    def rho_off(v):
        # density of offset/sqrt(3)
        return root * dist.pdf(v * root)

    diff = y1 - y2
    return (
        rho_d(diff) * rho_off(y1)
        + rho_d(diff) * rho_off(y2)
        + rho_d(y2) * rho_off(y1)
        + rho_d(y2) * rho_off(diff)
        + rho_d(y1) * rho_off(y2)
        + rho_d(y1) * rho_off(diff)
    ) / 6.0


def test_pair_density_symmetric():
    assert distance_pair_pdf_three(0.07, -0.02, SIGMA) == pytest.approx(
        distance_pair_pdf_three(-0.02, 0.07, SIGMA), rel=1e-12
    )


def _pair_density_grid(eps, half_width=1.0, points=801):
    ys = np.linspace(-half_width, half_width, points)
    y1, y2 = np.meshgrid(ys, ys, indexing="ij")
    dens = distance_pair_pdf_three(y1, y2, SIGMA, eps)
    return ys, dens


def test_pair_density_mass():
    eps = 1e-8
    ys, dens = _pair_density_grid(eps)
    mass = np.trapezoid(np.trapezoid(dens, ys, axis=1), ys)
    assert mass == pytest.approx(1.0, abs=5 * eps + 1e-5)


def test_pair_density_fourier_matches_joint_cf():
    eps = 1e-10
    ys, dens = _pair_density_grid(eps)
    s1, s2 = 1.0 / SIGMA, 2.0 / SIGMA
    phase = np.cos(s1 * ys[:, None] + s2 * ys[None, :])
    transform = np.trapezoid(np.trapezoid(dens * phase, ys, axis=1), ys)
    assert transform == pytest.approx(
        charfn.distances_joint_cf((s1, s2), 3, GAUSS), abs=1e-5
    )


def test_pair_density_requires_gaussian():
    with pytest.raises(ValueError):
        distance_pair_pdf_three(0.0, 0.0, -1.0)


def test_finite_n_to_limit_gap_halves_on_grid():
    sup1 = np.abs(
        charfn.distance_cf(GRID, 1000, GAUSS) - charfn.distance_cf_limit(GRID, SIGMA)
    ).max()
    sup2 = np.abs(
        charfn.distance_cf(GRID, 2000, GAUSS) - charfn.distance_cf_limit(GRID, SIGMA)
    ).max()
    assert sup1 / sup2 == pytest.approx(2.0, rel=0.2)


def test_monte_carlo_bridge_joint_cf():
    # stationary simulated pair (D12, D13) against the analytic joint CF
    n = 5
    config = simulator.SimConfig(
        n_particles=n,
        offsets=offsets.gaussian(SIGMA),
        steps=400_000,
        burn_in=5_000,
        seed=21,
        thin=5,
    )
    rows = simulator.run(config).distance_rows()
    d12, d13 = rows[:, 0], rows[:, 1]
    pairs = np.array([[5.0, 10.0, 0.0, 20.0, 40.0], [5.0, -5.0, 20.0, 10.0, 40.0]])
    analytic = charfn.distances_joint_cf(pairs, n, offsets.gaussian(SIGMA))
    for (s1, s2), value in zip(pairs.T, analytic):
        series = np.cos(s1 * d12 + s2 * d13)
        se = batch_means_se(series)
        assert abs(series.mean() - value) < 4 * se
