import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from turnover import charfn, empirical, moments, offsets, simulator

ALL_KINDS = [offsets.gaussian, offsets.uniform, offsets.two_point]


def test_two_point_support():
    d = offsets.two_point(0.1)
    rng = np.random.default_rng(0)
    draws = d.sample(rng, 1000)
    assert set(np.unique(draws)) == {-0.1, 0.1}


@pytest.mark.parametrize("sigma", [0.1, 1.0, 2.0 / 3.0, 1e-300, 1e300])
def test_two_point_sample_is_exactly_sigma_times_two_k_minus_one(sigma):
    draws = offsets.two_point(sigma).sample(np.random.default_rng(8), 100_000)
    k = np.random.default_rng(8).integers(0, 2, size=100_000)
    np.testing.assert_array_equal(draws, sigma * (2.0 * k - 1.0))
    assert draws.dtype == np.float64
    assert np.all(np.abs(draws) == sigma)


def test_gaussian_sample_variance_within_standard_error():
    # SE of the sample variance of a gaussian is sigma^2 * sqrt(2/n)
    sigma, n = 0.1, 1_000_000
    d = offsets.gaussian(sigma)
    draws = d.sample(np.random.default_rng(1), n)
    se = sigma**2 * math.sqrt(2.0 / n)
    assert abs(draws.var() - sigma**2) < 4 * se
    assert abs(draws.mean()) < 4 * sigma / math.sqrt(n)


def test_uniform_support_bound():
    d = offsets.uniform(1.0)
    draws = d.sample(np.random.default_rng(2), 100_000)
    assert np.all(np.abs(draws) <= math.sqrt(3.0))
    assert abs(draws.var() - 1.0) < 4 * math.sqrt(2.0 / draws.size) * 1.2


@pytest.mark.parametrize("make", ALL_KINDS)
def test_cf_is_one_at_zero(make):
    assert make(0.7).cf(0.0) == 1.0


def test_cf_closed_forms():
    assert offsets.gaussian(1.0).cf(1.0) == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert offsets.two_point(1.0).cf(math.pi) == pytest.approx(-1.0, abs=1e-12)
    u = offsets.uniform(1.0)
    s = 2.0
    assert u.cf(s) == pytest.approx(math.sin(math.sqrt(3) * s) / (math.sqrt(3) * s), abs=1e-15)


def test_cf_scaled_is_substitution():
    d = offsets.gaussian(0.3)
    for s in (0.0, 1.0, -4.5, 17.0):
        assert d.cf_scaled(s, 2) == pytest.approx(math.exp(-0.3**2 * s**2 / 4.0), rel=1e-15)
    assert offsets.two_point(1.0).cf_scaled(math.pi, 4) == pytest.approx(0.0, abs=1e-12)


def test_cf_scaled_small_s_expansion():
    # n * (1 - cf(s/sqrt(n))) -> sigma^2 s^2 / 2 as n grows
    s, sigma = 1.5, 0.4
    target = sigma**2 * s**2 / 2.0
    for make in ALL_KINDS:
        d = make(sigma)
        gaps = [n * (1.0 - d.cf_scaled(s, n)) for n in (10_000, 40_000)]
        assert gaps[0] == pytest.approx(target, rel=1e-3)
        # the remainder shrinks with n
        assert abs(gaps[1] - target) < abs(gaps[0] - target)


def test_cf_scaled_rejects_small_n():
    with pytest.raises(ValueError):
        offsets.gaussian(1.0).cf_scaled(1.0, 1)


def test_pdf_values():
    sigma = 0.5
    g = offsets.gaussian(sigma)
    assert g.pdf(0.0) == pytest.approx(1.0 / (sigma * math.sqrt(2 * math.pi)), rel=1e-15)
    assert offsets.uniform(1.0).pdf(2.0) == 0.0
    assert offsets.uniform(1.0).pdf(0.0) == pytest.approx(1.0 / (2 * math.sqrt(3)), rel=1e-15)
    with pytest.raises(ValueError):
        offsets.two_point(1.0).pdf(0.0)


def test_gaussian_pdf_normalised():
    d = offsets.gaussian(0.1)
    total, _ = quad(d.pdf, -2.0, 2.0, epsabs=1e-12)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_uniform_pdf_normalised():
    d = offsets.uniform(0.7)
    total, _ = quad(d.pdf, -2.0, 2.0, points=[-d.half_width, d.half_width], limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)


@given(
    s=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    sigma=st.floats(min_value=1e-3, max_value=10.0),
    kind=st.sampled_from(offsets.KINDS),
)
def test_cf_even_and_bounded(s, sigma, kind):
    d = offsets.OffsetDistribution(kind, sigma)
    v = d.cf(s)
    assert v == d.cf(-s)
    assert abs(v) <= 1.0 + 1e-12


@pytest.mark.parametrize("make", ALL_KINDS)
@pytest.mark.parametrize("s", [0.5, 1.0, 5.0])
def test_monte_carlo_cf_estimate(make, s):
    d = make(0.8)
    n = 200_000
    draws = d.sample(np.random.default_rng(5), n)
    assert abs(np.cos(s * draws).mean() - d.cf(s)) < 4.0 / math.sqrt(n)


@pytest.mark.parametrize("make", ALL_KINDS)
def test_cf_curvature_at_zero_is_minus_variance(make):
    sigma = 0.9
    d = make(sigma)
    h = 1e-3
    curvature = (d.cf(h) - 2.0 * d.cf(0.0) + d.cf(-h)) / h**2
    assert curvature == pytest.approx(-(sigma**2), abs=10.0 * h**2)


def test_uniform_cf_taylor_branch_matches_direct_ratio():
    # sin(u)/u suffers no cancellation near 0: it is within 1.4 ulp of exact
    # at 1e-12 <= |u| <= 1e-4
    d = offsets.uniform(1.0)
    for u in (0.99e-4, 0.5e-4, 1e-6):
        s = u / d.half_width
        assert d.cf(s) == pytest.approx(math.sin(u) / u, rel=1e-14)
    below = 0.99e-4 / d.half_width
    above = 1.01e-4 / d.half_width
    # array path agrees with the scalar path, at 0 and on either side of 1e-4
    s = np.array([0.0, below, above, 3.0, -3.0])
    np.testing.assert_allclose(d.cf(s), [d.cf(v) for v in s], rtol=0, atol=1e-16)


def test_validation():
    with pytest.raises(ValueError):
        offsets.OffsetDistribution("triangular", 1.0)
    with pytest.raises(ValueError):
        offsets.gaussian(0.0)
    with pytest.raises(ValueError):
        offsets.gaussian(-1.0)


# every public function that takes a scale, called with that scale alone bad
SCALED = {
    "OffsetDistribution": lambda v: offsets.OffsetDistribution("gaussian", v),
    "distance_cf_limit": lambda v: charfn.distance_cf_limit(1.0, v),
    "laplace_pdf": lambda v: charfn.laplace_pdf(0.0, v),
    "laplace_cdf": lambda v: charfn.laplace_cdf([-1.0, 0.0, 1.0], v),
    "distance_pdf": lambda v: charfn.distance_pdf(0.0, 10, v),
    "distances_joint_cf_limit": lambda v: charfn.distances_joint_cf_limit((1.0, 2.0), v),
    "particle_cf_limit": lambda v: charfn.particle_cf_limit(1.0, 5, v),
    "kde": lambda v: empirical.kde([0.0, 1.0], v, np.array([0.0, 1.0])),
    "ks_laplace": lambda v: empirical.ks_laplace([0.0, 1.0], v),
    "summarize": lambda v: empirical.summarize(np.zeros((2, 3)), v),
    "SimConfig": lambda v: simulator.SimConfig(
        n_particles=2, offsets=offsets.gaussian(1.0), steps=1, init_scale=v
    ),
}


@pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan], ids=["0", "-1", "inf", "nan"])
@pytest.mark.parametrize("name", list(SCALED))
def test_every_scale_must_be_a_positive_finite_real(name, scale):
    with pytest.raises(ValueError, match="must be a positive finite real"):
        SCALED[name](scale)


# every count rule, at the first value it refuses, at a non-integer and at a
# bool, which is an int to isinstance
COUNTED = {
    "SimConfig.n_particles": (2, lambda v: simulator.SimConfig(v, offsets.gaussian(1.0), 1)),
    "SimConfig.steps": (0, lambda v: simulator.SimConfig(2, offsets.gaussian(1.0), v)),
    "SimConfig.burn_in": (0, lambda v: simulator.SimConfig(2, offsets.gaussian(1.0), 1, v)),
    "SimConfig.thin": (1, lambda v: simulator.SimConfig(2, offsets.gaussian(1.0), 1, thin=v)),
    "SimConfig.seed": (0, lambda v: simulator.SimConfig(2, offsets.gaussian(1.0), 1, seed=v)),
    "draw_moves": (2, lambda v: simulator.draw_moves(np.random.default_rng(0), v, 1)),
    "cf_scaled": (2, lambda v: offsets.gaussian(1.0).cf_scaled(1.0, v)),
    "distance_cf": (2, lambda v: charfn.distance_cf(1.0, v, offsets.gaussian(1.0))),
    "distance_pdf": (3, lambda v: charfn.distance_pdf(0.0, v, 1.0)),
    "distances_joint_cf": (2, lambda v: charfn.distances_joint_cf((), v, offsets.gaussian(1.0))),
    "particle_cf": (2, lambda v: charfn.particle_cf(1.0, v, offsets.gaussian(1.0))),
    "particle_cf_limit": (2, lambda v: charfn.particle_cf_limit(1.0, v, 1.0)),
    "accumulate_moments": (1, lambda v: empirical.accumulate_moments(np.ones(3), v)),
    "summarize.bins": (1, lambda v: empirical.summarize(np.zeros((2, 3)), 1.0, bins=v)),
    "summarize.kde_points": (1, lambda v: empirical.summarize(np.zeros((2, 3)), 1.0, kde_points=v)),
    "partitions": (0, lambda v: list(moments.partitions(v))),
    "phi_base": (0, moments.phi_base),
    "build_phi_table": (0, moments.build_phi_table),
    "PhiTable.moment": (1, moments.build_phi_table(2).moment),
}


@pytest.mark.parametrize("name", list(COUNTED))
def test_every_count_must_be_an_integer_at_its_least(name):
    least, call = COUNTED[name]
    for value in (least - 1, least + 0.5, True):
        with pytest.raises(ValueError, match=f"must be >= {least} and integral"):
            call(value)


def test_from_name_accepts_dashes():
    assert offsets.from_name("two-point", 1.0).kind == offsets.TWO_POINT
    assert offsets.from_name("GAUSSIAN", 1.0).kind == offsets.GAUSSIAN
