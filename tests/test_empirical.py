import hashlib
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from turnover import charfn, empirical


def test_moments_of_constant_samples():
    out = empirical.accumulate_moments(np.array([2.0, 2.0, 2.0]), 2)
    np.testing.assert_allclose(out, [2.0, 4.0])


def test_moments_of_symmetric_pair():
    out = empirical.accumulate_moments(np.array([-1.0, 1.0]), 3)
    np.testing.assert_allclose(out, [0.0, 1.0, 0.0])


def test_moments_match_fsum_oracle():
    rng = np.random.default_rng(0)
    x = rng.laplace(0.0, 0.1 / math.sqrt(2), 100_000)
    flat = empirical.accumulate_moments(x, 8)
    framed = empirical.summarize(x.reshape(1000, 100), 0.1).raw_moments
    for j in range(1, 9):
        exact = math.fsum(v**j for v in x) / x.size
        assert flat[j - 1] == pytest.approx(exact, rel=1e-12, abs=1e-300)
        assert framed[j - 1] == pytest.approx(exact, rel=1e-12, abs=1e-300)


def test_accumulator_errors():
    with pytest.raises(ValueError):
        empirical.accumulate_moments(np.array([1.0]), 0)
    with pytest.raises(ValueError):
        empirical.accumulate_moments(np.array([]), 2)
    with pytest.raises(ValueError):
        empirical.summarize(np.ones((3, 2)), 1.0, max_order=0)


def test_kde_single_sample_at_grid_point():
    out = empirical.kde(np.array([0.0]), 1.0, np.array([0.0]))
    assert out[0] == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)


def test_kde_trapezoid_mass_on_wide_grid():
    rng = np.random.default_rng(2)
    x = rng.normal(0, 1, 1_000)
    grid = np.linspace(-12, 12, 2001)
    dens = empirical.kde(x, 1.0, grid)
    assert np.all(dens >= 0)
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)


def test_kde_laplace_peak_value():
    sigma = 0.1
    b = sigma / math.sqrt(2)
    rng = np.random.default_rng(3)
    x = rng.laplace(0.0, b, 1_000_000)
    h = b / 50.0
    out = empirical.kde(x, h, np.array([0.0]))
    assert out[0] == pytest.approx(1.0 / (2 * b), rel=0.05)


def test_kde_validation():
    with pytest.raises(ValueError):
        empirical.kde(np.array([0.0]), 0.0, np.array([0.0]))
    with pytest.raises(ValueError):
        empirical.kde(np.array([0.0]), 1.0, np.array([1.0, 0.0]))


def _kde_direct(samples, bandwidth, grid):
    """The dense O(n * G) Gaussian sum, every kernel at every grid point."""
    x = np.asarray(samples, dtype=float).ravel()
    z = (np.asarray(grid, dtype=float)[:, None] - x[None, :]) / bandwidth
    return np.exp(-0.5 * z * z).sum(axis=1) / (x.size * bandwidth * math.sqrt(2 * math.pi))


def _kde_case(name):
    rng = np.random.default_rng(10)
    if name == "summarize-grid":
        sigma = 0.1
        frames = rng.laplace(0.0, sigma / math.sqrt(2), (200, 99))
        grid = empirical.summarize(frames, sigma).kde_grid
        return frames, 0.1 * sigma, grid
    if name == "bandwidth-covers-all":
        return rng.uniform(-1, 1, 3_000), 10.0, np.linspace(-2, 2, 41)
    if name == "grid-inside-data":
        return rng.normal(0, 1, 5_000), 0.05, np.linspace(-0.5, 0.5, 101)
    # h = 0.25 makes 8h = 2.0 exact: -2.0 and 2.0 sit on the window edges of
    # grid point 0.0, and 3.0 on that of grid point 1.0
    return np.array([-2.0, 0.0, 2.0, 3.0, 2.5]), 0.25, np.array([0.0, 1.0])


@pytest.mark.parametrize(
    "case",
    ["summarize-grid", "bandwidth-covers-all", "grid-inside-data", "sample-at-8h"],
)
def test_kde_matches_direct_sum_within_truncation_bound(case):
    samples, h, grid = _kde_case(case)
    got = empirical.kde(samples, h, grid)
    direct = _kde_direct(samples, h, grid)
    bound = math.exp(-32) / (h * math.sqrt(2 * math.pi)) + 1e-12 * direct.max()
    assert np.max(np.abs(got - direct)) <= bound


def test_kde_rejects_nan_samples_and_grid_points():
    with pytest.raises(ValueError, match="NaN"):
        empirical.kde(np.array([0.0, np.nan, 1.0]), 1.0, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="grid"):
        empirical.kde(np.array([0.0, 1.0]), 1.0, np.array([np.nan]))


def test_kde_rejects_an_empty_sample():
    with pytest.raises(ValueError, match="at least one sample"):
        empirical.kde(np.empty(0), 1.0, np.array([0.0, 1.0]))


def test_empirical_cf_at_zero():
    assert empirical.empirical_cf(np.array([1.0, 2.0]), 0.0) == (1.0, 0.0)


def test_empirical_cf_symmetric_pair():
    a, s = 0.7, 2.5
    re, im = empirical.empirical_cf(np.array([-a, a]), s)
    assert re == pytest.approx(math.cos(s * a), rel=1e-15)
    assert im == pytest.approx(0.0, abs=1e-16)


def test_empirical_cf_conjugate_symmetry_exact():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, 1_000)
    re_pos, im_pos = empirical.empirical_cf(x, 3.7)
    re_neg, im_neg = empirical.empirical_cf(x, -3.7)
    assert re_pos == re_neg
    assert im_pos == -im_neg


def test_empirical_cf_empty_rejected():
    with pytest.raises(ValueError):
        empirical.empirical_cf(np.array([]), 1.0)


@pytest.mark.parametrize("sigma", [0.1, 1.0, 3.7])
def test_laplace_cdf_equals_the_two_branch_formula(sigma):
    b = sigma / math.sqrt(2.0)
    rng = np.random.default_rng(9)
    x = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, 1e3 * b, -1e3 * b],
        rng.laplace(0.0, b, 10_000),
        np.linspace(-1e3 * b, 1e3 * b, 10_001),
    ])
    with np.errstate(over="ignore"):
        two_branch = np.where(x < 0, 0.5 * np.exp(x / b), 1.0 - 0.5 * np.exp(-x / b))
    # only exponents <= 0 are formed, so nothing overflows
    with np.errstate(over="raise"):
        cdf = charfn.laplace_cdf(x, sigma)
    np.testing.assert_array_equal(cdf, two_branch)
    assert cdf[0] == cdf[1] == 0.5
    assert cdf[2] == 1.0 and cdf[3] == 0.0 and math.isnan(cdf[4])


def test_ks_point_mass_is_half():
    assert empirical.ks_laplace(np.zeros(1000), 1.0) == pytest.approx(0.5, abs=1e-12)


def test_ks_on_true_laplace_samples():
    sigma = 0.4
    rng = np.random.default_rng(5)
    n = 100_000
    x = rng.laplace(0.0, sigma / math.sqrt(2), n)
    # under the null the statistic is below 1.95/sqrt(n) at ~95% confidence;
    # the seed is fixed, so this is a deterministic regression of that event
    assert empirical.ks_laplace(x, sigma) < 1.95 / math.sqrt(n)


def test_ks_matches_scipy_oracle():
    sigma = 0.7
    rng = np.random.default_rng(6)
    x = rng.normal(0, sigma, 5_000)
    ours = empirical.ks_laplace(x, sigma)
    ref = stats.kstest(x, stats.laplace(scale=sigma / math.sqrt(2)).cdf).statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def _kde_one_shot(samples, bandwidth, grid):
    """kde with each window's kernel formed in one pass, no chunks."""
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    reach = 8.0 * bandwidth
    starts = np.searchsorted(x, grid - reach, side="left")
    stops = np.searchsorted(x, grid + reach, side="right")
    out = np.empty_like(grid)
    for k, (y, a, b) in enumerate(zip(grid, starts, stops)):
        z = np.subtract(y, x[a:b])
        z /= bandwidth
        w = np.multiply(-0.5, z)
        w *= z
        out[k] = np.exp(w, out=w).sum()
    return out / (x.size * bandwidth * math.sqrt(2.0 * math.pi))


def _ks_one_shot(samples, sigma):
    """ks_laplace over whole-sample CDF and step buffers, no chunks."""
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    cdf = charfn.laplace_cdf(x, sigma)
    d_plus = (np.arange(1, n + 1, dtype=float) / n - cdf).max()
    d_minus = (cdf - np.arange(0, n, dtype=float) / n).max()
    return float(max(d_plus, d_minus))


@pytest.mark.parametrize("width", [1, 8191, 8192, 8193, 3 * 8192 + 5])
def test_kde_equals_one_shot_at_chunk_edges(width):
    assert empirical._CHUNK == 8192
    rng = np.random.default_rng(width)
    # grid point 0 sees the `width` samples in [-1, 1] and grid point 100 the
    # far ones, so the second window starts off a chunk boundary; grid point
    # 200 sees none
    samples = np.concatenate([rng.uniform(-1, 1, width), rng.uniform(99.5, 100.5, 1000)])
    grid = np.array([0.0, 100.0, 200.0])
    assert np.searchsorted(np.sort(samples), 4.0) == width
    assert np.array_equal(empirical.kde(samples, 0.5, grid), _kde_one_shot(samples, 0.5, grid))


@pytest.mark.parametrize("count", [1, 8191, 8192, 8193, 16384, 16385, 3 * 8192 + 5])
def test_ks_equals_one_shot_around_chunk_multiples(count):
    assert empirical._CHUNK == 8192
    x = np.random.default_rng(count).laplace(0.0, 0.3, count)
    assert empirical.ks_laplace(x, 0.5) == _ks_one_shot(x, 0.5)


def test_ks_keeps_a_nan_in_a_later_chunk():
    x = np.random.default_rng(12).laplace(0.0, 0.3, 2 * empirical._CHUNK + 3)
    x[7] = np.nan
    assert math.isnan(empirical.ks_laplace(x, 0.5))
    assert math.isnan(_ks_one_shot(x, 0.5))


def test_ks_validation():
    with pytest.raises(ValueError):
        empirical.ks_laplace(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        empirical.ks_laplace(np.array([]), 1.0)


def test_batch_means_se_iid_scale():
    rng = np.random.default_rng(7)
    x = rng.normal(0, 2.0, 40_000)
    se = empirical.batch_means_se(x)
    assert se == pytest.approx(2.0 / math.sqrt(x.size), rel=0.2)
    assert math.isnan(empirical.batch_means_se(np.array([1.0, 2.0, 3.0])))


def _toy_summary(n_frames=64, width=9, sigma=0.5, seed=8, **kw):
    rng = np.random.default_rng(seed)
    frames = rng.laplace(0.0, sigma / math.sqrt(2), (n_frames, width))
    return empirical.summarize(frames, sigma, **kw), frames


def test_summary_histogram_counts_total_sample_count():
    summary, frames = _toy_summary()
    assert summary.histogram_counts.sum() == frames.size
    assert summary.sample_count == frames.size


def test_summary_kde_mass_within_tolerance():
    summary, frames = _toy_summary()
    h = 0.1 * 0.5
    # exact mass of the Gaussian KDE on the grid span: kernel CDF differences
    x = frames.ravel()
    lo, hi = summary.kde_grid[0], summary.kde_grid[-1]
    mass = float(np.mean(ndtr((hi - x) / h) - ndtr((lo - x) / h)))
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_summary_ecf_bounded():
    summary, _ = _toy_summary(ecf_points=(0.5, 1.0, 5.0))
    assert all(abs(re) <= 1.0 for _, re, _ in summary.ecf)


_U = 2.0**-53


def _doubling_bound(d):
    """Per sample, the largest gap between a cos or sin value d doublings
    down an ECF chain and its direct evaluation (``_ecf_sums``' docstring)."""
    return 2 * 4**d * _U


def _mean_bound(d, n):
    # a mean of n values of magnitude <= 1 adds its own pairwise-sum rounding,
    # about log2(n) u, once for each of the two means compared
    return _doubling_bound(d) + 2 * math.ceil(math.log2(n)) * _U


def test_summary_ecf_equals_empirical_cf_of_all_samples():
    # the default points 5, 10, 20, 40 are one chain: s = 5 * 2**d is d
    # doublings down it, where empirical_cf takes each point directly
    summary, frames = _toy_summary()
    for d, (s, re, im) in enumerate(summary.ecf):
        direct = empirical.empirical_cf(frames.ravel(), s)
        assert s == 5.0 * 2**d
        assert abs(re - direct[0]) <= _mean_bound(d, frames.size)
        assert abs(im - direct[1]) <= _mean_bound(d, frames.size)


def test_ecf_doubling_stays_within_its_bound_of_the_direct_values():
    frames = _pinned_frames()
    chain = empirical._ecf_sums(frames, (5.0, 10.0, 20.0, 40.0))
    # one sample per row: each per-frame series is the per-sample cosine
    per_sample = empirical._ecf_sums(frames.reshape(-1, 1), (5.0, 10.0, 20.0, 40.0))
    for d, ((point, series), (_, samples)) in enumerate(zip(chain, per_sample)):
        s, re, im = point
        [((_, re0, im0), series0)] = empirical._ecf_sums(frames, (s,))
        cos0 = np.cos(s * frames.ravel())
        if d == 0:
            assert (re, im) == (re0, im0)
            np.testing.assert_array_equal(series, series0)
            np.testing.assert_array_equal(samples, cos0)
            continue
        assert abs(re - re0) <= _mean_bound(d, frames.size)
        assert abs(im - im0) <= _mean_bound(d, frames.size)
        assert np.abs(series - series0).max() <= _mean_bound(d, frames.shape[1])
        assert np.abs(samples - cos0).max() <= _doubling_bound(d)


def test_ecf_doubles_only_a_point_twice_the_one_before_it():
    frames = _pinned_frames()[:300]
    # 14 doubles 7; 7 and 40 are not twice the point before them, so each is
    # taken directly, bit for bit as on its own
    sums = empirical._ecf_sums(frames, (5.0, 7.0, 14.0, 40.0))
    alone = [empirical._ecf_sums(frames, (s,))[0] for s in (7.0, 40.0)]
    pair = empirical._ecf_sums(frames, (7.0, 14.0))
    for (point, series), (point0, series0) in zip(
        [sums[1], sums[3], sums[2]], [alone[0], alone[1], pair[1]]
    ):
        assert point == point0
        np.testing.assert_array_equal(series, series0)
    [(direct, _)] = empirical._ecf_sums(frames, (14.0,))
    assert sums[2][0] != direct
    assert abs(sums[2][0][1] - direct[1]) <= _mean_bound(1, frames.size)


@pytest.mark.parametrize("shape", [(64, 9), (10001, 99), (2, 99999), (777, 13)])
def test_summary_moments_equal_accumulate_moments_of_all_samples(shape):
    rng = np.random.default_rng(12)
    frames = rng.laplace(0.0, 0.5 / math.sqrt(2), shape)
    summary = empirical.summarize(frames, 0.5, max_order=8)
    assert summary.raw_moments == empirical.accumulate_moments(frames.ravel(), 8).tolist()


def test_summary_json_round_trip():
    summary, _ = _toy_summary(config={"observable": "distances", "n_particles": 10})
    payload = json.dumps(summary.to_json_dict(), sort_keys=True, allow_nan=False)
    back = empirical.EmpiricalSummary.from_json_dict(json.loads(payload))
    assert back.sample_count == summary.sample_count
    np.testing.assert_allclose(back.raw_moments, summary.raw_moments, rtol=0)
    np.testing.assert_array_equal(back.histogram_counts, summary.histogram_counts)
    np.testing.assert_allclose(back.kde_values, summary.kde_values, rtol=0)
    assert back.config == summary.config


def test_summary_single_frame_has_null_ses():
    rng = np.random.default_rng(9)
    summary = empirical.summarize(rng.normal(0, 1, (1, 5)), 1.0, max_order=2)
    assert all(math.isnan(v) for v in summary.moment_ses)
    payload = summary.to_json_dict()
    assert payload["se"]["moments"] == [None, None]
    # and NaN never leaks into strict JSON
    json.dumps(payload, allow_nan=False)


def test_summary_rejects_empty():
    with pytest.raises(ValueError):
        empirical.summarize(np.empty((0, 3)), 1.0)
    # no histogram bin or no KDE point would summarise nothing
    frames = np.zeros((2, 3))
    for kw in ({"bins": 0}, {"kde_points": 0}, {"bins": -1}):
        with pytest.raises(ValueError, match="bins and kde_points"):
            empirical.summarize(frames, 1.0, **kw)


def test_summary_histogram_counts_outside_samples_as_clipped():
    rng = np.random.default_rng(14)
    frames = rng.laplace(0.0, 1.0, (40, 25))
    # a one-point range puts every clipped sample in the last bin
    for lo, hi, bins in ((-0.5, 0.8, 9), (-0.5, 0.8, 1), (0.25, 0.25, 4)):
        summary = empirical.summarize(frames, 1.0, hist_range=(lo, hi), bins=bins)
        expected, _ = np.histogram(np.clip(frames, lo, hi), bins=summary.histogram_edges)
        np.testing.assert_array_equal(summary.histogram_counts, expected)
    # samples on every edge, twice: an inner edge counts in the bin above it,
    # the last edge in the last bin
    edges = np.linspace(-0.5, 0.8, 10)
    summary = empirical.summarize(np.tile(edges, (2, 1)), 1.0, hist_range=(-0.5, 0.8), bins=9)
    np.testing.assert_array_equal(summary.histogram_counts, [2] * 8 + [4])


def test_summary_rejects_a_bad_hist_range(monkeypatch):
    # checked before any sum is formed, with a message that names the range
    started = []
    monkeypatch.setattr(empirical, "_moment_sums", lambda *args: started.append(args))
    frames = np.random.default_rng(15).laplace(0.0, 1.0, (4, 50))
    for hist_range in ((math.nan, 1.0), (-math.inf, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="hist_range"):
            empirical.summarize(frames, 1.0, hist_range=hist_range)
    assert started == []


def test_summary_refuses_a_kde_grid_lost_to_rounding():
    # 8 bandwidths of 0.1 vanish beside 1e307, so the grid would repeat one
    # point; the message names the sample range and the bandwidth
    with pytest.raises(ValueError, match=r"KDE grid .* \[1e\+307, 1e\+307\] .* of 0\.1"):
        empirical.summarize(np.full((2, 3), 1e307), 1.0, hist_range=(1e307, 1e307))


def test_summary_sorts_once_for_the_kde_and_the_ks_statistic(monkeypatch):
    seen = []
    for name in ("kde", "ks_laplace"):
        fn = getattr(empirical, name)

        def recorded(samples, *args, _fn=fn):
            seen.append(samples)
            return _fn(samples, *args)

        monkeypatch.setattr(empirical, name, recorded)
    _, frames = _toy_summary()
    [x, same] = seen
    assert x is same
    np.testing.assert_array_equal(x, np.sort(frames.ravel()))
    # and neither sorts it again
    assert np.shares_memory(empirical._sorted(x), x)
    assert not np.shares_memory(empirical._sorted(frames), frames)


def _pinned_frames():
    return np.random.default_rng(13).laplace(0.0, 0.1 / math.sqrt(2), (10001, 99))


@pytest.mark.parametrize(
    "kw, digest",
    [
        ({}, "bbfd400e91e5296f359cb133bd2abffba35c8fe7322521a446e9383ce0a8e880"),
        ({"hist_range": (-0.05, 0.05), "bins": 41},
         "ce56435ec863344f5de6314385f75c03435dbd1f37a4af67d03cc7ac5fa8e1d2"),
    ],
    ids=["default", "clipped-histogram"],
)
def test_summary_json_matches_pinned_digest(kw, digest):
    summary = empirical.summarize(_pinned_frames(), 0.1, **kw)
    text = json.dumps(summary.to_json_dict(), sort_keys=True, allow_nan=False)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_summary_peak_memory_is_bounded_by_frame_multiples():
    frames = _pinned_frames()
    tracemalloc.start()
    try:
        empirical.summarize(frames, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one sorted copy plus the widest KDE window, or one power or s*x buffer,
    # never both at once: about 1.7 frames. A buffer held across both halves
    # adds up to a frame
    assert peak < 2.0 * frames.nbytes


def _record_threads(monkeypatch, names):
    """Wrap the named empirical functions to log (name, thread id) per call."""
    calls = []
    for name in names:
        fn = getattr(empirical, name)

        def logged(*args, _fn=fn, _name=name, **kwargs):
            calls.append((_name, threading.get_ident()))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(empirical, name, logged)
    return calls


def test_summary_calls_traced_functions_on_the_calling_thread(monkeypatch):
    calls = _record_threads(monkeypatch, ["kde", "ks_laplace", "batch_means_se"])
    _toy_summary(ecf_points=(1.0, 2.0), max_order=3)
    assert sorted({name for name, _ in calls}) == ["batch_means_se", "kde", "ks_laplace"]
    assert len(calls) == 1 + 1 + 3 + 2
    assert {ident for _, ident in calls} == {threading.get_ident()}


def test_summary_checks_max_order_before_any_statistic(monkeypatch):
    calls = _record_threads(monkeypatch, ["kde"])
    threads = threading.active_count()
    with pytest.raises(ValueError, match="max_order"):
        empirical.summarize(np.ones((3, 2)), 1.0, max_order=0)
    assert calls == []
    assert threading.active_count() == threads


def test_summary_reraises_a_moment_sum_failure_and_leaves_no_thread(monkeypatch):
    # a failure in the moment sums reaches the caller, and no thread is left
    def failing(frames, max_order):
        raise RuntimeError("moment sums failed")

    monkeypatch.setattr(empirical, "_moment_sums", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="moment sums failed"):
        _toy_summary()
    assert threading.active_count() == threads


def test_summary_fails_on_a_nan_before_forming_any_sum(monkeypatch):
    sums = _record_threads(monkeypatch, ["_moment_sums", "_ecf_sums"])
    frames = np.zeros((8, 5))
    frames[3, 2] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        empirical.summarize(frames, 1.0)
    assert sums == []


def test_summary_starts_no_thread(monkeypatch):
    seen = []
    ecf_sums = empirical._ecf_sums

    def recorded(*args):
        seen.append((threading.get_ident(), threading.active_count()))
        return ecf_sums(*args)

    monkeypatch.setattr(empirical, "_ecf_sums", recorded)
    caller = threading.get_ident(), threading.active_count()
    _toy_summary()
    assert seen == [caller]


def test_summary_moment_sums_keep_the_callers_errstate():
    # only the sample powers overflow, and the caller's errstate holds there
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            empirical.summarize(np.full((4, 3), 1e200), 0.1)
