"""Statistics of samples: time averages over recorded trajectories.

Every entry of every recorded frame counts as one sample (time and particle
averaging). Raw moments are plain means of the sample powers (numpy's
pairwise sums); standard errors of time averages are estimated by batch means
over frames, which absorbs the autocorrelation of the chain. The analytic
laws the samples are judged against live in ``charfn``.

``summarize`` runs on the calling thread alone. It builds the histogram, the
KDE and the KS statistic, then forms the sample powers and the sines and
cosines of the ECF with their per-frame series, then takes the batch-means
SEs of those series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .charfn import laplace_cdf
from .offsets import check_count, check_scale

_SQRT2PI = math.sqrt(2.0 * math.pi)
# kernel reach in bandwidths, both for the KDE window and for the grid margin
_KDE_REACH = 8.0
# samples per pass of kde's and ks_laplace's elementwise steps: a chunk's
# temporaries stay in cache, and no buffer but the sorted copy and the KDE
# kernel grows with the sample
_CHUNK = 8192


def _moment_sums(frames: np.ndarray, max_order: int) -> list:
    """One (M_j, per-frame mean of x**j) pair for each order j = 1..max_order
    of a (n_frames, width) array. The powers are formed in one array,
    multiplied in place (1.0 * x is x, bit for bit)."""
    check_count(max_order, 1, "max_order")
    if frames.size == 0:
        raise ValueError("moments need at least one sample")
    power = np.ones(frames.shape)
    sums = []
    for _ in range(max_order):
        power *= frames
        sums.append((float(power.sum()) / frames.size, power.mean(axis=1)))
    return sums


def _ecf_sums(frames: np.ndarray, ecf_points) -> list:
    """One ((s, mean cos(s x), mean sin(s x)), per-frame mean of cos(s x))
    pair for each s, over a (n_frames, width) array."""
    # one frame-sized buffer: s*x takes its sine in place, then is formed
    # again (the same product) to take its cosine for the ECF and its SE series
    sx = np.empty_like(frames)
    cosines = []
    for s in ecf_points:
        np.multiply(s, frames, out=sx)
        sin_mean = float(np.sin(sx, out=sx).ravel().mean())
        np.multiply(s, frames, out=sx)
        np.cos(sx, out=sx)
        cosines.append(((float(s), float(sx.mean()), sin_mean), sx.mean(axis=1)))
    return cosines


def accumulate_moments(samples: np.ndarray, max_order: int) -> np.ndarray:
    """Raw moments M_j = mean(x**j), j = 1..max_order, of a sample array."""
    x = np.asarray(samples, dtype=float).reshape(1, -1)
    return np.array([m for m, _ in _moment_sums(x, max_order)])


def kde(samples: np.ndarray, bandwidth: float, grid: np.ndarray) -> np.ndarray:
    """Gaussian kernel density estimate on a grid.

    f(y) = (1/(n h sqrt(2 pi))) sum_i exp(-(y - x_i)^2 / (2 h^2)).

    The kernel is truncated at +-8h: the samples are sorted once (O(n log n))
    and each grid point sums only the slice of samples in [y - 8h, y + 8h],
    found by binary search. Every dropped term is below e^{-32} of the kernel
    peak, so at each grid point |error| <= e^{-32} / (h sqrt(2 pi)). An
    empty sample, NaN samples and NaN grid points are rejected.
    """
    check_scale(bandwidth, "bandwidth")
    grid = np.asarray(grid, dtype=float)
    # a NaN grid point would find an empty window and read 0
    if grid.ndim != 1 or np.isnan(grid).any() or not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be a strictly increasing 1-d array")
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    if x.size == 0:
        raise ValueError("kde needs at least one sample")
    # np.sort puts NaN last, outside every window
    if np.isnan(x[-1]):
        raise ValueError("samples must not contain NaN")
    reach = _KDE_REACH * bandwidth
    starts = np.searchsorted(x, grid - reach, side="left")
    stops = np.searchsorted(x, grid + reach, side="right")
    out = np.empty_like(grid)
    # exp(-0.5 * z * z), z = (y - x) / h, formed chunk by chunk into one
    # kernel buffer as wide as the widest window, then summed over the window
    # at once: the same float steps and the same pairwise sum as one pass
    kernel = np.empty(int((stops - starts).max(initial=0)))
    z = np.empty(min(_CHUNK, kernel.size))
    for k, (y, a, b) in enumerate(zip(grid, starts, stops)):
        for c in range(a, b, _CHUNK):
            e = min(c + _CHUNK, b)
            zc, w = z[: e - c], kernel[c - a : e - a]
            np.subtract(y, x[c:e], out=zc)
            zc /= bandwidth
            np.multiply(-0.5, zc, out=w)
            w *= zc
            np.exp(w, out=w)
        out[k] = kernel[: b - a].sum()
    return out / (x.size * bandwidth * _SQRT2PI)


def empirical_cf(samples: np.ndarray, s: float) -> tuple[float, float]:
    """Empirical characteristic function at s: (mean cos(s x), mean sin(s x))."""
    x = np.asarray(samples, dtype=float).reshape(1, -1)
    if x.size == 0:
        raise ValueError("empirical_cf needs at least one sample")
    [((_, re, im), _)] = _ecf_sums(x, (s,))
    return re, im


def ks_laplace(samples: np.ndarray, sigma: float) -> float:
    """Kolmogorov-Smirnov statistic against the Laplace law with variance sigma^2."""
    check_scale(sigma, "sigma")
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    if x.size == 0:
        raise ValueError("ks_laplace needs at least one sample")
    n = x.size
    # per chunk of sorted samples, the largest gaps between the Laplace CDF
    # and the empirical CDF's steps i/n and (i - 1)/n; np.max of the chunk
    # maxima keeps a NaN, which Python's max may drop
    maxima = []
    for a in range(0, n, _CHUNK):
        b = min(a + _CHUNK, n)
        cdf = laplace_cdf(x[a:b], sigma)
        steps = np.arange(a, b + 1) / n
        maxima.append((steps[1:] - cdf).max())
        maxima.append((cdf - steps[:-1]).max())
    return float(np.max(maxima))


def batch_means_se(series: np.ndarray) -> float:
    """Standard error of the mean of an autocorrelated series via batch means.

    Splits the series into ~sqrt(len) batches; returns NaN when the series is
    too short to form two batches.
    """
    y = np.asarray(series, dtype=float).ravel()
    n_batches = int(math.isqrt(y.size))
    if n_batches < 2:
        return float("nan")
    width = y.size // n_batches
    means = y[: n_batches * width].reshape(n_batches, width).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


def finite_or_none(v):
    """``v``, or None (JSON null) for a float that is not finite."""
    return None if isinstance(v, float) and not math.isfinite(v) else v


@dataclass
class EmpiricalSummary:
    """Bundle of time-averaged statistics of one observable of one run."""

    sample_count: int
    raw_moments: list[float]
    moment_ses: list[float]
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray
    kde_grid: np.ndarray
    kde_values: np.ndarray
    ecf: list[tuple[float, float, float]]  # (s, re, im)
    ecf_ses: list[float]
    ks_laplace: float
    config: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "sample_count": self.sample_count,
            "moments": [finite_or_none(m) for m in self.raw_moments],
            "histogram": {
                "edges": self.histogram_edges.tolist(),
                "counts": self.histogram_counts.tolist(),
            },
            "kde": {"grid": self.kde_grid.tolist(), "values": self.kde_values.tolist()},
            "ecf": [{"s": s, "re": re, "im": im} for s, re, im in self.ecf],
            "ks_laplace": finite_or_none(self.ks_laplace),
            "se": {
                "moments": [finite_or_none(v) for v in self.moment_ses],
                "ecf": [finite_or_none(v) for v in self.ecf_ses],
            },
            "config": self.config,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EmpiricalSummary":
        """The summary that ``to_json_dict`` wrote. A statistic that is not a
        number, or a moment or ECF value without its SE, raises
        ``ValueError``; a missing key raises ``KeyError``."""

        def numbers(values, key, null=float("nan")):
            # a null moment, SE or KS value reads as NaN; an ECF value has no
            # null. JSON true and false read as bools, which are ints too
            values = [null if v is None else v for v in values]
            for v in values:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ValueError(f"{key} value {v!r} is not a number")
            return values

        summary = cls(
            sample_count=data["sample_count"],
            raw_moments=numbers(data["moments"], "moments"),
            moment_ses=numbers(data["se"]["moments"], "se.moments"),
            histogram_edges=np.asarray(data["histogram"]["edges"], dtype=float),
            histogram_counts=np.asarray(data["histogram"]["counts"], dtype=np.int64),
            kde_grid=np.asarray(data["kde"]["grid"], dtype=float),
            kde_values=np.asarray(data["kde"]["values"], dtype=float),
            ecf=[tuple(numbers((p["s"], p["re"], p["im"]), "ecf", None)) for p in data["ecf"]],
            ecf_ses=numbers(data["se"]["ecf"], "se.ecf"),
            ks_laplace=numbers([data["ks_laplace"]], "ks_laplace")[0],
            config=data.get("config", {}),
        )
        ses = (len(summary.moment_ses), len(summary.ecf_ses))
        if ses != (len(summary.raw_moments), len(summary.ecf)):
            raise ValueError("every moment and ECF value needs its SE")
        return summary


def summarize(
    frames: np.ndarray,
    sigma: float,
    *,
    max_order: int = 8,
    ecf_points: tuple[float, ...] = (5.0, 10.0, 20.0, 40.0),
    bins: int = 201,
    hist_range: tuple[float, float] | None = None,
    bandwidth: float | None = None,
    kde_points: int = 201,
    config: dict | None = None,
) -> EmpiricalSummary:
    """Summarise a (n_frames, width) array of recorded observable frames.

    The histogram spans +-6 sigma by default; samples outside count in the
    boundary bins, as if clipped to the range, so the counts always total the
    sample count. The KDE grid is widened to cover all samples plus 8
    bandwidths, so the estimated density carries all its mass inside the grid
    span (the same 8-bandwidth reach at which kde truncates its kernel).

    Everything runs on the calling thread, in this order: the argument
    checks; the histogram, the KDE grid, the KDE and the KS statistic; the
    sample powers and the ECF's sines and cosines with their per-frame
    series; the batch-means SEs of those series. So a NaN sample fails in
    kde before any power or ECF sum is formed.
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=float))
    if frames.size == 0:
        raise ValueError("summarize needs at least one frame")
    check_scale(sigma, "sigma")
    check_count(max_order, 1, "max_order")
    for count in (bins, kde_points):
        check_count(count, 1, "bins and kde_points")
    h = 0.1 * sigma if bandwidth is None else bandwidth
    check_scale(h, "bandwidth")
    lo, hi = (-6.0 * sigma, 6.0 * sigma) if hist_range is None else hist_range
    # a one-point range is legal: every sample counts in one bin
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"hist_range must be two finite numbers, lo <= hi, got {hist_range!r}")
    flat = frames.ravel()

    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(flat, bins=edges)
    # a sample outside the range counts where the range end it is clipped to
    # counts: the first or the last bin. Every edge of a one-point range is
    # lo, which np.histogram counts in the last bin
    counts[0 if lo < hi else -1] += np.count_nonzero(flat < lo)
    counts[-1] += np.count_nonzero(flat > hi)

    grid = np.linspace(
        min(lo, float(flat.min()) - _KDE_REACH * h),
        max(hi, float(flat.max()) + _KDE_REACH * h),
        kde_points,
    )
    values = kde(flat, h, grid)
    ks = ks_laplace(flat, sigma)
    moments = _moment_sums(frames, max_order)
    cosines = _ecf_sums(frames, ecf_points)

    return EmpiricalSummary(
        sample_count=int(flat.size),
        raw_moments=[m for m, _ in moments],
        moment_ses=[batch_means_se(series) for _, series in moments],
        histogram_edges=edges,
        histogram_counts=counts.astype(np.int64),
        kde_grid=grid,
        kde_values=values,
        ecf=[point for point, _ in cosines],
        ecf_ses=[batch_means_se(series) for _, series in cosines],
        ks_laplace=ks,
        config=dict(config or {}),
    )
