import hashlib
import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from turnover import offsets, simulator
from turnover.empirical import batch_means_se


def _draw(rng, n, dist, count):
    """Moves (i, j, delta) in a generator's order: the indices of
    ``draw_moves``, then the offsets."""
    ii, jj = simulator.draw_moves(rng, n, count)
    return ii, jj, dist.sample(rng, count)


def _stream(seed, n, dist, count, block=None):
    """The first ``count`` moves of the block stream: block k is drawn whole
    from its own generator, keyed by (seed, k)."""
    block = block or simulator.LINEAGE_BLOCK
    parts = [
        _draw(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,))), n, dist, block)
        for k in range(-(-count // block))
    ]
    return [np.concatenate(v)[:count] for v in zip(*parts)] if parts else [np.empty(0)] * 3


def _initial(config):
    """The initial positions, drawn from the seed's own generator."""
    rng = np.random.default_rng(config.seed)
    n = config.n_particles
    if config.init == "iid_gaussian":
        return (rng.standard_normal(n) * config.init_scale).tolist()
    if config.init == "iid_uniform":
        half = math.sqrt(3.0) * config.init_scale
        return rng.uniform(-half, half, n).tolist()
    return [0.0] * n


def test_run_matches_straight_line_reimplementation():
    # replay the same move stream through an independent update rule
    dist = offsets.two_point(1.0)
    config = simulator.SimConfig(
        n_particles=4, offsets=dist, steps=10, burn_in=0, seed=42, thin=1
    )
    trajectory = simulator.run(config)

    ii, jj, dd = _stream(42, 4, dist, 10)
    x = [0.0, 0.0, 0.0, 0.0]
    reference = [list(x)]
    for i, j, d in zip(ii, jj, dd):
        x = list(x)
        x[i] = x[j] + d
        reference.append(list(x))
    np.testing.assert_array_equal(trajectory.positions, np.asarray(reference))
    np.testing.assert_array_equal(trajectory.times, np.arange(11))


def test_sample_pair_always_distinct():
    rng = np.random.default_rng(0)
    ii, jj = simulator.draw_moves(rng, 2, 200)
    for i, j in zip(ii.tolist(), jj.tolist()):
        assert {i, j} == {0, 1}


def test_sample_pair_frequencies_two_particles():
    rng = np.random.default_rng(1)
    n = 100_000
    ii, jj = simulator.draw_moves(rng, 2, n)
    count01 = int(np.count_nonzero((ii == 0) & (jj == 1)))
    se = math.sqrt(0.25 / n)
    assert abs(count01 / n - 0.5) < 4 * se


def test_sample_pair_frequencies_five_particles():
    rng = np.random.default_rng(2)
    n = 1_000_000
    ii, jj = simulator.draw_moves(rng, 5, n)
    assert np.all(ii != jj)
    codes = ii * 5 + jj
    counts = np.bincount(codes, minlength=25).reshape(5, 5)
    assert np.all(np.diag(counts) == 0)
    p = 1.0 / 20.0
    se = math.sqrt(p * (1 - p) / n)
    off_diag = counts[~np.eye(5, dtype=bool)] / n
    assert np.all(np.abs(off_diag - p) < 4 * se)


def test_renormalise_examples():
    out = simulator.renormalise(np.array([1.0, 3.0]))
    np.testing.assert_allclose(out, [-1 / math.sqrt(2), 1 / math.sqrt(2)], rtol=1e-15)
    np.testing.assert_array_equal(simulator.renormalise(np.ones(4)), np.zeros(4))
    rng = np.random.default_rng(3)
    x = rng.normal(5.0, 2.0, 17)
    xbar = simulator.renormalise(x)
    assert abs(xbar.sum()) <= 1e-12 * 17 * np.abs(xbar).max()


def test_distance_row_examples():
    np.testing.assert_allclose(
        simulator.distance_row(np.array([1.0, 0.0, -1.0])), [1.0, 2.0]
    )
    np.testing.assert_array_equal(
        simulator.distance_row(np.full(5, 2.5)), np.zeros(4)
    )


def test_distance_row_translation_invariant():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, 8)
    a = simulator.distance_row(simulator.renormalise(x))
    b = simulator.distance_row(simulator.renormalise(x + 17.3))
    np.testing.assert_allclose(a, b, atol=1e-12)


def reconstruct_first(row):
    """Recover xbar[0] as the sum of its distance row divided by n: the
    renormalised positions sum to zero."""
    row = np.asarray(row, dtype=float)
    n = row.shape[-1] + 1
    return row.sum(axis=-1) / n


def test_reconstruct_first_examples():
    assert reconstruct_first(np.array([1.0, 2.0])) == pytest.approx(1.0)
    assert reconstruct_first(np.zeros(9)) == 0.0


def test_reconstruct_first_round_trip():
    rng = np.random.default_rng(5)
    xbar = simulator.renormalise(rng.normal(0, 1, 10))
    row = simulator.distance_row(xbar)
    assert reconstruct_first(row) == pytest.approx(xbar[0], rel=1e-12, abs=1e-15)


def test_run_zero_steps_records_initial_state_only():
    config = simulator.SimConfig(
        n_particles=3, offsets=offsets.gaussian(1.0), steps=0, burn_in=0, seed=0
    )
    trajectory = simulator.run(config)
    assert trajectory.n_frames == 1
    np.testing.assert_array_equal(trajectory.positions, np.zeros((1, 3)))


def test_run_deterministic_given_seed():
    config = simulator.SimConfig(
        n_particles=5, offsets=offsets.uniform(0.3), steps=500, burn_in=20, seed=99, thin=7
    )
    a = simulator.run(config)
    b = simulator.run(config)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.times, b.times)


def test_run_thinning_schedule():
    config = simulator.SimConfig(
        n_particles=3, offsets=offsets.gaussian(1.0), steps=10, burn_in=4, seed=1, thin=3
    )
    trajectory = simulator.run(config)
    np.testing.assert_array_equal(trajectory.times, [4, 7, 10, 13])


def test_consecutive_frames_differ_in_one_raw_coordinate():
    config = simulator.SimConfig(
        n_particles=6, offsets=offsets.gaussian(0.5), steps=50, burn_in=0, seed=6, thin=1
    )
    trajectory = simulator.run(config)
    for prev, cur in zip(trajectory.positions, trajectory.positions[1:]):
        assert np.count_nonzero(prev != cur) <= 1  # a jump can land in place


def test_zero_sum_after_every_step():
    config = simulator.SimConfig(
        n_particles=7, offsets=offsets.gaussian(1.0), steps=200, burn_in=0, seed=7, thin=1
    )
    xbar = simulator.run(config).renormalised()
    scale = np.abs(xbar).max() * 7
    assert np.all(np.abs(xbar.sum(axis=1)) <= 1e-12 * max(scale, 1.0))


def step_distance_row(row, i, j, delta_scaled):
    """Advance the distance row directly, given the move (i, j) and the
    already-scaled offset delta/sqrt(n).

    Mirrors the single-coordinate jump: with the same move sequence it
    reproduces ``distance_row(renormalise(...))`` applied to the evolving
    positions (exactly so when all quantities are dyadic).
    """
    row = np.asarray(row, dtype=float)
    new = row.copy()
    if i == 0:
        # particle 0 jumps next to j: every distance is measured from its
        # new position x[j] + delta
        d0j = row[j - 1]
        new = row - d0j + delta_scaled
        new[j - 1] = delta_scaled
    elif j == 0:
        new[i - 1] = -delta_scaled
    else:
        new[i - 1] = row[j - 1] - delta_scaled
    return new


def _evolve_rows_directly(config):
    """Distance rows via the direct row update, replaying the same stream."""
    n = config.n_particles
    root = math.sqrt(n)
    total = config.resolved_burn_in + config.steps
    ii, jj, dd = _stream(config.seed, n, config.offsets, total)
    row = np.zeros(n - 1)
    rows = [row]
    for i, j, d in zip(ii, jj, dd):
        row = step_distance_row(row, int(i), int(j), d / root)
        rows.append(row)
    return np.asarray(rows)


def test_distance_dynamics_equivalence_exact_on_dyadics():
    # n=4 and unit two-point offsets keep every quantity dyadic, so the two
    # routes to the distance rows agree bitwise
    config = simulator.SimConfig(
        n_particles=4, offsets=offsets.two_point(1.0), steps=200, burn_in=0, seed=8, thin=1
    )
    via_positions = simulator.run(config).distance_rows()
    direct = _evolve_rows_directly(config)
    np.testing.assert_array_equal(via_positions, direct)


def test_distance_dynamics_equivalence_general():
    config = simulator.SimConfig(
        n_particles=7, offsets=offsets.gaussian(0.8), steps=300, burn_in=0, seed=9, thin=1
    )
    via_positions = simulator.run(config).distance_rows()
    direct = _evolve_rows_directly(config)
    np.testing.assert_allclose(via_positions, direct, atol=1e-12)


def test_anticorrelation_of_renormalised_pairs():
    # E[xbar_k xbar_l] = -E[xbar_k^2]/(n-1) for k != l
    config = simulator.SimConfig(
        n_particles=10,
        offsets=offsets.gaussian(0.5),
        steps=400_000,
        burn_in=10_000,
        seed=10,
        thin=10,
    )
    xbar = simulator.run(config).renormalised()
    series = xbar[:, 0] * xbar[:, 1] + xbar[:, 0] ** 2 / 9.0
    se = batch_means_se(series)
    assert abs(series.mean()) < 4 * se


def test_exchangeability_of_marginal_moments():
    config = simulator.SimConfig(
        n_particles=10,
        offsets=offsets.gaussian(0.5),
        steps=400_000,
        burn_in=10_000,
        seed=12,
        thin=10,
    )
    xbar = simulator.run(config).renormalised()
    diff = xbar[:, 0] ** 2 - xbar[:, 1] ** 2
    se = batch_means_se(diff)
    assert abs(diff.mean()) < 4 * se


def test_config_validation():
    dist = offsets.gaussian(1.0)
    with pytest.raises(ValueError):
        simulator.SimConfig(n_particles=1, offsets=dist, steps=1)
    with pytest.raises(ValueError):
        simulator.SimConfig(n_particles=2, offsets=dist, steps=-1)
    with pytest.raises(ValueError):
        simulator.SimConfig(n_particles=2, offsets=dist, steps=1, thin=0)
    with pytest.raises(ValueError):
        simulator.SimConfig(n_particles=2, offsets=dist, steps=1, init="point")
    for scale in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="init_scale"):
            simulator.SimConfig(
                n_particles=2, offsets=dist, steps=1, init="iid_gaussian", init_scale=scale
            )
    # numpy's uniform draw needs its range 2 * sqrt(3) * init_scale to be finite
    for scale in (6e307, 1e308):
        with pytest.raises(ValueError, match="init_scale"):
            simulator.SimConfig(
                n_particles=2, offsets=dist, steps=1, init="iid_uniform", init_scale=scale
            )
    wide = simulator.SimConfig(
        n_particles=2, offsets=dist, steps=0, burn_in=0, init="iid_uniform", init_scale=5e307
    )
    assert np.all(np.isfinite(simulator.run(wide).positions))
    # the gaussian draw has no finite range: run refuses a position that
    # overflows, before the chain runs and with no numpy warning
    wild = simulator.SimConfig(
        n_particles=50, offsets=dist, steps=1, burn_in=0, init="iid_gaussian", init_scale=1e308
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="init_scale 1e\\+308 .* not finite"):
            simulator.run(wild)
    config = simulator.SimConfig(n_particles=12, offsets=dist, steps=1)
    assert config.resolved_burn_in == 1200


def test_iid_inits_draw_before_moves():
    for init in ("iid_gaussian", "iid_uniform"):
        config = simulator.SimConfig(
            n_particles=4,
            offsets=offsets.gaussian(1.0),
            steps=0,
            burn_in=0,
            seed=13,
            init=init,
            init_scale=2.0,
        )
        frame = simulator.run(config).positions[0]
        assert np.any(frame != 0.0)
        if init == "iid_uniform":
            assert np.all(np.abs(frame) <= 2.0 * math.sqrt(3.0))


def test_trajectory_observable_names():
    config = simulator.SimConfig(
        n_particles=3, offsets=offsets.gaussian(1.0), steps=5, burn_in=0, seed=1, thin=1
    )
    trajectory = simulator.run(config)
    assert trajectory.observable("raw").shape == (6, 3)
    assert trajectory.observable("positions").shape == (6, 3)
    assert trajectory.observable("distances").shape == (6, 2)
    with pytest.raises(ValueError):
        trajectory.observable("velocities")


def test_centred_run_refuses_the_raw_observable():
    config = simulator.SimConfig(
        n_particles=3, offsets=offsets.gaussian(1.0), steps=5, burn_in=0, seed=1, thin=1
    )
    trajectory = simulator.run(config, centred=True)
    assert trajectory.observable("distances").shape == (6, 2)
    with pytest.raises(ValueError, match="raw"):
        trajectory.observable("raw")


def _replay(config, block=None):
    """Times and frames of ``config`` by a straight-line replay that applies
    every move of the block stream, with blocks of ``block`` moves. Also, per
    frame, the most additions on any particle's lineage since step 0, and the
    largest |x| the replay wrote."""
    n = config.n_particles
    burn_in = config.resolved_burn_in
    times = list(range(burn_in, burn_in + config.steps + 1, config.thin))
    x = _initial(config)
    depth = [0] * n
    top = max(map(abs, x))
    ii, jj, dd = (v.tolist() for v in _stream(config.seed, n, config.offsets, times[-1], block))
    frames, depths = [], []
    a = 0
    for b in times:
        for i, j, d in zip(ii[a:b], jj[a:b], dd[a:b]):
            x[i] = v = x[j] + d
            depth[i] = depth[j] + 1
            if abs(v) > top:
                top = abs(v)
        frames.append(list(x))
        depths.append(max(depth))
        a = b
    return np.asarray(times), np.asarray(frames).reshape(len(times), n), depths, top


def _replay_case(burn_in, steps, thin, n=4, chunk=5, short=None):
    # chunk: the stream's block size, LINEAGE_BLOCK
    tail = "" if (n, chunk) == (4, 5) else f"-n{n}-chunk{chunk}"
    tail += f"-short{short}" if short else ""
    return pytest.param(
        burn_in, steps, thin, n, chunk, short, id=f"{burn_in}-{steps}-{thin}{tail}"
    )


@pytest.mark.parametrize(
    "burn_in, steps, thin, n, chunk, short",
    [
        _replay_case(10, 20, 5),  # every frame falls on a block seam
        _replay_case(3, 17, 4),  # frames fall inside blocks
        _replay_case(0, 12, 1),  # the initial state is a frame, then every step
        _replay_case(0, 9, 7),  # a tail of steps after the last frame
        _replay_case(0, 0, 1),  # no steps at all
        _replay_case(7, 0, 3),  # burn-in only
        # gaps of at least n**2 moves, where only lineage moves are applied
        _replay_case(64, 192, 64, 3, 64),  # every frame falls on a block seam
        _replay_case(10, 200, 30, 3, 64),  # frames fall inside blocks
        _replay_case(100, 0, 1, 2, 64),  # burn-in only, across a block seam
        _replay_case(0, 150, 70, 2, 64),  # a tail of steps after the last frame
        _replay_case(0, 0, 1, 2, 64),  # no steps at all
        _replay_case(100, 60, 2, 3, 64),  # a long burn-in, then gaps under n**2
        _replay_case(3, 252, 4, 2, 64),  # a burn-in of n**2 - 1, then gaps of n**2
        # gaps of at least short * n moves but under n**2, cut down by the
        # short-gap rule, with the lineages followed in numpy steps
        _replay_case(0, 200, 20, 8, 64, short=2),  # frames fall inside blocks
        _replay_case(5, 300, 30, 6, 64, short=3),  # gaps under 3 n at the seams
        # hundreds of blocks of 7 moves: every gap applied whole at n = 5, most
        # cut down at n = 2
        _replay_case(3, 3000, 9, 5, 7),
        _replay_case(3, 3000, 9, 2, 7),
    ],
)
def test_run_matches_chunked_replay(monkeypatch, burn_in, steps, thin, n, chunk, short):
    monkeypatch.setattr(simulator, "LINEAGE_BLOCK", chunk)
    monkeypatch.setattr(simulator, "LINEAGE_MIN_PARTICLES", 2)
    if short:
        monkeypatch.setattr(simulator, "SHORT_GAP_PARTICLES", 2)
        monkeypatch.setattr(simulator, "SHORT_GAP", short)
        monkeypatch.setattr(simulator, "FRONTIER_WIDTH", 2)
    config = simulator.SimConfig(
        n_particles=n,
        offsets=offsets.gaussian(1.0),
        steps=steps,
        burn_in=burn_in,
        seed=21,
        thin=thin,
    )
    trajectory = simulator.run(config)
    times, frames, _, _ = _replay(config, chunk)
    np.testing.assert_array_equal(trajectory.times, times)
    np.testing.assert_array_equal(trajectory.positions, frames)
    assert trajectory.times.dtype == np.int64
    assert trajectory.moves_applied <= min(burn_in + steps, times[-1])
    if short:
        assert trajectory.moves_applied < times[-1]
    if burn_in + steps > chunk:
        # the block size is part of the stream: one block of the whole run differs
        _, unchunked, _, _ = _replay(config, burn_in + steps)
        assert not np.array_equal(trajectory.positions, unchunked)


@pytest.mark.parametrize(
    "n, kind, thin",
    [(3, "gaussian", 40), (8, "uniform", 40), (64, "two_point", 4096)],
)
def test_raw_frames_do_not_depend_on_the_cut_rule_or_thin(monkeypatch, n, kind, thin):
    # a move is a function of (seed, step) alone, so which gaps are cut, how
    # often frames are taken and how long the run is change no raw frame
    monkeypatch.setattr(simulator, "LINEAGE_BLOCK", 64)
    dist = offsets.OffsetDistribution(kind, 1.0)

    def run(every, steps, min_particles, short_particles):
        monkeypatch.setattr(simulator, "LINEAGE_MIN_PARTICLES", min_particles)
        monkeypatch.setattr(simulator, "SHORT_GAP_PARTICLES", short_particles)
        config = simulator.SimConfig(n, dist, steps, burn_in=every, seed=5, thin=every)
        return simulator.run(config)

    steps = 12 * thin
    whole = run(1, steps, 10**9, 10**9)  # every move applied, every step a frame
    assert whole.moves_applied == steps + 1
    frames = dict(zip(whole.times.tolist(), whole.positions))
    for every, min_particles, short_particles in (
        (thin, 2, 10**9), (thin, 2, 2), (3 * thin, 2, 2), (2 * thin, 10**9, 2),
    ):
        trajectory = run(every, steps - every, min_particles, short_particles)
        for t, frame in zip(trajectory.times.tolist(), trajectory.positions):
            np.testing.assert_array_equal(frame, frames[t])
        cut = n >= min_particles and (
            every >= n * n or (n >= short_particles and every >= simulator.SHORT_GAP * n)
        )
        assert (trajectory.moves_applied < steps) is cut


@pytest.mark.parametrize("kind", ["gaussian", "uniform", "two_point"])
@pytest.mark.parametrize("n", [64, 100, 256])
def test_centred_frames_equal_the_full_loop_within_rounding(monkeypatch, n, kind):
    # gaps of 4 n**2, so that most walks stop once one lineage is left, and
    # small blocks, so that they stop soon after
    monkeypatch.setattr(simulator, "LINEAGE_BLOCK", 1024)
    gap = 4 * n * n
    config = simulator.SimConfig(
        n_particles=n, offsets=offsets.OffsetDistribution(kind, 0.5), steps=2 * gap,
        burn_in=gap, seed=17, thin=gap, init="iid_gaussian",
    )
    trajectory = simulator.run(config, centred=True)
    assert trajectory.coalesced.all()
    assert trajectory.moves_applied < simulator.run(config).moves_applied
    _, frames, depths, top = _replay(config)
    # A centred run's value is the full loop's plus a shift shared by its
    # frame, up to rounding: the two add the same offsets, left to right, to
    # values that differ by the shift, and each addition rounds by at most
    # half an ulp. Every value either run writes is at most M = the full
    # loop's largest |x| plus the largest shift (taken at twice that, as the
    # shift is read off the frames). So a value at a frame whose lineages hold
    # at most L additions since step 0 is off by at most L ulps of M. Each
    # run's mean of n such values rounds by at most n ulps, and its
    # subtraction by one, so a centred value differs by at most
    # (2L + 2n + 4) ulps of M over sqrt(n), and a distance by twice that and
    # the ulp of its own subtraction.
    shift = max(abs(float(np.mean(c - f))) for c, f in zip(trajectory.positions, frames))
    ulp = np.spacing(2 * (top + shift))
    for centred, full, depth in zip(trajectory.positions, frames, depths):
        tol = (2 * depth + 2 * n + 4) * ulp / math.sqrt(n)
        got, want = simulator.renormalise(centred), simulator.renormalise(full)
        assert np.abs(got - want).max() <= tol
        gap_row = simulator.distance_row(got) - simulator.distance_row(want)
        assert np.abs(gap_row).max() <= 2 * tol + ulp


def test_centred_run_counts_coalesced_frames():
    # at n = 64, the lineages of a frame coalesce within 6 n**2 moves with
    # probability about 1 - 3 exp(-12)
    gap = 6 * 64 * 64
    config = simulator.SimConfig(
        n_particles=64, offsets=offsets.gaussian(0.1), steps=4 * gap, burn_in=gap,
        seed=3, thin=gap,
    )
    centred = simulator.run(config, centred=True)
    assert centred.coalesced.tolist() == [True] * 5
    raw = simulator.run(config)
    assert not raw.coalesced.any()
    np.testing.assert_allclose(centred.distance_rows(), raw.distance_rows(), atol=1e-12)


def _backward_scan(ii, jj, a, b, n):
    """Moves in [a, b) a brute-force backward scan keeps: a move is kept iff
    its jumper is live, and then the jumper dies and the target lives."""
    live = set(range(n))
    kept = []
    for m in range(b - 1, a - 1, -1):
        if ii[m] in live:
            kept.append(m)
            live.discard(ii[m])
            live.add(jj[m])
    return kept[::-1]


def _walk(ii, jj, a, b, n, block):
    """The moves in [a, b) that ``lineage_moves`` keeps, walking the gap back
    ``block`` moves at a time from every particle at b."""
    live = np.ones(n, dtype=bool)
    kept = []
    for hi in range(b, a, -block):
        moves, live = simulator.lineage_moves(ii, jj, max(a, hi - block), hi, live)
        kept.append(moves)
    return np.concatenate(kept[::-1]) if kept else np.empty(0, dtype=np.intp)


@pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 300, 2000])
def test_lineage_moves_equal_a_backward_scan(monkeypatch, n):
    rng = np.random.default_rng(40 + n)
    dist = offsets.gaussian(1.0)
    # every lineage by bisection, every one in numpy steps, and frontiers that
    # start wide and end narrow
    widths = (10**9, 1, max(2, n // 3))
    for _ in range(30 if n < 64 else 4):
        # gaps up to about 16 n at the larger n, where the numpy step runs
        size = int(rng.integers(1, 400 if n < 64 else 16 * n + 2))
        ii, jj, dd = _draw(rng, n, dist, size)
        a, b = sorted(rng.integers(0, size + 1, 2).tolist())
        expected = _backward_scan(ii.tolist(), jj.tolist(), a, b, n)
        for block in (1, 7, 1 << 16):
            if block == 1 and b - a > 4000:
                continue  # a block per move: slow, and covered at the shorter gaps
            for width in widths:
                monkeypatch.setattr(simulator, "FRONTIER_WIDTH", width)
                kept = _walk(ii, jj, a, b, n, block)
                # equality, not a superset: every skipped write is really unread
                assert kept.tolist() == expected, f"block {block}, width {width}"
        # the kept moves alone carry the state at a to the state at b
        start = rng.standard_normal(n).tolist()
        full, part = list(start), list(start)
        for i, j, d in zip(ii[a:b].tolist(), jj[a:b].tolist(), dd[a:b].tolist()):
            full[i] = full[j] + d
        for m in expected:
            part[ii[m]] = part[jj[m]] + dd[m]
        assert part == full


@pytest.mark.parametrize(
    "kind, n, steps, burn_in, thin, init, digest",
    [
        (
            "gaussian", 5, 3000, 50, 7, "all_zero",
            "681aeb5da6c691b05612b395138e41a94a65d67230295b7eef020d5f85aa67c8",
        ),
        (
            "uniform", 7, 2000, 0, 3, "iid_uniform",
            "498049c16889f90cf4c1513f3de0822d35317d310b37fe582e3c430940b778ab",
        ),
        (
            "two_point", 6, 2500, 100, 11, "iid_gaussian",
            "e33799690e07ad55a0ee739e8b5ffb94b7a06c51a69d63e56be1002215cdb427",
        ),
        # longer than one block, so the block seams are pinned too
        (
            "two_point", 50, 1_200_000, 0, 100_003, "all_zero",
            "916381c034cf93ae2a8bc0c29f96d18927e327e605780e429a4e82e1448bce15",
        ),
        # gaps of at least n**2 moves across block seams, so only lineage
        # moves are applied
        (
            "gaussian", 100, 1_300_000, 20_000, 250_001, "iid_gaussian",
            "ca12b9919c0317ebd470b805faa313ad511297b26f20478e237bd8a7f6bf100b",
        ),
        # n = 2**16: gaps of 10.7 n, far under n**2, so they are cut down only
        # by the short-gap rule
        (
            "uniform", 65_536, 1_400_002, 0, 700_001, "iid_uniform",
            "baccc709b1769ea4f2a22342d4a2564d57fc3d5dce433cfc1ad9839f4bac0630",
        ),
    ],
)
def test_run_trajectory_digest(kind, n, steps, burn_in, thin, init, digest):
    # pins every bit of the recorded trajectories across engine changes. Each
    # digest was taken from ``_replay``, which applies every move
    config = simulator.SimConfig(
        n_particles=n,
        offsets=offsets.OffsetDistribution(kind, 0.1),
        steps=steps,
        burn_in=burn_in,
        seed=2024,
        thin=thin,
        init=init,
        init_scale=0.5,
    )
    trajectory = simulator.run(config)
    h = hashlib.sha256(trajectory.positions.tobytes())
    h.update(trajectory.times.tobytes())
    assert h.hexdigest() == digest
    if n >= simulator.LINEAGE_MIN_PARTICLES:
        # these runs' gaps are all long enough to be cut down
        assert trajectory.moves_applied < burn_in + steps


def _traced_peak(config):
    tracemalloc.start()
    try:
        trajectory = simulator.run(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return trajectory, peak


def test_run_memory_is_bounded_by_the_output():
    # long runs hold the recorded frames and a few blocks, not Python objects
    # per recorded value. thin = 10 applies every move; thin = n**2 applies
    # only lineage moves; gaps of four blocks are walked back a block at a time
    size = simulator.LINEAGE_BLOCK
    for thin, steps, n_frames in (
        (10, 200_000, 20_001), (10_000, 200_000, 21), (4 * size, 12 * size, 4),
    ):
        config = simulator.SimConfig(
            n_particles=100,
            offsets=offsets.gaussian(0.1),
            steps=steps,
            burn_in=0,
            seed=22,
            thin=thin,
        )
        trajectory, peak = _traced_peak(config)
        assert trajectory.n_frames == n_frames
        if thin >= 100 * 100:
            assert trajectory.moves_applied < steps // 10
        # a block takes 10 B a move, and a draw's int64 indices take 8 B a
        # move more until they are narrowed
        budget = trajectory.positions.nbytes + 4 * size * 8
        assert peak < budget, f"thin={thin}: traced peak {peak} B over budget {budget} B"


def test_run_frees_a_walked_block_before_the_one_after_next(monkeypatch):
    # gaps of two blocks, each walked back a block at a time: each block must
    # be freed by the time the one after next is drawn
    size = simulator.LINEAGE_BLOCK
    draw = simulator.draw_moves
    entries = []  # traced memory at each draw's entry

    def draw_moves(*args):
        entries.append(tracemalloc.get_traced_memory()[0])
        return draw(*args)

    monkeypatch.setattr(simulator, "draw_moves", draw_moves)
    config = simulator.SimConfig(
        n_particles=100,
        offsets=offsets.gaussian(0.1),
        steps=8 * size,
        burn_in=0,
        seed=22,
        thin=2 * size,
    )
    simulator.run(config)  # warm-up: one-time allocations stay out of the trace
    entries.clear()
    tracemalloc.start()
    try:
        trajectory = simulator.run(config)
    finally:
        tracemalloc.stop()
    assert trajectory.n_frames == 5
    assert trajectory.moves_applied < size
    assert len(entries) == 8
    # the block being chased takes 10 B a move
    growth = max(entries[1:]) - entries[0]
    assert growth < 12 * size, f"{growth / size:.1f} B a move kept across draws"


@pytest.mark.parametrize(
    "n, dtype", [(2, np.uint8), (256, np.uint8), (257, np.uint16), (65_537, np.uint32)]
)
def test_draw_moves_indices_are_narrow_and_equal_an_int64_replay(n, dtype):
    dist = offsets.gaussian(0.1)
    ii, jj, dd = _draw(np.random.default_rng(5), n, dist, 10_000)
    # the narrowest unsigned type that holds n-1
    assert ii.dtype == jj.dtype == np.dtype(dtype)
    rng = np.random.default_rng(5)
    ref_i = rng.integers(0, n, size=10_000)
    ref_j = rng.integers(0, n - 1, size=10_000)
    ref_j += ref_j >= ref_i
    np.testing.assert_array_equal(ii.astype(np.int64), ref_i)
    np.testing.assert_array_equal(jj.astype(np.int64), ref_j)
    np.testing.assert_array_equal(dd, dist.sample(rng, 10_000))


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("gaussian", "a22c2326dd5a4faf1915ea1018c132ed191d5fbb6dd82cbae3c57d39bcae6f00"),
        ("uniform", "e69c6534800dd62366e2af9012c83ef48bea91e5857bbc9b85b3e161103f7f5b"),
        ("two_point", "52f8679990e457b7320ae1aff27cc8f6eb687672b702913afde56b72fcb5f6ff"),
    ],
)
def test_block_zero_draws_are_pinned(kind, digest):
    # block 0 of seed 2024 at n = 100, drawn as ``run`` draws it. numpy does
    # not promise its Generator streams across versions (NEP 19), so a
    # stream change fails here by name, not only as a moved trajectory digest
    size = simulator.LINEAGE_BLOCK
    rng = np.random.default_rng(np.random.SeedSequence(2024, spawn_key=(0,)))
    ii, jj, dd = _draw(rng, 100, offsets.OffsetDistribution(kind, 0.1), size)
    h = hashlib.sha256()
    for v in (ii, jj, dd.astype("<f8")):
        h.update(v.tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize(
    "n, steps, burn_in, thin, blocks",
    [
        (100, 1_000_000, 10_000, 100, 16),  # the pipeline-n100 workload's run
        (5, 350_000, None, 7, 6),
    ],
)
def test_whole_gaps_draw_each_block_once(monkeypatch, n, steps, burn_in, thin, blocks):
    # consecutive frames in one block share its draw, so a run whose gaps
    # are applied whole draws blocks 0, 1, 2, ... once each, in order. The
    # pipeline run's burn-in of n**2 moves is walked back within block 0,
    # which its first whole gap reuses
    draw, keys = simulator.draw_moves, []

    def draw_moves(rng, *args):
        keys.append(rng.bit_generator.seed_seq.spawn_key)
        return draw(rng, *args)

    monkeypatch.setattr(simulator, "draw_moves", draw_moves)
    config = simulator.SimConfig(
        n_particles=n, offsets=offsets.gaussian(0.1), steps=steps, burn_in=burn_in,
        seed=6, thin=thin,
    )
    trajectory = simulator.run(config, centred=True)
    assert trajectory.moves_applied >= trajectory.times[-1] - trajectory.times[0]
    assert keys == [(k,) for k in range(blocks)]


def _failing_draws(monkeypatch, fail_at, make_error):
    """Make the ``fail_at``-th draw of ``simulator.run`` go wrong."""
    calls = []
    draw = simulator.draw_moves

    def draws(*args):
        calls.append(None)
        moves = draw(*args)
        return make_error(moves) if len(calls) == fail_at else moves

    monkeypatch.setattr(simulator, "draw_moves", draws)
    return calls


def test_run_propagates_a_draw_failure(monkeypatch):
    monkeypatch.setattr(simulator, "LINEAGE_BLOCK", 5)

    def fail(_moves):
        raise RuntimeError("draw failed")

    calls = _failing_draws(monkeypatch, 2, fail)
    config = simulator.SimConfig(
        n_particles=4, offsets=offsets.gaussian(1.0), steps=20, burn_in=0, seed=3
    )
    with pytest.raises(RuntimeError, match="draw failed"):
        simulator.run(config)
    # the first block was applied before the second draw failed
    assert len(calls) == 2


def test_concurrent_runs_match_serial_runs():
    # more threads than cores, each starting and ending runs under a very
    # short switch interval: a run's state shared with another would move frames
    configs = [
        simulator.SimConfig(n_particles=3 + k % 4, offsets=offsets.gaussian(1.0), steps=200,
                            burn_in=5, seed=k, thin=7)
        for k in range(24)
    ]
    serial = [simulator.run(c).positions for c in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(simulator.run, c) for c in configs]
            concurrent = [f.result(timeout=60).positions for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, concurrent):
        np.testing.assert_array_equal(a, b)


def _bad_jumper(moves):
    ii, jj = moves
    ii = ii.copy()
    ii[0] = 4  # no particle 4 among 4: the jump loop fails
    return ii, jj


def test_run_propagates_a_loop_failure(monkeypatch):
    monkeypatch.setattr(simulator, "LINEAGE_BLOCK", 5)
    _failing_draws(monkeypatch, 2, _bad_jumper)
    config = simulator.SimConfig(
        n_particles=4, offsets=offsets.gaussian(1.0), steps=30, burn_in=0, seed=3
    )
    with pytest.raises(IndexError):
        simulator.run(config)


def test_run_propagates_a_chase_failure(monkeypatch):
    # blocks of 64 moves with frames 16 apart at n = 3: every gap is cut down
    # to its lineage moves
    monkeypatch.setattr(simulator, "LINEAGE_BLOCK", 64)
    monkeypatch.setattr(simulator, "LINEAGE_MIN_PARTICLES", 2)
    config = simulator.SimConfig(
        n_particles=3, offsets=offsets.gaussian(1.0), steps=320, burn_in=0, seed=3, thin=16
    )
    chase = simulator.lineage_moves
    calls = []

    def lineage_moves(*args):
        calls.append(None)
        if len(calls) == 6:  # in the sixth gap
            raise RuntimeError("chase failed")
        return chase(*args)

    monkeypatch.setattr(simulator, "lineage_moves", lineage_moves)
    # a lost failure would apply the whole gap and return a valid-looking run
    with pytest.raises(RuntimeError, match="chase failed"):
        simulator.run(config)
    assert len(calls) == 6



def test_run_starts_no_thread_and_keeps_the_switch_interval(monkeypatch):
    # run works on the calling thread alone: at every draw no thread has been
    # started and the switch interval is the one the caller set
    monkeypatch.setattr(simulator, "LINEAGE_BLOCK", 7)
    monkeypatch.setattr(simulator, "LINEAGE_MIN_PARTICLES", 2)
    draw = simulator.draw_moves
    seen = []  # per draw: live threads and the switch interval

    def draw_moves(*args):
        seen.append((threading.active_count(), sys.getswitchinterval()))
        return draw(*args)

    monkeypatch.setattr(simulator, "draw_moves", draw_moves)
    before = threading.active_count(), sys.getswitchinterval()
    for n in (2, 5):  # gaps of 9 moves: cut down at n = 2, applied whole at n = 5
        config = simulator.SimConfig(
            n_particles=n, offsets=offsets.gaussian(0.1), steps=300, burn_in=3, seed=4, thin=9
        )
        seen.clear()
        trajectory = simulator.run(config)
        assert seen and set(seen) == {before}
        assert (trajectory.moves_applied < trajectory.times[-1]) == (n == 2)
