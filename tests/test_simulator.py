import hashlib
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from turnover import offsets, simulator
from turnover.empirical import batch_means_se


def _draw(rng, n, dist, count):
    """A batch of moves (i, j, delta) in the stream's order: the indices of
    ``draw_moves``, then the offsets."""
    ii, jj = simulator.draw_moves(rng, n, count)
    return ii, jj, dist.sample(rng, count)


def test_run_matches_straight_line_reimplementation():
    # replay the same move stream through an independent update rule
    dist = offsets.two_point(1.0)
    config = simulator.SimConfig(
        n_particles=4, offsets=dist, steps=10, burn_in=0, seed=42, thin=1
    )
    trajectory = simulator.run(config)

    rng = np.random.default_rng(42)
    ii, jj, dd = _draw(rng, 4, dist, 10)
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
    rng = np.random.default_rng(config.seed)
    n = config.n_particles
    root = math.sqrt(n)
    total = config.resolved_burn_in + config.steps
    ii, jj, dd = _draw(rng, n, config.offsets, total)
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


def _replay_in_chunks(config, chunk):
    """Frames of ``config`` by a straight-line replay that draws the move
    stream in batches of ``chunk`` steps."""
    rng = np.random.default_rng(config.seed)
    n = config.n_particles
    burn_in = config.resolved_burn_in
    total = burn_in + config.steps
    x = [0.0] * n
    moves = []
    for start in range(0, total, chunk):
        ii, jj, dd = _draw(rng, n, config.offsets, min(chunk, total - start))
        moves.extend(zip(ii.tolist(), jj.tolist(), dd.tolist()))
    times = list(range(burn_in, total + 1, config.thin))
    frames = [list(x)] if 0 in times else []
    for t, (i, j, d) in enumerate(moves, start=1):
        x[i] = x[j] + d
        if t in times:
            frames.append(list(x))
    return np.asarray(times), np.asarray(frames).reshape(len(times), n)


def _replay_case(burn_in, steps, thin, n=4, chunk=5, short=None):
    tail = "" if (n, chunk) == (4, 5) else f"-n{n}-chunk{chunk}"
    tail += f"-short{short}" if short else ""
    return pytest.param(
        burn_in, steps, thin, n, chunk, short, id=f"{burn_in}-{steps}-{thin}{tail}"
    )


@pytest.mark.parametrize(
    "burn_in, steps, thin, n, chunk, short",
    [
        _replay_case(10, 20, 5),  # every frame falls on a chunk boundary
        _replay_case(3, 17, 4),  # frames fall inside chunks
        _replay_case(0, 12, 1),  # the initial state is a frame, then every step
        _replay_case(0, 9, 7),  # a tail of steps after the last frame
        _replay_case(0, 0, 1),  # no steps at all
        _replay_case(7, 0, 3),  # burn-in only
        # gaps of at least n**2 moves, where only lineage moves are applied
        _replay_case(64, 192, 64, 3, 64),  # every frame falls on a chunk boundary
        _replay_case(10, 200, 30, 3, 64),  # frames fall inside chunks
        _replay_case(100, 0, 1, 2, 64),  # burn-in only, across a chunk seam
        _replay_case(0, 150, 70, 2, 64),  # a tail of steps after the last frame
        _replay_case(0, 0, 1, 2, 64),  # no steps at all
        _replay_case(100, 60, 2, 3, 64),  # a long burn-in, then gaps under n**2
        _replay_case(3, 252, 4, 2, 64),  # a burn-in of n**2 - 1, then gaps of n**2
        # gaps of at least short * n moves but under n**2, cut down by the
        # short-gap rule, with the lineages followed in numpy steps
        _replay_case(0, 200, 20, 8, 64, short=2),  # frames fall inside chunks
        _replay_case(5, 300, 30, 6, 64, short=3),  # gaps under 3 n at the seams
    ],
)
def test_run_matches_chunked_replay(monkeypatch, burn_in, steps, thin, n, chunk, short):
    monkeypatch.setattr(simulator, "CHUNK", chunk)
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
    times, frames = _replay_in_chunks(config, chunk)
    np.testing.assert_array_equal(trajectory.times, times)
    np.testing.assert_array_equal(trajectory.positions, frames)
    assert trajectory.times.dtype == np.int64
    assert trajectory.moves_applied <= min(burn_in + steps, times[-1])
    if short:
        assert trajectory.moves_applied < times[-1]
    if burn_in + steps > chunk:
        # the batch size is part of the stream: one unchunked draw differs
        _, unchunked = _replay_in_chunks(config, burn_in + steps)
        assert not np.array_equal(trajectory.positions, unchunked)


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
                kept = simulator.lineage_moves(ii, jj, a, b, n, block)
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
            "49d98996ba7e705969eb578a89721cfe8730731c0fca677ff2f468469a7408dc",
        ),
        (
            "uniform", 7, 2000, 0, 3, "iid_uniform",
            "9f70cd9943917bceb299a7cd68676212f4f0d521abe90889c555f50d8609ad03",
        ),
        (
            "two_point", 6, 2500, 100, 11, "iid_gaussian",
            "8ab4540b4da70c304b86e5556904e2344052335e9ab3abff1d80f55f59e72fea",
        ),
        # longer than one draw batch, so the chunk seam is pinned too
        (
            "two_point", 50, 1_200_000, 0, 100_003, "all_zero",
            "f1f8beceeef2a32c6003a7465186cd8d02dbf13dce5548d760c3fde55f8f2ea8",
        ),
        # gaps of at least n**2 moves on both sides of the seam, so only
        # lineage moves are applied; pinned from a run that applied them all
        (
            "gaussian", 100, 1_300_000, 20_000, 250_001, "iid_gaussian",
            "433d4c334be6b1236f0c33f3d643e83cccada59eced8f9f21d0f2d91409aa006",
        ),
        # n = 2**16: gaps of 10.7 n and 5.3 n before the seam and 5.4 n after
        # it, far under n**2, so they are cut down only by the short-gap rule;
        # pinned from a run that applied every move
        (
            "uniform", 65_536, 1_400_002, 0, 700_001, "iid_uniform",
            "455c34e58faeefe130d5b562473ed084a4c69a9f3ec2f50b283b8faee3071801",
        ),
    ],
)
def test_run_trajectory_digest(kind, n, steps, burn_in, thin, init, digest):
    # pins every bit of the recorded trajectories across engine changes
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


def test_run_memory_is_bounded_by_the_output(monkeypatch):
    # long runs hold the recorded frames and a few draw batches, not Python
    # objects per recorded value
    chunk = 1 << 16
    monkeypatch.setattr(simulator, "CHUNK", chunk)
    # thin = 10 applies every move; thin = n**2 applies only lineage moves
    for thin, n_frames in ((10, 20_001), (10_000, 21)):
        config = simulator.SimConfig(
            n_particles=100,
            offsets=offsets.gaussian(0.1),
            steps=200_000,
            burn_in=0,
            seed=22,
            thin=thin,
        )
        trajectory, peak = _traced_peak(config)
        assert trajectory.n_frames == n_frames
        # a draw holds about five batch-sized arrays at once: jumpers, targets,
        # the shift mask and the offsets with their unscaled copy
        budget = trajectory.positions.nbytes + 6 * chunk * 8
        assert peak < budget, f"thin={thin}: traced peak {peak} B over budget {budget} B"
    # frames on the seams: every gap is a whole batch and is cut down. The
    # worker applies only the kept moves, so it frees its batch before the
    # next one's offsets are drawn, and two batches' offsets (16 B a move) are
    # never alive at once, as they would be if the worker chased. The peak is
    # one batch's offsets and indices (10 B a move) beside the chase's keys
    # (8 B a move of a block, a quarter batch), or the draw's int64 indices.
    chunk = 1 << 18
    monkeypatch.setattr(simulator, "CHUNK", chunk)
    config = simulator.SimConfig(
        n_particles=100,
        offsets=offsets.gaussian(0.1),
        steps=3 * chunk,
        burn_in=0,
        seed=22,
        thin=chunk,
    )
    trajectory, peak = _traced_peak(config)
    assert trajectory.n_frames == 4
    assert trajectory.moves_applied < chunk
    budget = trajectory.positions.nbytes + 2 * chunk * 8
    assert peak < budget, f"frames on the seams: traced peak {peak} B over budget {budget} B"


def test_run_frees_a_cut_down_batch_while_the_worker_lags(monkeypatch):
    # frames on the seams: every gap is a whole batch and is cut down, so the
    # worker gets only the kept moves. With the worker held back, each batch
    # must still be freed by the time the next one is drawn, whichever thread
    # runs first.
    chunk = 1 << 16
    monkeypatch.setattr(simulator, "CHUNK", chunk)
    caller = threading.current_thread()
    gaps = simulator._gaps

    def slow_gaps(frames, end):
        if threading.current_thread() is not caller:
            time.sleep(0.05)
        return gaps(frames, end)

    draw = simulator.draw_moves
    entries = []  # traced memory at each draw's entry

    def draw_moves(*args):
        entries.append(tracemalloc.get_traced_memory()[0])
        return draw(*args)

    monkeypatch.setattr(simulator, "_gaps", slow_gaps)
    monkeypatch.setattr(simulator, "draw_moves", draw_moves)
    config = simulator.SimConfig(
        n_particles=100,
        offsets=offsets.gaussian(0.1),
        steps=4 * chunk,
        burn_in=0,
        seed=22,
        thin=chunk,
    )
    simulator.run(config)  # warm-up: one-time allocations stay out of the trace
    entries.clear()
    tracemalloc.start()
    try:
        trajectory = simulator.run(config)
    finally:
        tracemalloc.stop()
    assert trajectory.n_frames == 5
    assert trajectory.moves_applied < chunk
    assert len(entries) == 4
    # a batch's indices and offsets take 10 B a move
    growth = max(entries[1:]) - entries[0]
    assert growth < 2 * chunk, f"{growth / chunk:.1f} B a move kept across draws"


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


def test_run_propagates_a_draw_failure_and_joins_the_worker(monkeypatch):
    monkeypatch.setattr(simulator, "CHUNK", 5)

    def fail(_moves):
        raise RuntimeError("draw failed")

    calls = _failing_draws(monkeypatch, 2, fail)
    config = simulator.SimConfig(
        n_particles=4, offsets=offsets.gaussian(1.0), steps=20, burn_in=0, seed=3
    )
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="draw failed"):
        simulator.run(config)
    # the first batch went to the worker before the second draw failed
    assert len(calls) == 2
    assert threading.active_count() == before


def _bad_jumper(moves):
    ii, jj = moves
    ii = ii.copy()
    ii[0] = 4  # no particle 4 among 4: the loop on the worker fails
    return ii, jj


def test_run_propagates_a_worker_failure(monkeypatch):
    monkeypatch.setattr(simulator, "CHUNK", 5)
    _failing_draws(monkeypatch, 2, _bad_jumper)
    config = simulator.SimConfig(
        n_particles=4, offsets=offsets.gaussian(1.0), steps=30, burn_in=0, seed=3
    )
    before = threading.active_count()
    with pytest.raises(IndexError):
        simulator.run(config)
    assert threading.active_count() == before


def test_run_propagates_a_worker_failure_in_the_last_batch(monkeypatch):
    # no later batch reads the failure: the run must still raise it
    monkeypatch.setattr(simulator, "CHUNK", 5)
    calls = _failing_draws(monkeypatch, 6, _bad_jumper)
    config = simulator.SimConfig(
        n_particles=4, offsets=offsets.gaussian(1.0), steps=30, burn_in=0, seed=3
    )
    before = threading.active_count()
    with pytest.raises(IndexError):
        simulator.run(config)
    assert len(calls) == 6
    assert threading.active_count() == before


def _chased_config(monkeypatch):
    """Batches of 64 moves with frames 16 apart at n = 3, so that every gap is
    cut down to its lineage moves on the worker thread."""
    monkeypatch.setattr(simulator, "CHUNK", 64)
    monkeypatch.setattr(simulator, "LINEAGE_MIN_PARTICLES", 2)
    return simulator.SimConfig(
        n_particles=3, offsets=offsets.gaussian(1.0), steps=320, burn_in=0, seed=3, thin=16
    )


def test_run_propagates_a_chase_failure(monkeypatch):
    config = _chased_config(monkeypatch)
    chase = simulator.lineage_moves
    calls = []

    def lineage_moves(*args):
        calls.append(None)
        if len(calls) == 6:  # in the second batch, with a worker started
            raise RuntimeError("chase failed")
        return chase(*args)

    monkeypatch.setattr(simulator, "lineage_moves", lineage_moves)
    before = threading.active_count()
    # a lost failure would apply the whole gap and return a valid-looking run
    with pytest.raises(RuntimeError, match="chase failed"):
        simulator.run(config)
    assert len(calls) == 6
    assert threading.active_count() == before


def test_run_joins_the_chase_when_the_offset_draw_fails(monkeypatch):
    config = _chased_config(monkeypatch)
    chase = simulator.lineage_moves
    started, finished = threading.Event(), []

    def lineage_moves(*args):
        started.set()
        time.sleep(0.05)
        finished.append(None)
        return chase(*args)

    def sample(self, rng, size):
        # the chase of this batch is running while the draw fails
        assert started.wait(10)
        raise RuntimeError("offsets failed")

    monkeypatch.setattr(simulator, "lineage_moves", lineage_moves)
    monkeypatch.setattr(offsets.OffsetDistribution, "sample", sample)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="offsets failed"):
        simulator.run(config)
    # the failed draw waited for the chase before it left run
    assert finished
    assert threading.active_count() == before


def test_run_leaves_no_thread_behind(monkeypatch):
    # hundreds of batch hand-offs under a very short switch interval: a frame
    # recorded or a move applied out of turn would break the replay
    monkeypatch.setattr(simulator, "CHUNK", 7)
    config = simulator.SimConfig(
        n_particles=5, offsets=offsets.two_point(0.1), steps=3000, burn_in=3, seed=4, thin=9
    )
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        trajectory = simulator.run(config)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    _, frames = _replay_in_chunks(config, 7)
    np.testing.assert_array_equal(trajectory.positions, frames)
    # the same at n = 2, where most gaps are cut down, each chase queued on
    # the worker behind the previous batch's moves
    monkeypatch.setattr(simulator, "LINEAGE_MIN_PARTICLES", 2)
    chase = simulator.lineage_moves
    chasers = []

    def lineage_moves(*args):
        chasers.append(threading.current_thread())
        return chase(*args)

    monkeypatch.setattr(simulator, "lineage_moves", lineage_moves)
    config = simulator.SimConfig(
        n_particles=2, offsets=offsets.gaussian(0.1), steps=3000, burn_in=3, seed=4, thin=9
    )
    sys.setswitchinterval(1e-6)
    try:
        trajectory = simulator.run(config)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    assert trajectory.moves_applied < 3003
    # every chase ran on the one worker thread, none on the caller's
    assert len(set(chasers)) == 1
    assert chasers[0] is not threading.current_thread()
    _, frames = _replay_in_chunks(config, 7)
    np.testing.assert_array_equal(trajectory.positions, frames)
