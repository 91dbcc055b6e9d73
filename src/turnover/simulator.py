"""Markov dynamics of the branching-turnover particle system.

At each step an ordered pair (i, j) of distinct particle indices is drawn
uniformly among the n*(n-1) possibilities, an offset delta is drawn, and
particle i jumps to ``x[j] + delta``; all other particles stay put.

The module also provides the renormalised view (positions centred by the
ensemble mean and scaled by 1/sqrt(n)) and the row of inter-particle
distances ``D_j = xbar[0] - xbar[j]``.

``run`` works on two threads, one draw batch at a time. The calling thread
draws every random number, in the stream's order: a batch's indices, then its
offsets. One worker thread runs everything else in the order it is handed
over: it follows the batch's lineages (below) on its index arrays while the
calling thread draws its offsets, and it applies the kept moves and records
the frames while the calling thread draws the next batch. numpy releases the
GIL inside its random fills and large ufuncs, so the draws overlap the
Python-level chase and jump loop. The stream is consumed exactly as by a
single thread: the same calls on the same generator in the same order, so the
trajectory depends on the seed alone.

Only the moves a recorded frame can see are applied. The jump is a Moran
resampling step: traced back from a frame, the lineages of the n particles
coalesce within about n**2 moves, and after that only the moves of the one
surviving lineage (about 1 in n) reach the frame. So in every stretch of at
least n**2 moves between two stops (recorded frames and batch ends) ``run``
follows each particle's lineage back from the stop and applies only the moves
on it, once n is at least ``LINEAGE_MIN_PARTICLES``. Each of those moves reads
the value the full loop would give it, so every frame is bit-identical to
applying all moves. The chase needs only the indices, so it is handed over
before the batch's offsets are drawn and runs once the previous batch's moves
are applied. It is not run inside the apply step: a worker that chased batch k
there would hold its offsets while those of batch k+1 are drawn.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .offsets import OffsetDistribution

# Draw-batch size. Randomness is consumed in per-variable batches:
# for each batch of b steps the stream yields b jumper indices, then b
# target indices, then b offsets. The batch boundaries depend only on the
# total step count, so trajectories are reproducible from the seed alone.
CHUNK = 1 << 20

# Fewest particles at which ``run`` applies only lineage moves. Finding a
# lineage move costs about ten plain applications, and with fewer particles a
# gap keeps too many of them: the full loop is faster on gaps near n**2, and
# for n <= 16 on every gap.
LINEAGE_MIN_PARTICLES = 64

INIT_KINDS = ("all_zero", "iid_gaussian", "iid_uniform")


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation run.

    ``burn_in=None`` resolves to ``100 * n_particles``. That is not an
    equilibration window for large n: a distance relaxes at the rate at
    which its two particles' lineages coalesce, 2/(n(n-1)) per move, so over
    about n**2/2 moves, which is longer than the default once n > 200, and
    the lineages of all n particles coalesce only after about n**2 moves.
    Pass a burn-in of a few n**2 for frames near stationarity at any n.
    Every ``thin``-th post-burn-in state is recorded, starting with the state
    reached at the end of burn-in.
    """

    n_particles: int
    offsets: OffsetDistribution
    steps: int
    burn_in: int | None = None
    seed: int = 0
    thin: int = 1
    init: str = "all_zero"
    init_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.n_particles < 2:
            raise ValueError(f"n_particles must be >= 2, got {self.n_particles}")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.init not in INIT_KINDS:
            raise ValueError(f"unknown init {self.init!r}; expected one of {INIT_KINDS}")
        if not (self.init_scale > 0 and math.isfinite(self.init_scale)):
            raise ValueError(
                f"init_scale must be a positive finite real, got {self.init_scale!r}"
            )

    @property
    def resolved_burn_in(self) -> int:
        return 100 * self.n_particles if self.burn_in is None else self.burn_in


def draw_moves(
    rng: np.random.Generator, n_particles: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the jumpers i and targets j of ``count`` moves from the stream.

    The jumper i is uniform on [0, n); the target j is uniform on the other
    n-1 indices, realised by drawing on [0, n-1) and shifting past i. The
    batch's offsets come next in the stream: ``offsets.sample(rng, count)``.
    ``run`` draws them separately, so that the lineage chase can work on the
    indices meanwhile. Both index arrays come in the narrowest unsigned dtype
    that holds n-1, each narrowed before anything else is done with it, so a
    batch holds few bytes per move besides its offsets.
    """
    if n_particles < 2:
        raise ValueError(f"n_particles must be >= 2, got {n_particles}")
    index = np.min_scalar_type(n_particles - 1)
    ii = rng.integers(0, n_particles, size=count).astype(index)
    jj = rng.integers(0, n_particles - 1, size=count).astype(index)
    jj += jj >= ii
    return ii, jj


def renormalise(positions: np.ndarray) -> np.ndarray:
    """Centre by the ensemble mean and scale by 1/sqrt(n); output sums to 0."""
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[-1]
    mean = positions.mean(axis=-1, keepdims=True)
    return (positions - mean) / math.sqrt(n)


def distance_row(xbar: np.ndarray) -> np.ndarray:
    """Row (xbar[0]-xbar[1], ..., xbar[0]-xbar[n-1]) of length n-1."""
    xbar = np.asarray(xbar, dtype=float)
    return xbar[..., :1] - xbar[..., 1:]


@dataclass
class Trajectory:
    """Recorded frames of one run: raw positions at the recorded steps."""

    config: SimConfig
    times: np.ndarray
    positions: np.ndarray  # shape (n_frames, n_particles)
    moves_applied: int  # moves the jump loop applied to record the frames

    @property
    def n_frames(self) -> int:
        return self.positions.shape[0]

    def renormalised(self) -> np.ndarray:
        return renormalise(self.positions)

    def distance_rows(self) -> np.ndarray:
        return distance_row(self.renormalised())

    def observable(self, name: str) -> np.ndarray:
        """Frames of the named observable: raw | positions | distances."""
        if name == "raw":
            return self.positions
        if name == "positions":
            return self.renormalised()
        if name == "distances":
            return self.distance_rows()
        raise ValueError(f"unknown observable {name!r}")


def _initial_positions(config: SimConfig, rng: np.random.Generator) -> list[float]:
    n = config.n_particles
    if config.init == "all_zero":
        return [0.0] * n
    if config.init == "iid_gaussian":
        return (rng.standard_normal(n) * config.init_scale).tolist()
    # iid uniform with standard deviation init_scale
    half = math.sqrt(3.0) * config.init_scale
    return rng.uniform(-half, half, n).tolist()


def lineage_moves(
    ii: np.ndarray, jj: np.ndarray, a: int, b: int, n: int, block: int = 1 << 16
) -> np.ndarray:
    """Indices, ascending, of the moves in [a, b) whose writes reach step b.

    Each particle's lineage is followed back from b: its last write before b,
    then the last write to that move's target before that move, and so on,
    until a move already found or step a. Applied in order from the state at
    step a, these moves alone give the state at step b, bit for bit.

    The gap is walked back ``block`` moves at a time, so the lookup arrays stay
    small. In a block the writes to a particle are found by bisection in the
    block's moves sorted by the packed key ``(jumper << shift) | index``, where
    ``2**shift`` exceeds every index.
    """
    shift = len(ii).bit_length()
    dtype = np.min_scalar_type(n << shift)
    index = (1 << shift) - 1
    targets = memoryview(jj)
    kept = []
    live = range(n)  # the particles whose values at step hi are read
    for hi in range(b, a, -block):
        lo = max(a, hi - block)
        keys = np.left_shift(ii[lo:hi], shift, dtype=dtype)
        keys |= np.arange(lo, hi, dtype=dtype)
        keys.sort()
        # the writes to particle q sit at [first[q], first[q + 1]) in time order
        first = np.searchsorted(keys, np.arange(n + 1, dtype=dtype) << shift).tolist()
        kv = memoryview(keys)
        found = set()
        needed = set()  # the particles whose values at step lo are read
        for p in live:
            q, m = p, hi
            while True:
                k = bisect_left(kv, q << shift | m, first[q], first[q + 1])
                if k == first[q]:
                    needed.add(q)  # no write to q in [lo, m)
                    break
                m = kv[k - 1] & index
                if m in found:
                    break  # joins a lineage already followed
                found.add(m)
                q = targets[m]
        kept.extend(found)
        live = needed
    return np.sort(np.array(kept, dtype=np.intp))


def _gaps(frames: range, end: int):
    """A batch's gaps (a, b): up to each frame offset in turn, then to end."""
    a = 0
    for b in frames:
        yield a, b
        a = b
    if a < end:
        yield a, end


def run(config: SimConfig) -> Trajectory:
    """Run the chain and record frames.

    Deterministic given the seed. The state reached after burn-in is the
    first recorded frame; afterwards every thin-th state is recorded, so a
    run with steps=0 records exactly one frame. Steps after the last frame
    change no frame, so they are not applied.

    Each batch is cut at its stops: the frames it reaches and its end, since
    the next batch's reads are unknown. With at least
    ``LINEAGE_MIN_PARTICLES`` particles, a gap between stops of at least n**2
    moves is cut down to its lineage moves (``lineage_moves``); every other
    gap is applied whole. The frames are bit-identical either way;
    ``Trajectory.moves_applied`` counts the moves the loop applied.

    This thread draws a batch's indices (``draw_moves``) and hands their
    lineage chase to the worker thread, which runs it once the previous
    batch's moves are applied, while this thread draws the batch's offsets.
    The chase reads the indices alone, so it runs before the batch's offsets
    exist and keeps none alive. The kept moves are gathered here and handed
    back to the worker, which applies batch k while this thread draws batch
    k+1. A batch whose gaps are all cut down is not handed over, so only its
    few kept moves outlive its draw. The worker is one executor thread: a
    failure there is re-raised here through its future, and the thread is
    joined on every exit path.
    """
    # imported here, not at the top: it pulls in logging, which no other
    # command needs at start-up
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(config.seed)
    x = _initial_positions(config, rng)
    n = config.n_particles
    burn_in = config.resolved_burn_in
    total = burn_in + config.steps
    schedule = range(burn_in, total + 1, config.thin)
    last = schedule[-1]
    times = np.array(schedule, dtype=np.int64)
    positions = np.empty((len(schedule), n))
    frame = 0  # the next frame to record
    # gaps of at least this many moves are cut down to their lineage moves
    shortest = n * n if n >= LINEAGE_MIN_PARTICLES else math.inf

    def chase(ii, jj, gaps: list) -> dict:
        # the lineage moves of each gap (a, b), keyed by b
        return {b: lineage_moves(ii, jj, a, b, n) for a, b in gaps}

    def apply(moves, frames: range, end: int, lineages: dict) -> None:
        # steps 1..end of the batch; records the frames at the offsets `frames`
        nonlocal frame
        # memoryviews hand out Python ints and floats one at a time, which is
        # faster than tolist() and builds no per-batch lists
        views = [memoryview(v) for v in moves]
        for a, b in _gaps(frames, end):
            for i, j, d in zip(*(lineages.get(b) or [v[a:b] for v in views])):
                x[i] = x[j] + d
            if b in frames:
                positions[frame] = x
                frame += 1

    applying = None
    planned = 0  # frames handed to the worker
    applied = 0
    with ThreadPoolExecutor(1) as worker:
        for start in range(0, last, CHUNK):
            count = min(CHUNK, total - start)
            ii, jj = draw_moves(rng, n, count)
            end = min(count, last - start)
            reached = len(range(burn_in, start + end + 1, config.thin))
            due = schedule[planned:reached]
            frames = range(due.start - start, due.stop - start, config.thin)
            planned = reached
            chased = [(a, b) for a, b in _gaps(frames, end) if b - a >= shortest]
            # queued behind the previous batch's moves, beside this offset draw
            chasing = worker.submit(chase, ii, jj, chased)
            dd = config.offsets.sample(rng, count)
            kept = chasing.result()
            moves = ii, jj, dd
            lineages = {b: tuple(memoryview(v[k]) for v in moves) for b, k in kept.items()}
            whole = end - sum(b - a for a, b in chased)  # moves of the uncut gaps
            applied += whole + sum(map(len, kept.values()))
            if applying is not None:
                applying.result()
            # a batch with no uncut gap is not handed over, so it is freed here
            # whichever thread runs first; otherwise the worker frees it
            applying = worker.submit(apply, moves if whole else (), frames, end, lineages)
            del moves, lineages, ii, jj, dd, kept
        if applying is not None:
            applying.result()
    # only a run whose last frame needs no step gets here with a frame left:
    # the initial state at time 0
    positions[frame:] = x
    return Trajectory(
        config=config, times=times, positions=positions, moves_applied=applied
    )
