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
GIL inside its random fills and large ufuncs, so the draws overlap the chase
and the Python-level jump loop. The stream is consumed exactly as by a
single thread: the same calls on the same generator in the same order, so the
trajectory depends on the seed alone.

Only the moves a recorded frame can see are applied. The jump is a Moran
resampling step: traced back from a frame, the lineages of the n particles
coalesce as in Kingman's coalescent, within about n**2 moves, and after that
only the moves of the one surviving lineage (about 1 in n) reach the frame.
Before that, a stretch of g moves keeps a share of them that depends on g/n
alone, (n/g) ln(1 + g/n): 0.40 at 4n, 0.18 at 16n. So ``run`` follows each
particle's lineage back from a stop (a recorded frame or a batch end) and
applies only the moves on it, in every stretch between two stops of at least
n**2 moves once n is at least ``LINEAGE_MIN_PARTICLES``, and of at least
``SHORT_GAP * n`` moves once n is at least ``SHORT_GAP_PARTICLES``. The
lineages are followed in numpy, all live ones a step at a time, while enough
of them are live, and one at a time after that (``lineage_moves``). Each kept
move reads the value the full loop would give it, so every frame is
bit-identical to applying all moves. The chase needs only the indices, so it
is handed over before the batch's offsets are drawn and runs once the
previous batch's moves are applied. It is not run inside the apply step: a
worker that chased batch k there would hold its offsets while those of batch
k+1 are drawn.
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

# Fewest particles at which ``run`` applies only lineage moves, on gaps of at
# least n**2. Finding a lineage move one lineage at a time, as at these n,
# costs about ten plain applications, and with fewer particles a gap keeps
# too many of them: the full loop is faster on gaps near n**2, and for
# n <= 16 on every gap.
LINEAGE_MIN_PARTICLES = 64

# Fewest particles at which ``run`` also cuts gaps shorter than n**2: from
# here on a gap of at least ``SHORT_GAP * n`` moves is cut too. Measured in
# ``run``'s docstring.
SHORT_GAP_PARTICLES = 1 << 16
SHORT_GAP = 4

# Fewest live lineages that ``lineage_moves`` follows back in one numpy step;
# a narrower frontier is walked one lineage at a time. At least 1. Widths of
# 64 to 256 chased as fast at n = 10**3 to 10**5. At 128 a run at n = 100
# never takes the numpy step, so its chase is the walk it always was.
FRONTIER_WIDTH = 128

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
    step a, these moves alone give the state at step b, bit for bit. No move
    may write its own target: ``ii[m] != jj[m]`` for every m, as
    ``draw_moves`` gives.

    The gap is walked back ``block`` moves at a time, so the lookup arrays stay
    small. A block's moves are sorted by the packed key
    ``(jumper << shift) | index``, where ``2**shift`` exceeds every index, and
    the lineages live at the block's end are followed back as packed queries
    ``(particle << shift) | step``. While at least ``FRONTIER_WIDTH`` of them
    are live, all of them take one step back at once: one ``np.searchsorted``
    of the sorted queries finds each one's last write, and the writes two
    lineages share sit side by side. A narrower frontier is walked one lineage
    at a time by bisection.
    """
    shift = len(ii).bit_length()
    dtype = np.min_scalar_type(n << shift)
    index = (1 << shift) - 1
    targets = memoryview(jj)
    kept = []
    live = np.ones(n, dtype=bool)  # the particles whose values at step hi are read
    for hi in range(b, a, -block):
        lo = max(a, hi - block)
        keys = np.left_shift(ii[lo:hi], shift, dtype=dtype)
        keys |= np.arange(lo, hi, dtype=dtype)
        keys.sort()
        found = np.zeros(hi - lo, dtype=bool)  # the moves kept, from lo on
        if np.count_nonzero(live) < FRONTIER_WIDTH:
            needed = np.zeros(n, dtype=bool)  # the particles whose values at lo are read
            queries = np.flatnonzero(live).astype(dtype) << shift
            queries |= hi
        else:
            # each live lineage's first step back is its particle's last write
            # in the block, which ends that particle's run of keys. Read off the
            # keys, not searched for: at n = 10**5 a 1M-move gap chases in
            # 50 ms this way and 63 ms through the loop below (best of five,
            # shared 2-vCPU host), and chain-n100k's config runs in 0.57 s
            # against 0.73 s
            particle = keys >> shift
            last = keys[np.r_[particle[1:] != particle[:-1], True]]
            needed = live.copy()
            needed[last >> shift] = False
            moves = last[live[last >> shift]] & index
            found[moves - lo] = True
            queries = np.left_shift(jj[moves], shift, dtype=dtype)
            queries |= moves
        while len(queries) >= FRONTIER_WIDTH:
            queries.sort()
            k = np.searchsorted(keys, queries)
            # at k = 0, keys[-1] is another particle's write: a query of q
            # below every key would need a block that writes q alone, yet it
            # comes from hi (above every key) or from a move that reads q
            last = keys[k - 1]
            written = (last ^ queries) >> shift == 0  # the same particle
            needed[queries[~written] >> shift] = True
            last = last[written]  # ascending, so a shared write repeats in place
            moves = last[np.r_[True, last[1:] != last[:-1]]] & index if len(last) else last
            moves = moves[~found[moves - lo]]
            found[moves - lo] = True
            queries = np.left_shift(jj[moves], shift, dtype=dtype)
            queries |= moves
        kv, fv, nv = memoryview(keys), memoryview(found), memoryview(needed)
        # with at least 16 moves a particle, bisect among the writes to q
        # alone: they sit at [first[q], first[q + 1]). A 1M-move gap chases in
        # 12, 11, 10 and 22 ms with this table at n = 100, 256, 512, 4096 and
        # in 15, 13, 12 and 22 ms without; at n = 8192, 2 * 10**4 and 5 * 10**4
        # building it for each block costs more (43/39, 46/31, 81/41 ms)
        first = 16 * n <= hi - lo and np.searchsorted(
            keys, np.arange(n + 1, dtype=dtype) << shift
        ).tolist()
        for query in queries.tolist():
            while True:
                q = query >> shift
                if first:
                    k = bisect_left(kv, query, first[q], first[q + 1])
                    written = k > first[q]
                else:
                    k = bisect_left(kv, query)
                    written = not (kv[k - 1] ^ query) >> shift  # as above at k = 0
                if not written:
                    nv[q] = True  # no write to q in [lo, query's step)
                    break
                m = kv[k - 1] & index
                if fv[m - lo]:
                    break  # joins a lineage already followed
                fv[m - lo] = True
                query = targets[m] << shift | m
        kept.append(np.flatnonzero(found) + lo)
        live = needed
    return np.concatenate(kept[::-1]) if kept else np.empty(0, dtype=np.intp)


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
    the next batch's reads are unknown. A gap between stops is cut down to its
    lineage moves (``lineage_moves``) if it holds at least n**2 moves and
    n >= ``LINEAGE_MIN_PARTICLES``, or at least ``SHORT_GAP * n`` = 4n moves
    and n >= ``SHORT_GAP_PARTICLES`` = 2**16; every other gap is applied
    whole. The frames are bit-identical either way;
    ``Trajectory.moves_applied`` counts the moves the loop applied.

    A gap of g moves keeps a share (n/g) ln(1 + g/n) of them (0.46, 0.40,
    0.32, 0.27 at 3n, 4n, 6n, 8n), and the cut wins where skipping the rest
    saves more than the chase costs. The full loop slows as n grows, so 4n gaps
    win from n = 2**16 on. ``run`` per step, ns with the cut / without, on
    gaps of c*n moves (shared 2-vCPU host, best of five; README "Notes"):

        n       3n       4n       6n       8n
        2**12   177/128  145/120  134/113  112/110
        2**14   166/125  141/127  126/112  110/122
        2**15   165/131  172/149  142/146  136/125
        2**16   167/162  144/150  125/162  119/142
        10**5   161/168  170/187  127/172  114/135

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
    shortest = math.inf  # gaps of at least this many moves are cut down
    if n >= LINEAGE_MIN_PARTICLES:
        shortest = n * n
        if n >= SHORT_GAP_PARTICLES:
            shortest = min(shortest, SHORT_GAP * n)

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
