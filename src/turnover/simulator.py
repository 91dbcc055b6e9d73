"""Markov dynamics of the branching-turnover particle system.

At each step an ordered pair (i, j) of distinct particle indices is drawn
uniformly among the n*(n-1) possibilities, an offset delta is drawn, and
particle i jumps to ``x[j] + delta``; all other particles stay put.

The module also provides the renormalised view (positions centred by the
ensemble mean and scaled by 1/sqrt(n)) and the row of inter-particle
distances ``D_j = xbar[0] - xbar[j]``.

The move stream comes in blocks of ``LINEAGE_BLOCK`` = B moves: block k holds
moves kB .. (k+1)B - 1, where move m takes the state at step m to step m+1.
Each block is a function of (seed, k) alone. Its generator is
``default_rng(SeedSequence(seed, spawn_key=(k,)))``, which yields the block's
jumpers and targets (``draw_moves``) and then its offsets. So any block can be
drawn without the ones before it, and no move depends on the run's length, on
which gaps are cut or on which blocks are drawn. The initial positions come
from ``default_rng(seed)``, which no block shares.

Only the moves a recorded frame can see are applied. The jump is a Moran
resampling step: traced back from a frame, the lineages of the n particles
coalesce as in Kingman's coalescent, after about (n-1)**2 moves, and after
that only the moves of the one surviving lineage (about 1 in n) reach the
frame. Before that, a stretch of g moves keeps a share of them that depends
on g/n alone, (n/g) ln(1 + g/n): 0.40 at 4n, 0.18 at 16n. So ``run`` walks a
long gap back from its frame, one block at a time (``lineage_moves``), and
draws only the blocks the walk reaches. Each kept move reads the value the
full loop would give it, so a walk that runs to the gap's start leaves the
frame bit-identical to applying all moves. For centred observables a walk
may stop as soon as one lineage is left (coupling from the past, Propp &
Wilson 1996): the centred frame no longer depends on anything before that
step.

``run`` works on two threads. The calling thread draws every block, one
ahead of the worker, in the order the worker needs them; the one worker
thread walks the lineages and applies the moves, in the order it is handed
them. numpy releases the GIL inside its random fills and large ufuncs, so the
draws overlap the chase and the Python-level jump loop.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .offsets import OffsetDistribution, check_count, check_scale

# Moves per block of the random stream. Block k is drawn whole from its own
# generator, so the size is part of the stream: changing it moves every
# trajectory. ``lineage_moves`` walks one block at a time, so its lookup
# arrays stay small.
LINEAGE_BLOCK = 1 << 16

# Fewest particles at which ``run`` applies only lineage moves, on gaps of at
# least n**2. On the block stream the full loop is faster on gaps near n**2
# at 64 <= n < 256, and a centred run's long gaps would gain from a cut below
# 64 (README "Notes on determinism"); no benchmark workload runs either.
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

# The interpreter's thread switch interval, in seconds, while ``run``'s worker
# lives. The worker's jump loop holds the GIL, and the calling thread needs it
# back after each numpy call that draws a block (eight for gaussian offsets).
# At the default 5 ms it waits longer for it than the worker takes to apply a
# block, so the draws fell out of step with the loop. Best of three on a
# shared 2-vCPU host, at 5 ms / 0.2 ms: a 20M-step run at n = 100 with a frame
# every 2000 steps took 1.19 / 0.83 s, and the README ``simulate``'s run 87 /
# 70 ms.
SWITCH_INTERVAL = 2e-4

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
        check_count(self.n_particles, 2, "n_particles")
        check_count(self.steps, 0, "steps")
        if self.burn_in is not None:
            check_count(self.burn_in, 0, "burn_in")
        check_count(self.seed, 0, "seed")
        check_count(self.thin, 1, "thin")
        if self.init not in INIT_KINDS:
            raise ValueError(f"unknown init {self.init!r}; expected one of {INIT_KINDS}")
        check_scale(self.init_scale, "init_scale")

    @property
    def resolved_burn_in(self) -> int:
        return 100 * self.n_particles if self.burn_in is None else self.burn_in


def draw_moves(
    rng: np.random.Generator, n_particles: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the jumpers i and targets j of ``count`` moves from the stream.

    The jumper i is uniform on [0, n); the target j is uniform on the other
    n-1 indices, realised by drawing on [0, n-1) and shifting past i. A
    block's offsets come next from the same generator:
    ``offsets.sample(rng, count)``. Both index arrays come in the narrowest
    unsigned dtype that holds n-1, each narrowed before anything else is done
    with it, so a block holds few bytes per move besides its offsets.
    """
    check_count(n_particles, 2, "n_particles")
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
    """Recorded frames of one run: positions at the recorded steps.

    A ``centred`` run records each frame up to a shift shared by all its
    particles (see ``run``), so only its centred observables are defined.
    """

    config: SimConfig
    times: np.ndarray
    positions: np.ndarray  # shape (n_frames, n_particles)
    moves_applied: int  # moves the jump loop applied to record the frames
    centred: bool
    # per frame: its backward walk ended with one lineage, so its centred
    # value does not depend on anything before the walk's end
    coalesced: np.ndarray

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
            if self.centred:
                raise ValueError("a centred run has no raw observable")
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
    ii: np.ndarray, jj: np.ndarray, lo: int, hi: int, live: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The moves in [lo, hi) whose writes reach step hi, and who is read at lo.

    ``live`` marks, per particle, the values at step hi that are read. Each
    live particle's lineage is followed back from hi: its last write before
    hi, then the last write to that move's target before that move, and so
    on, until a move already found or step lo. Returns the indices, ascending,
    of the moves found, and a mask of the particles whose values at step lo
    are read. Applied in order from the state at step lo, these moves alone
    give every live particle's value at step hi, bit for bit. ``lo < hi``, and
    no move may write its own target: ``ii[m] != jj[m]`` for every m, as
    ``draw_moves`` gives. ``run`` calls it on one block at a time, walking a
    gap back with the returned mask.

    The moves are sorted by the packed key ``(jumper << shift) | index``,
    where ``2**shift`` exceeds every index, and the lineages are followed
    back as packed queries ``(particle << shift) | step``. While at least
    ``FRONTIER_WIDTH`` of them are live, all of them take one step back at
    once: one ``np.searchsorted`` of the sorted queries finds each one's last
    write, and the writes two lineages share sit side by side. A narrower
    frontier is walked one lineage at a time by bisection.
    """
    n = len(live)
    shift = len(ii).bit_length()
    dtype = np.min_scalar_type(n << shift)
    index = (1 << shift) - 1
    targets = memoryview(jj)
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
        # shared 2-vCPU host)
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
    return np.flatnonzero(found) + lo, needed


def run(config: SimConfig, centred: bool = False) -> Trajectory:
    """Run the chain and record frames.

    Deterministic given the seed. The state reached after burn-in is the
    first recorded frame; afterwards every thin-th state is recorded, so a
    run with steps=0 records exactly one frame. No block after the last
    frame's is drawn.

    The gap of moves before each frame is cut down to its lineage moves if it
    holds at least n**2 moves and n >= ``LINEAGE_MIN_PARTICLES``, or at least
    ``SHORT_GAP * n`` = 4n moves and n >= ``SHORT_GAP_PARTICLES`` = 2**16;
    every other gap is applied whole, its blocks drawn in ascending order.
    A cut gap is walked back from its frame one block at a time, drawing only
    the blocks the walk reaches, and its kept moves are then applied in
    order. ``Trajectory.moves_applied`` counts the moves the loop applied.

    With ``centred=False`` every walk runs to its gap's start, and every
    frame is bit-identical to applying all moves. With ``centred=True`` a
    walk also stops at the end of a block where one lineage is left, and
    ``Trajectory.coalesced`` marks its frame. Every particle of that frame
    then descends from the survivor's value at that step, yet the kept moves
    are applied to the state at the gap's start: the frame carries one stale
    shift shared by all its particles, which centring cancels, so its raw
    values are not the chain's and ``observable("raw")`` refuses them. The
    centred frames equal the full loop's up to rounding. Each recorded value
    is its ancestor's value plus its lineage's offsets, added left to right;
    both runs add the same offsets to values that differ by the shift, and
    each addition rounds by at most half an ulp of M, the full loop's largest
    |x| plus the largest shift. So a value differs from the full loop's plus
    the shift by at most L ulps of M, for L additions on its lineage since
    step 0, and a centred value by at most (2L + 2n + 4) ulps of M over
    sqrt(n), the two means' rounding included.

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

    This thread draws every block (``draw_moves``, then the offsets) and
    hands the worker thread the chase of each block of a walk, or the moves
    of each block of a whole gap. It draws the next block the walk or the
    gap needs while the worker works on this one (for a centred walk, only
    while it has covered fewer than n**2 moves), and hands it over only once
    the worker is done, so at most one drawn block waits. A walk's kept moves
    are gathered on the worker, and the worker applies them after the walk's
    last block. The worker is one executor thread: a failure there is
    re-raised here through its future, and the thread is joined on every exit
    path. While it lives, the interpreter's switch interval is at most
    ``SWITCH_INTERVAL``, so that this thread gets the GIL back from the jump
    loop soon after each numpy call of a draw.
    """
    # imported here, not at the top: it pulls in logging, which no other
    # command needs at start-up
    from concurrent.futures import ThreadPoolExecutor

    n = config.n_particles
    size = LINEAGE_BLOCK
    burn_in = config.resolved_burn_in
    schedule = range(burn_in, burn_in + config.steps + 1, config.thin)
    positions = np.empty((len(schedule), n))
    coalesced = np.zeros(len(schedule), dtype=bool)
    x = _initial_positions(config, np.random.default_rng(config.seed))
    shortest = math.inf  # gaps of at least this many moves are cut down
    if n >= LINEAGE_MIN_PARTICLES:
        shortest = n * n
        if n >= SHORT_GAP_PARTICLES:
            shortest = min(shortest, SHORT_GAP * n)
    drawn = {}  # the last block drawn, by number

    def block(k: int) -> tuple:
        if k not in drawn:
            drawn.clear()
            rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(k,)))
            ii, jj = draw_moves(rng, n, size)
            drawn[k] = ii, jj, config.offsets.sample(rng, size)
        return drawn[k]

    def forward(moves, lo: int, hi: int, base: int = 0, frames: range = range(0)) -> None:
        # moves lo..hi-1 of a block that starts at move `base`, or of a walk's
        # kept moves, recording the frames that fall among them. memoryviews
        # hand out Python ints and floats one at a time, faster than tolist()
        views = [memoryview(v) for v in moves]
        for f in [*frames, None]:
            b = hi if f is None else schedule[f] - base
            for i, j, d in zip(*(v[lo:b] for v in views)):
                x[i] = x[j] + d
            if f is not None:
                positions[f] = x
            lo = b

    def chase(moves, lo: int, hi: int, live):
        kept, live = lineage_moves(moves[0], moves[1], lo, hi, live)
        return tuple(v[kept] for v in moves), live

    def apply(pieces: list, f: int) -> None:
        for piece in reversed(pieces):
            forward(piece, 0, len(piece[0]))
        positions[f] = x

    applied = 0
    applying = None  # the worker's last apply task

    def hand(task, *args) -> None:
        # after the worker's last apply task, whose failure is raised here
        nonlocal applying
        if applying is not None:
            applying.result()
        applying = worker.submit(task, *args)

    def walk(f: int) -> None:
        nonlocal applied
        a, b = (schedule[f - 1] if f else 0), schedule[f]
        live = np.ones(n, dtype=bool)
        pieces = []  # per block, last block first
        k, hi = (b - 1) // size, b
        while True:
            base = k * size
            lo = max(a, base)
            # queued behind the worker's last task, beside the next draw
            chasing = worker.submit(chase, block(k), lo - base, hi - base, live)
            # the block before is drawn meanwhile, unless a centred walk has
            # covered n**2 moves, within which 62 % of walks coalesce
            if lo > a and not (centred and b - base >= n * n):
                block(k - 1)
            piece, live = chasing.result()
            pieces.append(piece)
            if centred and np.count_nonzero(live) == 1:
                coalesced[f] = True
                break
            if lo == a:
                break
            k, hi = k - 1, base
        applied += sum(len(piece[0]) for piece in pieces)
        hand(apply, pieces, f)

    def whole(frames: range) -> None:
        nonlocal applied
        a = schedule[frames[0] - 1] if frames[0] else 0
        end = schedule[frames[-1]]
        for k in range(a // size, -(-end // size)):
            base = k * size
            inside = range(
                bisect_right(schedule, base, frames.start, frames.stop),
                bisect_right(schedule, base + size, frames.start, frames.stop),
            )
            hand(forward, block(k), max(a, base) - base, min(end, base + size) - base,
                 base, inside)
        applied += end - a

    interval = sys.getswitchinterval()
    sys.setswitchinterval(min(interval, SWITCH_INTERVAL))
    try:
        with ThreadPoolExecutor(1) as worker:
            # the burn-in's frame, then the rest, each gap the same length
            for frames, gap in ((range(1), burn_in), (range(1, len(schedule)), config.thin)):
                if not gap:
                    positions[0] = x  # the worker has nothing yet
                elif gap >= shortest:
                    for f in frames:
                        walk(f)
                elif frames:
                    whole(frames)
            if applying is not None:
                applying.result()
    finally:
        sys.setswitchinterval(interval)
    return Trajectory(
        config=config, times=np.array(schedule, dtype=np.int64), positions=positions,
        moves_applied=applied, centred=centred, coalesced=coalesced,
    )
