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
on g/n alone, (n/g) ln(1 + g/n): 0.40 at 4n, 0.18 at 16n. So ``run`` makes
its frames one at a time, and decides for each frame's gap alone: a long gap
is walked back from its frame, one block at a time (``lineage_moves``),
drawing only the blocks the walk reaches; a short one is applied whole, in
order. Each kept move reads the value the full loop would give it, so a walk
that runs to the gap's start leaves the frame bit-identical to applying all
moves. For centred observables a walk may stop as soon as one lineage is left
(coupling from the past, Propp & Wilson 1996): the centred frame no longer
depends on anything before that step.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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

# Fewest live lineages that ``lineage_moves`` follows back in one numpy step
# after the first; a narrower frontier is walked one lineage at a time. At
# least 1. Widths of 64 to 256 chased as fast at n = 10**3 to 10**5. At 128 a
# run at n = 100 never takes the searchsorted step, so after its first step
# its chase is the bisection walk alone.
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
        check_count(self.n_particles, 2, "n_particles")
        check_count(self.steps, 0, "steps")
        if self.burn_in is not None:
            check_count(self.burn_in, 0, "burn_in")
        check_count(self.seed, 0, "seed")
        check_count(self.thin, 1, "thin")
        if self.init not in INIT_KINDS:
            raise ValueError(f"unknown init {self.init!r}; expected one of {INIT_KINDS}")
        check_scale(self.init_scale, "init_scale")
        # numpy refuses a uniform range wider than the largest float
        if self.init == "iid_uniform" and not math.isfinite(2 * math.sqrt(3.0) * self.init_scale):
            raise ValueError(
                f"init_scale {self.init_scale!r} is too large for iid_uniform: "
                "its range 2*sqrt(3)*init_scale is not finite"
            )

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
    back as packed queries ``(particle << shift) | step``. Every walk's first
    step, at any frontier width, is read off the sorted keys: each live
    particle's last write ends its run of keys. While at least
    ``FRONTIER_WIDTH`` lineages are live, all of them then take one step back
    at once: one ``np.searchsorted`` of the sorted queries finds each one's
    last write, and the writes two lineages share sit side by side. A
    narrower frontier is walked one lineage at a time by bisection.
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
    # each live lineage's first step back is its particle's last write in
    # the block, which ends that particle's run of keys. Read off the keys,
    # not searched for: at n = 10**5 a 1M-move gap chases in 50 ms this way
    # and 63 ms through the loop below (best of five, shared 2-vCPU host)
    particle = keys >> shift
    last = keys[np.r_[particle[1:] != particle[:-1], True]]
    needed = live.copy()  # the particles whose values at lo are read
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
        # comes from a move that reads q and so writes another particle
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

    Frames are made one at a time, each from the state the one before left,
    by one rule on the gap of moves before it. A gap is cut down to its
    lineage moves if it holds at least n**2 moves and n >=
    ``LINEAGE_MIN_PARTICLES``, or at least ``SHORT_GAP * n`` = 4n moves and
    n >= ``SHORT_GAP_PARTICLES`` = 2**16: it is walked back from its frame
    one block at a time, drawing only the blocks the walk reaches, and its
    kept moves are then applied in order. Every other gap is applied whole,
    its blocks in ascending order. The last block drawn is kept, so frames
    that share a block share its draw, and a run whose gaps are all applied
    whole draws each block once. ``Trajectory.moves_applied`` counts the
    moves the loop applied.

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
    """
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
    drawn = {}  # the last block drawn, by number: its arrays and their memoryviews

    def block(k: int) -> tuple:
        if k not in drawn:
            drawn.clear()
            rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(k,)))
            ii, jj = draw_moves(rng, n, size)
            moves = ii, jj, config.offsets.sample(rng, size)
            drawn[k] = moves, [memoryview(v) for v in moves]
        return drawn[k]

    def forward(views: list, lo: int, hi: int) -> None:
        # moves lo..hi-1 of a block, or of a walk's kept moves. memoryviews
        # hand out Python ints and floats one at a time, faster than tolist()
        ii, jj, dd = views
        for i, j, d in zip(ii[lo:hi], jj[lo:hi], dd[lo:hi]):
            x[i] = x[j] + d

    applied = a = 0
    for f, b in enumerate(schedule):  # the gap before frame f is moves a..b-1
        blocks = range(a // size, -(-b // size))  # the blocks the gap touches
        if b - a >= shortest:
            live = np.ones(n, dtype=bool)
            pieces = []  # views of each block's kept moves, last block first
            for k in reversed(blocks):
                base = k * size
                moves = block(k)[0]
                kept, live = lineage_moves(
                    moves[0], moves[1], max(a, base) - base, min(b, base + size) - base, live
                )
                pieces.append([memoryview(v[kept]) for v in moves])
                if centred and np.count_nonzero(live) == 1:
                    coalesced[f] = True
                    break
            for piece in reversed(pieces):
                applied += len(piece[0])
                forward(piece, 0, len(piece[0]))
        else:
            for k in blocks:
                base = k * size
                forward(block(k)[1], max(a, base) - base, min(b, base + size) - base)
            applied += b - a
        positions[f] = x
        a = b
    return Trajectory(
        config=config, times=np.array(schedule, dtype=np.int64), positions=positions,
        moves_applied=applied, centred=centred, coalesced=coalesced,
    )
