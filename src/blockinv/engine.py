"""Step-scheduled inversion of a matrix partitioned into 2**k diagonal blocks.

The whole computation is a fixed sequence of ``N_s = 2 * blocksize - 1``
barrier-separated steps.  Each stepid decodes - through its ``loopid``
array, the 1-based positions of its set bits in descending order - into one
of three actions:

* invert diagonal blocks (of the input, or of stored Schur complements)
  into the inverse matrix;
* compute the pivot products R = -A^-1 B, L = -D^-1 C and the Schur
  complements S_D, S_A for every quad at one level, storing them in that
  level's provisional set;
* invert Schur diagonal blocks and then run a chain of assembly passes,
  where pass i completes the next power-of-two quad inverses in place with
  one panel product per quad half: the L block of provisional set i times
  the completed top-left inverse fills the lower-left half, and the R block
  times the completed bottom-right inverse fills the upper-right half.

Within a step every task writes a pre-assigned disjoint set of blocks, so
the result is bitwise identical for any worker count; ``stepid`` is the
only synchronization key.  Checkpoints at step boundaries make a run fully
resumable, including when all blocks live in files.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import OpCounters, _mm_acc, _mm_acc_ordered, as_matrix, check_finite, invert_small
from .errors import (
    BlockShapeMismatch,
    InvalidWorkers,
    MalformedLoopid,
    OutOfRange,
    OverlappingWriteTargets,
    SchemeMismatch,
    SingularBlock,
)
from .partition import make_partition, partition_from_sizes
from .storage import (
    BlockMatrix,
    ProvisionalSet,
    checkpoint_load,
    checkpoint_matches,
    checkpoint_save,
    fresh_state,
    input_fingerprint,
    load_minv_store,
    load_tsets,
)

INVERT_DIAGONALS = "invert_diagonals"
ARROWS_AND_SCHUR = "arrows_and_schur"
SCHUR_DIAG_AND_ASSEMBLE = "schur_diag_and_assemble"


def resolve_workers(explicit: int | None = None) -> int:
    """Explicit argument beats the INVERTOR_WORKERS environment variable."""
    if explicit is not None:
        if explicit < 1:
            raise InvalidWorkers(f"workers must be >= 1, got {explicit}")
        return explicit
    env = os.environ.get("INVERTOR_WORKERS", "").strip()
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        raise InvalidWorkers(f"INVERTOR_WORKERS must be an integer, got {env!r}") from None
    if workers < 1:
        raise InvalidWorkers(f"INVERTOR_WORKERS must be >= 1, got {workers}")
    return workers


# ---------------------------------------------------------------------------
# stepid -> loopid -> action
# ---------------------------------------------------------------------------


def total_steps(blocksize: int) -> int:
    return 2 * blocksize - 1


def loopid_for_step(stepid: int, blocksize: int) -> list[int]:
    """The 1-based set-bit positions of stepid, descending, zero-padded.

    The array has ``log2(blocksize) + 1`` entries; its nonzero prefix is
    strictly decreasing and fully determines what the step computes.
    """
    if blocksize < 1 or blocksize & (blocksize - 1):
        raise OutOfRange(f"blocksize must be a power of two, got {blocksize}")
    if not 1 <= stepid <= total_steps(blocksize):
        raise OutOfRange(f"stepid {stepid} outside 1..{total_steps(blocksize)}")
    n = blocksize.bit_length()  # log2(blocksize) + 1
    positions = [p + 1 for p in range(n) if stepid >> p & 1]
    positions.reverse()
    return positions + [0] * (n - len(positions))


@dataclass(frozen=True)
class StepAction:
    """Decoded meaning of one step.

    ``source`` is "matrix" or "tset" (then ``cid`` names the provisional
    set whose S blocks are read).  For arrows steps ``sid`` is both the
    destination set and the quad level.  ``depth`` counts the assembly
    passes folded into the step.
    """

    kind: str
    source: str
    cid: int | None = None
    sid: int | None = None
    depth: int = 0


@dataclass(frozen=True)
class StepPlan:
    stepid: int
    loopid: tuple[int, ...]
    action: StepAction


def decode_step(loopid) -> StepAction:
    """Apply the loopid rules.

    * [1, 0, ...]            - invert the input's diagonal blocks.
    * [j, 0, ...], j > 1     - arrows over the input's level-(j-1) quads,
                               stored into set j-1.
    * trailing nonzero 1     - invert diagonal blocks of set cid's Schur
      at position x > 1        complements (cid = previous element - 1),
                               then one assembly pass per entry of the
                               trailing ..3, 2, 1 run.
    * trailing nonzero z > 1 - arrows over the Schur complements of set
      at position x > 1        cid (previous element - 1), stored into set
                               z - 1.
    """
    loopid = list(loopid)
    nz = []
    seen_zero = False
    for v in loopid:
        if v == 0:
            seen_zero = True
        elif seen_zero or v < 0:
            raise MalformedLoopid(f"{loopid}: zeros only as suffix")
        else:
            nz.append(v)
    if not nz:
        raise MalformedLoopid(f"{loopid}: no nonzero elements")
    if any(nz[i] <= nz[i + 1] for i in range(len(nz) - 1)):
        raise MalformedLoopid(f"{loopid}: prefix not strictly decreasing")

    last = nz[-1]
    if len(nz) == 1:
        if last == 1:
            return StepAction(INVERT_DIAGONALS, "matrix")
        return StepAction(ARROWS_AND_SCHUR, "matrix", sid=last - 1)
    cid = nz[-2] - 1
    if last == 1:
        run = 1
        while run < len(nz) and nz[-run - 1] == run + 1:
            run += 1
        return StepAction(SCHUR_DIAG_AND_ASSEMBLE, "tset", cid=cid, depth=run - 1)
    return StepAction(ARROWS_AND_SCHUR, "tset", cid=cid, sid=last - 1)


def step_plan(stepid: int, blocksize: int) -> StepPlan:
    loopid = loopid_for_step(stepid, blocksize)
    return StepPlan(stepid, tuple(loopid), decode_step(loopid))


def updown_iteration_map(block_row: int, block_col: int) -> int:
    """Iterations needed to finish block (row, col) of a quad during the
    combined assembly chain: 1 + popcount((row-1) XOR (col-1)), 1-based."""
    if block_row < 1 or block_col < 1:
        raise OutOfRange("block coordinates are 1-based")
    return 1 + ((block_row - 1) ^ (block_col - 1)).bit_count()


# ---------------------------------------------------------------------------
# Fox-style blocked multiplication
# ---------------------------------------------------------------------------


class BlockedView:
    """A dense array with block row/col boundaries for blockwise products."""

    __slots__ = ("data", "row_sizes", "col_sizes", "row_offsets", "col_offsets")

    def __init__(self, data: np.ndarray, row_sizes, col_sizes):
        self.data = data
        self.row_sizes = tuple(row_sizes)
        self.col_sizes = tuple(col_sizes)
        self.row_offsets = _offsets(self.row_sizes)
        self.col_offsets = _offsets(self.col_sizes)
        if data.shape != (self.row_offsets[-1], self.col_offsets[-1]):
            raise BlockShapeMismatch(
                f"data {data.shape} vs block sizes {self.row_sizes} x {self.col_sizes}"
            )


def _offsets(sizes) -> tuple[int, ...]:
    out = [0]
    for s in sizes:
        out.append(out[-1] + s)
    return tuple(out)


def fox_block_multiply(
    a: BlockedView,
    b: BlockedView,
    out: BlockedView,
    negate: bool = False,
    accumulate: bool = False,
    counters: OpCounters | None = None,
) -> None:
    """out = (+-1) * a @ b blockwise, broadcast-stage order.

    Stage t multiplies a's diagonally shifted tiles (block column
    ``(i + t) % nb`` for block row i) into the accumulating output row
    panels, so each out block receives its inner terms in a fixed stage
    order and the partition structure is preserved.  Block sizes may vary;
    only blockwise compatibility is required.

    Every row of block row i therefore sums the inner indices from a's
    block column ``i % nb`` onwards, wrapping at the end; all rows run
    through one ordered kernel call on the calling thread.
    """
    if a.col_sizes != b.row_sizes:
        raise BlockShapeMismatch(f"a cols {a.col_sizes} vs b rows {b.row_sizes}")
    if out.row_sizes != a.row_sizes or out.col_sizes != b.col_sizes:
        raise BlockShapeMismatch(
            f"out {out.row_sizes} x {out.col_sizes} for product "
            f"{a.row_sizes} x {b.col_sizes}"
        )
    if not accumulate:
        out.data[...] = 0.0
    nb = len(a.col_sizes)
    if nb == 1:
        _mm_acc(a.data, b.data, out.data, negate)
    else:
        inner = a.col_offsets[-1]
        starts = np.repeat([a.col_offsets[i % nb] for i in range(len(a.row_sizes))], a.row_sizes)
        order = (np.arange(inner)[:, None] + starts) % inner
        _mm_acc_ordered(a.data, b.data, out.data, order, negate)
    if counters is not None:
        counters.multiplies += 1
        if accumulate:
            counters.reductions += 1


# ---------------------------------------------------------------------------
# The step interpreter
# ---------------------------------------------------------------------------


class _Engine:
    def __init__(self, scheme, source_store, minv, tsets, workers, counters):
        self.scheme = scheme
        self.source = source_store
        self.minv = minv
        self.tsets = tsets
        self.counters = counters
        self.pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None

    def close(self):
        if self.pool is not None:
            self.pool.shutdown(wait=True)

    # -- task batches -------------------------------------------------------

    def _run_batch(self, tasks) -> None:
        """tasks: [(write_target_ids, fn)]; targets must be pairwise disjoint."""
        seen = set()
        for targets, _ in tasks:
            for t in targets:
                if t in seen:
                    raise OverlappingWriteTargets(f"write target {t} claimed by two tasks")
                seen.add(t)
        if self.pool is None:
            for _, fn in tasks:
                fn()
        else:
            for future in [self.pool.submit(fn) for _, fn in tasks]:
                future.result()

    # -- sources ------------------------------------------------------------

    def _covering_s_entry(self, cid: int, first_block: int, width: int):
        """(entry_array, entry_first_block) of the T_cid Schur complement
        covering diagonal blocks [first_block, first_block + width)."""
        tset = self.tsets[cid]
        span = 2**cid
        half = span // 2
        qp = first_block // span
        offset = first_block - qp * span
        if offset + width <= half:
            return tset.s_block(2 * qp), qp * span
        assert offset >= half, "quad straddles an S entry"
        return tset.s_block(2 * qp + 1), qp * span + half

    def _source_region(self, action, r0, r1, c0, c1) -> np.ndarray:
        if action.source == "matrix":
            return self.source.region(r0, r1, c0, c1)
        width = max(r1, c1) - min(r0, c0)
        entry, p0 = self._covering_s_entry(action.cid, min(r0, c0), width)
        off = self.scheme.offsets
        base = off[p0]
        return entry[off[r0] - base : off[r1] - base, off[c0] - base : off[c1] - base]

    # -- step actions -------------------------------------------------------

    def invert_diagonals(self, action, stepid: int) -> None:
        tasks = []
        for p in range(self.scheme.n_blocks):
            tasks.append((((("minv"), p, p),), self._diag_task(action, p, stepid)))
            self.counters.inversions += 1
        self._run_batch(tasks)

    def _diag_task(self, action, p: int, stepid: int):
        def fn():
            block = self._source_region(action, p, p + 1, p, p + 1)
            out = np.empty_like(block)
            try:
                _leaf_invert(block, out)
            except SingularBlock as exc:
                raise SingularBlock(exc.block, path=exc.path, step=stepid, quad=p) from None
            self.minv.set_block(p, p, out)

        return fn

    def arrows_and_schur(self, action, stepid: int) -> None:
        lvl = action.sid
        tset_out = self.tsets[lvl]
        tasks = []
        for g in range(self.scheme.n_blocks // 2**lvl):
            targets = (
                ("t", lvl, "L", g),
                ("t", lvl, "R", g),
                ("t", lvl, "S", 2 * g),
                ("t", lvl, "S", 2 * g + 1),
            )
            tasks.append((targets, self._arrows_task(action, tset_out, g)))
            self.counters.multiplies += 2
            self.counters.reductions += 2
        self._run_batch(tasks)

    def _arrows_task(self, action, tset_out: ProvisionalSet, g: int):
        scheme = self.scheme
        first, mid, last = tset_out.spans(g)
        sizes_a = scheme.sizes[first:mid]
        sizes_d = scheme.sizes[mid:last]
        span_a = sum(sizes_a)
        span_d = sum(sizes_d)

        def fn():
            a = self._source_region(action, first, mid, first, mid)
            b = self._source_region(action, first, mid, mid, last)
            c = self._source_region(action, mid, last, first, mid)
            d = self._source_region(action, mid, last, mid, last)
            a_inv = BlockedView(self.minv.region(first, mid, first, mid), sizes_a, sizes_a)
            d_inv = BlockedView(self.minv.region(mid, last, mid, last), sizes_d, sizes_d)

            r = np.empty((span_a, span_d))
            fox_block_multiply(
                a_inv, BlockedView(b, sizes_a, sizes_d),
                BlockedView(r, sizes_a, sizes_d), negate=True,
            )
            l = np.empty((span_d, span_a))
            fox_block_multiply(
                d_inv, BlockedView(c, sizes_d, sizes_a),
                BlockedView(l, sizes_d, sizes_a), negate=True,
            )
            s_d = np.array(a, copy=True)
            fox_block_multiply(
                BlockedView(b, sizes_a, sizes_d), BlockedView(l, sizes_d, sizes_a),
                BlockedView(s_d, sizes_a, sizes_a), accumulate=True,
            )
            s_a = np.array(d, copy=True)
            fox_block_multiply(
                BlockedView(c, sizes_d, sizes_a), BlockedView(r, sizes_a, sizes_d),
                BlockedView(s_a, sizes_d, sizes_d), accumulate=True,
            )
            tset_out.store_r(g, r)
            tset_out.store_l(g, l)
            tset_out.store_s(2 * g, s_d)
            tset_out.store_s(2 * g + 1, s_a)

        return fn

    def assemble(self, action, stepid: int) -> None:
        self.invert_diagonals(action, stepid)  # Schur diagonal blocks
        for level in range(1, action.depth + 1):
            self.updown_pass(level, stepid)

    def updown_pass(self, level: int, stepid: int | None = None) -> None:
        """One assembly pass: extend the completed diagonal inverses of
        half-width 2**(level-1) blocks to full level-``level`` quads.

        Each quad takes two panel products, one per half:
        down ``minv[mid:last, first:mid] = L @ minv[first:mid, first:mid]``
        and up ``minv[first:mid, mid:last] = R @ minv[mid:last, mid:last]``.
        """
        tset = self.tsets[level]
        tasks = []
        for g in range(tset.n_quads):
            first, mid, last = tset.spans(g)
            down = tuple(("minv", r, c) for r in range(mid, last) for c in range(first, mid))
            up = tuple(("minv", r, c) for r in range(first, mid) for c in range(mid, last))
            tasks.append((down, self._panel_task(tset.l_block, g, (first, mid), (mid, last))))
            tasks.append((up, self._panel_task(tset.r_block, g, (mid, last), (first, mid))))
            self.counters.multiplies += 2
        self._run_batch(tasks)

    def _panel_task(self, panel_of, g: int, src: tuple[int, int], dst: tuple[int, int]):
        """minv[dst, src] = panel @ minv[src, src], summed over the inner
        index ascending, where panel is ``panel_of(g)`` (L = -D^-1 C for the
        down half, R = -A^-1 B for the up half)."""

        def fn():
            panel = panel_of(g)
            done = self.minv.region(src[0], src[1], src[0], src[1])
            out = np.zeros((panel.shape[0], done.shape[1]))
            _mm_acc(panel, done, out)
            self.minv.set_region(dst[0], dst[1], src[0], src[1], out)

        return fn

    def execute(self, plan: StepPlan) -> None:
        action = plan.action
        if action.kind == INVERT_DIAGONALS:
            self.invert_diagonals(action, plan.stepid)
        elif action.kind == ARROWS_AND_SCHUR:
            self.arrows_and_schur(action, plan.stepid)
        else:
            self.assemble(action, plan.stepid)


def _leaf_invert(block: np.ndarray, out: np.ndarray) -> None:
    """Diagonal blocks up to order 4 invert analytically; larger
    user-chosen blocks fall back to the pivot-A recursion."""
    if block.shape[0] <= 4:
        invert_small(block, out)
    else:
        from .recursive import invertor_by_a

        out[...], _ = invertor_by_a(block)


def assemble_updown(
    level: int,
    minv,
    t_sets: dict[int, ProvisionalSet],
    workers: int = 1,
    counters: OpCounters | None = None,
) -> None:
    """Run one assembly pass directly (the step interpreter's pass ``level``).

    ``minv`` may be a BlockMatrix or a raw block store holding completed
    diagonal-region inverses of half the quad width; L and R blocks must be
    present in ``t_sets[level]``.
    """
    store = minv.store if isinstance(minv, BlockMatrix) else minv
    counters = counters if counters is not None else OpCounters()
    eng = _Engine(store.scheme, store, store, t_sets, resolve_workers(workers), counters)
    try:
        eng.updown_pass(level)
    finally:
        eng.close()


def run_inversion(
    m,
    workers: int | None = None,
    checkpoint_dir=None,
    file_backed: bool = False,
    sizes=None,
    stop_after_step: int | None = None,
    counters: OpCounters | None = None,
) -> BlockMatrix:
    """Invert a partitioned matrix through the full step schedule.

    ``m`` is a square ndarray or a BlockMatrix.  With ``checkpoint_dir`` the
    state is saved after every step and an existing checkpoint for the same
    input is resumed; ``file_backed`` keeps all blocks in files under that
    directory instead of in memory.  ``stop_after_step`` ends the run early
    at a step boundary (for staged execution across sessions).

    Counter semantics are per logical block operation: one inversion per
    diagonal block, two products and two Schur reductions per quad, and two
    products per quad per assembly pass.
    """
    workers = resolve_workers(workers)
    if isinstance(m, BlockMatrix):
        source = m
        scheme = m.scheme
        if sizes is not None and tuple(int(s) for s in sizes) != scheme.sizes:
            raise SchemeMismatch("explicit sizes differ from the BlockMatrix scheme")
    else:
        m = as_matrix(m)
        scheme = partition_from_sizes(sizes) if sizes is not None else make_partition(m.shape[0])
        source = BlockMatrix.from_dense(m, scheme)
    counters = counters if counters is not None else OpCounters()

    dense_input = source.to_dense()
    check_finite(dense_input)
    input_hash = input_fingerprint(dense_input, scheme)
    n_steps = total_steps(scheme.n_blocks)

    start = 1
    if checkpoint_dir is not None and (os.path.isdir(checkpoint_dir)) and os.path.exists(
        os.path.join(checkpoint_dir, "meta.json")
    ):
        meta = checkpoint_load(checkpoint_dir)
        checkpoint_matches(meta, scheme, input_hash)
        minv = load_minv_store(checkpoint_dir, scheme, file_backed)
        tsets = load_tsets(checkpoint_dir, scheme, file_backed)
        start = meta["stepid"] + 1
    else:
        minv, tsets = fresh_state(checkpoint_dir, scheme, file_backed)

    eng = _Engine(scheme, source.store, minv, tsets, workers, counters)
    try:
        for stepid in range(start, n_steps + 1):
            eng.execute(step_plan(stepid, scheme.n_blocks))
            if checkpoint_dir is not None:
                checkpoint_save(checkpoint_dir, scheme, minv, tsets, stepid, input_hash)
            if stop_after_step is not None and stepid >= stop_after_step:
                break
    finally:
        eng.close()
    return BlockMatrix(scheme, minv)
