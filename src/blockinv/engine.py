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

A step runs its diagonal blocks or quads in groups: items with the same
block sizes at evenly spaced diagonal offsets, one group per step for
power-of-two orders under the default partition.  Each group is a
``storage.DiagonalRun``: it reads its operands as (items, rows, cols)
stacks - strided views of the stores' arrays - and runs every Fox product
and every assembly half as one stacked ``core._mm_acc_ordered`` call;
when a quad's two halves have the same block sizes, the A-half and D-half
products (R and L, S_D and S_A, the up and down halves) share one call.
Provisional sets are written only through their own ``store_arrows``.  The 2x2 leaf inverses
of a group are one stacked ``core._inv2_stack`` call; larger leaves are
inverted one by one inside the group's task.  The groups, with the row
starts of their Fox orders, are built once per partition (``_layout``);
the decoded steps are cached too (``step_plan``).  Each element still
receives the same IEEE-754 operations in the same order as with one
product per quad, so the stacking changes no bit of the result.

Within a step every task - a group, or a contiguous chunk of one when
there are several workers - writes a pre-assigned disjoint set of blocks,
so the result is bitwise identical for any worker count; ``stepid`` is the
only synchronization key.  A run without a checkpoint directory keeps every
store in memory.  A checkpointed run maps the inverse and the provisional
sets onto its checkpoint's store files and works on them through the same
views, so a save at a step boundary only records a hash and the step, and
the run resumes from any boundary.
"""

from __future__ import annotations

import functools
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    OpCounters,
    _inv2_stack,
    _mm_acc_ordered,
    check_square,
    invert_small,
)
from .errors import (
    BlockShapeMismatch,
    InvalidWorkers,
    MalformedLoopid,
    MissingCheckpointDir,
    OutOfRange,
    OverlappingWriteTargets,
    SingularBlock,
)
from .partition import make_partition, partition_from_sizes
from .storage import (
    DiagonalRun,
    MemoryBlockStore,
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
        if isinstance(explicit, bool) or not isinstance(explicit, numbers.Integral):
            raise InvalidWorkers(f"workers must be an integer, got {explicit!r}")
        if explicit < 1:
            raise InvalidWorkers(f"workers must be >= 1, got {explicit}")
        return int(explicit)
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


@functools.lru_cache(maxsize=1024)
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


def _fox_starts(row_sizes: tuple, inner_sizes: tuple) -> np.ndarray | None:
    """The inner index each row of a blocked product starts its Fox order
    at: a's block column ``i % nb`` for the rows of block row i.  None for
    one inner block, which is plain ascending order."""
    nb = len(inner_sizes)
    if nb == 1:
        return None
    inner_offsets = _offsets(inner_sizes)
    return np.repeat([inner_offsets[i % nb] for i in range(len(row_sizes))], row_sizes)


def _order(starts: np.ndarray | None, inner: int) -> np.ndarray | None:
    """The (inner, rows) order ``_mm_acc_ordered`` takes: every row runs
    through the inner indices from its start onwards, wrapping at the end."""
    if starts is None:
        return None
    return (np.arange(inner)[:, None] + starts) % inner


def _fox_order(row_sizes: tuple, inner_sizes: tuple) -> np.ndarray | None:
    """Fox summation order of a blocked product, as ``_mm_acc_ordered`` takes it."""
    return _order(_fox_starts(row_sizes, inner_sizes), sum(inner_sizes))


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
    through one ordered kernel call on the calling thread, the same call
    the step engine makes for a whole stack of quads.
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
    _mm_acc_ordered(
        a.data[None], b.data[None], out.data[None], _fox_order(a.row_sizes, a.col_sizes), negate
    )
    if counters is not None:
        counters.multiplies += 1
        if accumulate:
            counters.reductions += 1


# ---------------------------------------------------------------------------
# Step layouts: the blocks or quads of a step, grouped for stacked kernels
# ---------------------------------------------------------------------------


class _Group(DiagonalRun):
    """A run of diagonal blocks (level 0) or of level-``level`` quads that
    one step handles with stacked kernel calls.

    ``items`` holds the block or quad index of each item.  ``targets``
    maps each kind of task to ``(ids, per_item)``: the write-target ids of
    all items in item order, ``per_item`` of them per item.  ``fox`` holds
    the Fox order starts and inner widths of the four arrows products (R,
    L, S_D, S_A) of quads.
    """

    def __init__(self, scheme, level, spans):
        super().__init__(scheme, spans)
        self.items = tuple(first >> level for first, _, _ in spans)
        ids = {"diag": [], "arrows": [], "updown": []}
        for item, (first, mid, last) in zip(self.items, spans):
            if level == 0:
                ids["diag"].append(("minv", item, item))
                continue
            ids["arrows"] += [
                ("t", level, "L", item),
                ("t", level, "R", item),
                ("t", level, "S", 2 * item),
                ("t", level, "S", 2 * item + 1),
            ]
            # both off-diagonal halves of an assembly pass
            ids["updown"] += [("minv", r, c) for r in range(mid, last) for c in range(first, mid)]
            ids["updown"] += [("minv", r, c) for r in range(first, mid) for c in range(mid, last)]
        self.targets = {kind: (tuple(v), len(v) // len(spans)) for kind, v in ids.items() if v}
        if level:
            first, mid, last = spans[0]
            sizes_a, sizes_d = scheme.sizes[first:mid], scheme.sizes[mid:last]
            # the orders themselves are (inner, rows) index arrays, as large
            # as the products; they are expanded per call, not kept
            self.fox = (
                (_fox_starts(sizes_a, sizes_a), self.ha),
                (_fox_starts(sizes_d, sizes_d), self.hd),
                (_fox_starts(sizes_a, sizes_d), self.hd),
                (_fox_starts(sizes_d, sizes_a), self.ha),
            )


def _groups(scheme, level, spans) -> tuple[_Group, ...]:
    """Group items by block-size signature, then split each group into
    runs at evenly spaced offsets; groups come in order of their first item."""
    off = scheme.offsets
    by_sig: dict[tuple, list[int]] = {}
    for item, (first, mid, last) in enumerate(spans):
        by_sig.setdefault((scheme.sizes[first:mid], scheme.sizes[mid:last]), []).append(item)
    runs = []
    for members in by_sig.values():
        run = [members[0]]
        for item in members[1:]:
            if len(run) > 1 and (
                off[spans[item][0]] - off[spans[run[-1]][0]]
                != off[spans[run[1]][0]] - off[spans[run[0]][0]]
            ):
                runs.append(run)
                run = []
            run.append(item)
        runs.append(run)
    runs.sort()
    return tuple(_Group(scheme, level, [spans[i] for i in run]) for run in runs)


@functools.lru_cache(maxsize=16)
def _layout(scheme) -> dict[int, tuple[_Group, ...]]:
    """The groups of every step shape of a partition, built once and shared
    by every run on it: level 0 holds the diagonal blocks, level l >= 1 the
    level-l quads."""
    return {level: _groups(scheme, level, scheme.quads(level)) for level in range(scheme.k + 1)}


# ---------------------------------------------------------------------------
# The step interpreter
# ---------------------------------------------------------------------------


class _Engine:
    """Runs steps as stacked kernel calls, one task per group of a step
    (or per contiguous chunk of a group, one for each worker).

    The source, the inverse and the provisional sets are all stores of
    blocks of the matrix, which the groups read and write as stacks (see
    :class:`~blockinv.storage.DiagonalRun`); a provisional set is written
    only through its own ``store_arrows``.
    """

    def __init__(self, scheme, source_store, minv, tsets, workers, counters):
        self.scheme = scheme
        self.source = source_store
        self.minv = minv
        self.tsets = tsets
        self.counters = counters
        self.workers = workers
        self.layout = _layout(scheme)
        self.pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None

    def close(self):
        if self.pool is not None:
            self.pool.shutdown(wait=True)

    # -- task batches -------------------------------------------------------

    def _run_batch(self, tasks) -> list:
        """tasks: [(write_target_ids, fn)]; targets must be pairwise
        disjoint.  Returns the tasks' results in task order."""
        seen = set()
        for targets, _ in tasks:
            seen.update(targets)
        if len(seen) != sum(len(targets) for targets, _ in tasks):
            seen = set()
            for targets, _ in tasks:
                for t in targets:
                    if t in seen:
                        raise OverlappingWriteTargets(f"write target {t} claimed by two tasks")
                    seen.add(t)
        if self.pool is None:
            return [fn() for _, fn in tasks]
        return [future.result() for future in [self.pool.submit(fn) for _, fn in tasks]]

    def _tasks(self, groups, kind, run) -> list:
        """One task per group, or per contiguous chunk of a group when there
        are several workers: ``run(group, lo, hi)`` covers items [lo, hi)."""
        tasks = []
        for grp in groups:
            ids, per_item = grp.targets[kind]
            q = len(grp)
            n = min(self.workers, q)
            for c in range(n):
                lo, hi = c * q // n, (c + 1) * q // n
                tasks.append((ids[lo * per_item : hi * per_item], functools.partial(run, grp, lo, hi)))
        return tasks

    @staticmethod
    def _pair_products(grp, a, b, out, fox=None, negate=False) -> None:
        """out[s] += (+-1) * a[s] @ b[s] for both sides s of pairs, summed
        in the Fox order ``fox[s]`` (ascending without ``fox``): one stacked
        call when the halves are alike."""
        sides = 1 if grp.paired else 2
        orders = [_order(*fox[side]) if fox else None for side in range(sides)]
        if grp.paired:
            _mm_acc_ordered(a, b, out, orders[0], negate)
        else:
            for side in (0, 1):
                _mm_acc_ordered(a[side], b[side], out[side], orders[side], negate)

    def _source(self, action):
        """The matrix a step reads: the input, or the Schur complements
        (the S blocks) of provisional set ``cid``."""
        if action.source == "matrix":
            return self.source
        tset = self.tsets[action.cid]
        tset.require("S")
        return tset

    # -- step actions -------------------------------------------------------

    def invert_diagonals(self, action, stepid: int) -> None:
        src = self._source(action)

        def run(grp, lo, hi):
            """Invert items [lo, hi); (p, SingularBlock) of the first failure, or None."""
            blocks = grp.read(src, lo, hi, "QQ")
            out = np.empty(blocks.shape)
            if grp.ha == 2:
                singular = _inv2_stack(blocks, out)
                if singular.any():
                    return grp.items[lo + int(np.argmax(singular))], SingularBlock("A")
            else:
                for i in range(hi - lo):
                    try:
                        _leaf_invert(blocks[i], out[i])
                    except SingularBlock as exc:
                        return grp.items[lo + i], exc
            grp.write(self.minv, lo, hi, "QQ", out)
            return None

        self.counters.inversions += self.scheme.n_blocks
        failures = [f for f in self._run_batch(self._tasks(self.layout[0], "diag", run)) if f]
        if failures:
            p, exc = min(failures, key=lambda f: f[0])
            raise SingularBlock(exc.block, path=exc.path, step=stepid, quad=p)

    def arrows_and_schur(self, action, stepid: int) -> None:
        """R = -A^-1 B, L = -D^-1 C, S_D = A + B L and S_A = D + C R for
        every quad of level ``sid``, into provisional set ``sid``."""
        src = self._source(action)
        tset_out = self.tsets[action.sid]

        def run(grp, lo, hi):
            x = grp.read(src, lo, hi, "X")  # (A, D)
            off = grp.read(src, lo, hi, "Y")  # (B, C)
            inv = grp.read(self.minv, lo, hi, "X")  # (A^-1, D^-1)
            panels = _fresh(off)
            self._pair_products(grp, inv, off, panels, grp.fox[:2], negate=True)  # (R, L)
            schur = _fresh(x, copy=True)
            self._pair_products(grp, off, panels[::-1], schur, grp.fox[2:])  # (A + B L, D + C R)
            tset_out.store_arrows(grp, lo, hi, schur, panels)

        self.counters.multiplies += 2 * tset_out.n_quads
        self.counters.reductions += 2 * tset_out.n_quads
        self._run_batch(self._tasks(self.layout[action.sid], "arrows", run))

    def assemble(self, action, stepid: int) -> None:
        self.invert_diagonals(action, stepid)  # Schur diagonal blocks
        for level in range(1, action.depth + 1):
            self.updown_pass(level, stepid)

    def updown_pass(self, level: int, stepid: int | None = None) -> None:
        """One assembly pass: extend the completed diagonal inverses of
        half-width 2**(level-1) blocks to full level-``level`` quads.

        Each quad takes two panel products, one per half, summed over the
        inner index ascending: down ``minv[mid:last, first:mid] = L @
        minv[first:mid, first:mid]`` and up ``minv[first:mid, mid:last] =
        R @ minv[mid:last, mid:last]``, with L = -D^-1 C and R = -A^-1 B
        from provisional set ``level``.
        """
        tset = self.tsets[level]
        tset.require("L")
        tset.require("R")

        def run(grp, lo, hi):
            panels = tset.panels(grp, lo, hi)  # (R, L)
            done = grp.read(self.minv, lo, hi, "X")  # completed (A^-1, D^-1)
            out = _fresh(panels)
            self._pair_products(grp, panels, done[::-1], out)  # (R D^-1, L A^-1)
            grp.write(self.minv, lo, hi, "Y", out)  # the (B, C) halves of the inverse

        self.counters.multiplies += 2 * tset.n_quads
        self._run_batch(self._tasks(self.layout[level], "updown", run))

    def execute(self, plan: StepPlan) -> None:
        action = plan.action
        if action.kind == INVERT_DIAGONALS:
            self.invert_diagonals(action, plan.stepid)
        elif action.kind == ARROWS_AND_SCHUR:
            self.arrows_and_schur(action, plan.stepid)
        else:
            self.assemble(action, plan.stepid)


def _fresh(stacks, copy: bool = False):
    """New C-ordered zeros shaped like a stack or a pair of stacks, or
    copies of them.  The kernels sum into these, which numpy updates
    several times faster than strided views of a store."""
    if isinstance(stacks, np.ndarray):
        return stacks.copy() if copy else np.zeros(stacks.shape)
    return [x.copy() if copy else np.zeros(x.shape) for x in stacks]


def _leaf_invert(block: np.ndarray, out: np.ndarray) -> None:
    """Diagonal blocks up to order 4 invert analytically; larger
    user-chosen blocks fall back to the pivot-A recursion."""
    if block.shape[0] <= 4:
        invert_small(block, out)
    else:
        from .recursive import invertor_by_a

        out[...], _ = invertor_by_a(block)


def run_inversion(
    m,
    workers: int | None = None,
    checkpoint_dir=None,
    file_backed: bool = False,
    sizes=None,
    stop_after_step: int | None = None,
    counters: OpCounters | None = None,
):
    """Invert a square matrix through the full step schedule; returns the
    inverse's block store, which carries ``scheme`` and ``to_dense()``.

    The result is a ``MemoryBlockStore``.  Without ``checkpoint_dir`` every
    store is in memory.  With it every store but the source is mapped onto
    the directory's store files, a checkpoint is recorded after every step,
    and an existing checkpoint for the same input is resumed; the result's
    array is then mapped on ``<checkpoint_dir>/minv/inverse.f64``, which a
    later resume in the directory writes through and a fresh start replaces.
    ``file_backed`` is accepted for older callers and changes nothing;
    without a directory it raises MissingCheckpointDir.  ``stop_after_step``
    ends the run early at a step boundary (for staged execution across
    sessions).

    Counter semantics are per logical block operation: one inversion per
    diagonal block, two products and two Schur reductions per quad, and two
    products per quad per assembly pass.
    """
    workers = resolve_workers(workers)
    m = check_square(m)
    if sizes is None and m.shape[0] == 1:
        sizes = [1]  # the default partition starts at order 2
    scheme = partition_from_sizes(sizes) if sizes is not None else make_partition(m.shape[0])
    source = MemoryBlockStore(scheme, m)
    counters = counters if counters is not None else OpCounters()
    n_steps = total_steps(scheme.n_blocks)

    start = 1
    if checkpoint_dir is None:
        if file_backed:
            raise MissingCheckpointDir("file-backed mode needs a checkpoint directory")
        minv = MemoryBlockStore(scheme)
        tsets = {level: ProvisionalSet(scheme, level) for level in range(1, scheme.k + 1)}
    else:
        # only checkpoints are keyed by the input
        input_hash = input_fingerprint(source.data, scheme)
        if os.path.exists(os.path.join(checkpoint_dir, "meta.json")):
            meta = checkpoint_load(checkpoint_dir)
            checkpoint_matches(meta, scheme, input_hash)
            minv = load_minv_store(checkpoint_dir, scheme)
            tsets = load_tsets(checkpoint_dir, scheme)
            start = meta["stepid"] + 1
        else:
            minv, tsets = fresh_state(checkpoint_dir, scheme)

    eng = _Engine(scheme, source, minv, tsets, workers, counters)
    try:
        for stepid in range(start, n_steps + 1):
            eng.execute(step_plan(stepid, scheme.n_blocks))
            if checkpoint_dir is not None:
                checkpoint_save(checkpoint_dir, scheme, stepid, input_hash)
            if stop_after_step is not None and stepid >= stop_after_step:
                break
    finally:
        eng.close()
    return minv
