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
stacks - strided views of the stores' arrays - and runs every arrows
product and every assembly half as one ``fox_block_multiply`` call, a
stack of blocked products in broadcast-stage (Fox) order (Fox, Otto &
Hey, "Matrix algorithms on a hypercube I", Parallel Computing 4, 1987);
when a quad's two halves have the same block sizes, the A-half and D-half
products (R and L, S_D and S_A, the up and down halves) share one call.
The 2x2 leaf inverses of a group of more than four blocks are one stacked
``core._inv2_stack`` call, and leaves larger than 4 one run of the
pivot-A recursion on the group's stack (``recursive._Stacks``), which
inverts a stack of orders up to 10 and at most 64 rows in all, such as 8
blocks of order 8, member by member through its compiled list nodes; 3x3 and
4x4 leaves, up to four 2x2 leaves, and a stack with a singular member are
inverted one block at a time.  Each element still receives the same
IEEE-754 operations in the same order as with one product per quad, so
the stacking changes no bit of the result.

The schedule is compiled once per partition (``_schedule``, the one
per-partition cache), with the groups of ``_layout`` and their small Fox
orders: each step is a short list of calls, and each call one task per
group, whose operands are numbered views - a part (X, Y or QQ) of a group
in the source, the inverse or a provisional set.  The compiler checks the
step order once, so that no step reads a provisional set before an arrows
step writes it; a run binds every numbered view to a strided view of its
store up front and marks nothing.  A step calls its tasks in turn, in
the calling thread.  The decoded steps are cached as well (``step_plan``).

Within a step every task writes only inside its own items' quads, through
one strided stack per operand, and ``_layout`` checks once per partition
that no two items of a level share a diagonal block, so no write of a
stack lands on another item's blocks.  A run without a checkpoint
directory keeps every store in memory.  A checkpointed run maps the
inverse and the provisional sets onto its checkpoint's store files and
works on them through the same views, so a save at a step boundary only
records a hash and the step, and the run resumes from any boundary.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    OpCounters,
    _inv2_stack,
    _mm_acc_ordered,
    check_result,
    check_square,
    invert_small,
)
from .errors import (
    BlockShapeMismatch,
    DimensionMismatch,
    InvalidWorkers,
    MalformedLoopid,
    MissingCheckpointDir,
    MissingProvisionalData,
    OutOfRange,
    OverlappingWriteTargets,
    SingularBlock,
)
from .partition import _is_int, make_partition, partition_from_sizes
from .recursive import _Arrays, _invert_stacked, _single_pivot
from .storage import (
    DiagonalRun,
    MemoryBlockStore,
    ProvisionalSet,
    _band,
    assign,
    checkpoint_load,
    checkpoint_matches,
    checkpoint_save,
    fresh_state,
    input_fingerprint,
    load_minv_store,
    load_tsets,
    stacks,
)

INVERT_DIAGONALS = "invert_diagonals"
ARROWS_AND_SCHUR = "arrows_and_schur"
SCHUR_DIAG_AND_ASSEMBLE = "schur_diag_and_assemble"


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
# Fox-style blocked products
# ---------------------------------------------------------------------------


def _fox_starts(row_sizes: tuple, inner_sizes: tuple) -> np.ndarray | None:
    """The inner index each row of a blocked product starts its Fox order
    at: a's block column ``i % nb`` for the rows of block row i.  None for
    one inner block, which is plain ascending order."""
    nb = len(inner_sizes)
    if nb == 1:
        return None
    inner_offsets = list(itertools.accumulate(inner_sizes, initial=0))
    return np.repeat([inner_offsets[i % nb] for i in range(len(row_sizes))], row_sizes)


def _order(starts: np.ndarray | None, inner: int) -> np.ndarray | None:
    """The (inner, rows) order ``_mm_acc_ordered`` takes: every row runs
    through the inner indices from its start onwards, wrapping at the end."""
    if starts is None:
        return None
    return (np.arange(inner)[:, None] + starts) % inner


# Fox orders of at most this many entries are expanded once, with the
# layout; a larger one is expanded per call, since its product then costs
# at least 32 times as much as the expansion.
_KEPT_ORDER = 1024


def _fox(row_sizes: tuple, inner_sizes: tuple):
    """The Fox order of a blocked product as ``_mm_acc_ordered`` takes it
    (None for one inner block), or, when it has more than ``_KEPT_ORDER``
    entries, its ``(starts, inner)`` for :func:`_expand`."""
    starts = _fox_starts(row_sizes, inner_sizes)
    inner = sum(inner_sizes)
    if starts is None or inner * len(starts) <= _KEPT_ORDER:
        return _order(starts, inner)
    return starts, inner


def _expand(fox):
    return _order(*fox) if type(fox) is tuple else fox


def fox_block_multiply(a, b, out, fox=None, negate=False) -> None:
    """out[i] += (+-1) * a[i] @ b[i] for a stack of blocked products, in
    broadcast-stage order: the rows of a's block row r sum the inner index
    from a's block column ``r % nb`` onwards, wrapping at the end (``fox``,
    from :func:`_fox`; ascending for None).  The engine's only product."""
    _mm_acc_ordered(a, b, out, _expand(fox), negate)


# ---------------------------------------------------------------------------
# Step layouts: the blocks or quads of a step, grouped for stacked kernels
# ---------------------------------------------------------------------------


class _Group(DiagonalRun):
    """A run of diagonal blocks (level 0) or of level-``level`` quads that
    one step handles with stacked kernel calls.

    For quads, ``fox_rl`` holds the Fox orders of the (R, L) products and
    ``fox_s`` those of the (S_D, S_A) products, one per side (see
    :func:`_fox`).
    """

    def __init__(self, scheme, level, spans):
        super().__init__(scheme, level, spans)
        if level:
            first, mid, last = spans[0]
            sizes_a, sizes_d = scheme.sizes[first:mid], scheme.sizes[mid:last]
            self.fox_rl = (_fox(sizes_a, sizes_a), _fox(sizes_d, sizes_d))
            self.fox_s = (_fox(sizes_a, sizes_d), _fox(sizes_d, sizes_a))


def _groups(scheme, level, spans) -> tuple[_Group, ...]:
    """Group items by block-size signature, then split each group into
    runs at evenly spaced offsets; groups come in order of their first item.

    A step's task writes only inside its own items' quads: a diagonal
    block, the set's L, R and S blocks where its quad sits, or the quad's
    off-diagonal halves of the inverse, all of a group's items through one
    strided stack.  A stack whose items shared blocks would let one item's
    write overwrite another's within a single kernel call.  So the spans
    must ascend without sharing a diagonal block and the runs cover each
    item once; OverlappingWriteTargets otherwise.
    """
    end = 0
    for span in spans:
        if not end <= span[0] <= span[1] <= span[2]:
            raise OverlappingWriteTargets(f"level-{level} span {span} overlaps the one before it")
        end = span[2]
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
    if sorted(item for run in runs for item in run) != list(range(len(spans))):
        raise OverlappingWriteTargets(f"level-{level} groups do not cover each item once")
    return tuple(_Group(scheme, level, [spans[i] for i in run]) for run in runs)


def _layout(scheme) -> dict[int, tuple[_Group, ...]]:
    """The groups of every step shape of a partition: level 0 holds the
    diagonal blocks, level l >= 1 the level-l quads."""
    return {level: _groups(scheme, level, scheme.quads(level)) for level in range(scheme.k + 1)}


# Stacks of at most this many 2x2 leaves are inverted block by block:
# ``_inv2_stack`` costs about as much as 5 calls of the per-block leaf,
# with the same bits and the same first singular block.
_PER_BLOCK_2X2 = 4


class _Schedule:
    """A partition's steps compiled once and shared by every run on it.

    ``steps[stepid - 1]`` holds the step's calls, each an ``_Engine``
    method and its arguments (its source as a store slot); an assembly
    step is its diagonal inversions followed by one call per assembly pass.
    A call runs one task per group, and a task names its operands by index
    into ``views``: each view any step reads or writes, a part of a group
    in one store, as its store slot and the ``DiagonalRun.specs`` of its
    stacks.  Slot 0 is the source, slot 1 the inverse and slot 1 + l
    provisional set l, laid out as ``geometry[slot]`` = (base, ld) says.
    ``leaves[slot]``, ``arrows[slot, level]`` and ``updown[level]`` hold
    the tasks of each call: (group, operand indices).

    ``actions`` are the decoded steps in run order.  A step that reads set
    l (the S blocks of its source, or an assembly pass's L and R) before an
    arrows step writes it raises MissingProvisionalData here, before a run
    touches any store, so a run need not mark what it writes.
    """

    def __init__(self, scheme, actions):
        layout = _layout(scheme)
        self.scheme = scheme
        self.geometry = [(0, scheme.m_n)] * 2 + [_band(scheme, l)[1:] for l in range(1, scheme.k + 1)]
        self.views = []
        index = {}

        def tasks(level, operands):
            out = []
            for grp in layout[level]:
                ids = []
                for slot, part in operands:
                    if (slot, grp, part) not in index:
                        index[slot, grp, part] = len(self.views)
                        self.views.append((slot, grp.specs(part, *self.geometry[slot])))
                    ids.append(index[slot, grp, part])
                out.append((grp, tuple(ids)))
            return tuple(out)

        written = {0}  # by slot: the source, and each set an arrows step has written

        def read(slot, blocks):
            if slot not in written:
                raise MissingProvisionalData(f"step {stepid} reads T_{slot - 1} {blocks} before it is written")

        self.leaves, self.arrows, self.updown = {}, {}, {}
        self.steps = []
        for stepid, action in enumerate(actions, 1):
            src = 0 if action.cid is None else 1 + action.cid
            read(src, "S")
            if action.kind == ARROWS_AND_SCHUR:
                sid = action.sid
                if (src, sid) not in self.arrows:
                    self.arrows[src, sid] = tasks(
                        sid, [(src, "X"), (src, "Y"), (1, "X"), (1 + sid, "X"), (1 + sid, "Y")]
                    )
                self.steps.append(((_Engine.arrows_and_schur, (src, sid)),))
                written.add(1 + sid)
                continue
            if src not in self.leaves:
                self.leaves[src] = tasks(0, [(src, "QQ"), (1, "QQ")])
            for level in range(1, action.depth + 1):
                read(1 + level, "L and R")
                if level not in self.updown:
                    self.updown[level] = tasks(level, [(1 + level, "Y"), (1, "X"), (1, "Y")])
            passes = [(_Engine.updown_pass, (level,)) for level in range(1, action.depth + 1)]
            self.steps.append(((_Engine.invert_diagonals, (src,)), *passes))


@functools.lru_cache(maxsize=16)
def _schedule(scheme) -> _Schedule:
    """The partition's compiled schedule: the engine's one per-partition cache."""
    n = scheme.n_blocks
    return _Schedule(scheme, [decode_step(loopid_for_step(s, n)) for s in range(1, total_steps(n) + 1)])


# ---------------------------------------------------------------------------
# The step interpreter
# ---------------------------------------------------------------------------


class _Engine:
    """Runs a partition's compiled steps (``_Schedule``) as stacked kernel
    calls, one task per group of a step, in turn in the calling thread.

    ``stores`` are the source, the inverse and the provisional sets by
    level, in the schedule's slots, which the groups read and write as
    stacks (see :class:`~blockinv.storage.DiagonalRun`).  The engine binds
    every view of the schedule to one strided view of its store when it is
    made, so a step only looks its views up and calls kernels: the
    schedule has checked the order of the steps, and nothing is marked.
    """

    def __init__(self, schedule, stores, counters):
        self.schedule = schedule
        self.n_blocks = schedule.scheme.n_blocks
        self.counters = counters
        for store, geometry in zip(stores, schedule.geometry):
            if store.strided[1:] != geometry:
                raise BlockShapeMismatch(f"store laid out as {store.strided[1:]}, not {geometry}")
        self.views = [stacks(stores[slot].strided[0], specs) for slot, specs in schedule.views]

    def execute(self, plan: StepPlan) -> None:
        for method, args in self.schedule.steps[plan.stepid - 1]:
            method(self, *args, plan.stepid)

    # -- tasks --------------------------------------------------------------

    def _run(self, run, tasks) -> list:
        """``run(group, *operands)`` for each task in turn; returns the
        results in task order."""
        views = self.views
        return [run(grp, *[views[i] for i in ids]) for grp, ids in tasks]

    @staticmethod
    def _pair_products(grp, a, b, out, fox=(None, None), negate=False) -> None:
        """out[s] += (+-1) * a[s] @ b[s] for both sides s of pairs, summed
        in the Fox order ``fox[s]`` (ascending for None): one stacked call
        when the halves are alike.  Each call goes through the module's
        ``fox_block_multiply``, so a wrapper installed there sees it."""
        if grp.paired:
            fox_block_multiply(a, b, out, fox[0], negate)
        else:
            for side in (0, 1):
                fox_block_multiply(a[side], b[side], out[side], fox[side], negate)

    def _leaves(self, grp, blocks, inv):
        """Invert the group's blocks; (p, SingularBlock) of the first
        failure, or None."""
        if grp.ha == 2 and len(grp) > _PER_BLOCK_2X2:
            # the inverse's blocks are written only when none is singular
            singular = _inv2_stack(blocks, inv)
            if singular.any():
                return grp.items[int(np.argmax(singular))], SingularBlock("A")
            return None
        out = np.empty(blocks.shape)
        if grp.ha <= 4 or _invert_stacked(_single_pivot, blocks, out) is None:
            # one block at a time, for the label of the first failure
            for p, block, block_out in zip(grp.items, blocks, out):
                try:
                    _leaf_invert(block, block_out)
                except SingularBlock as exc:
                    return p, exc
        inv[...] = out
        return None

    def _arrows(self, grp, x, off, inv, schur_out, panels_out):
        """x = (A, D), off = (B, C), inv = (A^-1, D^-1); into the set's
        (S_D, S_A) and (R, L)."""
        panels = _fresh(off)
        self._pair_products(grp, inv, off, panels, grp.fox_rl, negate=True)  # (R, L)
        assign(panels_out, panels)
        del panels  # read back from the set: one temporary fewer at the peak
        schur = _fresh(x, copy=True)
        self._pair_products(grp, off, panels_out[::-1], schur, grp.fox_s)  # (A + B L, D + C R)
        assign(schur_out, schur)

    def _updown(self, grp, panels, done, out_y):
        """panels = (R, L), done = the completed (A^-1, D^-1); into the
        (B, C) halves of the inverse."""
        out = _fresh(panels)
        self._pair_products(grp, panels, done[::-1], out)  # (R D^-1, L A^-1)
        assign(out_y, out)

    # -- step actions -------------------------------------------------------

    def invert_diagonals(self, src: int, stepid: int) -> None:
        """Invert the diagonal blocks of the source in slot ``src`` (the
        input, or the Schur complements of a provisional set) into the
        inverse."""
        self.counters.inversions += self.n_blocks
        failures = [f for f in self._run(self._leaves, self.schedule.leaves[src]) if f]
        if failures:
            p, exc = min(failures, key=lambda f: f[0])
            raise SingularBlock(exc.block, path=exc.path, step=stepid, quad=p)

    def arrows_and_schur(self, src: int, sid: int, stepid: int) -> None:
        """R = -A^-1 B, L = -D^-1 C, S_D = A + B L and S_A = D + C R for
        every quad of level ``sid`` of the source in slot ``src``, into
        provisional set ``sid``."""
        n_quads = self.n_blocks >> sid
        self.counters.multiplies += 2 * n_quads
        self.counters.reductions += 2 * n_quads
        self._run(self._arrows, self.schedule.arrows[src, sid])

    def updown_pass(self, level: int, stepid: int) -> None:
        """One assembly pass: extend the completed diagonal inverses of
        half-width 2**(level-1) blocks to full level-``level`` quads.

        Each quad takes two panel products, one per half, summed over the
        inner index ascending: down ``minv[mid:last, first:mid] = L @
        minv[first:mid, first:mid]`` and up ``minv[first:mid, mid:last] =
        R @ minv[mid:last, mid:last]``, with L = -D^-1 C and R = -A^-1 B
        from provisional set ``level``.
        """
        self.counters.multiplies += 2 * (self.n_blocks >> level)
        self._run(self._updown, self.schedule.updown[level])


def _fresh(like, copy: bool = False):
    """New C-ordered zeros shaped like a stack or a pair of stacks, or
    copies of them.  The kernels sum into these, which numpy updates
    several times faster than strided views of a store."""
    if isinstance(like, np.ndarray):
        return like.copy() if copy else np.zeros(like.shape)
    return [x.copy() if copy else np.zeros(x.shape) for x in like]


def _leaf_invert(block: np.ndarray, out: np.ndarray) -> None:
    """Diagonal blocks up to order 4 invert analytically; larger
    user-chosen blocks by the pivot-A recursion, whose counters the engine
    drops.  Its input check is not run: a Schur block with Inf or NaN
    entries is no malformed input, and the run ends in SingularBlock or in
    ``run_inversion``'s check of the result."""
    if block.shape[0] <= 4:
        invert_small(block, out)
    else:
        _Arrays(OpCounters(), formula=_single_pivot).invert(block, [], 0, out)


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
    without a directory it raises MissingCheckpointDir.  ``workers`` is
    accepted for older callers and changes nothing: every step runs its
    tasks in the calling thread; anything but None or an integer >= 1
    raises InvalidWorkers.  ``sizes`` that do not sum to the input's order
    raise DimensionMismatch.  ``stop_after_step`` ends the run early at a
    step boundary (for staged execution across sessions); anything but an
    integer >= 1 raises OutOfRange before any step runs.  A finished run whose inverse holds NaN or Inf entries
    raises NonFiniteResult.

    Counter semantics are per logical block operation: one inversion per
    diagonal block, two products and two Schur reductions per quad, and two
    products per quad per assembly pass.
    """
    if workers is not None and not (_is_int(workers) and workers >= 1):
        raise InvalidWorkers(f"workers must be an integer >= 1, got {workers!r}")
    if stop_after_step is not None and not (_is_int(stop_after_step) and stop_after_step >= 1):
        raise OutOfRange(f"stop_after_step must be an integer >= 1, got {stop_after_step!r}")
    m = check_square(m)
    if sizes is None and m.shape[0] == 1:
        sizes = [1]  # the default partition starts at order 2
    scheme = partition_from_sizes(sizes) if sizes is not None else make_partition(m.shape[0])
    if scheme.m_n != m.shape[0]:
        raise DimensionMismatch(f"sizes sum to {scheme.m_n}, not the input's order {m.shape[0]}")
    schedule = _schedule(scheme)  # checks the step order before any store is made
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

    stores = [source, minv] + [tsets[level] for level in range(1, scheme.k + 1)]
    eng = _Engine(schedule, stores, counters)
    for stepid in range(start, n_steps + 1):
        eng.execute(step_plan(stepid, scheme.n_blocks))
        if checkpoint_dir is not None:
            checkpoint_save(checkpoint_dir, scheme, stepid, input_hash)
        if stop_after_step is not None and stepid >= stop_after_step:
            break
    if stop_after_step is None or stop_after_step >= n_steps:
        check_result(minv.data)
    return minv
