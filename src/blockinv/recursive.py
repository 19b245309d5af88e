"""Recursive blockwise inversion of arbitrary-order matrices.

Three procedures share the same algebra but differ in how they treat memory:

* ``invertor_by_a`` - pivot-A recursion into freshly allocated blocks,
  releasing intermediates as soon as they are dead.  Six block products and
  two reductions per recursion node.
* ``invertor_inplace_by_a`` - the same pivot recursion performed entirely
  inside the input matrix; the only counted auxiliary storage is one
  row-sized buffer shared by every level.  Its products and its two Schur
  updates per node also use a bounded n x 16 panel temporary inside the
  kernel (see :func:`blockinv.core.multiply_inplace_left` and
  :func:`blockinv.core.accumulate_inplace`).
* ``invertor_by_ad`` - inverts both diagonal pivots per node (four products,
  two Schur reductions).  The (A, D) and (S_D, S_A) inversions of a node
  are independent of each other, and so are its two products of each
  kind and its two complements; the stack backend runs each such pair as
  one call.  Its counters are those of the node-by-node run, which books
  its Schur workspaces per (position, size) once for every recursion
  generation, the way a preallocated scratch plan would.

Each formula is written once, over an operations object ``ops``:
``_single_pivot`` (which :mod:`blockinv.schur`'s A, D, B and C pivots and
the order-4 leaf run too), ``_combined_pivot`` (also schur's AD and BC
pairs) and ``_inplace``.  A formula asks ``ops`` for products, copies, Schur
complements and sub-inversions, and counts its work on ``ops.counters``.
The backend is chosen by order: ``_Arrays`` runs numpy blocks through
core's kernels; nodes of order ``_PY_RECURSION_MAX`` (10) and below run on
``_Rows``, Python lists with the same operations in the same order, so the
results are bitwise identical.  The backend owns what the callers differ
in: the sub-inversion and the label of its failure (the recursion's path,
or schur's relabelling of its ``invert_sub``) and the scratch counting (on
in the recursions, off in schur, and ``invertor_by_ad``'s Schur slots
booked in a ``_SchurPool``).

``_Stacks`` runs a formula on (k, h, h) stacks of k inputs at once:
``_combined_pivot`` for ``invertor_by_ad`` (k = 1), whose steps come in
pairs, so a pair of same-shaped operations is one call over 2k members
and order 256 makes 255 stacked sub-inversions and 381 kernel calls
where the node-by-node run visits 5,461 nodes; and ``_single_pivot`` for
the step engine's diagonal blocks larger than 4, one stack per group.
Its products sum into new storage and are copied into place.  It counts
nothing; ``_Count`` runs the formula on placeholders for the
node-by-node counts, once per order.  A singular block anywhere sends
the input back through ``_Arrays`` (``_invert_stacked`` returns None), so
failures are labelled in node-by-node order.

``invertor_with_fallback`` is the retry path: at every node it tries the
pivot formulas in the order A, D, B, C, on the fixed ``n // 2`` split, so
inputs that need another split or a row pivot (most permutations) still
raise ``AllPivots``.  The node (``_retry_node``) and its search
(``_pivot_search``) are written once over the backend.  Array nodes
(``_RetryArrays``) run the search through :mod:`blockinv.schur`'s
``invert_with_fallback``, with no output quadrants, so every product sums
into new storage; nodes of order ``_PY_RECURSION_MAX`` and below run it on
``_RetryRows``, the list backend with the same operations.  An all-zero
block raises at once, with the label and the ``nodes`` count of the search
it skips (every pivot of an all-zero block is all-zero, so each formula
fails before any product).

Odd orders split floor/ceil; recursion bottoms out at order <= 2, which is
inverted by the analytic 1x1/2x2 leaf in :mod:`blockinv.core` (its stacked
form on stacks).
Failures raise SingularBlock carrying the recursion path, e.g.
"A.SchurA.A"; a finite input whose intermediates over- or underflow
into a NaN or Inf inverse raises NonFiniteResult at the public exit.
Nothing here starts a thread.
"""

from __future__ import annotations

import functools
from operator import add

import numpy as np

from .core import (
    OpCounters,
    _inv2_stack,
    _inv_rows,
    accumulate_inplace,
    check_result,
    check_square,
    multiply,
    multiply_inplace_left,
    multiply_inplace_right,
    schur_accumulate,
)
from .errors import (
    AllPivotsSingular,
    DimensionMismatch,
    FormatError,
    ScratchTooSmall,
    SingularBlock,
)

LEAF_ORDER = 2


# Nodes up to this order run on the list backend: the numpy round trips
# per product dominate there.
_PY_RECURSION_MAX = 10


# Each formula takes the blocks of one 2x2 split and the output quadrants
# they map to (None on lists, whose results are new rows, and in schur's
# formulas, whose products sum into new storage), the path handed
# to sub-inversions and the split's diagonal offset, which only the Schur
# slots of ``invertor_by_ad`` use.  It returns the output blocks in the
# order of its output arguments.


def _single_pivot(ops, piv, row, col, opp, o_piv, o_row, o_col, o_opp, path, start=0,
                  labels=("A", "SchurA")):
    """Invert around ``piv``: six block products, two reductions.

    ``row`` and ``col`` are the pivot's neighbours in its block row and block
    column, ``opp`` the block opposite it; ``o_*`` are the output quadrants
    they map to.  With P the pivot, S = O - K P^-1 R is its Schur complement;
    -P^-1 R and K P^-1 are formed first and reused for every remaining term.
    ``labels`` name the pivot and its complement in the sub-inversions' path.
    """
    c = ops.counters
    p, q = ops.order(piv), ops.order(opp)
    ops.alloc(p * p)
    piv_inv = ops.invert(piv, path + [labels[0]])
    n_pr = ops.mul(piv_inv, row, True)  # -P^-1 R
    kp = ops.mul(col, piv_inv)  # K P^-1
    s = ops.mul(col, n_pr, into=opp)  # S = O - K P^-1 R, in new storage
    c.multiplies += 3
    c.reductions += 1
    ops.alloc(2 * p * q + 2 * q * q)  # -P^-1 R, K P^-1, S and S^-1
    s_inv = ops.invert(s, path + [labels[1]])
    ops.release(q * q)
    o_col = ops.mul(n_pr, s_inv, out=o_col)  # -P^-1 R S^-1
    o_piv = ops.mul(o_col, kp, True, into=piv_inv, out=o_piv)  # P^-1 + P^-1 R S^-1 K P^-1
    o_row = ops.mul(s_inv, kp, True, out=o_row)  # -S^-1 K P^-1
    c.multiplies += 3
    c.reductions += 1
    ops.release(2 * p * q + p * p + q * q)
    return o_piv, o_row, o_col, ops.put(s_inv, o_opp)


def _combined_pivot(ops, a, b, c, d, oa, ob, oc, od, path, start=0,
                    labels=("A", "D", "SchurD", "SchurA"), d_first=False):
    """Invert both pivots, A and D, then S_D = A - B D^-1 C and
    S_A = D - C A^-1 B straight onto the output diagonal: four products
    beyond the four sub-inversions.

    Each step is a pair of independent operations, one per pivot, issued
    together: the sequential backends run A's before D's (D's first when
    ``d_first``), the stack backend runs both as one call.  Each complement
    is a fused reduction in its pivot's place (``complement``).  ``labels``
    name A, D, S_D and S_A in the sub-inversions' path; schur's
    counter-diagonal pair runs this with C, D, A, B in the roles of A, B,
    C, D.  The pivot inverses' scratch is released as soon as they are used.
    """
    cnt = ops.counters
    p, q = ops.order(a), ops.order(d)
    ops.alloc(p * p + q * q)
    a_inv, d_inv = ops.invert_pair((a, path + [labels[0]], start, None),
                                   (d, path + [labels[1]], start + p, None), d_first)
    ops.alloc(2 * p * q)
    n_ab, n_dc = ops.mul_pair((a_inv, b, None), (d_inv, c, None), True)  # -A^-1 B, -D^-1 C
    cnt.multiplies += 2
    del a_inv, d_inv
    ops.release(p * p + q * q)
    s_d, s_a = ops.complement_pair(
        (a, b, n_dc, start, labels[2]),  # S_D = A - B D^-1 C
        (d, c, n_ab, start + p, labels[3]),  # S_A = D - C A^-1 B
    )
    cnt.reductions += 2
    oa, od = ops.invert_pair((s_d, path + [labels[2]], start, oa),
                             (s_a, path + [labels[3]], start + p, od))
    del s_d, s_a
    oc, ob = ops.mul_pair((n_ab, od, oc), (n_dc, oa, ob))  # -A^-1 B S_A^-1, -D^-1 C S_D^-1
    cnt.multiplies += 2
    ops.release(2 * p * q)
    return oa, ob, oc, od


def _inplace(ops, a, b, c, d, oa, ob, oc, od, path, start=0):
    """The pivot-A formula inside the blocks' own storage: on arrays every
    step overwrites one of ``a``, ``b``, ``c``, ``d`` (the ``o*`` views are
    the same storage).  Returns a, c, b, d, which hold the output quadrants
    that A, B, C, D map to.  A right product ``t <- t @ m`` on lists is
    ``_mm_rows(t, m)``: each element sums the same products in the same
    order, since IEEE products commute and ``(-x) * y == x * (-y)``."""
    cnt = ops.counters
    a = ops.invert(a, path + ["A"], start, a)  # a <- A^-1
    b = ops.left(a, b, True)  # b <- -A^-1 B
    d = ops.mul(c, b, into=d, out=d)  # d <- S_A = D - C A^-1 B
    c = ops.right(c, a, True)  # c <- -C A^-1
    cnt.multiplies += 3
    cnt.reductions += 1
    d = ops.invert(d, path + ["SchurA"], start, d)  # d <- S_A^-1
    c = ops.left(d, c)  # c <- -S_A^-1 C A^-1
    a = ops.mul(b, c, into=a, out=a)  # a <- A^-1 + A^-1 B S_A^-1 C A^-1
    b = ops.right(b, d)  # b <- -A^-1 B S_A^-1
    cnt.multiplies += 3
    cnt.reductions += 1
    return a, c, b, d


def _put(x, out):
    """``x``, copied into ``out`` when one is given."""
    if out is None:
        return x
    out[...] = x
    return out


class _Pairs:
    """A pair step of ``_combined_pivot`` as two calls, the first operand
    tuple's before the second's (the second's first with ``swap``)."""

    order = staticmethod(len)

    def invert_pair(self, first, second, swap=False):
        if swap:
            y = self.invert(*second)
            return self.invert(*first), y
        x = self.invert(*first)
        return x, self.invert(*second)

    def mul_pair(self, first, second, negate=False):
        (a, b, out), (a2, b2, out2) = first, second
        return self.mul(a, b, negate, None, out), self.mul(a2, b2, negate, None, out2)

    def complement_pair(self, first, second):
        return self.complement(*first), self.complement(*second)


class _Arrays(_Pairs):
    """The array backend.  Each product is one call of this module's
    ``multiply``, ``schur_accumulate`` or in-place products, looked up by
    name at the call, so a wrapper installed on those names sees them all.

    Built with ``invert_sub`` (schur's formulas), a failure of it is
    relabelled with the last entry of the path the formula hands down.
    Built with ``formula`` (a recursion), ``pool`` books ``invertor_by_ad``'s
    Schur slots and ``row`` is the in-place recursion's row buffer.
    """

    def __init__(self, counters=None, invert_sub=None, formula=None, pool=None, row=None):
        self.counters = counters if counters is not None else OpCounters()
        self.invert_sub = invert_sub
        self.formula = formula
        self.pool = pool
        self.row = row
        if formula is not None:
            self.alloc = counters.alloc
            self.release = counters.release
            self.rows = _Rows(counters, formula, pool)

    def alloc(self, scalars: int) -> None:
        """Scratch hook (and ``release``): off for schur's formulas."""

    release = alloc

    def invert(self, x, path, start=0, out=None):
        n = x.shape[0]
        if out is None:
            out = np.empty((n, n))
        if self.formula is None:
            try:
                self.invert_sub(x, out)
            except SingularBlock as exc:
                raise SingularBlock(path[-1], path=exc.path) from None
        elif n <= _PY_RECURSION_MAX:
            out[...] = self.rows.invert(x.tolist(), path, start)
        else:
            self.counters.nodes += 1
            p = n // 2
            self.formula(self, x[:p, :p], x[:p, p:], x[p:, :p], x[p:, p:],
                         out[:p, :p], out[p:, :p], out[:p, p:], out[p:, p:], path, start)
        return out

    @staticmethod
    def mul(a, b, negate=False, into=None, out=None):
        """(+-1) a @ b, added to the values of ``into`` when given, in
        ``out``: new storage when None, ``into`` itself to update it (the
        in-place recursion's Schur updates, over bounded panels)."""
        if into is not None and out is into and not negate:
            accumulate_inplace(out, a, b)
            return out
        if out is None:
            out = np.empty(a.shape[:-1] + b.shape[-1:]) if into is None else into.copy()
        elif into is not None and into is not out:
            out[...] = into
        multiply(a, b, out, into is not None, negate)
        return out

    def left(self, a_inv, t, negate=False):
        multiply_inplace_left(a_inv, t, self.row, negate)
        return t

    def right(self, t, a_inv, negate=False):
        multiply_inplace_right(t, a_inv, self.row, negate)
        return t

    put = staticmethod(_put)

    @staticmethod
    def split(x, r, c):
        """The blocks A, B, C, D of ``x`` split after row r and column c."""
        return x[:r, :c], x[:r, c:], x[r:, :c], x[r:, c:]

    @staticmethod
    def join(blocks, out):
        """``out`` holding the output blocks that A, B, C, D map to: the
        inverse's row split is the blocks' column split and vice versa, so
        block (i, j) lands at (j, i)."""
        oa, ob, oc, od = blocks
        r, c = oa.shape
        out[:r, :c] = oa
        out[r:, :c] = ob
        out[:r, c:] = oc
        out[r:, c:] = od
        return out

    def complement(self, base, x, y, start, label):
        """base + x @ y, one fused reduction, in a copy of ``base``; with a
        pool, the copy is booked as the slot for (start, order, label)."""
        if self.pool is not None:
            self.pool.claim(start, base.shape[0], label)
        s = base.copy()
        schur_accumulate(s, x, y)
        return s


def _mm_rows(a, b, negate=False, into=None, out=None):
    """List-of-lists product, same ascending-k order as the array kernel.

    ``into`` supplies per-element start values (the accumulate case); the
    result is always a new list of rows, so ``out`` (an array destination
    to the array backend) is ignored.  Inner sums start from 0.0 so the
    signed-zero behavior matches the zero-initialized array kernel.  Every
    sum is written out left to right for inner sizes 1 to 5, the only ones
    the list recursions reach; ``sum()`` is not used, since from Python 3.12
    on it rounds float sums differently.  Other sizes raise DimensionMismatch.
    """
    inner = len(b)
    if negate:
        a = [[-v for v in row] for row in a]
    if into is None:
        if inner == 1:
            b0 = b[0]
            return [[0.0 + ai[0] * bv for bv in b0] for ai in a]
        if inner == 2:
            b0, b1 = b
            return [
                [0.0 + x0 * u + x1 * v for u, v in zip(b0, b1)]
                for x0, x1 in a
            ]
        if inner == 3:
            b0, b1, b2 = b
            return [
                [0.0 + x0 * u + x1 * v + x2 * w for u, v, w in zip(b0, b1, b2)]
                for x0, x1, x2 in a
            ]
        if inner == 4:
            b0, b1, b2, b3 = b
            return [
                [
                    0.0 + x0 * u + x1 * v + x2 * w + x3 * y
                    for u, v, w, y in zip(b0, b1, b2, b3)
                ]
                for x0, x1, x2, x3 in a
            ]
        if inner == 5:
            b0, b1, b2, b3, b4 = b
            return [
                [
                    0.0 + x0 * u + x1 * v + x2 * w + x3 * y + x4 * z
                    for u, v, w, y, z in zip(b0, b1, b2, b3, b4)
                ]
                for x0, x1, x2, x3, x4 in a
            ]
        raise DimensionMismatch(f"list product over inner size {inner}, not 1 to 5")
    if inner == 1:
        b0 = b[0]
        return [[o + ai[0] * bv for o, bv in zip(oi, b0)] for ai, oi in zip(a, into)]
    if inner == 2:
        b0, b1 = b
        return [
            [o + x0 * u + x1 * v for o, u, v in zip(oi, b0, b1)]
            for (x0, x1), oi in zip(a, into)
        ]
    if inner == 3:
        b0, b1, b2 = b
        return [
            [o + x0 * u + x1 * v + x2 * w for o, u, v, w in zip(oi, b0, b1, b2)]
            for (x0, x1, x2), oi in zip(a, into)
        ]
    if inner == 4:
        b0, b1, b2, b3 = b
        return [
            [
                o + x0 * u + x1 * v + x2 * w + x3 * y
                for o, u, v, w, y in zip(oi, b0, b1, b2, b3)
            ]
            for (x0, x1, x2, x3), oi in zip(a, into)
        ]
    if inner == 5:
        b0, b1, b2, b3, b4 = b
        return [
            [
                o + x0 * u + x1 * v + x2 * w + x3 * y + x4 * z
                for o, u, v, w, y, z in zip(oi, b0, b1, b2, b3, b4)
            ]
            for (x0, x1, x2, x3, x4), oi in zip(a, into)
        ]
    raise DimensionMismatch(f"list product over inner size {inner}, not 1 to 5")


class _Rows(_Pairs):
    """The list backend: the array backend's operations on lists of rows,
    returning new rows where it writes into storage."""

    def __init__(self, counters: OpCounters, formula, pool=None):
        self.counters = counters
        self.formula = formula
        self.pool = pool
        self.alloc = counters.alloc
        self.release = counters.release
        # instance attributes: the fastest lookup on this hot path
        self.mul = self.left = self.right = _mm_rows

    @staticmethod
    def put(x, out):
        return x

    @staticmethod
    def split(x, r, c):
        top, bottom = x[:r], x[r:]
        return ([row[:c] for row in top], [row[c:] for row in top],
                [row[:c] for row in bottom], [row[c:] for row in bottom])

    @staticmethod
    def join(blocks, out=None):
        oa, ob, oc, od = blocks
        return list(map(add, oa, oc)) + list(map(add, ob, od))  # rows joined side by side

    def complement(self, base, x, y, start, label):
        self.pool.claim(start, len(base), label)
        return _mm_rows(x, y, into=base)

    def invert(self, x, path, start=0, out=None):
        n = len(x)
        if n <= LEAF_ORDER:
            rows = _inv_rows(x, path)
            self.counters.inversions += 1
            return rows
        self.counters.nodes += 1
        p = n // 2
        blocks = self.formula(self, *self.split(x, p, p), None, None, None, None, path, start)
        return self.join(blocks)


class _Stacks(_Arrays):
    """The stack backend of ``_combined_pivot`` and ``_single_pivot``: a
    block is a (k, rows, cols) stack of k members, nodes the sequential
    backends visit one after the other.  A pair step
    on two same-shaped stacks runs as one call over both, 2k members, and
    a sub-inversion of k > 1 members recurses on the whole stack down to
    stacked 1x1 and 2x2 leaves; a stack of one member at order
    ``_PY_RECURSION_MAX`` or below runs on ``_Rows``.  Each member gets the
    operations it gets alone (``_mm_acc``, ``_inv2_stack``), so the results
    are bitwise those of the sequential backends.

    Nothing is counted, since a lockstep run cannot reproduce the sequential
    scratch stream, and a singular block anywhere raises SingularBlock with
    a label and path of lockstep order, which callers must not report.
    """

    def __init__(self, formula):
        super().__init__(OpCounters())
        self.formula = formula
        self.rows = _Rows(OpCounters(), formula, _SchurPool(OpCounters()))

    @staticmethod
    def order(x):
        return x.shape[-1]

    @staticmethod
    def mul(a, b, negate=False, into=None, out=None):
        """The array backend's product, summed in new storage and then
        copied into ``out`` when one is given."""
        return _put(_Arrays.mul(a, b, negate, into), out)

    def invert(self, x, path, start=0, out=None):
        k, n = x.shape[0], x.shape[-1]
        if out is None:
            out = np.empty(x.shape)
        if k == 1 and n <= _PY_RECURSION_MAX:
            out[0] = self.rows.invert(x[0].tolist(), path, start)
        elif n == 1:
            if not x.all():
                raise SingularBlock("A", path=path)
            with np.errstate(over="ignore"):  # Python floats do not warn
                np.divide(1.0, x, out=out)
        elif n == LEAF_ORDER:
            if _inv2_stack(x, out).any():
                raise SingularBlock("A", path=path)
        else:
            p = n // 2
            self.formula(self, x[:, :p, :p], x[:, :p, p:], x[:, p:, :p], x[:, p:, p:],
                         out[:, :p, :p], out[:, p:, :p], out[:, :p, p:], out[:, p:, p:],
                         path, start)
        return out

    def invert_pair(self, first, second, swap=False):
        (x, path, start, out), (y, _, _, out2) = first, second
        if x.shape != y.shape:
            return super().invert_pair(first, second)
        both = self.invert(np.concatenate((x, y)), path, start)
        return _put(both[: len(x)], out), _put(both[len(x) :], out2)

    def mul_pair(self, first, second, negate=False):
        (a, b, out), (a2, b2, out2) = first, second
        if a.shape != a2.shape or b.shape != b2.shape:
            return super().mul_pair(first, second, negate)
        both = self.mul(np.concatenate((a, a2)), np.concatenate((b, b2)), negate)
        return _put(both[: len(a)], out), _put(both[len(a) :], out2)

    def complement_pair(self, first, second):
        (base, x, y, _, _), (base2, x2, y2, _, _) = first, second
        if base.shape != base2.shape or x.shape != x2.shape:
            return super().complement_pair(first, second)
        both = np.concatenate((base, base2))
        schur_accumulate(both, np.concatenate((x, x2)), np.concatenate((y, y2)))
        return both[: len(base)], both[len(base) :]


class _Count(_Pairs):
    """The sequential backends' counts without their arithmetic: a formula
    run on ``range(n)`` placeholders, where a product is its left operand
    and a complement its base.  Nodes, leaves, products, reductions, the
    scratch stream and the Schur slots are counted as ``_Rows`` counts them.
    """

    def __init__(self, counters: OpCounters, formula):
        self.counters = counters
        self.formula = formula
        self.pool = _SchurPool(counters)
        self.alloc = counters.alloc
        self.release = counters.release

    @staticmethod
    def mul(a, b, negate=False, into=None, out=None):
        return a

    def complement(self, base, x, y, start, label):
        self.pool.claim(start, len(base), label)
        return base

    def invert(self, x, path, start=0, out=None):
        n = len(x)
        if n <= LEAF_ORDER:
            self.counters.inversions += 1
            return x
        self.counters.nodes += 1
        p = n // 2
        self.formula(self, x[:p], x[:p], x[p:], x[p:], None, None, None, None, path, start)
        return x


class _SchurPool:
    """Schur workspace bookings keyed by (diagonal position, order, label).

    A slot is counted once, when first claimed, and stands for every later
    recursion generation that lands on the same diagonal span, so the total
    counted equals the preallocated-plan footprint.  Slots are only booked:
    every backend computes its complements in new storage.
    """

    def __init__(self, counters: OpCounters):
        self._slots: set[tuple[int, int, str]] = set()
        self._counters = counters

    def claim(self, start: int, order: int, side: str) -> None:
        key = (start, order, side)
        if key not in self._slots:
            self._slots.add(key)
            self._counters.schur_scratch += order * order
            self._counters.alloc(order * order)


def invertor_by_a(x: np.ndarray, counters: OpCounters | None = None):
    """Invert by recursive pivot-A elimination into new storage.

    Returns ``(inverse, counters)``; the input is left untouched.
    """
    x = check_square(x)
    counters = counters if counters is not None else OpCounters()
    counters.alloc(x.size)
    return check_result(_Arrays(counters, formula=_single_pivot).invert(x, [])), counters


def invertor_inplace_by_a(
    x: np.ndarray,
    row_scratch: np.ndarray | None = None,
    counters: OpCounters | None = None,
) -> OpCounters:
    """Overwrite ``x`` with its inverse using one row-sized buffer.

    ``x`` must be a writeable float64 ndarray: anything else would be
    inverted in a converted copy the caller never sees, or not at all, so it
    raises FormatError before anything is written.  On SingularBlock the
    contents of ``x`` are unspecified.
    """
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64):
        raise FormatError("in-place inversion needs a float64 ndarray")
    if not x.flags.writeable:
        raise FormatError("in-place inversion needs a writeable array")
    x = check_square(x)
    n = x.shape[0]
    if row_scratch is None:
        row_scratch = np.empty(n)
    if row_scratch.shape[0] < n:
        raise ScratchTooSmall(f"need {n} scalars, have {row_scratch.shape[0]}")
    counters = counters if counters is not None else OpCounters()
    counters.alloc(row_scratch.shape[0])
    _Arrays(counters, formula=_inplace, row=row_scratch).invert(x, [], 0, x)
    counters.release(row_scratch.shape[0])
    check_result(x)
    return counters


def invertor_by_ad(x: np.ndarray, counters: OpCounters | None = None):
    """Invert with both diagonal pivots per node.

    Runs on the stack backend and adds the counts of the sequential run of
    the same order.  If some block is singular, the input is inverted again
    on the sequential backends, which raise the label and path of the first
    failure in sequential order and leave their partial counts.
    Returns ``(inverse, counters)``.
    """
    x = check_square(x)
    counters = counters if counters is not None else OpCounters()
    inv = _invert_stacked(_combined_pivot, x[None])
    if inv is None:
        inv = _by_ad_sequential(x, counters)
    else:
        _fold(counters, _by_ad_counts(x.shape[0]))
        inv = inv[0]
    return check_result(inv), counters


def _invert_stacked(formula, x: np.ndarray, out: np.ndarray | None = None):
    """The (k, n, n) stack ``x`` inverted on ``_Stacks`` into ``out``, or
    None when some member has a singular block: the caller then reruns it
    node by node for the failure's label, outside this call, so that the
    lockstep failure is not chained onto it.

    Floating-point warnings are off: lockstep members run on past the
    singular block that stops a sequential run, and numpy warns where the
    list backend's Python floats do not.  The bits are the same.
    """
    try:
        with np.errstate(all="ignore"):
            return _Stacks(formula).invert(x, [], 0, out)
    except SingularBlock:
        return None


def _by_ad_sequential(x: np.ndarray, counters: OpCounters) -> np.ndarray:
    """``invertor_by_ad`` one node after the other, counting as it goes."""
    return _Arrays(counters, formula=_combined_pivot, pool=_SchurPool(counters)).invert(x, [])


@functools.lru_cache(maxsize=None)
def _by_ad_counts(n: int) -> OpCounters:
    """What a sequential ``invertor_by_ad`` of order n counts, from zero.
    The memoised result is shared by every caller, so it is only read."""
    counters = OpCounters()
    _Count(counters, _combined_pivot).invert(range(n), [])
    return counters


def _fold(counters: OpCounters, run: OpCounters) -> None:
    """Add ``run``, counted from zero, to ``counters`` as if it had run on
    them: its scratch peak sits on top of their live scratch."""
    counters.peak_scratch = max(counters.peak_scratch,
                                counters._current_scratch + run.peak_scratch)
    counters._current_scratch += run._current_scratch
    counters.multiplies += run.multiplies
    counters.inversions += run.inversions
    counters.reductions += run.reductions
    counters.schur_scratch += run.schur_scratch
    counters.nodes += run.nodes


# ---------------------------------------------------------------------------
# retry path: per-node pivot fallback
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _zero_search_nodes(n: int) -> int:
    """Nodes the A, D, B, C search visits on an all-zero block of order n:
    each formula fails at its pivot (A and B of order n//2, D and C of
    order n - n//2) before any product."""
    if n <= LEAF_ORDER:
        return 0
    h = n // 2
    return 1 + 2 * _zero_search_nodes(h) + 2 * _zero_search_nodes(n - h)


# The pivots of the retry path's search by split, in the order it tries
# them.  Each is the formula's name, the permutation of the blocks
# (A, B, C, D) into ``_single_pivot``'s (pivot, row, column, opposite) order,
# and the labels of its pivot and complement.  Every permutation is its own
# inverse, so it also puts the formula's outputs back in block order.
_DIAGONAL_PIVOTS = (("via_a", (0, 1, 2, 3), ("A", "SchurA")),
                    ("via_d", (3, 2, 1, 0), ("D", "SchurD")))
_COUNTER_PIVOTS = (("via_b", (1, 0, 3, 2), ("B", "SchurB")),
                   ("via_c", (2, 3, 0, 1), ("C", "SchurC")))


def _via(ops, blocks, perm, labels):
    """``_single_pivot`` around ``blocks[perm[0]]`` with no output quadrants,
    so every product sums into new storage.  Returns the output blocks that
    A, B, C, D map to."""
    got = _single_pivot(ops, *[blocks[i] for i in perm], None, None, None, None, [],
                        labels=labels)
    return [got[i] for i in perm]


def _pivot_search(ops, x, p, out=None):
    """The retry path's search at one node: pivots A and D of ``x`` split at
    p, then B and C of the counter-diagonal split (columns at order - p, so
    that B and C are square).  Returns the name of the formula that
    succeeded and the inverse, ``ops.join`` of its blocks into ``out``;
    raises AllPivotsSingular, naming each formula's failure, when none
    does.  Sub-inversion failures arrive relabelled by ``ops.invert``."""
    n = len(x)
    failures = []
    for cs, pivots in ((p, _DIAGONAL_PIVOTS), (n - p, _COUNTER_PIVOTS)):
        blocks = ops.split(x, p, cs)
        for name, perm, labels in pivots:
            try:
                got = _via(ops, blocks, perm, labels)
            except SingularBlock as exc:
                failures.append(f"{name}: {exc}")
            else:
                return name, ops.join(got, out)
    raise AllPivotsSingular("; ".join(failures))


def _retry_node(ops, x, out=None):
    """Invert ``x`` by the search at every node, on ``_RetryArrays`` (into
    ``out``) or ``_RetryRows`` (returning rows).

    An all-zero block raises at once, with the label and the ``nodes`` count
    of the search it skips.  Only lists reach the 1x1 and 2x2 leaves, since
    array nodes are larger than ``_PY_RECURSION_MAX``.  An exhausted search
    raises "AllPivots", which to the caller is just an unusable pivot.
    """
    n = len(x)
    if not ops.nonzero(x):
        ops.counters.nodes += _zero_search_nodes(n)
        raise SingularBlock("A" if n <= LEAF_ORDER else "AllPivots", path=[])
    if n <= LEAF_ORDER:
        rows = _inv_rows(x, [])
        ops.counters.inversions += 1
        return rows
    ops.counters.nodes += 1
    try:
        return ops.search(x, n // 2, out)
    except AllPivotsSingular:
        raise SingularBlock("AllPivots", path=[]) from None


class _RetryRows(_Rows):
    """The retry path's list backend, for nodes of order
    ``_PY_RECURSION_MAX`` and below.  A sub-inversion is a retry node whose
    failure is relabelled with the pivot's label, as ``_Arrays`` relabels
    schur's ``invert_sub``; no scratch is counted, as in schur."""

    def __init__(self, counters: OpCounters):
        self.counters = counters
        self.mul = _mm_rows

    alloc = release = _Arrays.alloc

    @staticmethod
    def nonzero(x):
        return any(map(any, x))

    def invert(self, x, path, start=0, out=None):
        try:
            return _retry_node(self, x)
        except SingularBlock as exc:
            raise SingularBlock(path[-1], path=exc.path) from None

    def search(self, x, p, out=None):
        return _pivot_search(self, x, p)[1]


class _RetryArrays:
    """The retry path's array nodes: each runs :mod:`blockinv.schur`'s
    ``invert_with_fallback``, looked up at the call so that a wrapper on it
    sees every array node, with ``sub`` as its ``invert_sub``.  A block of
    order ``_PY_RECURSION_MAX`` or below runs on ``_RetryRows``."""

    nonzero = staticmethod(np.ndarray.any)

    def __init__(self, counters: OpCounters):
        self.counters = counters
        self.rows = _RetryRows(counters)

    def sub(self, block, out):
        if len(block) <= _PY_RECURSION_MAX:
            out[...] = _retry_node(self.rows, block.tolist())
        else:
            _retry_node(self, block, out)

    def search(self, x, p, out):
        from . import schur

        schur.invert_with_fallback(x, p, out, self.sub, self.counters)
        return out


def invertor_with_fallback(x: np.ndarray, counters: OpCounters | None = None):
    """Recursive inversion trying pivots A, D, B, C at every node.

    Slower than the fixed-pivot procedures.  Every node splits at the fixed
    ``n // 2`` and each formula tries one pivot block of that split, so it
    inverts inputs whose diagonal blocks are singular while a counter-
    diagonal pivot is not, such as the reversal permutation.  It does not
    invert general permutations: a node whose four blocks all give a
    singular pivot or complement raises ``AllPivots``, as every one of 18
    random permutations of orders 9-13 and 20 does.  The Gauss-Jordan
    oracle (``blockinv invert --method oracle``) pivots by rows and
    inverts those.
    An all-zero block is reported singular without being searched: every
    pivot of an all-zero block is all-zero, so by induction each formula
    fails at its pivot before any product or leaf inversion.  ``nodes``
    still counts the nodes that search would visit, and the label is the
    one it would raise.  Nodes of order ``_PY_RECURSION_MAX`` and below run
    the same search on lists, with the same bits and counts.
    Returns ``(inverse, counters)``.
    """
    x = check_square(x)
    counters = counters if counters is not None else OpCounters()
    out = np.empty_like(x)
    _RetryArrays(counters).sub(x, out)
    return check_result(out), counters
