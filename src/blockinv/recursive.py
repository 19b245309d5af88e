"""Recursive blockwise inversion of arbitrary-order matrices.

Three procedures share the same algebra but differ in how they treat memory:

* ``invertor_by_a`` - pivot-A recursion into freshly allocated blocks,
  releasing intermediates as soon as they are dead.  Six block products and
  two reductions per recursion node.
* ``invertor_inplace_by_a`` - the same pivot recursion performed entirely
  inside the input matrix; the only counted auxiliary storage is one
  row-sized buffer shared by every level.  Its products also use a bounded
  n x 16 panel temporary inside the kernel (see
  :func:`blockinv.core.multiply_inplace_left`).
* ``invertor_by_ad`` - inverts both diagonal pivots per node (four products,
  two Schur reductions).  The (A, D) and (S_D, S_A) inversions of a node
  are independent of each other but run one after the other; Schur
  workspaces are pooled per (position, size) and reused across recursion
  generations, the way a preallocated scratch plan would.

``invertor_with_fallback`` is the retry path: at every node it tries the
pivot formulas of :mod:`blockinv.schur` in the order A, D, B, C, on the
fixed ``n // 2`` split, so inputs that need another split or a row
pivot (most permutations) still raise ``AllPivots``.  An
all-zero block raises at once, with the label and the ``nodes`` count of
the search it skips (every pivot of an all-zero block is all-zero, so each
formula fails before any product).

Odd orders split floor/ceil; recursion bottoms out at order <= 2, which is
inverted by the one analytic 1x1/2x2 leaf in :mod:`blockinv.core`.  Nodes
of order 10 and below, in all three recursions, run on Python lists, with
the same operations in the same order as on arrays.
Failures raise SingularBlock carrying the recursion path, e.g.
"A.SchurA.A".  Nothing here starts a thread.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import (
    OpCounters,
    _inv_rows,
    as_matrix,
    check_finite,
    invert_small,
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


def _check_square(x: np.ndarray) -> np.ndarray:
    x = as_matrix(x)
    if x.shape[0] != x.shape[1] or x.shape[0] == 0:
        raise DimensionMismatch(f"need a non-empty square matrix, got {x.shape}")
    check_finite(x)
    return x


# ---------------------------------------------------------------------------
# invertor_by_a
# ---------------------------------------------------------------------------


# Nodes up to this order of the pivot-A, the in-place and the A/D
# recursions run on Python lists; the numpy round trips per product
# dominate there.  Same operations in the same order, so results are
# bitwise identical to the array path.
_PY_RECURSION_MAX = 10


def invertor_by_a(x: np.ndarray, counters: OpCounters | None = None):
    """Invert by recursive pivot-A elimination into new storage.

    Returns ``(inverse, counters)``; the input is left untouched.
    """
    x = _check_square(x)
    counters = counters if counters is not None else OpCounters()
    out = _by_a_rec(x, counters, [])
    return out, counters


def _by_a_rec(x: np.ndarray, counters: OpCounters, path: list[str]) -> np.ndarray:
    n = x.shape[0]
    if n <= _PY_RECURSION_MAX:
        rows = _by_a_small(x.tolist(), counters, path)
        out = np.empty((n, n))
        out[...] = rows
        return out
    out = np.empty((n, n))
    counters.alloc(n * n)
    counters.nodes += 1
    p = n // 2
    q = n - p
    a, b, c, d = x[:p, :p], x[:p, p:], x[p:, :p], x[p:, p:]

    a_inv = _by_a_rec(a, counters, path + ["A"])
    n_ab = np.empty((p, q))
    counters.alloc(n_ab.size)
    multiply(a_inv, b, n_ab, negate=True, counters=counters)  # -A^-1 B
    ca = np.empty((q, p))
    counters.alloc(ca.size)
    multiply(c, a_inv, ca, counters=counters)  # C A^-1
    s_a = d.copy()
    counters.alloc(s_a.size)
    multiply(c, n_ab, s_a, accumulate=True, counters=counters)  # S_A = D - C A^-1 B
    s_a_inv = _by_a_rec(s_a, counters, path + ["SchurA"])
    counters.release(s_a.size)

    out01 = out[:p, p:]
    multiply(n_ab, s_a_inv, out01, counters=counters)  # -A^-1 B S_A^-1
    counters.release(n_ab.size)
    out[:p, :p] = a_inv
    counters.release(a_inv.size)
    multiply(out01, ca, out[:p, :p], accumulate=True, negate=True, counters=counters)
    multiply(s_a_inv, ca, out[p:, :p], negate=True, counters=counters)  # -S_A^-1 C A^-1
    counters.release(ca.size)
    out[p:, p:] = s_a_inv
    counters.release(s_a_inv.size)
    return out


def _mm_rows(a, b, negate=False, into=None):
    """List-of-lists product, same ascending-k order as the array kernel.

    ``into`` supplies per-element start values (the accumulate case); the
    result is always a new list of rows.  Inner sums start from 0.0 so the
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


def _by_a_small(x: list, counters: OpCounters, path: list[str]) -> list:
    """The pivot-A recursion on Python lists (operation-for-operation the
    same as the array path, including the counter and audit sequence).

    Counter bookkeeping is inlined: this path exists purely to keep the
    per-call overhead at tiny orders down.
    """
    n = len(x)
    counters.alloc(n * n)
    if n <= LEAF_ORDER:
        rows = _inv_rows(x, path)
        counters.inversions += 1
        return rows
    counters.nodes += 1
    p = n // 2
    q = n - p
    a = [row[:p] for row in x[:p]]
    b = [row[p:] for row in x[:p]]
    c = [row[:p] for row in x[p:]]
    d = [row[p:] for row in x[p:]]

    a_inv = _by_a_small(a, counters, path + ["A"])
    n_ab = _mm_rows(a_inv, b, negate=True)  # -A^-1 B
    ca = _mm_rows(c, a_inv)  # C A^-1
    s_a = _mm_rows(c, n_ab, into=d)  # S_A = D - C A^-1 B
    counters.alloc(2 * p * q + q * q)
    counters.multiplies += 3
    counters.reductions += 1
    s_a_inv = _by_a_small(s_a, counters, path + ["SchurA"])
    counters.release(q * q)

    out01 = _mm_rows(n_ab, s_a_inv)  # -A^-1 B S_A^-1
    out00 = _mm_rows(out01, ca, negate=True, into=a_inv)
    out10 = _mm_rows(s_a_inv, ca, negate=True)  # -S_A^-1 C A^-1
    counters.multiplies += 3
    counters.reductions += 1
    counters.release(p * q + p * p + q * p + q * q)
    return [out00[i] + out01[i] for i in range(p)] + [
        out10[i] + s_a_inv[i] for i in range(q)
    ]


# ---------------------------------------------------------------------------
# invertor_inplace_by_a
# ---------------------------------------------------------------------------


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
    x = _check_square(x)
    n = x.shape[0]
    if row_scratch is None:
        row_scratch = np.empty(n)
    if row_scratch.shape[0] < n:
        raise ScratchTooSmall(f"need {n} scalars, have {row_scratch.shape[0]}")
    counters = counters if counters is not None else OpCounters()
    counters.alloc(row_scratch.shape[0])
    _inplace_rec(x, row_scratch, counters, [])
    counters.release(row_scratch.shape[0])
    return counters


def _inplace_rec(x: np.ndarray, scratch: np.ndarray, counters: OpCounters, path) -> None:
    n = x.shape[0]
    if n <= _PY_RECURSION_MAX:
        x[...] = _inplace_small(x.tolist(), counters, path)
        return
    counters.nodes += 1
    p = n // 2
    a, b, c, d = x[:p, :p], x[:p, p:], x[p:, :p], x[p:, p:]

    _inplace_rec(a, scratch, counters, path + ["A"])  # a <- A^-1
    multiply_inplace_left(a, b, scratch, negate=True, counters=counters)  # b <- -A^-1 B
    multiply(c, b, d, accumulate=True, counters=counters)  # d <- S_A = D - C A^-1 B
    multiply_inplace_right(c, a, scratch, negate=True, counters=counters)  # c <- -C A^-1
    _inplace_rec(d, scratch, counters, path + ["SchurA"])  # d <- S_A^-1
    multiply_inplace_left(d, c, scratch, counters=counters)  # c <- -S_A^-1 C A^-1
    multiply(b, c, a, accumulate=True, counters=counters)  # a <- A^-1 + A^-1 B S_A^-1 C A^-1
    multiply_inplace_right(b, d, scratch, counters=counters)  # b <- -A^-1 B S_A^-1


def _inplace_small(x: list, counters: OpCounters, path) -> list:
    """The in-place recursion on Python lists, step for step the same as
    ``_inplace_rec``, counters included (it allocates nothing the row
    buffer's count does not already cover).

    A right product ``t <- t @ m`` becomes ``_mm_rows(t, m)``: each element
    sums the same products in the same order, since IEEE products commute
    and ``(-x) * y == x * (-y)``.
    """
    n = len(x)
    if n <= LEAF_ORDER:
        rows = _inv_rows(x, path)
        counters.inversions += 1
        return rows
    counters.nodes += 1
    p = n // 2
    a = [row[:p] for row in x[:p]]
    b = [row[p:] for row in x[:p]]
    c = [row[:p] for row in x[p:]]
    d = [row[p:] for row in x[p:]]

    a = _inplace_small(a, counters, path + ["A"])  # a <- A^-1
    b = _mm_rows(a, b, negate=True)  # b <- -A^-1 B
    d = _mm_rows(c, b, into=d)  # d <- S_A = D - C A^-1 B
    c = _mm_rows(c, a, negate=True)  # c <- -C A^-1
    counters.multiplies += 3
    counters.reductions += 1
    d = _inplace_small(d, counters, path + ["SchurA"])  # d <- S_A^-1
    c = _mm_rows(d, c)  # c <- -S_A^-1 C A^-1
    a = _mm_rows(b, c, into=a)  # a <- A^-1 + A^-1 B S_A^-1 C A^-1
    b = _mm_rows(b, d)  # b <- -A^-1 B S_A^-1
    counters.multiplies += 3
    counters.reductions += 1
    return [a[i] + b[i] for i in range(p)] + [c[i] + d[i] for i in range(n - p)]


# ---------------------------------------------------------------------------
# invertor_by_ad
# ---------------------------------------------------------------------------


class _SchurPool:
    """Schur workspaces keyed by (diagonal position, order, side).

    A slot is counted once, when first claimed, and reused by every later
    recursion generation that lands on the same diagonal span, so the total
    counted equals the preallocated-plan footprint.  The list path only
    books its slots (its complements are new lists); an array is allocated
    when an array node first asks for one.
    """

    def __init__(self, counters: OpCounters):
        self._slots: dict[tuple[int, int, str], np.ndarray | None] = {}
        self._counters = counters

    def book(self, start: int, order: int, side: str) -> None:
        key = (start, order, side)
        if key not in self._slots:
            self._slots[key] = None
            self._counters.schur_scratch += order * order
            self._counters.alloc(order * order)

    def get(self, start: int, order: int, side: str) -> np.ndarray:
        self.book(start, order, side)
        key = (start, order, side)
        slot = self._slots[key]
        if slot is None:
            slot = self._slots[key] = np.empty((order, order))
        return slot


def invertor_by_ad(x: np.ndarray, counters: OpCounters | None = None):
    """Invert with both diagonal pivots per node.

    Returns ``(inverse, counters)``.
    """
    x = _check_square(x)
    counters = counters if counters is not None else OpCounters()
    out = np.empty_like(x)
    _by_ad_rec(x, out, 0, _SchurPool(counters), counters, [])
    return out, counters


def _by_ad_rec(x, out, start, pool, counters, path) -> None:
    n = x.shape[0]
    if n <= _PY_RECURSION_MAX:
        out[...] = _by_ad_small(x.tolist(), start, pool, counters, path)
        return
    counters.nodes += 1
    p = n // 2
    q = n - p
    a, b, c, d = x[:p, :p], x[:p, p:], x[p:, :p], x[p:, p:]

    a_inv = np.empty((p, p))
    d_inv = np.empty((q, q))
    counters.alloc(a_inv.size + d_inv.size)
    _by_ad_rec(a, a_inv, start, pool, counters, path + ["A"])
    _by_ad_rec(d, d_inv, start + p, pool, counters, path + ["D"])

    n_ab = np.empty((p, q))
    n_dc = np.empty((q, p))
    counters.alloc(n_ab.size + n_dc.size)
    multiply(a_inv, b, n_ab, negate=True, counters=counters)  # -A^-1 B
    multiply(d_inv, c, n_dc, negate=True, counters=counters)  # -D^-1 C
    counters.release(a_inv.size + d_inv.size)

    s_d = pool.get(start, p, "sd")
    s_d[...] = a
    schur_accumulate(s_d, b, n_dc, counters)  # S_D = A - B D^-1 C
    s_a = pool.get(start + p, q, "sa")
    s_a[...] = d
    schur_accumulate(s_a, c, n_ab, counters)  # S_A = D - C A^-1 B

    _by_ad_rec(s_d, out[:p, :p], start, pool, counters, path + ["SchurD"])
    _by_ad_rec(s_a, out[p:, p:], start + p, pool, counters, path + ["SchurA"])

    multiply(n_ab, out[p:, p:], out[:p, p:], counters=counters)  # -A^-1 B S_A^-1
    multiply(n_dc, out[:p, :p], out[p:, :p], counters=counters)  # -D^-1 C S_D^-1
    counters.release(n_ab.size + n_dc.size)


def _by_ad_small(x: list, start: int, pool: _SchurPool, counters: OpCounters, path) -> list:
    """The A/D recursion on Python lists (operation-for-operation the same
    as the array path, including the counter sequence).

    The Schur pool slots are booked, for their bookkeeping only: the
    complements themselves are new lists.
    """
    n = len(x)
    if n <= LEAF_ORDER:
        rows = _inv_rows(x, path)
        counters.inversions += 1
        return rows
    counters.nodes += 1
    p = n // 2
    q = n - p
    a = [row[:p] for row in x[:p]]
    b = [row[p:] for row in x[:p]]
    c = [row[:p] for row in x[p:]]
    d = [row[p:] for row in x[p:]]

    counters.alloc(p * p + q * q)
    a_inv = _by_ad_small(a, start, pool, counters, path + ["A"])
    d_inv = _by_ad_small(d, start + p, pool, counters, path + ["D"])

    counters.alloc(2 * p * q)
    n_ab = _mm_rows(a_inv, b, negate=True)  # -A^-1 B
    n_dc = _mm_rows(d_inv, c, negate=True)  # -D^-1 C
    counters.multiplies += 2
    counters.release(p * p + q * q)

    pool.book(start, p, "sd")
    s_d = _mm_rows(b, n_dc, into=a)  # S_D = A - B D^-1 C
    pool.book(start + p, q, "sa")
    s_a = _mm_rows(c, n_ab, into=d)  # S_A = D - C A^-1 B
    counters.reductions += 2

    s_d_inv = _by_ad_small(s_d, start, pool, counters, path + ["SchurD"])
    s_a_inv = _by_ad_small(s_a, start + p, pool, counters, path + ["SchurA"])

    out01 = _mm_rows(n_ab, s_a_inv)  # -A^-1 B S_A^-1
    out10 = _mm_rows(n_dc, s_d_inv)  # -D^-1 C S_D^-1
    counters.multiplies += 2
    counters.release(2 * p * q)
    return [s_d_inv[i] + out01[i] for i in range(p)] + [
        out10[i] + s_a_inv[i] for i in range(q)
    ]


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
    one it would raise.  Returns ``(inverse, counters)``.
    """
    from .schur import invert_with_fallback

    x = _check_square(x)
    counters = counters if counters is not None else OpCounters()

    def sub(block, out):
        n = block.shape[0]
        if not block.any():
            counters.nodes += _zero_search_nodes(n)
            raise SingularBlock("A" if n <= LEAF_ORDER else "AllPivots", path=[])
        if n <= LEAF_ORDER:
            invert_small(block, out, counters)
            return
        counters.nodes += 1
        try:
            invert_with_fallback(block, n // 2, out, invert_sub=sub, counters=counters)
        except AllPivotsSingular:
            # an exhausted sub-block is just an unusable pivot to the caller
            raise SingularBlock("AllPivots", path=[]) from None

    out = np.empty_like(x)
    sub(x, out)
    return out, counters
