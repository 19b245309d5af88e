"""Dense-matrix kernels: multiplication, small analytic inverses, and the
Gauss-Jordan verification oracle.

Matrices are plain float64 C-order ``numpy.ndarray`` objects; block views are
ordinary numpy slices of a parent array, so partitioned algorithms never copy
element data unless they say so.

Every multiplication kernel accumulates over the inner dimension in a fixed
order, with any -1 sign folded into the left factor: ascending index, except
in ``_mm_acc_ordered``, which takes each output row's order as an argument
(the step engine's Fox product rotates it per block row) and runs a whole
stack of same-shaped products in one call.  Fixed orders make
in-place and out-of-place products bitwise identical.

The kernels respect their operands' layout without changing a bit.
``_mm_acc_ordered`` copies a strided ``b`` (the engine's views into its
band and inverse arrays) into one contiguous array per call, because
gathering rows from a strided array copies all of it each time.  Both
product kernels run an output of more than ``_PANEL_ELEMENTS`` elements,
counted over the whole stack, over row panels of at most that many
elements (and at least ``_ROW_PANEL`` rows), so that each panel stays in
cache through the inner loop; each panel takes its rows of the order with
it, and every element keeps its operations and their order.  ``_mm_acc``
sums an output or panel that is not C-contiguous (a quadrant view) in a
contiguous copy and writes it back once, and from ``_STAGE_ELEMENTS``
output elements on its stage copies ``b``'s row across the temporary
first, so that the multiply broadcasts one operand, as the ordered
kernel's stage does; the factors keep their order.

The in-place products take a counted buffer of one row, as the in-place
recursion's contract says, and work through a bounded kernel-internal
temporary of one panel: at least ``_PANEL`` (16) columns, or rows for a
right product, and otherwise as many as ``_STAGE_ELEMENTS`` (4,096)
elements allow, so that it does not grow with the width of the target.  A
sign goes on the panel, not on a negated copy of the factor.  The in-place
Schur updates (``accumulate_inplace``) run over the same panels, each
summed in a contiguous copy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AliasedOperands,
    DimensionMismatch,
    FormatError,
    NonFiniteResult,
    ScratchTooSmall,
    SingularBlock,
    SingularMatrix,
)

_BMAT_MAGIC = b"BMAT"


def _check_disjoint(dest: np.ndarray, *inputs: np.ndarray) -> None:
    """Raise AliasedOperands when ``dest`` overlaps any of ``inputs``.

    Bounds check first; the exact (potentially slow) overlap solve runs
    only for views whose address ranges interleave.
    """
    for x in inputs:
        if np.may_share_memory(dest, x) and np.shares_memory(dest, x):
            raise AliasedOperands(f"destination {dest.shape} overlaps an input {x.shape}")


@dataclass
class OpCounters:
    """Tally of block-level work done by an inversion run.

    ``multiplies`` counts two-matrix products (a fused multiply-accumulate
    counts as both a multiply and a reduction); ``reductions`` counts block
    additions, including the dedicated Schur-complement accumulation which
    is a reduction only; ``inversions`` counts leaf/base inversions.
    ``peak_scratch`` is the high-water mark of auxiliary scalars allocated
    by the algorithm itself (kernel-internal temporaries are not charged,
    since they depend on how a product is scheduled, not on the algorithm).
    """

    multiplies: int = 0
    inversions: int = 0
    reductions: int = 0
    peak_scratch: int = 0
    schur_scratch: int = 0
    nodes: int = 0
    _current_scratch: int = field(default=0, repr=False)

    def alloc(self, scalars: int) -> None:
        self._current_scratch += scalars
        if self._current_scratch > self.peak_scratch:
            self.peak_scratch = self._current_scratch

    def release(self, scalars: int) -> None:
        self._current_scratch -= scalars


def check_finite(m: np.ndarray) -> None:
    """Reject NaN and Inf entries, which would otherwise come out of every
    inversion path as an all-NaN "inverse"."""
    if not np.isfinite(m).all():
        raise FormatError("matrix contains NaN or Inf entries")


def check_result(m: np.ndarray) -> np.ndarray:
    """``m``, the result of an inversion, unless it holds NaN or Inf
    entries (NonFiniteResult): a finite input whose intermediates
    over- or underflow comes out of every path that way."""
    if not np.isfinite(m).all():
        raise NonFiniteResult("the inverse has NaN or Inf entries")
    return m


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-D float64 array without copying when already one.

    Complex, string and other non-numeric input raises FormatError instead
    of losing its imaginary part or failing inside numpy.
    """
    try:
        m = np.asarray(data)
    except ValueError as exc:  # ragged nested sequences
        raise FormatError(f"not a matrix: {exc}") from None
    if m.dtype.kind not in "biuf":
        raise FormatError(f"expected real numeric entries, got dtype {m.dtype}")
    m = m.astype(np.float64, copy=False)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got ndim={m.ndim}")
    return m


def check_square(data) -> np.ndarray:
    """The input check of every inversion: a finite, non-empty, square
    real matrix, as float64 without copying when already one."""
    m = as_matrix(data)
    if m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionMismatch(f"need a non-empty square matrix, got {m.shape}")
    check_finite(m)
    return m


def _row_panels(out: np.ndarray) -> list | None:
    """The row slices a product into ``out`` runs over once its output,
    over the whole stack, has more than ``_PANEL_ELEMENTS`` elements:
    each panel holds at most that many (one of 512 columns takes 128 rows,
    a stack of two such products 64), but never fewer than ``_ROW_PANEL``
    rows.  None while the output stays whole."""
    if out.size <= _PANEL_ELEMENTS:
        return None
    rows = out.shape[-2]
    height = max(_ROW_PANEL, _PANEL_ELEMENTS * rows // out.size)
    if rows <= height:
        return None
    return [slice(i, i + height) for i in range(0, rows, height)]


def _mm_acc(a: np.ndarray, b: np.ndarray, out: np.ndarray, negate: bool = False) -> None:
    """out += (+-1) * a @ b, inner index ascending, sign folded into a.

    One rank-1 update per inner index over the whole output, or over each
    row panel of a large one (:func:`_row_panels`), so every element
    receives ``o + a[i, k] * b[k, j]`` for k = 0, 1, ... in turn, whatever
    the panels.  An output (or panel) that is not C-contiguous, such as a
    quadrant view, is summed in a contiguous copy and written back once.
    From ``_STAGE_ELEMENTS`` output elements on, each stage first copies
    row k of ``b`` across the temporary, so that the multiply broadcasts
    one operand instead of two; the factors keep their order.  ``a``,
    ``b`` and ``out`` may carry the same leading stack axes, each product
    of the stack getting exactly the operations it gets alone.
    """
    panels = _row_panels(out)
    if panels is not None:
        for rows in panels:
            _mm_acc(a[..., rows, :], b, out[..., rows, :], negate)
        return
    if not out.flags.c_contiguous:
        acc = out.copy()
        _mm_acc(a, b, acc, negate)
        out[...] = acc
        return
    if negate:
        a = -a  # negating the factor up front folds the sign into every term
    tmp = np.empty_like(out)
    one_broadcast = out.size >= _STAGE_ELEMENTS
    for k in range(a.shape[-1]):
        if one_broadcast:
            np.copyto(tmp, b[..., k, None, :])
            np.multiply(a[..., k, None], tmp, out=tmp)
        else:
            np.multiply(a[..., k, None], b[..., k, None, :], out=tmp)
        np.add(out, tmp, out=out)


def _mm_acc_ordered(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray,
    order: np.ndarray | None = None,
    negate: bool = False,
) -> None:
    """out += (+-1) * a @ b for a stack of products, where output row r
    takes its inner terms in the order ``order[0, r], order[1, r], ...``;
    sign folded into a.

    ``a``, ``b`` and ``out`` are (..., rows, inner), (..., inner, cols) and
    (..., rows, cols) with the same leading stack axes; every product of
    the stack shares ``order``, an (inner, rows) integer array whose every
    column is a permutation of the inner indices, or None for ascending
    order in every row, which is :func:`_mm_acc`.  ``a`` is gathered into
    that order once, and a ``b`` that is not C-contiguous (the engine's
    views into its band and inverse arrays) is copied once, since
    gathering rows from a strided array copies all of it on every call.
    Then, over each row panel of the output (:func:`_row_panels`, with
    the order's columns sliced alike), stage j multiplies each row's j-th
    term and adds it, over all rows of the panel and the stack at once.
    Every output element receives the same IEEE-754 operations in the
    same order as :func:`_mm_acc` calls over consecutive runs of its
    order, whatever else is in the stack or the panel, so a stacked call
    and one call per product are bitwise interchangeable.
    """
    if order is None:
        _mm_acc(a, b, out, negate)
        return
    a_ord = a[..., np.arange(a.shape[-2]), order]  # a_ord[..., j, r] = a[..., r, order[j, r]]
    if negate:
        np.negative(a_ord, out=a_ord)
    a_ord = a_ord[..., None]
    b = np.ascontiguousarray(b)
    for rows in _row_panels(out) or [slice(None)]:
        a_p, out_p = a_ord[..., rows, :], out[..., rows, :]
        tmp = np.empty_like(out_p)
        for j, rows_j in enumerate(order[:, rows]):
            b.take(rows_j, axis=-2, out=tmp, mode="clip")  # "raise" would buffer out
            np.multiply(a_p[..., j, :, :], tmp, out=tmp)
            np.add(out_p, tmp, out=out_p)


def _check_product(name: str, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Raise DimensionMismatch unless ``out`` fits ``a @ b`` over the last
    two axes and all three carry the same leading stack axes."""
    if not (
        a.ndim == b.ndim == out.ndim >= 2
        and a.shape[-1] == b.shape[-2]
        and out.shape == a.shape[:-1] + b.shape[-1:]
        and a.shape[:-2] == b.shape[:-2]
    ):
        raise DimensionMismatch(f"{name} {a.shape} x {b.shape} -> {out.shape}")


def multiply(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray,
    accumulate: bool = False,
    negate: bool = False,
    counters: OpCounters | None = None,
) -> None:
    """out = (+-1) * a @ b, or out += ... when ``accumulate``.

    ``out`` overlapping ``a`` or ``b`` raises AliasedOperands.  Accumulation
    over the inner dimension runs in fixed ascending index order.  The three
    may carry the same leading stack axes (see :func:`_mm_acc`).
    """
    _check_product("multiply", a, b, out)
    _check_disjoint(out, a, b)
    if not accumulate:
        out[...] = 0.0
    _mm_acc(a, b, out, negate)
    if counters is not None:
        counters.multiplies += 1
        if accumulate:
            counters.reductions += 1


def schur_accumulate(
    dest: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    counters: OpCounters | None = None,
) -> None:
    """dest += x @ y as a single reduction (Schur-complement formation).

    Same summation order and stack axes as :func:`multiply`; counted as a
    reduction only, because the combined-pivot paths and the step engine
    treat complement formation as its own operation class, not as one of
    their products.
    """
    _check_product("schur_accumulate", x, y, dest)
    _check_disjoint(dest, x, y)
    _mm_acc(x, y, dest)
    if counters is not None:
        counters.reductions += 1


def multiply_inplace_left(
    a_inv: np.ndarray,
    target: np.ndarray,
    row_scratch: np.ndarray,
    negate: bool = False,
    counters: OpCounters | None = None,
) -> None:
    """target <- (+-1) * a_inv @ target in place.

    ``row_scratch`` is the caller's counted buffer of at least one column
    (``n`` scalars); it is checked, not written.  The product runs over
    column panels (:func:`_by_panels`), each summed into a kernel-internal
    temporary of its size in the same ascending inner order as
    :func:`multiply` and then copied back, so the result is bitwise
    identical to the out-of-place product and the extra memory stays
    bounded however wide ``target`` is.  The sign goes on the panel, which
    the product then overwrites.  ``row_scratch`` overlapping either
    matrix, or ``target`` overlapping ``a_inv``, raises AliasedOperands.
    """
    n = target.shape[0]
    if a_inv.shape != (n, n):
        raise DimensionMismatch(f"inplace left {a_inv.shape} on {target.shape}")
    _check_inplace(a_inv, target, row_scratch, n)
    _by_panels(target, 1, lambda s, panel: (a_inv, panel), negate=negate)
    if counters is not None:
        counters.multiplies += 1


def multiply_inplace_right(
    target: np.ndarray,
    a_inv: np.ndarray,
    row_scratch: np.ndarray,
    negate: bool = False,
    counters: OpCounters | None = None,
) -> None:
    """target <- (+-1) * target @ a_inv in place, by row panels.

    Row r of the product needs only row r of ``target``, so each row
    panel (:func:`_by_panels`) is summed into a kernel-internal temporary
    of its size and copied back, with the sign on the panel.  The same
    counted ``row_scratch`` contract and bounded panel temporary as
    :func:`multiply_inplace_left` apply, and the bits are those of
    :func:`multiply`.
    """
    n = target.shape[1]
    if a_inv.shape != (n, n):
        raise DimensionMismatch(f"inplace right {target.shape} on {a_inv.shape}")
    _check_inplace(a_inv, target, row_scratch, n)
    _by_panels(target, 0, lambda s, panel: (panel, a_inv), negate=negate)
    if counters is not None:
        counters.multiplies += 1


def accumulate_inplace(dest: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """dest += a @ b in place, by column panels of ``dest``.

    Each panel (:func:`_by_panels`) is summed in a contiguous copy of
    itself, in the same ascending inner order as :func:`multiply` with
    ``accumulate``, and copied back: the same bits, with a kernel-internal
    temporary of one panel instead of one as large as ``dest``.  ``dest``
    overlapping ``a`` or ``b`` raises AliasedOperands.
    """
    _check_product("accumulate_inplace", a, b, dest)
    _check_disjoint(dest, a, b)
    _by_panels(dest, 1, lambda s, panel: (a, b[:, s]), accumulate=True)


def _by_panels(target, axis, factors, negate=False, accumulate=False) -> None:
    """The panel loop of the in-place kernels: each panel of ``target``
    (its columns ``s`` for ``axis`` 1, its rows for 0) becomes ``x @ y``
    for ``x, y = factors(s, panel)``, plus the panel when ``accumulate``,
    after ``negate`` puts the sign on the panel.  The product is summed in
    a contiguous temporary (zeros, or a copy of the panel), copied back
    once the product has read all of the panel.  A panel is at least
    ``_PANEL`` wide, and otherwise as wide as ``_STAGE_ELEMENTS`` elements
    allow, so the temporaries stay that small however wide the target is.
    """
    width = max(_PANEL, _STAGE_ELEMENTS // max(target.shape[1 - axis], 1))
    for j in range(0, target.shape[axis], width):
        s = slice(j, j + width)
        panel = target[:, s] if axis else target[s]
        if negate:
            np.negative(panel, out=panel)
        out = panel.copy() if accumulate else np.zeros(panel.shape)
        _mm_acc(*factors(s, panel), out)
        panel[...] = out


# The in-place kernels' panels are at least 16 columns (rows, for right
# products) wide, and wider while they hold at most _STAGE_ELEMENTS.
_PANEL = 16

# Output elements from which a product stage copies b's row across its
# temporary before the multiply: fewer broadcast operands pay off from
# about this size, and below it the extra copy costs more than it saves.
# It also bounds the in-place kernels' panels (32 KiB each).
_STAGE_ELEMENTS = 4096

# Output elements per row panel of the product kernels, over the whole
# stack: a panel and the kernel's temporary of its size (512 KiB each) stay
# in a 2 MiB L2 cache through the inner loop.  No product of the
# recursions or of the engine's default partition has a larger output at
# order 256 or below.  A panel has at least _ROW_PANEL rows, which bounds
# the number of Python-level kernel calls.
_PANEL_ELEMENTS = 65536
_ROW_PANEL = 32


def _check_inplace(a_inv, target, row_scratch, n) -> None:
    if row_scratch.shape[0] < n:
        raise ScratchTooSmall(f"need {n} scalars, have {row_scratch.shape[0]}")
    _check_disjoint(row_scratch, target, a_inv)
    _check_disjoint(target, a_inv)


def singularity_tolerance(rows) -> float:
    """Scale-aware determinant threshold for the analytic inverses."""
    n = len(rows)
    amax = max(abs(v) for row in rows for v in row) if n else 0.0
    try:
        return 1e-12 * n * n * amax**n
    except OverflowError:  # a float power raises where a product is inf
        return float("inf")


def _inv_rows(rows: list, path=None) -> list:
    """Inverse of a 1x1 or 2x2 matrix given as a list of rows.

    The 2x2 threshold is singularity_tolerance written out inline.
    """
    if len(rows) == 1:
        v = rows[0][0]
        if v == 0.0:  # the scale-aware threshold reduces to exact zero here
            raise SingularBlock("A", path=path)
        return [[1.0 / v]]
    (a, b), (c, d) = rows
    det = a * d - b * c
    amax = max(abs(a), abs(b), abs(c), abs(d))
    if abs(det) <= 1e-12 * 4 * amax * amax:
        raise SingularBlock("A", path=path)
    r = 1.0 / det
    return [[d * r, -b * r], [-c * r, a * r]]


def _inv2_stack(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`_inv_rows` on a (q, 2, 2) stack, elementwise in numpy.

    Returns the singular mask of the stack.  ``out`` must not overlap ``m``
    and is written only when no block is singular; each inverse then has
    the bits ``_inv_rows`` gives, because every step is the same IEEE-754
    operation in the same order (Python floats are float64).
    """
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    det = a * d - b * c
    amax = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
    singular = np.abs(det) <= 1e-12 * 4 * amax * amax
    if not np.count_nonzero(singular):
        with np.errstate(over="ignore", invalid="ignore"):  # Python floats do not warn
            r = 1.0 / det
            np.multiply(d, r, out=out[:, 0, 0])
            np.multiply(-b, r, out=out[:, 0, 1])
            np.multiply(-c, r, out=out[:, 1, 0])
            np.multiply(a, r, out=out[:, 1, 1])
    return singular


def _inv_leaf(m: np.ndarray, out: np.ndarray) -> None:
    # reads all of m before writing out, so out may be m itself
    out[...] = _inv_rows(m.tolist())


def _inv3(m: np.ndarray, out: np.ndarray) -> None:
    rows = m.tolist()
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
    c00 = a11 * a22 - a12 * a21
    c01 = -(a10 * a22 - a12 * a20)
    c02 = a10 * a21 - a11 * a20
    det = a00 * c00 + a01 * c01 + a02 * c02
    if abs(det) <= singularity_tolerance(rows):
        raise SingularBlock("A", path=[])
    r = 1.0 / det
    c10 = -(a01 * a22 - a02 * a21)
    c11 = a00 * a22 - a02 * a20
    c12 = -(a00 * a21 - a01 * a20)
    c20 = a01 * a12 - a02 * a11
    c21 = -(a00 * a12 - a02 * a10)
    c22 = a00 * a11 - a01 * a10
    # adjugate = cofactor matrix transposed
    out[...] = [
        [c00 * r, c10 * r, c20 * r],
        [c01 * r, c11 * r, c21 * r],
        [c02 * r, c12 * r, c22 * r],
    ]


def invert_small(m: np.ndarray, out: np.ndarray, counters: OpCounters | None = None) -> None:
    """Closed-form inverse for orders 1-4 into ``out``.

    Orders 1-3 use adjugate/determinant formulas; order 4 is the pivot-A
    formula of :mod:`blockinv.schur` with analytic 2x2 sub-inverses, retried
    with pivot D when the leading block or its complement is singular.
    Raises SingularBlock when no usable pivot exists.  For orders 1 and 2
    ``out`` may be ``m`` itself.
    """
    n = m.shape[0]
    if m.shape != (n, n) or out.shape != (n, n) or not 1 <= n <= 4:
        raise DimensionMismatch(f"invert_small on {m.shape} -> {out.shape}")
    if n <= 2:
        _inv_leaf(m, out)
    elif n == 3:
        _inv3(m, out)
    else:
        from .schur import diagonal_quad, invert_via_a, invert_via_d

        q = diagonal_quad(m, 2)
        try:
            invert_via_a(q, _inv_leaf, out)
        except SingularBlock:
            invert_via_d(q, _inv_leaf, out)
    if counters is not None:
        counters.inversions += 1


def gauss_jordan_oracle(m: np.ndarray) -> np.ndarray:
    """Invert by Gauss-Jordan elimination with partial pivoting.

    Verification oracle only: the blockwise algorithms never call this.
    """
    m = check_square(m)
    n = m.shape[0]
    tol = 1e-12 * n * float(np.max(np.abs(m)))
    aug = np.hstack([m.astype(np.float64, copy=True), np.eye(n)])
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot_row, col]) <= tol:
            raise SingularMatrix(f"no pivot in column {col}")
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col, :] /= aug[col, col]
        factors = aug[:, col].copy()
        factors[col] = 0.0
        aug -= np.outer(factors, aug[col, :])
    return np.ascontiguousarray(aug[:, n:])


def residual_norm(x: np.ndarray, x_inv: np.ndarray) -> float:
    """max |(x @ x_inv - I)_ij| - the correctness metric for every path."""
    x = as_matrix(x)
    x_inv = as_matrix(x_inv)
    n = x.shape[0]
    if x.shape != x_inv.shape or x.shape[0] != x.shape[1]:
        raise DimensionMismatch(f"residual_norm {x.shape} vs {x_inv.shape}")
    prod = x @ x_inv
    prod[np.diag_indices(n)] -= 1.0
    return float(np.max(np.abs(prod)))


# ---------------------------------------------------------------------------
# Matrix file formats.
#
# Text: first line "rows cols", then rows whitespace-separated lines.
# Binary: magic "BMAT", two u64 little-endian dims, float64 LE row-major.
# ---------------------------------------------------------------------------


def _validate_loaded(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise FormatError(f"bad matrix shape {m.shape}")
    check_finite(m)
    return np.ascontiguousarray(m, dtype=np.float64)


def save_text(m: np.ndarray, path) -> None:
    m = as_matrix(m)
    with open(path, "w") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for row in m:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_text(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError("first line must be 'rows cols'")
        try:
            rows, cols = int(header[0]), int(header[1])
        except ValueError as exc:
            raise FormatError("non-integer dimensions") from exc
        # loadtxt skips blank and '#' comment lines, and warns on a body of
        # nothing else
        body = [line for line in fh if line.split("#", 1)[0].strip()]
        if not body:
            raise FormatError("no matrix body after the header")
        try:
            data = np.loadtxt(body, ndmin=2, dtype=np.float64)
        except ValueError as exc:
            raise FormatError(f"bad matrix body: {exc}") from exc
    if data.shape != (rows, cols):
        raise FormatError(f"header says {(rows, cols)}, body is {data.shape}")
    return _validate_loaded(data)


def matrix_to_bytes(m: np.ndarray) -> bytes:
    m = as_matrix(m)
    header = _BMAT_MAGIC + struct.pack("<QQ", m.shape[0], m.shape[1])
    body = np.ascontiguousarray(m, dtype="<f8").tobytes()
    return header + body


def matrix_from_bytes(buf: bytes) -> np.ndarray:
    if len(buf) < 20 or buf[:4] != _BMAT_MAGIC:
        raise FormatError("missing BMAT magic")
    rows, cols = struct.unpack("<QQ", buf[4:20])
    expected = 20 + rows * cols * 8
    if len(buf) != expected:
        raise FormatError(f"expected {expected} bytes, got {len(buf)}")
    data = np.frombuffer(buf, dtype="<f8", offset=20).reshape(rows, cols)
    return _validate_loaded(data)


def save_binary(m: np.ndarray, path) -> None:
    with open(path, "wb") as fh:
        fh.write(matrix_to_bytes(m))


def load_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return matrix_from_bytes(fh.read())


def save_matrix(m: np.ndarray, path, binary: bool = False) -> None:
    (save_binary if binary else save_text)(m, path)


def load_matrix(path, binary: bool | None = None) -> np.ndarray:
    """Load a matrix, sniffing the BMAT magic when ``binary`` is None."""
    if binary is None:
        with open(path, "rb") as fh:
            binary = fh.read(4) == _BMAT_MAGIC
    return (load_binary if binary else load_text)(path)
