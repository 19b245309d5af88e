import os
import subprocess
import sys

import numpy as np
import pytest

import blockinv
from blockinv import core
from blockinv.core import (
    gauss_jordan_oracle,
    invert_small,
    load_binary,
    load_matrix,
    load_text,
    accumulate_inplace,
    multiply,
    multiply_inplace_left,
    multiply_inplace_right,
    residual_norm,
    save_binary,
    save_text,
    schur_accumulate,
    OpCounters,
)
from blockinv.errors import (
    AliasedOperands,
    DimensionMismatch,
    FormatError,
    ScratchTooSmall,
    SingularBlock,
    SingularMatrix,
)

from conftest import well_conditioned


def naive_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            s = 0.0
            for k in range(a.shape[1]):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


class TestMultiply:
    def test_identity_left(self, rng):
        b = rng.uniform(-1, 1, (3, 2))
        out = np.empty((3, 2))
        multiply(np.eye(3), b, out)
        assert np.array_equal(out, b)

    def test_identity_negate(self, rng):
        b = rng.uniform(-1, 1, (3, 2))
        out = np.empty((3, 2))
        multiply(np.eye(3), b, out, negate=True)
        assert np.array_equal(out, -b)

    def test_against_naive_triple_loop(self, rng):
        a = rng.uniform(-1, 1, (5, 4))
        b = rng.uniform(-1, 1, (4, 6))
        out = np.empty((5, 6))
        multiply(a, b, out)
        assert np.max(np.abs(out - naive_matmul(a, b))) <= 1e-14

    def test_negate_is_bitwise_negation(self, rng):
        # -1 folds into the left factor, which negates the result exactly
        for shape in [(2, 2, 2), (5, 7, 3), (16, 16, 16), (1, 9, 1)]:
            m, k, n = shape
            a = rng.uniform(-1, 1, (m, k))
            b = rng.uniform(-1, 1, (k, n))
            pos = np.empty((m, n))
            neg = np.empty((m, n))
            multiply(a, b, pos)
            multiply(a, b, neg, negate=True)
            assert neg.tobytes() == (-pos).tobytes()

    def test_accumulate(self, rng):
        a = rng.uniform(-1, 1, (3, 3))
        b = rng.uniform(-1, 1, (3, 3))
        base = rng.uniform(-1, 1, (3, 3))
        out = base.copy()
        multiply(a, b, out, accumulate=True)
        plain = np.empty((3, 3))
        multiply(a, b, plain)
        assert np.max(np.abs(out - (base + plain))) <= 1e-14

    def test_small_and_vector_paths_agree_bitwise(self, rng):
        # a scalar loop adding a[i, k] * b[k, j] for ascending k applies the
        # same IEEE-754 operations as the vectorized kernel, element by element
        for shape in [(2, 2, 2), (5, 5, 5), (8, 8, 8), (3, 1, 7), (9, 4, 12)]:
            m, k, n = shape
            a = rng.uniform(-1, 1, (m, k))
            b = rng.uniform(-1, 1, (k, n))
            base = rng.uniform(-1, 1, (m, n))
            for negate in (False, True):
                out = base.copy()
                core._mm_acc(a, b, out, negate)
                ref = base.tolist()
                for i in range(m):
                    for j in range(n):
                        for kk in range(k):
                            aik = -a[i, kk] if negate else a[i, kk]
                            ref[i][j] = ref[i][j] + float(aik) * float(b[kk, j])
                assert out.tobytes() == np.array(ref).tobytes()

    def test_stacked_kernel_equals_per_slice(self, rng):
        # leading stack axes: each product gets exactly its lone-call bits
        for stack in [(1,), (3,), (2, 3)]:
            a = rng.uniform(-1, 1, (*stack, 4, 5))
            b = rng.uniform(-1, 1, (*stack, 5, 3))
            base = rng.uniform(-1, 1, (*stack, 4, 3))
            for negate in (False, True):
                out = base.copy()
                core._mm_acc(a, b, out, negate)
                for idx in np.ndindex(*stack):
                    ref = base[idx].copy()
                    core._mm_acc(a[idx], b[idx], ref, negate)
                    assert out[idx].tobytes() == ref.tobytes()

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            multiply(np.ones((2, 3)), np.ones((2, 3)), np.empty((2, 3)))
        with pytest.raises(DimensionMismatch):
            multiply(np.ones((2, 3)), np.ones((3, 2)), np.empty((3, 3)))

    def test_counters(self, rng):
        c = OpCounters()
        a = rng.uniform(-1, 1, (2, 2))
        out = np.empty((2, 2))
        multiply(a, a, out, counters=c)
        multiply(a, a, out, accumulate=True, counters=c)
        assert c.multiplies == 2 and c.reductions == 1
        schur_accumulate(out, a, a, c)
        assert c.multiplies == 2 and c.reductions == 2


def _fox_order(row_sizes, inner_sizes):
    from blockinv.engine import _expand, _fox

    return _expand(_fox(row_sizes, inner_sizes))


def _strided_stack(rng, q, rows, cols):
    """A (q, 1, rows, cols) view into a larger parent, laid out like the
    engine's operands: strided rows and a zero stride on the unit axis."""
    parent = rng.uniform(-1, 1, (q, 2 * rows, cols + 3))
    s = parent.strides
    return np.lib.stride_tricks.as_strided(
        parent[:, ::2, 1 : cols + 1], shape=(q, 1, rows, cols), strides=(s[0], 0, 2 * s[1], s[2])
    )


class TestKernelLayoutAndPanels:
    """The kernels' bits do not depend on the layout of ``b`` or on the
    row panels a large output runs over."""

    def test_strided_b_equals_contiguous_b(self, rng):
        for rows, inner, cols in (((2, 3), (3, 2, 4), (5,)), ((3, 3, 2), (4, 4), (6, 1))):
            r, k = sum(rows), sum(inner)
            b = _strided_stack(rng, 2, k, sum(cols))
            assert not b.flags.c_contiguous
            a = rng.uniform(-1, 1, (2, 1, r, k))
            base = rng.uniform(-1, 1, (2, 1, r, sum(cols)))
            for order in (_fox_order(rows, inner), rng.permuted(np.tile(np.arange(k)[:, None], r), axis=0)):
                for negate in (False, True):
                    got, ref = base.copy(), base.copy()
                    core._mm_acc_ordered(a, b, got, order, negate)
                    core._mm_acc_ordered(a, np.ascontiguousarray(b), ref, order, negate)
                    assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", [(5, 7, 3), (300, 40, 224)])
    def test_explicit_ascending_order_equals_none(self, rng, shape):
        # the second shape runs by row panels
        r, k, c = shape
        a = rng.uniform(-1, 1, (2, r, k))
        b = rng.uniform(-1, 1, (2, k, c))
        base = rng.uniform(-1, 1, (2, r, c))
        ascending = np.tile(np.arange(k)[:, None], r)
        for negate in (False, True):
            got, ref = base.copy(), base.copy()
            core._mm_acc_ordered(a, b, got, ascending, negate)
            core._mm_acc_ordered(a, b, ref, None, negate)
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "shape, height",
        [((256, 256), None), ((2, 1, 128, 128), None), ((512, 512), 128),
         ((2, 1, 512, 512), 64), ((8, 1, 512, 512), 32), ((2, 32, 2048), None)],
    )
    def test_panel_height_follows_stack_and_width(self, shape, height):
        # at most 65,536 output elements per panel, at least 32 rows
        panels = core._row_panels(np.empty(shape))
        if height is None:
            assert panels is None
        else:
            assert {p.stop - p.start for p in panels} == {height}
            assert len(panels) * height == shape[-2]

    @pytest.mark.parametrize("negate", [False, True])
    def test_row_panels_equal_unpanelled_row_slices(self, rng, negate):
        # two 300 x 224 outputs run by panels of 146 rows, the last one
        # short; slices of 100 rows stay below the panel size and run whole
        row_sizes, inner_sizes, c = (60, 90, 150), (64, 64, 64), 224
        r, k = sum(row_sizes), sum(inner_sizes)
        a = rng.uniform(-1, 1, (2, 1, r, k))
        b = _strided_stack(rng, 2, k, c)
        base = rng.uniform(-1, 1, (2, 1, r, c))
        assert core._row_panels(base) is not None
        assert core._row_panels(base[..., :100, :]) is None
        for order in (_fox_order(row_sizes, inner_sizes), None):
            got = base.copy()
            core._mm_acc_ordered(a, b, got, order, negate)
            ref = base.copy()
            for lo in range(0, r, 100):
                rs = slice(lo, lo + 100)
                sub = None if order is None else order[:, rs]
                core._mm_acc_ordered(a[..., rs, :], b, ref[..., rs, :], sub, negate)
            assert got.tobytes() == ref.tobytes()


def _two_broadcast(a, b, out, negate):
    """out += (+-1) a @ b as the kernel's stage ran before it had a
    contiguous-sum path or a one-broadcast stage: every stage multiplies
    a's column by b's row, both broadcast, and adds into ``out`` in place,
    whatever its layout."""
    if negate:
        a = -a
    tmp = np.empty(out.shape)
    for k in range(a.shape[-1]):
        np.multiply(a[..., k, None], b[..., k, None, :], out=tmp)
        np.add(out, tmp, out=out)


def _with_specials(rng, shape):
    """Uniform entries with +-0.0, two subnormals and +-inf planted at
    random places, and row 1 all -0.0, so that signed-zero products reach
    the sums."""
    x = rng.uniform(-1, 1, shape)
    flat = x.reshape(-1)
    at = rng.choice(flat.size, size=6, replace=False)
    flat[at] = (-0.0, 0.0, 5e-324, -2.5e-310, np.inf, -np.inf)
    x[..., 1, :] = -0.0
    return x


# output layouts: (parent shape for an output of (..., rows, cols), view)
_OUT_LAYOUTS = {
    "contiguous": (lambda st, r, c: (*st, r, c), lambda p: p),
    "strided": (lambda st, r, c: (*st, 2 * r, c + 3), lambda p: p[..., ::2, 1:-2]),
    "transposed": (lambda st, r, c: (*st, c, r), lambda p: p.swapaxes(-1, -2)),
}


class TestStageAndContiguousSums:
    """The one-broadcast stage and the contiguous-sum path give the bits
    of the two-broadcast stage summed in place, on every output layout,
    below, at and above the stage threshold."""

    # (stack, rows, cols, inner) and the output's size against the threshold
    SHAPES = [
        ((), 63, 65, 9, -1), ((), 64, 64, 9, 0), ((), 65, 64, 9, 1),
        ((2,), 31, 66, 5, -1), ((2,), 32, 64, 5, 0), ((3,), 40, 40, 5, 1),
        ((), 300, 224, 4, 1),  # runs by row panels
    ]

    @pytest.mark.parametrize("stack, rows, cols, inner, side", SHAPES)
    @pytest.mark.parametrize("layout", sorted(_OUT_LAYOUTS))
    def test_multiply_equals_two_broadcast_stage(self, rng, stack, rows, cols, inner, side, layout):
        assert np.sign(rows * cols * int(np.prod(stack)) - core._STAGE_ELEMENTS) == side
        shape, view = _OUT_LAYOUTS[layout]
        a = _with_specials(rng, (*stack, rows, inner))
        b = _with_specials(rng, (*stack, inner, cols))
        parent = _with_specials(rng, shape(stack, rows, cols))
        for negate in (False, True):
            for accumulate in (False, True):
                got, ref = parent.copy(), parent.copy()
                with np.errstate(all="ignore"):  # inf * 0 and inf - inf
                    multiply(a, b, view(got), accumulate, negate)
                    if not accumulate:
                        view(ref)[...] = 0.0
                    _two_broadcast(a, b, view(ref), negate)
                assert got.tobytes() == ref.tobytes()
                if accumulate and not negate:
                    got = parent.copy()
                    with np.errstate(all="ignore"):
                        schur_accumulate(view(got), a, b)
                    assert got.tobytes() == ref.tobytes()


def _panel_shapes(monkeypatch, call):
    """The output shapes of the kernel calls ``call`` makes."""
    shapes = []
    kernel = core._mm_acc

    def recording(a, b, out, negate=False):
        shapes.append(out.shape)
        kernel(a, b, out, negate)

    monkeypatch.setattr(core, "_mm_acc", recording)
    call()
    monkeypatch.undo()
    return shapes


def _budget_width(length):
    # the widest panel of at most _STAGE_ELEMENTS elements, or _PANEL
    return max(core._PANEL, core._STAGE_ELEMENTS // length)


class TestInplacePanels:
    """The in-place kernels' panels are sized by elements, and their bits
    are those of :func:`multiply` whatever the panel widths."""

    # panel lengths where the 16-wide floor binds (300), and where the
    # budget gives exactly 16 (256), 32 (128) and 341 (12)
    LENGTHS = (300, 256, 128, 12)

    @staticmethod
    def _widths(length):
        # one narrow panel, one just short of, at and past the full width,
        # and two full panels and a short one
        w = _budget_width(length)
        return (1, w - 1, w, w + 1, 2 * w + 3)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_panel_widths_follow_the_element_budget(self, rng, monkeypatch, n):
        w = _budget_width(n)
        assert w >= core._PANEL and (w == core._PANEL or n * w <= core._STAGE_ELEMENTS < n * (w + 1))
        width = 2 * w + 3
        a_inv = rng.uniform(-1, 1, (n, n))
        target = rng.uniform(-1, 1, (n, width))
        left = _panel_shapes(monkeypatch, lambda: multiply_inplace_left(a_inv, target, np.empty(n)))
        assert [s[1] for s in left] == [w, w, 3]
        right = _panel_shapes(
            monkeypatch, lambda: multiply_inplace_right(target.T.copy(), a_inv, np.empty(n)))
        assert [s[0] for s in right] == [w, w, 3]
        b = rng.uniform(-1, 1, (5, width))
        acc = _panel_shapes(monkeypatch, lambda: accumulate_inplace(target, a_inv[:, :5], b))
        assert [s[1] for s in acc] == [w, w, 3]

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("negate", [False, True])
    def test_inplace_products_equal_multiply(self, rng, n, negate):
        a_inv = _with_specials(rng, (n, n))
        for width in self._widths(n):
            t = rng.uniform(-1, 1, (n, width))
            expect = np.empty_like(t)
            with np.errstate(all="ignore"):
                multiply(a_inv, t, expect, negate=negate)
                got = t.copy()
                multiply_inplace_left(a_inv, got, np.empty(n), negate)
            assert got.tobytes() == expect.tobytes()
            t = t.T.copy()
            expect = np.empty_like(t)
            with np.errstate(all="ignore"):
                multiply(t, a_inv, expect, negate=negate)
                got = t.copy()
                multiply_inplace_right(got, a_inv, np.empty(n), negate)
            assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("n", LENGTHS)
    def test_accumulate_inplace_equals_multiply(self, rng, n):
        for width in self._widths(n):
            a = _with_specials(rng, (n, 7))
            b = _with_specials(rng, (7, width))
            # the recursion's destinations are quadrant views
            parent = _with_specials(rng, (2 * n, width + 2))
            expect = parent.copy()
            with np.errstate(all="ignore"):
                multiply(a, b, expect[::2, 1:-1], accumulate=True)
                accumulate_inplace(parent[::2, 1:-1], a, b)
            assert parent.tobytes() == expect.tobytes()

    def test_overlap_raises_before_any_write(self, rng):
        # the contiguous sums must not hide an overlap: every call refuses
        # before it writes, on strided outputs above the stage threshold
        x = rng.uniform(-1, 1, (260, 260))
        before = x.copy()
        with pytest.raises(AliasedOperands):  # strided out overlaps b
            multiply(rng.uniform(-1, 1, (64, 65)), x[:65, 64:129], x[:64, ::2][:, :65])
        with pytest.raises(AliasedOperands):
            schur_accumulate(x[:64, ::2][:, :65], x[:64, 64:129], np.eye(65))
        with pytest.raises(AliasedOperands):  # dest overlaps a
            accumulate_inplace(x[:128, 100:228], x[:128, :128], np.eye(128))
        with pytest.raises(AliasedOperands):  # dest overlaps b
            accumulate_inplace(x[::2, ::2][:64, :64], np.eye(64), x[:64, :64])
        with pytest.raises(AliasedOperands):  # target overlaps a_inv
            multiply_inplace_left(x[:128, :128], x[:128, 64:192], np.empty(128))
        with pytest.raises(AliasedOperands):
            multiply_inplace_right(x[64:192, :128], x[:128, :128], np.empty(128))
        assert x.tobytes() == before.tobytes()


class TestInplaceMultiply:
    def test_identity_left(self, rng):
        t = rng.uniform(-1, 1, (4, 3))
        t2 = t.copy()
        multiply_inplace_left(np.eye(4), t2, np.empty(4))
        assert np.array_equal(t2, t)

    def test_scaling(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        multiply_inplace_left(2.0 * np.eye(2), t, np.empty(2))
        assert np.array_equal(t, [[2.0, 4.0], [6.0, 8.0]])

    def test_left_bitwise_equals_out_of_place(self, rng):
        for shape in [(4, 3), (7, 7), (2, 9)]:
            a_inv = rng.uniform(-1, 1, (shape[0], shape[0]))
            t = rng.uniform(-1, 1, shape)
            expect = np.empty(shape)
            multiply(a_inv, t, expect)
            got = t.copy()
            multiply_inplace_left(a_inv, got, np.empty(shape[0]))
            assert got.tobytes() == expect.tobytes()
            gotn = t.copy()
            expectn = np.empty(shape)
            multiply(a_inv, t, expectn, negate=True)
            multiply_inplace_left(a_inv, gotn, np.empty(shape[0]), negate=True)
            assert gotn.tobytes() == expectn.tobytes()

    def test_right_bitwise_equals_out_of_place(self, rng):
        for shape in [(3, 4), (7, 7), (9, 2)]:
            a_inv = rng.uniform(-1, 1, (shape[1], shape[1]))
            t = rng.uniform(-1, 1, shape)
            expect = np.empty(shape)
            multiply(t, a_inv, expect)
            got = t.copy()
            multiply_inplace_right(got, a_inv, np.empty(shape[1]))
            assert got.tobytes() == expect.tobytes()

    def test_scratch_too_small(self, rng):
        t = rng.uniform(-1, 1, (4, 3))
        with pytest.raises(ScratchTooSmall):
            multiply_inplace_left(np.eye(4), t, np.empty(3))
        with pytest.raises(ScratchTooSmall):
            multiply_inplace_right(t, np.eye(3), np.empty(2))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            multiply_inplace_left(np.eye(3), np.ones((4, 2)), np.empty(8))


# The destination is the left factor: the product must refuse before it
# zeroes (and so destroys) its own input.
_ALIAS = """
import numpy as np
from blockinv.core import multiply
from blockinv.errors import AliasedOperands

a = np.array([[1.0, 2.0], [3.0, 4.0]])
try:
    multiply(a, np.eye(2), a)
except AliasedOperands:
    print("raised", a.tolist())
"""


class TestAliasChecks:
    def test_multiply(self, rng):
        x = rng.uniform(-1, 1, (4, 4))
        with pytest.raises(AliasedOperands):
            multiply(x, np.eye(4), x)
        with pytest.raises(AliasedOperands):
            multiply(np.eye(3), x[:3, :2], x[1:, 1:3])  # out overlaps b
        with pytest.raises(AliasedOperands):
            multiply(x, np.eye(4), x.T, accumulate=True)

    def test_schur_accumulate(self, rng):
        x = rng.uniform(-1, 1, (4, 4))
        with pytest.raises(AliasedOperands):
            schur_accumulate(x[:2, :2], x[:2, 1:3], np.eye(2))  # dest overlaps x
        with pytest.raises(AliasedOperands):
            schur_accumulate(x[2:, 2:], np.eye(2), x[2:, 2:])  # dest is y

    def test_multiply_inplace_left(self, rng):
        x = rng.uniform(-1, 1, (4, 4))
        with pytest.raises(AliasedOperands):
            multiply_inplace_left(x[:2, :2], x[:2, 2:], x[0, 2:])  # scratch in target
        with pytest.raises(AliasedOperands):
            multiply_inplace_left(x[:2, :2], x[:2, 2:], x[1, :2])  # scratch in a_inv
        with pytest.raises(AliasedOperands):
            multiply_inplace_left(x[:2, :2], x[:2, 1:], np.empty(2))  # target over a_inv

    def test_multiply_inplace_right(self, rng):
        x = rng.uniform(-1, 1, (4, 4))
        with pytest.raises(AliasedOperands):
            multiply_inplace_right(x[2:, :2], x[:2, :2], x[2:, 0])  # scratch in target
        with pytest.raises(AliasedOperands):
            multiply_inplace_right(x[2:, :2], x[:2, :2], x[0, :2])  # scratch in a_inv
        with pytest.raises(AliasedOperands):
            multiply_inplace_right(x[1:3, :2], x[:2, :2], np.empty(2))  # target over a_inv

    def test_check_survives_optimized_mode(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(blockinv.__file__)))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _ALIAS],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert proc.stdout == "raised [[1.0, 2.0], [3.0, 4.0]]\n", proc.stderr


class TestInvertSmall:
    def test_identity_2x2(self):
        out = np.empty((2, 2))
        invert_small(np.eye(2), out)
        assert np.array_equal(out, np.eye(2))

    def test_diagonal_reciprocals(self):
        out = np.empty((2, 2))
        invert_small(np.array([[2.0, 0.0], [0.0, 4.0]]), out)
        assert np.array_equal(out, [[0.5, 0.0], [0.0, 0.25]])

    def test_3x3_matches_oracle(self):
        m = well_conditioned(3, 99)
        out = np.empty((3, 3))
        invert_small(m, out)
        assert np.max(np.abs(out - gauss_jordan_oracle(m))) <= 1e-12

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_orders_2_to_4_match_oracle_1000_samples(self, order):
        worst = 0.0
        for seed in range(1000):
            m = well_conditioned(order, 7000 + seed)
            out = np.empty((order, order))
            invert_small(m, out)
            worst = max(worst, float(np.max(np.abs(out - gauss_jordan_oracle(m)))))
        assert worst <= 1e-12

    def test_order_1(self):
        out = np.empty((1, 1))
        invert_small(np.array([[5.0]]), out)
        assert out[0, 0] == 0.2
        with pytest.raises(SingularBlock):
            invert_small(np.zeros((1, 1)), out)

    def test_order_4_leading_block_singular_falls_back(self):
        # leading 2x2 block singular, trailing pivot fine
        m = np.array(
            [
                [1.0, 1.0, 2.0, 0.5],
                [1.0, 1.0, 0.25, 3.0],
                [2.0, 0.5, 9.0, 0.1],
                [0.5, 2.0, 0.2, 8.0],
            ]
        )
        assert abs(np.linalg.det(m[:2, :2])) < 1e-15
        out = np.empty((4, 4))
        invert_small(m, out)
        assert residual_norm(m, out) <= 1e-10

    def test_singular_raises(self):
        out = np.empty((2, 2))
        with pytest.raises(SingularBlock):
            invert_small(np.ones((2, 2)), out)

    def test_bad_order(self):
        with pytest.raises(DimensionMismatch):
            invert_small(np.eye(5), np.empty((5, 5)))


def _inv2_reference(m):
    """(singular mask, inverses) from ``_inv_rows`` one block at a time."""
    singular, out = [], np.zeros(m.shape)
    for i, block in enumerate(m):
        try:
            out[i] = core._inv_rows(block.tolist())
            singular.append(False)
        except SingularBlock:
            singular.append(True)
    return np.array(singular), out


class TestInv2Stack:
    """The stacked 2x2 leaf is ``_inv_rows`` bit for bit."""

    def _blocks(self):
        g = np.random.default_rng(8800)
        blocks = list(g.uniform(-1.0, 1.0, (40, 2, 2)) * 10.0 ** g.integers(-5, 5, (40, 1, 1)))
        # signed zeros on and off the diagonal: the inverse's signs must follow
        for a, b, c, d in (
            (2.0, -0.0, 0.0, 3.0),
            (-0.0, 1.0, -1.0, 0.0),
            (0.0, -2.0, 0.5, -0.0),
            (-4.0, 0.0, -0.0, 0.25),
        ):
            blocks.append(np.array([[a, b], [c, d]]))
        return np.array(blocks)

    def test_inverses_bitwise(self):
        m = self._blocks()
        out = np.full(m.shape, np.nan)
        singular = core._inv2_stack(m, out)
        ref_singular, ref = _inv2_reference(m)
        assert not ref_singular.any() and not singular.any()
        assert out.tobytes() == ref.tobytes()

    def test_strided_input_view(self):
        m = self._blocks()
        parent = np.zeros((m.shape[0], 3, 5))
        parent[:, :2, 1:3] = m
        out = np.empty(m.shape)
        core._inv2_stack(parent[:, :2, 1:3], out)
        assert out.tobytes() == _inv2_reference(m)[1].tobytes()

    def test_determinant_on_the_threshold(self):
        # det = a * d with amax = 1: singular exactly at 1e-12 * 4, not one ulp above
        on = 1e-12 * 4
        above = np.nextafter(on, 1.0)
        m = np.array([[[1.0, 0.0], [0.0, on]], [[1.0, 0.0], [0.0, above]]])
        ref_singular, ref = _inv2_reference(m)
        assert ref_singular.tolist() == [True, False]
        assert core._inv2_stack(m, np.empty(m.shape)).tolist() == [True, False]
        out = np.empty((1, 2, 2))
        assert not core._inv2_stack(m[1:], out).any()
        assert out.tobytes() == ref[1:].tobytes()

    def test_singular_mask_and_no_write(self):
        m = self._blocks()
        m[[3, 17]] = [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, -0.0]]]
        out = np.full(m.shape, 7.0)
        singular = core._inv2_stack(m, out)
        assert singular.tolist() == _inv2_reference(m)[0].tolist()
        assert np.flatnonzero(singular).tolist() == [3, 17]
        assert (out == 7.0).all()


class TestOracle:
    @pytest.mark.parametrize("order", [1, 3, 17])
    def test_identity(self, order):
        assert np.array_equal(gauss_jordan_oracle(np.eye(order)), np.eye(order))

    def test_permutation_involution(self):
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(gauss_jordan_oracle(p), p)

    def test_residual_on_generated_64(self):
        m = well_conditioned(64, 5)
        inv = gauss_jordan_oracle(m)
        assert residual_norm(m, inv) <= 1e-9

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            gauss_jordan_oracle(np.ones((3, 3)))

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            gauss_jordan_oracle(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        # the same input check as every blockwise method
        from blockinv.bench import run_method

        m = well_conditioned(4, 12)
        m[1, 2] = bad
        with pytest.raises(FormatError):
            gauss_jordan_oracle(m)
        with pytest.raises(FormatError):
            run_method("oracle", m)

    def test_empty_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            gauss_jordan_oracle(np.zeros((0, 0)))


class TestResidualNorm:
    def test_identity(self):
        assert residual_norm(np.eye(4), np.eye(4)) == 0.0

    def test_scaled(self):
        assert residual_norm(2 * np.eye(2), 0.5 * np.eye(2)) == 0.0

    def test_oracle_residual_100(self):
        m = well_conditioned(100, 11)
        assert residual_norm(m, gauss_jordan_oracle(m)) <= 1e-8

    def test_mismatch(self):
        with pytest.raises(DimensionMismatch):
            residual_norm(np.eye(2), np.eye(3))


class TestMatrixIO:
    def test_text_roundtrip(self, tmp_path, rng):
        m = rng.uniform(-1, 1, (3, 5))
        path = tmp_path / "m.txt"
        save_text(m, path)
        assert np.array_equal(load_text(path), m)

    def test_binary_roundtrip_bitwise(self, tmp_path, rng):
        m = rng.uniform(-1, 1, (4, 4))
        path = tmp_path / "m.blk"
        save_binary(m, path)
        assert load_binary(path).tobytes() == m.tobytes()

    def test_sniffing(self, tmp_path, rng):
        m = rng.uniform(-1, 1, (2, 2))
        save_binary(m, tmp_path / "b")
        save_text(m, tmp_path / "t")
        assert np.array_equal(load_matrix(tmp_path / "b"), m)
        assert np.array_equal(load_matrix(tmp_path / "t"), m)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad").write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(FormatError):
            load_binary(tmp_path / "bad")

    def test_header_mismatch(self, tmp_path):
        (tmp_path / "bad.txt").write_text("2 2\n1 2 3\n4 5 6\n")
        with pytest.raises(FormatError):
            load_text(tmp_path / "bad.txt")

    def test_nan_rejected(self, tmp_path):
        (tmp_path / "nan.txt").write_text("1 2\nnan 1\n")
        with pytest.raises(FormatError):
            load_text(tmp_path / "nan.txt")

    def test_truncated_binary(self, tmp_path, rng):
        m = rng.uniform(-1, 1, (3, 3))
        path = tmp_path / "m.blk"
        save_binary(m, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_binary(path)
