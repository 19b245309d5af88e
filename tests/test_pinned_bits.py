"""Bit-level pins of the pivot formulas, the leaf inverses and the invertors.

Each group hashes the raw bytes of its outputs and its OpCounters.  The
digests were recorded when every pivot formula, the order-4 leaf and each
2x2 leaf still had its own body; the shared kernels must reproduce them
bit for bit.  The engine groups at orders 33 to 128 were recorded while
the Fox product still ran one kernel call per tile and each assembly task
covered one block column.  The blocked-product group ``fox`` hashes its
outputs only; its digest is that of the per-call blocked product the
engine's stacked ``fox_block_multiply`` replaced, whose operation counts
it no longer hashes.  The ``by_ad_boundary``
group and the ``by_ad_kron_*`` failures were recorded while every node of
``invertor_by_ad`` still ran on numpy arrays; the ``inplace_boundary`` group
and the ``inplace_kron_*`` failures while every node of
``invertor_inplace_by_a`` did, and the in-place products still ran one
column at a time.  The ``fallback_boundary`` group and the ``fallback_*``
failures were recorded while ``invertor_with_fallback`` still searched
every all-zero block formula by formula.  The failure cases
pin the SingularBlock label and path each entry raises.

The ``by_a_boundary`` group and the ``by_a_kron_*`` failures were recorded
while each recursion still wrote its pivot formula out on numpy arrays and
again on Python lists, and ``schur`` had its own bodies; every group above
was recorded before the recursions and ``schur`` came to share one body per
formula.

The ``*_512`` groups were recorded while the product kernels still updated
each output whole, however large, and the Fox product gathered its rows
from a strided ``b`` as it came; order 512 is the first order at which
the engine's and ``invertor_by_ad``'s stacked products run by row panels.

The ``*_list_nodes`` groups and ``engine_leaves`` were recorded while the
recursions' nodes of order 10 and below still ran their formula on Python
lists, one backend call per block operation.

The ``inplace_512`` and ``fallback_256`` groups were recorded while the
ascending kernel still summed a strided output in place, with two
broadcast operands per stage, and the in-place products and Schur updates
still ran over panels of 16 columns or rows.

The ``engine_coarse_256`` group, the benchmark's coarse engine case, was
recorded while every stack of ``recursive._Stacks`` above order 2 still ran
as one lockstep numpy recursion.
"""

import hashlib

import numpy as np
import pytest

from blockinv.bench import generate
from blockinv.core import (
    OpCounters,
    _mm_acc,
    _mm_acc_ordered,
    invert_small,
    multiply_inplace_left,
    multiply_inplace_right,
)
from blockinv.engine import _expand, _fox, fox_block_multiply, run_inversion
from blockinv.errors import SingularBlock
from blockinv.recursive import (
    invertor_by_a,
    invertor_by_ad,
    invertor_inplace_by_a,
    invertor_with_fallback,
)
from blockinv.schur import (
    counterdiagonal_quad,
    diagonal_quad,
    invert_via_a,
    invert_via_ad,
    invert_via_b,
    invert_via_bc,
    invert_via_c,
    invert_via_d,
    invert_with_fallback,
)

from conftest import well_conditioned


def _counts(c: OpCounters) -> bytes:
    fields = (c.multiplies, c.inversions, c.reductions, c.peak_scratch, c.schur_scratch, c.nodes)
    return repr(fields).encode()


def _reversal(n):
    return np.eye(n)[::-1].copy()


def _formula_inputs():
    for n in range(4, 8):
        for seed in range(5):
            yield well_conditioned(n, 9100 + 10 * n + seed)
        yield _reversal(n)


def _formula_group(formula, make_quad):
    def run():
        h = hashlib.sha256()
        for m in _formula_inputs():
            n = m.shape[0]
            for split in sorted({n // 2, n - n // 2}):
                out = np.zeros((n, n))
                c = OpCounters()
                try:
                    formula(make_quad(m, split), invert_small, out, counters=c)
                except SingularBlock as exc:
                    h.update(f"{exc.block}:{exc.path}".encode())
                h.update(out.tobytes() + _counts(c))
        return h.hexdigest()

    return run


def _invert_small_4():
    h = hashlib.sha256()
    g = np.random.default_rng(9200)
    for i in range(40):
        m = g.uniform(-1.0, 1.0, (4, 4)) + 4.0 * np.eye(4)
        if i % 2:
            m[1, :2] = 2.0 * m[0, :2]  # leading 2x2 pivot singular: falls back to D
        out = np.zeros((4, 4))
        invert_small(m, out)
        h.update(out.tobytes())
    return h.hexdigest()


def _inplace_1_to_9():
    h = hashlib.sha256()
    for n in range(1, 10):
        work = well_conditioned(n, 9300 + n)
        c = invertor_inplace_by_a(work)
        h.update(work.tobytes() + _counts(c))
    return h.hexdigest()


def _inplace_right():
    h = hashlib.sha256()
    g = np.random.default_rng(9400)
    for rows, n in ((1, 1), (3, 2), (2, 5), (7, 4)):
        for negate in (False, True):
            target = g.uniform(-1.0, 1.0, (rows, n))
            a_inv = g.uniform(-1.0, 1.0, (n, n))
            c = OpCounters()
            multiply_inplace_right(target, a_inv, np.empty(n), negate=negate, counters=c)
            h.update(target.tobytes() + _counts(c))
    return h.hexdigest()


def _invertor_group(invertor):
    def run():
        h = hashlib.sha256()
        for n in (1, 2, 3, 5, 8, 11, 16, 23):
            inv, c = invertor(well_conditioned(n, 9500 + n))
            h.update(inv.tobytes() + _counts(c))
        return h.hexdigest()

    return run


def _counts_all(c: OpCounters) -> bytes:
    return _counts(c) + repr(c._current_scratch).encode()


def _by_a_boundary():
    # orders whose pivot-A nodes cross order 10, including its list subtrees
    h = hashlib.sha256()
    for n in (9, 10, 11, 12, 13, 20, 21, 40, 64, 100):
        for seed in range(3):
            inv, c = invertor_by_a(well_conditioned(n, 9560 + 10 * n + seed))
            h.update(inv.tobytes() + _counts_all(c))
    return h.hexdigest()


def _by_ad_boundary():
    # orders whose nodes cross order 10 at non-zero diagonal offsets
    h = hashlib.sha256()
    for n in (9, 10, 11, 12, 13, 20, 21, 40, 64, 100):
        for seed in range(3):
            inv, c = invertor_by_ad(well_conditioned(n, 9650 + 10 * n + seed))
            h.update(inv.tobytes() + _counts_all(c))
    return h.hexdigest()


def _inplace_boundary():
    # orders whose in-place nodes cross order 10, including targets of
    # width 16 and 17 at the top node, the edges of the 16-column panels
    # the in-place products ran over when this group was recorded
    h = hashlib.sha256()
    for n in (9, 10, 11, 12, 13, 16, 17, 20, 21, 33, 40, 64, 100):
        for seed in range(3):
            work = well_conditioned(n, 9750 + 10 * n + seed)
            c = invertor_inplace_by_a(work)
            h.update(work.tobytes() + _counts_all(c))
    return h.hexdigest()


def _list_node_inputs(n):
    # orders whose pivot-A nodes of order 10 and below make up the whole
    # run (10), hang under one array node (20) or under two levels of odd
    # splits (37); block-diagonal inputs carry exact zeros into the sums
    for seed in range(3):
        yield well_conditioned(n, 9920 + 10 * n + seed)
    yield generate(n, seed=9990 + n, kind="block-diagonal")


def _by_a_list_nodes():
    h = hashlib.sha256()
    for n in (10, 20, 37):
        for m in _list_node_inputs(n):
            inv, c = invertor_by_a(m)
            h.update(inv.tobytes() + _counts_all(c))
    return h.hexdigest()


def _inplace_list_nodes():
    h = hashlib.sha256()
    for n in (10, 20, 37):
        for work in _list_node_inputs(n):
            c = invertor_inplace_by_a(work)
            h.update(work.tobytes() + _counts_all(c))
    return h.hexdigest()


# explicit partitions whose diagonal blocks of orders 5 to 10 are inverted
# by the pivot-A recursion: one-member groups, stacked groups, and a group
# with a singular member, whose blocks are then inverted one at a time
_LEAF_SIZES = ((60, [5, 6, 7, 8, 9, 10, 7, 8]), (64, [8] * 8), (48, [10, 5, 10, 5, 5, 3, 5, 5]))


def _engine_leaves():
    h = hashlib.sha256()
    for n, sizes in _LEAF_SIZES:
        c = OpCounters()
        inv = run_inversion(well_conditioned(n, 9960 + n), sizes=sizes, counters=c)
        h.update(inv.to_dense().tobytes() + _counts(c))
    m = well_conditioned(48, 9970)
    m[18:27, 18:27] = 1.0  # the third of four order-9 diagonal blocks is singular
    c = OpCounters()
    try:
        run_inversion(m, sizes=[9, 9, 9, 9, 3, 3, 3, 3], counters=c)
    except SingularBlock as exc:
        h.update(f"{exc.block}:{exc.path}:{exc.step}:{exc.quad}".encode() + _counts(c))
    return h.hexdigest()


def _random_permutation(n, seed):
    return np.eye(n)[np.random.default_rng(seed).permutation(n)]


def _zeroed_a(n, seed):
    m = well_conditioned(n, seed)
    m[: n // 2, : n // 2] = 0.0
    return m


def _fallback_inputs():
    for n in (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17, 20, 21, 33, 40, 64, 100):
        yield _reversal(n)
    for n in (9, 10, 11, 12, 13, 20):
        for seed in range(3):
            yield _random_permutation(n, 9850 + 10 * n + seed)
    for k in (3, 5, 6, 10):
        yield _kron_swap(k)
    for n in (12, 21):
        yield _zeroed_a(n, 9870 + n)


def _fallback_boundary():
    # inputs whose fallback search meets all-zero blocks at many orders
    h = hashlib.sha256()
    for m in _fallback_inputs():
        c = OpCounters()
        try:
            inv, _ = invertor_with_fallback(m, c)
            h.update(inv.tobytes())
        except SingularBlock as exc:
            h.update(f"{exc.block}:{exc.path}".encode())
        h.update(_counts_all(c))
    return h.hexdigest()


def _fallback():
    h = hashlib.sha256()
    for m in (_reversal(12), well_conditioned(13, 9600)):
        inv, c = invertor_with_fallback(m)
        h.update(inv.tobytes() + _counts(c))
    out = np.zeros((6, 6))
    h.update(invert_with_fallback(_reversal(6), 3, out).encode() + out.tobytes())
    return h.hexdigest()


def _engine():
    h = hashlib.sha256()
    for n, sizes in ((16, None), (16, [4] * 4), (48, [6] * 8)):
        c = OpCounters()
        inv = run_inversion(well_conditioned(n, 9700 + n), sizes=sizes, counters=c)
        h.update(inv.to_dense().tobytes() + _counts(c))
    return h.hexdigest()


def _engine_group(cases, workers):
    def run():
        h = hashlib.sha256()
        for n, sizes in cases:
            c = OpCounters()
            m = well_conditioned(n, 9800 + n)
            inv = run_inversion(m, sizes=sizes, workers=workers, counters=c)
            h.update(inv.to_dense().tobytes() + _counts(c))
        return h.hexdigest()

    return run


def _order_512(invert, seed):
    # the stacked top products of the engine and of invertor_by_ad run by
    # row panels from this order on, invertor_by_a's from order 1024
    def run():
        inv, c = invert(well_conditioned(512, seed))
        return hashlib.sha256(inv.tobytes() + _counts_all(c)).hexdigest()

    return run


def _inplace_dense(m):
    work = m.copy()
    return work, invertor_inplace_by_a(work)


def _fallback_256():
    # the reversal searches pivots B and C at every node of the top levels
    h = hashlib.sha256()
    for m in (_reversal(256), well_conditioned(256, 9886)):
        inv, c = invertor_with_fallback(m)
        h.update(inv.tobytes() + _counts_all(c))
    return h.hexdigest()


def _engine_dense(m):
    c = OpCounters()
    return run_inversion(m, counters=c).to_dense(), c


# default partitions mixing block sizes 2/3 (order 33) and 3/4 (order 100)
_MIXED = ((33, None), (100, None))
# explicit sizes: non-uniform blocks, and uniform blocks of 16 at order 128
_SIZED = ((96, [8, 16, 8, 16, 12, 12, 4, 20]), (128, [16] * 8))
# the coarse engine case: 8 blocks of 32 at order 256
_COARSE = ((256, [32] * 8),)

# non-uniform blocked products: (a rows, inner, b cols) block sizes
_FOX_SHAPES = (
    ((2, 3), (3, 2, 4), (2, 3, 1)),
    ((4, 1, 3, 2), (2, 5), (3, 3)),
    ((5,), (1, 2, 3), (2, 2)),
    ((3, 3, 2), (3, 3, 2), (3, 3, 2)),
    ((1, 4, 2, 6, 3), (2, 7, 1), (6, 1, 2)),
)


def _fox_cases():
    g = np.random.default_rng(9900)
    for rows, inner, cols in _FOX_SHAPES:
        for negate in (False, True):
            for accumulate in (False, True):
                a = g.uniform(-1.0, 1.0, (sum(rows), sum(inner)))
                b = g.uniform(-1.0, 1.0, (sum(inner), sum(cols)))
                base = g.uniform(-1.0, 1.0, (sum(rows), sum(cols)))
                yield rows, inner, cols, a, b, base, negate, accumulate


def _fox_reference(rows, inner, a, b, base, negate, accumulate):
    """Per-tile stage loop: block row i sums a's block columns starting at
    i mod nb and wrapping, each tile over its inner index ascending."""
    out = base.copy() if accumulate else np.zeros_like(base)
    r_off = np.cumsum((0,) + rows)
    k_off = np.cumsum((0,) + inner)
    nb = len(inner)
    for i in range(len(rows)):
        panel = out[r_off[i] : r_off[i + 1]]
        for t in range(nb):
            k = (i + t) % nb
            for j in range(k_off[k], k_off[k + 1]):
                col = a[r_off[i] : r_off[i + 1], j, None]
                panel += (-col if negate else col) * b[j]
    return out


def _fox_product(rows, inner, a, b, base, negate, accumulate):
    """The engine's product of one case, as a stack of one: into a copy of
    ``base`` when accumulating, else into zeros."""
    out = base.copy() if accumulate else np.zeros_like(base)
    fox_block_multiply(a[None], b[None], out[None], _fox(rows, inner), negate)
    return out


def _fox_group():
    h = hashlib.sha256()
    for rows, inner, cols, a, b, base, negate, accumulate in _fox_cases():
        h.update(_fox_product(rows, inner, a, b, base, negate, accumulate).tobytes())
    return h.hexdigest()


GROUPS = {
    "via_a": _formula_group(invert_via_a, diagonal_quad),
    "via_d": _formula_group(invert_via_d, diagonal_quad),
    "via_b": _formula_group(invert_via_b, counterdiagonal_quad),
    "via_c": _formula_group(invert_via_c, counterdiagonal_quad),
    "via_ad": _formula_group(invert_via_ad, diagonal_quad),
    "via_bc": _formula_group(invert_via_bc, counterdiagonal_quad),
    "invert_small_4": _invert_small_4,
    "inplace_1_to_9": _inplace_1_to_9,
    "inplace_boundary": _inplace_boundary,
    "inplace_list_nodes": _inplace_list_nodes,
    "inplace_right": _inplace_right,
    "by_a": _invertor_group(invertor_by_a),
    "by_a_boundary": _by_a_boundary,
    "by_a_list_nodes": _by_a_list_nodes,
    "by_ad": _invertor_group(invertor_by_ad),
    "by_ad_boundary": _by_ad_boundary,
    "by_a_512": _order_512(invertor_by_a, 9612),
    "by_ad_512": _order_512(invertor_by_ad, 9712),
    "engine_512": _order_512(_engine_dense, 9812),
    "fallback": _fallback,
    "fallback_boundary": _fallback_boundary,
    "fallback_256": _fallback_256,
    "inplace_512": _order_512(_inplace_dense, 9912),
    "engine": _engine,
    "engine_coarse_256": _engine_group(_COARSE, 1),
    "engine_leaves": _engine_leaves,
    "engine_mixed_w1": _engine_group(_MIXED, 1),
    "engine_mixed_w2": _engine_group(_MIXED, 2),
    "engine_sized_w1": _engine_group(_SIZED, 1),
    "engine_sized_w2": _engine_group(_SIZED, 2),
    "fox": _fox_group,
}

EXPECTED = {
    "by_a": "cd798e0ac3ac662b61b7b8b4a92eae99e61fe0756a3df311ac703e6357908c1c",
    "by_a_512": "01a9d89820a123ccda7e7105659cf21f45791d1f828d81779fed1f8c4dceb2de",
    "by_a_boundary": "3cafa5775194fd8df61b2bb32fa0a36f901608b33e5249e8752240964fccbd53",
    "by_a_list_nodes": "121769f9a99318d1dc8708669128ed985a35bdbdbebb41468f3c47d2a6f3a500",
    "by_ad": "7e9d6b4bb831e11addf4c3b80fdd2c32d0d77abcc63f5d7ac98f7730a9f56be1",
    "by_ad_512": "0ef3883f8a5845856dc3e60b181845d9da7aabe701f786b4a7e69c5287b108eb",
    "by_ad_boundary": "05f7ba4d2f7b5e3cc925a1a8ab537c89f372e83b5cced1168057ebaac7e526e9",
    "engine": "61ed9463f82052799f28d4032e07b13ebb7d4c41cf6eafedc1cf295dd23e0951",
    "engine_coarse_256": "05aae1a6bfcd7cb82306e88b0a25749574d939c6cb23a0b6be6d04c282b3e70a",
    "engine_512": "1a8344c429bd8e5114954d288ffce48454091fb1cc60e610e17e3139d9c4b0f4",
    "engine_leaves": "0b563deb82483ab6b8a731d41f801d173dc8325a60b0fcf879640989f4019411",
    "engine_mixed_w1": "47e2fc9948c199e6c78d2262ba4feba3de5ce53ef5b913cd5146c5129dbea3e8",
    "engine_mixed_w2": "47e2fc9948c199e6c78d2262ba4feba3de5ce53ef5b913cd5146c5129dbea3e8",
    "engine_sized_w1": "b4c8eb10c0407f4a778b5097cec2381a7cf5d4c6c01c7403e95faa13b9ecf4e2",
    "engine_sized_w2": "b4c8eb10c0407f4a778b5097cec2381a7cf5d4c6c01c7403e95faa13b9ecf4e2",
    "fallback": "b5d0b9a57f585e1d788b3795bd5961feb0cb18b3e9376a3e79c81a0ad02da01a",
    "fallback_256": "870a0d9b86cb34740cf92f3d5a1025a40becbc0ac4869c5cbbe895c5f432a0e1",
    "fallback_boundary": "352559c951fd0aeceb9f216bfa00eeeefd720414d7edcff67429af7c6a097c6b",
    "fox": "d25e5201edc014cb94d6fc5d8888936de2f82ff11498ff949dbc8818abbfff8e",
    "inplace_1_to_9": "8c236f72898026a5f147c3a726b45327f1cb89dfe77bcd375990154dbf84921c",
    "inplace_512": "973c8d978312364e1d6919f53a0d9031eff83dc1340290a30b1c7c89c060a5fc",
    "inplace_boundary": "c9d014a5aaf0bcddf826ad8243bcc76b25cb9f3598a9533efde7d70c20591555",
    "inplace_list_nodes": "f4eb1e908f688e38c988b903c4f470d1300d2218f001201b8f07320669e77894",
    "inplace_right": "bc601c186e1982134536f4d64f11963589b561e01cf238c746a9c010cf53c5dd",
    "invert_small_4": "a298b223bc03fa3f2ecb96bbb7f54b284fbfb31899cc7f6d06152c47ecf6f963",
    "via_a": "39f73da40be450bd912fa57f9103ba6f5fe1d5fd193b28749f9aa448b52fbd61",
    "via_ad": "ee4a10c76132a48d6e2537fedfa0a6673fa7a087994abc812e3d588a65a738b1",
    "via_b": "f560a2fb327f47435903c9035c0e261f89813e190b6ee87fa5ef59d8d903dc2b",
    "via_bc": "ae695ec7b5c1db76fb56c7f68252a27a143bb615efaffc0381b907e830b76fb9",
    "via_c": "46d284f59566156737dc35e23b98a32fb715f45a0937f833795ff536ca5c528f",
    "via_d": "d75d695bfe5606e0551a192b3f3503fd3893d679f0742f6556c9d0e0bb2cb679",
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_outputs_bitwise_pinned(name):
    assert GROUPS[name]() == EXPECTED[name]


def test_fox_matches_per_tile_loop_bitwise():
    for rows, inner, cols, a, b, base, negate, accumulate in _fox_cases():
        out = _fox_product(rows, inner, a, b, base, negate, accumulate)
        ref = _fox_reference(rows, inner, a, b, base, negate, accumulate)
        assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("negate", [False, True])
def test_stacked_kernel_matches_per_product_calls_bitwise(batch, negate):
    """One stacked ``_mm_acc_ordered`` call equals a call per product, and
    each product equals the per-tile reference, for every Fox signature
    and for ascending order (``None``, checked against ``_mm_acc``)."""
    g = np.random.default_rng(9990 + batch)
    for rows, inner, cols in _FOX_SHAPES:
        r, k, c = sum(rows), sum(inner), sum(cols)
        for order in (_expand(_fox(rows, inner)), None):
            a = g.uniform(-1.0, 1.0, (batch, r, k))
            b = g.uniform(-1.0, 1.0, (batch, k, c))
            base = g.uniform(-1.0, 1.0, (batch, r, c))
            stacked = base.copy()
            _mm_acc_ordered(a, b, stacked, order, negate)
            for i in range(batch):
                one = base[i : i + 1].copy()
                _mm_acc_ordered(a[i : i + 1], b[i : i + 1], one, order, negate)
                assert stacked[i : i + 1].tobytes() == one.tobytes()
                if order is None:
                    ref = base[i].copy()
                    _mm_acc(a[i], b[i], ref, negate)
                else:
                    ref = _fox_reference(rows, inner, a[i], b[i], base[i], negate, True)
                assert stacked[i].tobytes() == ref.tobytes()


# widths around the 16-wide panels the in-place kernels ran over when these
# tests were written (test_core's TestInplacePanels covers today's widths)
_PANEL_WIDTHS = (1, 15, 16, 17, 33, 40)

# target layouts: (parent shape for (n, width), view of the parent)
_LAYOUTS = {
    "contiguous": (lambda n, w: (n, w), lambda p: p),
    "strided": (lambda n, w: (2 * n, 2 * w + 1), lambda p: p[::2, 1::2]),
    "transposed": (lambda n, w: (w, n), lambda p: p.T),
}


def _inplace_cases():
    g = np.random.default_rng(9950)
    for width in _PANEL_WIDTHS:
        for n in (3, 12):
            for negate in (False, True):
                for layout in sorted(_LAYOUTS):
                    shape, view = _LAYOUTS[layout]
                    a_inv = g.uniform(-1.0, 1.0, (n, n))
                    parent = g.uniform(-1.0, 1.0, shape(n, width))
                    yield a_inv, parent, view, negate


def _column_loop_left(a_inv, target, negate):
    """target <- (+-1) a_inv @ target one column at a time, each column
    summed over the inner index ascending in a row-sized buffer."""
    n = target.shape[0]
    s = np.empty(n)
    for j in range(target.shape[1]):
        col = target[:, j]
        s[:] = 0.0
        for k in range(n):
            ak = -a_inv[:, k] if negate else a_inv[:, k]
            s += ak * col[k]
        col[:] = s


def _row_loop_right(target, a_inv, negate):
    """target <- (+-1) target @ a_inv one row at a time."""
    n = target.shape[1]
    s = np.empty(n)
    for i in range(target.shape[0]):
        row = target[i]
        s[:] = 0.0
        for k in range(n):
            ak = -a_inv[k] if negate else a_inv[k]
            s += ak * row[k]
        row[:] = s


def test_inplace_left_matches_column_loop_bitwise():
    for a_inv, parent, view, negate in _inplace_cases():
        got, ref = parent.copy(), parent.copy()
        c = OpCounters()
        multiply_inplace_left(a_inv, view(got), np.empty(a_inv.shape[0]), negate, c)
        _column_loop_left(a_inv, view(ref), negate)
        assert got.tobytes() == ref.tobytes()
        assert c.multiplies == 1


def test_inplace_right_matches_row_loop_bitwise():
    for a_inv, parent, view, negate in _inplace_cases():
        # the same parents, read as (width, n) targets of the right product
        got, ref = parent.copy(), parent.copy()
        c = OpCounters()
        multiply_inplace_right(view(got).T, a_inv, np.empty(a_inv.shape[0]), negate, c)
        _row_loop_right(view(ref).T, a_inv, negate)
        assert got.tobytes() == ref.tobytes()
        assert c.multiplies == 1


def _twins():
    # A = D = I and B = C = I: every pivot is fine, every complement is zero
    return np.block([[np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)]])


def _schur_singular_d():
    m = np.eye(4)
    m[2:, 2:] = 0.0
    return m


def _c_zero():
    m = np.zeros((4, 4))
    m[:, 2:] = np.vstack([np.eye(2), np.eye(2)])
    return m


def _kron_schur_a():
    # A = B = C = I, D = [[1, 2], [2, 1]]: S_A = [[0, 2], [2, 0]] has a zero
    # leading block, while S_D is fine
    m = np.array([[1.0, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 2], [0, 1, 2, 1]])
    return np.kron(m, np.eye(6))


def _kron_swap(k):
    # zero diagonal blocks, identity off-diagonal blocks: A itself is singular
    return np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(k))


def _at_split_2(formula, make_quad, m):
    return lambda: formula(make_quad(m, 2), invert_small, np.empty((4, 4)))


FAILURES = [
    ("via_a_reversal", _at_split_2(invert_via_a, diagonal_quad, _reversal(4))),
    ("via_d_reversal", _at_split_2(invert_via_d, diagonal_quad, _reversal(4))),
    ("via_ad_reversal", _at_split_2(invert_via_ad, diagonal_quad, _reversal(4))),
    ("via_ad_d_zero", _at_split_2(invert_via_ad, diagonal_quad, _schur_singular_d())),
    ("via_bc_c_zero", _at_split_2(invert_via_bc, counterdiagonal_quad, _c_zero())),
    ("via_bc_identity", _at_split_2(invert_via_bc, counterdiagonal_quad, np.eye(4))),
    ("via_a_twins", _at_split_2(invert_via_a, diagonal_quad, _twins())),
    ("via_d_twins", _at_split_2(invert_via_d, diagonal_quad, _twins())),
    ("via_b_twins", _at_split_2(invert_via_b, counterdiagonal_quad, _twins())),
    ("via_c_twins", _at_split_2(invert_via_c, counterdiagonal_quad, _twins())),
    ("via_ad_twins", _at_split_2(invert_via_ad, diagonal_quad, _twins())),
    ("via_bc_twins", _at_split_2(invert_via_bc, counterdiagonal_quad, _twins())),
    ("invert_small_twins", lambda: invert_small(_twins(), np.empty((4, 4)))),
    ("by_a_ones", lambda: invertor_by_a(np.ones((8, 8)))),
    ("by_a_schur", lambda: invertor_by_a(np.kron(_schur_singular_d(), np.eye(3)))),
    # singular leaves inside order <= 10 pivot-A subtrees under array nodes
    ("by_a_kron_swap", lambda: invertor_by_a(_kron_swap(6))),
    ("by_a_kron_d", lambda: invertor_by_a(np.kron(_schur_singular_d(), np.eye(6)))),
    ("by_a_kron_twins", lambda: invertor_by_a(np.kron(_twins(), np.eye(7)))),
    ("inplace_ones", lambda: invertor_inplace_by_a(np.ones((8, 8)))),
    ("inplace_schur", lambda: invertor_inplace_by_a(np.kron(_schur_singular_d(), np.eye(3)))),
    ("by_ad_ones", lambda: invertor_by_ad(np.ones((8, 8)))),
    ("by_ad_schur", lambda: invertor_by_ad(_schur_singular_d())),
    # singular leaves inside order <= 10 subtrees under order-12 and -14 nodes
    ("by_ad_kron_schur_a", lambda: invertor_by_ad(_kron_schur_a())),
    ("by_ad_kron_d", lambda: invertor_by_ad(np.kron(_schur_singular_d(), np.eye(6)))),
    ("by_ad_kron_twins", lambda: invertor_by_ad(np.kron(_twins(), np.eye(7)))),
    # singular leaves inside order <= 10 in-place subtrees under array nodes
    ("inplace_kron_swap", lambda: invertor_inplace_by_a(_kron_swap(6))),
    ("inplace_kron_ones", lambda: invertor_inplace_by_a(np.kron(np.ones((2, 2)), np.eye(6)))),
    ("inplace_kron_twins", lambda: invertor_inplace_by_a(np.kron(_twins(), np.eye(7)))),
]

EXPECTED_FAILURES = {
    "via_a_reversal": ("A", []),
    "via_d_reversal": ("D", []),
    "via_ad_reversal": ("A", []),
    "via_ad_d_zero": ("D", []),
    "via_bc_c_zero": ("C", []),
    "via_bc_identity": ("B", []),
    "via_a_twins": ("SchurA", []),
    "via_d_twins": ("SchurD", []),
    "via_b_twins": ("SchurB", []),
    "via_c_twins": ("SchurC", []),
    "via_ad_twins": ("SchurD", []),
    "via_bc_twins": ("SchurB", []),
    "invert_small_twins": ("SchurD", []),
    "by_a_ones": ("A", ["A", "A"]),
    "by_a_schur": ("A", ["SchurA", "A", "A"]),
    "by_a_kron_swap": ("A", ["A", "A", "A"]),
    "by_a_kron_d": ("A", ["SchurA", "A", "A", "A"]),
    "by_a_kron_twins": ("A", ["SchurA", "A", "A", "A"]),
    "inplace_ones": ("A", ["A", "A"]),
    "inplace_schur": ("A", ["SchurA", "A", "A"]),
    "by_ad_ones": ("A", ["A", "A"]),
    "by_ad_schur": ("A", ["D"]),
    "by_ad_kron_schur_a": ("A", ["SchurA", "A", "A", "A"]),
    "by_ad_kron_d": ("A", ["D", "A", "A", "A"]),
    "by_ad_kron_twins": ("A", ["SchurD", "A", "A", "A"]),
    "inplace_kron_swap": ("A", ["A", "A", "A"]),
    "inplace_kron_ones": ("A", ["SchurA", "A", "A"]),
    "inplace_kron_twins": ("A", ["SchurA", "A", "A", "A"]),
}


@pytest.mark.parametrize("name, call", FAILURES, ids=[f[0] for f in FAILURES])
def test_singular_labels_and_paths_pinned(name, call):
    with pytest.raises(SingularBlock) as info:
        call()
    assert (info.value.block, info.value.path) == EXPECTED_FAILURES[name]


def _raise_with_counters(m):
    def run():
        c = OpCounters()
        try:
            invertor_with_fallback(m, c)
        except SingularBlock as exc:
            fields = (c.multiplies, c.inversions, c.reductions, c.peak_scratch,
                      c.schur_scratch, c.nodes, c._current_scratch)
            return exc.block, exc.path, fields
        raise AssertionError("no SingularBlock raised")

    return run


# all-zero inputs at the leaf orders, the smallest searched order and above
FALLBACK_FAILURES = [
    ("fallback_zero_1", _raise_with_counters(np.zeros((1, 1)))),
    ("fallback_zero_2", _raise_with_counters(np.zeros((2, 2)))),
    ("fallback_zero_3", _raise_with_counters(np.zeros((3, 3)))),
    ("fallback_zero_12", _raise_with_counters(np.zeros((12, 12)))),
    ("fallback_zero_33", _raise_with_counters(np.zeros((33, 33)))),
    ("fallback_negzero_12", _raise_with_counters(np.full((12, 12), -0.0))),
    ("fallback_ones", _raise_with_counters(np.ones((8, 8)))),
]

# (label, path, (multiplies, inversions, reductions, peak_scratch,
#  schur_scratch, nodes, current scratch)) after the raise
EXPECTED_FALLBACK_FAILURES = {
    "fallback_zero_1": ("A", [], (0, 0, 0, 0, 0, 0, 0)),
    "fallback_zero_2": ("A", [], (0, 0, 0, 0, 0, 0, 0)),
    "fallback_zero_3": ("AllPivots", [], (0, 0, 0, 0, 0, 1, 0)),
    "fallback_zero_12": ("AllPivots", [], (0, 0, 0, 0, 0, 21, 0)),
    "fallback_zero_33": ("AllPivots", [], (0, 0, 0, 0, 0, 101, 0)),
    "fallback_negzero_12": ("AllPivots", [], (0, 0, 0, 0, 0, 21, 0)),
    "fallback_ones": ("AllPivots", [], (0, 0, 0, 0, 0, 5, 0)),
}


@pytest.mark.parametrize("name, call", FALLBACK_FAILURES, ids=[f[0] for f in FALLBACK_FAILURES])
def test_fallback_labels_paths_and_counters_pinned(name, call):
    assert call() == EXPECTED_FALLBACK_FAILURES[name]
