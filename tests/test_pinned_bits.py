"""Bit-level pins of the pivot formulas, the leaf inverses and the invertors.

Each group hashes the raw bytes of its outputs and its OpCounters.  The
digests were recorded when every pivot formula, the order-4 leaf and each
2x2 leaf still had its own body; the shared kernels must reproduce them
bit for bit.  The engine groups at orders 33 to 128 and the blocked-product
group were recorded while the Fox product still ran one kernel call per
tile and each assembly task covered one block column.  The failure cases
pin the SingularBlock label and path each entry raises.
"""

import hashlib

import numpy as np
import pytest

from blockinv.core import OpCounters, invert_small, multiply_inplace_right
from blockinv.engine import BlockedView, fox_block_multiply, run_inversion
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


# default partitions mixing block sizes 2/3 (order 33) and 3/4 (order 100)
_MIXED = ((33, None), (100, None))
# explicit sizes: non-uniform blocks, and uniform blocks of 16 at order 128
_SIZED = ((96, [8, 16, 8, 16, 12, 12, 4, 20]), (128, [16] * 8))

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


def _fox():
    h = hashlib.sha256()
    for rows, inner, cols, a, b, base, negate, accumulate in _fox_cases():
        out = base.copy()
        c = OpCounters()
        fox_block_multiply(
            BlockedView(a, rows, inner), BlockedView(b, inner, cols),
            BlockedView(out, rows, cols), negate=negate, accumulate=accumulate, counters=c,
        )
        h.update(out.tobytes() + _counts(c))
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
    "inplace_right": _inplace_right,
    "by_a": _invertor_group(invertor_by_a),
    "by_ad": _invertor_group(invertor_by_ad),
    "fallback": _fallback,
    "engine": _engine,
    "engine_mixed_w1": _engine_group(_MIXED, 1),
    "engine_mixed_w2": _engine_group(_MIXED, 2),
    "engine_sized_w1": _engine_group(_SIZED, 1),
    "engine_sized_w2": _engine_group(_SIZED, 2),
    "fox": _fox,
}

EXPECTED = {
    "by_a": "cd798e0ac3ac662b61b7b8b4a92eae99e61fe0756a3df311ac703e6357908c1c",
    "by_ad": "7e9d6b4bb831e11addf4c3b80fdd2c32d0d77abcc63f5d7ac98f7730a9f56be1",
    "engine": "61ed9463f82052799f28d4032e07b13ebb7d4c41cf6eafedc1cf295dd23e0951",
    "engine_mixed_w1": "47e2fc9948c199e6c78d2262ba4feba3de5ce53ef5b913cd5146c5129dbea3e8",
    "engine_mixed_w2": "47e2fc9948c199e6c78d2262ba4feba3de5ce53ef5b913cd5146c5129dbea3e8",
    "engine_sized_w1": "b4c8eb10c0407f4a778b5097cec2381a7cf5d4c6c01c7403e95faa13b9ecf4e2",
    "engine_sized_w2": "b4c8eb10c0407f4a778b5097cec2381a7cf5d4c6c01c7403e95faa13b9ecf4e2",
    "fallback": "b5d0b9a57f585e1d788b3795bd5961feb0cb18b3e9376a3e79c81a0ad02da01a",
    "fox": "71f6aca553feee89561455f18d4b06630383d791c121b6ee72a2fbd7c8c47ccb",
    "inplace_1_to_9": "8c236f72898026a5f147c3a726b45327f1cb89dfe77bcd375990154dbf84921c",
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
        out = base.copy()
        fox_block_multiply(
            BlockedView(a, rows, inner), BlockedView(b, inner, cols),
            BlockedView(out, rows, cols), negate=negate, accumulate=accumulate,
        )
        ref = _fox_reference(rows, inner, a, b, base, negate, accumulate)
        assert out.tobytes() == ref.tobytes()


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
    ("inplace_ones", lambda: invertor_inplace_by_a(np.ones((8, 8)))),
    ("inplace_schur", lambda: invertor_inplace_by_a(np.kron(_schur_singular_d(), np.eye(3)))),
    ("by_ad_ones", lambda: invertor_by_ad(np.ones((8, 8)))),
    ("by_ad_schur", lambda: invertor_by_ad(_schur_singular_d())),
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
    "inplace_ones": ("A", ["A", "A"]),
    "inplace_schur": ("A", ["SchurA", "A", "A"]),
    "by_ad_ones": ("A", ["A", "A"]),
    "by_ad_schur": ("A", ["D"]),
}


@pytest.mark.parametrize("name, call", FAILURES, ids=[f[0] for f in FAILURES])
def test_singular_labels_and_paths_pinned(name, call):
    with pytest.raises(SingularBlock) as info:
        call()
    assert (info.value.block, info.value.path) == EXPECTED_FAILURES[name]
