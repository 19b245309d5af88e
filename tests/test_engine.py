import dataclasses
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockinv
from blockinv import engine
from blockinv.bench import KINDS, generate
from blockinv.core import (
    OpCounters,
    gauss_jordan_oracle,
    invert_small,
    multiply,
    residual_norm,
)
from blockinv.engine import (
    ARROWS_AND_SCHUR,
    INVERT_DIAGONALS,
    SCHUR_DIAG_AND_ASSEMBLE,
    _Engine,
    _fox,
    _layout,
    _Schedule,
    decode_step,
    fox_block_multiply,
    loopid_for_step,
    run_inversion,
    step_plan,
    total_steps,
    updown_iteration_map,
)
from blockinv.errors import (
    BlockShapeMismatch,
    DimensionMismatch,
    FormatError,
    InvalidWorkers,
    MalformedLoopid,
    MissingCheckpointDir,
    MissingProvisionalData,
    NonFiniteResult,
    OutOfRange,
    SingularBlock,
)
from blockinv.partition import make_partition, partition_from_sizes
from blockinv.recursive import invertor_by_ad
from blockinv.schur import diagonal_quad, invert_via_ad
from blockinv.storage import ProvisionalSet

from conftest import well_conditioned

# Explicit stepid -> loopid rows for blocksize 8 (n = 4), including the
# closing three steps N_s-2, N_s-1, N_s.
LOOPID_TABLE_B8 = {
    1: [1, 0, 0, 0],
    2: [2, 0, 0, 0],
    3: [2, 1, 0, 0],
    4: [3, 0, 0, 0],
    5: [3, 1, 0, 0],
    6: [3, 2, 0, 0],
    7: [3, 2, 1, 0],
    8: [4, 0, 0, 0],
    9: [4, 1, 0, 0],
    10: [4, 2, 0, 0],
    11: [4, 2, 1, 0],
    12: [4, 3, 0, 0],
    13: [4, 3, 1, 0],
    14: [4, 3, 2, 0],
    15: [4, 3, 2, 1],
}

# The 8x8 iteration-count map for the combined assembly chain.
UPDOWN_MAP_8 = [
    [1, 2, 2, 3, 2, 3, 3, 4],
    [2, 1, 3, 2, 3, 2, 4, 3],
    [2, 3, 1, 2, 3, 4, 2, 3],
    [3, 2, 2, 1, 4, 3, 3, 2],
    [2, 3, 3, 4, 1, 2, 2, 3],
    [3, 2, 4, 3, 2, 1, 3, 2],
    [3, 4, 2, 3, 2, 3, 1, 2],
    [4, 3, 3, 2, 3, 2, 2, 1],
]


class TestLoopid:
    @pytest.mark.parametrize("stepid,expected", sorted(LOOPID_TABLE_B8.items()))
    def test_blocksize_8_table(self, stepid, expected):
        assert loopid_for_step(stepid, 8) == expected

    @pytest.mark.parametrize("blocksize", [2, 4, 8, 16, 32])
    def test_step_count_law(self, blocksize):
        assert total_steps(blocksize) == 2 * blocksize - 1
        loopid_for_step(total_steps(blocksize), blocksize)
        with pytest.raises(OutOfRange):
            loopid_for_step(total_steps(blocksize) + 1, blocksize)
        with pytest.raises(OutOfRange):
            loopid_for_step(0, blocksize)

    def test_first_and_single_steps(self):
        assert loopid_for_step(1, 8) == [1, 0, 0, 0]
        assert loopid_for_step(7, 8) == [3, 2, 1, 0]
        assert loopid_for_step(11, 8) == [4, 2, 1, 0]

    def test_bad_blocksize(self):
        with pytest.raises(OutOfRange):
            loopid_for_step(1, 6)

    @pytest.mark.parametrize("k", range(0, 7))
    def test_structure_and_census(self, k):
        blocksize = 2**k
        n_steps = total_steps(blocksize)
        plans = [step_plan(s, blocksize) for s in range(1, n_steps + 1)]
        base = [p for p in plans if p.action.kind == INVERT_DIAGONALS]
        arrows_m = [
            p for p in plans
            if p.action.kind == ARROWS_AND_SCHUR and p.action.source == "matrix"
        ]
        assembles = [p for p in plans if p.action.kind == SCHUR_DIAG_AND_ASSEMBLE]
        assert len(base) == 1 and base[0].stepid == 1
        assert len(arrows_m) == k
        assert {p.stepid for p in arrows_m} == {2**j for j in range(1, k + 1)}
        # steps whose loopid ends in 1, beyond the first: blocksize - 1
        assert len(assembles) == blocksize - 1
        for p in plans:
            nz = [v for v in p.loopid if v]
            assert all(nz[i] > nz[i + 1] for i in range(len(nz) - 1))
            assert list(p.loopid[len(nz):]) == [0] * (len(p.loopid) - len(nz))


class TestDecode:
    def test_rule_arrows_from_matrix(self):
        a = decode_step([2, 0, 0, 0])
        assert a.kind == ARROWS_AND_SCHUR and a.source == "matrix" and a.sid == 1

    def test_rule_assemble_chain(self):
        a = decode_step([3, 2, 1, 0])
        assert a.kind == SCHUR_DIAG_AND_ASSEMBLE
        assert a.cid == 1 and a.depth == 2

    def test_rule_arrows_from_tset(self):
        a = decode_step([4, 3, 0, 0])
        assert a.source == "tset" and a.cid == 3 and a.sid == 2

    def test_rule_schur_diag_only(self):
        a = decode_step([3, 1, 0, 0])
        assert a.kind == SCHUR_DIAG_AND_ASSEMBLE and a.cid == 2 and a.depth == 0
        a = decode_step([4, 3, 1, 0])
        assert a.cid == 2 and a.depth == 0

    def test_base_step(self):
        a = decode_step([1, 0, 0, 0])
        assert a.kind == INVERT_DIAGONALS and a.source == "matrix"

    @pytest.mark.parametrize(
        "bad",
        [[0, 1], [2, 2, 0], [1, 1], [], [3, 0, 1], [2, 3, 0], [0], [-1, 0]],
    )
    def test_malformed(self, bad):
        with pytest.raises(MalformedLoopid):
            decode_step(bad)

    @pytest.mark.parametrize("blocksize", [2, 4, 8, 16, 32, 64])
    def test_every_scheduled_loopid_decodes(self, blocksize):
        for s in range(1, total_steps(blocksize) + 1):
            step_plan(s, blocksize)


class TestUpdownMap:
    def test_all_64_entries(self):
        for r in range(1, 9):
            for c in range(1, 9):
                assert updown_iteration_map(r, c) == UPDOWN_MAP_8[r - 1][c - 1]

    def test_diagonal_is_one(self):
        for r in range(1, 33):
            assert updown_iteration_map(r, r) == 1

    def test_corners(self):
        assert updown_iteration_map(1, 8) == 4
        assert updown_iteration_map(4, 5) == 4

    def test_one_based(self):
        with pytest.raises(OutOfRange):
            updown_iteration_map(0, 1)


class TestFox:
    """The engine's product, ``fox_block_multiply``, on a stack of one."""

    def test_blocked_identity(self, rng):
        sizes = (2, 3, 2)
        b = rng.uniform(-1, 1, (7, 7))
        out = np.zeros((1, 7, 7))
        fox_block_multiply(np.eye(7)[None], b[None], out, _fox(sizes, sizes))
        assert np.array_equal(out[0], b)

    def test_single_block_degenerate_bitwise(self, rng):
        a = rng.uniform(-1, 1, (3, 3))
        b = rng.uniform(-1, 1, (3, 4))
        out = np.zeros((1, 3, 4))
        dense = np.empty((3, 4))
        fox_block_multiply(a[None], b[None], out, _fox((3,), (3,)))
        multiply(a, b, dense)
        assert out[0].tobytes() == dense.tobytes()

    def test_blocked_vs_dense(self, rng):
        sizes_a, sizes_k = (2, 2), (3, 2)
        a = rng.uniform(-1, 1, (4, 5))
        b = rng.uniform(-1, 1, (5, 5))
        out = np.zeros((1, 4, 5))
        fox_block_multiply(a[None], b[None], out, _fox(sizes_a, sizes_k))
        dense = np.empty((4, 5))
        multiply(a, b, dense)
        assert np.max(np.abs(out[0] - dense)) <= 1e-12

    def test_accumulate_and_negate(self, rng):
        sizes = (2, 2)
        a = rng.uniform(-1, 1, (4, 4))
        b = rng.uniform(-1, 1, (4, 4))
        base = rng.uniform(-1, 1, (4, 4))
        out = base.copy()[None]
        fox_block_multiply(a[None], b[None], out, _fox(sizes, sizes), negate=True)
        assert np.max(np.abs(out[0] - (base - a @ b))) <= 1e-12


class TestTracedProduct:
    """Every engine product goes through ``engine.fox_block_multiply``, the
    name the benchmark's tracer wraps, so its span counts them all."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("order, sizes", [
        (64, None),
        (256, [32] * 8),
        (96, [8, 16, 8, 16, 12, 12, 4, 20]),  # quad halves of unlike sizes
    ])
    def test_every_kernel_call_is_a_traced_product(self, monkeypatch, order, sizes, workers):
        calls = {"kernel": [], "fox": []}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name].append(None)  # list.append is atomic across workers
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(engine, "_mm_acc_ordered", counted("kernel", engine._mm_acc_ordered))
        monkeypatch.setattr(engine, "fox_block_multiply", counted("fox", engine.fox_block_multiply))
        run_inversion(well_conditioned(order, 800 + order), workers=workers, sizes=sizes)
        assert len(calls["fox"]) == len(calls["kernel"]) > 0


class TestRunInversion:
    def test_blocksize_2_three_steps_match_oracle(self):
        m = well_conditioned(5, 40)
        scheme = make_partition(5)
        assert total_steps(scheme.n_blocks) == 3
        inv = run_inversion(m).to_dense()
        assert np.max(np.abs(inv - gauss_jordan_oracle(m))) <= 1e-9

    def test_level1_bitwise_equals_combined_pivot_formula(self):
        for order, split in ((5, 2), (6, 3), (7, 3)):
            m = well_conditioned(order, 41 + order)
            inv = run_inversion(m).to_dense()
            direct = np.empty((order, order))
            invert_via_ad(diagonal_quad(m, split), invert_small, direct)
            assert inv.tobytes() == direct.tobytes()

    def test_order_8_seven_steps_matches_by_ad(self):
        m = well_conditioned(8, 42)
        assert total_steps(make_partition(8).n_blocks) == 7
        inv = run_inversion(m).to_dense()
        ad, _ = invertor_by_ad(m)
        assert np.max(np.abs(inv - ad)) <= 1e-9

    def test_identity_21_fifteen_steps(self):
        scheme = make_partition(21)
        assert total_steps(scheme.n_blocks) == 15
        inv = run_inversion(np.eye(21)).to_dense()
        assert np.array_equal(inv, np.eye(21))

    @pytest.mark.parametrize("order", [2, 3, 4, 6, 9, 12, 21, 33, 64, 100])
    def test_matches_oracle_across_orders(self, order):
        m = well_conditioned(order, 600 + order)
        inv = run_inversion(m).to_dense()
        assert np.max(np.abs(inv - gauss_jordan_oracle(m))) <= 1e-8 * order
        assert residual_norm(m, inv) <= 1e-8 * order

    def test_worker_determinism(self):
        for seed in (1, 2, 3):
            m = well_conditioned(21, 700 + seed)
            ref = run_inversion(m, workers=1).to_dense().tobytes()
            for workers in (2, 4, 8):
                assert run_inversion(m, workers=workers).to_dense().tobytes() == ref

    def test_explicit_large_sizes(self):
        # user-chosen blocks beyond order 4 use the recursive leaf inverter
        m = well_conditioned(12, 43)
        inv = run_inversion(m, sizes=[5, 7]).to_dense()
        assert np.max(np.abs(inv - gauss_jordan_oracle(m))) <= 1e-9

    def test_order_1(self):
        # the default partition starts at order 2; one 1x1 block is the schedule
        c = OpCounters()
        inv = run_inversion(np.array([[4.0]]), counters=c).to_dense()
        assert inv.tolist() == [[0.25]]
        assert (c.inversions, c.multiplies) == (1, 0)
        with pytest.raises(SingularBlock):
            run_inversion(np.zeros((1, 1)))

    def test_singular_diagonal_block_reports_step_and_quad(self):
        p = np.eye(4)[::-1].copy()  # reversal permutation: zero diagonal blocks
        with pytest.raises(SingularBlock) as info:
            run_inversion(p)
        assert (info.value.block, info.value.path) == ("A", [])
        assert (info.value.step, info.value.quad) == (1, 0)

    def test_counters_reported(self):
        from blockinv.core import OpCounters

        c = OpCounters()
        run_inversion(well_conditioned(8, 45), counters=c)
        # 4 diagonal blocks, plus Schur diagonal inversions at steps 3..7
        assert c.inversions > 4
        assert c.multiplies > 0 and c.reductions > 0

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        m = well_conditioned(8, 47)
        m[3, 0] = bad
        with pytest.raises(FormatError):
            run_inversion(m)

    def test_complex_input_rejected(self):
        with pytest.raises(FormatError):
            run_inversion(well_conditioned(8, 48) + 1j * np.eye(8))

    def test_empty_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            run_inversion(np.zeros((0, 0)))

    def test_file_backed_needs_checkpoint_dir(self):
        with pytest.raises(MissingCheckpointDir) as info:
            run_inversion(well_conditioned(8, 49), file_backed=True)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("bad", [0, -3, 1.5, 2.0, True, "2"])
    def test_non_integer_workers_rejected(self, bad, tmp_path):
        with pytest.raises(InvalidWorkers):
            run_inversion(well_conditioned(8, 50), workers=bad, checkpoint_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_numpy_integer_workers_accepted(self):
        m = well_conditioned(8, 51)
        out = run_inversion(m, workers=np.int64(2)).to_dense()
        assert out.tobytes() == run_inversion(m).to_dense().tobytes()

    @pytest.mark.parametrize("kind", ["plain", "checkpointed", "resumed"])
    def test_no_thread_is_started(self, monkeypatch, tmp_path, kind):
        # a workers argument changes no bit and starts no thread
        m = well_conditioned(21, 52)

        def run(workers, directory):
            if kind == "plain":
                return run_inversion(m, workers=workers)
            if kind == "resumed":
                run_inversion(m, workers=workers, checkpoint_dir=directory, stop_after_step=5)
            return run_inversion(m, workers=workers, checkpoint_dir=directory)

        ref = run_inversion(m, workers=1).to_dense().tobytes()

        def refuse(self):
            raise AssertionError("run_inversion started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for workers in (1, 2, 3):
            directory = tmp_path / str(workers)
            assert run(workers, directory).to_dense().tobytes() == ref, workers

    def test_import_leaves_out_concurrent_futures(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(blockinv.__file__)))
        code = "import sys, blockinv; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert proc.stdout == "False\n", proc.stderr

    def test_sizes_off_the_order_fail_first(self, tmp_path):
        # checked before the schedule is compiled and cached, and before
        # any checkpoint file is made
        before = engine._schedule.cache_info()
        with pytest.raises(DimensionMismatch) as info:
            run_inversion(generate(8), sizes=[2, 2], checkpoint_dir=tmp_path)
        assert str(info.value) == "sizes sum to 4, not the input's order 8"
        assert engine._schedule.cache_info() == before  # not even looked up
        assert list(tmp_path.iterdir()) == []


# A layout whose items would write the same blocks: one with a level-1
# quad listed twice, one with level-2 spans that share blocks 2 and 3.
_OVERLAP = """
from blockinv.engine import _groups
from blockinv.errors import OverlappingWriteTargets
from blockinv.partition import make_partition

scheme = make_partition(16)  # 8 blocks of 2
duplicated = [(0, 1, 2), (2, 3, 4), (2, 3, 4), (4, 5, 6)]
overlapping = [(0, 2, 4), (2, 4, 6)]
for level, spans in ((1, duplicated), (2, overlapping)):
    try:
        _groups(scheme, level, spans)
    except OverlappingWriteTargets:
        print("raised at level", level)
"""


# Steps 1..15 of 8 blocks in two wrong orders: step 3 inverts set 1's
# Schur complements before step 2 writes set 1, and step 7 runs the
# assembly pass of set 2 before step 4 writes set 2.
_MISORDERED = """
from blockinv.engine import _Schedule, decode_step, loopid_for_step
from blockinv.errors import MissingProvisionalData
from blockinv.partition import make_partition

scheme = make_partition(16)  # 8 blocks of 2
for head in ([1, 3, 2], [1, 2, 3, 7, 4, 5, 6]):
    order = head + [stepid for stepid in range(1, 16) if stepid not in head]
    try:
        _Schedule(scheme, [decode_step(loopid_for_step(stepid, 8)) for stepid in order])
    except MissingProvisionalData as exc:
        print(exc)
"""
_MISORDERED_OUT = "step 2 reads T_1 S before it is written\nstep 4 reads T_2 L and R before it is written\n"


def _schur_d_zero(p, b=2):
    # blocks of b at order 4b; A = I + P, B = C = D = I, so S_D = P, whose
    # diagonal block p is zero
    h = 2 * b
    pin = np.eye(h)
    pin[b * p : b * p + b, b * p : b * p + b] = 0.0
    return np.block([[np.eye(h) + pin, np.eye(h)], [np.eye(h), np.eye(h)]])


def _schur_a_swap():
    # A = B = I, C = 2I, D = 2I + K: S_D is fine, S_A = K has zero diagonal blocks
    k = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(2))
    return np.block([[np.eye(4), np.eye(4)], [2 * np.eye(4), 2 * np.eye(4) + k]])


def _deep_16():
    # the zero diagonal block appears in a level-3 Schur complement
    pin = np.eye(8)
    pin[2:4, 2:4] = 0.0
    return np.block([[np.eye(8) + pin, np.eye(8)], [np.eye(8), np.eye(8)]])


def _patched(order, seed, r0, block):
    m = well_conditioned(order, seed)
    m[r0 : r0 + len(block), r0 : r0 + len(block)] = block
    return m


@st.composite
def _large_block_sizes(draw):
    """2, 4 or 8 diagonal blocks of orders 5-24, all alike or a mix of
    two orders (so that mixed groups still stack several blocks)."""
    n = 2 ** draw(st.integers(1, 3))
    orders = st.sampled_from([draw(st.integers(5, 24)), draw(st.integers(5, 24))])
    if draw(st.booleans()):
        return [draw(orders)] * n
    return draw(st.lists(orders, min_size=n, max_size=n))


def _engine_outcome(m, sizes, workers):
    c = OpCounters()
    try:
        result = run_inversion(m, sizes=sizes, workers=workers, counters=c).to_dense().tobytes()
    except SingularBlock as e:
        result = (e.block, e.path, e.step, e.quad)
    return result, dataclasses.asdict(c)


def _two_swaps():
    # singular leaves in quads 1 and 3: the lower one is reported
    m = _patched(32, 128, 24, _SWAP_8)
    m[8:16, 8:16] = _SWAP_8
    return m


_TWINS = np.block([[np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)]])
_SWAP_8 = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(4))  # a zero pivot A of order 4

# (input, sizes) -> (block, path, step, quad) of the SingularBlock raised
ENGINE_FAILURES = {
    "reversal_4": (lambda: (np.eye(4)[::-1].copy(), None), ("A", [], 1, 0)),
    "reversal_8": (lambda: (np.eye(8)[::-1].copy(), None), ("A", [], 1, 0)),
    "reversal_16": (lambda: (np.eye(16)[::-1].copy(), None), ("A", [], 1, 0)),
    "schur_d_0": (lambda: (_schur_d_zero(0), None), ("A", [], 5, 0)),
    "schur_d_1": (lambda: (_schur_d_zero(1), None), ("A", [], 5, 1)),
    "schur_a_swap": (lambda: (_schur_a_swap(), None), ("A", [], 5, 2)),
    "deep_16": (lambda: (_deep_16(), None), ("A", [], 9, 1)),
    # order 33: fifteen blocks of 2, then one of 3
    "order33_size3": (lambda: (_patched(33, 123, 30, np.ones((3, 3))), None), ("A", [], 1, 15)),
    "order33_size2": (
        lambda: (_patched(33, 124, 14, np.array([[1.0, 2.0], [2.0, 4.0]])), None),
        ("A", [], 1, 7),
    ),
    "sized_5": (lambda: (_patched(12, 125, 0, np.ones((5, 5))), [5, 7]), ("A", ["A"], 1, 0)),
    "sized_4_twins": (lambda: (_patched(16, 126, 8, _TWINS), [4] * 4), ("SchurD", [], 1, 2)),
    # singular leaves larger than 4, in the input and in a Schur complement
    "sized_8_swap": (lambda: (_patched(32, 127, 16, _SWAP_8), [8] * 4), ("A", ["A", "A"], 1, 2)),
    "sized_8_two_swaps": (lambda: (_two_swaps(), [8] * 4), ("A", ["A", "A"], 1, 1)),
    "sized_8_schur_d_1": (lambda: (_schur_d_zero(1, 8), [8] * 4), ("A", ["A", "A"], 5, 1)),
    "sized_12_twins": (
        lambda: (_patched(48, 129, 24, np.kron(np.ones((2, 2)), np.eye(6))), [12] * 4),
        ("A", ["SchurA", "A", "A"], 1, 2),
    ),
    "mixed_8_swap": (lambda: (_patched(26, 130, 6, _SWAP_8), [6, 8, 6, 6]), ("A", ["A", "A"], 1, 1)),
}


class TestStopAfterStep:
    @pytest.mark.parametrize("stop", [0, -3, True, 2.5])
    def test_bad_value_runs_no_step(self, tmp_path, stop):
        m = generate(9, seed=1)
        c = OpCounters()
        with pytest.raises(OutOfRange):
            run_inversion(m, stop_after_step=stop, counters=c)
        assert c == OpCounters()
        # nor does it touch an existing checkpoint
        run_inversion(m, checkpoint_dir=tmp_path, stop_after_step=2)
        saved = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
        with pytest.raises(OutOfRange):
            run_inversion(m, checkpoint_dir=tmp_path, stop_after_step=stop, counters=c)
        assert c == OpCounters()
        assert {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()} == saved


class TestStackedLeaves:
    """Diagonal blocks larger than 4 are inverted as one stack per group;
    a singular member sends the group back one block at a time."""

    @pytest.mark.filterwarnings("error")
    def test_stacked_attempt_is_silent_where_per_block_run_is(self):
        # the lockstep run overflows past the singular block that stops the
        # per-block run, and must not warn for it
        with pytest.raises(SingularBlock) as info:
            run_inversion(generate(12, seed=1) * 1e160, sizes=[6, 6])
        e = info.value
        assert (e.block, e.path, e.step, e.quad) == ("A", ["A", "SchurA"], 1, 0)

    @pytest.mark.parametrize("scale, sizes", [(1e-160, [6, 6]), (1e160, None)],
                             ids=["underflow-6-6", "overflow-default"])
    def test_finite_input_ends_in_a_typed_error(self, scale, sizes):
        # Schur blocks with Inf entries are not read as malformed input
        # (FormatError), and an order-3 leaf whose singularity threshold
        # overflows raises no OverflowError
        with np.errstate(all="ignore"), pytest.raises(NonFiniteResult):
            run_inversion(generate(12, seed=1) * scale, sizes=sizes)

    @settings(max_examples=100)
    @given(
        sizes=_large_block_sizes(),
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(KINDS),
        zero=st.one_of(st.none(), st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))),
    )
    def test_matches_per_block_run(self, sizes, seed, kind, zero):
        # output bits, every counter and the failure's block, path, step and
        # quad, against the run with the stacked route off, at workers 1
        # and 2; an optional zero block is planted at a generated corner
        order = sum(sizes)
        m = generate(order, seed=seed, kind=kind)
        if zero is not None:
            row, col, size = (int(f * order) for f in zero)
            m[row : row + size + 1, col : col + size + 1] = 0.0
        for workers in (1, 2):
            stacked = _engine_outcome(m, sizes, workers)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "_invert_stacked", lambda formula, x, out=None: None)
                assert stacked == _engine_outcome(m, sizes, workers)


@st.composite
def _schedule_inputs(draw):
    """A default partition of order 2-40, or 1-8 blocks of orders 1-6; a
    generated matrix, optionally with a zeroed square planted in it."""
    if draw(st.booleans()):
        sizes = None
        order = draw(st.integers(2, 40))
    else:
        n = 2 ** draw(st.integers(0, 3))
        sizes = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
        order = sum(sizes)
    m = generate(order, seed=draw(st.integers(0, 2**16)), kind=draw(st.sampled_from(KINDS)))
    if draw(st.booleans()):
        row, col, size = (int(f * order) for f in draw(st.tuples(*[st.floats(0, 1)] * 3)))
        m[row : row + size + 1, col : col + size + 1] = 0.0
    return m, sizes


def _resumed_outcome(m, sizes, stop, directory):
    """The result bytes, or the failure's (block, path, step, quad), of a
    checkpointed run stopped after step ``stop`` and then resumed."""
    try:
        run_inversion(m, sizes=sizes, checkpoint_dir=directory, stop_after_step=stop)
        return run_inversion(m, sizes=sizes, checkpoint_dir=directory).to_dense().tobytes()
    except SingularBlock as e:
        return e.block, e.path, e.step, e.quad


class TestCompiledSchedule:
    @settings(max_examples=150)
    @given(inputs=_schedule_inputs(), stop=st.floats(0, 1))
    def test_workers_and_resume_match_one_uninterrupted_run(self, inputs, stop):
        # every worker count gives the same bits, counters and failure
        # label as one worker; a run stopped at any step and resumed gives
        # the bits or the label of the uninterrupted run
        m, sizes = inputs
        one = _engine_outcome(m, sizes, 1)
        for workers in (2, 3):
            assert _engine_outcome(m, sizes, workers) == one
        n_steps = total_steps(len(sizes) if sizes else make_partition(len(m)).n_blocks)
        stop = 1 + int(stop * (n_steps - 1))
        with tempfile.TemporaryDirectory() as directory:
            assert _resumed_outcome(m, sizes, stop, directory) == one[0]


class TestFailureReports:
    """Pinned where the engine reports a singular diagonal block."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(ENGINE_FAILURES))
    def test_block_path_step_quad_pinned(self, name, workers):
        make, expected = ENGINE_FAILURES[name]
        m, sizes = make()
        with pytest.raises(SingularBlock) as info:
            run_inversion(m, sizes=sizes, workers=workers)
        e = info.value
        assert (e.block, e.path, e.step, e.quad) == expected


class TestLayoutCheck:
    def test_overlapping_spans_raise(self, capsys):
        exec(_OVERLAP, {})
        assert capsys.readouterr().out == "raised at level 1\nraised at level 2\n"

    def test_layout_check_survives_optimized_mode(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(blockinv.__file__)))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _OVERLAP],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert proc.stdout == "raised at level 1\nraised at level 2\n", proc.stderr

    @settings(max_examples=150)
    @given(
        st.one_of(
            st.integers(2, 130).map(make_partition),
            st.integers(0, 5).flatmap(
                lambda k: st.lists(st.integers(1, 9), min_size=2**k, max_size=2**k)
            ).map(partition_from_sizes),
        )
    )
    def test_groups_cover_each_item_once(self, scheme):
        # so the layout check never fires on a real partition
        for level, groups in _layout(scheme).items():
            spans = scheme.quads(level)
            items = [item for grp in groups for item in grp.items]
            assert sorted(items) == list(range(len(spans)))
            for grp in groups:
                assert grp.spans == tuple(spans[item] for item in grp.items)

    def test_cold_run_peak_memory_at_order_256(self):
        # a cold run compiles the partition's schedule and builds its
        # layout; measured 6.83x the matrix (6.70x before the Fox product
        # took one contiguous copy of a strided b), against 9.27x when the
        # layout held one write-target id per block (the warm peak is 6.37x)
        m = well_conditioned(256, 4403)
        engine._schedule.cache_clear()
        tracemalloc.start()
        try:
            run_inversion(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.5 * m.nbytes, peak / m.nbytes


class TestAssembleUpdown:
    def test_missing_provisional_data(self, capsys):
        # the schedule refuses an assembly step before the arrows step that
        # writes its set, when it is compiled
        exec(_MISORDERED, {})
        assert capsys.readouterr().out == _MISORDERED_OUT

    def test_pass_reproduces_combined_pivot_offdiagonals(self):
        # run to the step before the final assembly, then assemble by hand
        m = well_conditioned(4, 47)
        block = run_inversion(m)
        direct = np.empty((4, 4))
        invert_via_ad(diagonal_quad(m, 2), invert_small, direct)
        assert block.to_dense()[2:, :2].tobytes() == direct[2:, :2].tobytes()
        assert block.to_dense()[:2, 2:].tobytes() == direct[:2, 2:].tobytes()


class TestScheduleOrder:
    def test_check_survives_optimized_mode(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(blockinv.__file__)))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _MISORDERED],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert proc.stdout == _MISORDERED_OUT, proc.stderr

    def test_reported_before_any_store_or_file(self, tmp_path, monkeypatch):
        misordered = [decode_step(loopid_for_step(stepid, 8)) for stepid in (1, 3, 2, *range(4, 16))]
        monkeypatch.setattr(engine, "_schedule", lambda scheme: _Schedule(scheme, misordered))
        monkeypatch.setattr(_Engine, "execute", lambda *args: pytest.fail("a step ran"))
        with pytest.raises(MissingProvisionalData, match="step 2 reads T_1 S"):
            run_inversion(well_conditioned(16, 48), checkpoint_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestProvisionalCapacity:
    def test_store_shapes_validated(self):
        scheme = make_partition(9)  # sizes 2 2 2 3
        size = ProvisionalSet(scheme, 1).strided[0].size
        with pytest.raises(BlockShapeMismatch):
            ProvisionalSet(scheme, 1, np.zeros(size - 1))
        with pytest.raises(BlockShapeMismatch):
            ProvisionalSet(scheme, 1, np.zeros((size, 1)))
        with pytest.raises(BlockShapeMismatch):
            ProvisionalSet(scheme, 3)  # 4 blocks: levels 1 and 2 only

    def test_row_and_column_budgets(self):
        # block-rows across L equal blocksize/2; S rows equal blocksize;
        # every stored block spans 2^(level-1) block columns
        for order in (8, 21, 33):
            scheme = make_partition(order)
            blocksize = scheme.n_blocks
            for level in range(1, scheme.k + 1):
                tset = ProvisionalSet(scheme, level)
                half = 2 ** (level - 1)
                l_rows = sum(half for _ in range(tset.n_quads))
                s_rows = sum(2 * half for _ in range(tset.n_quads))
                assert l_rows == blocksize // 2
                assert s_rows == blocksize
                assert half == 2 ** (level - 1)
