import os
import subprocess
import sys

import numpy as np
import pytest

import blockinv
from blockinv.core import (
    gauss_jordan_oracle,
    invert_small,
    multiply,
    residual_norm,
)
from blockinv.engine import (
    ARROWS_AND_SCHUR,
    INVERT_DIAGONALS,
    SCHUR_DIAG_AND_ASSEMBLE,
    BlockedView,
    assemble_updown,
    decode_step,
    fox_block_multiply,
    loopid_for_step,
    resolve_workers,
    run_inversion,
    step_plan,
    total_steps,
    updown_iteration_map,
)
from blockinv.errors import (
    BlockShapeMismatch,
    FormatError,
    InvalidWorkers,
    MalformedLoopid,
    MissingCheckpointDir,
    MissingProvisionalData,
    OutOfRange,
    SingularBlock,
)
from blockinv.partition import make_partition
from blockinv.recursive import invertor_by_ad
from blockinv.schur import diagonal_quad, invert_via_ad
from blockinv.storage import BlockMatrix, ProvisionalSet

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
    def test_blocked_identity(self, rng):
        sizes = (2, 3, 2)
        b = rng.uniform(-1, 1, (7, 7))
        out = np.empty((7, 7))
        fox_block_multiply(
            BlockedView(np.eye(7), sizes, sizes),
            BlockedView(b, sizes, sizes),
            BlockedView(out, sizes, sizes),
        )
        assert np.array_equal(out, b)

    def test_single_block_degenerate_bitwise(self, rng):
        a = rng.uniform(-1, 1, (3, 3))
        b = rng.uniform(-1, 1, (3, 4))
        out = np.empty((3, 4))
        dense = np.empty((3, 4))
        fox_block_multiply(
            BlockedView(a, (3,), (3,)), BlockedView(b, (3,), (4,)),
            BlockedView(out, (3,), (4,)),
        )
        multiply(a, b, dense)
        assert out.tobytes() == dense.tobytes()

    def test_blocked_vs_dense(self, rng):
        sizes_a, sizes_k, sizes_b = (2, 2), (3, 2), (2, 3)
        a = rng.uniform(-1, 1, (4, 5))
        b = rng.uniform(-1, 1, (5, 5))
        out = np.empty((4, 5))
        fox_block_multiply(
            BlockedView(a, sizes_a, sizes_k), BlockedView(b, sizes_k, sizes_b),
            BlockedView(out, sizes_a, sizes_b),
        )
        dense = np.empty((4, 5))
        multiply(a, b, dense)
        assert np.max(np.abs(out - dense)) <= 1e-12

    def test_accumulate_and_negate(self, rng):
        sizes = (2, 2)
        a = rng.uniform(-1, 1, (4, 4))
        b = rng.uniform(-1, 1, (4, 4))
        base = rng.uniform(-1, 1, (4, 4))
        out = base.copy()
        fox_block_multiply(
            BlockedView(a, sizes, sizes), BlockedView(b, sizes, sizes),
            BlockedView(out, sizes, sizes), negate=True, accumulate=True,
        )
        assert np.max(np.abs(out - (base - a @ b))) <= 1e-12

    def test_shape_mismatch(self, rng):
        a = rng.uniform(-1, 1, (4, 4))
        with pytest.raises(BlockShapeMismatch):
            fox_block_multiply(
                BlockedView(a, (2, 2), (2, 2)), BlockedView(a, (3, 1), (2, 2)),
                BlockedView(a.copy(), (2, 2), (2, 2)),
            )
        with pytest.raises(BlockShapeMismatch):
            BlockedView(a, (2, 3), (2, 2))


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

    def test_singular_diagonal_block_reports_step_and_quad(self):
        p = np.eye(4)[::-1].copy()  # reversal permutation: zero diagonal blocks
        with pytest.raises(SingularBlock) as info:
            run_inversion(p)
        assert info.value.step == 1
        assert info.value.quad is not None

    def test_block_matrix_input(self):
        m = well_conditioned(9, 44)
        bm = BlockMatrix.from_dense(m)
        inv = run_inversion(bm).to_dense()
        assert residual_norm(m, inv) <= 1e-8

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

    def test_file_backed_needs_checkpoint_dir(self):
        with pytest.raises(MissingCheckpointDir) as info:
            run_inversion(well_conditioned(8, 49), file_backed=True)
        assert isinstance(info.value, ValueError)

    def test_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("INVERTOR_WORKERS", "3")
        assert resolve_workers() == 3
        assert resolve_workers(2) == 2
        monkeypatch.delenv("INVERTOR_WORKERS")
        assert resolve_workers() == 1
        monkeypatch.setenv("INVERTOR_WORKERS", "abc")
        with pytest.raises(InvalidWorkers):
            resolve_workers()
        with pytest.raises(InvalidWorkers):
            resolve_workers(0)
        for bad in ("0", "-3"):
            monkeypatch.setenv("INVERTOR_WORKERS", bad)
            with pytest.raises(InvalidWorkers):
                resolve_workers()
            assert resolve_workers(2) == 2  # an explicit count still wins


# Two tasks both claim block (1, 0): the batch must refuse before running either.
_OVERLAP = """
from blockinv.core import OpCounters
from blockinv.engine import _Engine
from blockinv.errors import OverlappingWriteTargets
from blockinv.partition import make_partition

ran = []
eng = _Engine(make_partition(8), None, None, {}, 1, OpCounters())
tasks = [
    ((("minv", 0, 0), ("minv", 1, 0)), lambda: ran.append(0)),
    ((("minv", 1, 0),), lambda: ran.append(1)),
]
try:
    eng._run_batch(tasks)
except OverlappingWriteTargets:
    eng._run_batch(tasks[1:])
    print("raised, then ran", ran)
"""


class TestRunBatch:
    def test_overlapping_targets_raise_before_any_task_runs(self, capsys):
        exec(_OVERLAP, {})
        assert capsys.readouterr().out == "raised, then ran [1]\n"

    def test_overlap_check_survives_optimized_mode(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(blockinv.__file__)))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _OVERLAP],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert proc.stdout == "raised, then ran [1]\n", proc.stderr


class TestAssembleUpdown:
    def test_missing_provisional_data(self):
        m = well_conditioned(4, 46)
        scheme = make_partition(4)
        minv = BlockMatrix.from_dense(np.zeros((4, 4)), scheme)
        tsets = {1: ProvisionalSet(scheme, 1)}
        with pytest.raises(MissingProvisionalData):
            assemble_updown(1, minv, tsets)

    def test_pass_reproduces_combined_pivot_offdiagonals(self):
        # run to the step before the final assembly, then assemble by hand
        m = well_conditioned(4, 47)
        block = run_inversion(m)
        direct = np.empty((4, 4))
        invert_via_ad(diagonal_quad(m, 2), invert_small, direct)
        assert block.to_dense()[2:, :2].tobytes() == direct[2:, :2].tobytes()
        assert block.to_dense()[:2, 2:].tobytes() == direct[:2, 2:].tobytes()


class TestProvisionalCapacity:
    def test_store_shapes_validated(self):
        scheme = make_partition(9)  # sizes 2 2 2 3
        tset = ProvisionalSet(scheme, 1)
        with pytest.raises(BlockShapeMismatch):
            tset.store_l(1, np.zeros((2, 2)))  # quad 1 wants a 3x2 left block
        tset.store_l(1, np.zeros((3, 2)))
        tset.store_r(1, np.zeros((2, 3)))
        tset.store_s(2, np.zeros((2, 2)))
        tset.store_s(3, np.zeros((3, 3)))

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
