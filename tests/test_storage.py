from pathlib import Path

import numpy as np
import pytest

from blockinv.engine import run_inversion
from blockinv.errors import CheckpointCorrupt, SchemeMismatch
from blockinv.partition import make_partition
from blockinv.storage import (
    BlockMatrix,
    FileBlockStore,
    MemoryBlockStore,
    ProvisionalSet,
    checkpoint_load,
    input_fingerprint,
)

from conftest import well_conditioned


class TestBlockStores:
    def test_memory_region_is_view(self):
        scheme = make_partition(8)
        store = MemoryBlockStore(scheme)
        region = store.region(0, 1, 0, 1)
        region[0, 0] = 5.0
        assert store.data[0, 0] == 5.0

    def test_file_store_roundtrip(self, tmp_path):
        scheme = make_partition(9)
        m = well_conditioned(9, 50)
        store = FileBlockStore(scheme, tmp_path, m)
        assert np.array_equal(store.to_dense(), m)
        assert np.array_equal(store.block(3, 3), m[6:9, 6:9])
        assert np.array_equal(store.region(1, 3, 0, 2), m[2:6, 0:4])
        store.set_region(0, 2, 0, 2, np.zeros((4, 4)))
        assert np.all(store.to_dense()[:4, :4] == 0.0)
        assert (tmp_path / "B_0_0.blk").exists()

    def test_one_file_per_block(self, tmp_path):
        scheme = make_partition(8)
        FileBlockStore(scheme, tmp_path, np.eye(8))
        blocks = sorted(p.name for p in tmp_path.glob("B_*.blk"))
        assert len(blocks) == scheme.n_blocks**2

    def test_block_matrix_from_dense(self, tmp_path):
        m = well_conditioned(8, 51)
        mem = BlockMatrix.from_dense(m)
        fil = BlockMatrix.from_dense(m, directory=tmp_path)
        assert np.array_equal(mem.to_dense(), fil.to_dense())


class TestProvisionalSetFiles:
    def test_file_backed_entries(self, tmp_path):
        scheme = make_partition(8)
        tset = ProvisionalSet(scheme, 1, root=tmp_path)
        tset.store_l(0, np.ones((2, 2)))
        tset.store_s(0, 2 * np.ones((2, 2)))
        assert (tmp_path / "L_0.blk").exists()
        assert (tmp_path / "S_0.blk").exists()
        assert np.array_equal(tset.l_block(0), np.ones((2, 2)))
        names = [name for name, _ in tset.entries()]
        assert names == ["L_0", "S_0"]


class TestProvisionalSetStacks:
    """store_arrows and panels keep the quad layout for both backends."""

    def _write(self, tset, rng):
        from blockinv.engine import _layout

        (grp,) = _layout(tset.scheme)[tset.level]
        q, h = len(grp), grp.ha
        schur = rng.uniform(-1, 1, (2, q, h, h))
        panels = rng.uniform(-1, 1, (2, q, h, h))
        tset.store_arrows(grp, 0, q, schur, panels)
        return grp, schur, panels

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_memory_and_files_agree(self, tmp_path, level):
        scheme = make_partition(16)  # 8 blocks of 2
        mem = ProvisionalSet(scheme, level)
        files = ProvisionalSet(scheme, level, root=tmp_path)
        grp, schur, panels = self._write(mem, np.random.default_rng(level))
        self._write(files, np.random.default_rng(level))
        for kind in "LRS":
            mem.require(kind)
        assert [n for n, _ in mem.entries()] == [n for n, _ in files.entries()]
        for (_, x), (_, y) in zip(mem.entries(), files.entries()):
            assert x.tobytes() == y.tobytes()
        assert mem.r_block(0).tobytes() == panels[0, 0].tobytes()
        assert mem.l_block(0).tobytes() == panels[1, 0].tobytes()
        assert mem.s_block(1).tobytes() == schur[1, 0].tobytes()
        for got in (mem.panels(grp, 0, len(grp)), files.panels(grp, 0, len(grp))):
            assert np.asarray(got).tobytes() == panels.tobytes()

    def test_band_is_smaller_than_dense_below_the_top(self):
        scheme = make_partition(64)  # 32 blocks of 2, levels 1..5
        for level in range(1, 5):
            buf, _, ld = ProvisionalSet(scheme, level).strided
            assert buf.size == 64 * (ld + 1) < 64 * 64
        assert ProvisionalSet(scheme, 5).strided[0].size == 64 * 64


class TestCheckpoint:
    def test_resume_bitwise_after_partial_run(self, tmp_path):
        m = well_conditioned(21, 52)
        ref = run_inversion(m).to_dense()
        for stop in (1, 7, 14):
            d = tmp_path / f"ck{stop}"
            run_inversion(m, checkpoint_dir=d, stop_after_step=stop)
            out = run_inversion(m, checkpoint_dir=d).to_dense()
            assert out.tobytes() == ref.tobytes()

    def test_file_backed_resume_bitwise(self, tmp_path):
        m = well_conditioned(21, 53)
        ref = run_inversion(m).to_dense()
        d = tmp_path / "ck"
        run_inversion(m, checkpoint_dir=d, file_backed=True, stop_after_step=8)
        out = run_inversion(m, checkpoint_dir=d, file_backed=True).to_dense()
        assert out.tobytes() == ref.tobytes()

    def test_wrong_input_hash(self, tmp_path):
        m = well_conditioned(9, 54)
        d = tmp_path / "ck"
        run_inversion(m, checkpoint_dir=d, stop_after_step=2)
        other = m.copy()
        other[0, 0] += 1.0
        with pytest.raises(SchemeMismatch):
            run_inversion(other, checkpoint_dir=d)

    def test_wrong_sizes(self, tmp_path):
        m = well_conditioned(12, 55)
        d = tmp_path / "ck"
        run_inversion(m, checkpoint_dir=d, stop_after_step=2)
        with pytest.raises(SchemeMismatch):
            run_inversion(m, checkpoint_dir=d, sizes=[6, 6])

    def test_corrupt_block_detected(self, tmp_path):
        m = well_conditioned(9, 56)
        d = tmp_path / "ck"
        run_inversion(m, checkpoint_dir=d, stop_after_step=2)
        victim = sorted(Path(d).rglob("*.blk"))[0]
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorrupt):
            run_inversion(m, checkpoint_dir=d)

    def test_missing_meta(self, tmp_path):
        with pytest.raises(CheckpointCorrupt):
            checkpoint_load(tmp_path)

    def test_block_files_identical_across_load(self, tmp_path):
        m = well_conditioned(21, 57)
        d = tmp_path / "ck"
        run_inversion(m, checkpoint_dir=d, file_backed=True, stop_after_step=7)
        before = {p: p.read_bytes() for p in sorted(Path(d).rglob("*.blk"))}
        checkpoint_load(d)
        after = {p: p.read_bytes() for p in sorted(Path(d).rglob("*.blk"))}
        assert before == after

    def test_completed_checkpoint_returns_final_state(self, tmp_path):
        m = well_conditioned(9, 58)
        d = tmp_path / "ck"
        first = run_inversion(m, checkpoint_dir=d).to_dense()
        again = run_inversion(m, checkpoint_dir=d).to_dense()
        assert first.tobytes() == again.tobytes()

    def test_meta_fields(self, tmp_path):
        m = well_conditioned(9, 59)
        d = tmp_path / "ck"
        run_inversion(m, checkpoint_dir=d, stop_after_step=3)
        meta = checkpoint_load(d)
        scheme = make_partition(9)
        assert meta["stepid"] == 3
        assert meta["blocksize"] == scheme.n_blocks
        assert meta["sizes"] == list(scheme.sizes)
        assert meta["input_hash"] == input_fingerprint(m, scheme)
