from pathlib import Path

import numpy as np
import pytest

from blockinv.core import load_binary, save_binary
from blockinv.engine import run_inversion
from blockinv.errors import (
    BlockShapeMismatch,
    CheckpointCorrupt,
    MissingProvisionalData,
    SchemeMismatch,
)
from blockinv.partition import make_partition
from blockinv.storage import (
    FileBlockStore,
    MemoryBlockStore,
    ProvisionalSet,
    checkpoint_load,
    checkpoint_save,
    input_fingerprint,
)

from conftest import BAD_META_FIELDS, rewrite_meta, stopped_over_stale_files, well_conditioned


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
        scheme = make_partition(8)
        mem = MemoryBlockStore(scheme, m)
        fil = FileBlockStore(scheme, tmp_path, m)
        assert np.array_equal(mem.to_dense(), fil.to_dense())


class TestProvisionalSetFiles:
    def test_file_backed_entries(self, tmp_path):
        scheme = make_partition(8)
        tset = ProvisionalSet(scheme, 1, root=tmp_path)
        tset.set_region(1, 2, 0, 1, np.ones((2, 2)))  # L of quad 0
        tset.set_region(0, 1, 0, 1, 2 * np.ones((2, 2)))  # S_D of quad 0
        assert (tmp_path / "L_0.blk").exists()
        assert (tmp_path / "S_0.blk").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["L_0.blk", "S_0.blk"]
        assert np.array_equal(tset.region(1, 2, 0, 1), np.ones((2, 2)))
        assert np.array_equal(tset.region(0, 1, 0, 1), 2 * np.ones((2, 2)))
        with pytest.raises(BlockShapeMismatch):
            tset.set_region(1, 2, 0, 1, np.ones((2, 3)))
        with pytest.raises(MissingProvisionalData):
            tset.region(0, 1, 1, 2)  # R of quad 0 was never stored

    @pytest.mark.parametrize("file_backed", [False, True])
    @pytest.mark.parametrize("blocks", [(4, 5, 4, 5), (-2, -1, 2, 3)])
    def test_block_past_the_last_quad(self, tmp_path, file_backed, blocks):
        # order 8: 4 blocks, so level 1 has quads over blocks 0..1 and 2..3
        tset = ProvisionalSet(make_partition(8), 1, root=tmp_path if file_backed else None)
        with pytest.raises(BlockShapeMismatch):
            tset.region(*blocks)
        with pytest.raises(BlockShapeMismatch):
            tset.set_region(*blocks, np.zeros((2, 2)))


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
        assert len(list(tmp_path.glob("*.blk"))) == 4 * len(grp)
        for first, mid, last in grp.spans:
            for rows in ((first, mid), (mid, last)):
                for cols in ((first, mid), (mid, last)):
                    x, y = mem.region(*rows, *cols), files.region(*rows, *cols)
                    assert x.tobytes() == y.tobytes()
        first, mid, last = grp.spans[0]
        assert mem.region(first, mid, mid, last).tobytes() == panels[0, 0].tobytes()  # R
        assert mem.region(mid, last, first, mid).tobytes() == panels[1, 0].tobytes()  # L
        assert mem.region(mid, last, mid, last).tobytes() == schur[1, 0].tobytes()  # S_A
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

    def test_save_writes_no_block(self, tmp_path, monkeypatch):
        """A checkpointed run works in its checkpoint's files: a save only
        hashes them and writes meta.json, and the result is the inverse's
        file store in the directory."""
        import blockinv.engine
        import blockinv.storage

        real_save, real_write = blockinv.storage.checkpoint_save, blockinv.storage.save_binary
        saves, writes, saving = [], [], []

        def save(*args):
            saves.append(args[2])
            saving.append(True)
            try:
                real_save(*args)
            finally:
                saving.pop()

        def write(values, path):
            if saving:
                writes.append(path)
            real_write(values, path)

        monkeypatch.setattr(blockinv.engine, "checkpoint_save", save)
        monkeypatch.setattr(blockinv.storage, "save_binary", write)
        m = well_conditioned(16, 65)
        d = tmp_path / "ck"
        out = run_inversion(m, checkpoint_dir=d)
        assert saves == list(range(1, 16)) and writes == []
        assert isinstance(out, FileBlockStore) and out.root == d / "minv"
        assert out.to_dense().tobytes() == run_inversion(m).to_dense().tobytes()

    @pytest.mark.parametrize("order, sizes", [(21, None), (24, [4, 8, 4, 8])],
                             ids=["order21", "sizes4848"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_checkpointed_run_matches_plain_run(self, tmp_path, order, sizes, workers):
        m = well_conditioned(order, 66)
        ref = run_inversion(m, sizes=sizes).to_dense()
        d = tmp_path / "ck"
        out = run_inversion(m, workers=workers, sizes=sizes, checkpoint_dir=d).to_dense()
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

    @pytest.mark.parametrize("file_backed", [False, True], ids=["memory", "files"])
    def test_fresh_start_clears_stale_files(self, tmp_path, file_backed):
        m = well_conditioned(16, 61)
        ref = run_inversion(m).to_dense()
        d = tmp_path / "ck"
        stopped_over_stale_files(d, m)
        out = run_inversion(m, checkpoint_dir=d, file_backed=file_backed).to_dense()
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("file_backed", [False, True], ids=["memory", "files"])
    def test_other_block_files_are_not_checkpoint_state(self, tmp_path, file_backed):
        m = well_conditioned(9, 64)
        ref = run_inversion(m).to_dense()
        d = tmp_path / "ck"
        d.mkdir()
        other = d / "m.blk"  # e.g. the input, saved next to its checkpoint
        save_binary(m, other)
        run_inversion(m, checkpoint_dir=d, file_backed=file_backed, stop_after_step=3)
        assert load_binary(other).tobytes() == m.tobytes()
        save_binary(2 * m, other)
        out = run_inversion(m, checkpoint_dir=d, file_backed=file_backed).to_dense()
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("key, value", BAD_META_FIELDS)
    def test_mistyped_meta_is_corrupt(self, tmp_path, key, value):
        m = well_conditioned(9, 62)
        d = tmp_path / "ck"
        run_inversion(m, checkpoint_dir=d, stop_after_step=3)
        rewrite_meta(d, key, value)
        with pytest.raises(CheckpointCorrupt):
            checkpoint_load(d)
        with pytest.raises(CheckpointCorrupt):
            run_inversion(m, checkpoint_dir=d)

    @pytest.mark.parametrize("stepid", [-1, 8])
    def test_stepid_out_of_range_is_corrupt(self, tmp_path, stepid):
        scheme = make_partition(9)  # 4 blocks: steps 1..7
        m = well_conditioned(9, 63)
        checkpoint_save(tmp_path, scheme, stepid, input_fingerprint(m, scheme))
        with pytest.raises(CheckpointCorrupt, match="stepid"):
            checkpoint_load(tmp_path)

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


def _checkpoint_files(directory) -> dict:
    """Relative name -> bytes of every block file and of meta.json."""
    root = Path(directory)
    files = {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*.blk")}
    files["meta.json"] = (root / "meta.json").read_bytes()
    return files


class TestCheckpointLayout:
    """In-memory and file-backed runs leave the same checkpoint behind."""

    @pytest.mark.parametrize("order, sizes", [(16, None), (21, None), (24, [4, 8, 4, 8])],
                             ids=["order16", "order21", "sizes4848"])
    def test_memory_and_file_backed_checkpoints_match(self, tmp_path, order, sizes):
        m = well_conditioned(order, 60 + order)
        n_blocks = len(sizes) if sizes else make_partition(order).n_blocks
        for stop in range(1, 2 * n_blocks):
            dirs = {}
            for file_backed in (False, True):
                d = tmp_path / f"{stop}-{file_backed}"
                run_inversion(m, checkpoint_dir=d, file_backed=file_backed,
                              sizes=sizes, stop_after_step=stop)
                dirs[file_backed] = _checkpoint_files(d)
            assert dirs[False] == dirs[True], stop
