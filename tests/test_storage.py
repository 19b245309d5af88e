import json
import sys
from pathlib import Path

import numpy as np
import pytest

from blockinv.core import load_binary, save_binary
from blockinv.engine import run_inversion
from blockinv.errors import CheckpointCorrupt, SchemeMismatch
from blockinv.partition import make_partition, partition_from_sizes
from blockinv.storage import (
    MemoryBlockStore,
    ProvisionalSet,
    checkpoint_load,
    checkpoint_save,
    fresh_state,
    input_fingerprint,
    stacks,
)

from conftest import BAD_META_FIELDS, rewrite_meta, stopped_over_stale_files, well_conditioned


def _mapped_zeros(path, scalars):
    return np.memmap(path, np.float64, "w+", shape=(scalars,))


def _view(run, strided, part):
    """A part of every item of a diagonal run in a store, as the engine
    binds it: one stack, or a list of two for a pair of unlike halves."""
    buf, base, ld = strided
    return stacks(buf, run.specs(part, base, ld))


class TestBlockStores:
    def test_memory_region_is_view(self):
        scheme = make_partition(8)
        store = MemoryBlockStore(scheme)
        off = scheme.offsets
        region = store.data[off[0] : off[1], off[0] : off[1]]
        region[0, 0] = 5.0
        assert store.data[0, 0] == 5.0
        buf, base, ld = store.strided
        assert buf is store.data and (base, ld) == (0, 8)

    def test_file_store_roundtrip(self, tmp_path):
        """A store on a mapped file writes through to the file, and its
        diagonal runs are views of the file's pages."""
        from blockinv.engine import _layout

        scheme = make_partition(9)
        m = well_conditioned(9, 50)
        path = tmp_path / "inverse.f64"
        store = MemoryBlockStore(scheme, _mapped_zeros(path, 81).reshape(9, 9))
        store.data[...] = m
        assert np.fromfile(path).tobytes() == m.tobytes()
        (grp,) = _layout(scheme)[2]  # the one level-2 quad: the whole matrix
        _view(grp, store.strided, "QQ")[...] = 0.0
        assert not np.fromfile(path).any()
        assert np.array_equal(store.to_dense(), np.zeros((9, 9)))

    def test_block_matrix_from_dense(self, tmp_path):
        m = well_conditioned(8, 51)
        scheme = make_partition(8)
        mem = MemoryBlockStore(scheme, m)
        mapped = _mapped_zeros(tmp_path / "m.f64", 64).reshape(8, 8)
        mapped[...] = m
        fil = MemoryBlockStore(scheme, mapped)
        assert mem.to_dense().tobytes() == fil.to_dense().tobytes() == m.tobytes()


def _band_region(tset, r0, r1, c0, c1):
    """Block rows [r0, r1) x cols [c0, c1) of a provisional set, read from
    its band as matrix element (i, j) at ``base + i * ld + j``."""
    buf, base, ld = tset.strided
    off = tset.scheme.offsets
    return np.ndarray(
        (off[r1] - off[r0], off[c1] - off[c0]), np.float64, buf,
        (base + off[r0] * ld + off[c0]) * 8, (ld * 8, 8),
    )


class TestProvisionalSetStacks:
    """A run's X and Y views of a set keep the quad layout in memory and on
    a mapped band, as the engine writes them."""

    def _write(self, tset, rng):
        from blockinv.engine import _layout

        (grp,) = _layout(tset.scheme)[tset.level]
        q, h = len(grp), grp.ha
        schur = rng.uniform(-1, 1, (2, q, h, h))
        panels = rng.uniform(-1, 1, (2, q, h, h))
        _view(grp, tset.strided, "X")[...] = schur
        _view(grp, tset.strided, "Y")[...] = panels
        return grp, schur, panels

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_memory_and_files_agree(self, tmp_path, level):
        scheme = make_partition(16)  # 8 blocks of 2
        mem = ProvisionalSet(scheme, level)
        path = tmp_path / f"{level}.f64"
        files = ProvisionalSet(scheme, level, _mapped_zeros(path, mem.strided[0].size))
        grp, schur, panels = self._write(mem, np.random.default_rng(level))
        self._write(files, np.random.default_rng(level))
        assert np.fromfile(path).tobytes() == mem.strided[0].tobytes()
        first, mid, last = grp.spans[0]
        assert _band_region(mem, first, mid, mid, last).tobytes() == panels[0, 0].tobytes()  # R
        assert _band_region(mem, mid, last, first, mid).tobytes() == panels[1, 0].tobytes()  # L
        assert _band_region(mem, first, mid, first, mid).tobytes() == schur[0, 0].tobytes()  # S_D
        assert _band_region(mem, mid, last, mid, last).tobytes() == schur[1, 0].tobytes()  # S_A
        for got in (_view(grp, mem.strided, "Y"), _view(grp, files.strided, "Y")):
            assert got.tobytes() == panels.tobytes()

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
        """A checkpointed run works on its checkpoint's mapped store files:
        it saves a checkpoint after every step, neither a run, its saves nor
        a resume reads or writes a block file, and the result is mapped on
        ``<dir>/minv``."""
        import blockinv.core
        import blockinv.engine

        calls, saves = [], []
        for name in ("save_binary", "load_binary"):
            monkeypatch.setattr(blockinv.core, name, lambda *args, name=name: calls.append(name))
        real_save = blockinv.engine.checkpoint_save

        def save(*args):
            saves.append(args[2])
            real_save(*args)

        monkeypatch.setattr(blockinv.engine, "checkpoint_save", save)
        m = well_conditioned(16, 65)  # 15 steps
        d = tmp_path / "ck"
        run_inversion(m, checkpoint_dir=d, stop_after_step=5)
        assert saves == [1, 2, 3, 4, 5]
        out = run_inversion(m, checkpoint_dir=d)
        assert saves == list(range(1, 16))
        assert calls == []
        assert out.to_dense().tobytes() == run_inversion(m).to_dense().tobytes()
        assert np.fromfile(d / "minv" / "inverse.f64").tobytes() == out.data.tobytes()
        out.data[0, 0] = 42.0
        assert np.fromfile(d / "minv" / "inverse.f64")[0] == 42.0
        assert not list(Path(d).rglob("*.blk"))

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
        victim = d / "minv" / "inverse.f64"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorrupt):
            run_inversion(m, checkpoint_dir=d)

    @pytest.mark.parametrize("damage", ["flip", "truncate", "delete"])
    def test_damaged_store_file_is_corrupt(self, tmp_path, damage):
        m = well_conditioned(9, 56)  # 4 blocks: minv plus tset levels 1 and 2
        for name in ("minv/inverse.f64", "tset/1.f64", "tset/2.f64"):
            d = tmp_path / name.replace("/", "-")
            run_inversion(m, checkpoint_dir=d, stop_after_step=5)
            victim = d / name
            raw = bytearray(victim.read_bytes())
            if damage == "flip":
                raw[len(raw) // 2] ^= 0x01
                victim.write_bytes(bytes(raw))
            elif damage == "truncate":
                victim.write_bytes(bytes(raw[:-8]))
            else:
                victim.unlink()
            with pytest.raises(CheckpointCorrupt):
                checkpoint_load(d)
            with pytest.raises(CheckpointCorrupt):
                run_inversion(m, checkpoint_dir=d)

    @pytest.mark.parametrize("extra", [-8, 8])
    def test_wrong_length_with_matching_hash_is_corrupt(self, tmp_path, extra):
        """A store file of the wrong length is corrupt even when the state
        hash was recomputed over it: it would not map onto the scheme."""
        from blockinv.storage import _state_hash

        m = well_conditioned(9, 57)
        d = tmp_path / "ck"
        run_inversion(m, checkpoint_dir=d, stop_after_step=3)
        victim = d / "tset" / "1.f64"
        raw = victim.read_bytes()
        victim.write_bytes(raw[:extra] if extra < 0 else raw + bytes(extra))
        rewrite_meta(d, "state_hash", _state_hash(d, make_partition(9), 3))
        with pytest.raises(CheckpointCorrupt, match="tset/1.f64"):
            checkpoint_load(d)
        with pytest.raises(CheckpointCorrupt):
            run_inversion(m, checkpoint_dir=d)

    def test_other_byte_order_is_corrupt(self, tmp_path):
        """Store files are raw native float64: a checkpoint written on a
        machine of the other byte order would resume from wrong values."""
        m = well_conditioned(9, 58)
        d = tmp_path / "ck"
        run_inversion(m, checkpoint_dir=d, stop_after_step=3)
        assert json.loads((d / "meta.json").read_text())["byteorder"] == sys.byteorder
        rewrite_meta(d, "byteorder", "big" if sys.byteorder == "little" else "little")
        with pytest.raises(CheckpointCorrupt, match="byte order"):
            checkpoint_load(d)
        with pytest.raises(CheckpointCorrupt, match="byte order"):
            run_inversion(m, checkpoint_dir=d)

    def test_version_1_is_corrupt(self, tmp_path):
        m = well_conditioned(9, 58)
        d = tmp_path / "ck"
        run_inversion(m, checkpoint_dir=d, stop_after_step=3)
        rewrite_meta(d, "version", 1)
        with pytest.raises(CheckpointCorrupt, match="version 1"):
            run_inversion(m, checkpoint_dir=d)

    def test_missing_meta(self, tmp_path):
        with pytest.raises(CheckpointCorrupt):
            checkpoint_load(tmp_path)

    def test_block_files_identical_across_load(self, tmp_path):
        m = well_conditioned(21, 57)
        d = tmp_path / "ck"
        run_inversion(m, checkpoint_dir=d, stop_after_step=7)
        before = {p: p.read_bytes() for p in sorted(Path(d).rglob("*.f64"))}
        assert len(before) == 4  # minv and tset levels 1..3
        checkpoint_load(d)
        after = {p: p.read_bytes() for p in sorted(Path(d).rglob("*.f64"))}
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
        assert sorted(p.name for p in (d / "tset").iterdir()) == ["1.f64", "2.f64", "3.f64"]
        out = run_inversion(m, checkpoint_dir=d, file_backed=file_backed).to_dense()
        assert out.tobytes() == ref.tobytes()

    def test_fresh_start_keeps_an_earlier_result(self, tmp_path):
        """A fresh start replaces the store files, so an inverse that an
        earlier run returned, still mapped on its file, keeps its values."""
        m = well_conditioned(16, 63)
        d = tmp_path / "ck"
        first = run_inversion(m, checkpoint_dir=d)
        expected = first.to_dense()
        (d / "meta.json").unlink()
        run_inversion(well_conditioned(16, 64), checkpoint_dir=d)
        assert first.to_dense().tobytes() == expected.tobytes()

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
        fresh_state(tmp_path, scheme)  # the store files a save hashes
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


class TestCheckpointLayout:
    """A checkpoint is meta.json plus one store file per store, and its
    inverse holds what an in-memory run stopped at the same step holds."""

    @pytest.mark.parametrize("order, sizes", [(16, None), (21, None), (24, [4, 8, 4, 8])],
                             ids=["order16", "order21", "sizes4848"])
    def test_memory_and_file_backed_checkpoints_match(self, tmp_path, order, sizes):
        m = well_conditioned(order, 60 + order)
        scheme = make_partition(order) if sizes is None else partition_from_sizes(sizes)
        names = ["meta.json", "minv/inverse.f64"]
        names += [f"tset/{level}.f64" for level in range(1, scheme.k + 1)]
        for stop in range(1, 2 * scheme.n_blocks):
            d = tmp_path / str(stop)
            run_inversion(m, checkpoint_dir=d, sizes=sizes, stop_after_step=stop)
            files = sorted(str(p.relative_to(d)) for p in d.rglob("*") if p.is_file())
            assert files == sorted(names), stop
            memory = run_inversion(m, sizes=sizes, stop_after_step=stop).to_dense()
            assert (d / "minv" / "inverse.f64").read_bytes() == memory.tobytes(), stop
