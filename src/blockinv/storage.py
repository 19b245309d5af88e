"""Block-structured storage for the step engine.

A :class:`BlockMatrix` holds the source matrix or the inverse under
construction, either in memory (one dense array, block reads are views) or
file-backed (one ``.blk`` file per block, named by block coordinates).
Provisional sets hold the per-level L / R / S scratch blocks with the same
two backends.  Checkpoints live in a directory::

    meta.json                       stepid, blocksize, sizes, hashes, version
    minv/B_<i>_<j>.blk              inverse blocks
    tset/<level>/{L,R,S}_<idx>.blk  provisional blocks

with every ``.blk`` in the binary matrix format.  In file-backed runs the
engine works directly on this layout, so a checkpoint is just a meta update.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .core import load_binary, matrix_to_bytes, save_binary
from .errors import (
    BlockShapeMismatch,
    CheckpointCorrupt,
    DimensionMismatch,
    MissingCheckpointDir,
    MissingProvisionalData,
    SchemeMismatch,
)
from .partition import PartitionScheme, make_partition

CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# Block stores
# ---------------------------------------------------------------------------


class MemoryBlockStore:
    """Dense in-memory backing; region reads are views."""

    file_backed = False

    def __init__(self, scheme: PartitionScheme, data: np.ndarray | None = None):
        self.scheme = scheme
        if data is None:
            data = np.zeros((scheme.m_n, scheme.m_n))
        if data.shape != (scheme.m_n, scheme.m_n):
            raise DimensionMismatch(f"data {data.shape} vs order {scheme.m_n}")
        self.data = np.ascontiguousarray(data, dtype=np.float64)

    def region(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        return self.scheme.region(self.data, r0, r1, c0, c1)

    def set_region(self, r0: int, r1: int, c0: int, c1: int, values: np.ndarray) -> None:
        self.scheme.region(self.data, r0, r1, c0, c1)[...] = values

    def block(self, i: int, j: int) -> np.ndarray:
        return self.region(i, i + 1, j, j + 1)

    def set_block(self, i: int, j: int, values: np.ndarray) -> None:
        self.set_region(i, i + 1, j, j + 1, values)

    def to_dense(self) -> np.ndarray:
        return self.data.copy()


class FileBlockStore:
    """One file per block under ``root``, named ``B_<i>_<j>.blk``."""

    file_backed = True

    def __init__(self, scheme: PartitionScheme, root, data: np.ndarray | None = None):
        self.scheme = scheme
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if data is not None:
            if data.shape != (scheme.m_n, scheme.m_n):
                raise DimensionMismatch(f"data {data.shape} vs order {scheme.m_n}")
            n = scheme.n_blocks
            for i in range(n):
                for j in range(n):
                    self.set_block(i, j, scheme.region(data, i, i + 1, j, j + 1))

    def _path(self, i: int, j: int) -> Path:
        return self.root / f"B_{i}_{j}.blk"

    def block(self, i: int, j: int) -> np.ndarray:
        return load_binary(self._path(i, j))

    def set_block(self, i: int, j: int, values: np.ndarray) -> None:
        save_binary(np.ascontiguousarray(values, dtype=np.float64), self._path(i, j))

    def region(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        off = self.scheme.offsets
        out = np.empty((off[r1] - off[r0], off[c1] - off[c0]))
        for i in range(r0, r1):
            for j in range(c0, c1):
                out[
                    off[i] - off[r0] : off[i + 1] - off[r0],
                    off[j] - off[c0] : off[j + 1] - off[c0],
                ] = self.block(i, j)
        return out

    def set_region(self, r0: int, r1: int, c0: int, c1: int, values: np.ndarray) -> None:
        off = self.scheme.offsets
        for i in range(r0, r1):
            for j in range(c0, c1):
                self.set_block(
                    i,
                    j,
                    values[
                        off[i] - off[r0] : off[i + 1] - off[r0],
                        off[j] - off[c0] : off[j + 1] - off[c0],
                    ],
                )

    def to_dense(self) -> np.ndarray:
        n = self.scheme.n_blocks
        return self.region(0, n, 0, n)


class BlockMatrix:
    """A matrix in diagonal-block partitioned form (source or destination)."""

    def __init__(self, scheme: PartitionScheme, store):
        self.scheme = scheme
        self.store = store

    @classmethod
    def from_dense(
        cls,
        m: np.ndarray,
        scheme: PartitionScheme | None = None,
        directory=None,
    ) -> "BlockMatrix":
        m = np.ascontiguousarray(m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"square matrix required, got {m.shape}")
        if scheme is None:
            scheme = make_partition(m.shape[0])
        if m.shape[0] != scheme.m_n:
            raise DimensionMismatch(f"matrix order {m.shape[0]} vs scheme {scheme.m_n}")
        if directory is None:
            store = MemoryBlockStore(scheme, m)
        else:
            store = FileBlockStore(scheme, directory, m)
        return cls(scheme, store)

    def to_dense(self) -> np.ndarray:
        return self.store.to_dense()


# ---------------------------------------------------------------------------
# Provisional sets
# ---------------------------------------------------------------------------


class ProvisionalSet:
    """Level-``level`` scratch: per quad the left product L = -D^-1 C, the
    right product R = -A^-1 B, and the Schur complements S_D, S_A.

    S blocks are indexed 2*quad (S_D) and 2*quad + 1 (S_A).  Shapes are
    validated against the partition scheme on every store.
    """

    def __init__(self, scheme: PartitionScheme, level: int, root=None):
        if not 1 <= level <= scheme.k:
            raise BlockShapeMismatch(f"level {level} for {scheme.n_blocks} blocks")
        self.scheme = scheme
        self.level = level
        self.n_quads = scheme.n_blocks // 2**level
        self.root = None if root is None else Path(root)
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        else:
            self._l: list = [None] * self.n_quads
            self._r: list = [None] * self.n_quads
            self._s: list = [None] * (2 * self.n_quads)

    def spans(self, quad: int) -> tuple[int, int, int]:
        """(first, mid, last) diagonal block indices of the quad."""
        first = quad * 2**self.level
        half = 2 ** (self.level - 1)
        return first, first + half, first + 2 * half

    def _expected(self, kind: str, idx: int) -> tuple[int, int]:
        off = self.scheme.offsets
        if kind in ("L", "R"):
            first, mid, last = self.spans(idx)
            a_span = off[mid] - off[first]
            d_span = off[last] - off[mid]
            return (d_span, a_span) if kind == "L" else (a_span, d_span)
        first, mid, last = self.spans(idx // 2)
        if idx % 2 == 0:
            span = off[mid] - off[first]  # S_D shaped like the A half
        else:
            span = off[last] - off[mid]  # S_A shaped like the D half
        return (span, span)

    def _check(self, kind: str, idx: int, values: np.ndarray) -> None:
        want = self._expected(kind, idx)
        if values.shape != want:
            raise BlockShapeMismatch(
                f"T_{self.level} {kind}_{idx}: got {values.shape}, scheme says {want}"
            )

    def _store(self, kind: str, idx: int, values: np.ndarray) -> None:
        self._check(kind, idx, values)
        if self.root is not None:
            save_binary(values, self.root / f"{kind}_{idx}.blk")
        elif kind == "L":
            self._l[idx] = values
        elif kind == "R":
            self._r[idx] = values
        else:
            self._s[idx] = values

    def _load(self, kind: str, idx: int) -> np.ndarray:
        if self.root is not None:
            path = self.root / f"{kind}_{idx}.blk"
            if not path.exists():
                raise MissingProvisionalData(f"T_{self.level} {kind}_{idx}")
            return load_binary(path)
        table = {"L": self._l, "R": self._r, "S": self._s}[kind]
        if table[idx] is None:
            raise MissingProvisionalData(f"T_{self.level} {kind}_{idx}")
        return table[idx]

    def store_l(self, quad: int, values: np.ndarray) -> None:
        self._store("L", quad, values)

    def store_r(self, quad: int, values: np.ndarray) -> None:
        self._store("R", quad, values)

    def store_s(self, idx: int, values: np.ndarray) -> None:
        self._store("S", idx, values)

    def l_block(self, quad: int) -> np.ndarray:
        return self._load("L", quad)

    def r_block(self, quad: int) -> np.ndarray:
        return self._load("R", quad)

    def s_block(self, idx: int) -> np.ndarray:
        return self._load("S", idx)

    def entries(self):
        """Yield (name, array) for every stored block, in a fixed order."""
        for kind, count in (("L", self.n_quads), ("R", self.n_quads), ("S", 2 * self.n_quads)):
            for idx in range(count):
                try:
                    yield f"{kind}_{idx}", self._load(kind, idx)
                except MissingProvisionalData:
                    continue


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def input_fingerprint(m: np.ndarray, scheme: PartitionScheme) -> str:
    h = hashlib.sha256()
    h.update(matrix_to_bytes(m))
    h.update(("|" + ",".join(map(str, scheme.sizes))).encode())
    return h.hexdigest()


def _blk_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*.blk"))


def _state_hash(root: Path, stepid: int) -> str:
    h = hashlib.sha256()
    h.update(f"stepid={stepid}\n".encode())
    for path in _blk_files(root):
        h.update(str(path.relative_to(root)).encode())
        h.update(b":")
        h.update(hashlib.sha256(path.read_bytes()).hexdigest().encode())
        h.update(b"\n")
    return h.hexdigest()


def checkpoint_save(
    directory,
    scheme: PartitionScheme,
    minv_store,
    tsets: dict[int, ProvisionalSet],
    completed_step: int,
    input_hash: str,
) -> None:
    """Persist the engine state after a step boundary.

    File-backed stores already live in the directory; memory stores are
    dumped block by block.  ``meta.json`` is written last so a torn save is
    detected as corrupt rather than silently resumed.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    if not getattr(minv_store, "file_backed", False):
        mdir = root / "minv"
        mdir.mkdir(exist_ok=True)
        n = scheme.n_blocks
        for i in range(n):
            for j in range(n):
                save_binary(minv_store.block(i, j), mdir / f"B_{i}_{j}.blk")
        for level, tset in tsets.items():
            tdir = root / "tset" / str(level)
            tdir.mkdir(parents=True, exist_ok=True)
            for name, values in tset.entries():
                save_binary(values, tdir / f"{name}.blk")
    meta = {
        "version": CHECKPOINT_VERSION,
        "stepid": completed_step,
        "blocksize": scheme.n_blocks,
        "sizes": list(scheme.sizes),
        "input_hash": input_hash,
        "state_hash": _state_hash(root, completed_step),
    }
    (root / "meta.json").write_text(json.dumps(meta, indent=1))


def checkpoint_load(directory) -> dict:
    """Read and integrity-check checkpoint metadata.

    Raises CheckpointCorrupt when the directory is unreadable or any block
    file disagrees with the recorded state hash.
    """
    root = Path(directory)
    meta_path = root / "meta.json"
    if not meta_path.exists():
        raise CheckpointCorrupt(f"no meta.json in {root}")
    try:
        meta = json.loads(meta_path.read_text())
    except (json.JSONDecodeError, OSError) as exc:
        raise CheckpointCorrupt(f"unreadable meta.json: {exc}") from exc
    for key in ("version", "stepid", "blocksize", "sizes", "input_hash", "state_hash"):
        if key not in meta:
            raise CheckpointCorrupt(f"meta.json missing {key!r}")
    if meta["version"] != CHECKPOINT_VERSION:
        raise CheckpointCorrupt(f"checkpoint version {meta['version']} unsupported")
    if _state_hash(root, meta["stepid"]) != meta["state_hash"]:
        raise CheckpointCorrupt("state hash mismatch")
    return meta


def checkpoint_matches(meta: dict, scheme: PartitionScheme, input_hash: str) -> None:
    """Raise SchemeMismatch unless the checkpoint belongs to this input."""
    if list(scheme.sizes) != list(meta["sizes"]) or scheme.n_blocks != meta["blocksize"]:
        raise SchemeMismatch("partition scheme differs from checkpoint")
    if input_hash != meta["input_hash"]:
        raise SchemeMismatch("input matrix differs from checkpoint")


def load_minv_store(directory, scheme: PartitionScheme, file_backed: bool):
    root = Path(directory) / "minv"
    if file_backed:
        return FileBlockStore(scheme, root)
    store = MemoryBlockStore(scheme)
    n = scheme.n_blocks
    for i in range(n):
        for j in range(n):
            store.set_block(i, j, load_binary(root / f"B_{i}_{j}.blk"))
    return store


def load_tsets(directory, scheme: PartitionScheme, file_backed: bool) -> dict[int, ProvisionalSet]:
    tsets = {}
    for level in range(1, scheme.k + 1):
        tdir = Path(directory) / "tset" / str(level)
        if file_backed:
            tsets[level] = ProvisionalSet(scheme, level, root=tdir)
        else:
            tset = ProvisionalSet(scheme, level)
            if tdir.is_dir():
                for path in tdir.glob("*.blk"):
                    kind, idx = path.stem.split("_")
                    tset._store(kind, int(idx), load_binary(path))
            tsets[level] = tset
    return tsets


def fresh_state(directory, scheme: PartitionScheme, file_backed: bool):
    """(minv_store, tsets) for a run starting at step 1; M_inv starts zeroed."""
    if file_backed:
        if directory is None:
            raise MissingCheckpointDir("file-backed mode needs a checkpoint directory")
        root = Path(directory)
        if root.exists():
            for stale in _blk_files(root):
                os.remove(stale)
            meta = root / "meta.json"
            if meta.exists():
                meta.unlink()
        minv = FileBlockStore(scheme, root / "minv", np.zeros((scheme.m_n, scheme.m_n)))
        tsets = {
            level: ProvisionalSet(scheme, level, root=root / "tset" / str(level))
            for level in range(1, scheme.k + 1)
        }
    else:
        minv = MemoryBlockStore(scheme)
        tsets = {level: ProvisionalSet(scheme, level) for level in range(1, scheme.k + 1)}
    return minv, tsets
