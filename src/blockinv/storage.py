"""Block-structured storage for the step engine.

A block store holds the source matrix or the inverse under construction,
either in memory (:class:`MemoryBlockStore`, one dense array, block reads
are views) or in files (:class:`FileBlockStore`, one ``.blk`` file per
block, named by block coordinates).  Provisional sets hold the per-level
L / R / S scratch blocks with the same two backends (in memory, one band
array per level).  A :class:`DiagonalRun` reads and writes evenly spaced
diagonal blocks or quads of any of these stores as one stack.

A run without a checkpoint directory keeps its inverse and provisional
sets in memory.  A checkpointed run keeps them in files in its checkpoint
directory and works on them there::

    meta.json                       stepid, blocksize, sizes, hashes, version
    minv/B_<i>_<j>.blk              inverse blocks
    tset/<level>/{L,R,S}_<idx>.blk  provisional blocks

with every ``.blk`` in the binary matrix format.  Only
:class:`FileBlockStore` and a :class:`ProvisionalSet` with a ``root`` name,
write or read block files, so a checkpoint save writes no block: it hashes
the block files and writes ``meta.json``.  A fresh start clears the block
files and meta.json of any earlier run.  Only the block files under
``minv/`` and ``tset/`` belong to a checkpoint; other files in the
directory are neither hashed nor cleared.
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
    MissingProvisionalData,
    SchemeMismatch,
)
from .partition import PartitionScheme

CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# Block stores
# ---------------------------------------------------------------------------


class MemoryBlockStore:
    """Dense in-memory backing; region reads are views."""

    def __init__(self, scheme: PartitionScheme, data: np.ndarray | None = None):
        self.scheme = scheme
        if data is None:
            data = np.zeros((scheme.m_n, scheme.m_n))
        if data.shape != (scheme.m_n, scheme.m_n):
            raise DimensionMismatch(f"data {data.shape} vs order {scheme.m_n}")
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        # (buffer, base, ld): element (i, j) is buffer.flat[base + i * ld + j]
        self.strided = self.data, 0, scheme.m_n

    def region(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        return self.scheme.region(self.data, r0, r1, c0, c1)

    def set_region(self, r0: int, r1: int, c0: int, c1: int, values: np.ndarray) -> None:
        self.scheme.region(self.data, r0, r1, c0, c1)[...] = values

    def to_dense(self) -> np.ndarray:
        return self.data.copy()


class FileBlockStore:
    """One file per block under ``root``, named ``B_<i>_<j>.blk``."""

    strided = None  # no dense array to take views of

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


# ---------------------------------------------------------------------------
# Provisional sets
# ---------------------------------------------------------------------------


class DiagonalRun:
    """Diagonal blocks or quads of a partition that share their block sizes
    and sit at evenly spaced diagonal offsets, read and written as stacks.

    Item i covers diagonal blocks ``spans[i] = (first, mid, last)``: its A
    half [first, mid) and its D half [mid, last); a diagonal block p is
    ``(p, p + 1, p + 1)`` with an empty D half.  Item i's scalar diagonal
    offset is ``start + i * stride``; ``ha`` and ``hd`` are the scalar
    widths of its halves.

    A part of an item is two letters, its rows then its cols, each "A",
    "D" or "Q" (the whole item).  The pairs "X" = (AA, DD) and "Y" =
    (AD, DA) are the diagonal and the off-diagonal halves of the quad
    layout [[A, B], [C, D]]: one (2, q, h, h) stack when both halves have
    the same block sizes (``paired``), else a list of two stacks.  A store
    in memory gives strided views, which may be written through; a
    file-backed one gives block-by-block copies.
    """

    PAIRS = {"X": ("AA", "DD"), "Y": ("AD", "DA")}

    def __init__(self, scheme: PartitionScheme, spans):
        off = scheme.offsets
        first, mid, last = spans[0]
        self.spans = tuple(spans)
        self.start = off[first]
        self.stride = off[spans[1][0]] - off[first] if len(spans) > 1 else 0
        self.ha = off[mid] - off[first]
        self.hd = off[last] - off[mid]
        self.paired = scheme.sizes[first:mid] == scheme.sizes[mid:last]
        halves = {"A": (0, self.ha), "D": (self.ha, self.hd), "Q": (0, self.ha + self.hd)}
        # part -> (row offset, col offset, block shape, shift to a pair's second half)
        self._specs = {
            r + c: (halves[r][0], halves[c][0], (halves[r][1], halves[c][1]), None)
            for r in halves
            for c in halves
        }
        if self.paired:
            for pair, (one, two) in self.PAIRS.items():
                r0, c0, shape, _ = self._specs[one]
                r1, c1, _, _ = self._specs[two]
                self._specs[pair] = (r0, c0, shape, (r1 - r0, c1 - c0))

    def __len__(self) -> int:
        return len(self.spans)

    def read(self, store, lo: int, hi: int, part: str):
        """A part of items [lo, hi) of ``store``."""
        spec = self._specs.get(part)
        if spec is None:  # a pair of halves with different block sizes
            return [self.read(store, lo, hi, half) for half in self.PAIRS[part]]
        if store.strided is not None:
            return self._view(store.strided, lo, hi, spec)
        if spec[3] is not None:
            return np.stack([self.read(store, lo, hi, half) for half in self.PAIRS[part]])
        return np.stack([store.region(*self._blocks(i, part)) for i in range(lo, hi)])

    def write(self, store, lo: int, hi: int, part: str, values) -> None:
        """Store a stack, or a pair of them, as a part of items [lo, hi)."""
        spec = self._specs.get(part)
        if spec is not None and store.strided is not None:
            self._view(store.strided, lo, hi, spec)[...] = values
        elif part in self.PAIRS:
            for half, half_values in zip(self.PAIRS[part], values):
                self.write(store, lo, hi, half, half_values)
        else:
            for i in range(lo, hi):
                store.set_region(*self._blocks(i, part), values[i - lo])

    def _blocks(self, i: int, part: str) -> tuple[int, int, int, int]:
        """Block rows and cols of a part of item i, for ``region``."""
        first, mid, last = self.spans[i]
        bounds = {"A": (first, mid), "D": (mid, last), "Q": (first, last)}
        return (*bounds[part[0]], *bounds[part[1]])

    def _view(self, strided, lo: int, hi: int, spec) -> np.ndarray:
        buf, base, ld = strided
        r0, c0, shape, shift = spec
        offset = (base + (self.start + lo * self.stride) * (ld + 1) + r0 * ld + c0) * 8
        strides = (self.stride * (ld + 1) * 8, ld * 8, 8)
        if shift is None:
            return np.ndarray((hi - lo, *shape), np.float64, buf, offset, strides)
        return np.ndarray(
            (2, hi - lo, *shape), np.float64, buf, offset, ((shift[0] * ld + shift[1]) * 8, *strides)
        )


class ProvisionalSet:
    """Level-``level`` scratch: per quad the left product L = -D^-1 C, the
    right product R = -A^-1 B, and the Schur complements S_D, S_A.

    S blocks are indexed 2*quad (S_D) and 2*quad + 1 (S_A).  Each block
    sits where the quad layout puts it in the matrix: S_D over the A half's
    diagonal, S_A over the D half's, R above and L below them, so the S
    blocks read through ``region`` (or a :class:`DiagonalRun`) are the
    Schur complement matrix of the next steps.  In memory all blocks share
    one band array: matrix element (i, j) sits at ``base + i * ld + j``
    with ``ld = 2W - 2`` and ``base = W - 1`` for the widest quad span W
    (a dense array when that is no larger), about ``2 * W`` scalars per
    row, and any run of quads is one strided view.  File-backed sets keep
    one file per block.  Shapes are validated against the partition
    scheme on every single-block store.
    """

    def __init__(self, scheme: PartitionScheme, level: int, root=None):
        if not 1 <= level <= scheme.k:
            raise BlockShapeMismatch(f"level {level} for {scheme.n_blocks} blocks")
        self.scheme = scheme
        self.level = level
        self.spans = scheme.quads(level)  # (first, mid, last) of each quad
        self.n_quads = len(self.spans)
        self.root = None if root is None else Path(root)
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            self.strided = None
        else:
            off, n = scheme.offsets, scheme.m_n
            width = max(off[last] - off[first] for first, _, last in self.spans)
            if 2 * width - 1 >= n:
                self.strided = np.zeros(n * n), 0, n
            else:
                self.strided = np.zeros(n * (2 * width - 1)), width - 1, 2 * width - 2
            self._stored = {kind: [False] * self._count(kind) for kind in "LRS"}

    def _path(self, kind: str, idx: int) -> Path:
        return self.root / f"{kind}_{idx}.blk"

    def _count(self, kind: str) -> int:
        return 2 * self.n_quads if kind == "S" else self.n_quads

    def _blocks(self, kind: str, idx: int) -> tuple[int, int, int, int]:
        """Block rows [r0, r1) and cols [c0, c1) of a stored block."""
        if kind == "S":
            first, mid, last = self.spans[idx // 2]
            lo, hi = (first, mid) if idx % 2 == 0 else (mid, last)
            return lo, hi, lo, hi
        first, mid, last = self.spans[idx]
        return (mid, last, first, mid) if kind == "L" else (first, mid, mid, last)

    def _load(self, kind: str, idx: int) -> np.ndarray:
        if self.root is not None:
            path = self._path(kind, idx)
            if not path.exists():
                raise MissingProvisionalData(f"T_{self.level} {kind}_{idx}")
            return load_binary(path)
        if not self._stored[kind][idx]:
            raise MissingProvisionalData(f"T_{self.level} {kind}_{idx}")
        return self._view(kind, idx)

    def _view(self, kind: str, idx: int) -> np.ndarray:
        """A stored block of an in-memory set, as a view of its band."""
        buf, base, ld = self.strided
        r0, r1, c0, c1 = self._blocks(kind, idx)
        off = self.scheme.offsets
        return np.ndarray(
            (off[r1] - off[r0], off[c1] - off[c0]), np.float64, buf,
            (base + off[r0] * ld + off[c0]) * 8, (ld * 8, 8),
        )

    def _entry(self, r0: int, r1: int, c0: int, c1: int) -> tuple[str, int]:
        """(kind, idx) of the stored block holding rows [r0, r1) x cols [c0, c1)."""
        quad = r0 >> self.level
        if 0 <= quad < self.n_quads:
            first, mid, last = self.spans[quad]
            top, left = r1 <= mid, c1 <= mid
            if first <= c0 and max(r1, c1) <= last and (top or r0 >= mid) and (left or c0 >= mid):
                if top:
                    return ("S", 2 * quad) if left else ("R", quad)
                return ("L", quad) if left else ("S", 2 * quad + 1)
        raise BlockShapeMismatch(
            f"T_{self.level}: blocks [{r0}, {r1}) x [{c0}, {c1}) are not in one stored block"
        )

    def region(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """Block rows [r0, r1) x cols [c0, c1), which must lie in one stored block."""
        kind, idx = self._entry(r0, r1, c0, c1)
        br0, _, bc0, _ = self._blocks(kind, idx)
        off = self.scheme.offsets
        return self._load(kind, idx)[
            off[r0] - off[br0] : off[r1] - off[br0], off[c0] - off[bc0] : off[c1] - off[bc0]
        ]

    def set_region(self, r0: int, r1: int, c0: int, c1: int, values: np.ndarray) -> None:
        """Store one whole block given by its block rows and cols."""
        kind, idx = self._entry(r0, r1, c0, c1)
        if self._blocks(kind, idx) != (r0, r1, c0, c1):
            raise BlockShapeMismatch(f"T_{self.level}: partial write of {kind}_{idx}")
        off = self.scheme.offsets
        want = off[r1] - off[r0], off[c1] - off[c0]
        if values.shape != want:
            raise BlockShapeMismatch(
                f"T_{self.level} {kind}_{idx}: got {values.shape}, scheme says {want}"
            )
        if self.root is not None:
            save_binary(values, self._path(kind, idx))
        else:
            self._view(kind, idx)[...] = values
            self._stored[kind][idx] = True

    def require(self, kind: str) -> None:
        """Raise MissingProvisionalData unless every ``kind`` block is stored
        (file-backed sets raise on the first read of a missing block)."""
        if self.root is None and not all(self._stored[kind]):
            idx = self._stored[kind].index(False)
            raise MissingProvisionalData(f"T_{self.level} {kind}_{idx}")

    def store_arrows(self, run: DiagonalRun, lo: int, hi: int, schur, panels) -> None:
        """Store the blocks of quads [lo, hi) of a run of this level's quads:
        ``schur`` is the pair (S_D, S_A) and ``panels`` the pair (R, L), each
        as :meth:`DiagonalRun.read` gives pairs."""
        run.write(self, lo, hi, "X", schur)
        run.write(self, lo, hi, "Y", panels)
        if self.root is None:
            stored_l, stored_r, stored_s = (self._stored[kind] for kind in "LRS")
            for first, _, _ in run.spans[lo:hi]:
                quad = first >> self.level
                stored_l[quad] = stored_r[quad] = True
                stored_s[2 * quad] = stored_s[2 * quad + 1] = True

    def panels(self, run: DiagonalRun, lo: int, hi: int):
        """The pair (R, L) of quads [lo, hi) of a run of this level's quads."""
        return run.read(self, lo, hi, "Y")


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def input_fingerprint(m: np.ndarray, scheme: PartitionScheme) -> str:
    h = hashlib.sha256()
    h.update(matrix_to_bytes(m))
    h.update(("|" + ",".join(map(str, scheme.sizes))).encode())
    return h.hexdigest()


def _blk_files(root: Path) -> list[Path]:
    """The block files of the inverse and provisional stores under ``root``."""
    return sorted((root / "minv").rglob("*.blk")) + sorted((root / "tset").rglob("*.blk"))


def _state_hash(root: Path, stepid: int) -> str:
    h = hashlib.sha256()
    h.update(f"stepid={stepid}\n".encode())
    for path in _blk_files(root):
        h.update(str(path.relative_to(root)).encode())
        h.update(b":")
        h.update(hashlib.sha256(path.read_bytes()).hexdigest().encode())
        h.update(b"\n")
    return h.hexdigest()


def checkpoint_save(directory, scheme: PartitionScheme, completed_step: int, input_hash: str) -> None:
    """Record the engine state after a step boundary.

    The run's stores already live in the directory's block files, so this
    hashes them and writes ``meta.json``; it writes no block.  A run torn
    during a step leaves block files that disagree with the last hash, so
    the next load reports the checkpoint as corrupt.
    """
    root = Path(directory)
    meta = {
        "version": CHECKPOINT_VERSION,
        "stepid": completed_step,
        "blocksize": scheme.n_blocks,
        "sizes": list(scheme.sizes),
        "input_hash": input_hash,
        "state_hash": _state_hash(root, completed_step),
    }
    (root / "meta.json").write_text(json.dumps(meta, indent=1))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def checkpoint_load(directory) -> dict:
    """Read and integrity-check checkpoint metadata.

    Raises CheckpointCorrupt when the directory is unreadable, a field of
    meta.json is missing or of the wrong type, or any block file disagrees
    with the recorded state hash.
    """
    root = Path(directory)
    meta_path = root / "meta.json"
    if not meta_path.exists():
        raise CheckpointCorrupt(f"no meta.json in {root}")
    try:
        meta = json.loads(meta_path.read_text())
    except (json.JSONDecodeError, OSError) as exc:
        raise CheckpointCorrupt(f"unreadable meta.json: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointCorrupt("meta.json is not an object")
    for key in ("version", "stepid", "blocksize", "sizes", "input_hash", "state_hash"):
        if key not in meta:
            raise CheckpointCorrupt(f"meta.json missing {key!r}")
    if meta["version"] != CHECKPOINT_VERSION:
        raise CheckpointCorrupt(f"checkpoint version {meta['version']} unsupported")
    blocksize, stepid, sizes = meta["blocksize"], meta["stepid"], meta["sizes"]
    valid = {
        "blocksize": _is_int(blocksize),
        "stepid": _is_int(stepid) and _is_int(blocksize) and 0 <= stepid < 2 * blocksize,
        "sizes": isinstance(sizes, list) and all(_is_int(size) for size in sizes),
        "input_hash": isinstance(meta["input_hash"], str),
        "state_hash": isinstance(meta["state_hash"], str),
    }
    for key, ok in valid.items():
        if not ok:
            raise CheckpointCorrupt(f"meta.json has a malformed {key}: {meta[key]!r}")
    if _state_hash(root, stepid) != meta["state_hash"]:
        raise CheckpointCorrupt("state hash mismatch")
    return meta


def checkpoint_matches(meta: dict, scheme: PartitionScheme, input_hash: str) -> None:
    """Raise SchemeMismatch unless the checkpoint belongs to this input."""
    if list(scheme.sizes) != meta["sizes"] or scheme.n_blocks != meta["blocksize"]:
        raise SchemeMismatch("partition scheme differs from checkpoint")
    if input_hash != meta["input_hash"]:
        raise SchemeMismatch("input matrix differs from checkpoint")


def load_minv_store(directory, scheme: PartitionScheme) -> FileBlockStore:
    """The inverse's block files of the checkpoint in ``directory``."""
    return FileBlockStore(scheme, Path(directory) / "minv")


def _tset_files(root: Path, scheme: PartitionScheme) -> dict[int, ProvisionalSet]:
    return {
        level: ProvisionalSet(scheme, level, root=root / "tset" / str(level))
        for level in range(1, scheme.k + 1)
    }


def load_tsets(directory, scheme: PartitionScheme) -> dict[int, ProvisionalSet]:
    """The provisional sets' block files of the checkpoint in ``directory``."""
    return _tset_files(Path(directory), scheme)


def fresh_state(directory, scheme: PartitionScheme):
    """(minv_store, tsets) in the files of ``directory`` for a checkpointed
    run starting at step 1; M_inv starts zeroed.

    The directory is first cleared of the block files and the meta.json of
    any earlier run.
    """
    root = Path(directory)
    for stale in _blk_files(root):
        os.remove(stale)
    (root / "meta.json").unlink(missing_ok=True)
    minv = FileBlockStore(scheme, root / "minv", np.zeros((scheme.m_n, scheme.m_n)))
    return minv, _tset_files(root, scheme)
