"""Block-structured storage for the step engine.

A block store (:class:`MemoryBlockStore`) holds the source matrix or the
inverse under construction as one dense array; block reads are views.  A
provisional set holds the per-level L / R / S scratch blocks in one band
array.  A :class:`DiagonalRun` reads and writes evenly spaced diagonal
blocks or quads of either as one stack of strided views.

A run without a checkpoint directory allocates its arrays in memory.  A
checkpointed run maps them onto files of its checkpoint directory and
works on them there, so the operating system pages blocks in and out::

    meta.json          stepid, blocksize, sizes, byte order, state hash, version
    minv/inverse.f64   the inverse, n x n
    tset/<level>.f64   the band array of provisional set <level>

with every store file raw float64 in the machine's byte order, row-major,
with no header.  A checkpoint save therefore writes no block: it hashes
the store files and writes ``meta.json``.  A fresh start clears the store
files and meta.json of any earlier run.  Only the store files under
``minv/`` and ``tset/`` belong to a checkpoint; other files in the
directory are neither hashed nor cleared.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .core import matrix_to_bytes
from .errors import (
    BlockInvError,
    BlockShapeMismatch,
    CheckpointCorrupt,
    DimensionMismatch,
    SchemeMismatch,
)
from .partition import PartitionScheme, _is_int, partition_from_sizes

CHECKPOINT_VERSION = 2


# ---------------------------------------------------------------------------
# Block stores
# ---------------------------------------------------------------------------


class MemoryBlockStore:
    """One dense array, or a mapped file, holding a whole matrix; strided
    views of it are written through."""

    def __init__(self, scheme: PartitionScheme, data: np.ndarray | None = None):
        self.scheme = scheme
        if data is None:
            data = np.zeros((scheme.m_n, scheme.m_n))
        if data.shape != (scheme.m_n, scheme.m_n):
            raise DimensionMismatch(f"data {data.shape} vs order {scheme.m_n}")
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        # (buffer, base, ld): element (i, j) is buffer.flat[base + i * ld + j]
        self.strided = self.data, 0, scheme.m_n

    def to_dense(self) -> np.ndarray:
        return self.data.copy()


# ---------------------------------------------------------------------------
# Provisional sets
# ---------------------------------------------------------------------------


class DiagonalRun:
    """Diagonal blocks or quads of a partition that share their block sizes
    and sit at evenly spaced diagonal offsets, read and written as stacks.

    Item i covers diagonal blocks ``spans[i] = (first, mid, last)``: its A
    half [first, mid) and its D half [mid, last); a diagonal block p is
    ``(p, p + 1, p + 1)`` with an empty D half.  ``items`` holds the block
    (level 0) or level-``level`` quad index of each item.  Item i's scalar
    diagonal offset is ``start + i * stride``; ``ha`` and ``hd`` are the
    scalar widths of its halves.

    A part of an item is two letters, its rows then its cols, each "A",
    "D" or "Q" (the whole item).  The pairs "X" = (AA, DD) and "Y" =
    (AD, DA) are the diagonal and the off-diagonal halves of the quad
    layout [[A, B], [C, D]]: one (2, q, h, h) stack when both halves have
    the same block sizes (``paired``), else a list of two stacks.  Every
    stack is a strided view of the store's ``strided`` buffer, which may be
    written through.
    """

    PAIRS = {"X": ("AA", "DD"), "Y": ("AD", "DA")}

    def __init__(self, scheme: PartitionScheme, level: int, spans):
        off = scheme.offsets
        first, mid, last = spans[0]
        self.spans = tuple(spans)
        self.items = tuple(first >> level for first, _, _ in spans)
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

    def specs(self, part: str, base: int, ld: int) -> list:
        """(shape, byte offset, byte strides) of the stack of a part of
        every item in a buffer that holds matrix element (i, j) at
        ``base + i * ld + j``: one, or two for a pair of unlike halves."""
        spec = self._specs.get(part)
        if spec is None:
            return [s for half in self.PAIRS[part] for s in self.specs(half, base, ld)]
        r0, c0, shape, shift = spec
        offset = (base + self.start * (ld + 1) + r0 * ld + c0) * 8
        strides = (self.stride * (ld + 1) * 8, ld * 8, 8)
        if shift is None:
            return [((len(self.spans), *shape), offset, strides)]
        return [((2, len(self.spans), *shape), offset, ((shift[0] * ld + shift[1]) * 8, *strides))]


def stacks(buf, specs):
    """The views of ``buf`` that :meth:`DiagonalRun.specs` describes: one
    stack, or a list of two for a pair of unlike halves."""
    if len(specs) == 1:
        shape, offset, strides = specs[0]
        return np.ndarray(shape, np.float64, buf, offset, strides)
    return [np.ndarray(shape, np.float64, buf, offset, strides) for shape, offset, strides in specs]


def assign(view, values) -> None:
    """Write a stack, or a pair of them, into a view of the same form."""
    if isinstance(view, list):
        view[0][...], view[1][...] = values
    else:
        view[...] = values


@functools.lru_cache(maxsize=256)
def _band(scheme: PartitionScheme, level: int) -> tuple[int, int, int]:
    """(scalars, base, ld) of level ``level``'s band array: matrix element
    (i, j) sits at ``base + i * ld + j``."""
    off, n = scheme.offsets, scheme.m_n
    width = max(off[last] - off[first] for first, _, last in scheme.quads(level))
    if 2 * width - 1 >= n:
        return n * n, 0, n
    return n * (2 * width - 1), width - 1, 2 * width - 2


class ProvisionalSet:
    """Level-``level`` scratch: per quad the left product L = -D^-1 C, the
    right product R = -A^-1 B, and the Schur complements S_D, S_A.

    S blocks are indexed 2*quad (S_D) and 2*quad + 1 (S_A).  Each block
    sits where the quad layout puts it in the matrix: S_D over the A half's
    diagonal, S_A over the D half's, R above and L below them, so the S
    blocks read through a :class:`DiagonalRun` are the Schur complement
    matrix of the next steps.  All blocks share one band array: matrix
    element (i, j) sits at ``base + i * ld + j`` with ``ld = 2W - 2`` and
    ``base = W - 1`` for the widest quad span W (a dense array when that is
    no larger), about ``2 * W`` scalars per row, and any run of quads is one
    strided view.

    ``band`` is a one-dimensional float64 buffer of the band's size, such
    as a checkpoint's mapped file; without it the band is new zeros.  The
    set keeps no record of which blocks are written: the engine's compiled
    schedule checks once per partition that every step reads a set only
    after an arrows step has written it.
    """

    def __init__(self, scheme: PartitionScheme, level: int, band: np.ndarray | None = None):
        if not 1 <= level <= scheme.k:
            raise BlockShapeMismatch(f"level {level} for {scheme.n_blocks} blocks")
        self.scheme = scheme
        self.level = level
        self.n_quads = scheme.n_blocks >> level
        size, base, ld = _band(scheme, level)
        if band is None:
            band = np.zeros(size)
        elif band.shape != (size,):
            raise BlockShapeMismatch(f"T_{level}: band of {band.shape}, scheme needs ({size},)")
        self.strided = band, base, ld


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def input_fingerprint(m: np.ndarray, scheme: PartitionScheme) -> str:
    h = hashlib.sha256()
    h.update(matrix_to_bytes(m))
    h.update(("|" + ",".join(map(str, scheme.sizes))).encode())
    return h.hexdigest()


def _store_files(root: Path, scheme: PartitionScheme) -> list[tuple[Path, int]]:
    """(path, scalars) of each store file of a checkpoint on ``scheme``:
    the inverse, then the band of every level."""
    files = [(root / "minv" / "inverse.f64", scheme.m_n * scheme.m_n)]
    for level in range(1, scheme.k + 1):
        files.append((root / "tset" / f"{level}.f64", _band(scheme, level)[0]))
    return files


def _state_hash(root: Path, scheme: PartitionScheme, stepid: int) -> str:
    h = hashlib.sha256()
    h.update(f"stepid={stepid}\n".encode())
    for path, _ in _store_files(root, scheme):
        digest = hashlib.sha256()
        with path.open("rb") as f:
            while chunk := f.read(1 << 20):  # in chunks, never one copy of a whole store
                digest.update(chunk)
        h.update(f"{path.relative_to(root)}:{digest.hexdigest()}\n".encode())
    return h.hexdigest()


def checkpoint_save(directory, scheme: PartitionScheme, completed_step: int, input_hash: str) -> None:
    """Record the engine state after a step boundary.

    The run's stores are already mapped onto the directory's store files,
    so this hashes them and writes ``meta.json``; it writes no block.  The
    mapped writes are not flushed to disk: the hash reads them back through
    the page cache.  A run torn during a step leaves store files that
    disagree with the last hash, so the next load reports the checkpoint as
    corrupt.
    """
    root = Path(directory)
    meta = {
        "version": CHECKPOINT_VERSION,
        "stepid": completed_step,
        "blocksize": scheme.n_blocks,
        "sizes": list(scheme.sizes),
        "byteorder": sys.byteorder,
        "input_hash": input_hash,
        "state_hash": _state_hash(root, scheme, completed_step),
    }
    (root / "meta.json").write_text(json.dumps(meta, indent=1))


def checkpoint_load(directory) -> dict:
    """Read and integrity-check checkpoint metadata.

    Raises CheckpointCorrupt when the directory is unreadable, a field of
    meta.json is missing or of the wrong type or names another byte order,
    the sizes make no partition, a store file is missing or not the length
    the sizes give it, or any store file disagrees with the recorded hash.
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
    for key in ("version", "stepid", "blocksize", "sizes", "byteorder", "input_hash", "state_hash"):
        if key not in meta:
            raise CheckpointCorrupt(f"meta.json missing {key!r}")
    if meta["version"] != CHECKPOINT_VERSION:
        raise CheckpointCorrupt(f"checkpoint version {meta['version']} unsupported")
    if meta["byteorder"] != sys.byteorder:  # the store files are raw native float64
        raise CheckpointCorrupt(f"checkpoint byte order {meta['byteorder']!r} is not {sys.byteorder!r}")
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
    try:
        scheme = partition_from_sizes(sizes)
    except BlockInvError as exc:
        raise CheckpointCorrupt(f"meta.json has unusable sizes: {exc}") from exc
    for path, scalars in _store_files(root, scheme):
        if not path.is_file() or path.stat().st_size != 8 * scalars:
            raise CheckpointCorrupt(f"{path.relative_to(root)} is missing or not {8 * scalars} bytes")
    if _state_hash(root, scheme, stepid) != meta["state_hash"]:
        raise CheckpointCorrupt("state hash mismatch")
    return meta


def checkpoint_matches(meta: dict, scheme: PartitionScheme, input_hash: str) -> None:
    """Raise SchemeMismatch unless the checkpoint belongs to this input."""
    if list(scheme.sizes) != meta["sizes"] or scheme.n_blocks != meta["blocksize"]:
        raise SchemeMismatch("partition scheme differs from checkpoint")
    if input_hash != meta["input_hash"]:
        raise SchemeMismatch("input matrix differs from checkpoint")


def _map(path: Path, scalars: int, mode: str) -> np.memmap:
    """A store file mapped as a flat array: "w+" creates it zeroed, "r+" opens it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return np.memmap(path, np.float64, mode, shape=(scalars,))


def _minv(root: Path, scheme: PartitionScheme, mode: str) -> MemoryBlockStore:
    path, scalars = _store_files(root, scheme)[0]
    return MemoryBlockStore(scheme, _map(path, scalars, mode).reshape(scheme.m_n, scheme.m_n))


def _tsets(root: Path, scheme: PartitionScheme, mode: str) -> dict[int, ProvisionalSet]:
    return {
        level: ProvisionalSet(scheme, level, _map(path, scalars, mode))
        for level, (path, scalars) in enumerate(_store_files(root, scheme)[1:], 1)
    }


def load_minv_store(directory, scheme: PartitionScheme) -> MemoryBlockStore:
    """The inverse of the checkpoint in ``directory``, mapped from ``minv/``."""
    return _minv(Path(directory), scheme, "r+")


def load_tsets(directory, scheme: PartitionScheme) -> dict[int, ProvisionalSet]:
    """The provisional sets of the checkpoint in ``directory``, mapped from
    ``tset/``."""
    return _tsets(Path(directory), scheme, "r+")


def fresh_state(directory, scheme: PartitionScheme):
    """(minv_store, tsets) mapped onto new zeroed store files of
    ``directory`` for a checkpointed run starting at step 1.

    The directory is first cleared of the store files and the meta.json of
    any earlier run.  The old files are removed, not truncated, so an
    inverse an earlier run returned stays mapped on its own file.
    """
    root = Path(directory)
    for stale in sorted(root.glob("minv/*.f64")) + sorted(root.glob("tset/*.f64")):
        os.remove(stale)
    (root / "meta.json").unlink(missing_ok=True)
    return _minv(root, scheme, "w+"), _tsets(root, scheme, "w+")
