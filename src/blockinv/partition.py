"""Diagonal-block partitioning of a square matrix.

The number of diagonal blocks is always a power of two,
``n_blocks = 2**(floor(log2(m_n)) - 1)``, and the default block sizes are
drawn from {2, 3, 4}.  Quads group ``2**level`` consecutive diagonal blocks
into one 2x2 arrangement (A, B, C, D) for the pivot-block formulas.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import InvalidOrder


def _is_int(value) -> bool:
    """A Python or numpy integer, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class PartitionScheme:
    """Immutable description of the diagonal blocking of an order-m_n matrix."""

    m_n: int
    sizes: tuple[int, ...]
    offsets: tuple[int, ...]  # prefix sums, len(sizes) + 1 entries
    n_blocks: int

    @property
    def k(self) -> int:
        """log2 of the number of diagonal blocks."""
        return self.n_blocks.bit_length() - 1

    def quads(self, level: int) -> tuple[tuple[int, int, int], ...]:
        """``(first, mid, last)`` diagonal blocks of each level-``level``
        quad, in diagonal order: its A half [first, mid) and its D half
        [mid, last).  Level 0 gives the diagonal blocks as ``(p, p + 1, p + 1)``."""
        if level == 0:
            return tuple((p, p + 1, p + 1) for p in range(self.n_blocks))
        w = 2**level
        return tuple((g * w, g * w + w // 2, (g + 1) * w) for g in range(self.n_blocks // w))


def _build(m_n: int, sizes: list[int]) -> PartitionScheme:
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    return PartitionScheme(
        m_n=m_n, sizes=tuple(sizes), offsets=tuple(offsets), n_blocks=len(sizes)
    )


def make_partition(m_n: int) -> PartitionScheme:
    """Partition an order-m_n matrix into 2**(floor(log2 m_n) - 1) blocks.

    Sizes start at 2 everywhere; with r = m_n - 2 * n_blocks left over, the
    last r blocks become 3 when r fits, otherwise every block becomes 3 and
    the last (r - n_blocks) become 4.  Sizes are non-decreasing and always
    land in {2, 3, 4}.
    """
    if not _is_int(m_n) or m_n < 2:
        raise InvalidOrder(f"order must be an integer >= 2, got {m_n!r}")
    m_n = int(m_n)
    n_blocks = 2 ** max(int(math.log2(m_n)) - 1, 0)
    sizes = [2] * n_blocks
    r = m_n - 2 * n_blocks
    if r <= n_blocks:
        for i in range(n_blocks - r, n_blocks):
            sizes[i] = 3
    else:
        sizes = [3] * n_blocks
        for i in range(2 * n_blocks - r, n_blocks):
            sizes[i] = 4
    assert sum(sizes) == m_n
    return _build(m_n, sizes)


def partition_from_sizes(sizes) -> PartitionScheme:
    """Build a scheme from explicit diagonal block sizes.

    Sizes may be arbitrarily large; they must be integers (Python or numpy,
    not bools) of at least 1, in a power-of-two count.
    """
    try:
        sizes = list(sizes)
    except TypeError:
        raise InvalidOrder(f"block sizes must be a sequence, got {sizes!r}") from None
    if not sizes or not all(_is_int(s) and s >= 1 for s in sizes):
        raise InvalidOrder(f"bad block sizes {sizes!r}")
    sizes = [int(s) for s in sizes]
    n = len(sizes)
    if n & (n - 1):
        raise InvalidOrder(f"number of diagonal blocks must be a power of two, got {n}")
    return _build(sum(sizes), sizes)
