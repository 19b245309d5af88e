"""Single-level 2x2-block inversion for each pivot choice.

A square matrix split into blocks

    [[A, B],
     [C, D]]

can be inverted around any invertible pivot block whose Schur complement is
also invertible: pivot A uses S_A = D - C A^-1 B, pivot D uses
S_D = A - B D^-1 C, and when B and C are square (counter-diagonal layout)
the analogous S_B = C - D B^-1 A and S_C = B - A C^-1 D apply.  All four
run the single-pivot body of :mod:`blockinv.recursive` on a permutation of
(pivot, row neighbour, column neighbour, opposite block): A -> (A, B, C, D),
D -> (D, C, B, A), B -> (B, A, D, C), C -> (C, D, A, B).  The two combined
forms run its combined-pivot body: they invert both diagonal (or both
counter-diagonal) pivots and place the Schur inverses on the output
diagonal.  The recursions run the same bodies, and
``invert_with_fallback`` runs the retry path's search of
:mod:`blockinv.recursive`, which tries A, D, B and C in turn.

Here the bodies run on numpy arrays with the caller's ``invert_sub(block,
out)`` doing each sub-inversion, so the same code serves leaf analytic
inversion, recursion and oracle-based testing; no scratch is counted.
They get no output quadrants: each product sums into a new C-contiguous
array rather than a strided quadrant of ``out``, and the four output
blocks are copied into ``out`` once the formula has succeeded.  A formula
that raises SingularBlock leaves ``out`` untouched, so the fallback can
try the next one on the same ``out``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OpCounters, invert_small
from .errors import DimensionMismatch
from .recursive import (
    _COUNTER_PIVOTS,
    _DIAGONAL_PIVOTS,
    _Arrays,
    _combined_pivot,
    _pivot_search,
    _via,
)

DIAGONAL = "diagonal-square"
COUNTERDIAGONAL = "counterdiagonal-square"


@dataclass
class BlockQuad:
    """One 2x2 block view of a square matrix.

    In the diagonal layout ``a`` and ``d`` are square; in the
    counter-diagonal layout ``b`` and ``c`` are (the column split mirrors the
    row split).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    layout: str = DIAGONAL

    def __post_init__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        if a.shape[0] != b.shape[0] or c.shape[0] != d.shape[0]:
            raise DimensionMismatch("block row heights disagree")
        if a.shape[1] != c.shape[1] or b.shape[1] != d.shape[1]:
            raise DimensionMismatch("block column widths disagree")
        if self.layout == DIAGONAL:
            if a.shape[0] != a.shape[1] or d.shape[0] != d.shape[1]:
                raise DimensionMismatch("diagonal layout needs square A and D")
        elif self.layout == COUNTERDIAGONAL:
            if b.shape[0] != b.shape[1] or c.shape[0] != c.shape[1]:
                raise DimensionMismatch("counter-diagonal layout needs square B and C")
        else:
            raise DimensionMismatch(f"unknown layout {self.layout!r}")

    @property
    def order(self) -> int:
        return self.a.shape[0] + self.c.shape[0]


def diagonal_quad(m: np.ndarray, split: int) -> BlockQuad:
    """Split rows and columns of ``m`` at ``split`` (A and D square)."""
    if not 1 <= split < m.shape[0] or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"split {split} of {m.shape}")
    return BlockQuad(*_Arrays.split(m, split, split))


def counterdiagonal_quad(m: np.ndarray, split: int) -> BlockQuad:
    """Split rows at ``split`` and columns at order - split (B and C square)."""
    n = m.shape[0]
    if not 1 <= split < n or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"split {split} of {m.shape}")
    return BlockQuad(*_Arrays.split(m, split, n - split), layout=COUNTERDIAGONAL)


def invert_via_a(
    q: BlockQuad,
    invert_sub,
    out: np.ndarray,
    counters: OpCounters | None = None,
) -> None:
    """Invert around pivot A with S_A = D - C A^-1 B: six block products,
    two reductions."""
    _pivot(q, DIAGONAL, _DIAGONAL_PIVOTS[0], invert_sub, out, counters)


def invert_via_d(
    q: BlockQuad,
    invert_sub,
    out: np.ndarray,
    counters: OpCounters | None = None,
) -> None:
    """Invert around pivot D with S_D = A - B D^-1 C."""
    _pivot(q, DIAGONAL, _DIAGONAL_PIVOTS[1], invert_sub, out, counters)


def invert_via_b(
    q: BlockQuad,
    invert_sub,
    out: np.ndarray,
    counters: OpCounters | None = None,
) -> None:
    """Invert around square off-diagonal pivot B with S_B = C - D B^-1 A."""
    _pivot(q, COUNTERDIAGONAL, _COUNTER_PIVOTS[0], invert_sub, out, counters)


def invert_via_c(
    q: BlockQuad,
    invert_sub,
    out: np.ndarray,
    counters: OpCounters | None = None,
) -> None:
    """Invert around square off-diagonal pivot C with S_C = B - A C^-1 D."""
    _pivot(q, COUNTERDIAGONAL, _COUNTER_PIVOTS[1], invert_sub, out, counters)


def invert_via_ad(
    q: BlockQuad,
    invert_sub,
    out: np.ndarray,
    counters: OpCounters | None = None,
) -> None:
    """Invert both diagonal pivots at once.

    The Schur inverses land on the output diagonal (S_D^-1 top left, S_A^-1
    bottom right) and only four products are needed beyond the four
    sub-inversions; complement formation is a fused reduction.  The (A, D)
    and (S_A, S_D) inversion pairs are mutually independent, as are the two
    final products.
    """
    _check_out(q, DIAGONAL, out)
    _Arrays.join(_combined_pivot(_Arrays(counters, invert_sub), q.a, q.b, q.c, q.d,
                                 None, None, None, None, []), out)


def invert_via_bc(
    q: BlockQuad,
    invert_sub,
    out: np.ndarray,
    counters: OpCounters | None = None,
) -> None:
    """Counter-diagonal twin of invert_via_ad: S_B^-1 and S_C^-1 land on the
    output counter-diagonal; four products beyond the four sub-inversions.
    Pivots B then C, complements S_B then S_C."""
    _check_out(q, COUNTERDIAGONAL, out)
    oc, od, oa, ob = _combined_pivot(_Arrays(counters, invert_sub), q.c, q.d, q.a, q.b,
                                     None, None, None, None, [],
                                     labels=("C", "B", "SchurB", "SchurC"), d_first=True)
    _Arrays.join((oa, ob, oc, od), out)


def invert_with_fallback(
    m: np.ndarray,
    split: int,
    out: np.ndarray,
    invert_sub=None,
    counters: OpCounters | None = None,
) -> str:
    """Try each pivot formula in the fixed order A, D, B, C.

    The off-diagonal pivots re-split the columns at order - split so that B
    and C are square.  Returns the name of the formula that succeeded;
    raises AllPivotsSingular when none does.
    """
    n = m.shape[0]
    if m.shape != (n, n) or out.shape != (n, n) or not 1 <= split < n:
        raise DimensionMismatch(f"split {split} of {m.shape} into {out.shape}")
    if invert_sub is None:
        invert_sub = invert_small
    return _pivot_search(_Arrays(counters, invert_sub), m, split, out)[0]


def _pivot(q: BlockQuad, layout: str, pivot, invert_sub, out: np.ndarray, counters) -> None:
    """One single-pivot formula: ``pivot`` is its entry of the retry path's
    pivot tables."""
    _check_out(q, layout, out)
    _, perm, labels = pivot
    _Arrays.join(_via(_Arrays(counters, invert_sub), (q.a, q.b, q.c, q.d), perm, labels), out)


def _check_out(q: BlockQuad, layout: str, out: np.ndarray) -> None:
    """Raise DimensionMismatch unless ``q`` has ``layout`` and ``out`` its
    order."""
    if q.layout != layout:
        raise DimensionMismatch(f"formula needs {layout} layout, quad is {q.layout}")
    n = q.order
    if out.shape != (n, n):
        raise DimensionMismatch(f"out {out.shape} for quad order {n}")
