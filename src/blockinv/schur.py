"""Single-level 2x2-block inversion for each pivot choice.

A square matrix split into blocks

    [[A, B],
     [C, D]]

can be inverted around any invertible pivot block whose Schur complement is
also invertible: pivot A uses S_A = D - C A^-1 B, pivot D uses
S_D = A - B D^-1 C, and when B and C are square (counter-diagonal layout)
the analogous S_B = C - D B^-1 A and S_C = B - A C^-1 D apply.  All four
are one kernel applied to a permutation of (pivot, row neighbour, column
neighbour, opposite block): A -> (A, B, C, D), D -> (D, C, B, A),
B -> (B, A, D, C), C -> (C, D, A, B).  The two combined forms, which share
a second kernel, invert both diagonal (or both counter-diagonal) pivots and
place the Schur inverses directly on the output diagonal, which is what the
recursive and step-scheduled engines build on.

Sub-inversions are delegated to an injected ``invert_sub(block, out)``
callback so the same code serves leaf analytic inversion, recursion, and
oracle-based testing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OpCounters, multiply, schur_accumulate
from .errors import AllPivotsSingular, DimensionMismatch, SingularBlock

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
    return BlockQuad(
        m[:split, :split], m[:split, split:], m[split:, :split], m[split:, split:]
    )


def counterdiagonal_quad(m: np.ndarray, split: int) -> BlockQuad:
    """Split rows at ``split`` and columns at order - split (B and C square)."""
    n = m.shape[0]
    if not 1 <= split < n or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"split {split} of {m.shape}")
    cs = n - split
    return BlockQuad(
        m[:split, :cs], m[:split, cs:], m[split:, :cs], m[split:, cs:],
        layout=COUNTERDIAGONAL,
    )


def _invert_into(invert_sub, block, out, label):
    # Leaf/base inversions are tallied by the callback itself, not here.
    try:
        invert_sub(block, out)
    except SingularBlock as exc:
        raise SingularBlock(label, path=exc.path) from None


def _sub_inverse(invert_sub, block, label):
    out = np.empty_like(block)
    _invert_into(invert_sub, block, out, label)
    return out


def _single_pivot(piv, row, col, opp, o_piv, o_row, o_col, o_opp, piv_label, schur_label,
                  invert_sub, counters):
    """Invert around ``piv``: six block products, two reductions.

    ``row`` and ``col`` are the pivot's neighbours in its block row and block
    column, ``opp`` the block opposite it; ``o_*`` are the output quadrants
    they map to.  With P the pivot, S = O - K P^-1 R is its Schur complement;
    -P^-1 R and K P^-1 are formed first and reused for every remaining term.
    """
    piv_inv = _sub_inverse(invert_sub, piv, piv_label)
    n_pr = np.empty_like(row)
    multiply(piv_inv, row, n_pr, negate=True, counters=counters)  # -P^-1 R
    kp = np.empty_like(col)
    multiply(col, piv_inv, kp, counters=counters)  # K P^-1
    s = opp.copy()
    multiply(col, n_pr, s, accumulate=True, counters=counters)  # S = O - K P^-1 R
    s_inv = _sub_inverse(invert_sub, s, schur_label)
    multiply(n_pr, s_inv, o_col, counters=counters)  # -P^-1 R S^-1
    o_piv[...] = piv_inv
    multiply(o_col, kp, o_piv, accumulate=True, negate=True, counters=counters)
    multiply(s_inv, kp, o_row, negate=True, counters=counters)  # -S^-1 K P^-1
    o_opp[...] = s_inv


def invert_via_a(
    q: BlockQuad,
    invert_sub,
    out: np.ndarray,
    counters: OpCounters | None = None,
) -> None:
    """Invert around pivot A with S_A = D - C A^-1 B: six block products,
    two reductions."""
    oa, ob, oc, od = _out_quads(q, DIAGONAL, out)
    _single_pivot(q.a, q.b, q.c, q.d, oa, ob, oc, od, "A", "SchurA", invert_sub, counters)


def invert_via_d(
    q: BlockQuad,
    invert_sub,
    out: np.ndarray,
    counters: OpCounters | None = None,
) -> None:
    """Invert around pivot D with S_D = A - B D^-1 C."""
    oa, ob, oc, od = _out_quads(q, DIAGONAL, out)
    _single_pivot(q.d, q.c, q.b, q.a, od, oc, ob, oa, "D", "SchurD", invert_sub, counters)


def invert_via_b(
    q: BlockQuad,
    invert_sub,
    out: np.ndarray,
    counters: OpCounters | None = None,
) -> None:
    """Invert around square off-diagonal pivot B with S_B = C - D B^-1 A."""
    oa, ob, oc, od = _out_quads(q, COUNTERDIAGONAL, out)
    _single_pivot(q.b, q.a, q.d, q.c, ob, oa, od, oc, "B", "SchurB", invert_sub, counters)


def invert_via_c(
    q: BlockQuad,
    invert_sub,
    out: np.ndarray,
    counters: OpCounters | None = None,
) -> None:
    """Invert around square off-diagonal pivot C with S_C = B - A C^-1 D."""
    oa, ob, oc, od = _out_quads(q, COUNTERDIAGONAL, out)
    _single_pivot(q.c, q.d, q.a, q.b, oc, od, oa, ob, "C", "SchurC", invert_sub, counters)


def _combined_pivot(first, second, invert_sub, counters):
    """Both pivots of a pair, with inverses already in hand.

    Each side is (pivot, pivot inverse, row neighbour, pivot output, row
    neighbour output, Schur label).  A side's complement
    S = (other pivot) - (other row neighbour) P^-1 R is a fused reduction
    into a copy of the other pivot, whose inverse lands on the other
    pivot's output quadrant; the sides' complements are inverted in
    argument order.  Four products in all.
    """
    p1, i1, r1, op1, or1, label1 = first
    p2, i2, r2, op2, or2, label2 = second
    n1 = np.empty_like(r1)
    multiply(i1, r1, n1, negate=True, counters=counters)  # -P1^-1 R1
    n2 = np.empty_like(r2)
    multiply(i2, r2, n2, negate=True, counters=counters)  # -P2^-1 R2
    s1 = p2.copy()
    schur_accumulate(s1, r2, n1, counters)  # S1 = P2 - R2 P1^-1 R1
    s2 = p1.copy()
    schur_accumulate(s2, r1, n2, counters)  # S2 = P1 - R1 P2^-1 R2
    _invert_into(invert_sub, s1, op2, label1)
    _invert_into(invert_sub, s2, op1, label2)
    multiply(n1, op2, or2, counters=counters)  # -P1^-1 R1 S1^-1
    multiply(n2, op1, or1, counters=counters)  # -P2^-1 R2 S2^-1


def invert_via_ad(
    q: BlockQuad,
    invert_sub,
    out: np.ndarray,
    counters: OpCounters | None = None,
) -> None:
    """Invert both diagonal pivots at once.

    The Schur inverses land directly on the output diagonal (S_D^-1 top
    left, S_A^-1 bottom right) and only four products are needed beyond the
    four sub-inversions; complement formation is a fused reduction.  The
    (A, D) and (S_A, S_D) inversion pairs are mutually independent, as are
    the two final products.
    """
    oa, ob, oc, od = _out_quads(q, DIAGONAL, out)
    a_inv = _sub_inverse(invert_sub, q.a, "A")
    d_inv = _sub_inverse(invert_sub, q.d, "D")
    _combined_pivot((q.d, d_inv, q.c, od, oc, "SchurD"),
                    (q.a, a_inv, q.b, oa, ob, "SchurA"), invert_sub, counters)


def invert_via_bc(
    q: BlockQuad,
    invert_sub,
    out: np.ndarray,
    counters: OpCounters | None = None,
) -> None:
    """Counter-diagonal twin of invert_via_ad: S_B^-1 and S_C^-1 land on the
    output counter-diagonal; four products beyond the four sub-inversions."""
    oa, ob, oc, od = _out_quads(q, COUNTERDIAGONAL, out)
    b_inv = _sub_inverse(invert_sub, q.b, "B")
    c_inv = _sub_inverse(invert_sub, q.c, "C")
    _combined_pivot((q.b, b_inv, q.a, ob, oa, "SchurB"),
                    (q.c, c_inv, q.d, oc, od, "SchurC"), invert_sub, counters)


# Formulas grouped by the quad layout they need, so each quad is built once.
_FALLBACK_ORDER = (
    (diagonal_quad, (("via_a", invert_via_a), ("via_d", invert_via_d))),
    (counterdiagonal_quad, (("via_b", invert_via_b), ("via_c", invert_via_c))),
)


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
    if invert_sub is None:
        from .core import invert_small

        invert_sub = invert_small
    failures = []
    for make_quad, formulas in _FALLBACK_ORDER:
        q = make_quad(m, split)
        for name, formula in formulas:
            try:
                formula(q, invert_sub, out, counters=counters)
                return name
            except SingularBlock as exc:
                failures.append(f"{name}: {exc}")
    raise AllPivotsSingular("; ".join(failures))


def _out_quads(q: BlockQuad, layout: str, out: np.ndarray):
    """Check the layout and ``out``; return the quadrants of ``out`` that
    A, B, C, D map to.  The inverse's row split is the quad's column split
    and vice versa, so block (i, j) maps to block (j, i)."""
    if q.layout != layout:
        raise DimensionMismatch(f"formula needs {layout} layout, quad is {q.layout}")
    n = q.order
    if out.shape != (n, n):
        raise DimensionMismatch(f"out {out.shape} for quad order {n}")
    r, c = q.a.shape
    return out[:c, :r], out[c:, :r], out[:c, r:], out[c:, r:]
