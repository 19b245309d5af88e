import numpy as np
import pytest

from blockinv.core import OpCounters, gauss_jordan_oracle, invert_small, residual_norm
from blockinv.errors import AllPivotsSingular, DimensionMismatch, SingularBlock
from blockinv.schur import (
    BlockQuad,
    counterdiagonal_quad,
    diagonal_quad,
    invert_via_a,
    invert_via_ad,
    invert_via_b,
    invert_via_bc,
    invert_via_c,
    invert_via_d,
    invert_with_fallback,
)

from conftest import well_conditioned

PERM2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def oracle_sub(block, out):
    out[...] = gauss_jordan_oracle(block)


class TestViaA:
    def test_block_diagonal_reduces(self):
        m = np.zeros((5, 5))
        m[:2, :2] = well_conditioned(2, 1)
        m[2:, 2:] = well_conditioned(3, 2)
        out = np.empty((5, 5))
        invert_via_a(diagonal_quad(m, 2), invert_small, out)
        assert np.max(np.abs(out - gauss_jordan_oracle(m))) <= 1e-12
        assert np.all(out[:2, 2:] == 0.0) and np.all(out[2:, :2] == 0.0)

    def test_identity_5_split_2_3(self):
        out = np.empty((5, 5))
        invert_via_a(diagonal_quad(np.eye(5), 2), invert_small, out)
        assert np.array_equal(out, np.eye(5))

    def test_random_vs_oracle(self):
        m = well_conditioned(5, 3)
        out = np.empty((5, 5))
        invert_via_a(diagonal_quad(m, 2), invert_small, out)
        assert np.max(np.abs(out - gauss_jordan_oracle(m))) <= 1e-10

    def test_exactly_six_multiplies_two_reductions(self):
        c = OpCounters()
        out = np.empty((5, 5))
        invert_via_a(diagonal_quad(well_conditioned(5, 4), 2), invert_small, out, c)
        assert c.multiplies == 6
        assert c.reductions == 2

    def test_singular_pivot_a(self):
        with pytest.raises(SingularBlock):
            invert_via_a(diagonal_quad(PERM2, 1), invert_small, np.empty((2, 2)))


class TestViaD:
    def test_block_diagonal(self):
        m = np.zeros((4, 4))
        m[:2, :2] = well_conditioned(2, 5)
        m[2:, 2:] = well_conditioned(2, 6)
        out = np.empty((4, 4))
        invert_via_d(diagonal_quad(m, 2), invert_small, out)
        assert residual_norm(m, out) <= 1e-12

    def test_agrees_with_via_a_on_100_samples(self):
        for seed in range(100):
            m = well_conditioned(5, 800 + seed)
            q = diagonal_quad(m, 2)
            out_a = np.empty((5, 5))
            out_d = np.empty((5, 5))
            invert_via_a(q, invert_small, out_a)
            invert_via_d(q, invert_small, out_d)
            assert np.max(np.abs(out_a - out_d)) <= 1e-9

    def test_permutation_fails_via_both_diagonal_pivots(self):
        q = diagonal_quad(PERM2, 1)
        with pytest.raises(SingularBlock):
            invert_via_a(q, invert_small, np.empty((2, 2)))
        with pytest.raises(SingularBlock):
            invert_via_d(q, invert_small, np.empty((2, 2)))

    def test_six_multiplies(self):
        c = OpCounters()
        out = np.empty((6, 6))
        invert_via_d(diagonal_quad(well_conditioned(6, 7), 3), invert_small, out, c)
        assert (c.multiplies, c.reductions) == (6, 2)


class TestViaBC:
    def test_counter_identity_via_b(self):
        out = np.empty((2, 2))
        invert_via_b(counterdiagonal_quad(PERM2, 1), invert_small, out)
        assert np.array_equal(out, PERM2)

    def test_counter_identity_via_c(self):
        out = np.empty((2, 2))
        invert_via_c(counterdiagonal_quad(PERM2, 1), invert_small, out)
        assert np.array_equal(out, PERM2)

    def test_anti_block_diagonal(self):
        # A = 0 and D = 0: the Schur complements collapse to C and B
        m = np.zeros((4, 4))
        m[:2, 2:] = well_conditioned(2, 8)
        m[2:, :2] = well_conditioned(2, 9)
        for formula in (invert_via_b, invert_via_c, invert_via_bc):
            out = np.empty((4, 4))
            formula(counterdiagonal_quad(m, 2), invert_small, out)
            assert residual_norm(m, out) <= 1e-12

    def test_random_square_offdiagonals_vs_oracle(self):
        m = well_conditioned(6, 10)
        for formula in (invert_via_b, invert_via_c):
            out = np.empty((6, 6))
            formula(counterdiagonal_quad(m, 3), invert_small, out)
            assert np.max(np.abs(out - gauss_jordan_oracle(m))) <= 1e-10

    def test_odd_split_counter_layout(self):
        # rows split 2 + 3, columns split 3 + 2: B is 2x2, C is 3x3
        m = well_conditioned(5, 11)
        q = counterdiagonal_quad(m, 2)
        assert q.b.shape == (2, 2) and q.c.shape == (3, 3)
        out = np.empty((5, 5))
        invert_via_b(q, invert_small, out)
        assert residual_norm(m, out) <= 1e-9

    def test_via_bc_counts_four_multiplies(self):
        c = OpCounters()
        out = np.empty((6, 6))
        invert_via_bc(counterdiagonal_quad(well_conditioned(6, 12), 3),
                      invert_small, out, counters=c)
        assert (c.multiplies, c.reductions) == (4, 2)


class TestViaAD:
    def test_identity(self):
        out = np.empty((4, 4))
        invert_via_ad(diagonal_quad(np.eye(4), 2), invert_small, out)
        assert np.array_equal(out, np.eye(4))

    def test_block_diagonal_offdiagonals_exact_zero(self):
        m = np.zeros((4, 4))
        m[:2, :2] = well_conditioned(2, 13)
        m[2:, 2:] = well_conditioned(2, 14)
        out = np.empty((4, 4))
        invert_via_ad(diagonal_quad(m, 2), invert_small, out)
        assert np.all(out[:2, 2:] == 0.0) and np.all(out[2:, :2] == 0.0)
        assert residual_norm(m, out) <= 1e-12

    def test_agrees_with_via_a_and_oracle(self):
        m = well_conditioned(4, 15)
        q = diagonal_quad(m, 2)
        out_ad = np.empty((4, 4))
        out_a = np.empty((4, 4))
        invert_via_ad(q, invert_small, out_ad)
        invert_via_a(q, invert_small, out_a)
        assert np.max(np.abs(out_ad - out_a)) <= 1e-9
        assert np.max(np.abs(out_ad - gauss_jordan_oracle(m))) <= 1e-9

    def test_exactly_four_multiplies(self):
        c = OpCounters()
        out = np.empty((5, 5))
        invert_via_ad(diagonal_quad(well_conditioned(5, 16), 2), invert_small, out,
                      counters=c)
        assert (c.multiplies, c.reductions) == (4, 2)

    def test_diagonal_blocks_bitwise_equal_direct_schur_inverses(self):
        m = well_conditioned(6, 17)
        q = diagonal_quad(m, 3)
        out = np.empty((6, 6))
        invert_via_ad(q, invert_small, out)
        # recompute the Schur complements independently and invert directly
        a_inv = gauss_jordan_oracle(q.a)
        d_inv = gauss_jordan_oracle(q.d)
        s_a = q.d - q.c @ a_inv @ q.b
        s_d = q.a - q.b @ d_inv @ q.c
        top = np.empty((3, 3))
        bot = np.empty((3, 3))
        # same leaf inverter, applied to the same complements the formula built
        from blockinv.core import multiply, schur_accumulate
        a_inv2 = np.empty((3, 3))
        invert_small(q.a, a_inv2)
        d_inv2 = np.empty((3, 3))
        invert_small(q.d, d_inv2)
        n_ab = np.empty((3, 3))
        multiply(a_inv2, q.b, n_ab, negate=True)
        n_dc = np.empty((3, 3))
        multiply(d_inv2, q.c, n_dc, negate=True)
        s_a2 = q.d.copy()
        schur_accumulate(s_a2, q.c, n_ab)
        s_d2 = q.a.copy()
        schur_accumulate(s_d2, q.b, n_dc)
        invert_small(s_d2, top)
        invert_small(s_a2, bot)
        assert out[:3, :3].tobytes() == top.tobytes()
        assert out[3:, 3:].tobytes() == bot.tobytes()
        # and the independent oracle route agrees to tolerance
        assert np.max(np.abs(s_a - s_a2)) <= 1e-12
        assert np.max(np.abs(s_d - s_d2)) <= 1e-12


class TestFallback:
    def test_generic_random_uses_a(self):
        m = well_conditioned(5, 19)
        out = np.empty((5, 5))
        assert invert_with_fallback(m, 2, out) == "via_a"
        assert residual_norm(m, out) <= 1e-10

    def test_permutation_uses_b(self):
        out = np.empty((2, 2))
        assert invert_with_fallback(PERM2, 1, out) == "via_b"
        assert np.array_equal(out, PERM2)

    def test_singular_a_invertible_d_uses_d(self):
        m = well_conditioned(4, 20)
        m[0, 0] = 0.0  # 1 + 3 split makes A the zero scalar
        out = np.empty((4, 4))
        assert invert_with_fallback(m, 1, out) == "via_d"
        assert np.max(np.abs(out - gauss_jordan_oracle(m))) <= 1e-10

    def test_all_pivots_singular(self):
        with pytest.raises(AllPivotsSingular):
            invert_with_fallback(np.zeros((4, 4)), 2, np.empty((4, 4)))

    def test_oracle_injection(self):
        m = well_conditioned(6, 21)
        out = np.empty((6, 6))
        assert invert_with_fallback(m, 3, out, invert_sub=oracle_sub) == "via_a"
        assert residual_norm(m, out) <= 1e-12


class TestCrossFormulaAgreement:
    def test_all_formulas_agree_100_trials(self):
        # even split: every pivot choice applies
        scratch_tol = 1e-9 * 6
        for seed in range(100):
            m = well_conditioned(6, 3000 + seed)
            outs = []
            for formula, mk in [
                (invert_via_a, diagonal_quad),
                (invert_via_d, diagonal_quad),
                (invert_via_b, counterdiagonal_quad),
                (invert_via_c, counterdiagonal_quad),
            ]:
                out = np.empty((6, 6))
                formula(mk(m, 3), invert_small, out)
                outs.append(out)
            for extra, mk in [(invert_via_ad, diagonal_quad),
                              (invert_via_bc, counterdiagonal_quad)]:
                out = np.empty((6, 6))
                extra(mk(m, 3), invert_small, out)
                outs.append(out)
            for i in range(len(outs)):
                for j in range(i + 1, len(outs)):
                    assert np.max(np.abs(outs[i] - outs[j])) <= scratch_tol


class TestBlockQuadValidation:
    def test_layout_shape_rules(self):
        m = np.zeros((5, 5))
        with pytest.raises(DimensionMismatch):
            BlockQuad(m[:2, :3], m[:2, 3:], m[2:, :3], m[2:, 3:])  # A not square
        q = BlockQuad(m[:2, :3], m[:2, 3:], m[2:, :3], m[2:, 3:],
                      layout="counterdiagonal-square")
        assert q.order == 5
        with pytest.raises(DimensionMismatch):
            BlockQuad(m[:2, :2], m[:2, 2:], m[2:, :2], m[2:, 2:],
                      layout="counterdiagonal-square")  # B not square

    def test_unknown_layout(self):
        m = np.zeros((4, 4))
        with pytest.raises(DimensionMismatch):
            BlockQuad(m[:2, :2], m[:2, 2:], m[2:, :2], m[2:, 2:], layout="bogus")

    def test_out_shape_checked(self):
        m = well_conditioned(4, 22)
        with pytest.raises(DimensionMismatch):
            invert_via_a(diagonal_quad(m, 2), invert_small, np.empty((3, 3)))



FORMULAS = [
    (invert_via_a, diagonal_quad, 2),
    (invert_via_d, diagonal_quad, 2),
    (invert_via_b, counterdiagonal_quad, 2),
    (invert_via_c, counterdiagonal_quad, 2),
    (invert_via_ad, diagonal_quad, 4),
    (invert_via_bc, counterdiagonal_quad, 4),
]

REVERSAL = np.eye(4)[::-1].copy()  # A and D zero
TWINS = np.block([[np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)]])  # every complement zero
D_ZERO = np.diag([1.0, 1.0, 0.0, 0.0])
C_ZERO = np.block([[np.zeros((2, 2)), np.eye(2)], [np.zeros((2, 2)), np.eye(2)]])

# (formula, quad maker, order-4 input, label raised at split 2)
SINGULAR_CASES = [
    (invert_via_a, diagonal_quad, REVERSAL, "A"),
    (invert_via_a, diagonal_quad, TWINS, "SchurA"),
    (invert_via_d, diagonal_quad, REVERSAL, "D"),
    (invert_via_d, diagonal_quad, TWINS, "SchurD"),
    (invert_via_b, counterdiagonal_quad, np.eye(4), "B"),
    (invert_via_b, counterdiagonal_quad, TWINS, "SchurB"),
    (invert_via_c, counterdiagonal_quad, np.eye(4), "C"),
    (invert_via_c, counterdiagonal_quad, TWINS, "SchurC"),
    (invert_via_ad, diagonal_quad, REVERSAL, "A"),
    (invert_via_ad, diagonal_quad, D_ZERO, "D"),
    (invert_via_ad, diagonal_quad, TWINS, "SchurD"),
    (invert_via_bc, counterdiagonal_quad, np.eye(4), "B"),
    (invert_via_bc, counterdiagonal_quad, C_ZERO, "C"),
    (invert_via_bc, counterdiagonal_quad, TWINS, "SchurB"),
]


class TestOutUntouchedOnFailure:
    """The fallback tries every formula on the same ``out``, so a formula
    that raises SingularBlock must not have written any of it."""

    @staticmethod
    def _raise_on(formula, q, invert_sub):
        out = np.full((q.order, q.order), -7.25)
        before = out.tobytes()
        with pytest.raises(SingularBlock) as info:
            formula(q, invert_sub, out)
        assert out.tobytes() == before
        return info.value.block

    @pytest.mark.parametrize("formula, make_quad, m, label", SINGULAR_CASES,
                             ids=[f"{c[0].__name__}-{c[3]}" for c in SINGULAR_CASES])
    def test_singular_pivot_or_complement(self, formula, make_quad, m, label):
        assert self._raise_on(formula, make_quad(m, 2), invert_small) == label

    @pytest.mark.parametrize("formula, make_quad, inversions", FORMULAS,
                             ids=[f[0].__name__ for f in FORMULAS])
    def test_each_sub_inversion_failing(self, formula, make_quad, inversions):
        # the k-th sub-inversion raises: every point a formula can fail at,
        # the last Schur inverse of the combined pivots included
        q = make_quad(well_conditioned(7, 23), 3)
        for k in range(inversions):
            calls = []

            def failing_sub(block, out):
                calls.append(None)
                if len(calls) == k + 1:
                    raise SingularBlock("A", path=[])
                invert_small(block, out)

            self._raise_on(formula, q, failing_sub)
            assert len(calls) == k + 1
