import numpy as np
import pytest

from blockinv.core import gauss_jordan_oracle, residual_norm
from blockinv.errors import DimensionMismatch, FormatError, ScratchTooSmall, SingularBlock
from blockinv.recursive import (
    invertor_by_a,
    invertor_by_ad,
    invertor_inplace_by_a,
    invertor_with_fallback,
)

from conftest import well_conditioned


def schur_scratch_series(k):
    # 2^(k+1) (2^(k-1) - 1): total Schur workspace for an order-2^k input
    return 2 ** (k + 1) * (2 ** (k - 1) - 1)


class TestInvertorByA:
    def test_order_1(self):
        inv, c = invertor_by_a(np.array([[5.0]]))
        assert inv[0, 0] == 0.2
        assert c.inversions == 1 and c.multiplies == 0

    def test_identity_8_exact(self):
        inv, _ = invertor_by_a(np.eye(8))
        assert np.array_equal(inv, np.eye(8))
        assert residual_norm(np.eye(8), inv) == 0.0

    def test_random_64_residual_and_counter_audit(self):
        m = well_conditioned(64, 30)
        inv, c = invertor_by_a(m)
        assert residual_norm(m, inv) <= 1e-9
        assert c.multiplies == 6 * c.nodes
        assert c.reductions == 2 * c.nodes

    @pytest.mark.parametrize("k", range(1, 7))
    def test_multiplication_law_powers_of_two(self, k):
        order = 2**k
        m = well_conditioned(order, 100 + k)
        inv, c = invertor_by_a(m)
        # full binary recursion tree over 2x2 leaves
        assert c.nodes == 2 ** (k - 1) - 1
        assert c.multiplies == 6 * c.nodes
        assert c.reductions == 2 * c.nodes
        assert c.inversions == 2 ** (k - 1)
        assert residual_norm(m, inv) <= 1e-9 * order

    def test_input_untouched(self):
        m = well_conditioned(9, 31)
        copy = m.copy()
        invertor_by_a(m)
        assert np.array_equal(m, copy)

    def test_singular_path_reported(self):
        m = well_conditioned(4, 32)
        m[:2, :2] = 1.0  # leading 2x2 block singular -> fails inverting A
        with pytest.raises(SingularBlock) as info:
            invertor_by_a(m)
        assert info.value.path == ["A"]
        assert info.value.block == "A"


class TestInvertorInplace:
    def test_identity_6(self):
        m = np.eye(6)
        c = invertor_inplace_by_a(m)
        assert np.array_equal(m, np.eye(6))
        assert c.peak_scratch <= 6

    def test_matches_by_a(self):
        m = well_conditioned(5, 33)
        expect, _ = invertor_by_a(m)
        got = m.copy()
        invertor_inplace_by_a(got)
        assert np.max(np.abs(got - expect)) <= 1e-10

    def test_random_256(self):
        m = well_conditioned(256, 34)
        work = m.copy()
        c = invertor_inplace_by_a(work)
        assert residual_norm(m, work) <= 1e-8
        assert c.peak_scratch <= 256

    @pytest.mark.parametrize("k", range(1, 7))
    def test_multiplication_law(self, k):
        order = 2**k
        work = well_conditioned(order, 200 + k)
        c = invertor_inplace_by_a(work)
        assert c.nodes == 2 ** (k - 1) - 1
        assert c.multiplies == 6 * c.nodes
        assert c.reductions == 2 * c.nodes

    def test_caller_scratch_and_too_small(self):
        m = well_conditioned(7, 35)
        buf = np.empty(7)
        invertor_inplace_by_a(m.copy(), buf)
        with pytest.raises(ScratchTooSmall):
            invertor_inplace_by_a(m.copy(), np.empty(3))


class TestInvertorByAD:
    def test_identity_4(self):
        inv, _ = invertor_by_ad(np.eye(4))
        assert np.array_equal(inv, np.eye(4))

    def test_random_8_vs_by_a_and_oracle(self):
        m = well_conditioned(8, 36)
        inv_ad, c = invertor_by_ad(m)
        inv_a, _ = invertor_by_a(m)
        assert np.max(np.abs(inv_ad - inv_a)) <= 1e-9
        assert np.max(np.abs(inv_ad - gauss_jordan_oracle(m))) <= 1e-9
        assert c.multiplies == 4 * c.nodes

    @pytest.mark.parametrize("k", range(2, 7))
    def test_schur_scratch_series(self, k):
        order = 2**k
        _, c = invertor_by_ad(well_conditioned(order, 300 + k))
        assert c.schur_scratch == schur_scratch_series(k)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_multiplication_law(self, k):
        order = 2**k
        _, c = invertor_by_ad(well_conditioned(order, 400 + k))
        assert c.multiplies == 4 * c.nodes
        assert c.reductions == 2 * c.nodes

    def test_singular_schur_path(self):
        m = np.eye(4)
        m[2:, 2:] = 0.0  # D singular at the top split
        with pytest.raises(SingularBlock) as info:
            invertor_by_ad(m)
        assert info.value.path[:1] == ["D"] or info.value.block == "D"


class TestPairwiseAgreement:
    def test_200_random_orders_2_to_128(self):
        g = np.random.default_rng(77)
        orders = [int(v) for v in g.integers(2, 129, size=200)]
        for i, order in enumerate(orders):
            m = well_conditioned(order, 5000 + i)
            inv_a, _ = invertor_by_a(m)
            inv_ip = m.copy()
            invertor_inplace_by_a(inv_ip)
            inv_ad, _ = invertor_by_ad(m)
            tol = 1e-9 * order
            assert np.max(np.abs(inv_a - inv_ip)) <= tol
            assert np.max(np.abs(inv_a - inv_ad)) <= tol
            assert np.max(np.abs(inv_ip - inv_ad)) <= tol


class TestFallbackInvertor:
    def test_reversal_permutation(self):
        p = np.eye(8)[::-1].copy()
        inv, _ = invertor_with_fallback(p)
        assert residual_norm(p, inv) <= 1e-12

    def test_matches_oracle(self):
        m = well_conditioned(13, 38)
        inv, _ = invertor_with_fallback(m)
        assert np.max(np.abs(inv - gauss_jordan_oracle(m))) <= 1e-9


ALL_INVERTORS = [invertor_by_a, invertor_inplace_by_a, invertor_by_ad, invertor_with_fallback]


@pytest.mark.parametrize("invertor", ALL_INVERTORS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected(invertor, bad):
    m = well_conditioned(12, 39)
    m[5, 7] = bad
    with pytest.raises(FormatError):
        invertor(m)


@pytest.mark.parametrize("data", [
    np.array([[2, 1], [1, 3]], dtype=np.int64),
    np.array([[2, 1], [1, 3]], dtype=np.float32),
    [[2.0, 1.0], [1.0, 3.0]],
], ids=["int64", "float32", "list"])
def test_inplace_rejects_what_it_cannot_overwrite(data):
    # a converted copy would be inverted and the caller's matrix left as is
    before = np.array(data).copy()
    with pytest.raises(FormatError):
        invertor_inplace_by_a(data)
    assert np.array_equal(np.array(data), before)


@pytest.mark.parametrize("invertor", ALL_INVERTORS)
@pytest.mark.parametrize("data", [
    np.eye(3) + 1j * np.eye(3),
    [["a", "b"], ["c", "d"]],
    [[1.0, 2.0], [3.0]],
], ids=["complex", "strings", "ragged"])
def test_non_numeric_input_rejected(invertor, data):
    with pytest.raises(FormatError):
        invertor(data)


@pytest.mark.parametrize("invertor", ALL_INVERTORS)
def test_order_zero_rejected(invertor):
    with pytest.raises(DimensionMismatch):
        invertor(np.zeros((0, 0)))
