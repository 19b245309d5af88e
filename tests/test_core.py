import os
import subprocess
import sys

import numpy as np
import pytest

import blockinv
from blockinv import core
from blockinv.core import (
    gauss_jordan_oracle,
    invert_small,
    load_binary,
    load_matrix,
    load_text,
    multiply,
    multiply_inplace_left,
    multiply_inplace_right,
    residual_norm,
    save_binary,
    save_text,
    schur_accumulate,
    OpCounters,
)
from blockinv.errors import (
    AliasedOperands,
    DimensionMismatch,
    FormatError,
    ScratchTooSmall,
    SingularBlock,
    SingularMatrix,
)

from conftest import well_conditioned


def naive_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            s = 0.0
            for k in range(a.shape[1]):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


class TestMultiply:
    def test_identity_left(self, rng):
        b = rng.uniform(-1, 1, (3, 2))
        out = np.empty((3, 2))
        multiply(np.eye(3), b, out)
        assert np.array_equal(out, b)

    def test_identity_negate(self, rng):
        b = rng.uniform(-1, 1, (3, 2))
        out = np.empty((3, 2))
        multiply(np.eye(3), b, out, negate=True)
        assert np.array_equal(out, -b)

    def test_against_naive_triple_loop(self, rng):
        a = rng.uniform(-1, 1, (5, 4))
        b = rng.uniform(-1, 1, (4, 6))
        out = np.empty((5, 6))
        multiply(a, b, out)
        assert np.max(np.abs(out - naive_matmul(a, b))) <= 1e-14

    def test_negate_is_bitwise_negation(self, rng):
        # -1 folds into the left factor, which negates the result exactly
        for shape in [(2, 2, 2), (5, 7, 3), (16, 16, 16), (1, 9, 1)]:
            m, k, n = shape
            a = rng.uniform(-1, 1, (m, k))
            b = rng.uniform(-1, 1, (k, n))
            pos = np.empty((m, n))
            neg = np.empty((m, n))
            multiply(a, b, pos)
            multiply(a, b, neg, negate=True)
            assert neg.tobytes() == (-pos).tobytes()

    def test_accumulate(self, rng):
        a = rng.uniform(-1, 1, (3, 3))
        b = rng.uniform(-1, 1, (3, 3))
        base = rng.uniform(-1, 1, (3, 3))
        out = base.copy()
        multiply(a, b, out, accumulate=True)
        plain = np.empty((3, 3))
        multiply(a, b, plain)
        assert np.max(np.abs(out - (base + plain))) <= 1e-14

    def test_small_and_vector_paths_agree_bitwise(self, rng):
        # a scalar loop adding a[i, k] * b[k, j] for ascending k applies the
        # same IEEE-754 operations as the vectorized kernel, element by element
        for shape in [(2, 2, 2), (5, 5, 5), (8, 8, 8), (3, 1, 7), (9, 4, 12)]:
            m, k, n = shape
            a = rng.uniform(-1, 1, (m, k))
            b = rng.uniform(-1, 1, (k, n))
            base = rng.uniform(-1, 1, (m, n))
            for negate in (False, True):
                out = base.copy()
                core._mm_acc(a, b, out, negate)
                ref = base.tolist()
                for i in range(m):
                    for j in range(n):
                        for kk in range(k):
                            aik = -a[i, kk] if negate else a[i, kk]
                            ref[i][j] = ref[i][j] + float(aik) * float(b[kk, j])
                assert out.tobytes() == np.array(ref).tobytes()

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            multiply(np.ones((2, 3)), np.ones((2, 3)), np.empty((2, 3)))
        with pytest.raises(DimensionMismatch):
            multiply(np.ones((2, 3)), np.ones((3, 2)), np.empty((3, 3)))

    def test_counters(self, rng):
        c = OpCounters()
        a = rng.uniform(-1, 1, (2, 2))
        out = np.empty((2, 2))
        multiply(a, a, out, counters=c)
        multiply(a, a, out, accumulate=True, counters=c)
        assert c.multiplies == 2 and c.reductions == 1
        schur_accumulate(out, a, a, c)
        assert c.multiplies == 2 and c.reductions == 2


class TestInplaceMultiply:
    def test_identity_left(self, rng):
        t = rng.uniform(-1, 1, (4, 3))
        t2 = t.copy()
        multiply_inplace_left(np.eye(4), t2, np.empty(4))
        assert np.array_equal(t2, t)

    def test_scaling(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        multiply_inplace_left(2.0 * np.eye(2), t, np.empty(2))
        assert np.array_equal(t, [[2.0, 4.0], [6.0, 8.0]])

    def test_left_bitwise_equals_out_of_place(self, rng):
        for shape in [(4, 3), (7, 7), (2, 9)]:
            a_inv = rng.uniform(-1, 1, (shape[0], shape[0]))
            t = rng.uniform(-1, 1, shape)
            expect = np.empty(shape)
            multiply(a_inv, t, expect)
            got = t.copy()
            multiply_inplace_left(a_inv, got, np.empty(shape[0]))
            assert got.tobytes() == expect.tobytes()
            gotn = t.copy()
            expectn = np.empty(shape)
            multiply(a_inv, t, expectn, negate=True)
            multiply_inplace_left(a_inv, gotn, np.empty(shape[0]), negate=True)
            assert gotn.tobytes() == expectn.tobytes()

    def test_right_bitwise_equals_out_of_place(self, rng):
        for shape in [(3, 4), (7, 7), (9, 2)]:
            a_inv = rng.uniform(-1, 1, (shape[1], shape[1]))
            t = rng.uniform(-1, 1, shape)
            expect = np.empty(shape)
            multiply(t, a_inv, expect)
            got = t.copy()
            multiply_inplace_right(got, a_inv, np.empty(shape[1]))
            assert got.tobytes() == expect.tobytes()

    def test_scratch_too_small(self, rng):
        t = rng.uniform(-1, 1, (4, 3))
        with pytest.raises(ScratchTooSmall):
            multiply_inplace_left(np.eye(4), t, np.empty(3))
        with pytest.raises(ScratchTooSmall):
            multiply_inplace_right(t, np.eye(3), np.empty(2))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            multiply_inplace_left(np.eye(3), np.ones((4, 2)), np.empty(8))


# The destination is the left factor: the product must refuse before it
# zeroes (and so destroys) its own input.
_ALIAS = """
import numpy as np
from blockinv.core import multiply
from blockinv.errors import AliasedOperands

a = np.array([[1.0, 2.0], [3.0, 4.0]])
try:
    multiply(a, np.eye(2), a)
except AliasedOperands:
    print("raised", a.tolist())
"""


class TestAliasChecks:
    def test_multiply(self, rng):
        x = rng.uniform(-1, 1, (4, 4))
        with pytest.raises(AliasedOperands):
            multiply(x, np.eye(4), x)
        with pytest.raises(AliasedOperands):
            multiply(np.eye(3), x[:3, :2], x[1:, 1:3])  # out overlaps b
        with pytest.raises(AliasedOperands):
            multiply(x, np.eye(4), x.T, accumulate=True)

    def test_schur_accumulate(self, rng):
        x = rng.uniform(-1, 1, (4, 4))
        with pytest.raises(AliasedOperands):
            schur_accumulate(x[:2, :2], x[:2, 1:3], np.eye(2))  # dest overlaps x
        with pytest.raises(AliasedOperands):
            schur_accumulate(x[2:, 2:], np.eye(2), x[2:, 2:])  # dest is y

    def test_multiply_inplace_left(self, rng):
        x = rng.uniform(-1, 1, (4, 4))
        with pytest.raises(AliasedOperands):
            multiply_inplace_left(x[:2, :2], x[:2, 2:], x[0, 2:])  # scratch in target
        with pytest.raises(AliasedOperands):
            multiply_inplace_left(x[:2, :2], x[:2, 2:], x[1, :2])  # scratch in a_inv
        with pytest.raises(AliasedOperands):
            multiply_inplace_left(x[:2, :2], x[:2, 1:], np.empty(2))  # target over a_inv

    def test_multiply_inplace_right(self, rng):
        x = rng.uniform(-1, 1, (4, 4))
        with pytest.raises(AliasedOperands):
            multiply_inplace_right(x[2:, :2], x[:2, :2], x[2:, 0])  # scratch in target
        with pytest.raises(AliasedOperands):
            multiply_inplace_right(x[2:, :2], x[:2, :2], x[0, :2])  # scratch in a_inv
        with pytest.raises(AliasedOperands):
            multiply_inplace_right(x[1:3, :2], x[:2, :2], np.empty(2))  # target over a_inv

    def test_check_survives_optimized_mode(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(blockinv.__file__)))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _ALIAS],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert proc.stdout == "raised [[1.0, 2.0], [3.0, 4.0]]\n", proc.stderr


class TestInvertSmall:
    def test_identity_2x2(self):
        out = np.empty((2, 2))
        invert_small(np.eye(2), out)
        assert np.array_equal(out, np.eye(2))

    def test_diagonal_reciprocals(self):
        out = np.empty((2, 2))
        invert_small(np.array([[2.0, 0.0], [0.0, 4.0]]), out)
        assert np.array_equal(out, [[0.5, 0.0], [0.0, 0.25]])

    def test_3x3_matches_oracle(self):
        m = well_conditioned(3, 99)
        out = np.empty((3, 3))
        invert_small(m, out)
        assert np.max(np.abs(out - gauss_jordan_oracle(m))) <= 1e-12

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_orders_2_to_4_match_oracle_1000_samples(self, order):
        worst = 0.0
        for seed in range(1000):
            m = well_conditioned(order, 7000 + seed)
            out = np.empty((order, order))
            invert_small(m, out)
            worst = max(worst, float(np.max(np.abs(out - gauss_jordan_oracle(m)))))
        assert worst <= 1e-12

    def test_order_1(self):
        out = np.empty((1, 1))
        invert_small(np.array([[5.0]]), out)
        assert out[0, 0] == 0.2
        with pytest.raises(SingularBlock):
            invert_small(np.zeros((1, 1)), out)

    def test_order_4_leading_block_singular_falls_back(self):
        # leading 2x2 block singular, trailing pivot fine
        m = np.array(
            [
                [1.0, 1.0, 2.0, 0.5],
                [1.0, 1.0, 0.25, 3.0],
                [2.0, 0.5, 9.0, 0.1],
                [0.5, 2.0, 0.2, 8.0],
            ]
        )
        assert abs(np.linalg.det(m[:2, :2])) < 1e-15
        out = np.empty((4, 4))
        invert_small(m, out)
        assert residual_norm(m, out) <= 1e-10

    def test_singular_raises(self):
        out = np.empty((2, 2))
        with pytest.raises(SingularBlock):
            invert_small(np.ones((2, 2)), out)

    def test_bad_order(self):
        with pytest.raises(DimensionMismatch):
            invert_small(np.eye(5), np.empty((5, 5)))


class TestOracle:
    @pytest.mark.parametrize("order", [1, 3, 17])
    def test_identity(self, order):
        assert np.array_equal(gauss_jordan_oracle(np.eye(order)), np.eye(order))

    def test_permutation_involution(self):
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(gauss_jordan_oracle(p), p)

    def test_residual_on_generated_64(self):
        m = well_conditioned(64, 5)
        inv = gauss_jordan_oracle(m)
        assert residual_norm(m, inv) <= 1e-9

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            gauss_jordan_oracle(np.ones((3, 3)))

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            gauss_jordan_oracle(np.ones((2, 3)))


class TestResidualNorm:
    def test_identity(self):
        assert residual_norm(np.eye(4), np.eye(4)) == 0.0

    def test_scaled(self):
        assert residual_norm(2 * np.eye(2), 0.5 * np.eye(2)) == 0.0

    def test_oracle_residual_100(self):
        m = well_conditioned(100, 11)
        assert residual_norm(m, gauss_jordan_oracle(m)) <= 1e-8

    def test_mismatch(self):
        with pytest.raises(DimensionMismatch):
            residual_norm(np.eye(2), np.eye(3))


class TestMatrixIO:
    def test_text_roundtrip(self, tmp_path, rng):
        m = rng.uniform(-1, 1, (3, 5))
        path = tmp_path / "m.txt"
        save_text(m, path)
        assert np.array_equal(load_text(path), m)

    def test_binary_roundtrip_bitwise(self, tmp_path, rng):
        m = rng.uniform(-1, 1, (4, 4))
        path = tmp_path / "m.blk"
        save_binary(m, path)
        assert load_binary(path).tobytes() == m.tobytes()

    def test_sniffing(self, tmp_path, rng):
        m = rng.uniform(-1, 1, (2, 2))
        save_binary(m, tmp_path / "b")
        save_text(m, tmp_path / "t")
        assert np.array_equal(load_matrix(tmp_path / "b"), m)
        assert np.array_equal(load_matrix(tmp_path / "t"), m)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad").write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(FormatError):
            load_binary(tmp_path / "bad")

    def test_header_mismatch(self, tmp_path):
        (tmp_path / "bad.txt").write_text("2 2\n1 2 3\n4 5 6\n")
        with pytest.raises(FormatError):
            load_text(tmp_path / "bad.txt")

    def test_nan_rejected(self, tmp_path):
        (tmp_path / "nan.txt").write_text("1 2\nnan 1\n")
        with pytest.raises(FormatError):
            load_text(tmp_path / "nan.txt")

    def test_truncated_binary(self, tmp_path, rng):
        m = rng.uniform(-1, 1, (3, 3))
        path = tmp_path / "m.blk"
        save_binary(m, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_binary(path)
