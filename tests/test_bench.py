import sys

import numpy as np
import pytest

from blockinv.bench import (
    CSV_HEADER,
    KINDS,
    TimingRecord,
    bench,
    fit_slope,
    generate,
    records_to_csv,
)
from blockinv.core import OpCounters, gauss_jordan_oracle, residual_norm
from blockinv.errors import InsufficientData, InvalidOrder


class TestGenerate:
    def test_seeded_determinism(self):
        a = generate(4, seed=1)
        b = generate(4, seed=1)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, generate(4, seed=2))

    def test_permutation_order_2(self):
        assert np.array_equal(generate(2, kind="permutation"),
                              [[0.0, 1.0], [1.0, 0.0]])

    def test_well_conditioned_oracle_residual(self):
        m = generate(64, seed=3)
        inv = gauss_jordan_oracle(m)
        assert residual_norm(m, inv) <= 1e-9

    def test_block_diagonal_structure(self):
        m = generate(9, seed=4, kind="block-diagonal")
        # off-diagonal blocks of the default partition are exactly zero
        assert np.all(m[:2, 2:] == 0.0)
        assert np.all(m[6:, :6] == 0.0)
        assert residual_norm(m, gauss_jordan_oracle(m)) <= 1e-10

    def test_invalid(self):
        for order in (0, 2.5, True, "8"):
            with pytest.raises(InvalidOrder):
                generate(order)
        with pytest.raises(InvalidOrder):
            generate(4, kind="nope")
        for seed in (2.5, True, "3", None, -1):
            for kind in KINDS:
                with pytest.raises(InvalidOrder, match="seed"):
                    generate(4, seed=seed, kind=kind)

    def test_numpy_integer_seed(self):
        assert np.array_equal(generate(4, seed=np.int64(7)), generate(4, seed=7))


def synthetic(records_spec):
    return [
        TimingRecord("x", order, 1, seconds, 0.0, OpCounters())
        for order, seconds in records_spec
    ]


class TestFitSlope:
    def test_exact_cubic(self):
        recs = synthetic([(m, float(m) ** 3) for m in (10, 20, 40, 80, 160)])
        fit = fit_slope(recs, 10, 160)
        assert abs(fit.exponent - 3.0) <= 1e-12
        assert fit.stderr <= 1e-12

    def test_exact_quadratic_with_constant(self):
        recs = synthetic([(m, 2.5 * float(m) ** 2) for m in (10, 20, 40, 80)])
        fit = fit_slope(recs, 10, 80)
        assert abs(fit.exponent - 2.0) <= 1e-12

    def test_range_filter(self):
        recs = synthetic([(m, float(m) ** 2) for m in (5, 10, 20, 40, 80, 500)])
        fit = fit_slope(recs, 10, 80)
        assert fit.n_points == 4

    def test_insufficient(self):
        recs = synthetic([(10, 1.0), (20, 2.0), (40, 4.0)])
        with pytest.raises(InsufficientData):
            fit_slope(recs, 10, 40)


class TestBench:
    @pytest.mark.parametrize("seed", [-9, -1, 2.5, None])
    def test_bad_seed_raises_before_anything_runs(self, seed, monkeypatch):
        # order k is generated with seed + k, which -9 takes below 0; a
        # method that ran would call None
        monkeypatch.setattr(sys.modules["blockinv.bench"], "time_inversion", None)
        with pytest.raises(InvalidOrder, match="seed"):
            bench(["a"], [4, 8], seed=seed)

    def test_rows_and_residuals(self):
        records = bench(["a", "oracle"], [6, 10], repeats=1, seed=1)
        assert len(records) == 4
        for r in records:
            assert r.seconds > 0
            assert r.residual <= 1e-8 * r.order
        oracle_rows = [r for r in records if r.method == "oracle"]
        assert all(
            (r.counters.multiplies, r.counters.inversions, r.counters.reductions)
            == (0, 0, 0)
            for r in oracle_rows
        )

    def test_median_flagged(self):
        records = bench(["a"], [8], repeats=3, seed=2)
        kinds = [r.kind for r in records]
        assert kinds.count("sample") == 3
        assert kinds.count("median") == 1
        med = [r for r in records if r.kind == "median"][0]
        samples = sorted(r.seconds for r in records if r.kind == "sample")
        assert med.seconds == samples[1]

    def test_orders_must_ascend(self):
        with pytest.raises(InvalidOrder):
            bench(["a"], [10, 5])

    def test_single_thread_methods_run_once_per_order(self):
        records = bench(["a", "parallel", "ad"], [8], seed=5)
        got = [(r.method, r.workers) for r in records]
        assert got == [("a", 1), ("parallel", 1), ("ad", 1)]

    def test_csv_stability_except_seconds(self):
        rows1 = records_to_csv(bench(["a"], [6, 8], repeats=1, seed=4)).splitlines()
        rows2 = records_to_csv(bench(["a"], [6, 8], repeats=1, seed=4)).splitlines()
        assert rows1[0] == CSV_HEADER
        for r1, r2 in zip(rows1, rows2):
            f1 = r1.split(",")
            f2 = r2.split(",")
            del f1[3], f2[3]  # seconds column varies
            assert f1 == f2
