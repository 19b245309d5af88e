"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import gc
import time
from contextlib import contextmanager

import numpy as np
import pytest

from blockinv.bench import fit_slope, generate, time_inversion, write_csv
from blockinv.core import (
    gauss_jordan_oracle,
    invert_small,
    residual_norm,
)
from blockinv.engine import loopid_for_step, run_inversion, total_steps, updown_iteration_map
from blockinv.errors import SingularBlock
from blockinv.partition import make_partition
from blockinv.recursive import invertor_by_a, invertor_by_ad, invertor_inplace_by_a
from blockinv.schur import (
    counterdiagonal_quad,
    diagonal_quad,
    invert_via_a,
    invert_via_b,
    invert_via_c,
    invert_via_d,
    invert_with_fallback,
)

from test_engine import LOOPID_TABLE_B8, UPDOWN_MAP_8
from test_partition import TABLE_ROWS


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def _oracle_equivalence_cases():
    cases = []
    for order in range(2, 65):
        cases.extend((order, seed) for seed in range(3))
    for order in (100, 129):
        cases.extend((order, seed) for seed in range(3))
    cases.extend((256, seed) for seed in range(4))
    cases.append((512, 0))
    assert len(cases) == 200
    return cases


def test_oracle_equivalence_200_matrices():
    """Every method matches the elimination oracle within 1e-8 * order."""
    with criterion("oracle equivalence, 200 seeded matrices, 4 methods"):
        start = time.perf_counter()
        worst = 0.0
        for order, seed in _oracle_equivalence_cases():
            m = generate(order, seed=10_000 * seed + order)
            oracle = gauss_jordan_oracle(m)
            tol = 1e-8 * order
            inv_a, _ = invertor_by_a(m)
            inv_ip = m.copy()
            invertor_inplace_by_a(inv_ip)
            inv_ad, _ = invertor_by_ad(m)
            inv_par = run_inversion(m).to_dense()
            for inv in (inv_a, inv_ip, inv_ad, inv_par):
                diff = float(np.max(np.abs(inv - oracle)))
                res = residual_norm(m, inv)
                worst = max(worst, diff, res)
                assert diff <= tol, (order, seed, diff)
                assert res <= tol, (order, seed, res)
        elapsed = time.perf_counter() - start
        print(f"  200 matrices, worst deviation {worst:.3e}, {elapsed:.1f}s", end=" ")
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget is 120s"


def test_partition_table_reproduction():
    """All nine explicit blocking rows plus the two published block counts."""
    with criterion("diagonal blocking table reproduction"):
        for order, sizes in TABLE_ROWS.items():
            assert list(make_partition(order).sizes) == sizes, order
        assert make_partition(100).n_blocks == 32
        assert make_partition(10000).n_blocks == 4096


def test_stepid_loopid_table_reproduction():
    """Every explicit loopid row for blocksize 8; N_s law for 2..32."""
    with criterion("stepid -> loopid table reproduction"):
        for stepid, expected in LOOPID_TABLE_B8.items():
            assert loopid_for_step(stepid, 8) == expected, stepid
        for blocksize in (2, 4, 8, 16, 32):
            n_s = total_steps(blocksize)
            assert n_s == 2 * blocksize - 1
            for stepid in range(1, n_s + 1):
                loopid_for_step(stepid, blocksize)


def test_updown_map_reproduction():
    """All 64 printed entries of the 8x8 assembly iteration map."""
    with criterion("assembly iteration map, all 64 entries"):
        for r in range(1, 9):
            for c in range(1, 9):
                assert updown_iteration_map(r, c) == UPDOWN_MAP_8[r - 1][c - 1]


def test_multiplication_count_laws():
    """6 multiplies + 2 reductions per node (pivot-A paths); 4 per node
    for the combined-pivot path; orders 2^k, k <= 6."""
    with criterion("multiplication count laws, k <= 6"):
        for k in range(1, 7):
            order = 2**k
            m = generate(order, seed=900 + k)
            _, c_a = invertor_by_a(m)
            assert c_a.multiplies == 6 * c_a.nodes
            assert c_a.reductions == 2 * c_a.nodes
            work = m.copy()
            c_ip = invertor_inplace_by_a(work)
            assert c_ip.multiplies == 6 * c_ip.nodes
            assert c_ip.reductions == 2 * c_ip.nodes
            assert c_ip.nodes == c_a.nodes
            _, c_ad = invertor_by_ad(m)
            assert c_ad.multiplies == 4 * c_ad.nodes
            assert c_ad.reductions == 2 * c_ad.nodes


def test_scratch_discipline():
    """In-place path: auxiliary storage <= order scalars.  Combined-pivot
    path: Schur workspace equals 2^(k+1) (2^(k-1) - 1) scalars."""
    with criterion("scratch discipline audits"):
        for order in (6, 33, 256):
            work = generate(order, seed=order)
            c = invertor_inplace_by_a(work)
            assert c.peak_scratch <= order, (order, c.peak_scratch)
        for k in range(2, 7):
            _, c = invertor_by_ad(generate(2**k, seed=40 + k))
            expected = 2 ** (k + 1) * (2 ** (k - 1) - 1)
            assert c.schur_scratch == expected, (k, c.schur_scratch, expected)


def test_parallel_determinism():
    """Engine output bitwise identical for 1, 2, 4, 8 workers, 20 inputs."""
    with criterion("worker-count determinism, 20 seeded inputs"):
        for seed in range(20):
            order = 5 + 2 * seed  # 5..43, odd and even block sizes
            m = generate(order, seed=7_000 + seed)
            ref = run_inversion(m, workers=1).to_dense().tobytes()
            for workers in (2, 4, 8):
                out = run_inversion(m, workers=workers).to_dense().tobytes()
                assert out == ref, (order, seed, workers)


def test_resume_equivalence():
    """Interrupt a 15-step run after every step and resume from its
    checkpoint; outputs are bitwise identical."""
    import tempfile

    with criterion("checkpoint resume equivalence, every step boundary"):
        m = generate(21, seed=77)
        assert total_steps(make_partition(21).n_blocks) == 15
        ref = run_inversion(m).to_dense().tobytes()
        for stop in range(1, 16):
            with tempfile.TemporaryDirectory() as d:
                run_inversion(m, checkpoint_dir=d, stop_after_step=stop)
                out = run_inversion(m, checkpoint_dir=d).to_dense().tobytes()
                assert out == ref, stop


def test_singular_pivot_behavior():
    """The order-2 permutation defeats both diagonal pivots and inverts via
    the square off-diagonal ones; the fallback picks the B pivot."""
    with criterion("singular pivot behavior on the order-2 permutation"):
        perm = generate(2, kind="permutation")
        q = diagonal_quad(perm, 1)
        with pytest.raises(SingularBlock):
            invert_via_a(q, invert_small, np.empty((2, 2)))
        with pytest.raises(SingularBlock):
            invert_via_d(q, invert_small, np.empty((2, 2)))
        qc = counterdiagonal_quad(perm, 1)
        out_b = np.empty((2, 2))
        invert_via_b(qc, invert_small, out_b)
        assert np.array_equal(out_b, perm)
        out_c = np.empty((2, 2))
        invert_via_c(qc, invert_small, out_c)
        assert np.array_equal(out_c, perm)
        out = np.empty((2, 2))
        assert invert_with_fallback(perm, 1, out) == "via_b"


_CAL_SMALL = np.linspace(1.0, 2.0, 16).reshape(4, 4)
_CAL_TILE = np.linspace(1.0, 2.0, 256).reshape(16, 16)
_CAL_BLOCK = np.linspace(1.0, 2.0, 1024).reshape(32, 32)


def _fib(n):
    return 1 if n < 2 else _fib(n - 1) + _fib(n - 2)


def _calibrate():
    """Seconds of a fixed mix of Python calls, small numpy products and
    inverses, and quadrant slicing (about 9 ms), the same mix as the
    benchmark's calibration loop, timed with the garbage collector paused
    as every sample is.  On a shared machine all CPU work runs up to 1.8x
    slower for stretches of seconds to minutes; the mix slows about as much
    as the inversions do, so a sample divided by the calibration next to it
    does not depend on which speed the machine was in."""
    gc.disable()
    try:
        start = time.perf_counter()
        _fib(21)
        for _ in range(250):
            _CAL_BLOCK @ _CAL_BLOCK
            np.linalg.inv(_CAL_SMALL)
        for _ in range(800):
            corner = _CAL_TILE[8:, 8:] @ _CAL_TILE[:8, :8]
            corner -= _CAL_TILE[:8, 8:]
        return time.perf_counter() - start
    finally:
        gc.enable()


def test_timing_slopes(tmp_path):
    """Synthetic exponents recovered to 1e-3; measured slopes for
    m in [10, 100] land in the plausibility band [1.5, 4.5]."""
    with criterion("timing slope fits"):
        from dataclasses import replace

        from blockinv.bench import TimingRecord
        from blockinv.core import OpCounters

        for target in (2.0, 3.0):
            recs = [
                TimingRecord("syn", m, 1, float(m) ** target, 0.0, OpCounters())
                for m in (10, 20, 40, 80, 160)
            ]
            fit = fit_slope(recs, 10, 160)
            assert abs(fit.exponent - target) <= 1e-3
            assert fit.stderr <= 1e-9

        orders = list(range(10, 101, 10))
        methods = ("a", "inplace", "ad", "parallel")
        records = []
        mid = {}
        mats = {order: generate(order, seed=300 + order) for order in orders}
        runs = {(method, order): [] for order in orders for method in methods}
        # A sample is the mean of k back-to-back timed calls, k chosen so
        # that it lasts about as long as one calibration loop, and it is
        # divided by the mean of the loops run just before and just after
        # it: sample and divisor then span the same machine conditions, so
        # orders timed in different speed modes of the machine share one
        # scale.  Each pass times every (order, method) once, after an
        # untimed call that warms the caches the other points' calls
        # evicted; a point is the median of its nine calibrated samples.
        cal = _calibrate()
        batch = {}
        for key in runs:
            time_inversion(key[0], mats[key[1]])
            batch[key] = max(1, round(cal / time_inversion(key[0], mats[key[1]]).seconds))
        for _ in range(9):
            for order in orders:
                for method in methods:
                    time_inversion(method, mats[order])
                    k = batch[(method, order)]
                    recs = [time_inversion(method, mats[order]) for _ in range(k)]
                    before, cal = cal, _calibrate()
                    seconds = sum(r.seconds for r in recs) / k / ((before + cal) / 2)
                    runs[(method, order)].append(replace(recs[0], seconds=seconds))
        for key, samples in runs.items():
            records.extend(samples)
            mid[key] = sorted(samples, key=lambda r: r.seconds)[len(samples) // 2]
        write_csv(records, tmp_path / "timing_sweep.csv")
        print(f"  CSV (calibrated times): {tmp_path / 'timing_sweep.csv'}", end=" ")
        exponents = {
            method: fit_slope([mid[(method, order)] for order in orders], 10, 100).exponent
            for method in methods
        }
        report = " ".join(f"{method}: n={e:.2f}" for method, e in exponents.items())
        print(report, end=" ")
        for method, exponent in exponents.items():
            assert 1.5 <= exponent <= 4.5, (method, report)
