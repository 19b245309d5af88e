"""Inputs, timed inversions and output checks for the benchmark's groups.

Every inversion goes through blockinv's public API with default arguments,
with the garbage collector on and without ``release_mode``, the way a
caller would drive it.  Functions are looked up on the ``blockinv``
package at call time, so a traced run sees them through its wrappers.

Inversions come in three groups; a sample of a group inverts each of the
group's inputs once:

* ``dense``: the order-256 well-conditioned input by ``a``, ``inplace`` and
  ``ad``; the order-256 reversal permutation through the retry path the CLI
  takes (``invertor_by_a``, then ``invertor_with_fallback`` on
  ``SingularBlock``); and, by each of the three methods, one batch of
  SMALL_BATCH fresh order-64 inputs timed back to back, whose mean seconds
  per inversion is the sample.
* ``engine``: order 64 on the default partition (32 blocks of 2) at
  workers 1 and 2, and order 256 on ``sizes=[32]*8`` at workers 1.
* ``checkpoint``: order 16 checkpointed in memory, file-backed, and resumed
  from a run stopped after step RESUME_STOP_STEP; each in a fresh temporary
  directory, dirty pages flushed before the timed call, and only the
  resume call timed.

Every timed sample is bracketed by two runs of ``calibrate``.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import blockinv as bi
from blockinv.bench import RESIDUAL_BUDGET
from blockinv.errors import SingularBlock
from layers import COUNTER_FIELDS

LARGE_ORDER = 256
SMALL_ORDER = 64
# Inversions per timed batch of order-64 inputs, about 0.1 s each: single
# inversions of a few milliseconds landed in one of two speed modes of a
# shared 2-CPU machine, which made their median jump between the modes.
SMALL_BATCH = {"a_small_s": 16, "inplace_small_s": 4, "ad_small_s": 2}
FINE_ORDER = 64
COARSE_ORDER = 256
COARSE_SIZES = (32,) * 8
CKPT_ORDER = 16
RESUME_STOP_STEP = 8

# Timed metric -> the method whose residual it feeds.
METHOD_OF = {
    "a_s": "a", "a_small_s": "a",
    "inplace_s": "inplace", "inplace_small_s": "inplace",
    "ad_s": "ad", "ad_small_s": "ad",
    "retry_s": "fallback",
    "parallel_w1_s": "parallel", "parallel_w2_s": "parallel",
    "parallel_coarse_w1_s": "parallel",
    "ckpt_mem_s": "parallel", "ckpt_file_s": "parallel", "resume_s": "parallel",
}
GROUP_METRICS = {
    "dense": ("a_s", "inplace_s", "ad_s", "retry_s", "a_small_s", "inplace_small_s", "ad_small_s"),
    "engine": ("parallel_w1_s", "parallel_w2_s", "parallel_coarse_w1_s"),
    "checkpoint": ("ckpt_mem_s", "ckpt_file_s", "resume_s"),
}
METHODS = ("a", "inplace", "ad", "fallback", "parallel")


CAL_SMALL = np.linspace(1.0, 2.0, 16).reshape(4, 4)
CAL_TILE = np.linspace(1.0, 2.0, 256).reshape(16, 16)
CAL_BLOCK = np.linspace(1.0, 2.0, 1024).reshape(32, 32)


def _fib(n: int) -> int:
    return 1 if n < 2 else _fib(n - 1) + _fib(n - 2)


def calibrate() -> float:
    """Seconds of a fixed mix of Python calls, small numpy products and
    inverses, and quadrant slicing, about 9 ms; none of it is blockinv code.

    Measured just before and just after every timed sample.  On a shared
    2-CPU virtual machine all CPU work ran up to 1.8x slower for spans of
    a second to minutes.  The mix slows about as much as the inversions do
    (closer than pure-Python or pure-numpy loops), so a sample divided by
    the calibration around it moves far less from run to run than the
    sample itself.
    """
    start = time.perf_counter()
    _fib(21)
    for _ in range(250):
        CAL_BLOCK @ CAL_BLOCK
        np.linalg.inv(CAL_SMALL)
    for _ in range(800):
        corner = CAL_TILE[8:, 8:] @ CAL_TILE[:8, :8]
        corner -= CAL_TILE[:8, 8:]
    return time.perf_counter() - start


def counter_values(c) -> dict:
    return {field: getattr(c, field) for field in COUNTER_FIELDS}


class Inputs:
    """Every input of every group, built from the workload seed."""

    def __init__(self, seed: int, tmp_root: Path):
        rng = np.random.default_rng(seed)
        s_large, s_fine, s_coarse, s_ckpt, s_small = (int(v) for v in rng.integers(0, 2**31, 5))
        self.large = bi.generate(LARGE_ORDER, seed=s_large)
        self.permutation = bi.generate(LARGE_ORDER, kind="permutation")
        self.small_rng = np.random.default_rng(s_small)
        self.fine = bi.generate(FINE_ORDER, seed=s_fine)
        self.coarse = bi.generate(COARSE_ORDER, seed=s_coarse)
        self.ckpt = bi.generate(CKPT_ORDER, seed=s_ckpt)
        # the uninterrupted run that resumed and checkpointed runs must match
        self.ckpt_reference = bi.run_inversion(self.ckpt).to_dense()
        self.tmp_root = tmp_root

    def next_small(self) -> np.ndarray:
        return bi.generate(SMALL_ORDER, seed=int(self.small_rng.integers(0, 2**31)))


def warm_up(tmp_root: Path) -> None:
    """One tiny run down every code path, so lazy imports and first-call
    costs land in set-up rather than in the first timed sample."""
    m = bi.generate(16, seed=1)
    bi.invertor_by_a(m)
    bi.invertor_inplace_by_a(m.copy())
    bi.invertor_by_ad(m)
    bi.invertor_with_fallback(bi.generate(16, kind="permutation"))
    bi.run_inversion(m, workers=1).to_dense()
    bi.run_inversion(m, workers=2, sizes=[8, 8]).to_dense()
    bi.residual_norm(m, np.linalg.inv(m))
    small = bi.generate(8, seed=2)
    with fresh_dir(tmp_root) as d:
        bi.run_inversion(small, checkpoint_dir=d).to_dense()
    with fresh_dir(tmp_root) as d:
        bi.run_inversion(small, checkpoint_dir=d, file_backed=True).to_dense()
    with fresh_dir(tmp_root) as d:
        bi.run_inversion(small, checkpoint_dir=d, stop_after_step=3)
        bi.run_inversion(small, checkpoint_dir=d).to_dense()


def fresh_dir(root: Path):
    """A new empty directory under ``root``, removed with its contents on exit."""
    return tempfile.TemporaryDirectory(prefix="ckpt-", dir=root)


def dir_bytes(path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def same_bits(x, y) -> bool:
    return x is not None and y is not None and x.shape == y.shape and x.tobytes() == y.tobytes()


class Session:
    """Timings, counters and failures of the inversions of one run.

    ``samples[label]`` holds wall seconds per inversion and
    ``cal_samples[label]`` the calibration seconds around each sample.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.cal_samples: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, list[dict]] = defaultdict(list)
        self.residual_max: dict[str, float] = defaultdict(float)
        self.ckpt_bytes: list[int] = []
        self.attempted = 0
        self.inversions: dict[str, int] = defaultdict(int)  # attempts per metric
        self.failures: list[tuple[str, str]] = []
        self._first_counters: dict[tuple, dict] = {}

    def fail(self, label: str, message: str) -> None:
        self.failures.append((label, message))

    def _call(self, label: str, call):
        """``call() -> (inverse, OpCounters)`` as one attempted inversion;
        returns (inverse, counters, error)."""
        self.attempted += 1
        self.inversions[label] += 1
        scope = self.tracer.inversion(label) if self.tracer is not None else nullcontext()
        with scope:
            try:
                inv, counters = call()
            except Exception as exc:  # recorded and counted; the run carries on
                return None, None, exc
        return inv, counters, None

    def _check(self, label, m, inv, counters, error, counter_key=None) -> bool:
        """Record a failed check; True when the inversion failed."""
        problems = []
        if error is not None:
            problems.append(f"raised {type(error).__name__}: {error}")
        else:
            order = m.shape[0]
            res = bi.residual_norm(m, inv)
            method = METHOD_OF[label]
            if not math.isfinite(res) or res > RESIDUAL_BUDGET * order:
                problems.append(f"residual {res:.3e} exceeds {RESIDUAL_BUDGET * order:.3e}")
            if math.isfinite(res):
                self.residual_max[method] = max(self.residual_max[method], res)
            values = counter_values(counters)
            self.counters[label].append(values)
            key = counter_key if counter_key is not None else label
            first = self._first_counters.setdefault(key, values)
            if values != first:
                problems.append(f"OpCounters {values} differ from the first run's {first}")
        if problems:
            self.fail(label, "; ".join(problems))
        return bool(problems)

    def invert(self, label: str, m: np.ndarray, call, counter_key=None):
        """Time ``call() -> (inverse, OpCounters)`` as one sample, then check
        its output.

        Returns ``(inverse, failed)``; the inverse is None when the call
        raised.  A failed check is recorded and the run carries on.
        """
        before = calibrate()
        start = time.perf_counter()
        inv, counters, error = self._call(label, call)
        self.samples[label].append(time.perf_counter() - start)
        self.cal_samples[label].append((before + calibrate()) / 2)
        return inv, self._check(label, m, inv, counters, error, counter_key)

    def invert_batch(self, label: str, inputs, call) -> None:
        """Time ``call(m)`` over ``inputs`` back to back as one sample, the
        mean seconds per inversion, then check every output."""
        before = calibrate()
        start = time.perf_counter()
        results = [self._call(label, lambda m=m: call(m)) for m in inputs]
        self.samples[label].append((time.perf_counter() - start) / len(inputs))
        self.cal_samples[label].append((before + calibrate()) / 2)
        for m, (inv, counters, error) in zip(inputs, results):
            self._check(label, m, inv, counters, error)


def _engine_call(m, **kwargs):
    counters = bi.OpCounters()
    inv = bi.run_inversion(m, counters=counters, **kwargs).to_dense()
    return inv, counters


def _retry_call(m, took_fallback: list):
    """What ``blockinv invert --retry`` does for methods a, inplace and ad."""
    try:
        return bi.invertor_by_a(m, bi.OpCounters())
    except SingularBlock:
        took_fallback.append(True)
        return bi.invertor_with_fallback(m, bi.OpCounters())


def _inplace(m):
    """A caller keeping its input copies it; the copy is timed with the call."""
    x = m.copy()
    return x, bi.invertor_inplace_by_a(x)


def dense_sample(s: Session, inp: Inputs) -> None:
    L = inp.large
    s.invert("a_s", L, lambda: bi.invertor_by_a(L))
    s.invert("inplace_s", L, lambda: _inplace(L))
    s.invert("ad_s", L, lambda: bi.invertor_by_ad(L))
    P = inp.permutation
    took_fallback: list = []
    _, failed = s.invert("retry_s", P, lambda: _retry_call(P, took_fallback))
    if not failed and not took_fallback:
        s.fail("retry_s", "invertor_by_a did not raise SingularBlock; the fallback was not reached")
    for label, call in (
        ("a_small_s", lambda m: bi.invertor_by_a(m)),
        ("inplace_small_s", _inplace),
        ("ad_small_s", lambda m: bi.invertor_by_ad(m)),
    ):
        s.invert_batch(label, [inp.next_small() for _ in range(SMALL_BATCH[label])], call)


def engine_sample(s: Session, inp: Inputs) -> None:
    F = inp.fine
    w1, _ = s.invert("parallel_w1_s", F, lambda: _engine_call(F, workers=1), "fine")
    w2, failed = s.invert("parallel_w2_s", F, lambda: _engine_call(F, workers=2), "fine")
    if not failed and not same_bits(w1, w2):
        s.fail("parallel_w2_s", "workers-2 output is not bitwise equal to workers-1")
    K = inp.coarse
    s.invert(
        "parallel_coarse_w1_s", K,
        lambda: _engine_call(K, workers=1, sizes=list(COARSE_SIZES)),
    )


def settle() -> None:
    """Flush dirty pages before a timed checkpoint call, so it does not pay
    for writing back the files of the sample before it."""
    os.sync()


def checkpoint_sample(s: Session, inp: Inputs) -> None:
    C = inp.ckpt
    ref = inp.ckpt_reference
    with fresh_dir(inp.tmp_root) as d:
        settle()
        mem, failed = s.invert("ckpt_mem_s", C, lambda: _engine_call(C, checkpoint_dir=d), "ckpt")
        s.ckpt_bytes.append(dir_bytes(d))
    if not failed and not same_bits(mem, ref):
        s.fail("ckpt_mem_s", "checkpointed output is not bitwise equal to an uninterrupted run")
    with fresh_dir(inp.tmp_root) as d:
        settle()
        out, failed = s.invert(
            "ckpt_file_s", C, lambda: _engine_call(C, checkpoint_dir=d, file_backed=True), "ckpt"
        )
    if not failed and not same_bits(out, ref):
        s.fail("ckpt_file_s", "file-backed output is not bitwise equal to an uninterrupted run")
    with fresh_dir(inp.tmp_root) as d:
        try:  # the stopped run is set-up for the resume and is not timed
            bi.run_inversion(C, checkpoint_dir=d, stop_after_step=RESUME_STOP_STEP)
        except Exception as exc:  # counted as an attempt of its own
            s.attempted += 1
            s.fail("resume_s", f"stopped run raised {type(exc).__name__}: {exc}")
        settle()
        out, failed = s.invert("resume_s", C, lambda: _engine_call(C, checkpoint_dir=d))
    if not failed and not same_bits(out, ref):
        s.fail("resume_s", "resumed output is not bitwise equal to an uninterrupted run")


SAMPLERS = {"dense": dense_sample, "engine": engine_sample, "checkpoint": checkpoint_sample}
