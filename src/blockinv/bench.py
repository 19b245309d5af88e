"""Matrix generation, timing sweeps, CSV output, and log-log slope fits.

Timing wraps the inversion call only (monotonic clock); generation and I/O
are excluded.  Fitted exponents n of T ~ m**n are hardware-bound, so they
are reported rather than asserted against fixed values.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import OpCounters, gauss_jordan_oracle, residual_norm
from .engine import run_inversion
from .errors import InsufficientData, InvalidOrder
from .partition import _is_int, make_partition
from .recursive import invertor_by_a, invertor_by_ad, invertor_inplace_by_a

KINDS = ("well-conditioned", "permutation", "block-diagonal")
RESIDUAL_BUDGET = 1e-8  # per unit of matrix order


def _check_seed(seed) -> None:
    if not _is_int(seed) or seed < 0:
        raise InvalidOrder(f"seed must be an integer >= 0, got {seed!r}")


def generate(order: int, seed: int = 0, kind: str = "well-conditioned") -> np.ndarray:
    """Deterministic test matrices; ``seed`` is an integer >= 0.

    well-conditioned: uniform entries in [-1, 1] plus 2 * order on the
    diagonal, so every pivot and Schur pivot stays nonsingular.
    permutation: the reversal permutation (counter-identity), the smallest
    hard case for diagonal pivots.  block-diagonal: well-conditioned blocks
    on the default partition, zero elsewhere.
    """
    if not _is_int(order) or order < 1:
        raise InvalidOrder(f"order must be an integer >= 1, got {order!r}")
    if kind not in KINDS:
        raise InvalidOrder(f"unknown kind {kind!r}; choose from {KINDS}")
    _check_seed(seed)
    if kind == "permutation":
        return np.eye(order)[::-1].copy()
    rng = np.random.default_rng(seed)
    if kind == "well-conditioned":
        m = rng.uniform(-1.0, 1.0, (order, order))
        m[np.diag_indices(order)] += 2.0 * order
        return m
    m = np.zeros((order, order))
    if order == 1:
        m[0, 0] = 2.0
        return m
    scheme = make_partition(order)
    for i, size in enumerate(scheme.sizes):
        lo, hi = scheme.offsets[i], scheme.offsets[i + 1]
        block = rng.uniform(-1.0, 1.0, (size, size))
        block[np.diag_indices(size)] += 2.0 * size
        m[lo:hi, lo:hi] = block
    return m


def _inplace(m: np.ndarray, counters: OpCounters) -> np.ndarray:
    inv = m.copy()
    invertor_inplace_by_a(inv, counters=counters)
    return inv


# Method name -> fn(m, counters, **engine_options) returning the inverse;
# only the step engine takes options (sizes, checkpointing), and
# the oracle, which has no blocks, counts nothing.
METHODS = {
    "a": lambda m, counters, **_: invertor_by_a(m, counters)[0],
    "inplace": lambda m, counters, **_: _inplace(m, counters),
    "ad": lambda m, counters, **_: invertor_by_ad(m, counters)[0],
    "parallel": lambda m, counters, **engine: run_inversion(
        m, counters=counters, **engine
    ).to_dense(),
    "oracle": lambda m, counters, **_: gauss_jordan_oracle(m),
}


def run_method(method: str, m: np.ndarray, **engine) -> tuple[np.ndarray, OpCounters]:
    """(inverse, counters) of one method; ``engine`` options reach the step
    engine only (see ``METHODS``)."""
    if method not in METHODS:
        raise InvalidOrder(f"unknown method {method!r}")
    counters = OpCounters()
    return METHODS[method](m, counters, **engine), counters


@dataclass
class TimingRecord:
    method: str
    order: int
    workers: int  # always 1: kept for the CSV's workers column
    seconds: float
    residual: float
    counters: OpCounters = field(default_factory=OpCounters)
    kind: str = "sample"  # "sample" or "median"


@dataclass(frozen=True)
class SlopeFit:
    m_lo: float
    m_hi: float
    exponent: float
    stderr: float
    n_points: int


def time_inversion(method: str, m: np.ndarray) -> TimingRecord:
    """One timed inversion with the garbage collector paused.

    No collection is forced beforehand: releasing allocator arenas right
    before the run would charge their repopulation to the measurement.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        inv, counters = run_method(method, m)
        seconds = time.perf_counter() - start
    finally:
        if gc_was_on:
            gc.enable()
    res = residual_norm(m, inv)
    return TimingRecord(method, m.shape[0], 1, seconds, res, counters)


def bench(
    methods,
    orders,
    repeats: int = 1,
    seed: int = 0,
) -> list[TimingRecord]:
    """One record per (method, order, repeat); the per-configuration median
    (by seconds) is appended as an extra flagged record when repeats > 1.
    Every method runs once per repeat and order k, seeded ``seed + k``, in
    the calling thread (each record's ``workers`` is 1).  A seed that is
    not an integer >= 0 (InvalidOrder) raises before anything runs, and a
    residual above 1e-8 * order fails the sweep.
    """
    if repeats < 1:
        raise InvalidOrder(f"repeats must be >= 1, got {repeats}")
    _check_seed(seed)
    orders = list(orders)
    if orders != sorted(orders):
        raise InvalidOrder("orders must be ascending")
    records: list[TimingRecord] = []
    for order in orders:
        m = generate(order, seed=seed + order)
        for method in methods:
            samples = []
            for _ in range(repeats):
                rec = time_inversion(method, m)
                if rec.residual > RESIDUAL_BUDGET * order:
                    raise ArithmeticError(
                        f"{method} on order {order}: residual {rec.residual:.3e} "
                        f"exceeds {RESIDUAL_BUDGET * order:.3e}"
                    )
                samples.append(rec)
            records.extend(samples)
            if repeats > 1:
                mid = sorted(samples, key=lambda r: r.seconds)[len(samples) // 2]
                records.append(
                    TimingRecord(
                        mid.method, mid.order, mid.workers, mid.seconds,
                        mid.residual, mid.counters, kind="median",
                    )
                )
    return records


CSV_HEADER = "method,m,workers,seconds,residual,multiplies,inversions,reductions,kind"


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.method},{r.order},{r.workers},{r.seconds:.6f},{r.residual!r},"
            f"{r.counters.multiplies},{r.counters.inversions},{r.counters.reductions},{r.kind}"
        )
    return "\n".join(lines) + "\n"


def write_csv(records, path) -> None:
    with open(path, "w") as fh:
        fh.write(records_to_csv(records))


def fit_slope(records, m_lo: float, m_hi: float) -> SlopeFit:
    """Least-squares slope of log T against log m over [m_lo, m_hi]."""
    pts = [(r.order, r.seconds) for r in records if m_lo <= r.order <= m_hi]
    if len(pts) < 4:
        raise InsufficientData(f"{len(pts)} records in [{m_lo}, {m_hi}], need >= 4")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    xm = x.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xm)
    rss = float(np.sum((y - slope * x - intercept) ** 2))
    stderr = math.sqrt(max(rss, 0.0) / (len(pts) - 2) / sxx) if len(pts) > 2 else 0.0
    if not math.isfinite(slope):
        raise InsufficientData("slope is not finite")
    return SlopeFit(m_lo, m_hi, slope, stderr, len(pts))
