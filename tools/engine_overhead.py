"""Time the step engine's Python overhead, or one recursive method, in two
checkouts, interleaved.

    python tools/engine_overhead.py BEFORE AFTER [--orders 10 20 64] [--sizes 32 32 ...]
        [--rounds 200]
    python tools/engine_overhead.py BEFORE AFTER --method {a,inplace,ad,fallback}
        [--kind {random,permutation}] [--orders 8 64 256] [--rounds 200]

BEFORE and AFTER are checkout roots (each with ``src/blockinv``).  Each is
imported under its own package names, so every variant runs in this one
process.

Without ``--method`` the engine runs in two variants per checkout: as it is
("full"), and with the kernels and leaves stubbed out ("stubbed"), where
``engine._mm_acc_ordered``, ``engine._inv2_stack``, ``engine.invert_small``,
``engine._invert_stacked`` (leaves larger than 4) and
``engine.check_result`` do nothing.  The stubbed time is the Python around
the kernels: task lists, views, index arrays and bookkeeping.  Each of
``--orders`` runs ``run_inversion`` with one worker on its default
partition; ``--sizes`` adds one case on that explicit partition
(``--orders`` with no value leaves the default partitions out).

With ``--method`` each of ``--orders`` times that method's public call
(``invertor_by_a``, ``invertor_inplace_by_a`` on a copy of the input, the
copy timed with it, ``invertor_by_ad`` or ``invertor_with_fallback``) on a
diagonally dominant random input or, with ``--kind permutation``, on the
reversal permutation, which only ``fallback`` inverts.

Each round times one call per variant, in an order that alternates between
the checkouts, so both see the same machine conditions.  The script prints
per case the median milliseconds of each variant with its quartiles, and
the median of the per-round AFTER/BEFORE ratios with their quartiles.

Before timing a case, the script compares the two checkouts' outputs of
the full engine, or of the method, byte for byte: the inverse and, for a
method, its OpCounters.  It prints whether the bits are equal and exits
with status 1 when any case's differ.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def load(root: Path, name: str):
    """Import ``root/src/blockinv`` as package ``name``; its relative
    imports then resolve inside the same copy."""
    pkg_dir = root / "src" / "blockinv"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def engine_run(root: Path, name: str, stubbed: bool):
    """``run_inversion`` of the checkout at ``root``, its kernels and leaves
    stubbed out when ``stubbed``."""
    load(root, name)
    engine = importlib.import_module(f"{name}.engine")
    if stubbed:
        engine._mm_acc_ordered = lambda a, b, out, order=None, negate=False: None
        engine._inv2_stack = lambda m, out: np.zeros(len(m), dtype=bool)
        engine.invert_small = lambda m, out, counters=None: None
        engine._invert_stacked = lambda formula, x, out=None: out
        engine.check_result = lambda m: m
    return engine.run_inversion


def method_call(root: Path, name: str, method: str):
    """The public call of ``method`` in the checkout at ``root``."""
    load(root, name)
    rec = importlib.import_module(f"{name}.recursive")
    if method == "inplace":
        def inplace(m):
            work = m.copy()
            return work, rec.invertor_inplace_by_a(work)

        return inplace
    return {"a": rec.invertor_by_a, "ad": rec.invertor_by_ad,
            "fallback": rec.invertor_with_fallback}[method]


def matrix(order: int) -> np.ndarray:
    g = np.random.default_rng(order)
    m = g.uniform(-1.0, 1.0, (order, order))
    m[np.diag_indices(order)] += 2.0 * order
    return m


def output_bytes(result) -> bytes:
    """The bytes of a call's inverse, then its OpCounters' repr when the
    call returns them (every method; the engine returns its store)."""
    if isinstance(result, tuple):
        inv, counters = result
        return inv.tobytes() + repr(counters).encode()
    return result.to_dense().tobytes()


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def interleave(calls, modes, rounds: int):
    """Seconds of each ``calls[side, mode]()`` over ``rounds`` rounds; each
    round calls every variant once, the sides' order alternating."""
    times = {key: [] for key in calls}
    for r in range(rounds):
        sides = ("before", "after") if r % 2 == 0 else ("after", "before")
        for mode in modes:
            for side in sides:
                call = calls[side, mode]
                t0 = time.perf_counter()
                call()
                times[side, mode].append(time.perf_counter() - t0)
        if r % 20 == 19:
            gc.collect()
    return times


def report(label: str, mode: str, before, after, width: int) -> None:
    ratios = [a / b for a, b in zip(after, before)]
    b1, b2, b3 = (1e3 * x for x in quartiles(before))
    a1, a2, a3 = (1e3 * x for x in quartiles(after))
    r1, r2, r3 = quartiles(ratios)
    print(f"{label:>{width}} {mode:>8} {b2:8.3f} [{b1:.3f}, {b3:.3f}] "
          f"{a2:8.3f} [{a1:.3f}, {a3:.3f}] {r2:8.3f} [{r1:.3f}, {r3:.3f}]")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before", type=Path)
    ap.add_argument("after", type=Path)
    ap.add_argument("--orders", type=int, nargs="*", default=None,
                    help="default 10 20 64, or 8 64 256 with --method")
    ap.add_argument("--sizes", type=int, nargs="+", default=None)
    ap.add_argument("--method", choices=("a", "inplace", "ad", "fallback"), default=None)
    ap.add_argument("--kind", choices=("random", "permutation"), default="random")
    ap.add_argument("--rounds", type=int, default=200)
    args = ap.parse_args(argv)
    if args.method and args.sizes:
        ap.error("--sizes times the engine; it does not apply with --method")
    sides = (("before", args.before.resolve()), ("after", args.after.resolve()))

    if args.method:
        modes = (args.method,)
        orders = args.orders if args.orders is not None else [8, 64, 256]
        calls = {(side, args.method): method_call(root, f"blockinv_{side}", args.method)
                 for side, root in sides}
        make = (lambda n: np.eye(n)[::-1].copy()) if args.kind == "permutation" else matrix
        cases = [(str(order), make(order), {}) for order in orders]
    else:
        modes = ("full", "stubbed")
        orders = args.orders if args.orders is not None else [10, 20, 64]
        calls = {(side, mode): engine_run(root, f"blockinv_{side}_{mode}", mode == "stubbed")
                 for side, root in sides for mode in modes}
        cases = [(str(order), matrix(order), {"sizes": None}) for order in orders]
        if args.sizes:
            sizes = args.sizes
            label = (f"[{sizes[0]}]*{len(sizes)}" if len(set(sizes)) == 1
                     else ",".join(map(str, sizes)))
            cases.append((label, matrix(sum(sizes)), {"sizes": sizes}))
    width = max([5] + [len(label) for label, _, _ in cases])
    print(f"{'case':>{width}} {'mode':>8} {'before ms [q1, q3]':>26} {'after ms [q1, q3]':>26}"
          f" {'after/before [q1, q3]':>24}")
    differ = 0
    for label, m, kwargs in cases:
        bound = {key: functools.partial(call, m, **kwargs) for key, call in calls.items()}
        # the first calls warm caches (the engine's layouts and steps)
        results = {key: call() for key, call in bound.items()}
        same = (output_bytes(results["before", modes[0]])
                == output_bytes(results["after", modes[0]]))
        differ += not same
        print(f"{label:>{width}} {modes[0]:>8} bits {'equal' if same else 'DIFFER'}", flush=True)
        del results
        times = interleave(bound, modes, args.rounds)
        for mode in modes:
            report(label, mode, times["before", mode], times["after", mode], width)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
