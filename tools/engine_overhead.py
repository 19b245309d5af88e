"""Time the step engine's Python overhead in two checkouts, interleaved.

    python tools/engine_overhead.py BEFORE AFTER [--orders 10 20 64] [--sizes 32 32 ...]
        [--rounds 200]

BEFORE and AFTER are checkout roots (each with ``src/blockinv``).  Each is
imported twice under its own package names, so all four variants run in
this one process: as it is ("full"), and with the kernels and leaves
stubbed out ("stubbed"), where ``engine._mm_acc_ordered``,
``engine._inv2_stack``, ``engine.invert_small``, ``engine._invert_stacked``
(leaves larger than 4) and ``engine.check_result`` do nothing.  The
stubbed time is the Python around the kernels: task lists, views, index
arrays and bookkeeping.

Each round times one ``run_inversion`` per variant with one worker, in an
order that alternates between the checkouts, so both see the same machine
conditions.  Each of ``--orders`` runs on its default partition;
``--sizes`` adds one case on that explicit partition (``--orders`` with no
value leaves the default partitions out).  The script prints per case the
median seconds of each variant with its quartiles, and the median of the
per-round AFTER/BEFORE ratios with their quartiles.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def load(root: Path, name: str, stubbed: bool):
    """Import ``root/src/blockinv`` as package ``name``; its relative
    imports then resolve inside the same copy."""
    pkg_dir = root / "src" / "blockinv"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    engine = importlib.import_module(f"{name}.engine")
    if stubbed:
        engine._mm_acc_ordered = lambda a, b, out, order=None, negate=False: None
        engine._inv2_stack = lambda m, out: np.zeros(len(m), dtype=bool)
        engine.invert_small = lambda m, out, counters=None: None
        engine._invert_stacked = lambda formula, x, out=None: out
        engine.check_result = lambda m: m
    return engine.run_inversion


def matrix(order: int) -> np.ndarray:
    g = np.random.default_rng(order)
    m = g.uniform(-1.0, 1.0, (order, order))
    m[np.diag_indices(order)] += 2.0 * order
    return m


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before", type=Path)
    ap.add_argument("after", type=Path)
    ap.add_argument("--orders", type=int, nargs="*", default=[10, 20, 64])
    ap.add_argument("--sizes", type=int, nargs="+", default=None)
    ap.add_argument("--rounds", type=int, default=200)
    args = ap.parse_args(argv)

    variants = {}
    for side, root in (("before", args.before), ("after", args.after)):
        for mode in ("full", "stubbed"):
            variants[side, mode] = load(root.resolve(), f"blockinv_{side}_{mode}", mode == "stubbed")

    cases = [(str(order), order, None) for order in args.orders]
    if args.sizes:
        sizes = args.sizes
        label = f"[{sizes[0]}]*{len(sizes)}" if len(set(sizes)) == 1 else ",".join(map(str, sizes))
        cases.append((label, sum(sizes), sizes))
    width = max([5] + [len(label) for label, _, _ in cases])
    print(f"{'case':>{width}} {'mode':>8} {'before ms [q1, q3]':>26} {'after ms [q1, q3]':>26}"
          f" {'after/before [q1, q3]':>24}")
    for label, order, sizes in cases:
        m = matrix(order)
        for run in variants.values():  # warm the layout and step caches
            run(m, sizes=sizes)
        times = {key: [] for key in variants}
        for r in range(args.rounds):
            sides = ("before", "after") if r % 2 == 0 else ("after", "before")
            for mode in ("full", "stubbed"):
                for side in sides:
                    run = variants[side, mode]
                    t0 = time.perf_counter()
                    run(m, sizes=sizes)
                    times[side, mode].append(time.perf_counter() - t0)
            if r % 20 == 19:
                gc.collect()
        for mode in ("full", "stubbed"):
            before, after = times["before", mode], times["after", mode]
            ratios = [a / b for a, b in zip(after, before)]
            b1, b2, b3 = (1e3 * x for x in quartiles(before))
            a1, a2, a3 = (1e3 * x for x in quartiles(after))
            r1, r2, r3 = quartiles(ratios)
            print(f"{label:>{width}} {mode:>8} {b2:8.3f} [{b1:.3f}, {b3:.3f}] "
                  f"{a2:8.3f} [{a1:.3f}, {a3:.3f}] {r2:8.3f} [{r1:.3f}, {r3:.3f}]")


if __name__ == "__main__":
    main()
