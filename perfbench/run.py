"""blockinv benchmark: time per inversion for each method, in multiples
of a calibration loop timed around it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 60 --trace 0

The inversions come in three groups, ``dense``, ``engine`` and
``checkpoint`` (workloads.py).  ``--trace 0`` times the dense and engine
groups on every workload, because every end-to-end metric is reported on
every workload: rounds of one sample per group, at least MIN_ROUNDS of
them, then more rounds while they fit in ``--seconds``.  The workload
decides which group leads each round and which groups its traced run
covers: ``dense`` the dense group, ``engine`` the engine and checkpoint
groups.  Each end-to-end metric is the median over the run's samples of
the sample's wall seconds divided by the calibration seconds around it
(workloads.calibrate), unit ``cal``; the wall seconds are printed beside
it.  ``setup_s`` is the median wall seconds of the run's set-ups (input
generation, the uninterrupted reference run of the checkpoint input,
warm-up): one before the first round and one at the start of every round,
so that it spans the same stretch of time as the other metrics.

Two kinds of inversion have no end-to-end metric, because no bound of at
most 25% held them on a shared 2-CPU virtual machine.  The checkpoint
group's file writes on a shared disk spread its run medians by up to a
third from run to run, calibrated or not; it is timed only by the traced
run of ``engine``.  Workers-2 engine runs moved by 20-25% against the
calibration between stretches of half an hour while every one-thread
metric stayed within 3%; the workers-2 run of the fine input stays in
every round for its bitwise check against workers 1, and its wall
seconds are reported by the traced run of ``engine``.

``--trace 1`` runs the workload's own groups untraced UNTRACED_PASSES
times, then once with span wrappers installed on blockinv's public
functions, and reports the per-layer metrics of that traced pass
(layers.py), the tracing overhead, tracemalloc peaks (dense only), the
workers-2 and checkpoint wall seconds (engine only) and the np.linalg.inv /
Gauss-Jordan oracle reference timings.  It does a fixed amount of work and
ignores ``--seconds``.

Each inversion is checked: residual within ``1e-8 * order``, OpCounters
equal to the first run's, workers-2 output bitwise equal to workers-1, and
checkpointed, file-backed and resumed outputs bitwise equal to an
uninterrupted run.  A failed check is printed, counted in ``failed`` and
the run carries on.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details, the
environment and (traced runs) the spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A workload's own groups are the ones its traced run covers; the timed
# ones among them lead every round of an untraced run.
WORKLOADS = {"dense": ("dense",), "engine": ("engine", "checkpoint")}
TIMED_GROUPS = ("dense", "engine")
MIN_ROUNDS = 2
UNTRACED_PASSES = 2
REF_ORDERS = (64, 256, 512)
REF_REPEATS = 3
# Timed labels; each is reported as the metric ``metric_name(label)``.
END_TO_END = (
    "a_s", "inplace_s", "ad_s", "retry_s", "a_small_s", "inplace_small_s", "ad_small_s",
    "parallel_w1_s", "parallel_coarse_w1_s",
)


def metric_name(label: str) -> str:
    """``a_s`` (wall seconds) -> ``a_cal`` (multiples of the calibration)."""
    return label.removesuffix("_s") + "_cal"


def cap_threads() -> None:
    """One BLAS / OpenMP thread in the benchmark process; must run before
    numpy is imported.

    The timed inversions use no BLAS; only the residual checks and the
    np.linalg.inv reference do.  A two-thread BLAS call leaves its worker
    spinning on the other CPU after it returns, which slowed pure-Python
    work started right after it by up to 1.8x on a 2-CPU machine, so the
    checks would otherwise leak into the next timed inversion.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # run_inversion's default worker count reads this; the benchmark sets
    # workers explicitly where it wants more than the default of one
    os.environ.pop("INVERTOR_WORKERS", None)


def import_blockinv():
    """Import blockinv from this checkout's src/, or None."""
    sys.path.insert(0, str(SRC))
    try:
        import blockinv
    except ImportError as exc:
        print(f"cannot import blockinv from {SRC}: {exc}", file=sys.stderr)
        return None
    if Path(blockinv.__file__).resolve().parent.parent != SRC.resolve():
        print(f"blockinv imported from {blockinv.__file__}, not {SRC}", file=sys.stderr)
        return None
    return blockinv


def environment(tmp_root: Path) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):  # numpy without mode="dicts"
        pass
    st = os.stat(tmp_root)
    vfs = os.statvfs(tmp_root)
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "checkpoint_fs": {
            "dir": str(tmp_root.relative_to(ROOT)),
            "device": f"{os.major(st.st_dev)}:{os.minor(st.st_dev)}",
            "block_size": vfs.f_bsize,
            "fragment_size": vfs.f_frsize,
            "blocks": vfs.f_blocks,
            "max_name": vfs.f_namemax,
        },
    }


def set_up(seed: int, tmp_root: Path):
    """One set-up; returns (inputs, wall seconds)."""
    from workloads import Inputs, settle, warm_up

    settle()  # its warm-up writes checkpoints, like the timed checkpoint calls
    start = time.perf_counter()
    inputs = Inputs(seed, tmp_root)
    warm_up(tmp_root)
    return inputs, time.perf_counter() - start


def measure(workload: str, seed: int, tmp_root: Path, inputs, seconds: float, setup_times: list):
    """Rounds of one sample per group, the workload's groups first: at least
    MIN_ROUNDS, then another while it is expected to end within
    ``seconds``.  Whole rounds only, so every metric gets the same number
    of samples on every workload.  Each round starts with a set-up, timed
    into ``setup_times``; its inputs are dropped and every round inverts
    ``inputs``."""
    from workloads import SAMPLERS, Session

    session = Session()
    own = [g for g in WORKLOADS[workload] if g in TIMED_GROUPS]
    order = own + [g for g in TIMED_GROUPS if g not in own]
    start = time.perf_counter()
    rounds = 0
    while True:
        t0 = time.perf_counter()
        setup_times.append(set_up(seed, tmp_root)[1])
        for group in order:
            SAMPLERS[group](session, inputs)
        rounds += 1
        last = time.perf_counter() - t0
        if rounds >= MIN_ROUNDS and time.perf_counter() - start + last > seconds:
            return session


def summarize(samples: dict, cal_samples: dict) -> list[str]:
    from stats import median, median_ratio, tail_percentile

    lines = []
    for name, values in samples.items():
        line = f"  {name:22s} median {median(values):.6f} s  n={len(values)}"
        tail = tail_percentile(values)
        if tail is not None:
            line += f"  p{tail[0]:g} {tail[1]:.6f} s"
        if name in END_TO_END and cal_samples.get(name):
            ratio = median_ratio(values, cal_samples[name])
            line += f"  {metric_name(name)} {ratio:.3f} cal"
        lines.append(line)
    return lines


def trace_run(workload: str, inputs, seed: int):
    """Untraced passes, one traced pass, tracemalloc and references."""
    from layers import COUNTER_FIELDS, layer_metrics
    from stats import median
    from tracing import Tracer
    from workloads import GROUP_METRICS, METHODS, SAMPLERS, Session

    groups = WORKLOADS[workload]
    labels = [label for g in groups for label in GROUP_METRICS[g]]

    def one_pass(session):
        for group in groups:
            SAMPLERS[group](session, inputs)

    untraced = Session()
    for _ in range(UNTRACED_PASSES):
        one_pass(untraced)
    med = {k: median(untraced.samples[k]) for k in labels if untraced.samples[k]}
    untraced_s = sum(med[k] * untraced.inversions[k] / UNTRACED_PASSES for k in med)

    tracer = Tracer()
    traced = Session(tracer)
    tracer.install()
    try:
        one_pass(traced)
    finally:
        tracer.uninstall()

    recursive_counters = {
        method: traced.counters[label][0]
        for method, label in (("a", "a_s"), ("inplace", "inplace_s"), ("ad", "ad_s"))
        if traced.counters.get(label)
    }
    engine_counters = dict.fromkeys(COUNTER_FIELDS, 0)
    for label in GROUP_METRICS["engine"] + GROUP_METRICS["checkpoint"]:
        for values in traced.counters.get(label, []):
            for field in COUNTER_FIELDS:
                engine_counters[field] += values[field]
    w2_eff = 0.0
    if "parallel_w1_s" in med and "parallel_w2_s" in med:
        w2_eff = med["parallel_w1_s"] / (2.0 * med["parallel_w2_s"])
    metrics = layer_metrics(
        tracer.spans,
        {"recursive": recursive_counters, "engine": engine_counters},
        traced.ckpt_bytes[0] if traced.ckpt_bytes else 0,
        w2_eff,
        untraced_s,
    )
    metrics.update(peak_alloc(inputs.large if workload == "dense" else None))
    metrics["engine.parallel_w2_s"] = med.get("parallel_w2_s", 0.0)
    for label in GROUP_METRICS["checkpoint"]:
        metrics[f"storage.{label}"] = med.get(label, 0.0)
    metrics.update(references(seed))
    for method in METHODS:
        metrics[f"residual_max.{method}"] = max(
            untraced.residual_max.get(method, 0.0), traced.residual_max.get(method, 0.0)
        )
    attempted = untraced.attempted + traced.attempted
    failures = untraced.failures + traced.failures
    metrics["failed_frac"] = len(failures) / attempted if attempted else 0.0
    return metrics, attempted, failures, tracer, untraced


def peak_alloc(m) -> dict:
    """tracemalloc peak of one inversion per recursive method, in a pass of
    its own because tracemalloc slows every allocation."""
    import tracemalloc

    import blockinv as bi

    out = {f"recursive.{k}.peak_alloc_bytes": 0 for k in ("a", "inplace", "ad")}
    if m is None:
        return out
    calls = {"a": bi.invertor_by_a, "inplace": bi.invertor_inplace_by_a, "ad": bi.invertor_by_ad}
    tracemalloc.start()
    try:
        for method, call in calls.items():
            x = m.copy()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call(x)
            out[f"recursive.{method}.peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1] - base
            del x
    finally:
        tracemalloc.stop()
    return out


def references(seed: int) -> dict:
    """np.linalg.inv and the Gauss-Jordan oracle at REF_ORDERS; machine
    drift shows here, the program's changes do not."""
    import numpy as np

    import blockinv as bi
    from stats import median

    out = {}
    for order in REF_ORDERS:
        m = bi.generate(order, seed=seed + order)
        for name, fn in (("numpy_inv_s", np.linalg.inv), ("oracle_s", bi.gauss_jordan_oracle)):
            fn(m)  # warm-up: BLAS thread start and first-touch pages
            times = []
            for _ in range(REF_REPEATS):
                start = time.perf_counter()
                fn(m)
                times.append(time.perf_counter() - start)
            out[f"ref.{name}.{order}"] = median(times)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so the temporary directories go too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cap_threads()
    if import_blockinv() is None:
        return 2
    from stats import median, median_ratio

    OUT.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        env = environment(tmp_root)
        inputs, first_setup = set_up(args.seed, tmp_root)
        setup_times = [first_setup]
        record = {"workload": args.workload, "seed": args.seed, "env": env,
                  "setup_times": setup_times}
        print(f"blockinv benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
        print(f"  nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
              f"blas {env['blas'].get('name')} {env['blas'].get('version')}, "
              f"threads {env['threads']}, checkpoint fs {env['checkpoint_fs']}")
        if args.trace == 0:
            session = measure(args.workload, args.seed, tmp_root, inputs, args.seconds, setup_times)
            setup_s = median(setup_times)
            print(f"  setup_s median {setup_s:.6f} s  n={len(setup_times)}")
            for line in summarize(session.samples, session.cal_samples):
                print(line)
            metrics = {
                metric_name(label): {
                    "value": median_ratio(session.samples[label], session.cal_samples[label]),
                    "unit": "cal",
                }
                for label in END_TO_END
            }
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
            attempted, failures = session.attempted, session.failures
            record["samples"] = session.samples
            record["cal_samples"] = session.cal_samples
        else:
            print(f"  setup_s {first_setup:.6f} s  n=1")
            values, attempted, failures, tracer, untraced = trace_run(
                args.workload, inputs, args.seed
            )
            for line in summarize(untraced.samples, untraced.cal_samples):
                print(line)
            for name, value in values.items():
                print(f"  {name:40s} {value}")
            metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
            tracer.write_jsonl(OUT / f"{tag}-spans.jsonl")
        for label, message in failures:
            print(f"  FAILED {label}: {message}")
        record.update(metrics=metrics, attempted=attempted, failures=failures)
        (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


RATIOS = ("failed_frac", "trace.overhead_frac", "trace.coverage",
          "schur.pivot_success_ratio", "engine.w2_efficiency")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith((".s", "_s")) or name.startswith("ref."):
        return "s"
    if name in RATIOS:
        return "ratio"
    if name.startswith("residual_max."):
        return "max_abs"
    return {"core.flops": "flop", "core.gflops": "Gflop/s"}.get(name, "count")


if __name__ == "__main__":
    sys.exit(main())
