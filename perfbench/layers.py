"""Per-layer metrics from the spans of one traced pass.

Every count and time is a total over the traced pass (one sample of each
of the workload's groups), except where a name says otherwise.  A layer the
workload does not reach reports zeros.
"""

from __future__ import annotations

from collections import defaultdict

from stats import pivot_attempts, self_time

INPLACE_NAMES = ("core.multiply_inplace_left", "core.multiply_inplace_right")
MULTIPLY_NAMES = ("core.multiply", "core.schur_accumulate")
RECURSIVE_METHODS = {
    "recursive.invertor_by_a": "a",
    "recursive.invertor_inplace_by_a": "inplace",
    "recursive.invertor_by_ad": "ad",
}
LOAD_NAMES = ("storage.checkpoint_load", "storage.load_minv_store", "storage.load_tsets")
STEP_KINDS = ("invert_diagonals", "arrows_and_schur", "schur_diag_and_assemble")
COUNTER_FIELDS = ("nodes", "multiplies", "reductions", "inversions", "peak_scratch", "schur_scratch")


def _children(spans):
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def _self(span, kids) -> float:
    return self_time(span.start, span.end, [(c.start, c.end) for c in kids.get(span.sid, ())])


def _total(spans, names) -> tuple[int, float]:
    hits = [s for s in spans if s.name in names]
    return len(hits), sum(s.seconds for s in hits)


def core_metrics(spans) -> dict:
    mult_n, mult_s = _total(spans, MULTIPLY_NAMES)
    inpl_n, inpl_s = _total(spans, INPLACE_NAMES)
    inv_n, inv_s = _total(spans, ("core.invert_small",))
    flops = sum(
        s.attrs["flops"] for s in spans
        if s.name in MULTIPLY_NAMES + INPLACE_NAMES and s.attrs
    )
    busy = mult_s + inpl_s
    return {
        "core.multiply.calls": mult_n,
        "core.multiply.s": mult_s,
        "core.inplace.calls": inpl_n,
        "core.inplace.s": inpl_s,
        "core.flops": flops,
        "core.gflops": flops / busy / 1e9 if busy > 0 else 0.0,
        "core.invert_small.calls": inv_n,
        "core.invert_small.s": inv_s,
    }


def recursive_metrics(spans, kids, labels, counters) -> dict:
    """``counters`` maps method -> OpCounters values on the large input;
    ``labels`` maps inversion id -> the timed metric it belongs to."""
    out = {}
    for method in RECURSIVE_METHODS.values():
        values = counters.get(method, {})
        for field in COUNTER_FIELDS:
            out[f"recursive.{method}.{field}"] = values.get(field, 0)
        out[f"recursive.{method}.self_s"] = 0.0
        out[f"recursive.{method}.small_self_s"] = 0.0
    small_inversions = defaultdict(set)
    for s in spans:
        method = RECURSIVE_METHODS.get(s.name)
        if method is None:
            continue
        if labels.get(s.inversion, "").endswith("_small_s"):
            out[f"recursive.{method}.small_self_s"] += _self(s, kids)
            small_inversions[method].add(s.inversion)
        else:
            out[f"recursive.{method}.self_s"] += _self(s, kids)
    for method, ids in small_inversions.items():
        out[f"recursive.{method}.small_self_s"] /= len(ids)
    return out


def schur_metrics(spans, kids) -> dict:
    calls = [s for s in spans if s.name == "schur.invert_with_fallback"]
    formulas = {name: 0 for name in ("via_a", "via_d", "via_b", "via_c")}
    attempts = successes = 0
    for s in calls:
        formula = None if s.error or not s.attrs else s.attrs["formula"]
        attempts += pivot_attempts(formula)
        if formula is not None:
            successes += 1
            formulas[formula] += 1
    out = {
        "schur.fallback_nodes": len(calls),
        "schur.pivot_attempts": attempts,
        "schur.pivot_success_ratio": successes / attempts if attempts else 0.0,
        "schur.self_s": sum(_self(s, kids) for s in calls),
    }
    out.update({f"schur.formula.{k}": v for k, v in formulas.items()})
    return out


def step_phases(run, kids) -> tuple[int, dict]:
    """(steps, seconds per step kind) of one run_inversion span.

    A step runs from its step_plan call to the next one, or to the end of
    the run; checkpoint saves inside that interval are not step time.
    """
    children = kids.get(run.sid, ())
    marks = sorted((c for c in children if c.name == "engine.step_plan"), key=lambda c: c.start)
    saves = [(c.start, c.end) for c in children if c.name == "storage.checkpoint_save"]
    phases = dict.fromkeys(STEP_KINDS, 0.0)
    for i, mark in enumerate(marks):
        end = marks[i + 1].start if i + 1 < len(marks) else run.end
        phases[mark.attrs["kind"]] += self_time(mark.start, end, saves)
    return len(marks), phases


def engine_metrics(spans, kids, counters, w2_efficiency) -> dict:
    runs = sorted((s for s in spans if s.name == "engine.run_inversion"), key=lambda s: s.start)
    steps = 0
    phases = dict.fromkeys(STEP_KINDS, 0.0)
    for i, run in enumerate(runs):
        n, per_kind = step_phases(run, kids)
        if i == 0:
            steps = n
        for kind, seconds in per_kind.items():
            phases[kind] += seconds
    fox_n, fox_s = _total(spans, ("engine.fox_block_multiply",))
    out = {"engine.steps": steps}
    out.update({f"engine.{kind}.s": phases[kind] for kind in STEP_KINDS})
    out.update({
        "engine.fox_block_multiply.calls": fox_n,
        "engine.fox_block_multiply.s": fox_s,
        "engine.multiplies": counters.get("multiplies", 0),
        "engine.reductions": counters.get("reductions", 0),
        "engine.inversions": counters.get("inversions", 0),
        "engine.w2_efficiency": w2_efficiency,
    })
    return out


def storage_metrics(spans, kids, ckpt_bytes: int) -> dict:
    saves = [s for s in spans if s.name == "storage.checkpoint_save"]
    writes = [s for s in spans if s.name == "storage.save_binary"]
    reads = [s for s in spans if s.name == "storage.load_binary"]
    save_self = 0.0
    for s in saves:
        blk = [(c.start, c.end) for c in kids.get(s.sid, ()) if c.name == "storage.save_binary"]
        save_self += self_time(s.start, s.end, blk)
    return {
        "storage.save.calls": len(saves),
        "storage.save.s": sum(s.seconds for s in saves),
        "storage.save_self_s": save_self,
        "storage.load.s": _total(spans, LOAD_NAMES)[1],
        "storage.blk_writes": len(writes),
        "storage.blk_write_bytes": sum(s.attrs["bytes"] for s in writes if s.attrs),
        "storage.blk_reads": len(reads),
        "storage.blk_read_bytes": sum(s.attrs["bytes"] for s in reads if s.attrs),
        "storage.blk_io_s": sum(s.seconds for s in writes + reads),
        "storage.ckpt_bytes": ckpt_bytes,
    }


def trace_metrics(spans, untraced_s: float) -> dict:
    """Overhead of the traced pass over the untraced one, and the share of
    the traced inversions' wall time that their top spans cover."""
    roots = {s.sid: s for s in spans if s.name == "inversion"}
    wall = sum(s.seconds for s in roots.values())
    top = sum(s.seconds for s in spans if s.parent in roots)
    return {
        "trace.overhead_frac": wall / untraced_s - 1.0 if untraced_s > 0 else 0.0,
        "trace.coverage": top / wall if wall > 0 else 0.0,
    }


def layer_metrics(tracer_spans, counters, ckpt_bytes, w2_efficiency, untraced_s) -> dict:
    """All per-layer metrics of a traced pass.

    Spans outside a timed inversion (the untimed stopped run before a
    resume) are left out.
    """
    spans = [s for s in tracer_spans if s.inversion is not None]
    labels = {s.sid: s.attrs["label"] for s in spans if s.name == "inversion"}
    kids = _children(spans)
    out = {}
    out.update(core_metrics(spans))
    out.update(recursive_metrics(spans, kids, labels, counters.get("recursive", {})))
    out.update(schur_metrics(spans, kids))
    out.update(engine_metrics(spans, kids, counters.get("engine", {}), w2_efficiency))
    out.update(storage_metrics(spans, kids, ckpt_bytes))
    out.update(trace_metrics(spans, untraced_s))
    return out
