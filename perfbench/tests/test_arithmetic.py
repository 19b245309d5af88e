"""Checks of the benchmark's own arithmetic on hand-made inputs.

    python3 -m pytest perfbench/tests -q
"""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from layers import schur_metrics, step_phases, trace_metrics  # noqa: E402
from stats import (  # noqa: E402
    covered_length,
    median,
    median_ratio,
    percentile,
    pivot_attempts,
    quartile_spread,
    self_time,
    tail_percentile,
)
from tracing import Span  # noqa: E402


def span(sid, name, start, end, parent=None, inversion=1, error=False, **attrs):
    return Span(sid, name, start, end, parent, inversion, error, attrs or None)


def test_self_time_subtracts_disjoint_children():
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    # two worker threads busy at the same time cover [2, 7] once
    assert self_time(0.0, 10.0, [(2.0, 6.0), (4.0, 7.0), (5.0, 5.5)]) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    assert self_time(2.0, 4.0, [(0.0, 3.0), (3.5, 9.0), (5.0, 6.0)]) == pytest.approx(0.5)


def test_self_time_without_children_is_the_duration():
    assert self_time(1.0, 1.25, []) == pytest.approx(0.25)


def test_covered_length_of_touching_intervals():
    assert covered_length([(0.0, 1.0), (1.0, 2.0)], 0.0, 5.0) == pytest.approx(2.0)


def test_median_of_even_and_odd_counts():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_median_ratio_pairs_each_sample_with_its_calibration():
    # median(1/1, 4/8, 9/3) = 1, not median(values) / median(refs) = 4/3
    assert median_ratio([1.0, 4.0, 9.0], [1.0, 8.0, 3.0]) == pytest.approx(1.0)
    assert median_ratio([2.0, 2.0, 8.0, 3.0], [1.0, 2.0, 2.0, 1.0]) == pytest.approx(2.5)


def test_median_ratio_needs_one_reference_per_value():
    with pytest.raises(ValueError):
        median_ratio([1.0, 2.0], [1.0])


def test_metric_names_follow_the_timed_labels():
    from run import END_TO_END, metric_name

    assert metric_name("a_s") == "a_cal"
    assert metric_name("parallel_coarse_w1_s") == "parallel_coarse_w1_cal"
    assert len({metric_name(label) for label in END_TO_END}) == len(END_TO_END)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99.9) == 100
    assert percentile([7.0], 90) == 7.0
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(19))) is None  # p50 rank 10, 9 beyond
    assert tail_percentile(list(range(20))) == (50.0, 9)
    assert tail_percentile(list(range(100))) == (90.0, 89)
    assert tail_percentile(list(range(1000))) == (99.0, 989)


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 1.1, 0.9, 1.2, 1.05, 0.95, 1.0, 1.3, 0.98, 1.02]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_pivot_attempts_follow_the_fallback_order():
    assert [pivot_attempts(f) for f in ("via_a", "via_d", "via_b", "via_c")] == [1, 2, 3, 4]
    assert pivot_attempts(None) == 4
    with pytest.raises(ValueError):
        pivot_attempts("via_x")


def test_schur_metrics_derive_attempts_and_success_ratio():
    spans = [
        span(2, "schur.invert_with_fallback", 0.0, 4.0, parent=1, formula="via_b"),
        span(3, "schur.invert_with_fallback", 0.5, 1.0, parent=2, error=True),
        span(4, "schur.invert_with_fallback", 1.0, 2.0, parent=2, formula="via_a"),
        span(5, "core.multiply", 2.0, 3.0, parent=2, flops=16),
    ]
    kids = {2: spans[1:]}
    out = schur_metrics(spans, kids)
    assert out["schur.fallback_nodes"] == 3
    assert out["schur.pivot_attempts"] == 3 + 4 + 1
    assert out["schur.pivot_success_ratio"] == pytest.approx(2 / 8)
    assert out["schur.formula.via_b"] == 1 and out["schur.formula.via_a"] == 1
    # the outer call's children cover [0.5, 3]; the inner two have none
    assert out["schur.self_s"] == pytest.approx(1.5 + 0.5 + 1.0)


def test_step_phases_run_between_plans_and_skip_saves():
    run = span(10, "engine.run_inversion", 0.0, 10.0)
    children = [
        span(11, "engine.step_plan", 1.0, 1.0, parent=10, kind="invert_diagonals"),
        span(12, "storage.checkpoint_save", 3.0, 4.0, parent=10),
        span(13, "engine.step_plan", 4.0, 4.0, parent=10, kind="arrows_and_schur"),
        span(14, "storage.checkpoint_save", 8.0, 9.5, parent=10),
    ]
    steps, phases = step_phases(run, {10: children})
    assert steps == 2
    assert phases["invert_diagonals"] == pytest.approx(2.0)  # [1, 4) minus the save
    assert phases["arrows_and_schur"] == pytest.approx(4.5)  # [4, 10) minus the save
    assert phases["schur_diag_and_assemble"] == 0.0


def test_trace_metrics_coverage_and_overhead():
    spans = [
        span(1, "inversion", 0.0, 10.0, label="a_s"),
        span(2, "recursive.invertor_by_a", 0.5, 9.5, parent=1),
        span(3, "core.multiply", 1.0, 2.0, parent=2),
    ]
    out = trace_metrics(spans, untraced_s=8.0)
    assert out["trace.coverage"] == pytest.approx(0.9)
    assert out["trace.overhead_frac"] == pytest.approx(0.25)


def test_tracer_wraps_every_holder_and_restores_them():
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    import blockinv
    from blockinv import core, recursive

    from tracing import Tracer

    originals = (core.multiply, recursive.multiply, blockinv.invertor_by_a)
    tracer = Tracer()
    tracer.install()
    try:
        assert recursive.multiply is not originals[1]
        assert recursive.multiply is core.multiply
        with tracer.inversion("a_s"):
            blockinv.invertor_by_a(blockinv.generate(16, seed=3))
    finally:
        tracer.uninstall()
    assert (core.multiply, recursive.multiply, blockinv.invertor_by_a) == originals
    names = {s.name for s in tracer.spans}
    assert {"inversion", "recursive.invertor_by_a", "core.multiply"} <= names
    top = [s for s in tracer.spans if s.name == "recursive.invertor_by_a"]
    assert len(top) == 1 and all(s.inversion == top[0].parent for s in tracer.spans)
