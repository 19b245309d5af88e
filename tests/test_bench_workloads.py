"""The benchmark's own calls into blockinv run on this checkout.

``perfbench/workloads.py`` is loaded by path and only read, as
``test_tracer_targets.py`` does with ``tracing.py``.  Its ``warm_up`` makes
one tiny call of every shape the benchmark uses (workers 2, explicit sizes,
``file_backed=True``, a checkpoint and a resume), so an API change that
would crash every benchmark run fails here instead.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_warm_up_runs(tmp_path):
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))  # for workloads' own layers/stats imports
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        workloads.warm_up(tmp_path)
    finally:
        sys.path[:] = saved_path
        for name in set(sys.modules) - saved_modules:  # perfbench's layers, stats
            if PERFBENCH in Path(getattr(sys.modules[name], "__file__", None) or "/").parents:
                del sys.modules[name]
