import json

import numpy as np
import pytest
from hypothesis import settings

from blockinv.engine import run_inversion

# Tier-1 runs the same examples every time, and keeps no database of
# failing ones between runs; example counts are set per test
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def well_conditioned(order, seed):
    """Diagonally dominant test matrix; every pivot path stays nonsingular."""
    g = np.random.default_rng(seed)
    m = g.uniform(-1.0, 1.0, (order, order))
    m[np.diag_indices(order)] += 2.0 * order
    return m


def stopped_over_stale_files(directory, m):
    """Leave ``directory`` as an order-``len(m)`` run stopped after step 8,
    started over the block files of an order-32 run whose meta.json is gone
    (as a save torn before its last write leaves it)."""
    run_inversion(well_conditioned(32, 32), checkpoint_dir=directory, stop_after_step=20)
    (directory / "meta.json").unlink()
    run_inversion(m, checkpoint_dir=directory, stop_after_step=8)


# meta.json fields of the wrong type, written over a checkpoint stopped after
# step 3; each must read as a corrupt checkpoint
BAD_META_FIELDS = [
    ("stepid", "3"),
    ("sizes", 5),
    ("sizes", None),
    ("sizes", ["2", "2", "2", "3"]),
    ("blocksize", "4"),
    ("input_hash", 7),
]


def rewrite_meta(directory, key, value):
    path = directory / "meta.json"
    meta = json.loads(path.read_text())
    meta[key] = value
    path.write_text(json.dumps(meta))
