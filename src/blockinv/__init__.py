"""Blockwise dense-matrix inversion.

Serial pivot-block procedures (fresh-storage, in-place, and combined-pivot)
plus a step-scheduled engine for matrices partitioned into a power-of-two
number of diagonal blocks, with checkpoint/resume and a benchmark harness.
"""

from .bench import SlopeFit, TimingRecord, bench, fit_slope, generate, write_csv
from .core import (
    OpCounters,
    gauss_jordan_oracle,
    invert_small,
    load_matrix,
    multiply,
    multiply_inplace_left,
    multiply_inplace_right,
    residual_norm,
    save_matrix,
    schur_accumulate,
)
from .engine import (
    BlockedView,
    StepAction,
    StepPlan,
    assemble_updown,
    decode_step,
    fox_block_multiply,
    loopid_for_step,
    run_inversion,
    step_plan,
    total_steps,
    updown_iteration_map,
)
from .partition import (
    PartitionScheme,
    QuadIndex,
    make_partition,
    partition_from_sizes,
    quad_views,
)
from .recursive import (
    invertor_by_a,
    invertor_by_ad,
    invertor_inplace_by_a,
    invertor_with_fallback,
)
from .schur import (
    BlockQuad,
    counterdiagonal_quad,
    diagonal_quad,
    invert_via_a,
    invert_via_ad,
    invert_via_b,
    invert_via_bc,
    invert_via_c,
    invert_via_d,
    invert_with_fallback,
)
from .storage import BlockMatrix, ProvisionalSet, checkpoint_load, checkpoint_save

__version__ = "0.1.0"
