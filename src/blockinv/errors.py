"""Exception types shared across the package."""


class BlockInvError(Exception):
    """Base class for all blockinv errors."""


class DimensionMismatch(BlockInvError):
    """Operand shapes are incompatible for the requested operation."""


class AliasedOperands(BlockInvError):
    """A kernel's destination overlaps one of its inputs."""


class ScratchTooSmall(BlockInvError):
    """A caller-provided scratch buffer is shorter than required."""


class SingularMatrix(BlockInvError):
    """Gauss-Jordan elimination hit a pivot column with no usable pivot."""


class SingularBlock(BlockInvError):
    """A pivot block (or its Schur complement) is numerically singular.

    ``block`` names the offending pivot ("A", "D", "B", "C", "SchurA", ...).
    ``path`` records the recursion path from the top-level call, e.g.
    ["A", "SchurA"]; ``step``/``quad`` locate failures inside the step
    engine.
    """

    def __init__(self, block, path=None, step=None, quad=None):
        self.block = block
        self.path = list(path) if path else []
        self.step = step
        self.quad = quad
        where = ".".join(self.path + [block]) if self.path else block
        extra = ""
        if step is not None:
            extra = f" (step {step}" + (f", quad {quad})" if quad is not None else ")")
        super().__init__(f"singular pivot {where}{extra}")


class NonFiniteResult(BlockInvError):
    """A finite input inverted to NaN or Inf entries: some intermediate
    over- or underflowed without any pivot testing singular."""


class AllPivotsSingular(BlockInvError):
    """Every pivot formula failed for the given split."""


class InvalidOrder(BlockInvError):
    """Matrix order outside the supported range."""


class InvalidWorkers(BlockInvError, ValueError):
    """Worker count is not a positive integer."""


class BlockShapeMismatch(BlockInvError):
    """Blocked operands do not agree block-by-block."""


class OutOfRange(BlockInvError):
    """stepid outside 1..N_s."""


class MalformedLoopid(BlockInvError):
    """loopid array violates the decreasing-prefix/zero-suffix structure."""


class OverlappingWriteTargets(BlockInvError):
    """Two items of one engine layout would write the same block."""


class MissingProvisionalData(BlockInvError):
    """An assembly pass needs provisional blocks that were never stored."""


class MissingCheckpointDir(BlockInvError, ValueError):
    """File-backed mode was asked for without a checkpoint directory."""


class CheckpointCorrupt(BlockInvError):
    """Checkpoint directory fails its integrity hash or is unreadable."""


class SchemeMismatch(BlockInvError):
    """Checkpoint was produced for a different input matrix or partition."""


class InsufficientData(BlockInvError):
    """Too few benchmark records in range for a slope fit."""


class FormatError(BlockInvError):
    """Matrix input is malformed or contains non-finite entries."""
