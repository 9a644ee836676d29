"""Exception types shared across the package."""


class SplitLabError(Exception):
    """Base class for all package errors."""


class ShapeError(SplitLabError):
    """Tensor shapes incompatible with the requested operation."""


class GraphError(SplitLabError):
    """Misuse of a computation graph (non-scalar backward, double backward)."""


class NumericError(SplitLabError):
    """NaN/Inf encountered where finite values are required."""


class ProtocolError(SplitLabError):
    """Malformed frame or out-of-order message on a split-training session."""


class CheckpointError(SplitLabError):
    """Unreadable or mismatched checkpoint file."""


class DataError(SplitLabError):
    """Malformed dataset file."""


class ConfigError(SplitLabError):
    """Invalid run configuration."""


class TieError(SplitLabError):
    """Label inference produced a fully degenerate distance vector."""
