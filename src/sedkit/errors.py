"""Exception types shared across the toolkit."""


class ShapeMismatchError(ValueError):
    """Operands or gradients have incompatible shapes."""


class ConstantInputError(ValueError):
    """Correlation requested on a constant sequence; the value is undefined."""


class DataError(ValueError):
    """Invalid or malformed input data (bad labels, out-of-range gold, ...)."""


class ConfigError(ValueError):
    """Invalid run configuration (unknown key, bad value, bad stage order)."""


class CheckpointError(ValueError):
    """Checkpoint container cannot be read or written."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint claims a format version other than the supported one."""


class DivergenceError(ValueError):
    """Training produced a non-finite loss."""


class DetachedParameterError(ValueError):
    """A parameter's values or gradient were rebound away from the arrays
    its optimizer owns, so a step would not reach them."""
