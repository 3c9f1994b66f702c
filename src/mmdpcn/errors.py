"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class NonFinite(ArithmeticError):
    """A computation produced NaN or Inf."""


class ZeroColumn(ValueError):
    """A matrix column with (near-)zero norm cannot be normalized."""


class GridMismatch(ValueError):
    """Frame dimensions are not divisible by the patch grid."""


class FormatError(ValueError):
    """A file does not match its expected binary/text layout."""


class LengthMismatch(ValueError):
    """Paired sequences differ in length."""


class EmptyVector(ValueError):
    """An operation that needs at least one element received none."""


class InvalidK(ValueError):
    """Cluster count is outside the valid range."""


class DegenerateData(ValueError):
    """Input data has insufficient rank/variation for the request."""


class ConfigError(ValueError):
    """A configuration file or value failed validation."""


class IoError(OSError):
    """Reading or writing a dataset/model artifact failed."""
