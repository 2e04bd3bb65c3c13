"""Exception types shared across the package."""


class BitmixError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(BitmixError, ValueError):
    """Parameters outside the supported domain (k > n, xi >= 1/2, ...)."""


class ShapeMismatch(BitmixError, ValueError):
    """Two objects that must share (k, w, c1, ...) do not."""


class IndexOutOfRange(BitmixError, IndexError):
    """An item or string index outside its valid range."""


class ConstructionFailed(BitmixError, RuntimeError):
    """Randomized set construction exhausted its attempt budget."""


class TooManyErasures(BitmixError, ValueError):
    """Erasure count exceeds the code's worst-case capability w - m."""


class InconsistentWord(BitmixError, ValueError):
    """No codeword agrees with the non-erased symbols."""


class DecodingFailure(BitmixError, RuntimeError):
    """No codeword within the errors-and-erasures radius."""


class MalformedResultFile(BitmixError, ValueError):
    """A results file is missing, truncated, or structurally invalid."""


class CorruptDesignFile(BitmixError, ValueError):
    """A persisted design fails its content hash or internal consistency."""
