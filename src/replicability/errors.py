"""Exception types shared across the package."""


class ReplicabilityError(Exception):
    """Base class for errors raised by this package."""


class DataError(ReplicabilityError):
    """The input data cannot be analyzed as requested (missing follow-up
    p-values, inconsistent overrides, malformed files, bad configuration)."""


class ParameterError(DataError, ValueError):
    """A parameter lies outside the range the procedures are defined for,
    or is missing where one is required. Raised by every parameter check;
    it is also a ``ValueError``."""


class ApplicabilityError(ReplicabilityError):
    """A procedure variant is not applicable with the given parameters,
    e.g. the thresholded dependence correction when the selection threshold
    is too large. Callers should fall back to a more conservative variant."""
