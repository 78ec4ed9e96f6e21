"""Exception hierarchy. The CLI maps these onto distinct exit codes. Bad
input errors are also ``ValueError``s, as library callers may expect."""


class DphmmError(Exception):
    """Base class for all package errors."""


class ConfigError(DphmmError, ValueError):
    """Invalid configuration or parameter specification."""


class DataError(DphmmError, ValueError):
    """Malformed or out-of-domain input data."""


class NumericalError(DphmmError):
    """A numerical routine failed to meet its contract."""


class StationarySolveError(NumericalError):
    """The stationary-law solve missed its residual tolerance."""


class ZeroLikelihoodError(NumericalError):
    """The observations carry zero probability under the model."""


class SamplerBudgetError(NumericalError):
    """A sampler exhausted its retry budget."""


class StarvationError(NumericalError):
    """Rejection sampling accepted nothing within its budget."""
