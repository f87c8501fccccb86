"""Shared exception types."""


class GraphError(ValueError):
    """Malformed graph input, or an operation applied outside its domain."""


class SpecError(ValueError):
    """Unparseable graph expression or graph file."""


class CapExceeded(RuntimeError):
    """An exact search was refused because the instance exceeds its size cap."""


class WitnessError(ValueError):
    """A witness failed a check: bad inputs to a construction, or a solver bug."""
