"""Exception types shared across the package, and the parameter checks.
A PatternError (a bad t or ell, from any entry point) is a ParameterError."""

import numbers


class CapacityError(ValueError):
    """Vertex count out of the supported range (1..64)."""


class EdgeStateError(ValueError):
    """Edge operation conflicts with the current edge set."""


class ParameterError(ValueError):
    """Construction or check parameters outside their domain."""


class PatternError(ParameterError):
    """Malformed or unsupported forbidden pattern, or its t or ell."""


class EtaUndefinedError(ValueError):
    """eta(u) requested for an isolated vertex."""


class ConstructionError(RuntimeError):
    """A constructed graph failed its own class assertions (a bug)."""


class ConfigError(ValueError):
    """Campaign config file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def check_sep(sep: float) -> None:
    """Reject a separation that is not a real number >= 0: NaN, a bool (it
    would read as 0 or 1) and a non-number are refused; ints, floats and
    numpy floats pass. A float, the common case, takes one test."""
    if type(sep) is float and sep >= 0:
        return
    if isinstance(sep, bool) or not isinstance(sep, numbers.Real) or not sep >= 0:
        raise ParameterError(f"sep must be nonnegative and a number (not a bool), got {sep!r}")


def check_max_steps(max_steps: int) -> None:
    if type(max_steps) is not int:  # a bool is no step count
        raise ParameterError(f"max_steps must be an int, got {max_steps!r}")
    if max_steps < 0:
        raise ParameterError(f"max_steps must be >= 0, got {max_steps}")
