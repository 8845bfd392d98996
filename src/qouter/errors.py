"""Exception types shared across the package, and the parameter checks."""


class CapacityError(ValueError):
    """Vertex count out of the supported range (1..64)."""


class EdgeStateError(ValueError):
    """Edge operation conflicts with the current edge set."""


class PatternError(ValueError):
    """Malformed or unsupported forbidden pattern."""


class ParameterError(ValueError):
    """Construction or check parameters outside their domain."""


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
    """Reject a separation that is not a number >= 0, NaN included."""
    if not sep >= 0:
        raise ParameterError("sep must be nonnegative")


def check_max_steps(max_steps: int) -> None:
    if type(max_steps) is not int:  # a bool is no step count
        raise ParameterError(f"max_steps must be an int, got {max_steps!r}")
    if max_steps < 0:
        raise ParameterError(f"max_steps must be >= 0, got {max_steps}")
