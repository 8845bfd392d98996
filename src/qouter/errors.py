"""Exception types shared across the package."""


class CapacityError(ValueError):
    """Vertex count out of the supported range (1..64)."""


class EdgeStateError(ValueError):
    """Edge operation conflicts with the current edge set."""


class PatternError(ValueError):
    """Malformed or unsupported forbidden pattern."""


class ParameterError(ValueError):
    """Construction or check parameters outside their domain."""


class PreconditionError(ValueError):
    """A transform's structural hypothesis is not satisfied.

    `clause` names the first failed hypothesis.
    """

    def __init__(self, clause, message=None):
        super().__init__(message or clause)
        self.clause = clause


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
