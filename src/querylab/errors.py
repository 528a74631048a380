"""Exception types shared across the package."""


class QuerylabError(Exception):
    """Base class for all package errors."""


class ParameterError(QuerylabError, ValueError):
    """A numeric or enum parameter is outside its documented domain."""


class DimensionError(QuerylabError, ValueError):
    """Operands have incompatible shapes or register layouts."""


class DegeneracyError(QuerylabError, ValueError):
    """An input family is numerically rank-deficient where full rank is required."""


class ResourceLimitError(QuerylabError, RuntimeError):
    """A computation would exceed an explicit size or query cap."""


class ConfigError(QuerylabError, ValueError):
    """A config file or option set cannot be parsed or validated.

    Carries the 1-based line number of the offending line when known, and
    the config key at fault when one is.
    """

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        self.line = line
        self.key = key
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
