"""Exception types shared across the package."""


class DagoptError(Exception):
    """Base class for all package-specific errors; its message names the
    failed condition."""


class ConfigError(DagoptError):
    pass
