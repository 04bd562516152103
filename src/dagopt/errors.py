"""Exception types shared across the package."""


class DagoptError(Exception):
    """Base class for all package-specific errors."""


# network
class DisconnectedTopology(DagoptError):
    pass


class SpectralViolation(DagoptError):
    pass


class InfeasibleDegree(DagoptError):
    pass


# problems
class InfeasibleBudget(DagoptError):
    pass


class PointTooCloseToBoundary(DagoptError):
    pass


# privacy
class DenominatorNonpositive(DagoptError):
    pass


class RegimeViolation(DagoptError):
    pass


# harness
class ConfigError(DagoptError):
    pass
