"""Exception types shared across the package."""


class TeamoptError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(TeamoptError):
    """Array dimensions inconsistent with a model or operation."""


class InputError(TeamoptError):
    """Invalid input data (non-finite values, empty or mismatched lists)."""


class ConfigError(TeamoptError):
    """Invalid configuration value."""


class NumericError(TeamoptError):
    """Non-finite value produced during computation.

    ``index`` identifies the offending minibatch instance when known, and
    ``replica`` its position in a stack of replicas trained together.
    """

    def __init__(self, message: str, index: int | None = None,
                 replica: int | None = None):
        super().__init__(message)
        self.index = index
        self.replica = replica


class ParseError(TeamoptError):
    """Malformed input file. ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class StateError(TeamoptError):
    """Operation invoked on an object in the wrong state."""


class QueryError(TeamoptError):
    """Human response provider failed during simulation."""


class TrainingError(TeamoptError):
    """Training diverged. ``iteration`` is the failing step when known, and
    ``run`` the failing run's position among the runs trained together."""

    def __init__(self, message: str, iteration: int | None = None,
                 run: int | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.run = run
