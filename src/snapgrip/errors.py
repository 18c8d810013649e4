"""Exception hierarchy shared across the package.

``DomainError`` subclasses map to CLI exit code 2 (bad physics/inputs,
never a bug); everything else propagates as a normal traceback.
"""


class SnapgripError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SnapgripError):
    """Errors caused by the problem posed, not by the implementation."""


class InvalidArgumentError(DomainError, ValueError):
    """A solver or study argument lies outside its documented range."""


class InvalidDesignError(InvalidArgumentError):
    """A design, the argument of every solver, violates one of its
    documented invariants."""


class CurvatureOutOfRangeError(DomainError, ValueError):
    """Bending curvature puts a fiber beyond the constitutive validity range."""


class NotBistableError(DomainError):
    """An operation requiring two stable states got a monostable design."""


class NonConvergenceError(DomainError):
    """A solver exhausted its iteration budget."""


class NonFiniteStateError(DomainError):
    """An integrated state or a sampled energy left the range of finite
    floating-point numbers, or their precision."""


class SaddleOrderError(DomainError):
    """A converged transition state has the wrong number of unstable directions."""


class StepSizeError(DomainError, ValueError):
    """Requested integrator step exceeds the stability bound."""


class TargetUnreachableError(DomainError):
    """A tuning target lies outside the reachable range."""


class ObjectTooLargeError(DomainError, ValueError):
    """The grasped object is wider than the open-state finger span."""


class BudgetExceededError(DomainError):
    """A sweep would evaluate more design points than the configured budget."""


class EmptyDataError(DomainError, ValueError):
    """Plot emission was asked to render an empty dataset."""


class ConfigError(DomainError):
    """One or more problems in a configuration file.

    ``problems`` is the full list of messages (with line numbers); the
    string form joins them so nothing is lost when only the message is shown.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
