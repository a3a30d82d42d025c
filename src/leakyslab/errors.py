"""Exception hierarchy for numerical failures.

Domain and validation problems raise plain ``ValueError``; the classes here
mark failures of an otherwise well-posed computation (CLI exit code 3).
"""


class LeakySlabError(RuntimeError):
    """Base class for numerical failures."""


class ConvergenceError(LeakySlabError):
    """An iterative solver exhausted its iteration budget."""


class RootJumpError(ConvergenceError):
    """A refined root left the trust region around its seed.

    Usually means two neighbouring seeds collided on the same root.
    """


class UnstableStepError(LeakySlabError):
    """A propagator step raised the norm by more than 1%, or made it non-finite.

    The transparent-boundary step cannot raise the norm of a finite column,
    so this flags a fault: a non-finite input or a broken step.
    """


class NonExponentialDecayError(LeakySlabError):
    """Core-power decay was not well described by a single exponential.

    The least-squares rate is still available as the ``rate`` attribute.
    """

    def __init__(self, message: str, rate: float, r_squared: float):
        super().__init__(message)
        self.rate = rate
        self.r_squared = r_squared


class PeakAmbiguityError(LeakySlabError):
    """A packet envelope showed more than one comparable maximum."""
