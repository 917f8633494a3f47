"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid argument: out-of-domain value, dimension mismatch, bad range."""


class PreconditionError(InputError):
    """A caller-guaranteed precondition failed re-verification.

    Raised by checks that distinguish "the hypothesis was violated" from
    "the inequality under test failed".
    """


class NumericalError(ArithmeticError):
    """A numerical routine failed to converge within its iteration cap."""


class ConfigurationError(RuntimeError):
    """A sampler or harness could not be set up as requested."""


class DeclarationError(ValueError):
    """Declared map constants contradict numerical evidence."""


class BudgetExhaustedError(RuntimeError):
    """Step cap hit before the stopping criterion fired.

    Carries the partial trace so callers can inspect how far the run got.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class ResolutionFloorError(BudgetExhaustedError):
    """The a posteriori bound stalled above eps at the resolution floor.

    The displacement stopped changing, so no later step in the same
    arithmetic can certify eps.  Carries the partial trace and `floor`,
    the stalled bound value: the smallest eps this arithmetic could have
    certified on this orbit.
    """

    def __init__(self, message: str, trace=None, floor=None):
        super().__init__(message, trace=trace)
        self.floor = floor
