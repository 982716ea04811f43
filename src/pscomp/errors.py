"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematically admissible domain."""


class ValidationError(ValueError):
    """A structural contract is violated (shapes, sums, monotonicity, keys)."""


class SingularityError(ArithmeticError):
    """Evaluation hit a branch cut, a pole, or a vanishing denominator.

    ``index`` optionally identifies the offending grid point, ``value`` the
    offending quantity, ``step`` the integration step during which the
    singularity occurred.
    """

    def __init__(self, message, index=None, value=None, step=None):
        super().__init__(message)
        self.index = index
        self.value = value
        self.step = step


class NonFiniteError(ArithmeticError):
    """A state holds nan or inf; ``step`` is the step that produced it."""

    def __init__(self, step=None):
        super().__init__("result has nan or inf")
        self.step = step
