"""Exception types raised by the nclp library."""


class NclpError(Exception):
    """Base class for all nclp errors."""


class NonFiniteError(NclpError):
    """Input data contains NaN or an infinity."""


class ShapeError(NclpError):
    """A block matrix does not match the shape prescribed by its algebra."""


class AlgebraMismatchError(NclpError):
    """Two operands live in incompatible block algebras."""


class NotPositiveError(NclpError):
    """An element required to be positive semidefinite is not, beyond tolerance."""


class NonFaithfulError(NclpError):
    """A weight required to be faithful has a kernel."""


class GradingError(NclpError):
    """A grading violates the constraints of the requested operation."""


class OutOfRangeError(NclpError):
    """A result of finite inputs lies outside the float range."""


class _ResidualError(NclpError):
    """An error decided by a residual, which it carries as .residual."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual

    def __reduce__(self):
        # Exception pickles self.args alone, which leaves out the residual
        return type(self), (*self.args, self.residual)


class UnsolvableError(_ResidualError):
    """The division p @ x = y has no solution; carries the best residual."""


class ConditionViolatedError(_ResidualError):
    """A numerical precondition (e.g. x*x = y*y) fails beyond tolerance."""


class NotModuleMapError(_ResidualError):
    """A linear map fails right-module linearity; carries the worst residual."""


class ValidationError(NclpError):
    """An operator-valued weight violates positivity or the bimodule law."""
