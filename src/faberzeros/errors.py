"""Exception types shared across the package."""

__all__ = ["DomainError", "NumericalError"]


class DomainError(ValueError):
    """An input is outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """An iterative numerical method failed to converge.

    The best iterate found so far, when available, is attached as
    ``best`` so callers can inspect how close the method got.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
