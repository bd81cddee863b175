"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """Model or protocol parameters violate a documented precondition."""


class DegenerateSubspaceError(RuntimeError):
    """The near-zero subspace of a chain is not a clean two-dimensional pair.

    Raised when the lowest excitation is not well separated from the bulk,
    which signals a Hamiltonian at (or past) the topological transition.
    """


class StepSizeTooCoarse(RuntimeError):
    """Time stepping violated the purity budget or the convergence check."""


class BasisMismatchError(ValueError):
    """A state was combined with a basis or state it does not match."""


class FitConvergenceError(RuntimeError):
    """A fitting routine failed to converge or its window is degenerate."""


class ConfigError(ValueError):
    """An experiment configuration failed validation."""
