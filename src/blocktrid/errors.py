"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have incompatible or invalid shapes."""


class ContractError(ValueError):
    """An input violates a documented precondition."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge."""


class SingularityError(ValueError):
    """A formula is undefined because the matrix involved is singular."""


class LinearVarietyError(ValueError):
    """The spectrum lies on a line rather than a genuine degree-2 curve.

    Callers should switch to the Hermitian-plus-rank-one treatment.
    """


class ConicFitError(ValueError):
    """The supplied points do not determine a usable degree-2 curve."""


class GenerationError(RuntimeError):
    """A randomized generator exhausted its retry budget."""


class SolverFailure(RuntimeError):
    """A constructed solution of the commutator equation does not certify
    against the given perturbation."""
