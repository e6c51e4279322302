"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Malformed or mismatched input data (shape, algebra, cover, index errors)."""


class RankAmbiguityError(ArithmeticError):
    """A numerical-rank decision is too close to its threshold to make (a
    singular value lies in the refusal band around it).  Carries diagnostics:
    the label, cover sets, singular values and rank margin."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class NotAMorphismError(ValueError):
    """A family of maps violated the intertwining condition of a gluing morphism."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ModelViolationError(ValueError):
    """Data claimed to be structural (e.g. a bimodule transition) failed the
    structural test that the model relies on."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class FormatError(ValueError):
    """A file could not be parsed against the JSON schema."""
