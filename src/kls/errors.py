"""Exception types shared across the library."""


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


class BreakdownError(RuntimeError):
    """A column became numerically dependent on the basis.

    ``kind`` is ``"dependent"`` when the projected column vanished, or
    ``"pythagorean"`` when the lagged norm update cancelled catastrophically.
    """

    def __init__(self, message, kind="dependent", column=None):
        super().__init__(message)
        self.kind = kind
        self.column = column


class NonFiniteError(ValueError):
    """A column, operator image or Schur input holds NaN or infinity.

    ``scheme`` names the orthogonalization scheme and ``step`` the column
    it arrived as: the QR column index, or the Arnoldi step whose basis
    column it would have produced.  Both are None for a Schur input.
    """

    def __init__(self, message, scheme=None, step=None):
        super().__init__(message)
        self.scheme = scheme
        self.step = step


class IterationLimitError(RuntimeError):
    """An iterative kernel exceeded its sweep budget without converging."""


class UnknownSchemeError(ValueError):
    """Orthogonalization scheme id not recognized."""


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input.

    ``line`` carries the 1-based offending line number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
