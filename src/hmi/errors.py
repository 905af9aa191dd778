"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input is outside an operation's documented domain."""


class NotDecomposableError(DomainError):
    """Raised when a factorization is requested for a non-decomposable
    complex.  Carries a witness: either a chordless cycle (list of vertices)
    or a minimal non-face that is a clique of the 1-skeleton."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PolynomialSyntaxError(DomainError):
    """Polynomial text did not match the grammar.  ``offset`` is the
    character index (not the UTF-8 byte) of the offending token, or the
    text's length at its end; the message still says "at byte"."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset
