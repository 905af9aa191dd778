"""Exception types shared across the package, and the readers that decide
which inputs lie outside an operation's domain.

Every reader but ``_json_int`` and ``_finite_real`` raises ``DomainError``
itself, with the message its caller gives (or builds from ``what``):

- ``_json_int(value)``: an int, or any integer type with ``__index__``
  (numpy integers too).  Booleans, floats and strings raise ``TypeError``
  instead of being rounded or converted, for readers that add their own
  context (the multi-index reader, the JSON-object readers).
- ``_int(value, message)``: one ``_json_int``.
- ``_ints(values, message)``: a list of them, read from an iterable; a
  non-iterable is refused too.
- ``_index(i, p, what)``: ``i`` as an int in 1..p; a non-integer ``p`` is
  refused as well.
- ``_positive_int(value, what)``: an int of at least 1.
- ``_finite_real(x)``: the predicate: a real number, not a boolean, not
  infinite or nan.
- ``_reals(values, message, positive=False)``: a tuple of floats read from
  an iterable of finite reals (positive ones with ``positive``); an int
  too large for a float is refused.
- ``_floats(values, what, positive=False)``: ``_reals`` with the message
  "<what>: expected [positive ]finite real numbers".
- ``_nonnegative_real(value, message)``: a real of at least 0, infinity
  included, returned as given (a ``Fraction`` stays exact); booleans and
  nan are refused.
"""
from __future__ import annotations

import math
import numbers
import operator


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


def _json_int(value) -> int:
    """A JSON integer as an int; floats, strings and booleans raise
    ``TypeError`` instead of being rounded or converted."""
    if isinstance(value, bool):
        raise TypeError("boolean where an integer is expected")
    return operator.index(value)


def _int(value, message: str) -> int:
    try:
        return _json_int(value)
    except TypeError:
        raise DomainError(message) from None


def _ints(values, message: str) -> list[int]:
    try:
        return list(map(_json_int, values))
    except TypeError:
        raise DomainError(message) from None


def _index(i, p, what: str) -> int:
    message = f"{what} {i!r} out of range 1..{p!r}"
    if 1 <= (n := _int(i, message)) <= _int(p, message):
        return n
    raise DomainError(message)


def _positive_int(value, what: str) -> int:
    message = f"{what} must be a positive integer"
    if (n := _int(value, message)) > 0:
        return n
    raise DomainError(message)


def _finite_real(x) -> bool:
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and abs(x) < math.inf)


def _reals(values, message: str, positive=False) -> tuple[float, ...]:
    try:
        values = tuple(values)
        if all(_finite_real(v) and (v > 0 or not positive) for v in values):
            return tuple(map(float, values))
    except (TypeError, OverflowError):
        pass
    raise DomainError(message)


def _floats(values, what: str, positive=False) -> tuple[float, ...]:
    return _reals(values, f"{what}: expected {'positive ' * positive}"
                  "finite real numbers", positive)


def _nonnegative_real(value, message: str):
    if isinstance(value, numbers.Real) and not isinstance(value, bool) \
            and value >= 0:
        return value
    raise DomainError(message)
