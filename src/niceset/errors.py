"""Exception types shared across the package, and the one rule by which the
public API accepts its numbers (:func:`count`, :func:`real`, :func:`open_unit`).

A parameter of the wrong type, such as a non-integer count or a string for a
real number, raises :class:`TypeError`; a value outside its domain raises
:class:`ValueError` (or the :class:`CsvError` subclass, which carries
coordinates).  Exhausted search or enumeration budgets raise
:class:`BudgetError` so callers can distinguish "input is wrong" from "input
is too big for this method".
"""

from __future__ import annotations

import numbers
import operator


def count(name: str, value, minimum: int) -> int:
    """``value`` as an ``int`` of at least ``minimum``.  A non-integer
    (``2.5``, NaN, ``"3"``) raises :class:`TypeError`, a smaller value
    :class:`ValueError`; both messages name ``name``."""
    try:
        value = operator.index(value)
    except TypeError as exc:
        raise TypeError(f"{name}: {exc}") from None
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")
    return value


def real(name: str, value):
    """``value`` if it is a real number (``numbers.Real``, numpy scalars too);
    anything else, ``"0.5"`` and ``None`` included, raises :class:`TypeError`."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, not {type(value).__name__}")
    return value


def open_unit(name: str, value: float) -> None:
    """Raise :class:`ValueError` naming ``name`` unless ``0 < value < 1``."""
    if not 0.0 < real(name, value) < 1.0:  # negated, so that NaN fails it too
        raise ValueError(f"{name} must lie strictly between 0 and 1")


class BudgetError(RuntimeError):
    """A search or enumeration exceeded its configured budget.

    ``best_vertices`` carries the best solution found before the budget ran
    out, when the operation has one, and ``best_size`` its size (else both
    are ``None``); the size is read from the vertices, not stored beside them.
    """

    def __init__(self, message: str, *, best_vertices: frozenset[int] | None = None):
        super().__init__(message)
        self.best_vertices = best_vertices

    @property
    def best_size(self) -> int | None:
        return None if self.best_vertices is None else len(self.best_vertices)


class CsvError(ValueError):
    """A CSV file could not be parsed into a numeric feature matrix."""

    def __init__(self, message: str, *, record: int | None = None,
                 column: str | int | None = None):
        super().__init__(message)
        self.record = record
        self.column = column
