"""Exception types shared across the package, the budget of its size guards,
and the two rules of outside input: its text is read as records, and its
numbers must be integers."""

from __future__ import annotations

import os
from numbers import Integral


class BirackError(Exception):
    """Base class for all errors raised by this package."""


class InputError(BirackError, ValueError):
    """Outside input (a file, an argument, an environment variable, or tables,
    crossings and cochains passed in) is malformed or fails the axioms."""


class ResourceLimitExceeded(BirackError):
    """A computation would exceed the configured size budget, or, when fixed
    names the constant that sets limit, a bound that nothing can raise."""

    def __init__(self, what: str, needed: int, limit: int, fixed: str | None = None):
        self.what = what
        self.needed = needed
        self.limit = limit
        above = (f"the limit {limit}; raise the limit to proceed" if fixed is None
                 else f"the fixed bound {fixed} = {limit}")
        super().__init__(f"{what} needs {needed} cells, above {above}")


def check_budget(what, needed, override, keyword, variable, default):
    """Raise ResourceLimitExceeded if needed is above the budget: override,
    else $variable, else default.  A budget that is not a nonnegative integer
    is an InputError naming the keyword or variable it came from."""
    source, value = (keyword, override) if override is not None else (
        variable, os.environ.get(variable, default))
    if not str(value).strip().isdecimal():
        raise InputError(f"{source} must be a nonnegative integer, got {value!r}")
    if needed > int(value):
        raise ResourceLimitExceeded(what, needed, int(value))


def check_integers(what, values, size=None):
    """values as a tuple of Python ints, or InputError naming what when one
    is not an integer or, with size given, not an element label 1..size.

    numbers.Integral admits Python and numpy integers; a float or a string,
    which int() would truncate or parse, is refused.
    """
    values = tuple(values)
    if size is None and set(map(type, values)) <= {int}:
        return values  # the usual case, with no loop in Python
    span = "" if size is None else f" in 1..{size}"
    for v in values:
        if not isinstance(v, Integral) or (size is not None and not 1 <= v <= size):
            raise InputError(f"{what} must be integers{span}, got {v!r}")
    return tuple(map(int, values))


def records(text):
    """(line number, body) of each line of text whose body is not blank; the
    body is the line up to any `#`, which starts a comment, stripped.  The
    crossing-list, Gauss code, birack and cochain formats read their text
    through this."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            yield lineno, body


class NotReducedCocycle(Warning):
    """The supplied 2-cochain is not a reduced cocycle for this structure.

    Issued (not raised) when an invariant is computed from a cochain that
    fails the cocycle condition or is nonzero on a degenerate generator; the
    resulting polynomial then depends on the chosen diagrams.
    """
