"""Exception types shared across the package, and the budget of its size guards."""

from __future__ import annotations

import os


class BirackError(Exception):
    """Base class for all errors raised by this package."""


class InputError(BirackError, ValueError):
    """Outside input (a file, an argument, an environment variable) is malformed."""


class NonBijectiveColumn(BirackError):
    """An action map that must permute the labels fails to."""

    def __init__(self, kind: str, index: int, column):
        self.kind = kind
        self.index = index
        self.column = tuple(column)
        super().__init__(
            f"{kind}_{index} is not a bijection: image {list(self.column)}")


class AxiomViolation(BirackError):
    """A structure fails one of the defining identities."""

    def __init__(self, axiom: str, witness, message: str | None = None):
        self.axiom = axiom
        self.witness = witness
        if message is None:
            message = f"axiom {axiom} fails at {witness}"
        super().__init__(message)


class KinkMapMissing(BirackError):
    """No label completes the kink identity for some input."""

    def __init__(self, x: int):
        self.x = x
        super().__init__(f"no label y satisfies the kink identity at x={x}")


class KinkMapNotUnique(BirackError):
    """Several labels complete the kink identity for some input."""

    def __init__(self, x: int, candidates):
        self.x = x
        self.candidates = tuple(candidates)
        super().__init__(
            f"kink identity at x={x} has multiple solutions {list(self.candidates)}")


class NotAUnit(BirackError):
    """A parameter that must be invertible mod n is not."""

    def __init__(self, name: str, value: int, modulus: int):
        self.name = name
        self.value = value
        self.modulus = modulus
        super().__init__(f"{name}={value} is not a unit mod {modulus}")


class RelationFails(BirackError):
    """Parameters do not satisfy the required polynomial relation."""

    def __init__(self, message: str):
        super().__init__(message)


class DiagramError(BirackError):
    """Base class for malformed diagram data."""


class DanglingSemiarc(DiagramError):
    """A semiarc id is missing an incoming or outgoing endpoint."""

    def __init__(self, semiarc: int, missing: str):
        self.semiarc = semiarc
        self.missing = missing
        super().__init__(f"semiarc {semiarc} has no {missing} endpoint")


class DuplicateEndpoint(DiagramError):
    """A semiarc id is used twice in the same role."""

    def __init__(self, semiarc: int, role: str):
        self.semiarc = semiarc
        self.role = role
        super().__init__(f"semiarc {semiarc} appears more than once as {role}")


class BadSign(DiagramError):
    """A crossing sign is not +1 or -1."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"crossing sign must be +1 or -1, got {value!r}")


class UnmatchedCrossingLabel(DiagramError):
    """A Gauss code label lacks its over or under partner."""

    def __init__(self, label: int, detail: str):
        self.label = label
        super().__init__(f"crossing label {label}: {detail}")


class SignMismatch(DiagramError):
    """The over and under passes of a Gauss code label disagree in sign."""

    def __init__(self, label: int):
        self.label = label
        super().__init__(
            f"crossing label {label} has different signs on its over and under passes")


class ResourceLimitExceeded(BirackError):
    """A computation would exceed the configured size budget."""

    def __init__(self, what: str, needed: int, limit: int):
        self.what = what
        self.needed = needed
        self.limit = limit
        super().__init__(
            f"{what} needs {needed} cells, above the limit {limit}; "
            f"raise the limit to proceed")


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


class NotReducedCocycle(Warning):
    """The supplied 2-cochain is not a reduced cocycle for this structure.

    Issued (not raised) when an invariant is computed from a cochain that
    fails the cocycle condition or is nonzero on a degenerate generator; the
    resulting polynomial then depends on the chosen diagrams.
    """
