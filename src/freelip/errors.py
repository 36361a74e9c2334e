"""Exception hierarchy shared by all freelip modules.

Every structured failure carries the witnessing data (indices, labels) in
its attributes so callers and the CLI can report exactly what went wrong.
"""

from __future__ import annotations


class FreeLipError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# metric validation


class SpaceValidationError(FreeLipError):
    """A candidate distance matrix violates a metric-space axiom."""


class AsymmetricDistance(SpaceValidationError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"d[{i}][{j}] != d[{j}][{i}]")


class ZeroDistanceDistinctPoints(SpaceValidationError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        if i == j:
            super().__init__(f"d[{i}][{i}] != 0")
        else:
            super().__init__(f"d[{i}][{j}] = 0 for distinct points {i}, {j}")


class TriangleViolation(SpaceValidationError):
    def __init__(self, i: int, j: int, k: int):
        self.i, self.j, self.k = i, j, k
        super().__init__(f"d[{i}][{k}] > d[{i}][{j}] + d[{j}][{k}]")


class BadBaseIndex(SpaceValidationError):
    def __init__(self, base: int, n: int):
        self.base, self.n = base, n
        super().__init__(f"base index {base} out of range for {n} points")


class DuplicateLabel(SpaceValidationError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"label {label!r} appears more than once")


# ---------------------------------------------------------------------------
# argument errors


class EmptyFamily(FreeLipError):
    """A nonempty family of subsets was required."""


class DegeneratePair(FreeLipError):
    """The two endpoints of a pair coincide."""


class EpsilonOutOfRange(FreeLipError):
    """Segment relaxation parameter must satisfy 0 <= eps < 1."""


class UnknownLabel(FreeLipError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"unknown point label {label!r}")


class SpaceMismatch(FreeLipError):
    """Values over different metric spaces never interoperate."""


# ---------------------------------------------------------------------------
# function / element preconditions


class NotOneLipschitzOnDomain(FreeLipError):
    """A partial function exceeded Lipschitz constant 1 on its domain."""


class NotPositive(FreeLipError):
    """A positive element (all coefficients > 0, or zero) was required."""


class ZeroElement(FreeLipError):
    """The zero element is not a valid input here."""


class SingletonSupport(FreeLipError):
    """An element with at least two support points was required."""


class NotNormalized(FreeLipError):
    """An element of norm exactly 1 was required."""


class NotInUnitBall(FreeLipError):
    """A function with Lipschitz constant at most 1 was required."""


class EmptyFace(FreeLipError):
    """No unit-ball element attains pairing 1 with this function."""


# ---------------------------------------------------------------------------
# certification and IO


class InternalVerificationFailure(FreeLipError):
    """A certified identity failed to verify; signals an implementation bug."""


class ParseError(FreeLipError):
    def __init__(self, message: str, path=None):
        self.path = path
        where = f"{path}: " if path else ""
        super().__init__(where + message)
