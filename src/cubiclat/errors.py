"""Error taxonomy shared by every module.

Two branches matter to callers: PreconditionError means the input violated a
documented contract (CLI maps it to exit code 2), InternalError means a
cross-check inside the library disagreed with itself (exit code 1).
"""


class CubiclatError(Exception):
    pass


class PreconditionError(CubiclatError):
    pass


class InternalError(CubiclatError):
    pass


class InvariantViolation(InternalError):
    """Two independent computations of the same quantity disagreed."""


# lattice core

class NotSymmetric(PreconditionError):
    pass


class DimensionMismatch(PreconditionError):
    pass


class Degenerate(PreconditionError):
    pass


class NotFiniteIndex(PreconditionError):
    pass


# discriminant groups and finite quadratic forms

class OddLattice(PreconditionError):
    pass


class GroupTooLarge(PreconditionError):
    """An invariant factor is over discgroup.MAX_ORDER."""


class DegenerateForm(PreconditionError):
    """The pairing has a kernel, so the Gauss sum has no residue."""


class Condition5Violated(PreconditionError):
    """The twisted form is ill-defined on the discriminant group."""


# enumeration

class NotPositiveDefinite(PreconditionError):
    pass


class WrongRank(PreconditionError):
    pass


class EnumerationTooLarge(PreconditionError):
    """A short-vector walk would visit more nodes than its budget."""


# fourfold layer

class BadEpsilon(PreconditionError):
    pass


class SignatureViolation(PreconditionError):
    pass


class ZeroD(PreconditionError):
    pass


# forms and determinantal representations

class WrongSize(PreconditionError):
    pass


class ParseError(PreconditionError):
    pass


class WrongVariable(PreconditionError):
    pass


class NotHomogeneous(PreconditionError):
    pass


class NotCubic(PreconditionError):
    pass


class NoPlane(PreconditionError):
    pass


class HalfIntegerCoefficient(PreconditionError):
    pass


class BadPrime(PreconditionError):
    pass


class PrimeTooLarge(PreconditionError):
    pass
