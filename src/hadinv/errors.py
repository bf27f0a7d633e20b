"""Exception types shared across the package."""


class HadinvError(Exception):
    """Base class for all errors raised by this package."""


class DimMismatch(HadinvError):
    """Operands have incompatible dimensions."""


class NonUnitary(HadinvError):
    """A matrix required to be unitary is not, within tolerance."""


class NotHadamard(HadinvError):
    """A matrix required to be complex Hadamard is not, within tolerance."""


class OrderOutOfRange(HadinvError):
    """A requested matrix order lies outside the supported range."""


class IndexOutOfRange(HadinvError):
    """A power/index argument lies outside its valid range."""


class NotDpwForm(HadinvError):
    """The input does not factor as diagonal * permutation * Fourier tensor."""


class NotClosed(HadinvError):
    """An extracted element set is not a subgroup.

    The raw member set is attached as ``members`` for diagnostics.
    """

    def __init__(self, message, members=frozenset()):
        super().__init__(message)
        self.members = frozenset(members)


class OrderTooLarge(OrderOutOfRange):
    """The group or matrix order exceeds the cap for this operation."""


class NotDivisor(HadinvError):
    """A requested subgroup order does not divide the group order."""


class InclusionViolation(HadinvError):
    """The algebras handed to a commuting-square check are not nested as required."""


class OracleMismatch(HadinvError):
    """Two independent computations of the same invariant disagree.

    This always signals a bug (or a counterexample worth attention), never
    an expected runtime condition.
    """


class DomainError(HadinvError):
    """A scalar argument lies outside the function's domain."""
