"""Exception types shared across braceforge.

Validation failures carry a small witness (the indices that broke the law)
so reports can point at a concrete counterexample instead of just "invalid".
"""

from __future__ import annotations


class BraceforgeError(Exception):
    """Base class for every error raised by this package."""


class InputError(BraceforgeError):
    """Malformed user input: bad JSON shape, wrong sizes, unknown fields."""


class SchemaError(InputError):
    """A JSON payload does not match the documented file format."""

    def __init__(self, message: str, path: str = "", field: str = ""):
        super().__init__(message)
        self.path = path
        self.field = field


class ParamOutOfRange(InputError):
    """A catalog example was requested with parameters outside its domain."""


class ValidationError(BraceforgeError):
    """A mathematical law failed on concrete data; carries a witness."""

    def __init__(self, message: str, **witness: object):
        super().__init__(message)
        self.witness = dict(witness)


class NotClosed(ValidationError):
    """Table entry out of range, or table not square."""


class NoIdentityAtZero(ValidationError):
    pass


class NoInverse(ValidationError):
    pass


class NotAssociative(ValidationError):
    pass


class BraceAxiomFailed(ValidationError):
    """a o (b + c) != a o b - a + a o c at the witness triple."""


class NotASubbrace(ValidationError):
    pass


class NotAutomorphism(ValidationError):
    """A map in an action family is not an automorphism of the right group."""


class NotHom(ValidationError):
    pass


class NotAntiHom(ValidationError):
    pass


class CompatibilityFailed(ValidationError):
    """The six-variable split compatibility equation failed at the witness."""


class NotExact(ValidationError):
    """Injection/projection data does not form a short exact sequence."""


class SectionNotHom(ValidationError):
    pass


class NotSplit(ValidationError):
    """No section of the projection is a brace homomorphism."""


class TripletInvalid(ValidationError):
    """A (chi, beta, tau) triplet does not define an extension."""


class ValuesNotInAnnihilator(ValidationError):
    pass


class CoefficientsNotAbelian(ValidationError):
    """Cohomology coefficients must be an abelian group (trivial brace)."""


class ActionNotTransitive(ValidationError):
    """Orbit search failed to reach the target extension class."""


class NotTrivialCoefficients(ValidationError):
    """The Wells machinery requires the ideal to be a trivial brace."""


class InternalInconsistency(BraceforgeError):
    """Two independent checks of the same fact disagree: a defect in the
    library, not in its input."""


class OrderBoundExceeded(BraceforgeError):
    """An exhaustive search was refused because the object is too large."""

    def __init__(self, what: str, order: int, bound: int):
        super().__init__(f"{what}: order {order} exceeds bound {bound}")
        self.what = what
        self.order = order
        self.bound = bound


class SearchBudgetExceeded(BraceforgeError):
    """A search space is larger than the configured budget."""

    def __init__(self, what: str, size: int, budget: int, partial_count: int = 0):
        super().__init__(
            f"{what}: search space {size} exceeds budget {budget}"
            f" (partial count {partial_count})"
        )
        self.what = what
        self.size = size
        self.budget = budget
        self.partial_count = partial_count
