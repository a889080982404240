"""Exception types shared by every layer of the package."""


class CartanError(Exception):
    """Base class for all library errors."""


class DivisionByZero(CartanError):
    """A denominator normalized to exactly zero."""


class UnknownName(CartanError):
    """A name was not declared on the chart in use."""


class ChartMismatch(CartanError):
    """Two values living on incompatible charts were combined."""


class ArgumentEscape(CartanError):
    """A substitution value mentions variables outside the declared arguments."""


class DomainError(CartanError):
    """An input expression leaves the domain a problem operation requires."""


class DegreeOverflow(CartanError):
    """An exponent in the input text exceeds ``parser.MAX_EXPONENT``.

    Only the parser raises it; the degrees that products and nested powers
    reach are not bounded.
    """


class SingularCoframe(CartanError):
    """The coframe matrix is not invertible."""


class NotLinear(CartanError):
    """A Pfaffian system has pi^pi terms in some d(omega)."""


class NonEmptyEssentialTorsion(CartanError):
    """Prolongation was requested while integrability conditions remain."""


class VanishingJacobian(CartanError):
    """A change of coordinates is singular (its Jacobian normalizes to zero)."""


class NotInClass(CartanError):
    """The equation is outside the class the solver handles.

    Carries the name and Expression value of the invariant that did not vanish.
    """

    def __init__(self, invariant, value):
        self.invariant = invariant
        self.value = value
        super().__init__(f"{invariant} does not vanish")


class NotEquivalent(CartanError):
    """The equation is in class but not equivalent to the target.

    ``failures`` maps relation names to their nonzero residual expressions.
    """

    def __init__(self, failures):
        self.failures = dict(failures)
        names = ", ".join(self.failures)
        super().__init__(f"failing relations: {names}")


class ParseError(CartanError):
    """Expression text does not match the grammar.

    ``position`` is the 0-based offset of the offending character.
    """

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")
