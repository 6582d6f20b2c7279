"""Exception hierarchy shared by all barrlab modules."""

import os

DEFAULT_BLOWUP_GUARD = 10**6
_GUARD_ENV = "BARRLAB_BLOWUP_GUARD"


def blowup_limit() -> int:
    """Current enumeration guard; BARRLAB_BLOWUP_GUARD overrides the default."""
    raw = os.environ.get(_GUARD_ENV)
    if raw is None:
        return DEFAULT_BLOWUP_GUARD
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{_GUARD_ENV} must be an integer, got {raw!r}") from exc


class BarrlabError(Exception):
    pass


class InputError(BarrlabError, ValueError):
    """Malformed user input (JSON documents, CLI arguments) or an argument
    out of range; a ValueError too, for callers of the library."""


class BlowUpGuard(BarrlabError):
    """An enumeration would exceed the configured size guard."""

    def __init__(self, size, context=""):
        self.size = size
        self.context = context
        super().__init__(
            f"enumeration of {size} elements exceeds the guard "
            f"({blowup_limit()})" + (f" while {context}" if context else "")
        )


class NonFinitePreserving(BarrlabError):
    """The monad does not keep the checked carriers within the guard."""


class DomainMismatch(BarrlabError):
    """A function or structure map has the wrong domain/codomain."""


class MissingComponent(BarrlabError):
    """A distributive law has no component at the requested carrier."""


class CounterexampleFound(BarrlabError):
    """Raised on demand from a failed LawReport; carries the report."""

    def __init__(self, report):
        self.report = report
        first = report.first_failure()
        msg = f"{report.subject}: {first.law} fails" if first else report.subject
        super().__init__(msg)


class ZeroObjectViolation(BarrlabError):
    """The free algebra on the empty set is not a singleton."""

    def __init__(self, size):
        self.size = size
        super().__init__(f"free algebra on the empty set has {size} elements, expected 1")


class NotAGroup(BarrlabError):
    pass


class NotCauchy(BarrlabError):
    """Sequence violates its declared convergence modulus; carries a witness."""

    def __init__(self, witness, message=""):
        self.witness = witness
        super().__init__(message or f"sequence is not Cauchy: witness {witness}")


class DepthExceeded(BarrlabError):
    pass


class NotBiproductCompatible(BarrlabError):
    pass


class BoundMismatch(BarrlabError):
    pass
