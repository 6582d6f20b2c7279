"""Eilenberg-Moore algebras for a finite-set monad, checked exhaustively.

An algebra's structure map is held pointwise so that free algebras over
large carriers stay representable.  It keeps one table of positions over
M(carrier) (`EMAlgebra.table`), built on first use under the blow-up guard:
by a builder the algebra was given, which need not enumerate M(carrier) (a
free algebra's is the monad's `mult_table`, a lifted algebra's is H(a)
after the law's table of lambda), or else read off a `FinFn` structure or
tabulated from the structure on every element of M(carrier).  The
multiplication law is decided on tables of positions over M(M carrier),
which the monad builds without enumerating M(M carrier) where it can
(`FinMonad.mult_table`, `arrow_table`).
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import DomainMismatch, NonFinitePreserving, blowup_limit
from .finset import TERMINAL, Element, FinFn, FinSet, compose, tabulate
from .monads import FinMonad
from .reports import LawReport, table_failures


class EMAlgebra:
    """A carrier together with a structure map M(carrier) -> carrier.

    The structure is a `FinFn` or a function of one element; `positions`,
    a function of no arguments returning the table of positions, builds
    the table in place of tabulating the structure."""

    def __init__(self, monad: FinMonad, carrier: FinSet, structure, name: str = "",
                 positions: Optional[Callable[[], tuple]] = None):
        self.monad = monad
        self.carrier = carrier
        self.name = name or f"algebra({carrier.name})"
        self._pointwise: Callable = structure
        self._build = positions
        self._table: Optional[tuple] = None
        if isinstance(structure, FinFn):
            if structure.dom != monad.apply(carrier):
                raise DomainMismatch(
                    f"{self.name}: structure domain {structure.dom.name} is not "
                    f"{monad.name}({carrier.name})")
            if structure.cod != carrier:
                raise DomainMismatch(f"{self.name}: structure must land in the carrier")
            self._table = structure.positions

    def structure_at(self, el: Element) -> Element:
        return self._pointwise(el)

    def table(self) -> tuple:
        """The structure map as positions: entry p is the position in the
        carrier of the structure at the element at position p of
        M(carrier).  Built once, through the builder when there is one."""
        if self._table is None:
            self._table = (self._build() if self._build is not None else
                           tabulate(self.monad.apply(self.carrier), self.carrier,
                                    self._pointwise, name=f"structure_{self.name}").positions)
        return self._table

    def structure(self) -> FinFn:
        """The structure map as a `FinFn` view of its table (guarded)."""
        return FinFn(self.monad.apply(self.carrier), self.carrier, self.table(),
                     name=f"structure_{self.name}")

    def same_table_as(self, other: "EMAlgebra") -> bool:
        return self.carrier == other.carrier and self.structure() == other.structure()

    def __repr__(self):
        return f"EMAlgebra({self.name!r}, carrier {self.carrier.name})"


def free_algebra(M: FinMonad, X: FinSet) -> EMAlgebra:
    """The free algebra on X: carrier M X, structure the multiplication."""
    if M.card(len(X)) > blowup_limit():
        raise NonFinitePreserving(
            f"{M.name}: free algebra carrier on {X.name} exceeds the guard")
    return EMAlgebra(M, M.apply(X), M.mult_at(X), name=f"free({X.name})",
                     positions=lambda: M.mult_table(X))


def terminal_algebra(M: FinMonad) -> EMAlgebra:
    """The singleton with its unique structure map."""
    return EMAlgebra(M, TERMINAL, lambda _el: "*", name="terminal")


def require_monad(M: FinMonad, a: EMAlgebra, why: str = "") -> None:
    """Raise DomainMismatch, naming both monads, unless a is an algebra for
    M; `why` says where M comes from."""
    if a.monad is not M and a.monad.name != M.name:
        raise DomainMismatch(f"algebra {a.name} belongs to {a.monad.name}, not {M.name}{why}")


def check_em_algebra(M: FinMonad, a: EMAlgebra) -> LawReport:
    """Verify the two algebra laws exhaustively.

    The unit law runs over the carrier; the multiplication law is skipped
    (and reported so) when M(M(carrier)) exceeds the guard.  Where it runs,
    the structure map is tabulated once on M(carrier), as positions s, and
    the law compares s . mu with s . M s as tables of positions over
    M(M(carrier)).
    """
    require_monad(M, a)
    C = a.carrier
    report = LawReport(f"algebra {a.name} over {M.name}")

    report.first("unit-law", C.name, (
        {"carrier": C.name, "element": x, "got": got}
        for x in C if (got := a.structure_at(M.unit_element(C, x))) != x))

    def mult_failures():
        MC, s = M.apply(C), a.table()
        via_mult = compose(s, M.mult_table(C))
        via_map = compose(s, M.arrow_table(s, MC, C))
        yield from table_failures(
            {"carrier": C.name}, lambda p: M.apply(MC).elements[p], C, via_mult, via_map,
            ("via-mult", "via-map"))

    report.first("multiplication-law", C.name, mult_failures(),
                 [(f"MM({C.name})", M.tower(len(C), 2))])
    return report
