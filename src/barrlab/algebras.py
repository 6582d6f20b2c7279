"""Eilenberg-Moore algebras for a finite-set monad, checked exhaustively.

An algebra's structure map is held pointwise so that free algebras over
large carriers stay representable; the table form is materialised on demand
under the blow-up guard.
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import DomainMismatch, NonFinitePreserving, blowup_limit
from .finset import TERMINAL, Element, FinFn, FinSet, LazyTable
from .monads import FinMonad
from .reports import LawReport


class EMAlgebra:
    """A carrier together with a structure map M(carrier) -> carrier."""

    def __init__(self, monad: FinMonad, carrier: FinSet, structure, name: str = ""):
        self.monad = monad
        self.carrier = carrier
        self.name = name or f"algebra({carrier.name})"
        self._table: Optional[FinFn] = None
        if isinstance(structure, FinFn):
            if structure.dom != monad.apply(carrier):
                raise DomainMismatch(
                    f"{self.name}: structure domain {structure.dom.name} is not "
                    f"{monad.name}({carrier.name})")
            if structure.cod != carrier:
                raise DomainMismatch(f"{self.name}: structure must land in the carrier")
            self._table = structure
            self._pointwise: Callable = structure
        else:
            self._pointwise = structure

    def structure_at(self, el: Element) -> Element:
        return self._pointwise(el)

    def structure(self) -> FinFn:
        """The structure map as an explicit table (guarded)."""
        if self._table is None:
            dom = self.monad.apply(self.carrier)
            self._table = FinFn(dom, self.carrier,
                                {el: self._pointwise(el) for el in dom},
                                name=f"structure_{self.name}")
        return self._table

    def same_table_as(self, other: "EMAlgebra") -> bool:
        return self.carrier == other.carrier and self.structure() == other.structure()

    def __repr__(self):
        return f"EMAlgebra({self.name!r}, carrier {self.carrier.name})"


def free_algebra(M: FinMonad, X: FinSet) -> EMAlgebra:
    """The free algebra on X: carrier M X, structure the multiplication."""
    if M.card(len(X)) > blowup_limit():
        raise NonFinitePreserving(
            f"{M.name}: free algebra carrier on {X.name} exceeds the guard")
    carrier = M.apply(X)
    return EMAlgebra(M, carrier, M.mult_at(X), name=f"free({X.name})")


def terminal_algebra(M: FinMonad) -> EMAlgebra:
    """The singleton with its unique structure map."""
    return EMAlgebra(M, TERMINAL, lambda _el: "*", name="terminal")


def check_em_algebra(M: FinMonad, a: EMAlgebra) -> LawReport:
    """Verify the two algebra laws exhaustively.

    The unit law runs over the carrier; the multiplication law runs over
    M(M(carrier)) and is skipped (and reported so) when that enumeration
    exceeds the guard.  Where it runs, M(carrier) fits under the guard, and
    the structure map is looked up in a table filled as it is first asked.
    """
    if a.monad is not M and a.monad.name != M.name:
        raise DomainMismatch(f"algebra {a.name} belongs to {a.monad.name}, not {M.name}")
    C = a.carrier
    report = LawReport(f"algebra {a.name} over {M.name}")

    report.first("unit-law", C.name, (
        {"carrier": C.name, "element": x, "got": got}
        for x in C if (got := a.structure_at(M.unit_element(C, x))) != x))

    if M.tower_fits(len(C), 2):
        MC = M.apply(C)
        structure = LazyTable(a.structure_at)
        mult_c = M.mult_at(C)
        m_structure = M.arrow(structure.__getitem__, MC, C)
        report.first("multiplication-law", C.name, (
            {"carrier": C.name, "element": el2, "via-mult": via_mult, "via-map": via_map}
            for el2 in M.apply(MC)
            if (via_mult := structure[mult_c(el2)]) != (via_map := structure[m_structure(el2)])))
    else:
        report.skip("multiplication-law", C.name,
                    f"|MM({C.name})| = {M.tower_card_display(len(C), 2)} exceeds guard")
    return report
