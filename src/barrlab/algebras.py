"""Eilenberg-Moore algebras for a finite-set monad, checked exhaustively.

An algebra's structure map is held pointwise so that free algebras over
large carriers stay representable; the table form is materialised on demand
under the blow-up guard.  The multiplication law is decided on tables of
positions over M(M carrier), which the monad builds without enumerating
M(M carrier) where it can (`FinMonad.mult_table`, `arrow_table`).
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import DomainMismatch, NonFinitePreserving, blowup_limit
from .finset import TERMINAL, Element, FinFn, FinSet
from .monads import FinMonad, compose, differences
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

    The unit law runs over the carrier; the multiplication law is skipped
    (and reported so) when M(M(carrier)) exceeds the guard.  Where it runs,
    the structure map is read once on M(carrier), as positions s, and the
    law compares s . mu with s . M s as tables of positions over M(M(carrier)).
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
        values = tuple(map(a.structure_at, MC))
        s = tuple(map(C.index, values))
        via_mult = compose(s, M.mult_table(C))
        via_map = compose(s, M.arrow_table(dict(zip(MC.elements, values)).__getitem__, MC, C))
        report.first("multiplication-law", C.name, (
            {"carrier": C.name, "element": M.apply(MC).elements[p],
             "via-mult": C.elements[via_mult[p]], "via-map": C.elements[via_map[p]]}
            for p in differences(via_mult, via_map)))
    else:
        report.skip("multiplication-law", C.name,
                    f"|MM({C.name})| = {M.tower_card_display(len(C), 2)} exceeds guard")
    return report
