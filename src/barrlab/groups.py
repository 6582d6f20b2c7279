"""Finite monoids and groups, used by writer monads and their distributive laws."""

from __future__ import annotations

import itertools

from .errors import BlowUpGuard, InputError, NotAGroup, blowup_limit
from .finset import FinSet, guard_size


class FinMonoid:
    """A finite monoid with an explicit multiplication table.  Associativity
    is checked on all |G|^3 triples, so |G|^3 is held to the blow-up guard
    before the table is built."""

    def __init__(self, name, elements, op, unit):
        guard_size(len(elements) ** 3, f"checking {name} for associativity")
        self.name = name
        self.elements = tuple(elements)
        self.unit = unit
        if callable(op):
            op = {(a, b): op(a, b) for a in self.elements for b in self.elements}
        self.table = dict(op)
        self._validate()

    def _validate(self):
        els = set(self.elements)
        if self.unit not in els:
            raise ValueError(f"{self.name}: unit {self.unit!r} not an element")
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self.table:
                    raise ValueError(f"{self.name}: no product for ({a!r}, {b!r})")
                if self.table[(a, b)] not in els:
                    raise ValueError(f"{self.name}: product escapes the carrier")
            if self.op(self.unit, a) != a or self.op(a, self.unit) != a:
                raise ValueError(f"{self.name}: {self.unit!r} is not a unit at {a!r}")
        for a, b, c in itertools.product(self.elements, repeat=3):
            if self.op(self.op(a, b), c) != self.op(a, self.op(b, c)):
                raise ValueError(f"{self.name}: not associative at ({a!r}, {b!r}, {c!r})")

    def op(self, a, b):
        return self.table[(a, b)]

    def as_finset(self) -> FinSet:
        return FinSet(self.name, self.elements)

    def is_group(self) -> bool:
        return all(self._inverse_of(a) is not None for a in self.elements)

    def _inverse_of(self, a):
        for b in self.elements:
            if self.op(a, b) == self.unit and self.op(b, a) == self.unit:
                return b
        return None

    def __repr__(self):
        return f"FinMonoid({self.name!r}, order {len(self.elements)})"


class FinGroup(FinMonoid):
    def __init__(self, name, elements, op, unit):
        super().__init__(name, elements, op, unit)
        self.inverse = {}
        for a in self.elements:
            inv = self._inverse_of(a)
            if inv is None:
                raise NotAGroup(f"{name}: {a!r} has no inverse")
            self.inverse[a] = inv

    def inv(self, a):
        return self.inverse[a]


def as_group(m: FinMonoid) -> FinGroup:
    if isinstance(m, FinGroup):
        return m
    if not m.is_group():
        raise NotAGroup(f"{m.name} is a monoid without inverses")
    return FinGroup(m.name, m.elements, m.table, m.unit)


def cyclic_group(m: int) -> FinGroup:
    """Integers mod m under addition."""
    if m < 1:
        raise InputError("cyclic group needs m >= 1")
    return FinGroup(f"Z{m}", range(m), lambda a, b: (a + b) % m, 0)


def symmetric_group(n: int) -> FinGroup:
    """Permutations of {0..n-1} as value tuples; product is composition.
    The (n!)^3 associativity triples are held to the blow-up guard before
    any permutation is listed, by a factorial built only until its cube
    passes the guard."""
    order = 1
    for i in range(2, n + 1):
        order *= i
        if order ** 3 > blowup_limit():
            raise BlowUpGuard(f"({n}!)^3", f"checking S{n} for associativity")
    perms = sorted(itertools.permutations(range(n)))
    compose = lambda a, b: tuple(a[b[i]] for i in range(n))
    return FinGroup(f"S{n}", perms, compose, tuple(range(n)))
