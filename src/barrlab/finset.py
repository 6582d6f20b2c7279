"""Finite sets and total functions between them.

Elements are hashable descriptors: ints or strings for base sets, nested
tuples for derived sets (products, tagged sums, function tables).  Every
FinSet fixes an enumeration order at construction time and all derived
constructions iterate in that order, so repeated evaluations produce
identical tables and counterexamples are reproducible.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .errors import BlowUpGuard, DomainMismatch, blowup_limit

Element = object  # int | str | tuple of Elements


def guard_size(size: int, context: str = "") -> int:
    if size > blowup_limit():
        raise BlowUpGuard(size, context)
    return size


class FinSet:
    """An ordered finite set with pairwise-distinct elements."""

    __slots__ = ("name", "elements", "_index", "_hash")

    def __init__(self, name: str, elements: Iterable[Element]):
        self.name = name
        self.elements = tuple(elements)
        self._index = {el: i for i, el in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError(f"duplicate elements in FinSet {name!r}")

    def index(self, el: Element) -> int:
        try:
            return self._index[el]
        except KeyError:
            raise DomainMismatch(f"{el!r} is not an element of {self.name}") from None

    def __contains__(self, el: Element) -> bool:
        return el in self._index

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    # Name is display-only: two sets are equal iff they enumerate the same
    # elements in the same order.
    def __eq__(self, other) -> bool:
        return isinstance(other, FinSet) and self.elements == other.elements

    def __hash__(self) -> int:
        # Filled on first use, not in __init__: most sets are never hashed.
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self.elements)
            return self._hash

    def __repr__(self) -> str:
        return f"FinSet({self.name!r}, {len(self)} elements)"


TERMINAL = FinSet("1", ("*",))
EMPTY = FinSet("0", ())


def carrier(n: int) -> FinSet:
    """The canonical n-element carrier {0, .., n-1}."""
    return FinSet(f"X{n}", range(n))


def canonical_carriers(max_size: int) -> list[FinSet]:
    return [carrier(n) for n in range(max_size + 1)]


class FinFn:
    """A total function between finite sets, stored as an explicit table."""

    __slots__ = ("name", "dom", "cod", "table")

    def __init__(self, dom: FinSet, cod: FinSet, table, name: str = ""):
        self.dom = dom
        self.cod = cod
        self.table = dict(table)
        self.name = name or f"{dom.name}->{cod.name}"
        for x in dom:
            if x not in self.table:
                raise DomainMismatch(f"{self.name}: no value for {x!r}")
            if self.table[x] not in cod:
                raise DomainMismatch(
                    f"{self.name}: image {self.table[x]!r} of {x!r} not in {cod.name}"
                )
        if len(self.table) != len(dom):
            extra = set(self.table) - set(dom.elements)
            raise DomainMismatch(f"{self.name}: table keys {extra} outside the domain")

    def __call__(self, x: Element) -> Element:
        try:
            return self.table[x]
        except KeyError:
            raise DomainMismatch(f"{self.name}: {x!r} not in domain") from None

    def then(self, other: "FinFn") -> "FinFn":
        """Diagrammatic composition: first self, then other."""
        if self.cod != other.dom:
            raise DomainMismatch(f"cannot compose {self.name} with {other.name}")
        return FinFn(
            self.dom, other.cod, {x: other.table[y] for x, y in self.table.items()},
            name=f"{other.name}.{self.name}",
        )

    def is_bijection(self) -> bool:
        return len(set(self.table.values())) == len(self.dom) == len(self.cod)

    def pairs(self) -> Iterator[tuple[Element, Element]]:
        for x in self.dom:
            yield x, self.table[x]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinFn)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, tuple(self.table[x] for x in self.dom)))

    def __repr__(self) -> str:
        return f"FinFn({self.name!r}: {self.dom.name}->{self.cod.name})"


def identity_fn(X: FinSet) -> FinFn:
    return FinFn(X, X, {x: x for x in X}, name=f"id_{X.name}")


def constant_fn(dom: FinSet, cod: FinSet, value: Element) -> FinFn:
    return FinFn(dom, cod, {x: value for x in dom})


def to_terminal(X: FinSet) -> FinFn:
    return constant_fn(X, TERMINAL, "*")


def from_empty(cod: FinSet) -> FinFn:
    return FinFn(EMPTY, cod, {}, name=f"0->{cod.name}")


def function_values(dom: FinSet, cod: FinSet) -> Iterator[tuple]:
    """The value tuple, aligned with dom's enumeration, of every function
    dom -> cod, in lexicographic order; no FinFn is built."""
    guard_size(len(cod) ** len(dom), f"enumerating functions {dom.name}->{cod.name}")
    yield from itertools.product(cod.elements, repeat=len(dom))


def all_functions(dom: FinSet, cod: FinSet) -> Iterator[FinFn]:
    """Every function dom -> cod, in lexicographic order of value tuples."""
    for values in function_values(dom, cod):
        yield FinFn(dom, cod, dict(zip(dom.elements, values)))


class LazyTable(dict):
    """A pure function of one element as a table filled on demand:
    `table[el]` computes `fn(el)` on its first lookup and keeps it, as long
    as fewer than `capacity` values are kept; past that it computes without
    storing."""

    __slots__ = ("fn", "capacity")

    def __init__(self, fn, capacity: float = float("inf")):
        super().__init__()
        self.fn = fn
        self.capacity = capacity

    def __missing__(self, el: Element) -> Element:
        out = self.fn(el)
        if len(self) < self.capacity:
            self[el] = out
        return out
