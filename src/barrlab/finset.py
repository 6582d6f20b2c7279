"""Finite sets and total functions between them.

Elements are hashable descriptors: ints or strings for base sets, nested
tuples for derived sets (products, tagged sums, function tables).  Every
FinSet fixes an enumeration order at construction time and all derived
constructions iterate in that order, so repeated evaluations produce
identical tables and counterexamples are reproducible.

A function between two of them is held as its table of positions, a tuple
whose entry p is the position in the codomain of the value at the domain's
p-th element; every table of positions in the library is such a tuple.
Tables are composed (`compose`, `reader`) and compared (`differences`)
here, and `reports.table_failures` turns their differences into
counterexamples.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
    """A total function between finite sets, stored as its table of
    positions, a tuple: `positions[i]` is the position in cod of the value
    at dom's i-th element.  `tabulate` builds one from a function or a
    mapping; code that already holds positions passes them to the
    constructor, which checks only that they fit."""

    __slots__ = ("name", "dom", "cod", "positions")

    def __init__(self, dom: FinSet, cod: FinSet, positions: Iterable[int], name: str = ""):
        self.dom = dom
        self.cod = cod
        self.positions = positions = tuple(positions)
        self.name = name or f"{dom.name}->{cod.name}"
        if len(positions) != len(dom) or positions and (
                min(positions) < 0 or max(positions) >= len(cod)):
            raise DomainMismatch(f"{self.name}: positions do not fit {dom.name}->{cod.name}")

    def __call__(self, x: Element) -> Element:
        try:
            return self.cod.elements[self.positions[self.dom._index[x]]]
        except KeyError:
            raise DomainMismatch(f"{self.name}: {x!r} not in domain") from None

    def then(self, other: "FinFn") -> "FinFn":
        """Diagrammatic composition: first self, then other."""
        if self.cod != other.dom:
            raise DomainMismatch(f"cannot compose {self.name} with {other.name}")
        return FinFn(self.dom, other.cod, compose(other.positions, self.positions),
                     name=f"{other.name}.{self.name}")

    def is_bijection(self) -> bool:
        return len(set(self.positions)) == len(self.dom) == len(self.cod)

    def pairs(self) -> Iterator[tuple[Element, Element]]:
        return zip(self.dom.elements, map(self.cod.elements.__getitem__, self.positions))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinFn)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.positions == other.positions
        )

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.positions))

    def __repr__(self) -> str:
        return f"FinFn({self.name!r}: {self.dom.name}->{self.cod.name})"


def reader(t: Sequence[int]) -> Callable[[Sequence], tuple]:
    """s -> the tuple of s[i] for i in t, built once for a fixed t."""
    return operator.itemgetter(*t) if len(t) > 1 else lambda s: tuple(map(s.__getitem__, t))


def compose(s: Sequence[int], t: Sequence[int]) -> tuple:
    """s . t for tables of positions: entry p is s[t[p]]."""
    return reader(t)(s)


def differences(lhs: tuple, rhs: tuple) -> Iterable[int]:
    """The positions where two tables of equal length differ, in order."""
    if lhs == rhs:
        return ()
    return (p for p, (a, b) in enumerate(zip(lhs, rhs)) if a != b)


def as_function(positions: Sequence[int], dom: FinSet, cod: FinSet) -> Callable:
    """A table of positions in cod, one per element of dom, as a function of
    one element of dom: one dict lookup per call."""
    return dict(zip(dom.elements, map(cod.elements.__getitem__, positions))).__getitem__


_NO_VALUE = object()


def tabulate(dom: FinSet, cod: FinSet, fn, name: str = "") -> FinFn:
    """fn evaluated on all of dom, as a FinFn: the one place a function is
    evaluated on a whole domain.  fn is a function of one element, or a
    mapping whose keys must be exactly dom's elements."""
    name = name or f"{dom.name}->{cod.name}"
    table = fn if isinstance(fn, Mapping) else None
    if table is not None:
        fn = lambda x: table.get(x, _NO_VALUE)
    try:
        positions = tuple(map(cod._index.__getitem__, map(fn, dom.elements)))
    except KeyError:
        # fn is evaluated again, to name the first element whose value is not in cod.
        x, y = next((x, y) for x in dom.elements if (y := fn(x)) not in cod)
        if y is _NO_VALUE:
            raise DomainMismatch(f"{name}: no value for {x!r}") from None
        raise DomainMismatch(f"{name}: image {y!r} of {x!r} not in {cod.name}") from None
    if table is not None and len(table) != len(dom):
        extra = set(table) - set(dom.elements)
        raise DomainMismatch(f"{name}: table keys {extra} outside the domain")
    return FinFn(dom, cod, positions, name)


def constant_fn(dom: FinSet, cod: FinSet, value: Element) -> FinFn:
    return FinFn(dom, cod, (cod.index(value),) * len(dom))


def to_terminal(X: FinSet) -> FinFn:
    return constant_fn(X, TERMINAL, "*")


def from_empty(cod: FinSet) -> FinFn:
    return FinFn(EMPTY, cod, (), name=f"0->{cod.name}")


def function_values(dom: FinSet, cod: FinSet) -> Iterator[tuple]:
    """The value tuple, aligned with dom's enumeration, of every function
    dom -> cod, in lexicographic order; no FinFn is built."""
    guard_size(len(cod) ** len(dom), f"enumerating functions {dom.name}->{cod.name}")
    return itertools.product(cod.elements, repeat=len(dom))


def all_functions(dom: FinSet, cod: FinSet) -> Iterator[FinFn]:
    """Every function dom -> cod, in lexicographic order of value tuples."""
    for values in function_values(dom, cod):
        yield FinFn(dom, cod, map(cod.index, values))


class LazyTable(dict):
    """A pure function of one element as a table filled on demand:
    `table[el]` computes `fn(el)` on its first lookup and keeps it.  Tables
    given a `budget`, a one-item list shared between them, hold sized
    values: a value is kept while its length fits in the budget, which it
    then uses up, and is computed without being stored past that."""

    __slots__ = ("fn", "budget")

    def __init__(self, fn, budget: Optional[list] = None):
        super().__init__()
        self.fn = fn
        self.budget = budget

    def __missing__(self, el: Element) -> Element:
        out = self.fn(el)
        budget = self.budget
        if budget is None:
            self[el] = out
        elif len(out) <= budget[0]:
            budget[0] -= len(out)
            self[el] = out
        return out
