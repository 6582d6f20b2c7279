"""Polynomial endofunctors on finite sets, given as syntax trees.

Constructors: constant, identity, finite products and coproducts, powers by
a finite exponent set, and composition.  Expressions evaluate on sets
(`eval_functor`), and each expression keeps its images, as a monad keeps
M X: `H(X)` evaluates H X on the first call at a carrier, and every later
call there, whoever makes it, reads the same set.  The arrow action comes
in three forms: `map_element`, pointwise by the definition, which the
tests compare the others against; `arrow`, which resolves H f once as a
function of one element, for maps evaluated at a few points or on a
domain other than H X (anamorphism legs, liftings, law axioms); and
`arrow_table`, H f as positions over H X computed from f's positions
alone, for the terminal chain's connecting maps and the initial chain's
forward maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import functools
import itertools
import math

from .errors import DomainMismatch
from .finset import Element, FinSet, LazyTable, guard_size


class FunctorExpr:
    """Base class for functor syntax trees.  `H(X)` is H X, kept on the
    expression once evaluated."""

    def __call__(self, X: FinSet) -> FinSet:
        return self._images[X]

    def image(self, X: FinSet) -> FinSet:
        """`H(X)`, kept as `H(X)` keeps it, for a caller that has already
        held |H X| to the guard: H X is enumerated without the guard's
        second walk of the expression."""
        image = self._images.get(X)
        if image is None:
            image = self._images[X] = _image(self, X)
        return image

    @functools.cached_property
    def _images(self) -> LazyTable:
        # eval_functor is looked up at each call, not bound here, so a
        # wrapper installed on the module name sees every evaluation.
        return LazyTable(lambda X: eval_functor(self, X))


@dataclass(frozen=True)
class Const(FunctorExpr):
    value: FinSet

    def __str__(self):
        return self.value.name


@dataclass(frozen=True)
class Id(FunctorExpr):
    def __str__(self):
        return "X"


@dataclass(frozen=True)
class Prod(FunctorExpr):
    factors: tuple

    def __init__(self, *factors):
        if len(factors) == 1 and isinstance(factors[0], (list, tuple)):
            factors = tuple(factors[0])
        object.__setattr__(self, "factors", tuple(factors))

    def __str__(self):
        return "(" + "*".join(str(f) for f in self.factors) + ")"


@dataclass(frozen=True)
class Coprod(FunctorExpr):
    summands: tuple

    def __init__(self, *summands):
        if len(summands) == 1 and isinstance(summands[0], (list, tuple)):
            summands = tuple(summands[0])
        object.__setattr__(self, "summands", tuple(summands))

    def __str__(self):
        return "(" + "+".join(str(s) for s in self.summands) + ")"


@dataclass(frozen=True)
class Power(FunctorExpr):
    exponent: FinSet
    body: FunctorExpr

    def __str__(self):
        return f"({self.body}^{self.exponent.name})"


@dataclass(frozen=True)
class Compose(FunctorExpr):
    outer: FunctorExpr
    inner: FunctorExpr

    def __str__(self):
        return f"({self.outer}.{self.inner})"


def cardinality(expr: FunctorExpr, n: int) -> int:
    """|expr(X)| as a function of |X| = n."""
    if isinstance(expr, Const):
        return len(expr.value)
    if isinstance(expr, Id):
        return n
    if isinstance(expr, Prod):
        out = 1
        for f in expr.factors:
            out *= cardinality(f, n)
        return out
    if isinstance(expr, Coprod):
        return sum(cardinality(s, n) for s in expr.summands)
    if isinstance(expr, Power):
        return cardinality(expr.body, n) ** len(expr.exponent)
    if isinstance(expr, Compose):
        return cardinality(expr.outer, cardinality(expr.inner, n))
    raise TypeError(f"not a functor expression: {expr!r}")


def eval_functor(expr: FunctorExpr, X: FinSet) -> FinSet:
    """Apply the functor to a set; enumeration order is canonical."""
    guard_size(cardinality(expr, len(X)), f"evaluating {expr} on {X.name}")
    return _image(expr, X)


def _image(expr: FunctorExpr, X: FinSet) -> FinSet:
    return FinSet(f"{expr}({X.name})", _enumerate(expr, X))


def _enumerate(expr: FunctorExpr, X: FinSet) -> Iterator[Element]:
    if isinstance(expr, Const):
        yield from expr.value
    elif isinstance(expr, Id):
        yield from X
    elif isinstance(expr, Prod):
        parts = [tuple(_enumerate(f, X)) for f in expr.factors]
        yield from itertools.product(*parts)
    elif isinstance(expr, Coprod):
        for tag, s in enumerate(expr.summands):
            for el in _enumerate(s, X):
                yield (tag, el)
    elif isinstance(expr, Power):
        body = tuple(_enumerate(expr.body, X))
        yield from itertools.product(body, repeat=len(expr.exponent))
    elif isinstance(expr, Compose):
        yield from _enumerate(expr.outer, eval_functor(expr.inner, X))
    else:
        raise TypeError(f"not a functor expression: {expr!r}")


def map_element(expr: FunctorExpr, fn: Callable, el: Element) -> Element:
    """The arrow action of the functor on a single element, by the
    definition; `arrow` gives the same action resolved once per function."""
    if isinstance(expr, Const):
        return el
    if isinstance(expr, Id):
        return fn(el)
    if isinstance(expr, Prod):
        return tuple(map_element(f, fn, c) for f, c in zip(expr.factors, el))
    if isinstance(expr, Coprod):
        tag, val = el
        return (tag, map_element(expr.summands[tag], fn, val))
    if isinstance(expr, Power):
        return tuple(map_element(expr.body, fn, v) for v in el)
    if isinstance(expr, Compose):
        return map_element(expr.outer, lambda v: map_element(expr.inner, fn, v), el)
    raise TypeError(f"not a functor expression: {expr!r}")


def arrow(expr: FunctorExpr, fn: Callable) -> Callable[[Element], Element]:
    """The arrow action of the functor on fn, as a function of one element:
    `map_element(expr, fn, .)` with the dispatch on the expression done
    once, here, rather than at every element."""
    if isinstance(expr, Const):
        return _unchanged
    if isinstance(expr, Id):
        return fn
    if isinstance(expr, Prod):
        if len(expr.factors) == 2:
            return _pair_arrow(*expr.factors, fn)
        parts = tuple(arrow(f, fn) for f in expr.factors)
        return lambda el: tuple(part(c) for part, c in zip(parts, el))
    if isinstance(expr, Coprod):
        parts = tuple(arrow(s, fn) for s in expr.summands)
        return lambda el: (el[0], parts[el[0]](el[1]))
    if isinstance(expr, Power):
        body = arrow(expr.body, fn)
        return lambda el: tuple(map(body, el))
    if isinstance(expr, Compose):
        return arrow(expr.outer, arrow(expr.inner, fn))
    raise TypeError(f"not a functor expression: {expr!r}")


def arrow_table(expr: FunctorExpr, f_positions: Sequence[int], n: int, m: int) -> tuple:
    """H f as positions over H X, in `eval_functor`'s order, for f: X -> Y
    given as positions, with |X| = n and |Y| = m.  Pure arithmetic on
    positions: a constant keeps each position, a product or power is mixed
    radix with the first factor most significant, a coproduct adds each
    summand's offset, and a composite nests.  No intermediate table is
    longer than H X or a sub-image that `eval_functor` enumerates for it,
    so it needs no guard of its own."""
    if len(f_positions) != n:
        raise DomainMismatch(f"arrow_table: {len(f_positions)} positions for a domain of {n}")
    return tuple(_arrow_table(expr, f_positions, m)[0])


def _arrow_table(expr: FunctorExpr, f: Sequence[int], m: int) -> tuple[Sequence[int], int]:
    """(H f as positions, |H Y|) for f: X -> Y as positions and |Y| = m."""
    if isinstance(expr, Const):
        k = len(expr.value)
        return range(k), k
    if isinstance(expr, Id):
        return f, m
    if isinstance(expr, (Prod, Power)):
        parts = ([_arrow_table(g, f, m) for g in expr.factors] if isinstance(expr, Prod)
                 else [_arrow_table(expr.body, f, m)] * len(expr.exponent))
        size = math.prod(radix for _, radix in parts)
        if not all(t for t, _ in parts):
            # An empty factor empties H X: stop before a partial product
            # of the factors before it outgrows H X.
            return (), size
        table = parts[0][0] if parts else (0,)
        for t, radix in parts[1:]:
            table = [high + low for high in map(radix.__mul__, table) for low in t]
        return table, size
    if isinstance(expr, Coprod):
        table, offset = [], 0
        for s in expr.summands:
            t, size = _arrow_table(s, f, m)
            table.extend(map(offset.__add__, t))
            offset += size
        return table, offset
    if isinstance(expr, Compose):
        inner, size = _arrow_table(expr.inner, f, m)
        return _arrow_table(expr.outer, inner, size)
    raise TypeError(f"not a functor expression: {expr!r}")


def _unchanged(el: Element) -> Element:
    return el


def _pair_arrow(left: FunctorExpr, right: FunctorExpr, fn: Callable) -> Callable:
    """A two-factor product's arrow; a constant factor's component passes
    through without a call."""
    if isinstance(left, Const):
        g = arrow(right, fn)
        return lambda el: (el[0], g(el[1]))
    f = arrow(left, fn)
    if isinstance(right, Const):
        return lambda el: (f(el[0]), el[1])
    g = arrow(right, fn)
    return lambda el: (f(el[0]), g(el[1]))


def moore_functor(outputs: FinSet, alphabet: FinSet) -> FunctorExpr:
    """outputs x X^alphabet: the type of deterministic output automata."""
    return Prod(Const(outputs), Power(alphabet, Id()))
