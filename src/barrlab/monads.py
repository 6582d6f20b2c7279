"""Finiteness-preserving monads on finite sets, with exhaustive law checking.

Structure maps are exposed in two forms: pointwise (`unit_element`,
`mult_element`, `map_element_fn`), and resolved once for loops that apply
them to many elements (`arrow` for M f, `mult_at` for mu_X, and
`arrow_table` for M f as positions over M dom).  Checkers that
revisit inputs memoise a resolved map in a `LazyTable`; no structure map is
materialised as a table.  The pointwise and resolved forms matter:
iterated applications such as M(M(M X)) explode quickly (powerset towers,
free semimodules), and the law checker enumerates an instance only while it
fits under the blow-up guard, recording larger instances as skipped.  A
monad whose first application M X already exceeds the guard for a carrier
under the requested bound is rejected outright.
"""

from __future__ import annotations

import array
import functools
import itertools
import operator
from typing import Callable, Iterable, Optional, Sequence

from .errors import InputError, MissingComponent, NonFinitePreserving, blowup_limit
from .finset import (Element, FinSet, LazyTable, canonical_carriers, function_values,
                     guard_size)
from .groups import FinMonoid
from .reports import LawReport
from .semiring import Semiring


class FinMonad:
    """Object map, arrow action, unit and multiplication on finite sets."""

    name = "monad"

    def card(self, n: int) -> int:
        raise NotImplementedError

    def _enumerate(self, X: FinSet) -> Iterable[Element]:
        raise NotImplementedError

    def map_element_fn(self, fn: Callable, dom: FinSet, cod: FinSet, el: Element) -> Element:
        raise NotImplementedError

    def unit_element(self, X: FinSet, x: Element) -> Element:
        raise NotImplementedError

    def mult_element(self, X: FinSet, el2: Element) -> Element:
        """Flatten one element of M(M X); never enumerates M(M X)."""
        raise NotImplementedError

    def __init__(self):
        self._apply_cache = LazyTable(self._materialise)

    def _materialise(self, X: FinSet) -> FinSet:
        guard_size(self.card(len(X)), f"building {self.name}({X.name})")
        return FinSet(f"{self.name}({X.name})", self._enumerate(X))

    def apply(self, X: FinSet) -> FinSet:
        """Materialise M X (guarded and memoised)."""
        return self._apply_cache[X]

    def arrow(self, fn: Callable, dom: FinSet, cod: FinSet) -> Callable[[Element], Element]:
        """M fn as a function of one element of M dom.  Loops that apply the
        same arrow to many elements build it once; a subclass may resolve
        fn in advance."""
        return functools.partial(self.map_element_fn, fn, dom, cod)

    def mult_at(self, X: FinSet) -> Callable[[Element], Element]:
        """mu_X as a function of one element of M(M X), the counterpart of
        `arrow`; a subclass may resolve M X in advance."""
        return functools.partial(self.mult_element, X)

    def arrow_table(self, fn: Callable, dom: FinSet, cod: FinSet) -> Sequence[int]:
        """M fn as positions: entry p is the position in M cod of M fn
        applied to the element at position p of M dom."""
        m_fn, index = self.arrow(fn, dom, cod), self.apply(cod).index
        return [index(m_fn(el)) for el in self.apply(dom)]

    def tower_fits(self, n: int, height: int) -> bool:
        limit = blowup_limit()
        for _ in range(height):
            n = self.card(n)
            if n > limit:
                return False
        return True

    def tower_card_display(self, n: int, height: int) -> str:
        """Iterated cardinality as a display string; large towers are
        reported as '> guard' without being computed."""
        limit = blowup_limit()
        for _ in range(height):
            if n > 1000:
                return f"> {limit}"
            n = self.card(n)
            if n > limit:
                return str(n) if n < 10**18 else f"> {limit}"
        return str(n)

    def __repr__(self):
        return f"<monad {self.name}>"


class ExceptionMonad(FinMonad):
    """M X = E + X for a finite set E of errors; E a singleton is 'maybe'."""

    def __init__(self, errors: FinSet, name: str = ""):
        super().__init__()
        self.errors = errors
        self.name = name or (f"exception[{len(errors)}]" if len(errors) != 1 else "maybe")

    def card(self, n):
        return len(self.errors) + n

    def _enumerate(self, X):
        for e in self.errors:
            yield (0, e)
        for x in X:
            yield (1, x)

    def map_element_fn(self, fn, dom, cod, el):
        tag, v = el
        return el if tag == 0 else (1, fn(v))

    def unit_element(self, X, x):
        return (1, x)

    def mult_element(self, X, el2):
        tag, v = el2
        return el2 if tag == 0 else v


def maybe_monad() -> ExceptionMonad:
    return ExceptionMonad(FinSet("E", ("*",)), name="maybe")


def exception_monad(n_errors: int = 2) -> ExceptionMonad:
    guard_size(n_errors, "listing the exception monad's errors")
    return ExceptionMonad(FinSet("E", [f"e{i}" for i in range(n_errors)]))


class WriterMonad(FinMonad):
    """M X = B x X for a finite monoid B; multiplication folds the B parts."""

    def __init__(self, monoid: FinMonoid):
        super().__init__()
        self.monoid = monoid
        self.name = f"writer[{monoid.name}]"

    def card(self, n):
        return len(self.monoid.elements) * n

    def _enumerate(self, X):
        return itertools.product(self.monoid.elements, X.elements)

    def map_element_fn(self, fn, dom, cod, el):
        b, x = el
        return (b, fn(x))

    def unit_element(self, X, x):
        return (self.monoid.unit, x)

    def mult_element(self, X, el2):
        b1, (b2, x) = el2
        return (self.monoid.op(b1, b2), x)


class PowersetMonad(FinMonad):
    """Finite powerset; subsets are tuples in length-then-index order."""

    name = "powerset"

    def card(self, n):
        return 2 ** n

    def _enumerate(self, X):
        for size in range(len(X) + 1):
            yield from itertools.combinations(X.elements, size)

    def _canonical(self, cod: FinSet, values) -> tuple:
        return tuple(sorted(set(values), key=cod.index))

    def map_element_fn(self, fn, dom, cod, el):
        return self._canonical(cod, (fn(x) for x in el))

    def arrow(self, fn, dom, cod):
        index = cod.index
        return lambda el: tuple(sorted({fn(x) for x in el}, key=index))

    def unit_element(self, X, x):
        return (x,)

    def mult_element(self, X, el2):
        return self._canonical(X, (x for subset in el2 for x in subset))

    def mult_at(self, X):
        index = X.index
        return lambda el2: tuple(sorted({x for subset in el2 for x in subset}, key=index))


# _BITS[w][mask] is the w-bit numeral of mask as a tuple, first bit on top:
# the element of k^X at position mask when |X| = w and k is {0, 1}.
_BITS = tuple(tuple(itertools.product((0, 1), repeat=w)) for w in range(9))


def _bit_decoder(width: int) -> Callable[[int], tuple]:
    """mask -> its `width`-bit tuple, one byte table lookup per 8 bits."""
    if width <= 8:
        return _BITS[width].__getitem__
    top = 8 * ((width - 1) // 8)
    head, byte, shifts = _BITS[width - top], _BITS[8], range(top - 8, -1, -8)

    def decode(mask):
        out = head[mask >> top]
        for s in shifts:
            out += byte[(mask >> s) & 255]
        return out

    return decode


def _bit_op(k: Semiring) -> Optional[Callable[[int, int], int]]:
    """XOR when k is Z/2 and OR when k is the Boolean semiring, read off its
    tables on the ints 0 and 1 (whatever k is named); None otherwise."""
    constants = (*k.elements, k.zero, k.one)
    if constants != (0, 1, 0, 1) or not all(type(c) is int for c in constants):
        return None
    pairs = list(itertools.product(k.elements, repeat=2))

    def table_is(fn, op):
        return all(type(r := fn(a, b)) is int and r == op(a, b) for a, b in pairs)

    if not table_is(k.mul, operator.and_):
        return None
    return next((op for op in (operator.xor, operator.or_) if table_is(k.add, op)), None)


class SemimoduleMonad(FinMonad):
    """Free semimodule monad over a finite semiring k: M X = k^X.

    Elements of M X are tuples of coefficients aligned with X's enumeration;
    one element of M(M X) is a tuple over M X, so single elements stay small
    even when the set M(M X) cannot be enumerated.

    Over Z/2 and the Boolean semiring an element of M X is also a bitmask:
    M X is enumerated as `itertools.product((0, 1), repeat=|X|)`, so the
    element at position p is the |X|-bit numeral of p, first coordinate on
    top.  The resolved forms then add masks with XOR or OR (`_op`) and
    decode the result through byte tables; M(cod) is never materialised.
    """

    def __init__(self, k: Semiring):
        super().__init__()
        if not k.finite:
            raise NonFinitePreserving(
                f"semimodule monad needs a finite semiring, got {k.name}")
        self.k = k
        self.name = f"semimodule[{k.name}]"
        self._op = _bit_op(k)

    def card(self, n):
        return len(self.k.elements) ** n

    def _enumerate(self, X):
        return itertools.product(self.k.elements, repeat=len(X))

    def map_element_fn(self, fn, dom, cod, el):
        k = self.k
        out = [k.zero] * len(cod)
        for x, c in zip(dom.elements, el):
            if c != k.zero:
                i = cod.index(fn(x))
                out[i] = k.add(out[i], c)
        return tuple(out)

    def arrow(self, fn, dom, cod):
        # Resolve fn to target positions once; fn is evaluated on all of dom.
        zero, add, size = self.k.zero, self.k.add, len(cod)
        targets = tuple(cod.index(fn(x)) for x in dom.elements)
        if self._op is not None:
            # M fn(el) adds the target masks of el's nonzero coordinates.
            op, decode = self._op, _bit_decoder(size)
            cols = tuple(1 << (size - 1 - t) for t in targets)
            return lambda el: decode(functools.reduce(op, itertools.compress(cols, el), 0))

        def apply(el):
            out = [zero] * size
            for i, c in zip(targets, el):
                if c != zero:
                    out[i] = add(out[i], c)
            return tuple(out)

        return apply

    def unit_element(self, X, x):
        k = self.k
        out = [k.zero] * len(X)
        out[X.index(x)] = k.one
        return tuple(out)

    def mult_element(self, X, el2):
        # el2 assigns a coefficient to every vector in M X; flatten linearly.
        k = self.k
        MX = self.apply(X)
        out = [k.zero] * len(X)
        for vec, c in zip(MX.elements, el2):
            if c != k.zero:
                for i, v in enumerate(vec):
                    if v != k.zero:
                        out[i] = k.add(out[i], k.mul(c, v))
        return tuple(out)

    def arrow_table(self, fn, dom, cod):
        if self._op is None:
            return super().arrow_table(fn, dom, cod)
        # Positions in M cod exist while M cod fits under the guard, as on
        # the general path; they are kept as unsigned 64-bit ints, not as
        # int objects.  The entry at p adds the target mask of p's top bit
        # to the entry without it, so the table doubles once per coordinate
        # of dom, the last coordinate (the lowest bit) first.
        guard_size(self.card(len(cod)), f"positions in {self.name}({cod.name})")
        op, top = self._op, len(cod) - 1
        table = array.array("Q", [0])
        for x in reversed(dom.elements):
            col = 1 << (top - cod.index(fn(x)))
            table += array.array("Q", map(op, table, itertools.repeat(col)))
        return table

    def mult_at(self, X):
        if self._op is not None:
            # The vector at position p of M X is the mask p.
            op, positions, decode = self._op, range(self.card(len(X))), _bit_decoder(len(X))
            return lambda el2: decode(functools.reduce(
                op, itertools.compress(positions, el2), 0))
        # Resolve M X once, each vector as its nonzero (position, coefficient)
        # pairs.
        zero, add, mul, size = self.k.zero, self.k.add, self.k.mul, len(X)
        rows = [tuple((i, v) for i, v in enumerate(vec) if v != zero)
                for vec in self.apply(X)]

        def mult(el2):
            out = [zero] * size
            for row, c in zip(rows, el2):
                if c != zero:
                    for i, v in row:
                        out[i] = add(out[i], mul(c, v))
            return tuple(out)

        return mult


class TableMonad(FinMonad):
    """A monad given by explicit tables on the canonical carriers X0..Xn.

    Arbitrary carriers of a covered size are handled by transporting along
    the index bijection; the arrow action must be supplied per function
    table between canonical carriers.
    """

    def __init__(self, name, sizes: dict, maps: dict):
        # sizes: n -> {"elements": [...], "unit": {x: el}, "mult": {el2: el}}
        # maps:  (m, n, value-tuple of f on X_m) -> {el: el}
        super().__init__()
        self.name = name
        self.sizes = sizes
        self.maps = maps

    def card(self, n):
        return len(self._level(n)["elements"])

    def _level(self, n):
        if n not in self.sizes:
            raise MissingComponent(f"{self.name}: no table for carriers of size {n}")
        return self.sizes[n]

    def _enumerate(self, X):
        # Carriers of equal size are identified with the canonical one by
        # the index bijection; the table tokens stand for both.
        return self._level(len(X))["elements"]

    def map_element_fn(self, fn, dom, cod, el):
        key = (len(dom), len(cod), tuple(cod.index(fn(x)) for x in dom.elements))
        if key not in self.maps:
            raise MissingComponent(f"{self.name}: no arrow table for {key}")
        return self.maps[key][el]

    def unit_element(self, X, x):
        return self._level(len(X))["unit"][X.index(x)]

    def mult_element(self, X, el2):
        return self._level(len(X))["mult"][el2]


# ---------------------------------------------------------------------------
# Law checking


def _skip_label(M: FinMonad, n: int, height: int) -> str:
    size = M.tower_card_display(n, height)
    head = f"|{'M' * height}X|"
    return f"{head} {size}, above the guard" if size.startswith(">") else f"{head} = {size}, above the guard {blowup_limit()}"


def check_monad_laws(M: FinMonad, max_size: int) -> LawReport:
    """Exhaustively verify functoriality, naturality and the monad laws on
    all canonical carriers of size <= max_size.

    Instances that would require enumerating an iterated application beyond
    the guard are reported as skipped.  The first counterexample in
    enumeration order is recorded per law.

    The elements of a canonical carrier are their own indices, so a function
    between two of them is its value tuple and g.f is `gv[y] for y in fv`.
    For the length of one call, M h (one per value tuple, through `M.arrow`)
    and mu_X (one per carrier, through `M.mult_at`) are `LazyTable`s that
    keep their values as they are first asked for, up to `blowup_limit()`
    kept values in all.
    """
    if max_size < 1:
        raise InputError("max_size must be >= 1")
    carriers = canonical_carriers(max_size)
    for X in carriers:
        if M.card(len(X)) > blowup_limit():
            raise NonFinitePreserving(
                f"{M.name}: |M({X.name})| = {M.card(len(X))} exceeds the guard")

    report = LawReport(f"monad {M.name}")
    units = [tuple(M.unit_element(X, x) for x in X) for X in carriers]
    room = blowup_limit()

    def memo(fn: Callable, size: int) -> LazyTable:
        """fn kept on at most `size` values, drawn from the call's budget."""
        nonlocal room
        capacity = min(size, room)
        room -= capacity
        return LazyTable(fn, capacity)

    # arrows[values, n]: M h for h: X_len(values) -> X_n with value tuple
    # `values`; mults[n]: mu at X_n.
    arrows = LazyTable(lambda key: memo(
        M.arrow(key[0].__getitem__, carriers[len(key[0])], carriers[key[1]]),
        M.card(len(key[0]))))
    mults = LazyTable(lambda n: memo(
        M.mult_at(carriers[n]), M.card(M.card(n)) if M.tower_fits(n, 2) else room))

    for X in carriers:
        MX = M.apply(X)
        mult_x = mults[len(X)].__getitem__
        # functor preserves identities
        id_x = arrows[X.elements, len(X)]
        report.first("map-identity", X.name, (
            {"carrier": X.name, "element": el, "got": got}
            for el in MX if (got := id_x[el]) != el))

        # left unit: mult . unit at M X == id
        report.first("left-unit", X.name, (
            {"carrier": X.name, "element": el, "got": got}
            for el in MX if (got := mult_x(M.unit_element(MX, el))) != el))

        # right unit: mult . M(unit) == id
        m_unit = M.arrow(units[len(X)].__getitem__, X, MX)
        report.first("right-unit", X.name, (
            {"carrier": X.name, "element": el, "got": got}
            for el in MX if (got := mult_x(m_unit(el))) != el))

        # associativity over M(M(M X))
        if M.tower_fits(len(X), 3):
            MMX = M.apply(MX)
            mult_mx = M.mult_at(MX)
            m_mult = M.arrow(mult_x, MMX, MX)
            report.first("mult-associativity", X.name, (
                {"carrier": X.name, "element": el3,
                 "outer-first": outer, "inner-first": inner}
                for el3 in M.apply(MMX)
                if (outer := mult_x(mult_mx(el3))) != (inner := mult_x(m_mult(el3)))))
        else:
            report.skip("mult-associativity", X.name, _skip_label(M, len(X), 3))

    # composition, naturality: all functions between canonical carriers
    for X in carriers:
        for Y in carriers:
            pair = f"{X.name}->{Y.name}"
            MX = M.apply(X)
            MY = M.apply(Y)

            def unit_failures():
                unit_x, unit_y = units[len(X)], units[len(Y)]
                for fv in function_values(X, Y):
                    Mf = arrows[fv, len(Y)]
                    for x in X:
                        if (lhs := Mf[unit_x[x]]) != (rhs := unit_y[fv[x]]):
                            yield {"function": dict(enumerate(fv)), "element": x,
                                   "lhs": lhs, "rhs": rhs}

            report.first("unit-naturality", pair, unit_failures())

            if M.tower_fits(len(X), 2):
                MMX = M.apply(MX)

                def mult_failures():
                    # M f . mult_X  vs  mult_Y . M(M f)
                    mult_x, mult_y = mults[len(X)], mults[len(Y)]
                    for fv in function_values(X, Y):
                        Mf = arrows[fv, len(Y)]
                        m_mf = M.arrow(Mf.__getitem__, MX, MY)
                        for el2 in MMX:
                            lhs = Mf[mult_x[el2]]
                            rhs = mult_y[m_mf(el2)]
                            if lhs != rhs:
                                yield {"function": dict(enumerate(fv)), "element": el2,
                                       "lhs": lhs, "rhs": rhs}

                report.first("mult-naturality", pair, mult_failures())
            else:
                report.skip("mult-naturality", pair, _skip_label(M, len(X), 2))

            for Z in carriers:
                def composition_failures():
                    for fv in function_values(X, Y):
                        Mf = arrows[fv, len(Y)]
                        for gv in function_values(Y, Z):
                            Mg = arrows[gv, len(Z)]
                            Mgf = arrows[tuple(map(gv.__getitem__, fv)), len(Z)]
                            for el in MX:
                                lhs = Mgf[el]
                                rhs = Mg[Mf[el]]
                                if lhs != rhs:
                                    yield {"f": dict(enumerate(fv)), "g": dict(enumerate(gv)),
                                           "element": el, "lhs": lhs, "rhs": rhs}

                report.first("map-composition", f"{X.name}->{Y.name}->{Z.name}",
                             composition_failures())

    return report
