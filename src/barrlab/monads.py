"""Finiteness-preserving monads on finite sets, with exhaustive law checking.

Structure maps are exposed in three forms: pointwise (`unit_element`,
`mult_element`, `map_element_fn`); resolved once for loops that apply them
to many elements (`arrow` for M f, `mult_at` for mu_X); and as tables of
positions (`arrow_table` for M f, `mult_table` for mu_X and `kleisli_table`
for mu . M h), each entry the position of one value in the codomain's
enumeration.  The law checker decides every law but the unit laws by
composing and comparing two such tables (`finset.compose`,
`finset.differences`) and decodes elements only at the first differing
position (`reports.table_failures`).  The free
semimodule monads over Z/2 and the Boolean semiring, and the powerset monad,
build the tables from bitmasks without enumerating M(M X) or M(M(M X)); the
other monads fill them element by element.  Iterated applications still
explode quickly (powerset towers, free semimodules), so the checker runs an
instance only while its tables fit under the blow-up guard, recording
larger instances as skipped.  A monad whose first application M X already
exceeds the guard for a carrier under the requested bound is rejected
outright.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterable, Optional, Sequence

from .errors import InputError, MissingComponent, NonFinitePreserving, blowup_limit
from .finset import (Element, FinSet, LazyTable, as_function, canonical_carriers, compose,
                     differences, function_values, guard_size, reader)
from .groups import FinMonoid
from .reports import LawReport, table_failures
from .semiring import Semiring, check_semiring


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

    def guard(self, X: FinSet) -> None:
        """Raise BlowUpGuard, as building M X would, where M X exceeds the
        guard: a table over M X has an entry per element."""
        guard_size(self.card(len(X)), f"building {self.name}({X.name})")

    def _materialise(self, X: FinSet) -> FinSet:
        self.guard(X)
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

    def arrow_table(self, f: Sequence[int], dom: FinSet, cod: FinSet) -> tuple:
        """M f as positions, for f: dom -> cod given as the position in cod
        of each element of dom: entry p is the position in M cod of M f
        applied to the element at position p of M dom."""
        m_f = self.arrow(as_function(f, dom, cod), dom, cod)
        return tuple(map(self.apply(cod).index, map(m_f, self.apply(dom))))

    def mult_table(self, X: FinSet) -> tuple:
        """mu_X as positions: entry p is the position in M X of mu_X applied
        to the element at position p of M(M X)."""
        return tuple(map(self.apply(X).index, map(self.mult_at(X), self.apply(self.apply(X)))))

    def kleisli_table(self, h: Sequence[int], dom: FinSet, cod: FinSet) -> tuple:
        """mu_cod . M h as positions over M dom, for h: dom -> M cod given as
        the position in M cod of each element of dom."""
        MC = self.apply(cod)
        m_h = self.arrow(as_function(h, dom, MC), dom, MC)
        return tuple(map(MC.index, map(self.mult_at(cod), map(m_h, self.apply(dom)))))

    def tower(self, n: int, height: int) -> Optional[int]:
        """The size of M^height X for |X| = n, or None where a step below
        the top already exceeds the guard: `card` is never called past the
        first size above the guard, as a table monad has no table there."""
        limit = blowup_limit()
        for _ in range(height):
            if n > limit:
                return None
            n = self.card(n)
        return n

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


def _double(op: Callable[[int, int], int], cols: Sequence[int]) -> tuple:
    """Entry p combines with `op` the columns picked by the bits of p, the
    first column on the top bit.  The table doubles once per column, the
    last column (the lowest bit) first."""
    table = (0,)
    for col in reversed(cols):
        table += tuple(map(op, table, itertools.repeat(col)))
    return table


# The subsets of an n-element set as masks, the first element on the top
# bit (a subset's mask is the position of its 0/1 vector in the Boolean
# semimodule), in the powerset's enumeration order; and the inverse.
# Memoised by n, not by monad, so that no monad is kept alive; n stays
# small, as every table read through them has 2^n entries.
@functools.lru_cache(maxsize=None)
def _subset_masks(n: int) -> tuple:
    bits = [1 << (n - 1 - i) for i in range(n)]
    return tuple(itertools.chain.from_iterable(
        map(sum, itertools.combinations(bits, size)) for size in range(n + 1)))


@functools.lru_cache(maxsize=None)
def _subset_ranks(n: int) -> tuple:
    masks = _subset_masks(n)
    return tuple(sorted(range(len(masks)), key=masks.__getitem__))


class PowersetMonad(FinMonad):
    """Finite powerset; subsets are tuples in length-then-index order.

    A subset is also a mask (`_subset_masks`), so the tables are built as
    for the Boolean semimodule, in mask space, and read back to positions
    through `_subset_ranks`."""

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

    def unit_element(self, X, x):
        return (x,)

    def mult_element(self, X, el2):
        return self._canonical(X, (x for subset in el2 for x in subset))

    def arrow_table(self, f, dom, cod):
        # The singleton {y} follows the empty set at position 1 + index(y).
        return self.kleisli_table(tuple(1 + q for q in f), dom, cod)

    def mult_table(self, X):
        return self.kleisli_table(range(self.card(len(X))), self.apply(X), X)

    def kleisli_table(self, h, dom, cod):
        guard_size(self.card(len(cod)), f"positions in {self.name}({cod.name})")
        guard_size(self.card(len(dom)), f"positions over {self.name}({dom.name})")
        by_mask = _double(operator.or_, compose(_subset_masks(len(cod)), h))
        return compose(_subset_ranks(len(cod)), compose(by_mask, _subset_masks(len(dom))))


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
    Over any semiring that passes the semiring laws, the position of a
    vector is likewise the base-|k| numeral of its coefficients' indices,
    and the tables of positions are built without materialising M cod: from
    masks over Z/2 and the Boolean semiring, and on the indices, one
    coordinate at a time, over the others (`_index_tables`).  Over a table
    semiring that breaks a law they are read element by element.
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
        return self.mult_at(X)(el2)

    @functools.cached_property
    def _index_tables(self) -> Optional[tuple]:
        """(sums, products, zero, one) on the indices of k's elements, where
        sums[e][d] is the index of k[d] + k[e] and products[c][b] that of
        k[c] * k[b]; None unless k passes the semiring laws on all triples
        (Z/2 and the Boolean semiring, recognised by `_bit_op`, do).  Only
        semirings of at most 16 elements are checked, in 16^3 triples at
        most: over a larger one M(M X1) has at least 17^17 elements, so the
        tables would serve X0 alone."""
        k = self.k
        if self._op is None and (len(k.elements) > 16 or not check_semiring(k).passed):
            return None
        ks = FinSet(k.name, k.elements)
        return ([tuple(ks.index(k.add(a, e)) for a in ks) for e in ks],
                [[ks.index(k.mul(c, b)) for b in ks] for c in ks],
                ks.index(k.zero), ks.index(k.one))

    def arrow_table(self, f, dom, cod):
        if self._index_tables is None:
            return super().arrow_table(f, dom, cod)
        # M f = mu . M(eta . f), and eta(y) has digit `one` at y and digit
        # `zero` elsewhere.
        base, top, (zero, one) = len(self.k.elements), len(cod) - 1, self._index_tables[2:]
        zeros = zero * (base ** len(cod) - 1) // (base - 1)
        return self.kleisli_table(tuple(zeros + (one - zero) * base ** (top - q) for q in f),
                                  dom, cod)

    def mult_table(self, X):
        if self._index_tables is None:
            return super().mult_table(X)
        # The vector at position p of M X has the digits of p.
        return self.kleisli_table(range(self.card(len(X))), self.apply(X), X)

    def kleisli_table(self, h, dom, cod):
        if self._index_tables is None:
            return super().kleisli_table(h, dom, cod)
        # Positions in M cod exist while M cod fits under the guard; M cod
        # itself is not materialised.  The position of a vector is the
        # base-|k| numeral of its coefficients' indices, first coordinate on
        # top.  The table has one entry per element of M dom.
        guard_size(self.card(len(cod)), f"positions in {self.name}({cod.name})")
        guard_size(self.card(len(dom)), f"positions over {self.name}({dom.name})")
        if self._op is not None:
            # mu . M h adds, for each nonzero coordinate, the mask h assigns
            # to it: one doubling over the columns h.
            return _double(self._op, h)
        # Coordinate j of mu . M h at el is the sum over x of el_x * h(x)_j,
        # tabulated over M dom one coordinate of dom at a time, like
        # `_double` with |k| blocks per step; the numerals are then summed
        # up coordinate by coordinate.
        sums, products, zero, _ = self._index_tables
        base, size = len(sums), len(cod)
        positions = (0,) * self.card(len(dom))
        for j in range(size):
            weight, digits = base ** (size - 1 - j), (zero,)
            for q in reversed(h):
                b = q // weight % base
                digits = tuple(itertools.chain.from_iterable(
                    map(sums[row[b]].__getitem__, digits) for row in products))
            positions = tuple(map(operator.add, positions,
                                  map(operator.mul, digits, itertools.repeat(weight))))
        return positions

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


def check_monad_laws(M: FinMonad, max_size: int) -> LawReport:
    """Exhaustively verify functoriality, naturality and the monad laws on
    all canonical carriers of size <= max_size.

    Instances that would require enumerating an iterated application beyond
    the guard are reported as skipped.  The first counterexample in
    enumeration order is recorded per law.

    The elements of a canonical carrier are their own indices, so a function
    between two of them is its value tuple and g.f is `gv[y] for y in fv`.
    Each law compares two tables of positions (`arrow_table`, `mult_table`,
    `kleisli_table`) and decodes elements only where they first differ.
    For the length of one call, M h (one table per value tuple h) and mu_X
    (one per carrier) are kept in `LazyTable`s while the kept tables hold at
    most `blowup_limit()` entries in all; past that a table is computed
    without being stored.  A table monad is asked for its arrow tables in
    the order of a pointwise check that stops at each law's first failure.
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
    unit_positions = [tuple(map(M.apply(X).index, units[len(X)])) for X in carriers]
    budget = [blowup_limit()]

    def arrows_into(Y: FinSet) -> LazyTable:
        """M h for each h: X_m -> Y, keyed by h's value tuple."""
        return LazyTable(lambda values: M.arrow_table(values, carriers[len(values)], Y), budget)

    arrows = [arrows_into(Y) for Y in carriers]
    mults = LazyTable(lambda n: M.mult_table(carriers[n]), budget)

    for X in carriers:
        MX = M.apply(X)
        # functor preserves identities
        ids = arrows[len(X)][X.elements]
        report.first("map-identity", X.name, (
            {"carrier": X.name, "element": MX.elements[p], "got": MX.elements[ids[p]]}
            for p in differences(ids, tuple(range(len(MX))))))

        # left unit: mult . unit at M X == id; both unit laws run over M X
        flatten = M.mult_at(X)
        report.first("left-unit", X.name, (
            {"carrier": X.name, "element": el, "got": got}
            for el in MX if (got := flatten(M.unit_element(MX, el))) != el))

        # right unit: mult . M(unit) == id
        m_unit = M.arrow(units[len(X)].__getitem__, X, MX)
        report.first("right-unit", X.name, (
            {"carrier": X.name, "element": el, "got": got}
            for el in MX if (got := flatten(m_unit(el))) != el))

        # associativity over M(M(M X))
        def associativity_failures():
            mult_x, MMX = mults[len(X)], M.apply(MX)
            outer = compose(mult_x, M.mult_table(MX))
            inner = compose(mult_x, M.arrow_table(mult_x, MMX, MX))
            yield from table_failures(
                {"carrier": X.name}, lambda p: M.apply(MMX).elements[p], MX, outer, inner,
                ("outer-first", "inner-first"))

        report.first("mult-associativity", X.name, associativity_failures(),
                     [("MMMX", M.tower(len(X), 3))])

    # composition, naturality: all functions between canonical carriers
    for X in carriers:
        for Y in carriers:
            pair = f"{X.name}->{Y.name}"
            MX, MY, into_y = M.apply(X), M.apply(Y), arrows[len(Y)]

            def unit_failures():
                # M f at the units of X  vs  the units of Y at f; with no
                # units to read, M f is not asked for
                at_units, units_y = reader(unit_positions[len(X)]), unit_positions[len(Y)]
                for fv in function_values(X, Y) if X else ():
                    lhs, rhs = at_units(into_y[fv]), compose(units_y, fv)
                    if lhs != rhs:
                        yield from table_failures({"function": dict(enumerate(fv))},
                                                  X.elements.__getitem__, MY, lhs, rhs)

            report.first("unit-naturality", pair, unit_failures())

            def mult_failures():
                # M f . mult_X  vs  mult_Y . M(M f)
                mult_x = mults[len(X)]
                for fv in function_values(X, Y):
                    Mf = into_y[fv]
                    lhs, rhs = compose(Mf, mult_x), M.kleisli_table(Mf, MX, Y)
                    if lhs != rhs:
                        yield from table_failures(
                            {"function": dict(enumerate(fv))},
                            lambda p: M.apply(MX).elements[p], MY, lhs, rhs)

            report.first("mult-naturality", pair, mult_failures(), [("MMX", M.tower(len(X), 2))])

            for Z in carriers:
                def composition_failures():
                    into_z, MZ = arrows[len(Z)], M.apply(Z)
                    for fv in function_values(X, Y):
                        # M(g.f), then M f, then M g: the order in which a
                        # table monad is first asked for them.
                        at_f, after_mf = reader(fv), None
                        for gv in function_values(Y, Z):
                            lhs = into_z[at_f(gv)]
                            if after_mf is None:
                                after_mf = reader(into_y[fv])
                            rhs = after_mf(into_z[gv])
                            if lhs != rhs:
                                yield from table_failures(
                                    {"f": dict(enumerate(fv)), "g": dict(enumerate(gv))},
                                    MX.elements.__getitem__, MZ, lhs, rhs)

                report.first("map-composition", f"{X.name}->{Y.name}->{Z.name}",
                             composition_failures())

    return report
