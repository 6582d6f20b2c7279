"""Finiteness-preserving monads on finite sets, with exhaustive law checking.

Structure maps are exposed pointwise (`unit_element`, `mult_element`,
`map_element`) as well as in materialised table form.  The pointwise forms
matter: iterated applications such as M(M(M X)) explode quickly (powerset
towers, free semimodules), and the law checker enumerates an instance only
while it fits under the blow-up guard, recording larger instances as
skipped.  A monad whose first application M X already exceeds the guard for
a carrier under the requested bound is rejected outright.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable

from .errors import InputError, MissingComponent, NonFinitePreserving, blowup_limit
from .finset import (Element, FinFn, FinSet, all_functions, canonical_carriers,
                     guard_size, identity_fn)
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
        self._apply_cache: dict[FinSet, FinSet] = {}

    def apply(self, X: FinSet) -> FinSet:
        """Materialise M X (guarded and memoised)."""
        cached = self._apply_cache.get(X)
        if cached is None:
            guard_size(self.card(len(X)), f"building {self.name}({X.name})")
            cached = FinSet(f"{self.name}({X.name})", self._enumerate(X))
            self._apply_cache[X] = cached
        return cached

    def map_element(self, f: FinFn, el: Element) -> Element:
        return self.map_element_fn(f, f.dom, f.cod, el)

    def arrow(self, fn: Callable, dom: FinSet, cod: FinSet) -> Callable[[Element], Element]:
        """M fn as a function of one element of M dom.  Loops that apply the
        same arrow to many elements build it once; a subclass may resolve
        fn in advance."""
        return lambda el: self.map_element_fn(fn, dom, cod, el)

    def map(self, f: FinFn) -> FinFn:
        dom = self.apply(f.dom)
        cod = self.apply(f.cod)
        return FinFn(dom, cod, {el: self.map_element(f, el) for el in dom},
                     name=f"{self.name}({f.name})")

    def unit(self, X: FinSet) -> FinFn:
        return FinFn(X, self.apply(X), {x: self.unit_element(X, x) for x in X},
                     name=f"unit_{X.name}")

    def mult(self, X: FinSet) -> FinFn:
        """Multiplication as a table; materialises M(M X)."""
        MX = self.apply(X)
        MMX = self.apply(MX)
        return FinFn(MMX, MX, {el: self.mult_element(X, el) for el in MMX},
                     name=f"mult_{X.name}")

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

    def unit_element(self, X, x):
        return (x,)

    def mult_element(self, X, el2):
        return self._canonical(X, (x for subset in el2 for x in subset))


class SemimoduleMonad(FinMonad):
    """Free semimodule monad over a finite semiring k: M X = k^X.

    Elements of M X are tuples of coefficients aligned with X's enumeration;
    one element of M(M X) is a tuple over M X, so single elements stay small
    even when the set M(M X) cannot be enumerated.
    """

    def __init__(self, k: Semiring):
        super().__init__()
        if not k.finite:
            raise NonFinitePreserving(
                f"semimodule monad needs a finite semiring, got {k.name}")
        self.k = k
        self.name = f"semimodule[{k.name}]"

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
        try:
            return len(self.sizes[n]["elements"])
        except KeyError:
            raise MissingComponent(f"{self.name}: no table for carriers of size {n}") from None

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


def semimodule_monad(k: Semiring) -> SemimoduleMonad:
    return SemimoduleMonad(k)


def writer_monad(monoid: FinMonoid) -> WriterMonad:
    return WriterMonad(monoid)


def powerset_monad() -> PowersetMonad:
    return PowersetMonad()


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
    """
    if max_size < 1:
        raise InputError("max_size must be >= 1")
    carriers = canonical_carriers(max_size)
    for X in carriers:
        if M.card(len(X)) > blowup_limit():
            raise NonFinitePreserving(
                f"{M.name}: |M({X.name})| = {M.card(len(X))} exceeds the guard")

    report = LawReport(f"monad {M.name}")

    for X in carriers:
        MX = M.apply(X)
        # functor preserves identities
        ok, ce = None, None
        for el in MX:
            got = M.map_element(identity_fn(X), el)
            if got != el:
                ce = {"carrier": X.name, "element": el, "got": got}
                break
        report.record("map-identity", X.name, ce is None, counterexample=ce)

        # left unit: mult . unit at M X == id
        ce = None
        for el in MX:
            got = M.mult_element(X, M.unit_element(MX, el))
            if got != el:
                ce = {"carrier": X.name, "element": el, "got": got}
                break
        report.record("left-unit", X.name, ce is None, counterexample=ce)

        # right unit: mult . M(unit) == id
        u = M.unit(X)
        ce = None
        for el in MX:
            got = M.mult_element(X, M.map_element_fn(u, X, MX, el))
            if got != el:
                ce = {"carrier": X.name, "element": el, "got": got}
                break
        report.record("right-unit", X.name, ce is None, counterexample=ce)

        # associativity over M(M(M X))
        if M.tower_fits(len(X), 3):
            MMX = M.apply(MX)
            MMMX = M.apply(MMX)
            mult_X = M.mult(X)
            ce = None
            for el3 in MMMX:
                via_outer = M.mult_element(X, M.mult_element(MX, el3))
                via_inner = M.mult_element(X, M.map_element_fn(mult_X, MMX, MX, el3))
                if via_outer != via_inner:
                    ce = {"carrier": X.name, "element": el3,
                          "outer-first": via_outer, "inner-first": via_inner}
                    break
            report.record("mult-associativity", X.name, ce is None, counterexample=ce)
        else:
            report.skip("mult-associativity", X.name, _skip_label(M, len(X), 3))

    # composition, naturality: all functions between canonical carriers
    for X in carriers:
        for Y in carriers:
            pair = f"{X.name}->{Y.name}"
            MX = M.apply(X)
            MY = M.apply(Y)

            ce = None
            for f in all_functions(X, Y):
                for x in X:
                    lhs = M.map_element_fn(f, X, Y, M.unit_element(X, x))
                    rhs = M.unit_element(Y, f(x))
                    if lhs != rhs:
                        ce = {"function": dict(f.pairs()), "element": x,
                              "lhs": lhs, "rhs": rhs}
                        break
                if ce:
                    break
            report.record("unit-naturality", pair, ce is None, counterexample=ce)

            if M.tower_fits(len(X), 2):
                MMX = M.apply(MX)
                ce = None
                for f in all_functions(X, Y):
                    Mf = M.map(f)
                    for el2 in MMX:
                        # M f . mult_X  vs  mult_Y . M(M f)
                        lhs = Mf(M.mult_element(X, el2))
                        rhs = M.mult_element(Y, M.map_element_fn(Mf, MX, MY, el2))
                        if lhs != rhs:
                            ce = {"function": dict(f.pairs()), "element": el2,
                                  "lhs": lhs, "rhs": rhs}
                            break
                    if ce:
                        break
                report.record("mult-naturality", pair, ce is None, counterexample=ce)
            else:
                report.skip("mult-naturality", pair, _skip_label(M, len(X), 2))

            for Z in carriers:
                triple = f"{X.name}->{Y.name}->{Z.name}"
                ce = None
                for f in all_functions(X, Y):
                    for g in all_functions(Y, Z):
                        gf = f.then(g)
                        for el in MX:
                            lhs = M.map_element(gf, el)
                            rhs = M.map_element(g, M.map_element(f, el))
                            if lhs != rhs:
                                ce = {"f": dict(f.pairs()), "g": dict(g.pairs()),
                                      "element": el, "lhs": lhs, "rhs": rhs}
                                break
                        if ce:
                            break
                    if ce:
                        break
                report.record("map-composition", triple, ce is None, counterexample=ce)

    return report
