"""Distributive laws between a monad and an endofunctor, in both directions,
with exhaustive axiom checkers and the induced liftings.

The algebra-side direction distributes the monad over the functor and is
equivalent to lifting the functor to the category of algebras; the
Kleisli-side direction distributes the functor over the monad.  Components
are generated on demand from a formula for the builtin families and cached
per carrier; user-supplied laws come as explicit tables.
"""

from __future__ import annotations

from typing import Callable, Optional

from .algebras import EMAlgebra
from .errors import DomainMismatch, MissingComponent
from .finset import Element, FinFn, FinSet, all_functions, canonical_carriers
from .functors import (Const, FunctorExpr, Id, Prod, eval_functor,
                       map_element, moore_functor)
from .groups import FinGroup, FinMonoid, as_group
from .monads import ExceptionMonad, FinMonad, SemimoduleMonad, WriterMonad
from .reports import LawReport


class DistLawEM:
    """A family of components M(H X) -> H(M X), natural in X."""

    def __init__(self, H: FunctorExpr, M: FinMonad, name: str = ""):
        self.H = H
        self.M = M
        self.name = name or f"law[{M.name}/{H}]"
        self._tables: dict[FinSet, FinFn] = {}
        self._hx_cache: dict[FinSet, FinSet] = {}

    def functor_at(self, X: FinSet) -> FinSet:
        cached = self._hx_cache.get(X)
        if cached is None:
            cached = eval_functor(self.H, X)
            self._hx_cache[X] = cached
        return cached

    def component_at(self, X: FinSet, el: Element) -> Element:
        raise NotImplementedError

    def has_component(self, X: FinSet) -> bool:
        """Formula-backed laws cover every carrier; table laws only the listed ones."""
        return True

    def component(self, X: FinSet) -> FinFn:
        """The component at X as an explicit table (guarded, memoised)."""
        cached = self._tables.get(X)
        if cached is None:
            HX = self.functor_at(X)
            dom = self.M.apply(HX)
            cod = eval_functor(self.H, self.M.apply(X))
            cached = FinFn(dom, cod, {el: self.component_at(X, el) for el in dom},
                           name=f"{self.name}@{X.name}")
            self._tables[X] = cached
        return cached

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class FormulaDistLawEM(DistLawEM):
    def __init__(self, H, M, formula: Callable, name=""):
        super().__init__(H, M, name)
        self._formula = formula

    def component_at(self, X, el):
        return self._formula(X, el)


class TableDistLawEM(DistLawEM):
    """Components supplied explicitly, keyed by carrier."""

    def __init__(self, H, M, components: dict, name=""):
        super().__init__(H, M, name)
        for X, fn in components.items():
            self._tables[X] = fn

    def has_component(self, X):
        return X in self._tables

    def component(self, X):
        if X not in self._tables:
            raise MissingComponent(f"{self.name}: no component at {X.name}")
        return self._tables[X]

    def component_at(self, X, el):
        return self.component(X)(el)


class DistLawKl:
    """A family of components T(M X) -> M(T X), natural in X."""

    def __init__(self, T: FunctorExpr, M: FinMonad, name: str = ""):
        self.T = T
        self.M = M
        self.name = name or f"klaw[{M.name}/{T}]"
        self._tables: dict[FinSet, FinFn] = {}

    def component_at(self, X: FinSet, el: Element) -> Element:
        raise NotImplementedError

    def has_component(self, X: FinSet) -> bool:
        return True

    def component(self, X: FinSet) -> FinFn:
        cached = self._tables.get(X)
        if cached is None:
            MX = self.M.apply(X)
            dom = eval_functor(self.T, MX)
            cod = self.M.apply(eval_functor(self.T, X))
            cached = FinFn(dom, cod, {el: self.component_at(X, el) for el in dom},
                           name=f"{self.name}@{X.name}")
            self._tables[X] = cached
        return cached


class FormulaDistLawKl(DistLawKl):
    def __init__(self, T, M, formula: Callable, name=""):
        super().__init__(T, M, name)
        self._formula = formula

    def component_at(self, X, el):
        return self._formula(X, el)


class TableDistLawKl(DistLawKl):
    def __init__(self, T, M, components: dict, name=""):
        super().__init__(T, M, name)
        for X, fn in components.items():
            self._tables[X] = fn

    def has_component(self, X):
        return X in self._tables

    def component(self, X):
        if X not in self._tables:
            raise MissingComponent(f"{self.name}: no component at {X.name}")
        return self._tables[X]

    def component_at(self, X, el):
        return self.component(X)(el)


# ---------------------------------------------------------------------------
# Builtin law families


def identity_law(M: FinMonad) -> DistLawEM:
    """H = Id; the component at every carrier is the identity."""
    return FormulaDistLawEM(Id(), M, lambda X, el: el, name=f"identity[{M.name}]")


def constant_law(M: FinMonad, out: EMAlgebra) -> DistLawEM:
    """H constant at an algebra carrier; the component is its structure map."""
    return FormulaDistLawEM(Const(out.carrier), M,
                            lambda X, el: out.structure_at(el),
                            name=f"const[{out.name}/{M.name}]")


def gset_law(group: FinGroup, rule: Callable, name: str) -> DistLawEM:
    """Distributive law of a group's writer monad over the functor G x X.

    `rule` maps a pair (outer, inner) of group elements to the transformed
    pair; it must fix (unit, h) -> (h, unit) and respect multiplication for
    the result to pass the checker.
    """
    G = group.as_finset()
    M = WriterMonad(group)
    H = Prod(Const(G), Id())

    def formula(X, el):
        g, (h, x) = el
        p, q = rule(g, h)
        return (p, (q, x))

    return FormulaDistLawEM(H, M, formula, name=name)


def gset_distlaws(group) -> tuple[DistLawEM, DistLawEM]:
    """The two canonical laws for G-sets: one built from the group
    multiplication, one from conjugation.  They agree iff G is abelian."""
    G = as_group(group) if isinstance(group, FinMonoid) else group
    if not isinstance(G, FinGroup):
        G = as_group(G)
    mult_rule = lambda g, h: (G.op(g, h), g)
    conj_rule = lambda g, h: (G.op(G.op(g, h), G.inv(g)), g)
    return (
        gset_law(G, mult_rule, name=f"gset-{G.name.lower()}-mult"),
        gset_law(G, conj_rule, name=f"gset-{G.name.lower()}-conj"),
    )


def product_swap_law(M: WriterMonad, A: FinSet) -> DistLawEM:
    """The symmetric law for H = A x X over a writer monad: the monoid part
    slides past the constant component untouched."""
    H = Prod(Const(A), Id())

    def formula(X, el):
        b, (a, x) = el
        return (a, (b, x))

    return FormulaDistLawEM(H, M, formula, name=f"swap[{A.name}/{M.name}]")


def pointed_law(M: ExceptionMonad, outputs: FinSet,
                alphabet: Optional[FinSet] = None, base: Element = None) -> DistLawEM:
    """Law for H = C x X (or C x X^A) over an exception monad: error values
    propagate into every successor slot and output the chosen basepoint."""
    if base is None:
        base = outputs.elements[0]
    if alphabet is None:
        H = Prod(Const(outputs), Id())

        def formula(X, el):
            tag, v = el
            if tag == 0:
                return (base, (0, v))
            c, x = v
            return (c, (1, x))
    else:
        H = moore_functor(outputs, alphabet)
        width = len(alphabet)

        def formula(X, el):
            tag, v = el
            if tag == 0:
                return (base, tuple((0, v) for _ in range(width)))
            c, succ = v
            return (c, tuple((1, x) for x in succ))

    return FormulaDistLawEM(H, M, formula, name=f"pointed[{outputs.name}/{M.name}]")


def semiring_algebra(M: SemimoduleMonad) -> EMAlgebra:
    """The coefficient semiring as an algebra over its own monad: a formal
    combination of scalars evaluates by multiply-then-sum."""
    k = M.k
    kset = k.as_finset()

    def structure(vec):
        return k.sum(k.mul(c, v) for v, c in zip(kset.elements, vec))

    return EMAlgebra(M, kset, structure, name=f"{k.name}-as-algebra")


class SemimoduleFunctorLaw(DistLawEM):
    """Law for H = C x X^A (or C x X, or constant C) over a free-semimodule
    monad, where C carries an algebra structure.

    A formal combination of H-structures splits into the combination of the
    outputs, evaluated through C's structure map, and the per-letter
    pushforward of the weights onto successor states.
    """

    def __init__(self, M: SemimoduleMonad, out: EMAlgebra,
                 alphabet: Optional[FinSet], shape: str):
        self.out = out
        self.alphabet = alphabet
        self.shape = shape
        if shape == "moore":
            H = moore_functor(out.carrier, alphabet)
        elif shape == "times":
            H = Prod(Const(out.carrier), Id())
        else:
            raise ValueError(f"unknown shape {shape!r}")
        super().__init__(H, M, name=f"linear[{out.carrier.name};{shape}/{M.name}]")
        self._arrows: dict[FinSet, tuple] = {}

    def _projection_arrows(self, X: FinSet) -> tuple:
        """M applied to the output projection and the successor projections
        of H X, built once per carrier."""
        cached = self._arrows.get(X)
        if cached is None:
            M, HX = self.M, self.functor_at(X)
            out = M.arrow(lambda w: w[0], HX, self.out.carrier)
            if self.shape == "times":
                succ = M.arrow(lambda w: w[1], HX, X)
            else:
                succ = tuple(M.arrow(lambda w, i=i: w[1][i], HX, X)
                             for i in range(len(self.alphabet)))
            cached = self._arrows[X] = (out, succ)
        return cached

    def component_at(self, X, phi):
        out, succ = self._projection_arrows(X)
        out_part = self.out.structure_at(out(phi))
        if self.shape == "times":
            return (out_part, succ(phi))
        return (out_part, tuple(s(phi) for s in succ))


def semimodule_moore_law(M: SemimoduleMonad, alphabet: FinSet,
                         out: Optional[EMAlgebra] = None) -> DistLawEM:
    """The coefficientwise-linear law for H = k x X^A (or C x X^A)."""
    return SemimoduleFunctorLaw(M, out or semiring_algebra(M), alphabet, "moore")


def semimodule_stream_law(M: SemimoduleMonad, out: EMAlgebra) -> DistLawEM:
    """The coefficientwise-linear law for H = C x X."""
    return SemimoduleFunctorLaw(M, out, None, "times")


# ---------------------------------------------------------------------------
# Checkers


def _memoised(fn: Callable) -> Callable:
    """A memo of a pure function of one element, for the length of one check."""
    cache: dict = {}

    def lookup(el):
        try:
            return cache[el]
        except KeyError:
            out = cache[el] = fn(el)
            return out

    return lookup


def check_distlaw_em(law: DistLawEM, max_size: int) -> LawReport:
    """Exhaustively verify the unit axiom, the multiplication axiom and
    naturality on all canonical carriers of size <= max_size.

    The axioms revisit few distinct component inputs many times, so each
    component is memoised for the length of this call."""
    M = law.M
    report = LawReport(f"distributive law {law.name}")
    carriers = canonical_carriers(max_size)
    for X in carriers:
        if not law.has_component(X):
            raise MissingComponent(f"{law.name}: no component at {X.name}")

    memos: dict[FinSet, Callable] = {}

    def component(X: FinSet) -> Callable:
        memo = memos.get(X)
        if memo is None:
            memo = memos[X] = _memoised(lambda el: law.component_at(X, el))
        return memo

    for X in carriers:
        HX = law.functor_at(X)
        MX = M.apply(X)
        unit_x = lambda x: M.unit_element(X, x)
        lam_x = component(X)

        ce = None
        for w in HX:
            lhs = lam_x(M.unit_element(HX, w))
            rhs = map_element(law.H, unit_x, w)
            if lhs != rhs:
                ce = {"carrier": X.name, "element": w, "lhs": lhs, "rhs": rhs}
                break
        report.record("unit-axiom", X.name, ce is None, counterexample=ce)

        if not law.has_component(MX):
            report.skip("mult-axiom", X.name,
                        f"no component at the derived carrier {MX.name}")
        elif M.tower_fits(len(HX), 2):
            MHX = M.apply(HX)
            MMHX = M.apply(MHX)
            HMX = eval_functor(law.H, MX)
            mult_x = lambda u: M.mult_element(X, u)
            lam_mx = component(MX)
            m_lam_x = M.arrow(lam_x, MHX, HMX)
            ce = None
            for big in MMHX:
                lhs = lam_x(M.mult_element(HX, big))
                rhs = map_element(law.H, mult_x, lam_mx(m_lam_x(big)))
                if lhs != rhs:
                    ce = {"carrier": X.name, "element": big, "lhs": lhs, "rhs": rhs}
                    break
            report.record("mult-axiom", X.name, ce is None, counterexample=ce)
        else:
            report.skip("mult-axiom", X.name,
                        f"|MM(H {X.name})| = {M.tower_card_display(len(HX), 2)} exceeds guard")

    for X in carriers:
        for Y in carriers:
            pair = f"{X.name}->{Y.name}"
            HX = law.functor_at(X)
            HY = law.functor_at(Y)
            if not M.tower_fits(len(HX), 1):
                report.skip("naturality", pair, f"|M(H {X.name})| exceeds guard")
                continue
            MHX = M.apply(HX)
            lam_x, lam_y = component(X), component(Y)
            ce = None
            for f in all_functions(X, Y):
                MHf = M.arrow(lambda w: map_element(law.H, f, w), HX, HY)
                Mf = M.arrow(f, X, Y)
                for u in MHX:
                    lhs = lam_y(MHf(u))
                    rhs = map_element(law.H, Mf, lam_x(u))
                    if lhs != rhs:
                        ce = {"function": dict(f.pairs()), "element": u,
                              "lhs": lhs, "rhs": rhs}
                        break
                if ce:
                    break
            report.record("naturality", pair, ce is None, counterexample=ce)

    return report


def check_distlaw_kl(law: DistLawKl, max_size: int) -> LawReport:
    """Dual checker for Kleisli-direction laws T(M X) -> M(T X)."""
    M = law.M
    T = law.T
    report = LawReport(f"kleisli law {law.name}")
    carriers = canonical_carriers(max_size)
    for X in carriers:
        if not law.has_component(X):
            raise MissingComponent(f"{law.name}: no component at {X.name}")

    for X in carriers:
        TX = eval_functor(T, X)
        MX = M.apply(X)
        TMX = eval_functor(T, MX)
        MTX = M.apply(TX)
        unit_x = lambda x: M.unit_element(X, x)

        ce = None
        for w in TX:
            lhs = law.component_at(X, map_element(T, unit_x, w))
            rhs = M.unit_element(TX, w)
            if lhs != rhs:
                ce = {"carrier": X.name, "element": w, "lhs": lhs, "rhs": rhs}
                break
        report.record("unit-axiom", X.name, ce is None, counterexample=ce)

        if not law.has_component(MX):
            report.skip("mult-axiom", X.name,
                        f"no component at the derived carrier {MX.name}")
        elif M.tower_fits(len(X), 2):
            MMX = M.apply(MX)
            TMMX = eval_functor(T, MMX)
            mult_x = lambda u: M.mult_element(X, u)
            ce = None
            for big in TMMX:
                lhs = law.component_at(X, map_element(T, mult_x, big))
                step = law.component_at(MX, big)          # in M(T(M X))
                step = M.map_element_fn(lambda el: law.component_at(X, el),
                                        TMX, MTX, step)   # in M(M(T X))
                rhs = M.mult_element(TX, step)
                if lhs != rhs:
                    ce = {"carrier": X.name, "element": big, "lhs": lhs, "rhs": rhs}
                    break
            report.record("mult-axiom", X.name, ce is None, counterexample=ce)
        else:
            report.skip("mult-axiom", X.name,
                        f"|MM {X.name}| = {M.tower_card_display(len(X), 2)} exceeds guard")

    for X in carriers:
        for Y in carriers:
            pair = f"{X.name}->{Y.name}"
            MX = M.apply(X)
            TMX = eval_functor(T, MX)
            TX = eval_functor(T, X)
            TY = eval_functor(T, Y)
            ce = None
            for f in all_functions(X, Y):
                Mf = lambda v: M.map_element_fn(f, X, Y, v)
                Tf = lambda w: map_element(T, f, w)
                for u in TMX:
                    lhs = law.component_at(Y, map_element(T, Mf, u))
                    rhs = M.map_element_fn(Tf, TX, TY, law.component_at(X, u))
                    if lhs != rhs:
                        ce = {"function": dict(f.pairs()), "element": u,
                              "lhs": lhs, "rhs": rhs}
                        break
                if ce:
                    break
            report.record("naturality", pair, ce is None, counterexample=ce)

    return report


# ---------------------------------------------------------------------------
# Liftings


class LiftedFunctor:
    """The lifting of H to algebras induced by a distributive law: it acts
    as H on carriers and re-equips the result with an algebra structure."""

    def __init__(self, law: DistLawEM):
        self.law = law

    def on_algebra(self, a: EMAlgebra) -> EMAlgebra:
        return lift_algebra(self.law, a)


def lift_algebra(law: DistLawEM, a: EMAlgebra) -> EMAlgebra:
    """Equip H(carrier) with the composite structure: distribute, then apply
    H to the original structure map."""
    X = a.carrier
    carrier = law.functor_at(X)

    def structure(u):
        return map_element(law.H, a.structure_at, law.component_at(X, u))

    return EMAlgebra(law.M, carrier, structure, name=f"lift[{law.name}]({a.name})")


def lift_coalgebra(law: DistLawEM, C: FinSet, xi: FinFn) -> FinFn:
    """Extend a coalgebra C -> H C to M C -> H(M C) along the law."""
    HC = law.functor_at(C)
    if xi.dom != C or xi.cod != HC:
        raise DomainMismatch(
            f"coalgebra structure must be {C.name} -> {law.H}({C.name})")
    M = law.M
    MC = M.apply(C)
    HMC = eval_functor(law.H, MC)
    m_xi = M.arrow(xi, C, HC)
    table = {el: law.component_at(C, m_xi(el)) for el in MC}
    return FinFn(MC, HMC, table, name=f"lifted-coalgebra[{law.name}]")
