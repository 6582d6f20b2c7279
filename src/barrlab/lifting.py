"""Natural families of components between a monad and a polynomial functor,
with the distributive laws they give, one naturality sweep, the axiom
checkers and the induced liftings.

Every family here runs between the two composites of a monad M and a
polynomial functor E: M after E (X |-> M(E X)) and E after M (X |-> E(M X)).
A `Composite` describes one of them; it gives the set at a carrier, read
from the functor's own images (`H(X)`) and the monad's (`M.apply`), and the
arrow at a function, built through `M.arrow` and `functors.arrow`.  A
`ComponentFamily` holds its source and target composites and either a
formula, evaluated on demand and tabulated per carrier when asked for, or
explicit per-carrier tables; checkers read a component through `lookup`,
a `LazyTable` per carrier.
The algebra-side law M(H X) -> H(M X) (`DistLawEM`, equivalent to lifting H
to algebras), the Kleisli-side law T(M X) -> M(T X) (`DistLawKl`) and the
mediating isomorphism H(M X) -> M(T X) of a commuting pair are all
component families; `naturality_failures` checks any of them against every
function between two carriers.  Checkers record their verdicts through
`LawReport.first`.
`lift_algebra` is the one place the lifted structure H(a) . lambda is
built: the chain's level algebras, the initial chain's base map, the
commuting-pair square and the law checker's multiplication axiom all read
it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, Optional

from .algebras import EMAlgebra, free_algebra, require_monad
from .errors import DomainMismatch, MissingComponent
from .finset import (Element, FinFn, FinSet, LazyTable, canonical_carriers, function_values,
                     tabulate)
from .functors import Const, FunctorExpr, Id, Prod, arrow, moore_functor
from .groups import FinGroup, FinMonoid, as_group
from .monads import ExceptionMonad, FinMonad, SemimoduleMonad, WriterMonad
from .reports import LawReport


class Composite:
    """M after E or E after M: `Composite(M, E)` sends X to M(E X) and
    `Composite(E, M)` sends X to E(M X)."""

    def __init__(self, outer, inner):
        self.monad_outer = isinstance(outer, FinMonad)
        self.M, self.E = (outer, inner) if self.monad_outer else (inner, outer)

    def at(self, X: FinSet) -> FinSet:
        if self.monad_outer:
            return self.M.apply(self.E(X))
        return self.E(self.M.apply(X))

    def arrow(self, f: Callable, X: FinSet, Y: FinSet) -> Callable[[Element], Element]:
        """The composite applied to f: X -> Y, as a function of one element."""
        M, E = self.M, self.E
        if self.monad_outer:
            return M.arrow(arrow(E, f), E(X), E(Y))
        return arrow(E, M.arrow(f, X, Y))


class ComponentFamily:
    """Components source(X) -> target(X), one per carrier, meant to be
    natural in X.

    A formula family (or a subclass that defines `component_at` itself)
    covers every carrier and tabulates a component on request; a table
    family covers exactly the carriers it was given.  `lookup` memoises
    `component_at` per carrier for the family's lifetime.
    """

    def __init__(self, source: Composite, target: Composite,
                 formula: Optional[Callable] = None, components: Optional[dict] = None,
                 name: str = ""):
        self.source = source
        self.target = target
        self.M = source.M
        self.name = name
        self._formula = formula
        self._tabled = components is not None
        self._tables = LazyTable(self._tabulate)
        self._tables.update(components or {})
        self._lookups = LazyTable(
            lambda X: LazyTable(lambda el: self.component_at(X, el)))

    def has_component(self, X: FinSet) -> bool:
        return not self._tabled or X in self._tables

    def missing(self, X: FinSet) -> MissingComponent:
        return MissingComponent(f"{self.name}: no component at {X.name}")

    def _tabulate(self, X: FinSet) -> FinFn:
        if self._tabled:
            raise self.missing(X)
        return tabulate(self.source.at(X), self.target.at(X), partial(self.component_at, X),
                        name=f"{self.name}@{X.name}")

    def component(self, X: FinSet) -> FinFn:
        """The component at X as an explicit table (memoised)."""
        return self._tables[X]

    def lookup(self, X: FinSet) -> Callable[[Element], Element]:
        """The component at X as a function of one element, memoised for the
        family's lifetime."""
        return self._lookups[X].__getitem__

    def component_at(self, X: FinSet, el: Element) -> Element:
        if self._tabled:
            return self.component(X)(el)
        return self._formula(X, el)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class DistLawEM(ComponentFamily):
    """A law M(H X) -> H(M X), natural in X."""

    def __init__(self, H: FunctorExpr, M: FinMonad, formula: Optional[Callable] = None,
                 components: Optional[dict] = None, name: str = ""):
        super().__init__(Composite(M, H), Composite(H, M), formula, components,
                         name or f"law[{M.name}/{H}]")
        self.H = H

    # Bound on each direction too, so that its calls can be counted per
    # direction by rebinding this attribute (see perfbench/tracer.py).
    component_at = ComponentFamily.component_at


class DistLawKl(ComponentFamily):
    """A law T(M X) -> M(T X), natural in X."""

    def __init__(self, T: FunctorExpr, M: FinMonad, formula: Optional[Callable] = None,
                 components: Optional[dict] = None, name: str = ""):
        super().__init__(Composite(T, M), Composite(M, T), formula, components,
                         name or f"klaw[{M.name}/{T}]")
        self.T = T

    component_at = ComponentFamily.component_at


def naturality_failures(source: Composite, target: Composite, X: FinSet, Y: FinSet,
                        at_x: Callable, at_y: Callable) -> Iterator[dict]:
    """Counterexamples to naturality of the components at_x: source(X) ->
    target(X) and at_y: source(Y) -> target(Y), over every f: X -> Y and
    every element of source(X), in canonical order and computed lazily."""
    dom = source.at(X)
    for values in function_values(X, Y):
        f = dict(zip(X.elements, values))
        source_f, target_f = (source.arrow(f.__getitem__, X, Y),
                              target.arrow(f.__getitem__, X, Y))
        for u in dom:
            lhs = at_y(source_f(u))
            rhs = target_f(at_x(u))
            if lhs != rhs:
                yield {"function": f, "element": u, "lhs": lhs, "rhs": rhs}


# ---------------------------------------------------------------------------
# Builtin law families


def identity_law(M: FinMonad) -> DistLawEM:
    """H = Id; the component at every carrier is the identity."""
    return DistLawEM(Id(), M, lambda X, el: el, name=f"identity[{M.name}]")


def constant_law(M: FinMonad, out: EMAlgebra) -> DistLawEM:
    """H constant at an algebra carrier; the component is its structure map."""
    return DistLawEM(Const(out.carrier), M,
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

    return DistLawEM(H, M, formula, name=name)


def gset_distlaws(group) -> tuple[DistLawEM, DistLawEM]:
    """The two canonical laws for G-sets: one built from the group
    multiplication, (g, h) -> (g*h, g), one from conjugation,
    (g, h) -> (g*h*g^-1, g).  They differ over every nontrivial group,
    abelian or not: for abelian G conjugation is the swap rule
    (g, h) -> (h, g), which is not the multiplication rule."""
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

    return DistLawEM(H, M, formula, name=f"swap[{A.name}/{M.name}]")


def pointed_law(M: ExceptionMonad, outputs: FinSet,
                alphabet: Optional[FinSet] = None) -> DistLawEM:
    """Law for H = C x X (or C x X^A) over an exception monad: error values
    propagate into every successor slot and output the first element of C."""
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

    return DistLawEM(H, M, formula, name=f"pointed[{outputs.name}/{M.name}]")


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
        self._arrows = LazyTable(self._projection_arrows)
        # Few distinct combinations of outputs reach C's structure map.
        self._out_structure = LazyTable(out.structure_at)

    def _projection_arrows(self, X: FinSet) -> tuple:
        """M applied to the output projection and the successor projections
        of H X, built once per carrier (kept in `_arrows`)."""
        M, HX = self.M, self.H(X)
        out = M.arrow(lambda w: w[0], HX, self.out.carrier)
        if self.shape == "times":
            succ = M.arrow(lambda w: w[1], HX, X)
        else:
            succ = tuple(M.arrow(lambda w, i=i: w[1][i], HX, X)
                         for i in range(len(self.alphabet)))
        return (out, succ)

    def component_at(self, X, phi):
        out, succ = self._arrows[X]
        out_part = self._out_structure[out(phi)]
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


def check_distlaw_em(law: DistLawEM, max_size: int) -> LawReport:
    """Exhaustively verify the unit axiom, the multiplication axiom and
    naturality on all canonical carriers of size <= max_size.

    The axioms revisit few distinct component inputs many times, so every
    component is read through `law.lookup`, memoised for the law's
    lifetime, and the multiplication axiom reads H(mu_X) . lambda_{MX}, the
    lifted free algebra on X, through one table per carrier."""
    M, H = law.M, law.H
    report = LawReport(f"distributive law {law.name}")
    carriers = canonical_carriers(max_size)
    for X in carriers:
        if not law.has_component(X):
            raise law.missing(X)

    for X in carriers:
        HX = H(X)
        MX = M.apply(X)
        h_unit_x = arrow(H, lambda x: M.unit_element(X, x))
        lam_x = law.lookup(X)
        report.first("unit-axiom", X.name, (
            {"carrier": X.name, "element": w, "lhs": lhs, "rhs": rhs}
            for w in HX
            if (lhs := lam_x(M.unit_element(HX, w))) != (rhs := h_unit_x(w))))

        if not law.has_component(MX):
            report.skip("mult-axiom", X.name,
                        f"no component at the derived carrier {MX.name}")
        elif M.tower_fits(len(HX), 2):
            MHX = M.apply(HX)
            mult_hx = M.mult_at(HX)
            lifted = LazyTable(lift_algebra(law, free_algebra(M, X)).structure_at)
            m_lam_x = M.arrow(lam_x, MHX, H(MX))
            report.first("mult-axiom", X.name, (
                {"carrier": X.name, "element": big, "lhs": lhs, "rhs": rhs}
                for big in M.apply(MHX)
                if (lhs := lam_x(mult_hx(big))) != (rhs := lifted[m_lam_x(big)])))
        else:
            report.skip("mult-axiom", X.name,
                        f"|MM(H {X.name})| = {M.tower_card_display(len(HX), 2)} exceeds guard")

    for X in carriers:
        for Y in carriers:
            pair = f"{X.name}->{Y.name}"
            if not M.tower_fits(len(H(X)), 1):
                report.skip("naturality", pair, f"|M(H {X.name})| exceeds guard")
                continue
            report.first("naturality", pair, naturality_failures(
                law.source, law.target, X, Y, law.lookup(X), law.lookup(Y)))

    return report


def check_distlaw_kl(law: DistLawKl, max_size: int) -> LawReport:
    """Dual checker for Kleisli-direction laws T(M X) -> M(T X)."""
    M, T = law.M, law.T
    report = LawReport(f"kleisli law {law.name}")
    carriers = canonical_carriers(max_size)
    for X in carriers:
        if not law.has_component(X):
            raise law.missing(X)

    for X in carriers:
        TX = T(X)
        MX = M.apply(X)
        TMX = T(MX)
        MTX = M.apply(TX)
        t_unit_x = arrow(T, lambda x: M.unit_element(X, x))
        lam_x = law.lookup(X)
        report.first("unit-axiom", X.name, (
            {"carrier": X.name, "element": w, "lhs": lhs, "rhs": rhs}
            for w in TX
            if (lhs := lam_x(t_unit_x(w))) != (rhs := M.unit_element(TX, w))))

        if not law.has_component(MX):
            report.skip("mult-axiom", X.name,
                        f"no component at the derived carrier {MX.name}")
        elif M.tower_fits(len(X), 2):
            t_mult_x, mult_tx = arrow(T, M.mult_at(X)), M.mult_at(TX)
            lam_mx = law.lookup(MX)
            # lam_mx(big) lies in M(T(M X)); M(lam_x) takes it to M(M(T X)).
            report.first("mult-axiom", X.name, (
                {"carrier": X.name, "element": big, "lhs": lhs, "rhs": rhs}
                for big in T(M.apply(MX))
                if (lhs := lam_x(t_mult_x(big)))
                != (rhs := mult_tx(M.map_element_fn(lam_x, TMX, MTX, lam_mx(big))))))
        else:
            report.skip("mult-axiom", X.name,
                        f"|MM {X.name}| = {M.tower_card_display(len(X), 2)} exceeds guard")

    for X in carriers:
        for Y in carriers:
            report.first("naturality", f"{X.name}->{Y.name}", naturality_failures(
                law.source, law.target, X, Y, law.lookup(X), law.lookup(Y)))

    return report


# ---------------------------------------------------------------------------
# Liftings


def lift_algebra(law: DistLawEM, a: EMAlgebra) -> EMAlgebra:
    """The lifting of H to algebras at a: H(carrier) with the structure
    H(a) . lambda, distribute, then apply H to the original structure map.
    The structure is pointwise; `structure()` tabulates it under the
    guard."""
    require_monad(law.M, a, f", the monad of {law.name}")
    X = a.carrier
    carrier = law.H(X)
    h_structure = arrow(law.H, a.structure_at)

    def structure(u):
        return h_structure(law.component_at(X, u))

    return EMAlgebra(law.M, carrier, structure, name=f"lift[{law.name}]({a.name})")


def lift_coalgebra(law: DistLawEM, C: FinSet, xi: FinFn) -> FinFn:
    """Extend a coalgebra C -> H C to M C -> H(M C) along the law."""
    HC = law.H(C)
    if xi.dom != C or xi.cod != HC:
        raise DomainMismatch(
            f"coalgebra structure must be {C.name} -> {law.H}({C.name})")
    M = law.M
    MC = M.apply(C)
    HMC = law.H(MC)
    m_xi = M.arrow(xi, C, HC)
    return tabulate(MC, HMC, lambda el: law.component_at(C, m_xi(el)),
                    name=f"lifted-coalgebra[{law.name}]")
