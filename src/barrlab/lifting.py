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
a `LazyTable` per carrier, or as a table of positions (`table`).  A law
tabulates lambda_X by evaluating it through `lookup` on every element of
M(H X), except the linear laws of the free semimodule monads
(`SemimoduleFunctorLaw`), which build the table from M of H X's
projections as positions and never evaluate a component.
The algebra-side law M(H X) -> H(M X) (`DistLawEM`, equivalent to lifting H
to algebras), the Kleisli-side law T(M X) -> M(T X) (`DistLawKl`) and the
mediating isomorphism H(M X) -> M(T X) of a commuting pair are all
component families; `naturality_failures` checks any of them against every
function between two carriers.  Checkers record their verdicts through
`LawReport.first`.
`lift_algebra` is the one place the lifted structure H(a) . lambda is
built: the chain's level algebras, the initial chain's base map, the
commuting-pair square and the law checker's multiplication axiom all read
it.  Its table reads H(a) off a's table.  For the linear laws that table
is H(a), tabulated on the small set H(M X), after the law's table of
lambda_X.  The multiplication axiom compares two tables over M(M(H X)),
and the commuting-pair square two tables over M(H(M X)); both read the
lifted free algebra through `lifted_free_positions`, pointwise where its
table would outgrow the points read, and decode elements only where the
tables differ.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterable, Iterator, Optional

from .algebras import EMAlgebra, free_algebra, require_monad
from .errors import DomainMismatch, MissingComponent, blowup_limit
from .finset import (Element, FinFn, FinSet, LazyTable, canonical_carriers, compose,
                     function_values, tabulate)
from .functors import Const, FunctorExpr, Id, Prod, arrow, cardinality, moore_functor
from .groups import FinGroup, as_group
from .monads import ExceptionMonad, FinMonad, SemimoduleMonad, WriterMonad
from .reports import LawReport, table_failures


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
    `component_at` per carrier for the family's lifetime.  `positional` is
    True for a family whose `table` is built from positions, without
    evaluating a component.
    """

    positional = False

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
        return tabulate(self.source.at(X), self.target.at(X), self.lookup(X),
                        name=f"{self.name}@{X.name}")

    def component(self, X: FinSet) -> FinFn:
        """The component at X as an explicit table (memoised), evaluated
        through `lookup`."""
        return self._tables[X]

    def table(self, X: FinSet) -> tuple:
        """The component at X as positions: entry p is the position in
        target(X) of the component at the element at position p of
        source(X)."""
        return self.component(X).positions

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
    G = as_group(group)
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


# The output projection of H X = C x X^A (or C x X).
_output = operator.itemgetter(0)


class SemimoduleFunctorLaw(DistLawEM):
    """Law for H = C x X^A (constant C for an empty alphabet A, and C x X
    where `alphabet` is None) over a free-semimodule monad, where C carries
    an algebra structure.

    A formal combination of H-structures splits into the combination of the
    outputs, evaluated through C's structure map, and the per-letter
    pushforward of the weights onto successor states.  Its table of
    lambda_X is built from M of H X's projections as positions.
    """

    positional = True

    def __init__(self, M: SemimoduleMonad, out: EMAlgebra, alphabet: Optional[FinSet]):
        self.out = out
        self.alphabet = alphabet
        if alphabet is None:
            H, shape = Prod(Const(out.carrier), Id()), "times"
        else:
            H, shape = moore_functor(out.carrier, alphabet), "moore"
        super().__init__(H, M, name=f"linear[{out.carrier.name};{shape}/{M.name}]")
        self._arrows = LazyTable(self._projection_arrows)
        # Few distinct combinations of outputs reach C's structure map.
        self._out_structure = LazyTable(out.structure_at)

    def _successors(self) -> tuple:
        """The successor projections of H X: one per letter, or one for the
        shape C x X."""
        if self.alphabet is None:
            return (lambda w: w[1],)
        return tuple((lambda w, i=i: w[1][i]) for i in range(len(self.alphabet)))

    def _projection_arrows(self, X: FinSet) -> tuple:
        """M applied to the output projection and the successor projections
        of H X, built once per carrier (kept in `_arrows`)."""
        M, HX = self.M, self.H(X)
        succ = tuple(M.arrow(s, HX, X) for s in self._successors())
        return (M.arrow(_output, HX, self.out.carrier),
                succ[0] if self.alphabet is None else succ)

    def table(self, X: FinSet) -> tuple:
        """lambda_X as positions over M(H X), read off M of the projections
        of H X as positions (`M.arrow_table`): the output part through the
        output algebra's table, the successor parts as they are, combined
        by mixed radix in H(M X)'s product order, the output most
        significant.  No component is evaluated.  Where M C exceeds the
        guard, C has no table, and lambda_X is tabulated through `lookup`."""
        M, C, HX = self.M, self.out.carrier, self.H(X)
        if M.card(len(C)) > blowup_limit():
            return super().table(X)

        def positions(proj, cod):
            return M.arrow_table(tuple(map(cod.index, map(proj, HX))), HX, cod)

        table = compose(self.out.table(), positions(_output, C))
        radix = itertools.repeat(M.card(len(X)))
        for succ in self._successors():
            table = tuple(map(operator.add, map(operator.mul, table, radix),
                              positions(succ, X)))
        return table

    def component_at(self, X, phi):
        out, succ = self._arrows[X]
        out_part = self._out_structure[out(phi)]
        if self.alphabet is None:
            return (out_part, succ(phi))
        return (out_part, tuple(s(phi) for s in succ))


def semimodule_moore_law(M: SemimoduleMonad, alphabet: FinSet) -> DistLawEM:
    """The coefficientwise-linear law for H = k x X^A; for C x X^A with
    another output algebra C, use `SemimoduleFunctorLaw(M, C, alphabet)`."""
    return SemimoduleFunctorLaw(M, semiring_algebra(M), alphabet)


def semimodule_stream_law(M: SemimoduleMonad, out: EMAlgebra) -> DistLawEM:
    """The coefficientwise-linear law for H = C x X."""
    return SemimoduleFunctorLaw(M, out, None)


# ---------------------------------------------------------------------------
# Checkers


def _no_derived_component(law: ComponentFamily, MX: FinSet) -> str:
    """Why a mult axiom is skipped where the law has no component at M X;
    empty where it has one."""
    return "" if law.has_component(MX) else f"no component at the derived carrier {MX.name}"


def check_distlaw_em(law: DistLawEM, max_size: int) -> LawReport:
    """Exhaustively verify the unit axiom, the multiplication axiom and
    naturality on all canonical carriers of size <= max_size.

    The unit axiom and naturality read every component through
    `law.lookup`, memoised for the law's lifetime.  The multiplication
    axiom compares two tables of positions over M(M(H X)):
    lambda_X . mu_{HX} against H(mu_X) . lambda_{MX} . M(lambda_X), where
    H(mu_X) . lambda_{MX} is the lifted free algebra on X, read through
    `lifted_free_positions`.  Elements are decoded only at the first
    position where they differ."""
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

        def mult_failures():
            MHX, HMX, lam_table = M.apply(HX), H(MX), law.table(X)
            lhs = compose(lam_table, M.mult_table(HX))
            # M(lambda_X) takes each element of M(M(H X)) into M(H(M X)).
            rhs = lifted_free_positions(
                law, free_algebra(M, X), len(lhs), lambda: M.arrow_table(lam_table, MHX, HMX),
                lambda: map(M.arrow(lam_x, MHX, HMX), M.apply(MHX)))
            yield from table_failures(
                {"carrier": X.name}, lambda p: M.apply(MHX).elements[p], HMX, lhs, rhs)

        def mult_sizes():
            yield f"MM(H {X.name})", M.tower(len(HX), 2)
            yield f"H(M {X.name})", cardinality(H, len(MX))

        report.first("mult-axiom", X.name, mult_failures(), mult_sizes(),
                     unless=_no_derived_component(law, MX))

    for X in carriers:
        for Y in carriers:
            report.first("naturality", f"{X.name}->{Y.name}", naturality_failures(
                law.source, law.target, X, Y, law.lookup(X), law.lookup(Y)),
                [(f"M(H {X.name})", M.tower(len(H(X)), 1))])

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
        t_unit_x = arrow(T, lambda x: M.unit_element(X, x))
        lam_x = law.lookup(X)
        report.first("unit-axiom", X.name, (
            {"carrier": X.name, "element": w, "lhs": lhs, "rhs": rhs}
            for w in TX
            if (lhs := lam_x(t_unit_x(w))) != (rhs := M.unit_element(TX, w))))

        def mult_failures():
            t_mult_x, mult_tx = arrow(T, M.mult_at(X)), M.mult_at(TX)
            # lam_mx(big) lies in M(T(M X)); M(lam_x) takes it to M(M(T X)).
            lam_mx, m_lam_x = law.lookup(MX), M.arrow(lam_x, T(MX), M.apply(TX))
            for big in T(M.apply(MX)):
                if (lhs := lam_x(t_mult_x(big))) != (rhs := mult_tx(m_lam_x(lam_mx(big)))):
                    yield {"carrier": X.name, "element": big, "lhs": lhs, "rhs": rhs}

        def mult_sizes():
            yield f"MM {X.name}", (mmx := M.tower(len(X), 2))
            yield f"T(MM {X.name})", cardinality(T, mmx)

        report.first("mult-axiom", X.name, mult_failures(), mult_sizes(),
                     unless=_no_derived_component(law, MX))

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
    The structure is pointwise.  Its table reads H(a) off a's table, built
    on first use: a lifted a's pointwise structure would evaluate lambda
    again at every level below it.  For a law whose table of lambda is
    built from positions (`positional`), the lifted table is H(a),
    tabulated on H(M carrier), after that table, and M(H carrier) is not
    enumerated; for any other law it is the structure evaluated on every
    element of M(H carrier), which costs less than tabulating lambda and
    H(a) apart."""
    require_monad(law.M, a, f", the monad of {law.name}")
    M, X, H = law.M, a.carrier, law.H
    carrier = H(X)
    h_structure = arrow(H, a.structure_at)
    name = f"lift[{law.name}]({a.name})"

    def structure(u):
        return h_structure(law.component_at(X, u))

    def positions():
        # a's table is built when H(a) first reads it: a constant H reads none.
        a_view = functools.cache(a.structure)
        h_table = arrow(H, lambda el: a_view()(el))
        if law.positional:
            return compose(tabulate(H(M.apply(X)), carrier, h_table).positions, law.table(X))
        return tabulate(M.apply(carrier), carrier, lambda u: h_table(law.component_at(X, u)),
                        name=f"structure_{name}").positions

    return EMAlgebra(M, carrier, structure, name=name, positions=positions)


def lifted_free_positions(law: DistLawEM, free: EMAlgebra, size: int,
                          positions: Callable[[], tuple],
                          elements: Callable[[], Iterable[Element]]) -> tuple:
    """The lifting of a free algebra on X at `size` points of M(H(M X)),
    as positions in H(M X): its table read at the points' `positions()`,
    or, where that table or a set its builder reads, M(M X) or H(M(M X)),
    has more elements than there are points, its structure evaluated at
    the points' `elements()`, once per distinct point."""
    lifted = lift_algebra(law, free)
    M, H, MX = law.M, law.H, free.carrier
    HMX, MMX = lifted.carrier, M.card(len(MX))
    if max(M.card(len(HMX)), MMX, cardinality(H, MMX)) <= size:
        return compose(lifted.table(), positions())
    lifted_at = LazyTable(lambda u: HMX.index(lifted.structure_at(u)))
    return tuple(map(lifted_at.__getitem__, elements()))


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
