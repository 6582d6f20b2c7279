"""Commuting pairs of endofunctors with respect to a monad: Kleisli lifts
for the words functor 1 + A x X, the canonical partner constructions in the
biproduct (free-semimodule) case, and exhaustive checkers plus a bounded
search for the mediating isomorphism.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional

from .algebras import free_algebra
from .errors import (DomainMismatch, MissingComponent, NotBiproductCompatible)
from .finset import TERMINAL, Element, FinFn, FinSet, all_functions, canonical_carriers
from .functors import (Const, Coprod, FunctorExpr, Id, Power, Prod,
                       eval_functor, map_element)
from .lifting import (DistLawEM, FormulaDistLawKl, SemimoduleFunctorLaw,
                      constant_law, semimodule_stream_law)
from .monads import FinMonad, SemimoduleMonad
from .reports import LawReport
from .series import Word, words_below


def words_functor(A: FinSet) -> FunctorExpr:
    """1 + A x X: the signature whose initial algebra is finite words on A."""
    return Coprod(Const(TERMINAL), Prod(Const(A), Id()))


class KleisliLiftPoly(FormulaDistLawKl):
    """The canonical Kleisli-direction law for 1 + A x X over any monad,
    assembled from the monad's strength on A x X, the unit on the bare
    summand, and the coproduct collapse."""

    def __init__(self, A: FinSet, M: FinMonad):
        self.A = A
        T = words_functor(A)
        self._tx_cache: dict[FinSet, FinSet] = {}

        def formula(X, el):
            TX = self._tx(X)
            tag, v = el
            if tag == 0:
                return M.unit_element(TX, el)
            a, phi = v
            return M.map_element_fn(lambda x, _a=a: (1, (_a, x)), X, TX, phi)

        super().__init__(T, M, formula, name=f"kleisli-words[{A.name}/{M.name}]")

    def _tx(self, X: FinSet) -> FinSet:
        cached = self._tx_cache.get(X)
        if cached is None:
            cached = eval_functor(self.T, X)
            self._tx_cache[X] = cached
        return cached


def kleisli_lift_poly(A: FinSet, M: FinMonad) -> KleisliLiftPoly:
    return KleisliLiftPoly(A, M)


def strength_element(M: FinMonad, A: FinSet, X: FinSet, a: Element, phi: Element) -> Element:
    """The canonical strength A x M X -> M(A x X) at one element."""
    AX = eval_functor(Prod(Const(A), Id()), X)
    return M.map_element_fn(lambda x, _a=a: (_a, x), X, AX, phi)


# ---------------------------------------------------------------------------
# Commuting candidates


class SigmaFamily:
    """Per-carrier components H(M X) -> M(T X)."""

    def __init__(self, T: FunctorExpr, H: FunctorExpr, M: FinMonad):
        self.T = T
        self.H = H
        self.M = M
        self._tables: dict[FinSet, FinFn] = {}

    def component_at(self, X: FinSet, el: Element) -> Element:
        raise NotImplementedError

    def component(self, X: FinSet) -> FinFn:
        cached = self._tables.get(X)
        if cached is None:
            dom = eval_functor(self.H, self.M.apply(X))
            cod = self.M.apply(eval_functor(self.T, X))
            cached = FinFn(dom, cod, {el: self.component_at(X, el) for el in dom},
                           name=f"sigma@{X.name}")
            self._tables[X] = cached
        return cached


class FormulaSigma(SigmaFamily):
    def __init__(self, T, H, M, formula: Callable):
        super().__init__(T, H, M)
        self._formula = formula

    def component_at(self, X, el):
        return self._formula(X, el)


class TableSigma(SigmaFamily):
    def __init__(self, T, H, M, components: dict):
        super().__init__(T, H, M)
        self._tables.update(components)

    def component_at(self, X, el):
        if X not in self._tables:
            raise MissingComponent(f"sigma: no component at {X.name}")
        return self._tables[X](el)


class CommutingCandidate:
    """A pair (T, H) with a claimed isomorphism H(M X) = M(T X), optionally
    bundled with the distributive law that makes the square meaningful."""

    def __init__(self, T: FunctorExpr, H: FunctorExpr, M: FinMonad,
                 sigma: SigmaFamily, law: Optional[DistLawEM] = None):
        self.T = T
        self.H = H
        self.M = M
        self.sigma = sigma
        self.law = law

    def component(self, X: FinSet) -> FinFn:
        return self.sigma.component(X)

    def __repr__(self):
        return f"CommutingCandidate(T={self.T}, H={self.H}, M={self.M.name})"


def check_commuting(cand: CommutingCandidate, law: Optional[DistLawEM] = None,
                    max_size: int = 2) -> LawReport:
    """Verify that the claimed components are bijective, natural, and make
    the algebra square commute: distributing-then-flattening on the functor
    side matches flattening after the isomorphism."""
    law = law or cand.law
    if law is None:
        raise MissingComponent("no distributive law supplied for the square")
    if law.H != cand.H:
        raise DomainMismatch("distributive law is for a different functor")
    M = cand.M
    report = LawReport(f"commuting pair T={cand.T}, H={cand.H} over {M.name}")
    carriers = canonical_carriers(max_size)

    for X in carriers:
        MX = M.apply(X)
        TX = eval_functor(cand.T, X)
        HMX = eval_functor(cand.H, MX)
        MTX = M.apply(TX)
        sigma = cand.component(X)

        report.record("cardinality", X.name, len(HMX) == len(MTX),
                      counterexample={"H(MX)": len(HMX), "M(TX)": len(MTX)})
        report.record("bijection", X.name, sigma.is_bijection(),
                      counterexample={"carrier": X.name})

        if M.tower_fits(len(HMX), 1):
            MHMX = M.apply(HMX)
            mult_x = lambda u: M.mult_element(X, u)
            ce = None
            for big in MHMX:
                step = law.component_at(MX, big)                  # H(M(M X))
                lhs = sigma(map_element(cand.H, mult_x, step))    # H(M X) -> M(T X)
                rhs = M.mult_element(TX, M.map_element_fn(sigma, HMX, MTX, big))
                if lhs != rhs:
                    ce = {"carrier": X.name, "element": big, "lhs": lhs, "rhs": rhs}
                    break
            report.record("algebra-square", X.name, ce is None, counterexample=ce)
        else:
            report.skip("algebra-square", X.name,
                        f"|M(H(M {X.name}))| exceeds guard")

    for X in carriers:
        for Y in carriers:
            pair = f"{X.name}->{Y.name}"
            MX, MY = M.apply(X), M.apply(Y)
            TX, TY = eval_functor(cand.T, X), eval_functor(cand.T, Y)
            HMX = eval_functor(cand.H, MX)
            MTX, MTY = M.apply(TX), M.apply(TY)
            sig_x, sig_y = cand.component(X), cand.component(Y)
            ce = None
            for f in all_functions(X, Y):
                Mf = lambda v: M.map_element_fn(f, X, Y, v)
                Tf = lambda w: map_element(cand.T, f, w)
                for el in HMX:
                    lhs = sig_y(map_element(cand.H, Mf, el))
                    rhs = M.map_element_fn(Tf, TX, TY, sig_x(el))
                    if lhs != rhs:
                        ce = {"function": dict(f.pairs()), "element": el,
                              "lhs": lhs, "rhs": rhs}
                        break
                if ce:
                    break
            report.record("naturality", pair, ce is None, counterexample=ce)

    return report


# ---------------------------------------------------------------------------
# Partner construction in the biproduct case


def partner_for_product(B: FinSet, M: FinMonad,
                        alphabet: Optional[FinSet] = None) -> CommutingCandidate:
    """For a free-semimodule monad, pair the words-style functor B + A x X
    with (free on B) x X^A; the isomorphism is coefficient-block
    concatenation, available because finite products and coproducts of
    modules coincide.

    alphabet=None gives the stream case B + X paired with (free on B) x X;
    an empty alphabet gives the constant pair.
    """
    if not isinstance(M, SemimoduleMonad):
        raise NotBiproductCompatible(
            f"{M.name} is not flagged as a biproduct (free-semimodule) monad")
    out = free_algebra(M, B)
    C = out.carrier

    if alphabet is None:
        T: FunctorExpr = Coprod(Const(B), Id())
        H: FunctorExpr = Prod(Const(C), Id())
        law = semimodule_stream_law(M, out)

        def formula(X, el):
            c, psi = el
            return tuple(c) + tuple(psi)

    elif len(alphabet) == 0:
        T = Const(B)
        H = Const(C)
        law = constant_law(M, out)

        def formula(X, el):
            return el

    else:
        T = Coprod(Const(B), Prod(Const(alphabet), Id()))
        H = Prod(Const(C), Power(alphabet, Id()))
        law = SemimoduleFunctorLaw(M, out, alphabet, "moore")

        def formula(X, el):
            c, succ = el
            flat = tuple(c)
            for psi in succ:
                flat += tuple(psi)
            return flat

    sigma = FormulaSigma(T, H, M, formula)
    return CommutingCandidate(T, H, M, sigma, law=law)


def initial_words(A, depth: int) -> list[Word]:
    """Finite stage of the word algebra for 1 + A x X: words of length
    < depth in length-lexicographic order."""
    letters = A.elements if isinstance(A, FinSet) else tuple(A)
    return words_below(letters, depth)


# ---------------------------------------------------------------------------
# Bounded search for a mediating isomorphism


def _closed_form_candidate(T: FunctorExpr, H: FunctorExpr,
                           M: FinMonad) -> Optional[CommutingCandidate]:
    """Recognise the biproduct partner shapes and return their canonical
    block-concatenation isomorphism."""
    if not isinstance(M, SemimoduleMonad):
        return None
    B = alphabet = None
    if isinstance(T, Const) and isinstance(H, Const):
        B, alphabet = T.value, FinSet("A0", ())
    elif (isinstance(T, Coprod) and len(T.summands) == 2
          and isinstance(T.summands[0], Const)):
        B = T.summands[0].value
        rest = T.summands[1]
        if isinstance(rest, Id) and H == Prod(Const(M.apply(B)), Id()):
            alphabet = None
        elif (isinstance(rest, Prod) and len(rest.factors) == 2
              and isinstance(rest.factors[0], Const)
              and isinstance(rest.factors[1], Id)):
            alphabet = rest.factors[0].value
        else:
            return None
    else:
        return None
    try:
        cand = partner_for_product(B, M, alphabet)
    except NotBiproductCompatible:
        return None
    if cand.T == T and cand.H == H:
        return cand
    return None


def _table_lookup(table: dict, name: str) -> Callable[[Element], Element]:
    """`table` as a function that fails like `FinFn.__call__` on a missing
    key, without building (and validating) a FinFn."""

    def lookup(x):
        try:
            return table[x]
        except KeyError:
            raise DomainMismatch(f"{name}: {x!r} not in domain") from None

    return lookup


def search_commuting_sigma(T: FunctorExpr, H: FunctorExpr, M: FinMonad,
                           law: DistLawEM, max_size: int,
                           cap: int = 10**5) -> tuple[str, Optional[CommutingCandidate], int]:
    """Enumerate bijections H(M X) -> M(T X) carrier by carrier in canonical
    order, pruning with naturality against the components already fixed and
    the algebra square; gives up with status "unknown" once `cap` candidate
    bijections have been tried.

    Half of the algebra square does not depend on the candidate: for each
    `big` in M(H(M X)), the law's component followed by H(mu_X) gives the
    same `flat` in H(M X) whatever sigma is.  Those (big, flat) pairs are
    kept per carrier for the length of the call, so a candidate only looks
    up sigma(flat) and computes mu(M sigma(big)).  The list is filled
    lazily, in the enumeration order of M(H(M X)), as far as the candidates
    get: a law that fails at some `big` fails at the same point as when
    every candidate recomputed it.  Candidates are tested through a plain
    table lookup; only those that pass the square become validated FinFns.

    Returns (status, candidate, tried) with status one of "found",
    "none" (exhausted without success below the cap) or "unknown".
    """
    if law.H != H:
        raise DomainMismatch("distributive law is for a different functor")
    closed = _closed_form_candidate(T, H, M)
    if closed is not None and check_commuting(closed, law, max_size).passed:
        return "found", closed, 0

    carriers = canonical_carriers(max_size)
    doms = [eval_functor(H, M.apply(X)) for X in carriers]
    tx_sets = [eval_functor(T, X) for X in carriers]
    cods = [M.apply(TX) for TX in tx_sets]
    for d, c in zip(doms, cods):
        if len(d) != len(c):
            return "none", None, 0

    tried = 0
    chosen: dict[FinSet, FinFn] = {}
    squares: dict[int, tuple[list, Iterator]] = {}

    def square_pairs(idx):
        """(big, flat) for each big in M(H(M X)) in enumeration order, with
        flat = H(mu_X)(law(big)): computed on first demand, then reused."""
        if idx not in squares:
            X = carriers[idx]
            MX = M.apply(X)
            mult_x = lambda u: M.mult_element(X, u)
            squares[idx] = ([], ((big, map_element(H, mult_x, law.component_at(MX, big)))
                                 for big in M.apply(doms[idx])))
        pairs, source = squares[idx]
        yield from pairs
        for pair in source:
            pairs.append(pair)
            yield pair

    def square_ok(idx, sigma):
        dom, cod, TX = doms[idx], cods[idx], tx_sets[idx]
        for big, flat in square_pairs(idx):
            if sigma(flat) != M.mult_element(TX, M.map_element_fn(sigma, dom, cod, big)):
                return False
        return True

    def natural_against(X, sigma, idx):
        for j in range(idx + 1):
            Y = carriers[j]
            other = sigma if j == idx else chosen[Y]
            for f, s_dom, s_cod in ((f, sigma, other) for f in all_functions(X, Y)):
                Mf = lambda v: M.map_element_fn(f, X, Y, v)
                Tf = lambda w: map_element(T, f, w)
                TXs = eval_functor(T, X)
                TYs = eval_functor(T, Y)
                for el in doms[idx]:
                    if s_cod(map_element(H, Mf, el)) != \
                            M.map_element_fn(Tf, TXs, TYs, s_dom(el)):
                        return False
            if j != idx:
                for f in all_functions(Y, X):
                    Mf = lambda v: M.map_element_fn(f, Y, X, v)
                    Tf = lambda w: map_element(T, f, w)
                    TYs = eval_functor(T, Y)
                    TXs = eval_functor(T, X)
                    for el in doms[j]:
                        if sigma(map_element(H, Mf, el)) != \
                                M.map_element_fn(Tf, TYs, TXs, chosen[Y](el)):
                            return False
        return True

    def assign(idx) -> Optional[str]:
        nonlocal tried
        if idx == len(carriers):
            return "found"
        X, dom, cod = carriers[idx], doms[idx], cods[idx]
        name = f"{dom.name}->{cod.name}"
        square_fits = M.tower_fits(len(dom), 1)
        for perm in itertools.permutations(cod.elements):
            tried += 1
            if tried > cap:
                return "unknown"
            table = dict(zip(dom.elements, perm))
            if square_fits and not square_ok(idx, _table_lookup(table, name)):
                continue
            sigma = FinFn(dom, cod, table)
            if not natural_against(X, sigma, idx):
                continue
            chosen[X] = sigma
            result = assign(idx + 1)
            if result:
                return result
            del chosen[X]
        return None

    status = assign(0) or "none"
    if status == "found":
        cand = CommutingCandidate(T, H, M, TableSigma(T, H, M, dict(chosen)), law=law)
        return "found", cand, tried
    return status, None, tried
