"""Commuting pairs of endofunctors with respect to a monad: Kleisli lifts
for the words functor 1 + A x X, the canonical partner constructions in the
biproduct (free-semimodule) case, and exhaustive checkers plus a bounded
search for the mediating isomorphism.

The mediating isomorphism sigma: H(M X) -> M(T X) is a `ComponentFamily`
from H after M to M after T, the same type as a distributive law, so its
naturality is checked by the same `naturality_failures` sweep: once per
pair of carriers in `check_commuting`, and in both directions against the
components already fixed for each candidate in `search_commuting_sigma`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional

from .algebras import free_algebra
from .errors import DomainMismatch, MissingComponent, NotBiproductCompatible
from .finset import TERMINAL, Element, FinFn, FinSet, canonical_carriers
from .functors import Const, Coprod, FunctorExpr, Id, Power, Prod, arrow, eval_functor
from .lifting import (ComponentFamily, Composite, DistLawEM, DistLawKl,
                      SemimoduleFunctorLaw, constant_law, naturality_failures,
                      semimodule_stream_law)
from .monads import FinMonad, SemimoduleMonad
from .reports import LawReport
from .series import Word, words_below


def words_functor(A: FinSet) -> FunctorExpr:
    """1 + A x X: the signature whose initial algebra is finite words on A."""
    return Coprod(Const(TERMINAL), Prod(Const(A), Id()))


class KleisliLiftPoly(DistLawKl):
    """The canonical Kleisli-direction law for 1 + A x X over any monad,
    assembled from the monad's strength on A x X, the unit on the bare
    summand, and the coproduct collapse."""

    def __init__(self, A: FinSet, M: FinMonad):
        self.A = A

        def formula(X, el):
            TX = self.target.functor_at(X)
            tag, v = el
            if tag == 0:
                return M.unit_element(TX, el)
            a, phi = v
            return M.map_element_fn(lambda x, _a=a: (1, (_a, x)), X, TX, phi)

        super().__init__(words_functor(A), M, formula,
                         name=f"kleisli-words[{A.name}/{M.name}]")


def kleisli_lift_poly(A: FinSet, M: FinMonad) -> KleisliLiftPoly:
    return KleisliLiftPoly(A, M)


def strength_element(M: FinMonad, A: FinSet, X: FinSet, a: Element, phi: Element) -> Element:
    """The canonical strength A x M X -> M(A x X) at one element."""
    AX = eval_functor(Prod(Const(A), Id()), X)
    return M.map_element_fn(lambda x, _a=a: (_a, x), X, AX, phi)


# ---------------------------------------------------------------------------
# Commuting candidates


class CommutingCandidate:
    """A pair (T, H) with a claimed isomorphism H(M X) = M(T X), optionally
    bundled with the distributive law that makes the square meaningful."""

    def __init__(self, T: FunctorExpr, H: FunctorExpr, M: FinMonad,
                 sigma: ComponentFamily, law: Optional[DistLawEM] = None):
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
            h_mult_x, mult_tx = arrow(cand.H, M.mult_at(X)), M.mult_at(TX)
            m_sigma = M.arrow(sigma, HMX, MTX)
            # law(big) lies in H(M(M X)); flattening it lands in H(M X).
            report.first("algebra-square", X.name, (
                {"carrier": X.name, "element": big, "lhs": lhs, "rhs": rhs}
                for big in M.apply(HMX)
                if (lhs := sigma(h_mult_x(law.component_at(MX, big))))
                != (rhs := mult_tx(m_sigma(big)))))
        else:
            report.skip("algebra-square", X.name,
                        f"|M(H(M {X.name}))| exceeds guard")

    family = cand.sigma
    for X in carriers:
        for Y in carriers:
            report.first("naturality", f"{X.name}->{Y.name}", naturality_failures(
                family.source, family.target, X, Y, cand.component(X), cand.component(Y)))

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

    sigma = ComponentFamily(Composite(H, M), Composite(M, T), formula, name="sigma")
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
    source, target = Composite(H, M), Composite(M, T)
    doms = [source.at(X) for X in carriers]
    tx_sets = [target.functor_at(X) for X in carriers]
    cods = [target.at(X) for X in carriers]
    for d, c in zip(doms, cods):
        if len(d) != len(c):
            return "none", None, 0

    tried = 0
    chosen: dict[FinSet, FinFn] = {}
    # Not LazyTables: each carrier's pairs are produced lazily in enumeration
    # order, as far as some candidate gets.
    squares: dict[int, tuple[list, Iterator]] = {}

    def square_pairs(idx):
        """(big, flat) for each big in M(H(M X)) in enumeration order, with
        flat = H(mu_X)(law(big)): computed on first demand, then reused."""
        if idx not in squares:
            X = carriers[idx]
            MX = M.apply(X)
            h_mult_x = arrow(H, M.mult_at(X))
            squares[idx] = ([], ((big, h_mult_x(law.component_at(MX, big)))
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

    def natural(X, Y, at_x, at_y):
        return next(naturality_failures(source, target, X, Y, at_x, at_y), None) is None

    def natural_against(X, sigma, idx):
        """sigma at X against itself and, both ways, against every
        component already chosen below X."""
        for Y in carriers[:idx + 1]:
            other = chosen.get(Y, sigma)
            if not natural(X, Y, sigma, other) or \
                    (Y is not X and not natural(Y, X, other, sigma)):
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
            if tried >= cap:
                return "unknown"
            tried += 1
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
        sigma = ComponentFamily(source, target, components=dict(chosen), name="sigma")
        cand = CommutingCandidate(T, H, M, sigma, law=law)
        return "found", cand, tried
    return status, None, tried
