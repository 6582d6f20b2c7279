"""Commuting pairs of endofunctors with respect to a monad: Kleisli lifts
for the words functor 1 + A x X, the canonical partner constructions in the
biproduct (free-semimodule) case, and exhaustive checkers plus a bounded
search for the mediating isomorphism.

The mediating isomorphism sigma: H(M X) -> M(T X) is a `ComponentFamily`
from H after M to M after T, the same type as a distributive law, so its
naturality is checked by the same `naturality_failures` sweep: once per
pair of carriers in `check_commuting`, and in both directions against the
components already fixed for each full bijection in `search_commuting_sigma`.
That search assigns sigma one element at a time and tests each algebra-square
pair as soon as the positions it reads are assigned.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

from .algebras import free_algebra
from .errors import BarrlabError, DomainMismatch, MissingComponent, NotBiproductCompatible
from .finset import TERMINAL, FinFn, FinSet, canonical_carriers
from .functors import Const, Coprod, FunctorExpr, Id, Prod
from .lifting import (ComponentFamily, Composite, DistLawEM, DistLawKl, constant_law,
                      lift_algebra, naturality_failures, semimodule_moore_law,
                      semimodule_stream_law)
from .monads import FinMonad, SemimoduleMonad
from .reports import LawReport
from .series import Word, words_below


def words_functor(A: FinSet) -> FunctorExpr:
    """1 + A x X: the signature whose initial algebra is finite words on A."""
    return Coprod(Const(TERMINAL), Prod(Const(A), Id()))


def kleisli_lift_poly(A: FinSet, M: FinMonad) -> DistLawKl:
    """The canonical Kleisli-direction law for 1 + A x X over any monad,
    assembled from the monad's strength on A x X, the unit on the bare
    summand, and the coproduct collapse."""

    def formula(X, el):
        TX = law.T(X)
        tag, v = el
        if tag == 0:
            return M.unit_element(TX, el)
        a, phi = v
        return M.map_element_fn(lambda x, _a=a: (1, (_a, x)), X, TX, phi)

    law = DistLawKl(words_functor(A), M, formula, name=f"kleisli-words[{A.name}/{M.name}]")
    return law


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
    M, H = cand.M, law.H
    report = LawReport(f"commuting pair T={cand.T}, H={cand.H} over {M.name}")
    carriers = canonical_carriers(max_size)

    for X in carriers:
        MX = M.apply(X)
        TX = cand.T(X)
        HMX = H(MX)
        MTX = M.apply(TX)
        sigma = cand.component(X)

        report.record("cardinality", X.name, len(HMX) == len(MTX),
                      counterexample={"H(MX)": len(HMX), "M(TX)": len(MTX)})
        report.record("bijection", X.name, sigma.is_bijection(),
                      counterexample={"carrier": X.name})

        if M.tower_fits(len(HMX), 1):
            # The lifted free algebra on X: the law, then H(mu_X).
            flat = lift_algebra(law, free_algebra(M, X)).structure_at
            mult_tx, m_sigma = M.mult_at(TX), M.arrow(sigma, HMX, MTX)
            report.first("algebra-square", X.name, (
                {"carrier": X.name, "element": big, "lhs": lhs, "rhs": rhs}
                for big in M.apply(HMX)
                if (lhs := sigma(flat(big))) != (rhs := mult_tx(m_sigma(big)))))
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

    if alphabet is None:
        T: FunctorExpr = Coprod(Const(B), Id())
        law: DistLawEM = semimodule_stream_law(M, out)

        def formula(X, el):
            c, psi = el
            return tuple(c) + tuple(psi)

    elif len(alphabet) == 0:
        T = Const(B)
        law = constant_law(M, out)

        def formula(X, el):
            return el

    else:
        T = Coprod(Const(B), Prod(Const(alphabet), Id()))
        law = semimodule_moore_law(M, alphabet, out)

        def formula(X, el):
            c, succ = el
            flat = tuple(c)
            for psi in succ:
                flat += tuple(psi)
            return flat

    # Built on the law's H, so that the candidate, the law and sigma read
    # one set of kept images.
    sigma = ComponentFamily(law.target, Composite(M, T), formula, name="sigma")
    return CommutingCandidate(T, law.H, M, sigma, law=law)


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


def search_commuting_sigma(T: FunctorExpr, H: FunctorExpr, M: FinMonad,
                           law: DistLawEM, max_size: int,
                           cap: int = 10**5) -> tuple[str, Optional[CommutingCandidate], int]:
    """Search bijections H(M X) -> M(T X) carrier by carrier in canonical
    order, pruning with the algebra square and with naturality against the
    components already fixed; gives up with status "unknown" once `cap`
    candidate bijections have been tried.

    sigma_X is assigned one element of H(M X) at a time, in
    `itertools.permutations` order.  The square asks sigma(flat) =
    mu(M sigma(big)) for each big in M(H(M X)), where flat (the law, then
    H(mu_X)) does not depend on sigma.  A carrier's pairs are built when its
    first candidate is tested, each filed under the last position it reads:
    flat's, or a point `M.map_element_fn` calls its function on for big (the
    last, if that call fails alone: a table monad looks its arrow up by the
    whole function).  A pair is tested once that position is assigned; a
    failure at position i rules out the (n-i-1)! bijections with that
    prefix, which `tried` counts as the full enumeration would.  Naturality
    is tested on full bijections.

    Returns (status, candidate, tried) with status one of "found",
    "none" (exhausted without success below the cap) or "unknown".
    """
    if law.H != H:
        raise DomainMismatch("distributive law is for a different functor")
    closed = _closed_form_candidate(T, H, M)
    if closed is not None and check_commuting(closed, law, max_size).passed:
        return "found", closed, 0

    carriers = canonical_carriers(max_size)
    source, target = law.target, Composite(M, T)
    doms = [source.at(X) for X in carriers]
    cods = [target.at(X) for X in carriers]
    for d, c in zip(doms, cods):
        if len(d) != len(c):
            return "none", None, 0

    tried = 0
    chosen: dict[FinSet, FinFn] = {}

    def filed_pairs(idx):
        """The square pairs (big, flat) at carriers[idx], filed by position."""
        X, dom = carriers[idx], doms[idx]
        filed: list[list] = [[] for _ in dom]
        if not M.tower_fits(len(dom), 1):
            return filed
        flatten = lift_algebra(law, free_algebra(M, X)).structure_at
        for big in M.apply(dom):
            flat = flatten(big)
            if flat not in dom:
                raise DomainMismatch(f"{dom.name}->{cods[idx].name}: {flat!r} not in domain")
            read = [dom.index(flat)]
            try:  # M of an identity that records the points it is called on
                M.map_element_fn(lambda x: read.append(dom.index(x)) or x, dom, dom, big)
            except BarrlabError:  # then tested on full bijections only
                read.append(len(dom) - 1)
            filed[max(read)].append((big, flat))
        return filed

    def natural(X, Y, at_x, at_y):
        return next(naturality_failures(source, target, X, Y, at_x, at_y), None) is None

    def natural_against(X, sigma, idx):
        """sigma at X against itself and, both ways, against every
        component already chosen below X."""
        return all(natural(X, Y, sigma, chosen.get(Y, sigma)) and
                   (Y is X or natural(Y, X, chosen[Y], sigma)) for Y in carriers[:idx + 1])

    def assign(idx) -> Optional[str]:
        nonlocal tried
        if idx == len(carriers):
            return "found"
        if tried >= cap:
            return "unknown"
        X, dom, cod = carriers[idx], doms[idx], cods[idx]
        filed, mult_tx = filed_pairs(idx), M.mult_at(T(X))
        n, points, values = len(dom), dom.elements, cod.elements
        table = dict.fromkeys(points)
        m_sigma = functools.partial(M.map_element_fn, table.__getitem__, dom, cod)
        # choice[i] is the position in M(T X) assigned to points[i], or -1.
        used, choice, i = set(), [-1] * n, 0
        while i >= 0:
            if i == n:  # a full bijection
                tried += 1
                sigma = FinFn(dom, cod, choice)
                if natural_against(X, sigma, idx):
                    chosen[X] = sigma
                    if result := assign(idx + 1):
                        return result
                    del chosen[X]
                i -= 1
                continue
            used.discard(choice[i])
            choice[i] = j = next((k for k in range(choice[i] + 1, n) if k not in used), -1)
            if j < 0:
                i -= 1
                continue
            if tried >= cap:
                return "unknown"
            used.add(j)
            table[points[i]] = values[j]
            if all(table[flat] == mult_tx(m_sigma(big)) for big, flat in filed[i]):
                i += 1
            else:
                tried += math.factorial(n - i - 1)
                if tried > cap:
                    tried = cap
                    return "unknown"
        return None

    status = assign(0) or "none"
    if status == "found":
        sigma = ComponentFamily(source, target, components=dict(chosen), name="sigma")
        cand = CommutingCandidate(T, H, M, sigma, law=law)
        return "found", cand, tried
    return status, None, tried
