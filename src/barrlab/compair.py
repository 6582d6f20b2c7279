"""Commuting pairs of endofunctors with respect to a monad: Kleisli lifts
for the words functor 1 + A x X, the canonical partner constructions in the
biproduct (free-semimodule) case, and exhaustive checkers plus a bounded
search for the mediating isomorphism.

The mediating isomorphism sigma: H(M X) -> M(T X) is a `ComponentFamily`
from H after M to M after T, the same type as a distributive law, so its
naturality is checked by the same `naturality_failures` sweep: once per
pair of carriers in `check_commuting`, and in both directions against the
components already fixed for each full bijection in `search_commuting_sigma`.
A `CommutingCandidate` is sigma and the law it may carry: T, H and M are
read off sigma's composites, and the search takes H and M from its law.
`check_commuting` decides the algebra square on tables of positions over
M(H(M X)), read off the lifted free algebra (`lifted_free_positions`) and
sigma's positions.
The search assigns sigma one element at a time and tests each algebra-square
pair as soon as the positions it reads are assigned.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Optional

from .algebras import free_algebra
from .errors import (BarrlabError, DomainMismatch, MissingComponent, NotBiproductCompatible,
                     blowup_limit)
from .finset import TERMINAL, FinFn, FinSet, canonical_carriers, compose
from .functors import Const, Coprod, FunctorExpr, Id, Prod
from .lifting import (ComponentFamily, Composite, DistLawEM, DistLawKl,
                      SemimoduleFunctorLaw, constant_law, lift_algebra, lifted_free_positions,
                      naturality_failures)
from .monads import FinMonad, SemimoduleMonad
from .reports import LawReport, table_failures


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
    """A claimed isomorphism sigma: H(M X) = M(T X), a family from H after M
    to M after T, optionally bundled with the distributive law that makes
    the square meaningful.  T, H and M are read off sigma's composites."""

    def __init__(self, sigma: ComponentFamily, law: Optional[DistLawEM] = None):
        self.sigma = sigma
        self.law = law

    @property
    def T(self) -> FunctorExpr:
        return self.sigma.target.E

    @property
    def H(self) -> FunctorExpr:
        return self.sigma.source.E

    @property
    def M(self) -> FinMonad:
        return self.sigma.M

    def __repr__(self):
        return f"CommutingCandidate(T={self.T}, H={self.H}, M={self.M.name})"


def check_commuting(cand: CommutingCandidate, law: Optional[DistLawEM] = None,
                    max_size: int = 2) -> LawReport:
    """Verify that the claimed components are bijective, natural, and make
    the algebra square commute: distributing-then-flattening on the functor
    side matches flattening after the isomorphism.

    The square compares two tables of positions over M(H(M X)): sigma after
    the lifted free algebra on X (the law, then H(mu_X)), and mu_{TX} . M
    sigma.  Elements are decoded only at the first position where they
    differ."""
    law = law or cand.law
    if law is None:
        raise MissingComponent("no distributive law supplied for the square")
    if law.H != cand.H:
        raise DomainMismatch("distributive law is for a different functor")
    M, H, family = cand.M, law.H, cand.sigma
    report = LawReport(f"commuting pair T={cand.T}, H={cand.H} over {M.name}")
    carriers = canonical_carriers(max_size)

    for X in carriers:
        MX = M.apply(X)
        TX = cand.T(X)
        HMX = H(MX)
        MTX = M.apply(TX)
        sigma = family.component(X)

        report.first("cardinality", X.name, () if len(HMX) == len(MTX) else
                     [{"H(MX)": len(HMX), "M(TX)": len(MTX)}])
        report.first("bijection", X.name, () if sigma.is_bijection() else [{"carrier": X.name}])

        def square_failures():
            MHMX = M.apply(HMX)
            lifted = lifted_free_positions(law, free_algebra(M, X), len(MHMX),
                                           lambda: range(len(MHMX)), lambda: MHMX)
            yield from table_failures(
                {"carrier": X.name}, MHMX.elements.__getitem__, MTX,
                compose(sigma.positions, lifted), M.kleisli_table(sigma.positions, HMX, TX))

        report.first("algebra-square", X.name, square_failures(),
                     [(f"M(H(M {X.name}))", M.tower(len(HMX), 1))])

    for X in carriers:
        for Y in carriers:
            report.first("naturality", f"{X.name}->{Y.name}", naturality_failures(
                family.source, family.target, X, Y, family.component(X), family.component(Y)))

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
    T, law, formula = _partner_parts(B, M, alphabet)
    # Built on the law's H, so that the candidate, the law and sigma read
    # one set of kept images.
    sigma = ComponentFamily(law.target, Composite(M, T), formula, name="sigma")
    return CommutingCandidate(sigma, law=law)


def _partner_parts(B: FinSet, M: FinMonad, alphabet: Optional[FinSet]):
    """T, the law on its partner H and sigma's formula for one of the three
    biproduct shapes of `partner_for_product`."""
    if not isinstance(M, SemimoduleMonad):
        raise NotBiproductCompatible(
            f"{M.name} is not flagged as a biproduct (free-semimodule) monad")
    out = free_algebra(M, B)
    if alphabet is not None and len(alphabet) == 0:
        return Const(B), constant_law(M, out), lambda X, el: el
    stream = alphabet is None
    T = Coprod(Const(B), Id() if stream else Prod(Const(alphabet), Id()))

    def formula(X, el):
        # The coefficient blocks of the output and of each successor, in turn.
        c, succ = el
        return tuple(itertools.chain(c, *([succ] if stream else succ)))

    return T, SemimoduleFunctorLaw(M, out, alphabet), formula


# ---------------------------------------------------------------------------
# Bounded search for a mediating isomorphism


def _closed_form_candidate(T: FunctorExpr, law: DistLawEM) -> Optional[CommutingCandidate]:
    """Recognise the biproduct partner shapes and return their canonical
    block-concatenation isomorphism, built on the given law."""
    M = law.M
    if not isinstance(M, SemimoduleMonad):
        return None
    if isinstance(T, Const):
        B, alphabet = T.value, FinSet("A0", ())
    elif (isinstance(T, Coprod) and len(T.summands) == 2
          and isinstance(T.summands[0], Const)):
        B, rest = T.summands[0].value, T.summands[1]
        if isinstance(rest, Id):
            alphabet = None
        elif (isinstance(rest, Prod) and len(rest.factors) == 2
              and isinstance(rest.factors[0], Const)
              and isinstance(rest.factors[1], Id)):
            alphabet = rest.factors[0].value
        else:
            return None
    else:
        return None
    # The partner's H is constant exactly where T is: another law's H is
    # turned away before the partner, and M B with it, is built.
    if isinstance(law.H, Const) != isinstance(T, Const):
        return None
    partner_T, partner, formula = _partner_parts(B, M, alphabet)
    if partner_T != T or partner.H != law.H:
        return None
    # sigma reads the images the given law's H keeps.
    sigma = ComponentFamily(law.target, Composite(M, T), formula, name="sigma")
    return CommutingCandidate(sigma, law=law)


def search_commuting_sigma(T: FunctorExpr, law: DistLawEM, max_size: int,
                           cap: int = 10**5) -> tuple[str, Optional[CommutingCandidate], int]:
    """Search bijections H(M X) -> M(T X), for the law's H and M, carrier
    by carrier in canonical order, pruning with the algebra square and with
    naturality against the components already fixed; gives up with status
    "unknown" once `cap` candidate bijections have been tried.

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
    M = law.M
    closed = _closed_form_candidate(T, law)
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
        if M.card(len(dom)) > blowup_limit():
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
        return "found", CommutingCandidate(sigma, law=law), tried
    return status, None, tried
