import itertools
import json

import pytest

from barrlab import (Const, Coprod, FinSet, Id, NotBiproductCompatible, PowersetMonad,
                     Prod, SemimoduleMonad, TERMINAL, WriterMonad, carrier,
                     check_commuting, check_distlaw_kl, cyclic_group, eval_functor,
                     identity_law, kleisli_lift_poly, maybe_monad,
                     partner_for_product, polynomial_embed, search_commuting_sigma,
                     series_distance, tabulate, zmod)
from barrlab.compair import CommutingCandidate, _closed_form_candidate, words_functor
from barrlab.cli import main
from barrlab.errors import (BlowUpGuard, DomainMismatch, MissingComponent, NonFinitePreserving,
                            blowup_limit)
from barrlab.finset import canonical_carriers
from barrlab.functors import arrow
from barrlab.lifting import (ComponentFamily, Composite, DistLawEM, DistLawKl,
                             naturality_failures, product_swap_law)
from barrlab.series import Polynomial, TruncatedSeries, words_below


@pytest.fixture(scope="module")
def letter():
    return FinSet("A", ("a",))


def test_bare_summand_goes_through_the_unit(bundled_monads, letter):
    for name, M in bundled_monads.items():
        if name == "writer-s3":
            continue  # no unit element exists on the empty carrier? it does; keep
        law = kleisli_lift_poly(letter, M)
        for n in range(3):
            X = carrier(n)
            TX = eval_functor(law.T, X)
            assert law.component_at(X, (0, "*")) == M.unit_element(TX, (0, "*"))


def test_kleisli_lift_full_table_against_hand_composition(maybe, letter):
    # compose the three stages separately: strength, unit on the bare
    # summand, coproduct collapse
    M = maybe
    X = carrier(1)
    T = words_functor(letter)
    law = kleisli_lift_poly(letter, M)
    MX = M.apply(X)
    TX = eval_functor(T, X)
    table = {}
    for el in eval_functor(T, MX):
        tag, v = el
        if tag == 0:
            table[el] = M.unit_element(TX, el)          # unit stage
        else:
            a, phi = v
            AX = eval_functor(words_functor(letter).summands[1], X)
            st = M.map_element_fn(lambda x: (a, x), X, AX, phi)  # strength stage
            table[el] = M.map_element_fn(lambda ax: (1, ax), AX, TX, st)  # collapse
    component = law.component(X)
    assert len(component.dom) == 3
    assert dict(component.pairs()) == table


def test_kleisli_lift_is_linear_over_semimodules(z2_monad, letter):
    # pushing a pointwise sum forward equals the pointwise sum of pushes
    law = kleisli_lift_poly(letter, z2_monad)
    X = carrier(2)
    TX = eval_functor(law.T, X)
    k = z2_monad.k
    vecs = list(z2_monad.apply(X))
    for phi in vecs:
        for psi in vecs:
            total = tuple(k.add(a, b) for a, b in zip(phi, psi))
            lhs = law.component_at(X, (1, ("a", total)))
            parts = [law.component_at(X, (1, ("a", v)))[TX.index(el)]
                     for v in (phi, psi) for el in TX]
            combined = tuple(
                k.add(law.component_at(X, (1, ("a", phi)))[i],
                      law.component_at(X, (1, ("a", psi)))[i])
                for i in range(len(TX)))
            assert lhs == combined


@pytest.mark.parametrize("name", ["maybe", "exception2", "writer-s3",
                                  "powerset", "z2-semimodule", "z4-semimodule"])
def test_kleisli_lift_passes_axioms_for_bundled_monads(bundled_monads, letter, name):
    law = kleisli_lift_poly(letter, bundled_monads[name])
    report = check_distlaw_kl(law, 2)
    assert report.passed, (name, report.first_failure())


def test_identity_kleisli_law(maybe):
    law = DistLawKl(Id(), maybe, lambda X, el: el, name="id-kl")
    assert check_distlaw_kl(law, 2).passed


def test_broken_kleisli_multiplication_caught(maybe, letter):
    base = kleisli_lift_poly(letter, maybe)
    X1 = carrier(1)

    class Broken(DistLawKl):
        pass

    def formula(X, el):
        out = base.component_at(X, el)
        if X == X1 and el == (1, ("a", (0, "*"))):
            return (1, (1, ("a", 0)))  # swap the missing marker for a value
        return out

    broken = Broken(base.T, maybe, formula, name="broken-kl")
    report = check_distlaw_kl(broken, 1)
    assert not report.passed


@pytest.mark.parametrize("max_size", (1, 2))
def test_a_kleisli_law_broken_at_a_derived_carrier_fails_only_its_mult_axiom(
        maybe, letter, max_size):
    # The law differs from kleisli_lift_poly only at M X1, a carrier no
    # canonical instance names, on the element whose inner value is
    # just(just(0)); only the mult axiom at X1 reads that component, through
    # M(lambda_X1) applied to the broken value.
    base = kleisli_lift_poly(letter, maybe)
    MX1 = maybe.apply(carrier(1))

    def formula(X, el):
        if X == MX1 and el == (1, ("a", (1, (1, 0)))):
            return maybe.unit_element(base.T(X), (0, "*"))
        return base.component_at(X, el)

    report = check_distlaw_kl(DistLawKl(base.T, maybe, formula, name="broken-at-mx1"), max_size)
    assert [(c.law, c.instance, c.status, c.counterexample) for c in report.checks
            if c.status != "pass"] == [
        ("mult-axiom", "X1", "fail", {"carrier": "X1", "element": (1, ("a", (1, (1, 0)))),
                                      "lhs": (1, (1, ("a", 0))), "rhs": (1, (0, "*"))})]


def test_identity_pair_commutes(bundled_monads):
    for M in bundled_monads.values():
        cand = CommutingCandidate(ComponentFamily(Composite(Id(), M), Composite(M, Id()),
                                                  lambda X, el: el, name="sigma"),
                                  law=identity_law(M))
        report = check_commuting(cand, max_size=2)
        assert report.passed, report.first_failure()


def test_writer_product_pair_commutes(s3):
    # H = T = B x X over the writer monad on B; the mediating map swaps the
    # constant component with the monad component, matching the symmetric law
    M = WriterMonad(s3)
    B = s3.as_finset()
    from barrlab import Const, Prod

    expr = Prod(Const(B), Id())
    swap = ComponentFamily(Composite(expr, M), Composite(M, expr),
                           lambda X, el: (el[1][0], (el[0], el[1][1])), name="sigma")
    cand = CommutingCandidate(swap, law=product_swap_law(M, B))
    report = check_commuting(cand, max_size=2)
    assert report.passed, report.first_failure()


def test_moore_pair_cardinalities(z2_monad, letter):
    cand = partner_for_product(TERMINAL, z2_monad, letter)
    for n in range(5):
        X = carrier(n)
        assert len(eval_functor(cand.H, z2_monad.apply(X))) == \
            len(z2_monad.apply(eval_functor(cand.T, X))) == 2 ** (1 + n)


def test_moore_pair_passes(z2_monad, letter):
    cand = partner_for_product(TERMINAL, z2_monad, letter)
    report = check_commuting(cand, max_size=2)
    assert report.passed, report.first_failure()


def test_stream_pair_passes(z2_monad):
    cand = partner_for_product(FinSet("B", ("b0", "b1")), z2_monad)
    assert check_commuting(cand, max_size=2).passed


def test_constant_pair_passes(z2_monad):
    cand = partner_for_product(FinSet("B", ("b",)), z2_monad, FinSet("A0", ()))
    assert check_commuting(cand, max_size=2).passed


def test_partner_requires_biproducts(maybe):
    with pytest.raises(NotBiproductCompatible):
        partner_for_product(carrier(1), maybe)


def test_commuting_check_requires_a_law(z2_monad, letter):
    cand = partner_for_product(TERMINAL, z2_monad, letter)
    cand_bare = CommutingCandidate(cand.sigma)
    with pytest.raises(MissingComponent):
        check_commuting(cand_bare)


def test_search_finds_closed_form_immediately(z2_monad, letter):
    cand = partner_for_product(TERMINAL, z2_monad, letter)
    status, found, tried = search_commuting_sigma(cand.T, cand.law, 2)
    assert status == "found" and tried == 0
    assert check_commuting(found, cand.law, 2).passed


def test_search_brute_force_on_identity_pair(maybe):
    status, found, tried = search_commuting_sigma(Id(), identity_law(maybe), 1)
    assert status == "found"
    assert tried == 2
    assert check_commuting(found, identity_law(maybe), 1).passed


def test_search_reports_unknown_at_the_cap(maybe):
    status, found, tried = search_commuting_sigma(Id(), identity_law(maybe), 2, cap=1)
    assert status == "unknown" and found is None
    # only the one bijection the cap allows was tested
    assert tried == 1


def test_search_detects_impossible_cardinalities(maybe):
    # constants of size 2: |H(M X)| = 2 but |M(T X)| = 3 under the maybe monad
    from barrlab import Const, EMAlgebra, constant_law, tabulate

    two = carrier(2)
    pointed = EMAlgebra(maybe, two,
                        tabulate(maybe.apply(two), two,
                                 {(0, "*"): 0, (1, 0): 0, (1, 1): 1}))
    status, found, _ = search_commuting_sigma(Const(two), constant_law(maybe, pointed), 1)
    assert status == "none" and found is None


def test_initial_words():
    assert words_below(("a",), 1) == [()]
    assert len(words_below(("a", "b"), 3)) == 7
    assert words_below(("a", "b"), 2) == [(), ("a",), ("b",)]


def test_word_stages_embed_densely(z2_monad):
    # polynomials supported on words below n approximate any series to 2^-n
    import random

    rng = random.Random(61)
    k = zmod(2)
    for _ in range(5):
        s = TruncatedSeries.from_fn(("t",), 8, lambda w: rng.randrange(2))
        for n in range(9):
            stage = {w: s.coefficient(w) for w in words_below(("t",), min(n, 8))}
            p = Polynomial(("t",), k, stage)
            emb = polynomial_embed(p, 8).series
            assert series_distance(s, emb).leq_pow(n)


def _leaky_identity_law(M):
    # The identity law, except that its component at M X1 sends the last
    # element of M(M X1) to a value whose flattening lies outside H(M X1).
    MX1 = M.apply(carrier(1))
    leak = M.apply(MX1).elements[-1]

    def formula(Y, el):
        if Y == MX1 and el == leak:
            return (1, (1, "ghost"))
        return el

    return DistLawEM(Id(), M, formula, name="leaky")


def test_search_reports_a_law_leaving_h_of_m_x(maybe):
    with pytest.raises(DomainMismatch) as info:
        search_commuting_sigma(Id(), _leaky_identity_law(maybe), 2)
    assert str(info.value) == "X(maybe(X1))->maybe(X1): (1, 'ghost') not in domain"


def test_leaky_law_search_exits_two(capsys, monkeypatch, maybe):
    monkeypatch.setattr("barrlab.cli.load_distlaw_em",
                        lambda doc, path="law": _leaky_identity_law(maybe))
    code = main(["commute", "search", "--T", "id", "--H", "id", "--law", "maybe",
                 "--max-size", "1", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"] == "DomainMismatch"
    assert report["message"] == "X(maybe(X1))->maybe(X1): (1, 'ghost') not in domain"


def test_search_with_a_law_for_another_functor_exits_two(capsys):
    # The search takes H from the law; the CLI checks --H against it.
    code = main(["commute", "search", "--T", "id", "--H", "id", "--law", "moore:z2:1letter",
                 "--max-size", "1", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert (report["error"], report["message"]) == (
        "DomainMismatch", "distributive law is for a different functor")


def test_commute_check_on_a_19_letter_partner_at_x0_exits_zero(capsys):
    partner = {"monad": "semimodule:z2", "partner": {
        "generators": {"elements": ["*"]},
        "alphabet": {"elements": [f"a{i}" for i in range(19)]}}}
    code = main(["commute", "check", json.dumps(partner), "--max-size", "0",
                 "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [c["status"] for c in report["result"]["checks"]] == ["pass"] * 4


# Twenty generators: M B, over Z/2, has 2^20 elements, above the guard.
_B20 = FinSet("B", tuple(f"b{i}" for i in range(20)))


def test_closed_form_turns_away_a_law_whose_h_is_not_constant_before_building_m_b(z2_monad):
    # T is constant and the law's H is not: no closed form, and the search
    # stops at the guard on M(T X0), as it did when the H shapes were
    # checked one by one.
    law = partner_for_product(TERMINAL, z2_monad).law
    assert _closed_form_candidate(Const(_B20), law) is None
    with pytest.raises(BlowUpGuard, match=r"while building semimodule\[z2\]\(B\(X0\)\)$"):
        search_commuting_sigma(Const(_B20), law, 0)


def test_closed_form_stops_at_the_partners_free_algebra_above_the_guard(z2_monad):
    # B + X with a law whose H has the partner's shape: the partner is built,
    # and its free algebra on B is above the guard.
    law = partner_for_product(TERMINAL, z2_monad).law
    with pytest.raises(NonFinitePreserving, match="free algebra carrier on B exceeds"):
        search_commuting_sigma(Coprod(Const(_B20), Id()), law, 0)


def test_search_does_not_evaluate_the_law_past_the_cap(maybe):
    # The cap stops the search before any candidate at X2 is tested, so a
    # law that fails at M X2 is never asked for that component.
    base = identity_law(maybe)
    MX2 = maybe.apply(carrier(2))

    def formula(Y, el):
        if Y == MX2:
            raise MissingComponent(f"no component at {Y.name}")
        return base.component_at(Y, el)

    law = DistLawEM(Id(), maybe, formula, name="partial")
    status, found, tried = search_commuting_sigma(Id(), law, 2, cap=2)
    assert (status, found, tried) == ("unknown", None, 2)
    with pytest.raises(MissingComponent):
        search_commuting_sigma(Id(), law, 2)


# ---------------------------------------------------------------------------
# The search over partial bijections against the full-permutation search it
# replaced: same status, same sigma, same `tried`, capped or not.


def full_permutation_search(T, H, M, law, max_size, cap=10**5):
    """Every bijection H(M X) -> M(T X), carrier by carrier, built in
    `itertools.permutations` order and only then tested against the algebra
    square and naturality.  Returns (status, {carrier: table}, tried)."""
    carriers = canonical_carriers(max_size)
    source, target = Composite(H, M), Composite(M, T)
    doms = [source.at(X) for X in carriers]
    tx_sets = [T(X) for X in carriers]
    cods = [target.at(X) for X in carriers]
    if any(len(d) != len(c) for d, c in zip(doms, cods)):
        return "none", None, 0
    tried = 0
    chosen = {}
    squares = {}

    def square_pairs(idx):
        if idx not in squares:
            MX, h_mult_x = M.apply(carriers[idx]), arrow(H, M.mult_at(carriers[idx]))
            squares[idx] = [(big, h_mult_x(law.component_at(MX, big)))
                            for big in M.apply(doms[idx])]
        return squares[idx]

    def natural(X, Y, at_x, at_y):
        return next(naturality_failures(source, target, X, Y, at_x, at_y), None) is None

    def assign(idx):
        nonlocal tried
        if idx == len(carriers):
            return "found"
        X, dom, cod, TX = carriers[idx], doms[idx], cods[idx], tx_sets[idx]
        for perm in itertools.permutations(cod.elements):
            if tried >= cap:
                return "unknown"
            tried += 1
            table = dict(zip(dom.elements, perm))
            if M.card(len(dom)) <= blowup_limit() and any(
                    table[flat] != M.mult_element(
                        TX, M.map_element_fn(table.__getitem__, dom, cod, big))
                    for big, flat in square_pairs(idx)):
                continue
            sigma = tabulate(dom, cod, table)
            if not all(natural(X, Y, sigma, chosen.get(Y, sigma)) and
                       (Y is X or natural(Y, X, chosen[Y], sigma))
                       for Y in carriers[:idx + 1]):
                continue
            chosen[X] = sigma
            result = assign(idx + 1)
            if result:
                return result
            del chosen[X]
        return None

    status = assign(0) or "none"
    tables = {X: dict(f.pairs()) for X, f in chosen.items()} if status == "found" else None
    return status, tables, tried


def partial_bijection_search(T, H, M, law, max_size, cap=10**5):
    status, cand, tried = search_commuting_sigma(T, law, max_size, cap=cap)
    tables = None if cand is None else {X: dict(cand.sigma.component(X).pairs())
                                        for X in canonical_carriers(max_size)}
    return status, tables, tried


def _product(letters):
    return Prod(Const(FinSet("A", tuple(letters))), Id())


def _writer_swap(group, letters):
    M = WriterMonad(cyclic_group(group))
    return _product(letters), _product(letters), M, \
        product_swap_law(M, FinSet("A", tuple(letters)))


def _writer_twisted_swap(group, letters):
    # The swap law with the monoid part shifted by 1: no bijection makes
    # the square commute at X1, so the search ends in "none".
    T, H, M, _ = _writer_swap(group, letters)
    return T, H, M, DistLawEM(H, M, lambda X, el: (el[1][0], ((el[0] + 1) % group,
                                                             el[1][1])),
                              name="twisted-swap")


def _identity_pair(M):
    return Id(), Id(), M, identity_law(M)


def _table_maybe(drop_identity_arrow=False):
    # maybe as explicit tables on carriers of size <= 3; without the
    # identity arrow on M X2, every square pair at X2 is filed at the last
    # position and the first bijection tested there names the gap.
    from test_tables import table_monad

    M = table_monad(maybe_monad(), 3)
    if drop_identity_arrow:
        del M.maps[(3, 3, (0, 1, 2))]
    return _identity_pair(M)


DIFFERENTIAL_CASES = {
    "identity-maybe": (lambda: _identity_pair(maybe_monad()), 2),
    "identity-powerset": (lambda: _identity_pair(PowersetMonad()), 2),
    "identity-semimodule-z2": (lambda: _identity_pair(SemimoduleMonad(zmod(2))), 2),
    "swap-writer-z2-p": (lambda: _writer_swap(2, ["p"]), 1),
    "swap-writer-z5-pq": (lambda: _writer_swap(5, ["p", "q"]), 1),
    "swap-writer-z3-pqr": (lambda: _writer_swap(3, ["p", "q", "r"]), 1),
    "none-twisted-writer-z3-pq": (lambda: _writer_twisted_swap(3, ["p", "q"]), 1),
    "table-maybe": (_table_maybe, 2),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
def test_search_matches_the_full_permutation_search(name):
    make, max_size = DIFFERENTIAL_CASES[name]
    want = full_permutation_search(*make(), max_size)
    assert partial_bijection_search(*make(), max_size) == want
    assert want[0] == ("none" if name.startswith("none") else "found")


def test_search_reports_a_table_monad_gap_as_the_full_search_does():
    with pytest.raises(MissingComponent) as want:
        full_permutation_search(*_table_maybe(drop_identity_arrow=True), 2)
    T, _, _, law = _table_maybe(drop_identity_arrow=True)
    with pytest.raises(MissingComponent) as got:
        search_commuting_sigma(T, law, 2)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("make", [lambda: _writer_swap(3, ["p", "q"]),
                                  lambda: _writer_twisted_swap(2, ["p", "q"])],
                         ids=["found", "none"])
def test_search_matches_the_full_permutation_search_at_every_cap(make):
    _, _, tried = full_permutation_search(*make(), 1)
    for cap in range(tried + 2):
        want = full_permutation_search(*make(), 1, cap=cap)
        assert partial_bijection_search(*make(), 1, cap=cap) == want, cap


@pytest.mark.parametrize("cap", [3628, 3629, 3630, 40319, 40320, 40321,
                                 53041, 53042, 53043])
def test_search_matches_the_full_permutation_search_at_block_edges(cap):
    # writer:z5 {p,q} at --max-size 1: sigma_X1 has 10 positions, so the
    # blocks a prefix rules out are 9!, 8!, ... bijections long.
    want = full_permutation_search(*_writer_swap(5, ["p", "q"]), 1, cap=cap)
    assert partial_bijection_search(*_writer_swap(5, ["p", "q"]), 1, cap=cap) == want
    assert want[2] == min(cap, 53042)


def test_search_reaches_max_size_two():
    T, _, _, law = _writer_swap(3, ["p", "q"])
    status, found, tried = search_commuting_sigma(T, law, 2, cap=10**6)
    assert (status, tried) == ("found", 829479)
    assert check_commuting(found, law, 2).passed


def test_max_size_two_search_stops_at_the_default_cap(capsys):
    product = json.dumps({"prod": [{"const": {"elements": ["p", "q"]}}, "id"]})
    law = json.dumps({"monad": "writer:z3",
                      "family": {"name": "swap", "constant": {"elements": ["p", "q"]}}})
    code = main(["commute", "search", "--T", product, "--H", product, "--law", law,
                 "--max-size", "2", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"] == "SearchCapReached"
    assert "tried = 100000 " in report["message"]
