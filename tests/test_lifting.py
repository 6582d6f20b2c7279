from collections import Counter

import pytest

from barrlab import (FinSet, MissingComponent, WriterMonad, carrier, check_distlaw_em,
                     check_em_algebra, cyclic_group, eval_functor, free_algebra,
                     gset_distlaws, identity_law, lift_algebra, lift_coalgebra,
                     pointed_law, product_swap_law, semimodule_moore_law,
                     semimodule_stream_law, semiring_algebra, terminal_algebra)
from barrlab.errors import DomainMismatch, NotAGroup
from barrlab.finset import tabulate
from barrlab.groups import FinMonoid
from barrlab.lifting import DistLawEM


@pytest.fixture(scope="module")
def s3_laws(s3):
    return gset_distlaws(s3)


def test_gset_unit_condition(s3, s3_laws):
    # the unit of the group must slide through: law(e, (h, x)) = (h, (e, x))
    law_mult, law_conj = s3_laws
    X = carrier(2)
    e = s3.unit
    for law in (law_mult, law_conj):
        for h in s3.elements:
            for x in X:
                assert law.component_at(X, (e, (h, x))) == (h, (e, x))


def test_gset_laws_pass_checker(s3_laws):
    for law in s3_laws:
        report = check_distlaw_em(law, 2)
        assert report.passed, report.first_failure()


def test_gset_laws_differ_already_over_z2():
    # conjugation collapses for abelian groups, so the conjugation law turns
    # into the swap law, which still differs from the multiplication law
    law_mult, law_conj = gset_distlaws(cyclic_group(2))
    X = carrier(1)
    table_mult = law_mult.component(X)
    table_conj = law_conj.component(X)
    assert table_mult != table_conj
    assert table_mult((1, (1, 0))) == (0, (1, 0))
    assert table_conj((1, (1, 0))) == (1, (1, 0))
    swap = product_swap_law(law_conj.M, cyclic_group(2).as_finset())
    assert swap.component(X) == table_conj


def test_gset_laws_differ_on_s3_tables(s3, s3_laws):
    law_mult, law_conj = s3_laws
    X = carrier(1)
    assert law_mult.component(X) != law_conj.component(X)


def test_gset_requires_a_group():
    with pytest.raises(NotAGroup):
        gset_distlaws(FinMonoid("min2", (0, 1), lambda a, b: min(a, b), 1))


def test_identity_law_passes(maybe):
    assert check_distlaw_em(identity_law(maybe), 2).passed


def test_semimodule_moore_law_passes(z2_monad, one_letter):
    report = check_distlaw_em(semimodule_moore_law(z2_monad, one_letter), 2)
    assert report.passed, report.first_failure()


def test_semimodule_stream_law_passes(z2_monad):
    out = free_algebra(z2_monad, carrier(1))
    assert check_distlaw_em(semimodule_stream_law(z2_monad, out), 2).passed


def test_pointed_law_passes(maybe, two_outputs):
    assert check_distlaw_em(pointed_law(maybe, two_outputs), 2).passed
    A = FinSet("A", ("a", "b"))
    assert check_distlaw_em(pointed_law(maybe, two_outputs, A), 2).passed


def test_swap_law_passes_for_monoid_writer(s3):
    M = WriterMonad(s3)
    assert check_distlaw_em(product_swap_law(M, carrier(2)), 2).passed


def test_broken_unit_axiom_is_located(z2_monad, one_letter):
    base = semimodule_moore_law(z2_monad, one_letter)
    X = carrier(1)
    HX = base.H(X)
    bad_at = z2_monad.unit_element(HX, HX.elements[0])

    class Broken(DistLawEM):
        pass

    broken = Broken(base.H, base.M,
                    lambda Y, el: base.component_at(Y, el) if (Y, el) != (X, bad_at)
                    else base.component_at(Y, z2_monad.unit_element(HX, HX.elements[1])),
                    name="broken")
    report = check_distlaw_em(broken, 1)
    assert not report.passed
    first = report.first_failure()
    assert first.law == "unit-axiom"
    assert first.counterexample["element"] == HX.elements[0]


def test_lift_terminal_algebra(bundled_monads, s3_laws):
    law_mult, _ = s3_laws
    lifted = lift_algebra(law_mult, terminal_algebra(law_mult.M))
    assert check_em_algebra(law_mult.M, lifted).passed


def test_lifted_free_algebras_pass_em_laws(z2_monad, one_letter, s3_laws):
    cases = [
        (semimodule_moore_law(z2_monad, one_letter), z2_monad),
        (s3_laws[0], s3_laws[0].M),
        (s3_laws[1], s3_laws[1].M),
    ]
    for law, M in cases:
        for n in range(3):
            lifted = lift_algebra(law, free_algebra(M, carrier(n)))
            report = check_em_algebra(M, lifted)
            assert report.passed, (law.name, n, report.first_failure())


def test_two_liftings_differ_on_free_algebra(s3, s3_laws):
    law_mult, law_conj = s3_laws
    base = free_algebra(law_mult.M, carrier(1))
    lifted_mult = lift_algebra(law_mult, base)
    lifted_conj = lift_algebra(law_conj, base)
    assert not lifted_mult.same_table_as(lifted_conj)
    # oracle: the two structures act as (g*h, g.x) vs (g*h*g^-1, g.x)
    g = (1, 0, 2)
    h = (1, 2, 0)
    el = (g, (h, (s3.unit, 0)))
    assert lifted_mult.structure_at(el)[0] == s3.op(g, h)
    assert lifted_conj.structure_at(el)[0] == s3.op(s3.op(g, h), s3.inv(g))


def test_lift_coalgebra_on_empty_carrier(maybe, two_outputs):
    law = pointed_law(maybe, two_outputs)
    empty = carrier(0)
    xi = tabulate(empty, eval_functor(law.H, empty), {})
    lifted = lift_coalgebra(law, empty, xi)
    assert len(lifted.dom) == 1  # only the error value remains
    assert dict(lifted.pairs()) == {(0, "*"): (0, (0, "*"))}


def test_lift_coalgebra_single_state_machine(maybe, two_outputs):
    # by hand: the missing value outputs the basepoint and stays missing,
    # a present state keeps its output and successor inside the monad
    law = pointed_law(maybe, two_outputs)
    C = FinSet("S", ("s",))
    HC = eval_functor(law.H, C)
    xi = tabulate(C, HC, {"s": (1, "s")})
    lifted = lift_coalgebra(law, C, xi)
    assert dict(lifted.pairs()) == {
        (0, "*"): (0, (0, "*")),
        (1, "s"): (1, (1, "s")),
    }


def test_lift_coalgebra_validates_domain(maybe, two_outputs):
    law = pointed_law(maybe, two_outputs)
    C = carrier(1)
    with pytest.raises(DomainMismatch):
        lift_coalgebra(law, C, tabulate(C, C, {0: 0}))


def test_table_law_missing_component(maybe):
    from barrlab import Id

    law = DistLawEM(Id(), maybe, components={}, name="empty")
    with pytest.raises(MissingComponent):
        law.component(carrier(1))


def test_lookup_matches_component_at(maybe, two_outputs, z2_monad, one_letter):
    # a formula law, a table law and SemimoduleFunctorLaw; the table at X2
    # is constant, so it sends the elements X2 shares with X0 and X1 elsewhere
    formula = pointed_law(maybe, two_outputs)
    X2 = carrier(2)
    source, target = formula.source.at(X2), formula.target.at(X2)
    components = {carrier(n): formula.component(carrier(n)) for n in range(2)}
    components[X2] = tabulate(source, target, lambda el: target.elements[-1])
    table = DistLawEM(formula.H, maybe, components=components, name="tabled")
    linear = semimodule_moore_law(z2_monad, one_letter)
    for law in (formula, table, linear):
        for n in range(3):
            X = carrier(n)
            lam = law.lookup(X)
            for el in law.source.at(X):
                assert lam(el) == law.component_at(X, el), (law.name, n, el)


def test_lookup_evaluates_the_formula_once_per_element(maybe, two_outputs):
    base = pointed_law(maybe, two_outputs)
    calls = Counter()

    def formula(X, el):
        calls[X, el] += 1
        return base.component_at(X, el)

    law = DistLawEM(base.H, maybe, formula, name="counting")
    X = carrier(2)
    dom = law.source.at(X).elements
    for _ in range(3):
        lam = law.lookup(X)
        assert [lam(el) for el in dom * 2] == [base.component_at(X, el) for el in dom * 2]
    assert calls == Counter({(X, el): 1 for el in dom})
    # the checker reads every component through lookup
    calls.clear()
    assert check_distlaw_em(law, 2).passed
    assert set(calls.values()) == {1}


def test_semiring_algebra_passes(z2_monad, z4_monad):
    assert check_em_algebra(z2_monad, semiring_algebra(z2_monad)).passed
    assert check_em_algebra(z4_monad, semiring_algebra(z4_monad)).passed
