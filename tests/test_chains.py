import json
import random
from collections import Counter

import pytest

from barrlab import (Const, DepthExceeded, DomainMismatch, DyadicDist, EMAlgebra, FinFn,
                     FinSet, Id, LevelAlgebras, LimitPoint, NotCauchy, Prod, SemimoduleMonad,
                     ZeroObjectViolation, anamorphism, build_initial_chain,
                     build_terminal_chain, carrier, cauchy_limit_point, check_cone_coincidence,
                     check_em_algebra, check_projection_morphisms,
                     colim_to_lim, density_map, distance, eval_functor, gset_distlaws,
                     maybe_monad, pointed_law, semimodule_moore_law)
from barrlab.chains import _standin
from barrlab.finset import tabulate, to_terminal
from barrlab.functors import map_element
from barrlab.jsonio import load_distlaw_em
from barrlab.lifting import DistLawEM, lift_coalgebra
from barrlab.series import TruncatedSeries, decode_series, encode_series, words_below


@pytest.fixture(scope="module")
def z2_setup(z2_monad, one_letter):
    law = semimodule_moore_law(z2_monad, one_letter)
    chain = build_terminal_chain(law.H, 9)
    levels = LevelAlgebras(law, chain)
    ic = build_initial_chain(law, chain)
    return law, chain, levels, ic


@pytest.fixture(scope="module")
def maybe_setup(maybe, two_outputs):
    law = pointed_law(maybe, two_outputs)
    chain = build_terminal_chain(law.H, 5)
    levels = LevelAlgebras(law, chain)
    ic = build_initial_chain(law, chain)
    return law, chain, levels, ic


def series_point(ic, s: TruncatedSeries):
    return colim_to_lim(ic, encode_series(s), s.bound)


def walk_down(chain, el, frm, to):
    """el truncated from level frm to level to, one connecting map at a
    time: the pointwise reference for `truncation` and `LimitPoint.rep`."""
    for i in range(frm - 1, to - 1, -1):
        el = chain.connect[i](el)
    return el


def walk_up(ic, el, frm, to):
    """el pushed from level frm up to level to, one forward map at a time:
    the pointwise reference for `colim_to_lim`."""
    for i in range(frm, to):
        el = ic.forward[i](el)
    return el


def test_doubling_chain_levels(z2_setup):
    _, chain, _, _ = z2_setup
    assert [len(chain.level(n)) for n in range(5)] == [1, 2, 4, 8, 16]


def test_constant_chain_stabilizes():
    A = FinSet("A", ("p", "q", "r"))
    chain = build_terminal_chain(Const(A), 4)
    assert [len(chain.level(n)) for n in range(5)] == [1, 3, 3, 3, 3]
    for n in range(1, 4):
        t = chain.connect[n]
        assert t.is_bijection()
        assert dict(t.pairs()) == {a: a for a in A}


def test_writer_functor_chain_size(s3):
    H = Prod(Const(s3.as_finset()), Id())
    chain = build_terminal_chain(H, 2)
    assert len(chain.level(2)) == 36


def test_anamorphism_base_is_constant(z2_setup):
    _, chain, _, _ = z2_setup
    C = carrier(3)
    HC = eval_functor(chain.H, C)
    xi = tabulate(C, HC, {c: (1, (c,)) for c in C})
    (a0,) = anamorphism(C, xi, 0, chain)
    assert set(dict(a0.pairs()).values()) == {"*"}


def test_anamorphism_depth_guard(z2_setup):
    _, chain, _, _ = z2_setup
    C = carrier(1)
    HC = eval_functor(chain.H, C)
    xi = tabulate(C, HC, {0: (1, (0,))})
    for n in (chain.depth + 1, -1):
        with pytest.raises(DepthExceeded):
            anamorphism(C, xi, n, chain)


def test_single_state_unfolds_to_constant_series(z2_setup):
    # oracle: every run stays in the single state, so every word outputs 1
    law, chain, _, _ = z2_setup
    C = FinSet("C", ("c",))
    HC = eval_functor(chain.H, C)
    xi = tabulate(C, HC, {"c": (1, ("c",))})
    for n, leg in enumerate(anamorphism(C, xi, 5, chain)):
        assert decode_series(leg("c"), ("t",), n) == \
            TruncatedSeries.constant(("t",), n, 1)


def test_cone_compatibility_for_coalgebras(z2_setup):
    law, chain, _, _ = z2_setup
    rng = random.Random(5)
    C = carrier(3)
    HC = eval_functor(chain.H, C)
    for _ in range(5):
        xi = tabulate(C, HC, {c: rng.choice(HC.elements) for c in C})
        legs = anamorphism(C, xi, 5, chain)
        for n in range(5):
            assert legs[n + 1].then(chain.connect[n]) == legs[n]


@pytest.mark.parametrize("shorthand", ["moore:z2:1letter", "pointed:4:maybe"])
def test_anamorphism_legs_match_the_tabulated_form(shorthand):
    # Reference: leg n = xi ; H(leg n-1), with H(leg n-1) tabulated over all
    # of H C by the pointwise definition.  Coalgebras: the lifted ones on
    # M C that lemma1 unfolds.
    law = load_distlaw_em(shorthand)
    depth = 3
    chain = build_terminal_chain(law.H, depth + 1)
    _levels, C = _standin(law, chain, depth)
    zeta = lift_coalgebra(law, C, build_initial_chain(law, chain).forward[depth])
    MC = law.M.apply(C)
    legs = [to_terminal(MC)]
    for n in range(1, depth + 1):
        h_leg = tabulate(zeta.cod, chain.level(n),
                         {el: map_element(chain.H, legs[-1], el) for el in zeta.cod})
        legs.append(zeta.then(h_leg))
    assert anamorphism(MC, zeta, depth, chain) == legs


def _count_eval_functor(monkeypatch):
    """Count eval_functor calls: every image a functor keeps is evaluated
    through the name in `functors`."""
    from barrlab import functors

    calls, real = [], functors.eval_functor

    def counted(expr, X):
        calls.append(X)
        return real(expr, X)

    monkeypatch.setattr(functors, "eval_functor", counted)
    return calls


def test_chain_maps_are_built_on_the_chain_levels(monkeypatch, z2_monad, one_letter):
    # H is evaluated once per level; each connect and forward map is
    # tabulated on the levels the chain already holds.
    law = semimodule_moore_law(z2_monad, one_letter)
    calls = _count_eval_functor(monkeypatch)
    chain = build_terminal_chain(law.H, 6)
    assert len(calls) == 6
    levels = LevelAlgebras(law, chain)
    ic = build_initial_chain(law, chain)
    assert len(calls) == 6
    for n in range(6):
        assert chain.connect[n].dom is chain.levels[n + 1]
        assert chain.connect[n].cod is chain.levels[n]
        assert ic.forward[n].dom is chain.levels[n]
        assert ic.forward[n].cod is chain.levels[n + 1]


def test_anamorphism_returns_every_leg_and_keeps_no_state(z2_setup):
    _, chain, _, _ = z2_setup
    C = carrier(2)
    xi = tabulate(C, eval_functor(chain.H, C), {0: (1, (1,)), 1: (0, (0,))})
    attributes = set(vars(chain))
    for n in (0, 3, chain.depth):
        legs = anamorphism(C, xi, n, chain)
        assert len(legs) == n + 1
        assert [leg.cod for leg in legs] == chain.levels[:n + 1]
    assert set(vars(chain)) == attributes == {"H", "levels", "connect"}


def test_distance_reflexive_and_symmetric(z2_setup):
    _, chain, _, ic = z2_setup
    x = series_point(ic, TruncatedSeries.constant(("t",), 6, 1))
    d = distance(x, x, 6)
    assert not d.resolved and d.to_json() == {"gt_probe": 6}
    y = series_point(ic, TruncatedSeries.constant(("t",), 6, 0))
    assert distance(x, y, 6).agree_depth == distance(y, x, 6).agree_depth == 1


def test_distance_one_vs_one_plus_t(z2_setup):
    # degree-1 information lives at chain level 2
    _, chain, _, ic = z2_setup
    one = TruncatedSeries(("t",), 3, (1, 0, 0))
    one_t = TruncatedSeries(("t",), 3, (1, 1, 0))
    d = distance(series_point(ic, one), series_point(ic, one_t), 8)
    assert d.agree_depth == 2
    assert d.value().denominator == 4


def test_ultrametric_strong_triangle(z2_setup):
    _, chain, _, ic = z2_setup
    rng = random.Random(11)
    lvl = chain.level(8)
    for _ in range(25):
        pts = [colim_to_lim(ic, rng.choice(lvl.elements), 8) for _ in range(3)]
        exps = {}
        for i, j in ((0, 1), (1, 2), (0, 2)):
            exps[(i, j)] = distance(pts[i], pts[j], 8).exponent_lower_bound()
        assert exps[(0, 2)] >= min(exps[(0, 1)], exps[(1, 2)])


def _distance_from_the_top(chain, x, y, probe_depth):
    """The distance with each level's representatives truncated from the
    top, O(top^2) connecting-map calls, and the message of the read past a
    point's top: the reference."""
    for n in range(probe_depth + 1):
        for p in (x, y):
            if n > p.top:
                return f"representative at {n}; point is valid to depth {p.top}"
        if walk_down(chain, x.el, x.top, n) != walk_down(chain, y.el, y.top, n):
            return DyadicDist(n, probe_depth, n)
    return DyadicDist(None, probe_depth, probe_depth + 1)


def test_distance_walks_each_point_down_once(monkeypatch, z2_monad, one_letter):
    # Distances, density approximants and Cauchy limits read the points'
    # representatives in every order; each point still calls each connecting
    # map below its top once, and nothing else calls them.
    law = semimodule_moore_law(z2_monad, one_letter)
    chain = build_terminal_chain(law.H, 9)
    ic = build_initial_chain(law, chain)
    rng = random.Random(7)
    tops = [walk_up(ic, rng.choice(chain.level(n).elements), n, 9) for n in (3, 6, 8, 8)]
    points = [LimitPoint(chain, 9, el) for el in tops]
    points += [LimitPoint(chain, 4, walk_down(chain, el, 9, 4)) for el in tops[:2]]
    pairs = [(x, y) for x in points for y in points]
    expected = {(id(x), id(y), probe): _distance_from_the_top(chain, x, y, probe)
                for x, y in pairs for probe in range(chain.depth + 1)}
    calls = []
    monkeypatch.setitem(vars(chain), "connect", [lambda el, i=i, f=f: calls.append(i) or f(el)
                                                 for i, f in enumerate(chain.connect)])
    read = list(points)
    for x, y in pairs:
        for probe in range(chain.depth + 1):
            try:
                got = distance(x, y, probe)
            except DepthExceeded as exc:
                got = str(exc)
            assert got == expected[id(x), id(y), probe]
    for x in points:
        approximants = [density_map(ic, x, n) for n in range(x.top)]
        read += approximants
        for d in range(len(approximants)):
            read.append(cauchy_limit_point(approximants, d))
            assert read[-1].reps == approximants[d].reps[:d + 1]
        assert [x.rep(n) for n in range(x.top + 1)] == list(x.reps)
    assert Counter(calls) == Counter(i for p in read if "reps" in vars(p) for i in range(p.top))
    assert any(isinstance(d, str) for d in expected.values())


def level_algebra(levels, n):
    """Level n as an EMAlgebra whose structure is read from its table."""
    M, level = levels.law.M, levels.chain.level(n)
    return EMAlgebra(M, level, FinFn(M.apply(level), level, levels.table(n)))


def test_level_algebra_base_case(z2_setup):
    law, chain, levels, _ = z2_setup
    assert list(levels.table(0)) == [0] * len(law.M.apply(chain.level(0)))


def test_level_algebras_pass_em_checks(z2_setup, maybe_setup):
    for law, chain, levels, _ in (z2_setup, maybe_setup):
        for n in range(4):
            report = check_em_algebra(law.M, level_algebra(levels, n))
            assert report.passed, (law.name, n, report.first_failure())


def test_connect_maps_are_algebra_morphisms(z2_setup, maybe_setup):
    # t_n . alpha_{n+1} = alpha_n . M t_n, one element of M(level n+1) at a
    # time, for the connecting maps up to level 4.
    for law, chain, levels, _ in (z2_setup, maybe_setup):
        M = law.M
        for n in range(4):
            upper, lower, t = chain.level(n + 1), chain.level(n), chain.connect[n]
            alpha_upper, alpha_lower = (level_algebra(levels, k).structure()
                                        for k in (n + 1, n))
            for phi in M.apply(upper):
                assert t(alpha_upper(phi)) == \
                    alpha_lower(M.map_element_fn(t, upper, lower, phi)), (law.name, n)


def test_a_component_that_leaves_its_level_fails_inside_tabulate():
    # Level 1 is tabulated as the lifting of the terminal algebra, so a law
    # whose component lands outside H(M X) is named by tabulate's message.
    H = Prod(Const(FinSet("k", range(2))), Id())
    law = DistLawEM(H, maybe_monad(), lambda X, el: (5, (0, "*")), name="escapes")
    levels = LevelAlgebras(law, build_terminal_chain(H, 2))
    with pytest.raises(DomainMismatch,
                       match=r"^structure_lift\[escapes\]\(terminal\): image \(5, '\*'\) "
                             r"of \(0, '\*'\) not in "):
        levels.table(1)


def test_a_level_table_evaluates_the_law_once_per_element(maybe, two_outputs):
    # Level n+1's table evaluates lambda at level n once per element of
    # M(level n+1) and reads H(alpha_n) off level n's table, so lambda is
    # not evaluated again at the levels below.
    law = pointed_law(maybe, two_outputs, FinSet("A", ("a", "b")))
    chain = build_terminal_chain(law.H, 3)
    calls = []
    evaluate = law.component_at
    law.component_at = lambda X, el: calls.append(X) or evaluate(X, el)
    LevelAlgebras(law, chain).table(3)
    assert len(calls) == sum(len(maybe.apply(chain.level(n))) for n in (1, 2, 3))


def test_level_algebra_is_coefficientwise_addition(z2_setup, z2_monad):
    # oracle: decode, add coefficientwise mod 2, encode
    law, chain, levels, _ = z2_setup
    for n in range(4):
        lvl, table = chain.level(n), levels.table(n)
        for p, phi in enumerate(z2_monad.apply(lvl)):
            terms = [decode_series(el, ("t",), n) for el, c in zip(lvl.elements, phi) if c]
            expected = TruncatedSeries.from_fn(
                ("t",), n, lambda w: sum(s.coefficient(w) for s in terms) % 2)
            assert lvl.elements[table[p]] == encode_series(expected)


def test_gset_level_one_matches_the_pair_rule(s3):
    law_mult, _ = gset_distlaws(s3)
    chain = build_terminal_chain(law_mult.H, 2)
    a1 = level_algebra(LevelAlgebras(law_mult, chain), 1).structure()
    for g in s3.elements:
        for h in s3.elements:
            assert a1((g, (h, "*"))) == (s3.op(g, h), "*")


def act_at_level(levels, points, shape, n):
    """The structure the limit inherits, read at level n: push the support
    `points` down to level n along `shape`, an element of M over their
    indices, and apply level n's structure."""
    M, level = levels.law.M, levels.chain.level(n)
    idx = FinSet(f"I{len(points)}", range(len(points)))
    pushed = M.map_element_fn(lambda i: points[i].rep(n), idx, level, shape)
    return level_algebra(levels, n).structure()(pushed)


def unit_shape(M):
    return M.unit_element(FinSet("I1", range(1)), 0)


def test_gamma_unit_recovers_the_point(z2_setup):
    law, chain, levels, ic = z2_setup
    x = series_point(ic, TruncatedSeries.constant(("t",), 6, 1))
    for n in range(5):
        assert act_at_level(levels, (x,), unit_shape(law.M), n) == x.rep(n)


def test_gamma_missing_value_gives_basepoint(maybe_setup):
    law, chain, levels, ic = maybe_setup
    base = colim_to_lim(ic, "*", 0)
    for n in range(4):
        assert act_at_level(levels, (), (0, "*"), n) == base.rep(n)


def test_gamma_of_formal_sum_is_coefficientwise_sum(z2_setup):
    # level 4 is the highest whose M(level) fits under the default guard
    law, chain, levels, ic = z2_setup
    rng = random.Random(23)
    for _ in range(10):
        f = TruncatedSeries.from_fn(("t",), 4, lambda w: rng.randrange(2))
        g = TruncatedSeries.from_fn(("t",), 4, lambda w: rng.randrange(2))
        points = (series_point(ic, f), series_point(ic, g))
        total = TruncatedSeries.from_fn(
            ("t",), 4, lambda w: (f.coefficient(w) + g.coefficient(w)) % 2)
        assert decode_series(act_at_level(levels, points, (1, 1), 4), ("t",), 4) == total


def test_gamma_is_levelwise_continuous(z2_setup):
    # combinations over points that agree up to level n evaluate equal up to n
    law, chain, levels, ic = z2_setup
    f = TruncatedSeries(("t",), 3, (1, 1, 0))
    x = series_point(ic, f)
    y = density_map(ic, x, 3)  # same rep up to 3, different beyond
    for n in range(4):
        assert act_at_level(levels, (x,), unit_shape(law.M), n) == \
            act_at_level(levels, (y,), unit_shape(law.M), n)


def test_cone_and_projection_checks_pass(z2_setup, maybe_setup):
    for law, chain, levels, _ in (z2_setup, maybe_setup):
        assert check_cone_coincidence(law, chain, 3).passed
        assert check_projection_morphisms(law, chain, 3).passed
        # Level n+1->n passes exactly when the connecting map t_n is an
        # algebra morphism, so depth 4 covers the maps up to level 4.
        assert check_projection_morphisms(law, chain, 4).passed


class _Corrupted(DistLawEM):
    """Wraps a law, swapping two outputs of one component (at the inputs
    `where` accepts, by default all of them)."""

    def __init__(self, base, at_level_set, where=lambda el: True):
        self.base = base
        self.at = at_level_set
        self.where = where
        super().__init__(base.H, base.M, None, name="corrupted")

    def component_at(self, X, el):
        out = self.base.component_at(X, el)
        if X == self.at and self.where(el):
            head, succ = out  # flip the output coefficient slot
            return (1 - head, succ)
        return out


def test_mutated_law_is_detected(z2_setup):
    law, chain, _, _ = z2_setup
    bad = _Corrupted(law, chain.level(1))
    failed = (not check_cone_coincidence(bad, chain, 3).passed
              or not check_projection_morphisms(bad, chain, 3).passed)
    assert failed


def _lemma_checks(*rows):
    """Check dicts from (law, instance, counterexample or None) rows."""
    return [{"law": law, "instance": instance, "status": "pass"} if ce is None
            else {"law": law, "instance": instance, "status": "fail", "counterexample": ce}
            for law, instance, ce in rows]


_ZERO8 = (0,) * 8
_PAIR8 = (0, 0, 0, 0, 0, 1, 0, 1)
_LAST8 = (0, 0, 0, 0, 0, 0, 1, 1)

# Reports of the two lemma checks on corrupted z2 Moore laws at depth 3,
# captured from the pointwise evaluation: the first counterexample of each
# level, with the elements of M(level 3) it is found at.
PINNED_LEMMA_REPORTS = {
    "everywhere": (
        {"subject": "projection morphisms for corrupted", "passed": False,
         "checks": _lemma_checks(
             ("projection-morphism", "level 1->0", None),
             ("projection-morphism", "level 2->1",
              {"level": 1, "element": _ZERO8,
               "connected": (1, ("*",)), "direct": (0, ("*",))}),
             ("projection-morphism", "level 3->2",
              {"level": 2, "element": _ZERO8,
               "connected": (0, ((1, ("*",)),)), "direct": (1, ((0, ("*",)),))}))},
        {"subject": "cone coincidence for corrupted", "passed": False,
         "checks": _lemma_checks(
             ("cone-coincidence", "level 0", None),
             ("cone-coincidence", "level 1", None),
             ("cone-coincidence", "level 2",
              {"level": 2, "element": _ZERO8,
               "unfolded": (0, ((0, ("*",)),)), "projected": (1, ((0, ("*",)),))}),
             ("cone-coincidence", "level 3",
              {"level": 3, "element": _ZERO8,
               "unfolded": (0, ((0, ((0, ("*",)),)),)),
               "projected": (0, ((1, ((0, ("*",)),)),))}))},
    ),
    "two-term inputs": (
        {"subject": "projection morphisms for corrupted", "passed": False,
         "checks": _lemma_checks(
             ("projection-morphism", "level 1->0", None),
             ("projection-morphism", "level 2->1",
              {"level": 1, "element": _PAIR8,
               "connected": (1, ("*",)), "direct": (0, ("*",))}),
             ("projection-morphism", "level 3->2",
              {"level": 2, "element": _LAST8,
               "connected": (0, ((1, ("*",)),)), "direct": (0, ((0, ("*",)),))}))},
        {"subject": "cone coincidence for corrupted", "passed": False,
         "checks": _lemma_checks(
             ("cone-coincidence", "level 0", None),
             ("cone-coincidence", "level 1", None),
             ("cone-coincidence", "level 2",
              {"level": 2, "element": _PAIR8,
               "unfolded": (0, ((1, ("*",)),)), "projected": (1, ((1, ("*",)),))}),
             ("cone-coincidence", "level 3",
              {"level": 3, "element": _LAST8,
               "unfolded": (0, ((0, ((1, ("*",)),)),)),
               "projected": (0, ((1, ((1, ("*",)),)),))}))},
    ),
}
CORRUPTIONS = {"everywhere": lambda el: True, "two-term inputs": lambda el: sum(el) == 2}


@pytest.mark.parametrize("name", sorted(PINNED_LEMMA_REPORTS))
def test_mutated_law_reports_are_pinned(z2_setup, name):
    law, chain, _, _ = z2_setup
    bad = _Corrupted(law, chain.level(1), CORRUPTIONS[name])
    projection, cone = PINNED_LEMMA_REPORTS[name]
    # Compared as JSON text, so that the order of each counterexample's keys
    # is pinned too.
    assert (json.dumps(check_projection_morphisms(bad, chain, 3).to_json())
            == json.dumps(projection))
    assert json.dumps(check_cone_coincidence(bad, chain, 3).to_json()) == json.dumps(cone)


def test_zero_object_condition(z2_setup, s3):
    # writer monads have an empty free algebra on no generators
    law_mult, _ = gset_distlaws(s3)
    chain = build_terminal_chain(law_mult.H, 3)
    with pytest.raises(ZeroObjectViolation) as err:
        build_initial_chain(law_mult, chain)
    assert err.value.size == 0


def test_exception_monad_violates_zero_object(two_outputs):
    from barrlab import exception_monad

    M = exception_monad(2)
    law = pointed_law(M, two_outputs)
    chain = build_terminal_chain(law.H, 3)
    with pytest.raises(ZeroObjectViolation) as err:
        build_initial_chain(law, chain)
    assert err.value.size == 2


def test_split_retraction(z2_setup, maybe_setup):
    for _, chain, _, ic in (z2_setup, maybe_setup):
        for n in range(4):
            fwd, t = ic.forward[n], chain.connect[n]
            for x in chain.level(n):
                assert t(fwd(x)) == x


def test_truncation_matches_the_pointwise_walk():
    # truncation composes the connecting maps' positions; the reference
    # applies the connecting maps one element at a time.
    law = load_distlaw_em("pointed:2:maybe")
    chain = build_terminal_chain(law.H, 5)
    for frm in range(6):
        for to in range(frm + 1):
            t = chain.truncation(frm, to)
            assert (t.dom, t.cod) == (chain.level(frm), chain.level(to))
            assert [t(el) for el in chain.level(frm)] == [
                walk_down(chain, el, frm, to) for el in chain.level(frm)], (frm, to)
    with pytest.raises(DepthExceeded):
        chain.truncation(2, 3)


def test_standin_unfolds_to_truncations(z2_setup):
    # the split section is a coalgebra whose cone legs are the truncations
    law, chain, _, ic = z2_setup
    D = 4
    C = chain.level(D)
    xi = ic.forward[D]
    assert anamorphism(C, xi, D, chain) == [chain.truncation(D, n) for n in range(D + 1)]


def test_colim_to_lim_zero_pads(z2_setup):
    _, chain, _, ic = z2_setup
    s = TruncatedSeries(("t",), 3, (1, 1, 0))
    pt = colim_to_lim(ic, encode_series(s), 3)
    assert pt.rep(3) == encode_series(s)
    padded = decode_series(pt.rep(8), ("t",), 8)
    for w in words_below(("t",), 8):
        assert padded.coefficient(w) == (s.coefficient(w) if len(w) < 3 else 0)


def test_split_retraction_through_points(z2_setup):
    _, chain, _, ic = z2_setup
    for n in range(4):
        for x in chain.level(n):
            assert colim_to_lim(ic, x, n).rep(n) == x


def test_limit_points_are_their_top_representative(z2_monad, one_letter):
    # Below its level a point's representatives are truncations and above
    # it forward images; a density approximant and a Cauchy limit are read
    # the same way.
    law = semimodule_moore_law(z2_monad, one_letter)
    chain = build_terminal_chain(law.H, 6)
    ic = build_initial_chain(law, chain)

    def family(x, n):
        return [walk_down(chain, x, n, m) if m < n else walk_up(ic, x, n, m)
                for m in range(7)]

    for n in range(7):
        with pytest.raises(DomainMismatch):
            colim_to_lim(ic, "nosuch", n)
        for x in chain.level(n):
            pt = colim_to_lim(ic, x, n)
            assert [pt.rep(m) for m in range(7)] == family(x, n)
            with pytest.raises(DepthExceeded):
                pt.rep(7)
            points = [density_map(ic, pt, k) for k in range(6)]
            for k, y in enumerate(points):
                assert [y.rep(m) for m in range(7)] == family(ic.forward[k](pt.rep(k)), k + 1)
            for d in range(6):
                lim = cauchy_limit_point(points, d)
                assert [lim.rep(m) for m in range(d + 1)] == [points[m].rep(m)
                                                               for m in range(d + 1)]
                with pytest.raises(DepthExceeded):
                    lim.rep(d + 1)


def test_density_base_case(z2_setup):
    _, chain, _, ic = z2_setup
    x = series_point(ic, TruncatedSeries.constant(("t",), 8, 1))
    y = density_map(ic, x, 0)
    assert y.rep(0) == "*"
    assert decode_series(y.rep(8), ("t",), 8) == \
        TruncatedSeries.constant(("t",), 8, 0)


def test_density_all_ones(z2_setup):
    _, chain, _, ic = z2_setup
    x = series_point(ic, TruncatedSeries.constant(("t",), 8, 1))
    y = density_map(ic, x, 3)
    assert y.rep(3) == x.rep(3)
    tail = decode_series(y.rep(8), ("t",), 8)
    for w in words_below(("t",), 8):
        assert tail.coefficient(w) == (1 if len(w) < 3 else 0)


def test_density_one_step_identity(z2_setup):
    # the approximant's next level is exactly the forward image of the
    # point's current level
    _, chain, _, ic = z2_setup
    rng = random.Random(71)
    for _ in range(10):
        x = colim_to_lim(ic, rng.choice(chain.level(8).elements), 8)
        for n in range(8):
            y = density_map(ic, x, n)
            assert y.rep(n + 1) == ic.forward[n](x.rep(n))


def test_density_bound_on_random_points(z2_setup):
    _, chain, _, ic = z2_setup
    rng = random.Random(99)
    lvl = chain.level(8)
    for _ in range(10):
        x = colim_to_lim(ic, rng.choice(lvl.elements), 8)
        for n in range(9):
            y = density_map(ic, x, n)
            assert y.rep(n) == x.rep(n)
            assert distance(x, y, 8).leq_pow(n)


def test_density_depth_guard(z2_setup):
    _, chain, _, ic = z2_setup
    x = colim_to_lim(ic, "*", 0)
    with pytest.raises(DepthExceeded):
        density_map(ic, x, chain.depth)


def test_density_never_builds_m_of_level_one(monkeypatch):
    # Level 1 of the Moore law over the free Z/2-module on 4 generators has
    # 16 elements, so M(level 1) has 2^16.  The base of the initial chain is
    # read by its definition, and density never enumerates M(level 1).
    law = load_distlaw_em({"monad": "semimodule:z2",
                           "family": {"name": "moore", "generators": "X4"}})
    enumerated = []
    enumerate_ = SemimoduleMonad._enumerate
    monkeypatch.setattr(SemimoduleMonad, "_enumerate",
                        lambda M, X: enumerated.append(X) or enumerate_(M, X))
    chain = build_terminal_chain(law.H, 3)
    assert len(chain.level(1)) == 16
    ic = build_initial_chain(law, chain)
    x = colim_to_lim(ic, random.Random(5).choice(chain.level(2).elements), 2)
    for n in range(3):
        assert density_map(ic, x, n).rep(n) == x.rep(n)
    assert chain.level(1) not in enumerated


def test_cauchy_constant_sequence(z2_setup):
    _, chain, _, ic = z2_setup
    x = series_point(ic, TruncatedSeries.constant(("t",), 8, 1))
    lim = cauchy_limit_point([x] * 9, 8)
    assert all(lim.rep(n) == x.rep(n) for n in range(9))


def test_cauchy_density_sequence_converges_back(z2_setup):
    _, chain, _, ic = z2_setup
    rng = random.Random(4)
    x = colim_to_lim(ic, rng.choice(chain.level(8).elements), 8)
    lim = cauchy_limit_point([density_map(ic, x, n) for n in range(9)], 8)
    assert all(lim.rep(n) == x.rep(n) for n in range(9))


def test_cauchy_partial_sums(z2_setup):
    # diagonal oracle: the n-th partial sum already carries the first n ones
    _, chain, _, ic = z2_setup
    sums = [series_point(ic, TruncatedSeries.from_fn(
        ("t",), 8, lambda w, n=n: 1 if len(w) < n else 0)) for n in range(9)]
    lim = cauchy_limit_point(sums, 8)
    assert decode_series(lim.rep(8), ("t",), 8) == \
        TruncatedSeries.constant(("t",), 8, 1)


def test_cauchy_violation_is_witnessed(z2_setup):
    _, chain, _, ic = z2_setup
    a = series_point(ic, TruncatedSeries.constant(("t",), 8, 0))
    b = series_point(ic, TruncatedSeries.constant(("t",), 8, 1))
    with pytest.raises(NotCauchy) as err:
        cauchy_limit_point([a, a, b], 2)
    assert err.value.witness == {"i": 1, "j": 2, "level": 1}
