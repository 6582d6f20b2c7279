import pytest

from barrlab import (BlowUpGuard, Compose, Const, Coprod, DomainMismatch, FinSet, Id,
                     Power, Prod, all_functions, carrier, eval_functor, tabulate,
                     moore_functor)
from barrlab.functors import arrow, arrow_table, cardinality, map_element
from barrlab.jsonio import load_distlaw_em, load_distlaw_kl, load_functor

A1 = FinSet("A", ("a",))
K2 = FinSet("k", (0, 1))

CORPUS = [
    Id(),
    Const(K2),
    Prod(Const(K2), Id()),
    Coprod(Const(FinSet("1", ("*",))), Prod(Const(A1), Id())),
    Power(A1, Id()),
    moore_functor(K2, FinSet("A", ("a", "b"))),
    Compose(Prod(Const(K2), Id()), Coprod(Id(), Id())),
]


def test_constant_and_identity_evaluation():
    X = carrier(3)
    assert eval_functor(Const(K2), X).elements == K2.elements
    assert eval_functor(Id(), X) == X


def test_moore_size_is_polynomial():
    # |k| * |X|^|A| with |k|=2, |A|=1, |X|=3
    X = carrier(3)
    assert len(eval_functor(moore_functor(K2, A1), X)) == 6


def test_cardinality_matches_enumeration():
    for expr in CORPUS:
        for n in range(4):
            assert cardinality(expr, n) == len(eval_functor(expr, carrier(n)))


def test_enumeration_is_deterministic():
    for expr in CORPUS:
        X = carrier(3)
        assert eval_functor(expr, X).elements == eval_functor(expr, X).elements


def test_map_preserves_identity_and_composition():
    sizes = [(2, 2), (2, 3), (3, 2), (0, 2)]
    for expr in CORPUS:
        for n in range(3):
            X = carrier(n)
            h_id = arrow(expr, tabulate(X, X, lambda x: x))
            assert all(h_id(el) == el for el in eval_functor(expr, X))
        for (m, n) in sizes:
            X, Y, Z = carrier(m), carrier(n), carrier(2)
            HX = eval_functor(expr, X)
            for f in all_functions(X, Y):
                h_f = arrow(expr, f)
                for g in all_functions(Y, Z):
                    h_fg, h_g = arrow(expr, f.then(g)), arrow(expr, g)
                    assert all(h_fg(el) == h_g(h_f(el)) for el in HX)


def test_pair_functor_maps_componentwise():
    # oracle: enumerate all pairs and apply f to each slot
    X = carrier(2)
    pair = Prod(Id(), Id())
    for f in all_functions(X, X):
        h_f = arrow(pair, f)
        for x in X:
            for y in X:
                assert h_f((x, y)) == (f(x), f(y))


E2 = FinSet("E", ("u", "v"))

# Every node kind, and each branch `arrow` takes for a two-factor product.
ARROW_CORPUS = [
    Const(K2),
    Id(),
    Prod(),
    Prod(Id()),
    Prod(Const(K2), Id()),
    Prod(Id(), Const(K2)),
    Prod(Id(), Id()),
    Prod(Const(K2), Const(A1)),
    Prod(Const(K2), Id(), Power(E2, Id())),
    Coprod(Const(K2), Id(), Prod(Id(), Id())),
    Power(FinSet("E", ()), Id()),
    Power(E2, Id()),
    Power(E2, Coprod(Id(), Const(A1))),
    Compose(Prod(Const(K2), Id()), Compose(Power(E2, Id()), Coprod(Id(), Const(A1)))),
]


@pytest.mark.parametrize("expr", ARROW_CORPUS, ids=str)
def test_arrow_agrees_with_map_element(expr):
    for m in range(3):
        for n in range(3):
            X, Y = carrier(m), carrier(n)
            for f in all_functions(X, Y):
                h_f = arrow(expr, f)
                for el in eval_functor(expr, X):
                    assert h_f(el) == map_element(expr, f, el)


EMPTY_K = FinSet("0", ())

# Every node kind for arrow_table: an empty constant alone, as a product's
# factor and as a summand; products of two and three factors whose radix
# order shows; and nested mixes.
TABLE_CORPUS = ARROW_CORPUS + [
    Const(EMPTY_K),
    Prod(Const(EMPTY_K), Id()),
    Prod(Id(), Power(E2, Id()), Const(EMPTY_K)),
    Prod(Id(), Const(K2), Id()),
    Prod(Id(), Id(), Id()),
    Coprod(Const(EMPTY_K), Id(), Const(K2)),
    Coprod(Power(E2, Id()), Prod(Id(), Const(K2))),
    Compose(Coprod(Id(), Prod(Id(), Id())), Power(E2, Id())),
    Compose(Power(E2, Compose(Id(), Prod(Const(K2), Id()))), Coprod(Const(A1), Id())),
]

# The functor of every builtin shorthand: `chain --functor`'s, each EM law
# family's H and the Kleisli family's T.
SHORTHAND_FUNCTORS = (
    [load_functor(s) for s in ("id", "moore:z2:1letter", "moore:z3:2letters")]
    + [load_distlaw_em(s).H for s in ("gset-z2-mult", "gset-s3-conj", "moore:bool:2letters",
                                      "pointed:2:maybe", "pointed:3:exception")]
    + [load_distlaw_kl("words:2letters:maybe").T])


@pytest.mark.parametrize("expr", TABLE_CORPUS + SHORTHAND_FUNCTORS, ids=str)
def test_arrow_table_agrees_with_arrow_and_map_element(expr):
    for m in range(4):
        for n in range(4):
            X, Y = carrier(m), carrier(n)
            HX, HY = eval_functor(expr, X), eval_functor(expr, Y)
            for f in all_functions(X, Y):
                table = arrow_table(expr, f.positions, m, n)
                assert type(table) is tuple
                assert table == tabulate(HX, HY, arrow(expr, f)).positions
                assert [HY.elements[p] for p in table] == [
                    map_element(expr, f, el) for el in HX]


def test_arrow_table_checks_the_domain_size():
    with pytest.raises(DomainMismatch):
        arrow_table(Id(), (0, 1), 3, 2)


def test_coproduct_tags_are_preserved():
    X, Y = carrier(2), carrier(2)
    expr = Coprod(Const(K2), Id())
    f = list(all_functions(X, Y))[1]
    h_f = arrow(expr, f)
    for tag, v in eval_functor(expr, X):
        out_tag, out_v = h_f((tag, v))
        assert out_tag == tag
        assert out_v == (v if tag == 0 else f(v))


def test_blow_up_guard_trips(monkeypatch):
    monkeypatch.setenv("BARRLAB_BLOWUP_GUARD", "100")
    big = Power(FinSet("E", range(12)), Const(K2))
    with pytest.raises(BlowUpGuard):
        eval_functor(big, carrier(1))
    monkeypatch.delenv("BARRLAB_BLOWUP_GUARD")
    assert len(eval_functor(big, carrier(1))) == 2 ** 12
