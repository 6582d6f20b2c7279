import pytest

from barrlab import (BlowUpGuard, Compose, Const, Coprod, FinSet, Id, Power,
                     Prod, all_functions, carrier, eval_functor, tabulate,
                     moore_functor)
from barrlab.functors import arrow, cardinality, map_element

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
