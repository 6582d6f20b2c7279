import pytest

from barrlab import DomainMismatch, FinFn, FinSet, all_functions, carrier, identity_fn
from barrlab.finset import constant_fn, from_empty, to_terminal, TERMINAL, EMPTY


def test_elements_must_be_distinct():
    with pytest.raises(ValueError):
        FinSet("bad", [0, 1, 0])


def test_equality_ignores_name():
    assert FinSet("a", (0, 1)) == FinSet("b", (0, 1))
    assert FinSet("a", (0, 1)) != FinSet("a", (1, 0))


def test_index_and_membership():
    X = FinSet("X", ("p", "q"))
    assert X.index("q") == 1
    assert "p" in X and "r" not in X
    with pytest.raises(DomainMismatch):
        X.index("r")


def test_function_validation():
    X, Y = carrier(2), carrier(1)
    with pytest.raises(DomainMismatch):
        FinFn(X, Y, {0: 0})  # missing 1
    with pytest.raises(DomainMismatch):
        FinFn(X, Y, {0: 0, 1: 5})  # image outside codomain
    with pytest.raises(DomainMismatch):
        FinFn(X, Y, {0: 0, 1: 0, 9: 0})  # spurious key


def test_composition_order():
    X = carrier(2)
    f = FinFn(X, X, {0: 1, 1: 0})
    g = constant_fn(X, X, 0)
    assert f.then(g).table == {0: 0, 1: 0}
    assert f.then(identity_fn(X)) == f


def test_all_functions_count_and_order():
    X, Y = carrier(2), carrier(3)
    fns = list(all_functions(X, Y))
    assert len(fns) == 9
    # lexicographic in the value tuples, hence deterministic
    assert [tuple(f.table[x] for x in X) for f in fns[:4]] == [
        (0, 0), (0, 1), (0, 2), (1, 0)]
    assert list(all_functions(carrier(0), Y))[0].table == {}
    assert list(all_functions(X, carrier(0))) == []


def test_terminal_and_empty_helpers():
    X = carrier(3)
    t = to_terminal(X)
    assert t.cod == TERMINAL and set(t.table.values()) == {"*"}
    e = from_empty(X)
    assert e.dom == EMPTY and e.table == {}
