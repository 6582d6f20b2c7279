import re

import pytest

from barrlab import DomainMismatch, FinFn, FinSet, all_functions, carrier, tabulate
from barrlab.finset import (EMPTY, TERMINAL, compose, constant_fn, differences, from_empty,
                            to_terminal)
from barrlab.reports import table_failures


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
    with pytest.raises(DomainMismatch, match=re.escape("X2->X1: no value for 1")):
        tabulate(X, Y, {0: 0})  # missing 1
    with pytest.raises(DomainMismatch, match=re.escape("X2->X1: image 5 of 1 not in X1")):
        tabulate(X, Y, {0: 0, 1: 5})  # image outside codomain
    with pytest.raises(DomainMismatch,
                       match=re.escape("X2->X1: table keys {9} outside the domain")):
        tabulate(X, Y, {0: 0, 1: 0, 9: 0})  # spurious key
    with pytest.raises(DomainMismatch, match=re.escape("f: image 5 of 0 not in X1")):
        tabulate(X, Y, lambda x: 5, name="f")


def test_tabulate_stores_positions():
    X, Y = carrier(3), FinSet("Y", ("p", "q"))
    f = tabulate(X, Y, lambda x: "pq"[x % 2])
    assert type(f.positions) is tuple and f.positions == (0, 1, 0)
    # Positions given as a tuple are kept, not copied; any other iterable
    # is read into one.
    assert FinFn(X, Y, f.positions).positions is f.positions
    assert FinFn(X, Y, iter([0, 1, 0])) == f
    assert tabulate(X, Y, {0: "p", 1: "q", 2: "p"}) == f
    assert [f(x) for x in X] == ["p", "q", "p"]
    assert list(f.pairs()) == [(0, "p"), (1, "q"), (2, "p")]
    with pytest.raises(DomainMismatch):
        f(3)


def test_positions_must_fit():
    X, Y = carrier(2), carrier(2)
    assert FinFn(X, Y, [1, 0]).is_bijection()
    # Too few, too many, past the codomain, and negative.
    for positions in ([0], [0, 1, 1], [0, 2], [0, -1]):
        with pytest.raises(DomainMismatch):
            FinFn(X, Y, positions)


def test_composition_order():
    X = carrier(2)
    f = tabulate(X, X, {0: 1, 1: 0})
    g = constant_fn(X, X, 0)
    assert dict(f.then(g).pairs()) == {0: 0, 1: 0}
    assert f.then(tabulate(X, X, lambda x: x)) == f


def test_composition_matches_pointwise():
    # f.then(g) composes position tables; the reference applies f, then g.
    X, Y, Z = FinSet("X", "abc"), FinSet("Y", (10, 20)), FinSet("Z", ("u", "v", "w"))
    for f in all_functions(X, Y):
        for g in all_functions(Y, Z):
            fg = f.then(g)
            assert (fg.dom, fg.cod) == (X, Z)
            assert [fg(x) for x in X] == [g(f(x)) for x in X]


def test_all_functions_count_and_order():
    X, Y = carrier(2), carrier(3)
    fns = list(all_functions(X, Y))
    assert len(fns) == 9
    # lexicographic in the value tuples, hence deterministic
    assert [tuple(dict(f.pairs()).values()) for f in fns[:4]] == [
        (0, 0), (0, 1), (0, 2), (1, 0)]
    assert dict(list(all_functions(carrier(0), Y))[0].pairs()) == {}
    assert list(all_functions(X, carrier(0))) == []


def test_terminal_and_empty_helpers():
    X = carrier(3)
    t = to_terminal(X)
    assert t.cod == TERMINAL and set(dict(t.pairs()).values()) == {"*"}
    e = from_empty(X)
    assert e.dom == EMPTY and dict(e.pairs()) == {}


# The table kit: tables of positions are composed and compared in `finset`,
# and their differences decoded in `reports.table_failures`.

@pytest.mark.parametrize("t", [(), (2,), (1, 0, 1, 2), (2, 0), (0, 0, 1), range(3),
                               range(1, 2)])
def test_compose_matches_pointwise(t):
    # The reader is an itemgetter for two entries or more, and a map below.
    # It returns a tuple, from a range too (`TerminalChain.truncation`
    # passes one).
    for s in ((5, 6, 7), (7, 5, 6), range(4, 7)):
        assert type(compose(s, t)) is tuple
        assert compose(s, t) == tuple(s[i] for i in t)


def test_differences_lists_the_differing_positions():
    # Equal tables are found equal by one comparison, with no generator.
    assert differences((0, 3, 1), (0, 3, 1)) == ()
    assert differences((), ()) == ()
    assert list(differences((0, 1, 2, 3), (0, 2, 2, 0))) == [1, 3]
    assert list(differences((0, 1, 2), (2, 1, 0))) == [0, 2]


def test_table_failures_decode_only_differing_positions():
    cod = FinSet("Y", ("p", "q", "r"))
    asked = []

    def element_at(p):
        asked.append(p)
        return f"x{p}"

    failures = table_failures({"carrier": "X4"}, element_at, cod, (0, 1, 2, 0),
                              (0, 2, 2, 1), ("left", "right"))
    assert asked == []
    first = next(failures)
    assert asked == [1]
    assert list(first.items()) == [("carrier", "X4"), ("element", "x1"), ("left", "q"),
                                   ("right", "r")]
    assert [f["element"] for f in failures] == ["x3"]
    assert asked == [1, 3]
    assert list(table_failures({}, element_at, cod, (1, 2), (1, 2))) == []
    assert asked == [1, 3]
