"""Differential tests of the tabulated paths against the pointwise code they
replace: level-algebra structure tables, and arrows and multiplications
resolved once."""

import functools

import pytest

from barrlab import (FinSet, all_functions, build_terminal_chain, carrier,
                     cyclic_group, exception_monad, gset_distlaws, level_algebras,
                     maybe_monad, pointed_law, powerset_monad, semimodule_moore_law,
                     semimodule_monad, writer_monad, zmod)
from barrlab.functors import map_element
from barrlab.monads import TableMonad

LAWS = {
    "moore:z2:1letter": lambda: semimodule_moore_law(semimodule_monad(zmod(2)),
                                                     FinSet("A", ("t",))),
    "pointed:4:maybe": lambda: pointed_law(maybe_monad(), FinSet("k", range(4))),
    "gset-z2-conj": lambda: gset_distlaws(cyclic_group(2))[1],
}
TOPS = {"moore:z2:1letter": 4, "pointed:4:maybe": 3, "gset-z2-conj": 3}


def pointwise_structures(law, chain):
    """Level n's structure by its definition, H(alpha_{n-1}) . lambda, with
    no tables; memoised on the element so that level 4 stays quick."""
    @functools.lru_cache(maxsize=None)
    def alpha(n, u):
        if n == 0:
            return "*"
        return map_element(law.H, lambda v: alpha(n - 1, v),
                           law.component_at(chain.level(n - 1), u))

    return alpha


def expected_structures(name, top):
    """(elements of M(level n), pointwise values) for n <= top, from a law
    and chain that share nothing with the ones under test."""
    law = LAWS[name]()
    chain = build_terminal_chain(law.H, top)
    alpha = pointwise_structures(law, chain)
    out = []
    for n in range(top + 1):
        elements = law.M.apply(chain.level(n)).elements
        out.append((elements, [alpha(n, u) for u in elements]))
    return out


@pytest.mark.parametrize("name", sorted(LAWS))
def test_level_tables_match_pointwise(name):
    top = TOPS[name]
    law = LAWS[name]()
    chain = build_terminal_chain(law.H, top)
    levels = level_algebras(law, chain)
    for n, (elements, values) in enumerate(expected_structures(name, top)):
        assert [levels.structure_at(n, u) for u in elements] == values, n
        # A second lookup reads the filled table.
        assert [levels.structure_at(n, u) for u in elements] == values, n
        assert [levels.algebra(n).structure_at(u) for u in elements] == values, n


@pytest.mark.parametrize("name", sorted(LAWS))
def test_levels_above_the_guard_stay_pointwise(name, monkeypatch):
    top = 3
    expected = expected_structures(name, top)
    law = LAWS[name]()
    # The guard admits the chain's top level but not M of it.
    guard = len(build_terminal_chain(law.H, top).level(top))
    monkeypatch.setenv("BARRLAB_BLOWUP_GUARD", str(guard))
    chain = build_terminal_chain(law.H, top)
    levels = level_algebras(law, chain)
    for n, (elements, values) in enumerate(expected):
        assert [levels.structure_at(n, u) for u in elements] == values, n
    assert levels._tables[top] is False


def table_monad(real, max_size):
    """`real` as explicit tables: the elements of M X_n for n up to
    |M X_max_size|, the multiplication at the carriers of size <= max_size,
    and an arrow table for every function between those carriers."""
    sizes = {n: {"elements": list(real.apply(carrier(n))), "unit": {}, "mult": {}}
             for n in range(real.card(max_size) + 1)}
    for n in range(max_size + 1):
        X = carrier(n)
        MX = real.apply(X)
        # M(M X) is read as M of the canonical carrier of size |M X|.
        C = carrier(len(MX))
        relabel = real.arrow(MX.elements.__getitem__, C, MX)
        sizes[n]["mult"] = {el2: real.mult_element(X, relabel(el2)) for el2 in real.apply(C)}
    maps = {}
    for m in range(max_size + 1):
        for n in range(max_size + 1):
            for f in all_functions(carrier(m), carrier(n)):
                key = (m, n, tuple(f(i) for i in range(m)))
                maps[key] = {el: real.map_element_fn(f, f.dom, f.cod, el)
                             for el in real.apply(carrier(m))}
    return TableMonad(f"table[{real.name}]", sizes, maps)


MONADS = {
    "maybe": maybe_monad,
    "exception": lambda: exception_monad(2),
    "writer": lambda: writer_monad(cyclic_group(3)),
    "powerset": powerset_monad,
    "semimodule-z2": lambda: semimodule_monad(zmod(2)),
    "semimodule-z3": lambda: semimodule_monad(zmod(3)),
    "table": lambda: table_monad(powerset_monad(), 2),
}


@pytest.mark.parametrize("name", sorted(MONADS))
def test_arrow_matches_map_element_fn(name):
    M = MONADS[name]()
    for m in range(3):
        X = carrier(m)
        for n in range(3):
            Y = carrier(n)
            for f in all_functions(X, Y):
                arrow = M.arrow(f, X, Y)
                for el in M.apply(X):
                    assert arrow(el) == M.map_element_fn(f, X, Y, el), (f.table, el)


@pytest.mark.parametrize("name", sorted(MONADS))
def test_mult_at_matches_mult_element(name):
    M = MONADS[name]()
    for n in range(3):
        X = carrier(n)
        mult = M.mult_at(X)
        for el2 in M.apply(M.apply(X)):
            assert mult(el2) == M.mult_element(X, el2), el2
