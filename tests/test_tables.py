"""Differential tests of the tabulated paths against the pointwise code they
replace: level-algebra structure tables, arrows and multiplications resolved
once, and M h, mu and mu . M h as tables of positions."""

import functools
import itertools
import json
import operator

import pytest

from barrlab import (BlowUpGuard, FinSet, LevelAlgebras, PowersetMonad, SemimoduleMonad,
                     WriterMonad, all_functions, build_terminal_chain, carrier,
                     cyclic_group, exception_monad, gset_distlaws, maybe_monad,
                     pointed_law, semimodule_moore_law, zmod)
from barrlab.functors import map_element
from barrlab.jsonio import load_semiring
from barrlab.monads import TableMonad, _subset_masks, _subset_ranks
from barrlab.semiring import boolean_semiring

LAWS = {
    "moore:z2:1letter": lambda: semimodule_moore_law(SemimoduleMonad(zmod(2)),
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


def read_table(levels, n):
    """Level n's structure read from its table: the value at each element
    of M(level n), in enumeration order."""
    level = levels.chain.level(n)
    return [level.elements[p] for p in levels.table(n)]


@pytest.mark.parametrize("name", sorted(LAWS))
def test_level_tables_match_pointwise(name):
    top = TOPS[name]
    law = LAWS[name]()
    chain = build_terminal_chain(law.H, top)
    levels = LevelAlgebras(law, chain)
    for n, (elements, values) in enumerate(expected_structures(name, top)):
        assert law.M.apply(chain.level(n)).elements == elements, n
        assert read_table(levels, n) == values, n
        # A second lookup reads the same table.
        assert levels.table(n) is levels.table(n)


@pytest.mark.parametrize("name", sorted(LAWS))
def test_levels_above_the_guard_have_no_table(name, monkeypatch):
    top = 3
    expected = expected_structures(name, top)
    law = LAWS[name]()
    # The guard admits the chain's top level but not M of it.
    guard = len(build_terminal_chain(law.H, top).level(top))
    monkeypatch.setenv("BARRLAB_BLOWUP_GUARD", str(guard))
    chain = build_terminal_chain(law.H, top)
    levels = LevelAlgebras(law, chain)
    for n, (elements, values) in enumerate(expected):
        size = len(elements)
        if size <= guard:
            assert read_table(levels, n) == values, n
        else:
            # Raised by building M(level n), before any level below.
            with pytest.raises(BlowUpGuard) as err:
                levels.table(n)
            assert err.value.size == size, n
    assert len(expected[top][0]) > guard


@pytest.mark.parametrize("guarded", (False, True))
def test_level_tables_after_m_fn_match_pointwise(guarded, monkeypatch):
    # The structure at M fn(u), for fn: X3 -> level n, read from level n's
    # table, against the definition evaluated on a law and chain that share
    # nothing with these.  A guard of 8 admits level 3 but not M(level 2) or
    # M(level 3): their tables raise.
    oracle = LAWS["moore:z2:1letter"]()
    alpha = pointwise_structures(oracle, build_terminal_chain(oracle.H, 3))
    law = LAWS["moore:z2:1letter"]()
    if guarded:
        monkeypatch.setenv("BARRLAB_BLOWUP_GUARD", "8")
    chain = build_terminal_chain(law.H, 3)
    levels = LevelAlgebras(law, chain)
    M, dom = law.M, carrier(3)
    raised = []
    for n in range(4):
        level = chain.level(n)
        try:
            table = levels.table(n)
        except BlowUpGuard:
            raised.append(n)
            continue
        fn = lambda x: level.elements[(3 * x + 1) % len(level)]
        pushed = [M.map_element_fn(fn, dom, level, u) for u in M.apply(dom)]
        want = [level.index(alpha(n, v)) for v in pushed]
        f = [level.index(fn(x)) for x in dom]
        assert [table[q] for q in M.arrow_table(f, dom, level)] == want, n
    assert raised == ([2, 3] if guarded else [])


def table_monad(real, max_size):
    """`real` as explicit tables: the elements of M X_n for n up to
    |M X_max_size|, the multiplication at the carriers of size <= max_size,
    and an arrow table for every function between carriers of size up to
    |M X_max_size| (M h for h: X -> M Y is one of them)."""
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
    for m in range(real.card(max_size) + 1):
        for n in range(real.card(max_size) + 1):
            for f in all_functions(carrier(m), carrier(n)):
                key = (m, n, tuple(f(i) for i in range(m)))
                maps[key] = {el: real.map_element_fn(f, f.dom, f.cod, el)
                             for el in real.apply(carrier(m))}
    return TableMonad(f"table[{real.name}]", sizes, maps)


MONADS = {
    "maybe": maybe_monad,
    "exception": lambda: exception_monad(2),
    "writer": lambda: WriterMonad(cyclic_group(3)),
    "powerset": PowersetMonad,
    "semimodule-bool": lambda: SemimoduleMonad(boolean_semiring()),
    "semimodule-z2": lambda: SemimoduleMonad(zmod(2)),
    "semimodule-z3": lambda: SemimoduleMonad(zmod(3)),
    "table": lambda: table_monad(PowersetMonad(), 2),
}


def table_semiring(add, mul, elements=(0, 1), name="k"):
    """A JSON table semiring on `elements` with the given operations."""
    def table(op):
        return {json.dumps(a): {json.dumps(b): op(a, b) for b in elements} for a in elements}

    return load_semiring({"name": name, "elements": list(elements), "add": table(add),
                          "mul": table(mul), "zero": elements[0], "one": elements[1]})


def off_at(op, pair, value):
    """op with one entry changed."""
    return lambda a, b: value if (a, b) == pair else op(a, b)


# Semirings whose free semimodule monad takes the bit kernel, with the
# operation that adds masks.  A table semiring is recognised by its tables,
# whatever its name.
BIT_SEMIRINGS = {
    "z2": (lambda: zmod(2), operator.xor),
    "bool": (boolean_semiring, operator.or_),
    "z2-table": (lambda: table_semiring(operator.xor, operator.and_, name="bool"),
                 operator.xor),
    "bool-table": (lambda: table_semiring(operator.or_, operator.and_, name="z2"),
                   operator.or_),
}
# Semirings that keep the general path: Z/3, tables on {0, 1} one entry away
# from XOR/OR and AND, and Boolean tables that hold JSON booleans as
# elements, as results, or as both (the outputs must keep those values).
# Those that pass the semiring laws take the tables of digits; the three
# tables one entry off are no semirings and are read element by element.
GENERAL_SEMIRINGS = {
    "z3": lambda: zmod(3),
    "add-one-entry-off": lambda: table_semiring(
        off_at(operator.xor, (0, 1), 0), operator.and_),
    "mul-one-entry-off": lambda: table_semiring(
        operator.xor, off_at(operator.and_, (1, 1), 0)),
    "or-one-entry-off": lambda: table_semiring(
        off_at(operator.or_, (1, 0), 0), operator.and_),
    "json-booleans": lambda: table_semiring(
        operator.or_, operator.and_, elements=(False, True)),
    "boolean-results": lambda: table_semiring(
        lambda a, b: bool(a | b), lambda a, b: bool(a & b)),
    "boolean-elements": lambda: table_semiring(
        lambda a, b: int(a | b), lambda a, b: int(a & b), elements=(False, True)),
}


def check_arrows_pointwise(M, max_size):
    """`arrow` and `arrow_table` against `map_element_fn` and `index` on all
    of M X, for every function X -> Y with |X|, |Y| <= max_size."""
    for m in range(max_size + 1):
        X = carrier(m)
        MX = M.apply(X)
        for n in range(max_size + 1):
            Y = carrier(n)
            MY = M.apply(Y)
            for f in all_functions(X, Y):
                arrow, table = M.arrow(f, X, Y), M.arrow_table(f.positions, X, Y)
                assert len(table) == len(MX)
                for p, el in enumerate(MX):
                    want = M.map_element_fn(f, X, Y, el)
                    assert arrow(el) == want, (dict(f.pairs()), el)
                    assert table[p] == MY.index(want), (dict(f.pairs()), el)


def check_mult_pointwise(M, max_size):
    """`mult_at` against `mult_element`, and `mult_table` against `mult_at`
    and `index`, on all of M(M X), for |X| <= max_size, wherever that tower
    fits under the guard."""
    for m in range(max_size + 1):
        X = carrier(m)
        mult = M.mult_at(X)
        if M.tower_fits(m, 2):
            MX, MMX = M.apply(X), M.apply(M.apply(X))
            table = M.mult_table(X)
            assert len(table) == len(MMX)
            for p, el2 in enumerate(MMX):
                want = M.mult_element(X, el2)
                assert mult(el2) == want, el2
                assert table[p] == MX.index(want), el2


def check_kleisli_pointwise(M, max_size):
    """`kleisli_table` against `mult_at`, `arrow` and `index` on all of M X,
    for every h: X -> M Y with |X|, |Y| <= max_size, given as positions."""
    for m in range(max_size + 1):
        X = carrier(m)
        MX = M.apply(X)
        for n in range(max_size + 1):
            Y = carrier(n)
            MY = M.apply(Y)
            mult = M.mult_at(Y)
            for h in itertools.product(range(len(MY)), repeat=m):
                m_h = M.arrow(lambda x: MY.elements[h[x]], X, MY)
                assert list(M.kleisli_table(h, X, Y)) == [
                    MY.index(mult(m_h(el))) for el in MX], h


def check_resolved_forms_pointwise(M, max_size):
    """`check_arrows_pointwise`, `check_mult_pointwise` and
    `check_kleisli_pointwise`, the last up to size 3: there are |M Y|^|X|
    maps h: X -> M Y."""
    check_arrows_pointwise(M, max_size)
    check_mult_pointwise(M, max_size)
    check_kleisli_pointwise(M, min(max_size, 3))


@pytest.mark.parametrize("name", sorted(MONADS))
def test_arrow_matches_map_element_fn(name):
    check_arrows_pointwise(MONADS[name](), 2)


@pytest.mark.parametrize("name", sorted(MONADS))
def test_mult_at_matches_mult_element(name):
    check_mult_pointwise(MONADS[name](), 2)


@pytest.mark.parametrize("name", sorted(MONADS))
def test_kleisli_table_matches_mult_at_and_arrow(name):
    check_kleisli_pointwise(MONADS[name](), 2)


def test_powerset_ranks_invert_the_masks():
    # Position p of P(X_n) is the subset with mask masks[p] (element i on
    # bit n-1-i), and ranks reads a mask back to its position.
    for n in range(9):
        masks, ranks = _subset_masks(n), _subset_ranks(n)
        assert sorted(masks) == list(range(2 ** n))
        assert [ranks[mask] for mask in masks] == list(range(2 ** n))
        assert masks == tuple(sum(1 << (n - 1 - i) for i in subset)
                              for subset in PowersetMonad().apply(carrier(n)))


@pytest.mark.parametrize("name", sorted(BIT_SEMIRINGS))
def test_bit_kernel_matches_pointwise(name):
    make, op = BIT_SEMIRINGS[name]
    M = SemimoduleMonad(make())
    assert M._op is op
    check_resolved_forms_pointwise(M, 4)


@pytest.mark.parametrize("name", sorted(GENERAL_SEMIRINGS))
def test_other_semirings_keep_the_general_path(name):
    M = SemimoduleMonad(GENERAL_SEMIRINGS[name]())
    assert M._op is None
    assert (M._index_tables is None) == name.endswith("one-entry-off")
    check_resolved_forms_pointwise(M, 2 if name == "z3" else 3)


def test_arrow_table_positions_stay_under_the_guard(monkeypatch):
    # Positions in M cod exist only while M cod fits under the guard, on the
    # bit path (Z/2) as on the general path (Z/3).
    monkeypatch.setenv("BARRLAB_BLOWUP_GUARD", "8")
    for k in (zmod(2), zmod(3)):
        M = SemimoduleMonad(k)
        assert len(M.arrow_table((0,), carrier(1), carrier(1))) == len(k.elements)
        with pytest.raises(BlowUpGuard):
            M.arrow_table((0,), carrier(1), carrier(4))


def test_bit_kernel_decodes_wide_masks():
    # Codomains of 9 to 17 points decode through more than one byte table.
    M = SemimoduleMonad(zmod(2))
    for size in (9, 16, 17):
        X, Y = carrier(3), carrier(size)
        fn = lambda x: (5 * x + 3) % size
        arrow = M.arrow(fn, X, Y)
        for el in itertools.product((0, 1), repeat=3):
            assert arrow(el) == M.map_element_fn(fn, X, Y, el), (size, el)
