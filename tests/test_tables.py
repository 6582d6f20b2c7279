"""Differential tests of the tabulated paths against the pointwise code they
replace: level-algebra structure tables, a law's components as tables of
positions, arrows and multiplications resolved once, and M h, mu and
mu . M h as tables of positions."""

import functools
import itertools
import json
import operator

import pytest

from barrlab import (BlowUpGuard, FinSet, LevelAlgebras, PowersetMonad, SemimoduleMonad,
                     WriterMonad, all_functions, build_terminal_chain, carrier,
                     cyclic_group, exception_monad, gset_distlaws, maybe_monad,
                     pointed_law, semimodule_moore_law, zmod)
from barrlab.errors import blowup_limit
from barrlab.finset import canonical_carriers
from barrlab.functors import map_element
from barrlab.jsonio import load_distlaw_em, load_semiring
from barrlab.lifting import SemimoduleFunctorLaw
from barrlab.monads import FinMonad, TableMonad, _subset_masks, _subset_ranks
from barrlab.semiring import boolean_semiring


def stream_law(k, generators):
    """The stream law C x X over semimodule:k, C the free algebra on
    `generators`."""
    return load_distlaw_em({"monad": f"semimodule:{k}", "family": {
        "name": "stream", "generators": {"elements": list(generators)}}})


def moore_on(k, generators):
    """The one-letter Moore law over semimodule:k whose outputs are the free
    algebra on `generators`."""
    return load_distlaw_em({"monad": f"semimodule:{k}", "family": {
        "name": "moore", "alphabet": {"elements": ["a"]},
        "generators": {"elements": list(generators)}}})


# The builtin linear laws, whose components are tabulated from M of H X's
# projections, and three laws tabulated through `lookup`.
LINEAR_LAWS = {
    "moore:z2:1letter": lambda: semimodule_moore_law(SemimoduleMonad(zmod(2)),
                                                     FinSet("A", ("t",))),
    **{name: functools.partial(load_distlaw_em, name)
       for name in ("moore:bool:1letter", "moore:z3:1letter", "moore:z2:2letters",
                    "moore:bool:2letters", "moore:z3:2letters")},
    "stream:z2:p": lambda: stream_law("z2", "p"),
    "stream:z3:p": lambda: stream_law("z3", "p"),
    "moore:z2:1letter:pq": lambda: moore_on("z2", "pq"),
}
LAWS = {
    **LINEAR_LAWS,
    "pointed:4:maybe": lambda: pointed_law(maybe_monad(), FinSet("k", range(4))),
    "gset-z2-conj": lambda: gset_distlaws(cyclic_group(2))[1],
}
# The top level whose M(level) fits under the default guard, for the laws
# the level tables are compared on.
TOPS = {"moore:z2:1letter": 4, "moore:bool:1letter": 4, "moore:z3:1letter": 2,
        "moore:z2:2letters": 2, "stream:z2:p": 4, "moore:z2:1letter:pq": 2,
        "pointed:4:maybe": 3, "gset-z2-conj": 3}


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


@pytest.mark.parametrize("name", sorted(TOPS))
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


@pytest.mark.parametrize("name", sorted(TOPS))
def test_levels_above_the_guard_have_no_table(name, monkeypatch):
    top = min(3, TOPS[name])
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


def test_the_top_level_table_does_not_build_m_of_its_level(monkeypatch):
    # Level 4's table has 2^16 entries, one per element of M(level 4), read
    # off the law's table at level 3: M(level 3) is built (2^8 elements),
    # to read level 3's structure, but M(level 4) is not.
    built = []
    materialise = FinMonad._materialise

    def spy(self, X):
        built.append(self.card(len(X)))
        return materialise(self, X)

    monkeypatch.setattr(FinMonad, "_materialise", spy)
    law = LAWS["moore:z2:1letter"]()
    levels = LevelAlgebras(law, build_terminal_chain(law.H, 4))
    assert len(levels.table(4)) == 2 ** 16
    assert max(built) == 2 ** 8


def test_a_level_above_the_guard_is_refused_by_its_cardinality():
    # M(level 5) has 2^32 elements: refused before any table is built, with
    # the message building it would give.
    law = LAWS["moore:z2:1letter"]()
    chain = build_terminal_chain(law.H, 5)
    levels = LevelAlgebras(law, chain)
    with pytest.raises(BlowUpGuard, match=r"^enumeration of 4294967296 elements exceeds "
                                          r"the guard \(\d+\) while building "
                                          r"semimodule\[z2\]\("):
        levels.table(5)
    assert levels._algebras[4] is None


def component_positions(law, X):
    """lambda_X by its definition: `component_at` on every element of
    M(H X), read as positions in H(M X)."""
    target = law.target.at(X)
    return [target.index(law.component_at(X, el)) for el in law.source.at(X)]


# Carriers whose M(H X) has more elements are left out, to keep the test
# quick: X3 for two letters over Z/2 and the Booleans (2^18 elements), X2
# and X3 for two letters over Z/3 (3^12 and 3^27).
LAMBDA_TABLE_LIMIT = 2 ** 16


@pytest.mark.parametrize("name", sorted(LINEAR_LAWS))
def test_linear_law_tables_match_component_at(name, monkeypatch):
    # The table is built without a component, from a law that shares
    # nothing with the reference.
    oracle, law = LINEAR_LAWS[name](), LINEAR_LAWS[name]()
    assert isinstance(law, SemimoduleFunctorLaw)

    def no_component(*args):
        raise AssertionError("component_at called")

    monkeypatch.setattr(law, "component_at", no_component)
    compared = 0
    for X in canonical_carriers(3):
        if law.M.card(len(law.H(X))) <= LAMBDA_TABLE_LIMIT:
            assert list(law.table(X)) == component_positions(oracle, X), X.name
            compared += 1
    assert compared >= 2


def test_a_linear_law_whose_outputs_have_no_table_reads_its_components(monkeypatch):
    # M C has 2^8 elements for the free algebra C on three generators: under
    # a guard of 100 the law tabulates lambda_X at X0 through lookup.
    monkeypatch.setenv("BARRLAB_BLOWUP_GUARD", "100")
    oracle, law = moore_on("z2", "pqr"), moore_on("z2", "pqr")
    X = carrier(0)
    assert list(law.table(X)) == component_positions(oracle, X)
    assert len(law._lookups[X]) == len(law.source.at(X))


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
    of M X, for every function X -> Y with |X|, |Y| <= max_size.  Here and
    below, every table of positions must be a tuple."""
    for m in range(max_size + 1):
        X = carrier(m)
        MX = M.apply(X)
        for n in range(max_size + 1):
            Y = carrier(n)
            MY = M.apply(Y)
            for f in all_functions(X, Y):
                arrow, table = M.arrow(f, X, Y), M.arrow_table(f.positions, X, Y)
                assert type(table) is tuple and len(table) == len(MX)
                for p, el in enumerate(MX):
                    want = M.map_element_fn(f, X, Y, el)
                    assert arrow(el) == want, (dict(f.pairs()), el)
                    assert table[p] == MY.index(want), (dict(f.pairs()), el)


def semimodule_mult(M, X, el2):
    """mu_X of the free semimodule monad over k at one element of M(M X):
    the sum of c * v over the vectors v of M X with coefficient c in el2,
    adding the nonzero products coordinate by coordinate in that order.
    The pointwise reference for `SemimoduleMonad.mult_at`."""
    k = M.k
    out = [k.zero] * len(X)
    for vec, c in zip(M.apply(X), el2):
        if c != k.zero:
            for i, v in enumerate(vec):
                if v != k.zero:
                    out[i] = k.add(out[i], k.mul(c, v))
    return tuple(out)


def check_mult_pointwise(M, max_size):
    """`mult_at` against `mult_element`, or against `semimodule_mult` for a
    free semimodule monad, whose `mult_element` is `mult_at`; and
    `mult_table` against `mult_at` and `index`; on all of M(M X), for
    |X| <= max_size, wherever that tower fits under the guard."""
    for m in range(max_size + 1):
        X = carrier(m)
        mult = M.mult_at(X)
        size = M.tower(m, 2)
        if size is not None and size <= blowup_limit():
            MX, MMX = M.apply(X), M.apply(M.apply(X))
            table = M.mult_table(X)
            assert type(table) is tuple and len(table) == len(MMX)
            for p, el2 in enumerate(MMX):
                want = (semimodule_mult(M, X, el2) if isinstance(M, SemimoduleMonad)
                        else M.mult_element(X, el2))
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
                table = M.kleisli_table(h, X, Y)
                assert type(table) is tuple, h
                assert table == tuple(MY.index(mult(m_h(el))) for el in MX), h


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


@pytest.mark.parametrize("name", ("semimodule-z2", "semimodule-z3", "semimodule-bool",
                                  "powerset"))
def test_position_tables_guard_their_domain(name, monkeypatch):
    # A table over M dom has an entry per element of M dom: M X4 has 16 or
    # more elements, above a guard of 8, while M X1 fits.  The builders
    # refuse before they allocate.
    monkeypatch.setenv("BARRLAB_BLOWUP_GUARD", "8")
    M, dom, cod = MONADS[name](), carrier(4), carrier(1)
    for build in (M.arrow_table, M.kleisli_table):
        with pytest.raises(BlowUpGuard, match=r"while positions over .*\(X4\)$") as err:
            build((0,) * 4, dom, cod)
        assert err.value.size == M.card(4)


def test_bit_kernel_decodes_wide_masks():
    # Codomains of 9 to 17 points decode through more than one byte table.
    M = SemimoduleMonad(zmod(2))
    for size in (9, 16, 17):
        X, Y = carrier(3), carrier(size)
        fn = lambda x: (5 * x + 3) % size
        arrow = M.arrow(fn, X, Y)
        for el in itertools.product((0, 1), repeat=3):
            assert arrow(el) == M.map_element_fn(fn, X, Y, el), (size, el)
