"""The law checkers, which compare tables of positions, against pointwise
reference checkers that evaluate every law element by element: identical
JSON reports, or the same error, on the same inputs."""

import json
import random
from pathlib import Path

import pytest

from barrlab import (EMAlgebra, FinFn, FinSet, InputError, check_em_algebra,
                     check_monad_laws, free_algebra, terminal_algebra)
from barrlab.errors import blowup_limit
from barrlab.finset import LazyTable, canonical_carriers, function_values
from barrlab.jsonio import load_monad
from barrlab.monads import _skip_label
from barrlab.reports import LawReport

INPUTS = Path(__file__).parent / "golden" / "inputs"


def pointwise_monad_laws(M, max_size):
    """`check_monad_laws` evaluated element by element: M h and mu_X are
    memoised per element, and each law compares elements."""
    if max_size < 1:
        raise InputError("max_size must be >= 1")
    carriers = canonical_carriers(max_size)
    for X in carriers:
        if M.card(len(X)) > blowup_limit():
            raise AssertionError("the reference runs only where M X fits")
    report = LawReport(f"monad {M.name}")
    units = [tuple(M.unit_element(X, x) for x in X) for X in carriers]
    arrows = LazyTable(lambda key: LazyTable(
        M.arrow(key[0].__getitem__, carriers[len(key[0])], carriers[key[1]])))
    mults = LazyTable(lambda n: LazyTable(M.mult_at(carriers[n])))

    for X in carriers:
        MX = M.apply(X)
        mult_x = mults[len(X)].__getitem__
        id_x = arrows[X.elements, len(X)]
        report.first("map-identity", X.name, (
            {"carrier": X.name, "element": el, "got": got}
            for el in MX if (got := id_x[el]) != el))
        report.first("left-unit", X.name, (
            {"carrier": X.name, "element": el, "got": got}
            for el in MX if (got := mult_x(M.unit_element(MX, el))) != el))
        m_unit = M.arrow(units[len(X)].__getitem__, X, MX)
        report.first("right-unit", X.name, (
            {"carrier": X.name, "element": el, "got": got}
            for el in MX if (got := mult_x(m_unit(el))) != el))
        if M.tower_fits(len(X), 3):
            MMX = M.apply(MX)
            mult_mx = M.mult_at(MX)
            m_mult = M.arrow(mult_x, MMX, MX)
            report.first("mult-associativity", X.name, (
                {"carrier": X.name, "element": el3,
                 "outer-first": outer, "inner-first": inner}
                for el3 in M.apply(MMX)
                if (outer := mult_x(mult_mx(el3))) != (inner := mult_x(m_mult(el3)))))
        else:
            report.skip("mult-associativity", X.name, _skip_label(M, len(X), 3))

    for X in carriers:
        for Y in carriers:
            pair = f"{X.name}->{Y.name}"
            MX, MY = M.apply(X), M.apply(Y)

            def unit_failures():
                unit_x, unit_y = units[len(X)], units[len(Y)]
                for fv in function_values(X, Y):
                    Mf = arrows[fv, len(Y)]
                    for x in X:
                        if (lhs := Mf[unit_x[x]]) != (rhs := unit_y[fv[x]]):
                            yield {"function": dict(enumerate(fv)), "element": x,
                                   "lhs": lhs, "rhs": rhs}

            report.first("unit-naturality", pair, unit_failures())

            if M.tower_fits(len(X), 2):
                MMX = M.apply(MX)

                def mult_failures():
                    mult_x, mult_y = mults[len(X)], mults[len(Y)]
                    for fv in function_values(X, Y):
                        Mf = arrows[fv, len(Y)]
                        m_mf = M.arrow(Mf.__getitem__, MX, MY)
                        for el2 in MMX:
                            if (lhs := Mf[mult_x[el2]]) != (rhs := mult_y[m_mf(el2)]):
                                yield {"function": dict(enumerate(fv)), "element": el2,
                                       "lhs": lhs, "rhs": rhs}

                report.first("mult-naturality", pair, mult_failures())
            else:
                report.skip("mult-naturality", pair, _skip_label(M, len(X), 2))

            for Z in carriers:
                def composition_failures():
                    for fv in function_values(X, Y):
                        Mf = arrows[fv, len(Y)]
                        for gv in function_values(Y, Z):
                            Mg = arrows[gv, len(Z)]
                            Mgf = arrows[tuple(map(gv.__getitem__, fv)), len(Z)]
                            for el in MX:
                                if (lhs := Mgf[el]) != (rhs := Mg[Mf[el]]):
                                    yield {"f": dict(enumerate(fv)),
                                           "g": dict(enumerate(gv)),
                                           "element": el, "lhs": lhs, "rhs": rhs}

                report.first("map-composition", f"{X.name}->{Y.name}->{Z.name}",
                             composition_failures())
    return report


def pointwise_em_algebra(M, a):
    """`check_em_algebra` evaluated element by element over M(M carrier)."""
    C = a.carrier
    report = LawReport(f"algebra {a.name} over {M.name}")
    report.first("unit-law", C.name, (
        {"carrier": C.name, "element": x, "got": got}
        for x in C if (got := a.structure_at(M.unit_element(C, x))) != x))
    if M.tower_fits(len(C), 2):
        MC = M.apply(C)
        structure = LazyTable(a.structure_at)
        mult_c = M.mult_at(C)
        m_structure = M.arrow(structure.__getitem__, MC, C)
        report.first("multiplication-law", C.name, (
            {"carrier": C.name, "element": el2, "via-mult": via_mult, "via-map": via_map}
            for el2 in M.apply(MC)
            if (via_mult := structure[mult_c(el2)]) != (via_map := structure[m_structure(el2)])))
    else:
        report.skip("multiplication-law", C.name,
                    f"|MM({C.name})| = {M.tower_card_display(len(C), 2)} exceeds guard")
    return report


def outcome(check, *args):
    """The JSON report of a check, or the error it raised."""
    try:
        return json.dumps(check(*args).to_json(), default=str)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_monad_checks_agree(make_monad, max_size):
    # Fresh monads on each side, so that neither reads the other's memos.
    got = outcome(check_monad_laws, make_monad(), max_size)
    assert got == outcome(pointwise_monad_laws, make_monad(), max_size)
    return got


def assert_algebra_checks_agree(M, algebra):
    got = outcome(check_em_algebra, M, algebra)
    assert got == outcome(pointwise_em_algebra, M, algebra)
    return got


# Every builtin monad: the law-checks benchmark requests, the golden sizes,
# and Z/3, which takes the digit tables rather than the bit kernel.
BUILTIN_CASES = [
    ("maybe", 4), ("maybe", 2), ("semimodule:z2", 3), ("powerset", 3),
    ("semimodule:z3", 2), ("semimodule:bool", 3), ("semimodule:z4", 2),
    ("exception:2", 3), ("writer:z3", 3), ("writer:s3", 2),
    ("semimodule:minplus2", 2),
]


@pytest.mark.parametrize("shorthand,max_size", BUILTIN_CASES,
                         ids=[f"{m}-max{n}" for m, n in BUILTIN_CASES])
def test_builtin_monads_match_the_pointwise_checker(shorthand, max_size):
    report = json.loads(assert_monad_checks_agree(lambda: load_monad(shorthand), max_size))
    assert report["passed"]


BROKEN_TABLES = sorted(INPUTS.glob("maybe-tables-broken-*.json"))


@pytest.mark.parametrize("path", BROKEN_TABLES, ids=[p.stem for p in BROKEN_TABLES])
@pytest.mark.parametrize("max_size", (1, 2, 3))
def test_broken_table_monads_match_the_pointwise_checker(path, max_size):
    # A report with its counterexample, or the MissingComponent raised when
    # the run asks for an arrow table the document does not hold: the same
    # tables are asked for in the same order.
    doc = json.loads(path.read_text())
    assert_monad_checks_agree(lambda: load_monad(doc), max_size)


def random_algebras(seed):
    """Seeded algebras over z2, Bool, powerset and maybe: random structure
    maps on carriers of one to three points, and free algebras with one
    structure entry redirected."""
    rng = random.Random(seed)
    for shorthand in ("semimodule:z2", "semimodule:bool", "powerset", "maybe"):
        M = load_monad(shorthand)
        for size in (1, 2, 3):
            C = FinSet("C", range(size))
            MC = M.apply(C)
            table = {el: rng.randrange(size) for el in MC}
            if rng.random() < 0.5:
                # Keep the unit law, so that the multiplication law decides.
                table.update({M.unit_element(C, x): x for x in C})
            yield M, EMAlgebra(M, C, FinFn(MC, C, table))
        for n in (1, 2):
            free = free_algebra(M, FinSet(f"X{n}", range(n)))
            MC = M.apply(free.carrier)
            table = {el: free.structure_at(el) for el in MC}
            el = rng.choice(MC.elements)
            table[el] = rng.choice(free.carrier.elements)
            yield M, EMAlgebra(M, free.carrier, FinFn(MC, free.carrier, table))


@pytest.mark.parametrize("seed", range(10))
def test_random_algebras_match_the_pointwise_checker(seed):
    verdicts = [json.loads(assert_algebra_checks_agree(M, a))["passed"]
                for M, a in random_algebras(seed)]
    assert not all(verdicts)


@pytest.mark.parametrize("shorthand", ("semimodule:z2", "semimodule:bool", "powerset",
                                       "semimodule:z3", "maybe", "writer:s3"))
def test_free_and_terminal_algebras_match_the_pointwise_checker(shorthand):
    M = load_monad(shorthand)
    for n in (0, 1, 2):
        algebra = free_algebra(M, FinSet(f"X{n}", range(n)))
        assert json.loads(assert_algebra_checks_agree(M, algebra))["passed"]
    assert json.loads(assert_algebra_checks_agree(M, terminal_algebra(M)))["passed"]


def corrupt_last_entry(make):
    """`make` with the last entry of every table it builds moved: 0 to 1,
    anything else to 0."""
    def corrupted(*args):
        table = list(make(*args))
        table[-1] = int(table[-1] == 0)
        return table

    return corrupted


@pytest.mark.parametrize("shorthand", ("semimodule:z2", "powerset"))
def test_a_corrupted_bit_kernel_is_noticed(shorthand, monkeypatch):
    import barrlab.monads as monads

    monkeypatch.setattr(monads, "_double", corrupt_last_entry(monads._double))
    with pytest.raises(AssertionError):
        assert_monad_checks_agree(lambda: load_monad(shorthand), 2)


@pytest.mark.parametrize("shorthand", ("semimodule:z2", "powerset", "semimodule:z3"))
def test_a_corrupted_mult_table_is_noticed(shorthand, monkeypatch):
    M = load_monad(shorthand)
    monkeypatch.setattr(type(M), "mult_table", corrupt_last_entry(type(M).mult_table))
    with pytest.raises(AssertionError):
        assert_monad_checks_agree(lambda: load_monad(shorthand), 2)
    if shorthand != "semimodule:z3":  # over Z/3 the law is skipped on M X1
        with pytest.raises(AssertionError):
            assert_algebra_checks_agree(M, free_algebra(M, FinSet("X1", range(1))))


def test_a_corrupted_digit_table_is_noticed(monkeypatch):
    from barrlab.monads import SemimoduleMonad

    tables = SemimoduleMonad._index_tables.func

    def corrupted(self):
        sums, products, zero, one = tables(self)
        products = [list(row) for row in products]
        products[2][2] = 0  # 2 * 2 = 1 in Z/3
        return sums, products, zero, one

    monkeypatch.setattr(SemimoduleMonad, "_index_tables", property(corrupted))
    with pytest.raises(AssertionError):
        assert_monad_checks_agree(lambda: load_monad("semimodule:z3"), 2)


def test_kernel_monads_never_enumerate_the_towers(monkeypatch):
    # On a passing run the bit kernels build M X and M(M X) at most: not
    # M(M(M X)) and not M(M C) for the free algebra's carrier C.
    from barrlab.monads import FinMonad

    built = []
    materialise = FinMonad._materialise

    def spy(self, X):
        built.append(self.card(len(X)))
        return materialise(self, X)

    monkeypatch.setattr(FinMonad, "_materialise", spy)
    for shorthand in ("semimodule:z2", "powerset"):
        built.clear()
        M = load_monad(shorthand)
        assert check_monad_laws(M, 3).passed
        # M(M X2) has 16 points; M(M X3) would have 256 and M(M(M X2)) 2^16.
        assert max(built) == 16
        built.clear()
        M = load_monad(shorthand)
        assert check_em_algebra(M, free_algebra(M, FinSet("X2", range(2)))).passed
        # M C has 16 points; M(M C) would have 2^16.
        assert max(built) == 16
