"""The law checkers, which compare tables of positions, against pointwise
reference checkers that evaluate every law element by element: identical
JSON reports, or the same error, on the same inputs.  The monad laws, the
algebra laws, the axioms of a distributive law and the commuting-pair
square are compared, and an algebra's table against its tabulated
structure."""

import json
import random
from pathlib import Path

import pytest

from barrlab import (TERMINAL, EMAlgebra, FinFn, FinSet, InputError, carrier, check_commuting,
                     check_distlaw_em, check_em_algebra, check_monad_laws, free_algebra,
                     partner_for_product, tabulate, terminal_algebra)
from barrlab.compair import CommutingCandidate
from barrlab.errors import blowup_limit
from barrlab.finset import LazyTable, canonical_carriers, function_values
from barrlab.functors import arrow, cardinality
from barrlab.jsonio import load_candidate, load_distlaw_em, load_monad
from barrlab.lifting import (ComponentFamily, DistLawEM, SemimoduleFunctorLaw, lift_algebra,
                             naturality_failures, semiring_algebra)
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

        def associativity_failures():
            MMX = M.apply(MX)
            mult_mx = M.mult_at(MX)
            m_mult = M.arrow(mult_x, MMX, MX)
            for el3 in M.apply(MMX):
                if (outer := mult_x(mult_mx(el3))) != (inner := mult_x(m_mult(el3))):
                    yield {"carrier": X.name, "element": el3,
                           "outer-first": outer, "inner-first": inner}

        report.first("mult-associativity", X.name, associativity_failures(),
                     [("MMMX", M.tower(len(X), 3))])

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

            def mult_failures():
                mult_x, mult_y = mults[len(X)], mults[len(Y)]
                for fv in function_values(X, Y):
                    Mf = arrows[fv, len(Y)]
                    m_mf = M.arrow(Mf.__getitem__, MX, MY)
                    for el2 in M.apply(MX):
                        if (lhs := Mf[mult_x[el2]]) != (rhs := mult_y[m_mf(el2)]):
                            yield {"function": dict(enumerate(fv)), "element": el2,
                                   "lhs": lhs, "rhs": rhs}

            report.first("mult-naturality", pair, mult_failures(), [("MMX", M.tower(len(X), 2))])

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

    def mult_failures():
        MC = M.apply(C)
        structure = LazyTable(a.structure_at)
        mult_c = M.mult_at(C)
        m_structure = M.arrow(structure.__getitem__, MC, C)
        for el2 in M.apply(MC):
            if (via_mult := structure[mult_c(el2)]) != (via_map := structure[m_structure(el2)]):
                yield {"carrier": C.name, "element": el2, "via-mult": via_mult,
                       "via-map": via_map}

    report.first("multiplication-law", C.name, mult_failures(),
                 [(f"MM({C.name})", M.tower(len(C), 2))])
    return report


def pointwise_distlaw_em(law, max_size):
    """`check_distlaw_em` evaluated element by element: the multiplication
    axiom compares lambda_X . mu_{HX} with the lifted free algebra after
    M(lambda_X) at every element of M(M(H X)), the lifted structure read
    pointwise through one `LazyTable` per carrier."""
    M, H = law.M, law.H
    report = LawReport(f"distributive law {law.name}")
    carriers = canonical_carriers(max_size)
    for X in carriers:
        if not law.has_component(X):
            raise law.missing(X)

    for X in carriers:
        HX = H(X)
        MX = M.apply(X)
        h_unit_x = arrow(H, lambda x: M.unit_element(X, x))
        lam_x = law.lookup(X)
        report.first("unit-axiom", X.name, (
            {"carrier": X.name, "element": w, "lhs": lhs, "rhs": rhs}
            for w in HX
            if (lhs := lam_x(M.unit_element(HX, w))) != (rhs := h_unit_x(w))))

        def mult_failures():
            MHX = M.apply(HX)
            mult_hx = M.mult_at(HX)
            lifted = LazyTable(lift_algebra(law, free_algebra(M, X)).structure_at)
            m_lam_x = M.arrow(lam_x, MHX, H(MX))
            for big in M.apply(MHX):
                if (lhs := lam_x(mult_hx(big))) != (rhs := lifted[m_lam_x(big)]):
                    yield {"carrier": X.name, "element": big, "lhs": lhs, "rhs": rhs}

        def mult_sizes():
            yield f"MM(H {X.name})", M.tower(len(HX), 2)
            yield f"H(M {X.name})", cardinality(H, len(MX))

        report.first("mult-axiom", X.name, mult_failures(), mult_sizes(),
                     unless="" if law.has_component(MX) else
                     f"no component at the derived carrier {MX.name}")

    for X in carriers:
        for Y in carriers:
            report.first("naturality", f"{X.name}->{Y.name}", naturality_failures(
                law.source, law.target, X, Y, law.lookup(X), law.lookup(Y)),
                [(f"M(H {X.name})", M.tower(len(H(X)), 1))])
    return report


def pointwise_commuting(cand, law=None, max_size=2):
    """`check_commuting` with the algebra square evaluated element by
    element: sigma after the lifted free algebra on X, read pointwise,
    against mu_{TX} . M sigma at every element of M(H(M X))."""
    law = law or cand.law
    M, H = cand.M, law.H
    report = LawReport(f"commuting pair T={cand.T}, H={cand.H} over {M.name}")
    carriers = canonical_carriers(max_size)
    for X in carriers:
        MX = M.apply(X)
        TX = cand.T(X)
        HMX = H(MX)
        MTX = M.apply(TX)
        sigma = cand.sigma.component(X)
        report.first("cardinality", X.name, () if len(HMX) == len(MTX) else
                     [{"H(MX)": len(HMX), "M(TX)": len(MTX)}])
        report.first("bijection", X.name, () if sigma.is_bijection() else [{"carrier": X.name}])

        def square_failures():
            flat = lift_algebra(law, free_algebra(M, X)).structure_at
            mult_tx, m_sigma = M.mult_at(TX), M.arrow(sigma, HMX, MTX)
            for big in M.apply(HMX):
                if (lhs := sigma(flat(big))) != (rhs := mult_tx(m_sigma(big))):
                    yield {"carrier": X.name, "element": big, "lhs": lhs, "rhs": rhs}

        report.first("algebra-square", X.name, square_failures(),
                     [(f"M(H(M {X.name}))", M.tower(len(HMX), 1))])
    family = cand.sigma
    for X in carriers:
        for Y in carriers:
            report.first("naturality", f"{X.name}->{Y.name}", naturality_failures(
                family.source, family.target, X, Y, family.component(X), family.component(Y)))
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


def assert_distlaw_checks_agree(make_law, max_size):
    # Fresh laws on each side, so that neither reads the other's memos.
    got = outcome(check_distlaw_em, make_law(), max_size)
    assert got == outcome(pointwise_distlaw_em, make_law(), max_size)
    return got


def assert_commuting_checks_agree(make_candidate, max_size):
    # Fresh candidates on each side, so that neither reads the other's memos.
    got = outcome(check_commuting, make_candidate(), None, max_size)
    assert got == outcome(pointwise_commuting, make_candidate(), None, max_size)
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
            yield M, EMAlgebra(M, C, tabulate(MC, C, table))
        for n in (1, 2):
            free = free_algebra(M, FinSet(f"X{n}", range(n)))
            MC = M.apply(free.carrier)
            table = {el: free.structure_at(el) for el in MC}
            el = rng.choice(MC.elements)
            table[el] = rng.choice(free.carrier.elements)
            yield M, EMAlgebra(M, free.carrier, tabulate(MC, free.carrier, table))


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


# Builtin laws at the largest size whose multiplication axiom runs in a
# second or so pointwise: M(M(H X2)) has 2^16 elements for the one-letter
# Moore law over Z/2.  For four letters M(H(M X1)) has 2^32 elements, more
# than M(M(H X1)): the lifted free algebra is read pointwise there.
BUILTIN_LAWS = [
    ("moore:z2:1letter", 2), ("moore:bool:1letter", 2), ("moore:z3:1letter", 1),
    ("moore:z2:2letters", 1), ("moore:z2:4letters", 1), ("pointed:2:maybe", 2),
    ("gset-s3-conj", 1),
    ({"monad": "semimodule:z2", "family": {"name": "stream",
                                           "generators": {"elements": ["p"]}}}, 2),
    ({"monad": "semimodule:z2", "family": {"name": "moore", "alphabet": {"elements": ["a"]},
                                           "generators": {"elements": ["p", "q"]}}}, 1),
    ({"monad": "powerset", "family": "identity"}, 2),
]


@pytest.mark.parametrize("doc,max_size", BUILTIN_LAWS,
                         ids=[f"{d if isinstance(d, str) else d['monad'] + '-' + str(i)}-max{n}"
                              for i, (d, n) in enumerate(BUILTIN_LAWS)])
def test_builtin_laws_match_the_pointwise_checker(doc, max_size):
    report = json.loads(assert_distlaw_checks_agree(lambda: load_distlaw_em(doc), max_size))
    assert report["passed"]


# (1, 1) in M(H X1) for H X = z2 x X^{t}: the sum of the two elements of
# H X1, of support 2.
SUPPORT_TWO = (1, 1)


def moore_broken_at_support_two(shorthand="moore:z2:1letter"):
    """A Moore law over Z/2 with lambda_{X1} changed at one element of
    support 2, its output flipped; a formula law, tabulated through
    `lookup`."""
    base = load_distlaw_em(shorthand)
    X1 = carrier(1)

    def formula(X, el):
        out, succ = base.component_at(X, el)
        if X == X1 and el == SUPPORT_TWO:
            return (1 - out, succ)
        return (out, succ)

    return DistLawEM(base.H, base.M, formula, name="moore-broken-at-support-2")


def moore_with_broken_outputs():
    """The one-letter Moore law over Z/2 whose outputs, Z/2 as an algebra,
    send (1, 1), of support 2, to 0 rather than 1; a linear law, tabulated
    from its projections."""
    M = load_monad("semimodule:z2")
    k = semiring_algebra(M)
    out = EMAlgebra(M, k.carrier, lambda vec: 0 if vec == SUPPORT_TWO else k.structure_at(vec),
                    name="z2-broken-at-support-2")
    return SemimoduleFunctorLaw(M, out, FinSet("A", ("t",)))


@pytest.mark.parametrize("make_law", (moore_broken_at_support_two, moore_with_broken_outputs))
def test_a_law_broken_at_support_two_fails_the_mult_axiom_as_pointwise(make_law):
    # The lifted free algebra is read from its table at X1.
    report = json.loads(assert_distlaw_checks_agree(make_law, 2))
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    # Both checkers name the same element of M(M(H X1)): (1, 0) + (1, 1),
    # which M(lambda_X1) reads at (1, 1), where lambda_X1 is changed.
    assert (failed[0]["law"], failed[0]["instance"]) == ("mult-axiom", "X1")
    assert failed[0]["counterexample"] == {"carrier": "X1", "element": [0, 0, 1, 1],
                                           "lhs": [1, [[1]]], "rhs": [0, [[1]]]}


def test_a_law_broken_where_the_lifted_algebra_is_read_pointwise_fails_as_pointwise():
    # Four letters: at X1 the lifted free algebra is read where M(lambda_X1)
    # lands, not from a table of 2^32 entries.
    report = json.loads(assert_distlaw_checks_agree(
        lambda: moore_broken_at_support_two("moore:z2:4letters"), 1))
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert (failed[0]["law"], failed[0]["instance"]) == ("mult-axiom", "X1")


# ---------------------------------------------------------------------------
# The commuting-pair square


def _z2():
    return load_monad("semimodule:z2")


# The builtin biproduct partners: stream, one- and two-letter Moore and
# constant.  For two letters M(H(M X2)) has 2^32 elements: both skip it.
PARTNERS = {
    "stream": lambda: partner_for_product(FinSet("B", ("b0", "b1")), _z2()),
    "moore-1letter": lambda: partner_for_product(TERMINAL, _z2(), FinSet("A", ("a",))),
    "moore-2letters": lambda: partner_for_product(TERMINAL, _z2(), FinSet("A", ("a", "b"))),
    "constant": lambda: partner_for_product(FinSet("B", ("b",)), _z2(), FinSet("A0", ())),
}


@pytest.mark.parametrize("name", sorted(PARTNERS))
def test_builtin_partners_match_the_pointwise_square(name):
    report = json.loads(assert_commuting_checks_agree(PARTNERS[name], 2))
    assert report["passed"]


def test_a_19_letter_partner_reads_the_lifted_free_algebra_pointwise():
    # At X0, M(H(M X0)) has 4 elements, while the lifted table's builder
    # would tabulate H(M(M X0)), 2 * 2^19 of them: the square reads the
    # lifted structure at the 4 points instead.
    letters = FinSet("A", tuple(f"a{i}" for i in range(19)))
    report = json.loads(assert_commuting_checks_agree(
        lambda: partner_for_product(TERMINAL, _z2(), letters), 0))
    assert report["passed"]


def test_the_broken_sigma_golden_matches_the_pointwise_square():
    from test_golden import BROKEN_SIGMA

    report = json.loads(assert_commuting_checks_agree(lambda: load_candidate(BROKEN_SIGMA), 1))
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert (failed[0]["law"], failed[0]["instance"]) == ("algebra-square", "X1")


def moore_partner_with_one_entry_moved():
    """The one-letter Moore partner with the last entry of sigma at X1 sent
    to the next element of M(T X1): no longer a bijection, and the square
    fails where flattening reaches that entry."""
    cand = PARTNERS["moore-1letter"]()
    components = {X: cand.sigma.component(X) for X in canonical_carriers(2)}
    X1 = carrier(1)
    good = components[X1]
    positions = list(good.positions)
    positions[-1] = (positions[-1] + 1) % len(good.cod)
    components[X1] = FinFn(good.dom, good.cod, positions)
    sigma = ComponentFamily(cand.sigma.source, cand.sigma.target, components=components,
                            name="sigma")
    return CommutingCandidate(sigma, law=cand.law)


def test_a_mutated_sigma_entry_fails_the_square_as_pointwise():
    report = json.loads(assert_commuting_checks_agree(moore_partner_with_one_entry_moved, 2))
    failed = [(c["law"], c["instance"]) for c in report["checks"] if c["status"] == "fail"]
    assert ("bijection", "X1") in failed and ("algebra-square", "X1") in failed


# ---------------------------------------------------------------------------
# An algebra's one table


@pytest.mark.parametrize("shorthand", ("semimodule:z2", "semimodule:z3", "powerset", "maybe",
                                       "writer:s3"))
def test_algebra_tables_match_their_tabulated_structure(shorthand):
    # A free algebra's table is the monad's mult table, and a FinFn
    # structure's is its positions: both equal the structure tabulated
    # element by element, and structure() gives the FinFn back.
    rng = random.Random(7)
    M = load_monad(shorthand)
    for n in (0, 1, 2):
        free = free_algebra(M, carrier(n))
        MC = M.apply(free.carrier)
        assert list(free.table()) == list(tabulate(MC, free.carrier, free.structure_at).positions)
        C = FinSet("C", range(n + 1))
        given = tabulate(M.apply(C), C, {el: rng.randrange(n + 1) for el in M.apply(C)})
        algebra = EMAlgebra(M, C, given)
        assert algebra.structure() == given
        assert list(algebra.table()) == list(EMAlgebra(M, C, given.__call__).table())
