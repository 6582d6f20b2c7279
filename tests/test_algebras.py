import pytest

from barrlab import (DomainMismatch, EMAlgebra, EMPTY, PowersetMonad, carrier,
                     check_em_algebra, free_algebra, tabulate, terminal_algebra)


def test_free_algebras_pass_em_laws(bundled_monads):
    for name, M in bundled_monads.items():
        for n in range(3):
            alg = free_algebra(M, carrier(n))
            report = check_em_algebra(M, alg)
            assert report.passed, (name, n, report.first_failure())


def test_terminal_algebra_passes(bundled_monads):
    for M in bundled_monads.values():
        assert check_em_algebra(M, terminal_algebra(M)).passed


def test_free_algebra_on_empty_set_sizes(bundled_monads):
    # the maybe monad and module monads collapse to a point; writer is empty
    assert len(free_algebra(bundled_monads["maybe"], EMPTY).carrier) == 1
    assert len(free_algebra(bundled_monads["writer-s3"], EMPTY).carrier) == 0
    assert len(free_algebra(bundled_monads["z2-semimodule"], carrier(1)).carrier) == 2


def test_non_associative_powerset_table_fails():
    P = PowersetMonad()
    X = carrier(2)
    PX = P.apply(X)
    # unit law holds by construction; flattening a set of sets disagrees
    table = {(): 0, (0,): 0, (1,): 1, (0, 1): 0}
    alg = EMAlgebra(P, X, tabulate(PX, X, table))
    report = check_em_algebra(P, alg)
    assert not report.passed
    first = report.first_failure()
    assert first.law == "multiplication-law"

    # independent oracle: first violating element of P(P(X)) in canonical order
    PPX = P.apply(PX)
    s = lambda el: table[el]
    witness = None
    for el2 in PPX:
        via_union = s(P.mult_element(X, el2))
        via_image = s(P.map_element_fn(s, PX, X, el2))
        if via_union != via_image:
            witness = el2
            break
    assert witness is not None
    assert first.counterexample["element"] == witness


def test_oversized_multiplication_law_is_skipped(z4_monad):
    alg = free_algebra(z4_monad, carrier(1))   # carrier of size 4, MM(carrier) = 4^256
    report = check_em_algebra(z4_monad, alg)
    assert report.passed
    assert any(c.law == "multiplication-law" and c.status == "skipped"
               for c in report.checks)
    assert any(c.law == "unit-law" and c.status == "pass" for c in report.checks)


def test_structure_domain_is_validated(maybe):
    X = carrier(2)
    with pytest.raises(DomainMismatch):
        EMAlgebra(maybe, X, tabulate(X, X, {0: 0, 1: 1}))


def test_lifted_tables_comparable(maybe):
    a = free_algebra(maybe, carrier(1))
    b = free_algebra(maybe, carrier(1))
    assert a.same_table_as(b)
