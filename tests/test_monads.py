import pytest

from barrlab import (EMPTY, NonFinitePreserving, carrier, check_monad_laws,
                     maybe_monad, semimodule_monad, writer_monad, zmod)
from barrlab.monads import ExceptionMonad, FinSet


@pytest.mark.parametrize("name", ["maybe", "exception2", "writer-s3",
                                  "powerset", "z2-semimodule", "z4-semimodule"])
def test_bundled_monads_pass_laws(bundled_monads, name):
    report = check_monad_laws(bundled_monads[name], 2)
    assert report.passed, report.first_failure()


def test_oversized_instances_are_skipped_not_failed(z2_monad):
    report = check_monad_laws(z2_monad, 3)
    assert report.passed
    skipped = {(c.law, c.instance) for c in report.skipped()}
    # associativity over M(M(M X3)) = 2^256 elements cannot be enumerated
    assert ("mult-associativity", "X3") in skipped
    # but at size 2 the tower fits and the check ran
    assert any(c.law == "mult-associativity" and c.instance == "X2"
               and c.status == "pass" for c in report.checks)


def test_reports_are_deterministic(maybe):
    a = check_monad_laws(maybe, 2).to_json()
    b = check_monad_laws(maybe, 2).to_json()
    assert a == b


class BrokenMaybe(ExceptionMonad):
    """Maybe with one multiplication entry redirected to the error value."""

    def __init__(self):
        super().__init__(FinSet("E", ("*",)), name="broken-maybe")

    def mult_element(self, X, el2):
        if el2 == (1, (1, 0)):
            return (0, "*")
        return super().mult_element(X, el2)


def test_broken_multiplication_is_caught_with_minimal_counterexample():
    report = check_monad_laws(BrokenMaybe(), 2)
    assert not report.passed
    first = report.first_failure()
    # the first violation in canonical order: left unit at X1 on just(0)
    assert first.law == "left-unit"
    assert first.instance == "X1"
    assert first.counterexample["element"] == (1, 0)
    # twice in a row: identical counterexample
    again = check_monad_laws(BrokenMaybe(), 2).first_failure()
    assert again.counterexample == first.counterexample


def test_guard_makes_unwieldy_monads_hard_errors(bundled_monads, monkeypatch):
    monkeypatch.setenv("BARRLAB_BLOWUP_GUARD", "5")
    with pytest.raises(NonFinitePreserving):
        check_monad_laws(bundled_monads["powerset"], 3)  # |P(X3)| = 8 > 5


def test_max_size_must_be_positive(maybe):
    with pytest.raises(ValueError):
        check_monad_laws(maybe, 0)


def test_monad_object_maps():
    maybe = maybe_monad()
    assert len(maybe.apply(EMPTY)) == 1          # the singleton zero object
    z2 = semimodule_monad(zmod(2))
    assert len(z2.apply(EMPTY)) == 1             # the zero module
    assert len(z2.apply(carrier(3))) == 8
    from barrlab import symmetric_group
    writer = writer_monad(symmetric_group(3))
    assert len(writer.apply(EMPTY)) == 0         # empty, no unit element exists


def test_materialized_tables_agree_with_pointwise(z2_monad):
    # M X is the one structure still materialised: memoised per carrier and
    # closed under the pointwise unit and multiplication.  mult_at against
    # mult_element is test_tables.test_mult_at_matches_mult_element.
    X = carrier(2)
    MX = z2_monad.apply(X)
    assert z2_monad.apply(carrier(2)) is MX
    assert all(z2_monad.unit_element(X, x) in MX for x in X)
    assert all(z2_monad.mult_element(X, el2) in MX for el2 in z2_monad.apply(MX))


def test_powerset_elements_are_length_lex():
    from barrlab import powerset_monad

    P = powerset_monad()
    assert P.apply(carrier(2)).elements == ((), (0,), (1,), (0, 1))
    f_img = P.map_element_fn(lambda x: 0, carrier(2), carrier(1), (0, 1))
    assert f_img == (0,)
