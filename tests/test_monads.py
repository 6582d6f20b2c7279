import pytest

from barrlab import (EMPTY, NonFinitePreserving, SemimoduleMonad, WriterMonad, carrier,
                     check_monad_laws, maybe_monad, zmod)
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
    z2 = SemimoduleMonad(zmod(2))
    assert len(z2.apply(EMPTY)) == 1             # the zero module
    assert len(z2.apply(carrier(3))) == 8
    from barrlab import symmetric_group
    writer = WriterMonad(symmetric_group(3))
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
    from barrlab import PowersetMonad

    P = PowersetMonad()
    assert P.apply(carrier(2)).elements == ((), (0,), (1,), (0, 1))
    f_img = P.map_element_fn(lambda x: 0, carrier(2), carrier(1), (0, 1))
    assert f_img == (0,)


def test_the_bit_decoder_writes_the_plain_numeral_at_every_width():
    # Up to 8 bits the decoder is one table lookup; above, it reads the
    # mask's binary numeral off in one pass.  Both must give the width-bit
    # numeral of the mask, first bit on top.
    import random

    from barrlab.monads import _bit_decoder

    rng = random.Random(0)
    for width in range(201):
        decode = _bit_decoder(width)
        for mask in {0, (1 << width) - 1, *(rng.getrandbits(width) for _ in range(5))}:
            assert decode(mask) == tuple((mask >> (width - 1 - i)) & 1 for i in range(width))


def test_orbit_representatives_are_one_map_per_orbit():
    # Brute force: each f: X_n -> X_m is named by the least tau.f.sigma over
    # S_n x S_m, and the representatives name every orbit exactly once.
    from itertools import permutations, product

    from barrlab.monads import _orbit_representatives

    def orbit(fv, n, m):
        return min(tuple(tau[fv[x]] for x in sigma)
                   for sigma in permutations(range(n)) for tau in permutations(range(m)))

    for n in range(5):
        for m in range(5):
            orbits = {orbit(fv, n, m) for fv in product(range(m), repeat=n)}
            named = sorted(orbit(fv, n, m) for fv in _orbit_representatives(n, m))
            assert named == sorted(orbits), (n, m)


def test_the_generators_generate_each_symmetric_group():
    from math import factorial

    from barrlab.monads import _generators

    for n in range(2, 7):
        group, frontier = set(), set(_generators(n))
        while frontier:
            group |= frontier
            frontier = {tuple(p[s[x]] for x in range(n))
                        for p in frontier for s in _generators(n)} - group
        assert len(group) == factorial(n)


def test_a_passing_map_composition_is_decided_on_the_orbit_pass(monkeypatch):
    # At --max-size 4 the orbit pass compares 7,566 pairs f, g; the full scan
    # alone would compare 133,799, so it never ran.
    import barrlab.monads as monads

    pairs = []
    differences = monads._composition_differences

    def spy(fv, into_y, gvs, into_z):
        gvs = list(gvs)
        pairs.append(len(gvs))
        return differences(fv, into_y, gvs, into_z)

    monkeypatch.setattr(monads, "_composition_differences", spy)
    report = check_monad_laws(maybe_monad(), 4)
    assert report.passed
    assert sum(c.law == "map-composition" for c in report.checks) == 5 ** 3
    assert sum(pairs) == 7566
