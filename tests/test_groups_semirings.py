import itertools

import pytest

from barrlab import (BlowUpGuard, NotAGroup, check_semiring, cyclic_group, minplus,
                     symmetric_group)
from barrlab.groups import FinMonoid, as_group
from barrlab.semiring import Semiring, boolean_semiring, naturals, zmod


def test_symmetric_group_s3():
    G = symmetric_group(3)
    assert len(G.elements) == 6
    assert G.unit == (0, 1, 2)
    # a transposition and a 3-cycle do not commute
    a, b = (1, 0, 2), (1, 2, 0)
    assert G.op(a, b) != G.op(b, a)
    assert all(G.op(g, G.inv(g)) == G.unit for g in G.elements)


def test_cyclic_group_is_abelian():
    G = cyclic_group(4)
    assert all(G.op(a, b) == G.op(b, a) for a in G.elements for b in G.elements)


def test_monoid_without_inverses_is_rejected():
    m = FinMonoid("min2", (0, 1), lambda a, b: min(a, b), 1)
    assert not m.is_group()
    with pytest.raises(NotAGroup):
        as_group(m)


def test_associativity_triples_are_guarded_before_the_table(monkeypatch):
    # |G|^3 triples are checked: cyclic_group(200) used to take seconds and
    # symmetric_group(5) over a second, with no guard.
    monkeypatch.setenv("BARRLAB_BLOWUP_GUARD", str(6 ** 3))
    assert len(cyclic_group(6).elements) == len(symmetric_group(3).elements) == 6
    with pytest.raises(BlowUpGuard, match=r"^enumeration of 343 elements .* checking Z7 "):
        cyclic_group(7)
    with pytest.raises(BlowUpGuard, match=r"^enumeration of \(4!\)\^3 elements .* checking S4 "):
        symmetric_group(4)

    def op(a, b):
        raise AssertionError("the table is built after the guard")

    with pytest.raises(BlowUpGuard, match="checking big for associativity"):
        FinMonoid("big", range(7), op, 0)


def test_a_large_symmetric_group_lists_no_permutation(monkeypatch):
    # The factorial is built only until its cube passes the guard, and no
    # permutation is listed: S(10^9) stops as soon as S5 does.
    def permutations(*args):
        raise AssertionError("a permutation is listed")

    monkeypatch.setattr(itertools, "permutations", permutations)
    for n in (5, 10**9):
        with pytest.raises(BlowUpGuard, match=rf"^enumeration of \({n}!\)\^3 elements"):
            symmetric_group(n)


def test_bad_monoid_table_rejected():
    with pytest.raises(ValueError):
        FinMonoid("bad", (0, 1), {(a, b): 0 for a in (0, 1) for b in (0, 1)}, 1)


@pytest.mark.parametrize("k", [boolean_semiring(), zmod(2), zmod(4), minplus(3)])
def test_finite_semirings_pass_laws(k):
    assert check_semiring(k).passed


def test_naturals_spot_checked():
    report = check_semiring(naturals())
    assert report.passed
    assert all(c.instance.startswith("sampled") for c in report.checks)


def test_broken_semiring_caught():
    # multiplication replaced by XOR: distributivity fails
    bad = Semiring("xor", lambda a, b: (a + b) % 2, lambda a, b: (a + b) % 2,
                   0, 1, elements=(0, 1))
    report = check_semiring(bad)
    assert not report.passed
    laws = {c.law for c in report.checks if c.status == "fail"}
    assert "left-distributive" in laws or "right-distributive" in laws


def test_minplus_saturates():
    k = minplus(3)
    assert k.mul(2, 2) == 3
    assert k.add(k.zero, 2) == 2
    assert k.mul(k.zero, 2) == k.zero
