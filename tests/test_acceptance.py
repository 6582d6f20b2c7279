"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see them live).

The Z/2-coincidence clause of criterion 2 is asserted verbatim but marked
strict-xfail: with the two group laws built from multiplication and
conjugation exactly as specified, the components provably differ over every
nontrivial group, abelian or not (see the project notes).
"""

import random
import time
from contextlib import contextmanager

import pytest

from barrlab import (FinSet, MooreAutomaton, Polynomial, TERMINAL,
                     TruncatedSeries, behavior, boolean_semiring,
                     build_initial_chain, build_terminal_chain,
                     cauchy_limit_point, cauchy_limit_series,
                     check_commuting, check_cone_coincidence,
                     check_distlaw_em, check_distlaw_kl, check_em_algebra,
                     check_monad_laws, check_projection_morphisms,
                     colim_to_lim, carrier, density_map, distance,
                     free_algebra, gset_distlaws, kleisli_lift_poly,
                     lift_algebra, naturals,
                     partner_for_product, polynomial_embed, pointed_law,
                     semimodule_stream_law, semiring_algebra, series_distance,
                     cyclic_group, terminal_algebra,
                     words_below, zmod, eval_functor)
from barrlab.lifting import DistLawEM
from test_series import run_word


@contextmanager
def criterion(number, description):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    elapsed = time.monotonic() - started
    print(f"[acceptance] criterion {number} ({description}): "
          f"PASS in {elapsed:.1f}s")


def test_criterion_1_law_suites(bundled_monads):
    with criterion(1, "monad and algebra law suites, |X| <= 3"):
        started = time.monotonic()
        for name, M in bundled_monads.items():
            report = check_monad_laws(M, 3)
            assert report.passed, (name, report.first_failure())
            for n in range(4):
                em = check_em_algebra(M, free_algebra(M, carrier(n)))
                assert em.passed, (name, n, em.first_failure())
            em = check_em_algebra(M, terminal_algebra(M))
            assert em.passed, (name, em.first_failure())
        assert time.monotonic() - started < 60


def test_criterion_2_two_group_laws(s3):
    with criterion(2, "two distributive laws over S3, liftings differ"):
        law_mult, law_conj = gset_distlaws(s3)
        assert check_distlaw_em(law_mult, 2).passed
        assert check_distlaw_em(law_conj, 2).passed
        base = free_algebra(law_mult.M, carrier(1))
        lifted_mult = lift_algebra(law_mult, base)
        lifted_conj = lift_algebra(law_conj, base)
        # exact table inequality, no tolerance
        assert lifted_mult.structure() != lifted_conj.structure()


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as specified: with the multiplication rule (g, h) -> "
           "(g*h, g) and the conjugation rule (g, h) -> (g*h*g^-1, g), the "
           "components differ over Z/2 as well (conjugation collapses to the "
           "swap rule for abelian groups, which is not the multiplication "
           "rule); see the decisions ledger")
def test_criterion_2_z2_coincidence_clause():
    print("[acceptance] criterion 2 (Z/2 coincidence clause): FAIL "
          "(spec defect, see ledger)")
    law_mult, law_conj = gset_distlaws(cyclic_group(2))
    for n in range(3):
        assert law_mult.component(carrier(n)) == law_conj.component(carrier(n))
    base = free_algebra(law_mult.M, carrier(1))
    assert lift_algebra(law_mult, base).same_table_as(
        lift_algebra(law_conj, base))


@pytest.fixture(scope="module")
def times_setups(maybe, z2_monad, two_outputs):
    # the two named instances: 2 x X over maybe, Z/2 x X over Z/2-modules
    maybe_law = pointed_law(maybe, two_outputs)
    z2_law = semimodule_stream_law(z2_monad, semiring_algebra(z2_monad))
    return [
        (maybe_law, build_terminal_chain(maybe_law.H, 5)),
        (z2_law, build_terminal_chain(z2_law.H, 9)),
    ]


class _CorruptOneEntry(DistLawEM):
    """Flips the output coefficient of one component of a base law."""

    def __init__(self, base, at_carrier):
        self.base = base
        self.at = at_carrier
        super().__init__(base.H, base.M, None, name="corrupted")

    def component_at(self, X, el):
        head, rest = self.base.component_at(X, el)
        if X == self.at:
            return (1 - head, rest)
        return (head, rest)


def test_criterion_3_finite_depth_lemmas(times_setups):
    with criterion(3, "cone/projection checks at levels <= 3 plus mutation"):
        for law, chain in times_setups:
            assert check_cone_coincidence(law, chain, 3).passed
            assert check_projection_morphisms(law, chain, 3).passed
        for law, chain in times_setups:
            bad = _CorruptOneEntry(law, chain.level(1))
            detected = (not check_cone_coincidence(bad, chain, 3).passed
                        or not check_projection_morphisms(bad, chain, 3).passed)
            assert detected, f"mutation not detected for {law.name}"


def test_criterion_4_completion_at_depth_8(times_setups):
    with criterion(4, "sections, density and Cauchy limits at depth 8"):
        started = time.monotonic()
        law, chain = times_setups[1]  # Z/2 x X over Z/2-semimodules
        ic = build_initial_chain(law, chain)
        # (a) the projection retracts every section exactly
        for n in range(9):
            for x in chain.level(n):
                assert colim_to_lim(ic, x, n).rep(n) == x
        # (b) density approximants agree at their level and within 2^-n
        rng = random.Random(2024)
        top = chain.level(8)
        points = [colim_to_lim(ic, rng.choice(top.elements), 8)
                  for _ in range(100)]
        for x in points:
            for n in range(9):
                y = density_map(ic, x, n)
                assert y.rep(n) == x.rep(n)
                assert distance(x, y, 8).leq_pow(n)
        # (c) the density sequence converges back to the point
        for x in points:
            lim = cauchy_limit_point([density_map(ic, x, n) for n in range(9)], 8)
            assert all(lim.rep(n) == x.rep(n) for n in range(9))
        assert time.monotonic() - started < 30


def test_criterion_5_power_series_stabilization():
    with criterion(5, "stabilised limit of a Cauchy polynomial sequence"):
        rng = random.Random(99)
        nat = naturals()
        depth = 8
        final = [rng.randrange(10) for _ in range(depth)]
        settle = []
        for j in range(depth):
            settle.append(max(settle[-1] if settle else 0, j + rng.randrange(3)))
        length = settle[-1] + 3
        seq = []
        for n in range(length):
            terms = {}
            for j in range(depth):
                terms[("t",) * j] = final[j] if n >= settle[j] else 10 + rng.randrange(10)
            # permanently churning coefficients above the requested depth
            terms[("t",) * (depth + 1)] = rng.randrange(50)
            seq.append(Polynomial(("t",), nat, terms))
        modulus = [settle[r] for r in range(depth)]
        limit = cauchy_limit_series(seq, depth, modulus=modulus)

        # brute-force diagonal extraction: longest constant tail per degree
        for j in range(depth):
            stream = [p.coefficient(("t",) * j) for p in seq]
            tail_value = stream[-1]
            start = length - 1
            while start > 0 and stream[start - 1] == tail_value:
                start -= 1
            assert start <= modulus[j]
            assert limit.coefficient(("t",) * j) == tail_value == final[j]


def test_criterion_6_behavior_oracle():
    with criterion(6, "behaviour equals word-by-word simulation"):
        rng = random.Random(7)
        outputs = boolean_semiring().as_finset()
        for _ in range(20):
            n_states = rng.randrange(1, 5)
            alphabet = ("a", "b")[: rng.randrange(1, 3)]
            states = FinSet("S", [f"s{i}" for i in range(n_states)])
            aut = MooreAutomaton(
                states, alphabet, outputs,
                {s: rng.randrange(2) for s in states},
                {(s, a): f"s{rng.randrange(n_states)}"
                 for s in states for a in alphabet})
            start = rng.choice(states.elements)
            beh = behavior(aut, start, 6)
            for w in words_below(alphabet, 6):
                assert beh.coefficient(w) == aut.output[run_word(aut, start, w)]


def test_criterion_7_commuting_pair(z2_monad):
    with criterion(7, "words functor against its biproduct partner"):
        started = time.monotonic()
        A = FinSet("A", ("a",))
        kl = kleisli_lift_poly(A, z2_monad)
        report = check_distlaw_kl(kl, 2)
        assert report.passed, report.first_failure()
        cand = partner_for_product(TERMINAL, z2_monad, A)
        square = check_commuting(cand, max_size=2)
        assert square.passed, square.first_failure()
        for n in range(5):
            X = carrier(n)
            assert len(eval_functor(cand.H, z2_monad.apply(X))) == \
                len(z2_monad.apply(eval_functor(cand.T, X)))
        assert time.monotonic() - started < 60


def test_criterion_8_word_stages_are_dense(z2_monad, one_letter):
    with criterion(8, "free algebras on finite words are 2^-n dense"):
        from barrlab import semimodule_moore_law

        rng = random.Random(55)
        k = zmod(2)
        law = semimodule_moore_law(z2_monad, one_letter)
        chain = build_terminal_chain(law.H, 9)
        ic = build_initial_chain(law, chain)
        from barrlab.series import decode_series, encode_series

        for _ in range(50):
            s = TruncatedSeries.from_fn(("t",), 8, lambda w: rng.randrange(2))
            for n in range(9):
                stage_words = words_below(("t",), min(n, 8))
                poly = Polynomial(("t",), k,
                                  {w: s.coefficient(w) for w in stage_words})
                embedded = polynomial_embed(poly, 8).series
                assert series_distance(s, embedded).leq_pow(n)
        # cross-check one instance against the chain-side density map
        s = TruncatedSeries.from_fn(("t",), 8, lambda w: rng.randrange(2))
        x = colim_to_lim(ic, encode_series(s), 8)
        for n in range(8):
            via_chain = decode_series(density_map(ic, x, n).rep(8), ("t",), 8)
            poly = Polynomial(("t",), k,
                              {w: s.coefficient(w) for w in words_below(("t",), n)})
            assert via_chain == polynomial_embed(poly, 8).series
