import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from barrlab import (BlowUpGuard, BoundMismatch, DomainMismatch, FinSet, InputError,
                     LevelAlgebras, MooreAutomaton, NotCauchy, Polynomial, TruncatedSeries, anamorphism,
                     behavior, boolean_semiring, build_terminal_chain,
                     cauchy_limit_series, decode_series, encode_series, naturals,
                     polynomial_embed, semimodule_moore_law, series_distance, words_below,
                     zmod)
from barrlab.chains import DyadicDist
from barrlab.series import first_difference_length, word_strings

BOOL = boolean_semiring()
NAT = naturals()


def random_bool_automaton(rng, n_states, alphabet):
    states = FinSet("S", [f"s{i}" for i in range(n_states)])
    output = {s: rng.randrange(2) for s in states}
    step = {(s, a): f"s{rng.randrange(n_states)}" for s in states for a in alphabet}
    return MooreAutomaton(states, alphabet, BOOL.as_finset(), output, step)


def run_word(aut, s, w):
    """The state reached from s by following a whole word letter by letter:
    the word-simulation oracle for `behavior`."""
    for a in w:
        s = aut.step[(s, a)]
    return s


def word_to_str(w):
    """The key of one word, its letters' strings joined: the reference for
    `word_strings`."""
    return "".join(map(str, w))


def test_words_below_is_length_lex():
    assert words_below(("a", "b"), 3) == [
        (), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]


@pytest.mark.parametrize("alphabet", [("a", "b"), ("t",), (0, 1, 2), ("ab", "b", ""), ()])
def test_word_strings_join_the_words_below(alphabet):
    # The reference joins each word's letters; the listing extends the
    # strings one length shorter.
    for bound in range(5):
        assert word_strings(alphabet, bound) == [
            word_to_str(w) for w in words_below(alphabet, bound)], bound


def test_word_strings_are_guarded_as_the_words_are():
    with pytest.raises(BlowUpGuard, match="listing the words"):
        word_strings(("a", "b"), 40)
    with pytest.raises(BlowUpGuard, match="listing the letters of the words"):
        word_strings(("a",), 10**6)


def test_words_below_guards_the_letters_of_the_listing(monkeypatch):
    # One letter below 10^6 is 10^6 words but about 5 * 10^11 letters: the
    # word count passed the guard, and the listing ran out of memory.
    with pytest.raises(BlowUpGuard, match=r"enumeration of 499999500000 elements .* "
                                          r"listing the letters of the words"):
        words_below(("a",), 10**6)
    # Under a guard of 10, one letter lists words of total length 10 below 5
    # and 15 below 6; two letters trip on their 31 words below 5 first.
    monkeypatch.setenv("BARRLAB_BLOWUP_GUARD", "10")
    assert sum(map(len, words_below(("a",), 5))) == 10
    with pytest.raises(BlowUpGuard, match="enumeration of 15 elements"):
        words_below(("a",), 6)
    with pytest.raises(BlowUpGuard, match="enumeration of 31 elements"):
        words_below(("a", "b"), 5)
    # Two letters below 3 are 7 words of total length 10.
    assert sum(map(len, words_below(("a", "b"), 3))) == 10
    assert words_below((), 5) == [()]


def test_series_requires_exact_word_domain():
    with pytest.raises(DomainMismatch):
        TruncatedSeries(("t",), 2, (1,))
    with pytest.raises(TypeError):
        TruncatedSeries(("t",), 2, {(): 1, ("t",): 0})


def test_constant_output_self_loop():
    states = FinSet("S", ("s",))
    aut = MooreAutomaton(states, ("a",), BOOL.as_finset(), {"s": 1},
                         {("s", "a"): "s"})
    assert behavior(aut, "s", 5) == TruncatedSeries.constant(("a",), 5, 1)


def test_behavior_frozen_example():
    # two states, a-transitions lead into the accepting sink
    states = FinSet("S", ("s0", "s1"))
    aut = MooreAutomaton(states, ("a",), BOOL.as_finset(),
                         {"s0": 0, "s1": 1},
                         {("s0", "a"): "s1", ("s1", "a"): "s1"})
    beh = behavior(aut, "s0", 4)
    assert [beh.coefficient(w) for w in words_below(("a",), 4)] == [0, 1, 1, 1]


def test_behavior_matches_word_simulation_oracle():
    rng = random.Random(17)
    for _ in range(8):
        alphabet = ("a", "b")[: rng.randrange(1, 3)]
        aut = random_bool_automaton(rng, rng.randrange(1, 5), alphabet)
        s = rng.choice(aut.states.elements)
        beh = behavior(aut, s, 5)
        for w in words_below(alphabet, 5):
            assert beh.coefficient(w) == aut.output[run_word(aut, s, w)]


def test_behavior_agrees_with_chain_unfolding():
    rng = random.Random(29)
    for _ in range(5):
        aut = random_bool_automaton(rng, 3, ("a", "b"))
        chain = build_terminal_chain(aut.H, 4)
        C, xi = aut.as_coalgebra()
        for n, leg in enumerate(anamorphism(C, xi, 4, chain)):
            for s in aut.states:
                assert leg(s) == encode_series(behavior(aut, s, n))


class CountingDict(dict):
    """A dict that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_behavior_reads_one_transition_per_word_after_the_empty_one():
    # The words of length n are not in a series of bound n, so no transition
    # into them is read: two letters at depth 11 are 2,047 words and 2,046
    # lookups.
    rng = random.Random(19)
    for alphabet in (("a",), ("a", "b"), ("a", "b", "c")):
        aut = random_bool_automaton(rng, 3, alphabet)
        for n in range(1, 12 if len(alphabet) < 3 else 7):
            aut.step = CountingDict(aut.step)
            behavior(aut, "s0", n)
            assert aut.step.lookups == len(words_below(alphabet, n)) - 1


def test_behavior_truncations_are_compatible():
    rng = random.Random(31)
    aut = random_bool_automaton(rng, 4, ("a",))
    for s in aut.states:
        for n in range(8):
            assert behavior(aut, s, n + 1).truncate(n) == behavior(aut, s, n)


def test_quotient_homomorphism_preserves_behavior():
    # two bisimilar states collapse onto one; behaviors must coincide
    big_states = FinSet("S", ("p", "q", "sink"))
    big = MooreAutomaton(big_states, ("a",), BOOL.as_finset(),
                         {"p": 0, "q": 0, "sink": 1},
                         {("p", "a"): "sink", ("q", "a"): "sink",
                          ("sink", "a"): "sink"})
    small_states = FinSet("T", ("pq", "sink"))
    small = MooreAutomaton(small_states, ("a",), BOOL.as_finset(),
                           {"pq": 0, "sink": 1},
                           {("pq", "a"): "sink", ("sink", "a"): "sink"})
    phi = {"p": "pq", "q": "pq", "sink": "sink"}
    # oracle: verify phi really is a machine homomorphism
    for s in big_states:
        assert big.output[s] == small.output[phi[s]]
        assert phi[big.step[(s, "a")]] == small.step[(phi[s], "a")]
    for s in big_states:
        for n in range(8):
            assert behavior(big, s, n) == behavior(small, phi[s], n)


def test_series_distance_basics():
    one = TruncatedSeries(("t",), 3, (1, 0, 0))
    one_t = TruncatedSeries(("t",), 3, (1, 1, 0))
    assert series_distance(one, one).to_json() == {"gt_probe": 3}
    d = series_distance(one, one_t)
    assert d.agree_depth == 1 and d.value().denominator == 2
    with pytest.raises(BoundMismatch):
        series_distance(one, one_t.truncate(2))


def test_series_distance_matches_chain_distance_shifted(z2_monad, one_letter):
    # degree-k information sits at chain level k+1
    from barrlab import build_initial_chain, colim_to_lim, distance, semimodule_moore_law

    law = semimodule_moore_law(z2_monad, one_letter)
    chain = build_terminal_chain(law.H, 8)
    ic = build_initial_chain(law, chain)
    rng = random.Random(13)
    for _ in range(15):
        f = TruncatedSeries.from_fn(("t",), 6, lambda w: rng.randrange(2))
        g = TruncatedSeries.from_fn(("t",), 6, lambda w: rng.randrange(2))
        ds = series_distance(f, g)
        dc = distance(colim_to_lim(ic, encode_series(f), 6),
                      colim_to_lim(ic, encode_series(g), 6), 6)
        if ds.resolved:
            assert dc.agree_depth == ds.agree_depth + 1
        else:
            assert not dc.resolved


def test_series_distance_strong_triangle():
    rng = random.Random(37)
    for _ in range(30):
        f, g, h = (TruncatedSeries.from_fn(("t",), 6, lambda w: rng.randrange(2))
                   for _ in range(3))
        e_fg = series_distance(f, g).exponent_lower_bound()
        e_gh = series_distance(g, h).exponent_lower_bound()
        e_fh = series_distance(f, h).exponent_lower_bound()
        assert e_fh >= min(e_fg, e_gh)


def test_linear_combinations_are_nonexpansive():
    # the order of a sum is at least the minimum order of the terms
    zero = TruncatedSeries.constant(("t",), 6, 0)
    rng = random.Random(41)
    for _ in range(20):
        f = TruncatedSeries.from_fn(("t",), 6, lambda w: rng.randrange(2))
        g = TruncatedSeries.from_fn(("t",), 6, lambda w: rng.randrange(2))
        s = TruncatedSeries.from_fn(("t",), 6,
                                    lambda w: (f.coefficient(w) + g.coefficient(w)) % 2)
        e_s = series_distance(s, zero).exponent_lower_bound()
        e_f = series_distance(f, zero).exponent_lower_bound()
        e_g = series_distance(g, zero).exponent_lower_bound()
        assert e_s >= min(e_f, e_g)


def test_encode_decode_roundtrip():
    rng = random.Random(43)
    for alphabet in (("t",), ("a", "b")):
        for bound in range(4):
            s = TruncatedSeries.from_fn(alphabet, bound, lambda w: rng.randrange(4))
            assert decode_series(encode_series(s), alphabet, bound) == s


def test_cauchy_constant_sequence_truncates():
    p = Polynomial(("t",), NAT, {(): 3, ("t",): 5})
    lim = cauchy_limit_series([p], 1, modulus=[0])
    assert lim.coefficient(()) == 3 and lim.bound == 1


def test_cauchy_partial_sums_stabilize():
    seq = [Polynomial(("t",), NAT, {("t",) * j: 1 for j in range(n)})
           for n in range(10)]
    lim = cauchy_limit_series(seq, 8, modulus=range(1, 9))
    assert all(lim.coefficient(w) == 1 for w in words_below(("t",), 8))


def test_cauchy_noise_above_the_modulus_is_tolerated():
    # coefficients of degree j settle at index j+1, higher ones keep churning
    rng = random.Random(47)
    depth, length = 6, 10
    final = {j: rng.randrange(5) for j in range(depth)}
    seq = []
    for n in range(length):
        terms = {}
        for j in range(depth + 2):
            if n >= j + 1:
                value = final.get(j, 7)
            else:
                value = rng.randrange(5, 9)  # unstabilised noise
            terms[("t",) * j] = value
        seq.append(Polynomial(("t",), NAT, terms))
    lim = cauchy_limit_series(seq, depth, modulus=range(1, depth + 1))
    # diagonal-extraction oracle: scan each coefficient stream from the end
    for j in range(depth):
        stream = [p.coefficient(("t",) * j) for p in seq]
        tail = stream[-1]
        start = length - 1
        while start > 0 and stream[start - 1] == tail:
            start -= 1
        assert start <= j + 1
        assert lim.coefficient(("t",) * j) == tail


def test_cauchy_violation_carries_witness():
    seq = [Polynomial(("t",), NAT, {(): 1}),
           Polynomial(("t",), NAT, {(): 2})]
    with pytest.raises(NotCauchy) as err:
        cauchy_limit_series(seq, 1, modulus=[0])
    assert err.value.witness == {"word_length": 0, "base_index": 0,
                                 "index": 1, "difference_at": 0}


def _all_pairs_cauchy_limit(seq, depth, modulus):
    """Reference: compare every term from each modulus index on with the
    term at that index."""
    if not seq:
        raise InputError("empty polynomial sequence")
    mod = (lambda r: r) if modulus is None else (lambda r: modulus[r])
    stable_at = []
    for r in range(depth):
        n_r = mod(r)
        if not 0 <= n_r < len(seq):
            raise InputError(
                f"modulus at word length {r} is {n_r}, outside the sequence "
                f"of length {len(seq)}")
        stable_at.append(n_r)
        for n in range(n_r, len(seq)):
            d = first_difference_length(seq[n], seq[n_r])
            if d is not None and d <= r:
                raise NotCauchy({"word_length": r, "base_index": n_r,
                                 "index": n, "difference_at": d},
                                f"coefficients of length <= {r} change between "
                                f"terms {n_r} and {n}")
    return TruncatedSeries.from_fn(
        seq[0].alphabet, depth, lambda w: seq[stable_at[len(w)]].coefficient(w))


def _outcome(limit, *args):
    try:
        return "limit", limit(*args)
    except NotCauchy as err:
        return "NotCauchy", err.witness, str(err)
    except InputError as err:
        return "InputError", str(err)


def test_cauchy_limit_series_matches_the_all_pairs_scan():
    # Each term changes the one before it at a few random words, so some
    # sequences settle in time for the modulus and others break it, some
    # two or more terms after the base.  Moduli include indices outside the
    # sequence and one-term sequences.
    rng = random.Random(2024)
    kinds = set()
    for alphabet in (("t",), ("a", "b")):
        for _ in range(1500):
            depth = rng.randrange(5)
            words = words_below(alphabet, depth + 1)
            terms = {w: rng.randrange(2) for w in words}
            seq = []
            for _n in range(rng.randrange(1, 6)):
                for _k in range(rng.randrange(3)):
                    w = rng.choice(words)
                    terms[w] = 1 - terms[w]
                seq.append(Polynomial(alphabet, NAT, terms))
            modulus = rng.choice([None, [rng.randrange(-1, len(seq) + 1) for _ in range(depth)],
                                  sorted(rng.randrange(len(seq)) for _ in range(depth))])
            expected = _outcome(_all_pairs_cauchy_limit, seq, depth, modulus)
            assert _outcome(cauchy_limit_series, seq, depth, modulus) == expected
            kinds.add((expected[0], len(seq) == 1,
                       expected[0] == "NotCauchy" and
                       expected[1]["index"] - expected[1]["base_index"] > 1))
    assert {kind for kind, _, _ in kinds} == {"limit", "NotCauchy", "InputError"}
    assert ("limit", True, False) in kinds and ("NotCauchy", False, True) in kinds


def test_first_difference_length():
    p = Polynomial(("t",), NAT, {(): 1, ("t",): 2})
    q = Polynomial(("t",), NAT, {(): 1})
    assert first_difference_length(p, q) == 1
    assert first_difference_length(p, p) is None


def test_module_structure_zero_and_sum(z2_monad, one_letter):
    # level 3 of the z2 Moore law's terminal sequence adds series
    # coefficientwise: the empty sum is zero, and 1 + (1 + t) is t.
    law = semimodule_moore_law(z2_monad, one_letter)
    chain = build_terminal_chain(law.H, 3)
    level, table = chain.level(3), LevelAlgebras(law, chain).table(3)
    M_level = z2_monad.apply(level)

    def combine(*terms):
        phi = tuple(sum(encode_series(s) == el for s in terms) % 2 for el in level)
        return decode_series(level.elements[table[M_level.index(phi)]], ("t",), 3)

    zero = TruncatedSeries.constant(("t",), 3, 0)
    one = TruncatedSeries(("t",), 3, (1, 0, 0))
    one_t = TruncatedSeries(("t",), 3, (1, 1, 0))
    just_t = TruncatedSeries(("t",), 3, (0, 1, 0))
    assert combine() == zero
    assert combine(one, one_t) == just_t


def test_polynomial_embed():
    zero = Polynomial(("t",), NAT, {})
    assert polynomial_embed(zero, 3).series == TruncatedSeries.constant(("t",), 3, 0)
    p = Polynomial(("t",), NAT, {(): 1, ("t",): 1})
    res = polynomial_embed(p, 1)
    assert res.series == TruncatedSeries(("t",), 1, (1,))
    assert res.discarded == (("t",),)


def test_polynomial_embed_roundtrips_with_density(z2_monad, one_letter):
    from barrlab import build_initial_chain, colim_to_lim, density_map, semimodule_moore_law

    law = semimodule_moore_law(z2_monad, one_letter)
    chain = build_terminal_chain(law.H, 9)
    ic = build_initial_chain(law, chain)
    rng = random.Random(53)
    k = zmod(2)
    for _ in range(5):
        s = TruncatedSeries.from_fn(("t",), 8, lambda w: rng.randrange(2))
        x = colim_to_lim(ic, encode_series(s), 8)
        for n in range(4):
            trunc_poly = Polynomial(("t",), k,
                                    {w: s.coefficient(w) for w in words_below(("t",), n)})
            embedded = polynomial_embed(trunc_poly, 8).series
            approx = decode_series(density_map(ic, x, n).rep(8), ("t",), 8)
            assert approx == embedded


# ---------------------------------------------------------------------------
# Reference: the word-keyed series, with behavior, series_distance,
# truncation, derivatives and the chain encoding computed word by word.


class WordKeyedSeries:
    """Coefficients kept in a dict from words to values."""

    def __init__(self, alphabet, bound, coeffs):
        self.alphabet, self.bound = tuple(alphabet), bound
        self.coeffs = dict(coeffs)
        if set(self.coeffs) != set(words_below(self.alphabet, bound)):
            raise DomainMismatch(f"series of bound {bound} must assign exactly the words of "
                                 f"length < {bound}")

    def coefficient(self, w):
        try:
            return self.coeffs[tuple(w)]
        except KeyError:
            raise DomainMismatch(f"word {w!r} not below bound {self.bound}") from None

    def truncate(self, m):
        if m > self.bound:
            raise BoundMismatch(f"cannot extend bound {self.bound} to {m}")
        return WordKeyedSeries(self.alphabet, m,
                               {w: self.coeffs[w] for w in words_below(self.alphabet, m)})

    def derivative(self, letter):
        return WordKeyedSeries(self.alphabet, self.bound - 1,
                               {w: self.coeffs[(letter,) + w]
                                for w in words_below(self.alphabet, self.bound - 1)})

    def positions(self):
        return tuple(self.coeffs[w] for w in words_below(self.alphabet, self.bound))


def reference_behavior(aut, s, n):
    coeffs, frontier = {}, {(): s}
    for _length in range(n):
        next_frontier = {}
        for w, st in frontier.items():
            coeffs[w] = aut.output[st]
            for a in aut.alphabet:
                next_frontier[w + (a,)] = aut.step[(st, a)]
        frontier = next_frontier
    return WordKeyedSeries(aut.alphabet, n, coeffs)


def reference_distance(f, g):
    for w in words_below(f.alphabet, f.bound):
        if f.coefficient(w) != g.coefficient(w):
            return DyadicDist(len(w), f.bound, len(w))
    return DyadicDist(None, f.bound, f.bound)


def reference_encode(s):
    if s.bound == 0:
        return "*"
    return (s.coefficient(()), tuple(reference_encode(s.derivative(a)) for a in s.alphabet))


def reference_decode(el, alphabet, bound):
    coeffs = {}

    def walk(node, prefix, remaining):
        if remaining:
            head, succ = node
            coeffs[prefix] = head
            for a, sub in zip(alphabet, succ):
                walk(sub, prefix + (a,), remaining - 1)

    walk(el, (), bound)
    return WordKeyedSeries(alphabet, bound, coeffs)


DIFFERENTIAL = settings(derandomize=True, max_examples=150, deadline=None)
# Up to three letters, some of them longer than one character.
ALPHABETS = st.lists(st.sampled_from(["a", "b", "ab", "ba", "aab"]), max_size=3, unique=True)


@st.composite
def series_pairs(draw):
    """A series of bound 0..6 as a word-keyed reference and as positions."""
    alphabet = draw(ALPHABETS)
    bound = draw(st.integers(0, 6))
    words = words_below(alphabet, bound)
    values = draw(st.lists(st.integers(0, 2), min_size=len(words), max_size=len(words)))
    ref = WordKeyedSeries(alphabet, bound, zip(words, values))
    return ref, TruncatedSeries(alphabet, bound, values)


def _coefficient_or_error(s, w):
    try:
        return s.coefficient(w)
    except DomainMismatch as err:
        return str(err)


def _same(ref, s):
    return (s.alphabet, s.bound, s.coeffs) == (ref.alphabet, ref.bound, ref.positions())


@DIFFERENTIAL
@given(series_pairs(), st.data())
def test_coefficient_and_truncate_match_the_word_keyed_series(pair, data):
    ref, s = pair
    for w in words_below(s.alphabet, s.bound + 1) + [("x",)]:
        assert _coefficient_or_error(s, w) == _coefficient_or_error(ref, w)
    m = data.draw(st.integers(0, s.bound))
    assert _same(ref.truncate(m), s.truncate(m))
    with pytest.raises(BoundMismatch):
        s.truncate(s.bound + 1)


@DIFFERENTIAL
@given(series_pairs(), st.data())
def test_series_distance_matches_the_word_keyed_series(pair, data):
    ref, s = pair
    # The second series changes a few coefficients of the first, or none.
    changed = list(s.coeffs)
    for i in data.draw(st.lists(st.integers(0, max(len(changed) - 1, 0)), max_size=3)):
        if changed:
            changed[i] = (changed[i] + 1) % 3
    t = TruncatedSeries(s.alphabet, s.bound, changed)
    ref_t = WordKeyedSeries(s.alphabet, s.bound, zip(words_below(s.alphabet, s.bound), changed))
    assert series_distance(s, t) == reference_distance(ref, ref_t)


@DIFFERENTIAL
@given(series_pairs())
def test_encode_and_decode_match_the_word_keyed_series(pair):
    ref, s = pair
    el = encode_series(s)
    assert el == reference_encode(ref)
    assert _same(reference_decode(el, s.alphabet, s.bound), decode_series(el, s.alphabet, s.bound))


@DIFFERENTIAL
@given(ALPHABETS, st.integers(1, 4), st.integers(0, 6), st.randoms(use_true_random=False))
def test_behavior_matches_the_word_keyed_series(alphabet, n_states, n, rng):
    aut = random_bool_automaton(rng, n_states, alphabet)
    for s in aut.states:
        assert _same(reference_behavior(aut, s, n), behavior(aut, s, n))
