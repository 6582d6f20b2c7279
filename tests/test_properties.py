"""Randomised properties, driven by hypothesis with a deterministic profile."""

import hypothesis.strategies as st
from hypothesis import given, settings

from barrlab import (FinSet, MooreAutomaton, PowersetMonad, TruncatedSeries,
                     all_functions, behavior, boolean_semiring, carrier,
                     eval_functor, moore_functor, series_distance, words_below)
from barrlab.functors import arrow
from barrlab.jsonio import word_parser
from test_series import run_word

settings.register_profile("repro", derandomize=True, max_examples=60,
                          deadline=None)
settings.load_profile("repro")

BOOL = boolean_semiring()


def z2_series(bound=5):
    coeffs = st.lists(st.integers(0, 1), min_size=bound, max_size=bound)
    return coeffs.map(lambda cs: TruncatedSeries(("t",), bound, cs))


@given(z2_series(), z2_series(), z2_series())
def test_series_ultrametric_strong_triangle(f, g, h):
    e = lambda a, b: series_distance(a, b).exponent_lower_bound()
    assert e(f, h) >= min(e(f, g), e(g, h))


@given(z2_series(), z2_series())
def test_series_distance_symmetric(f, g):
    assert series_distance(f, g).to_json() == series_distance(g, f).to_json()


@given(z2_series())
def test_series_distance_identity_up_to_probe(f):
    d = series_distance(f, f)
    assert not d.resolved and d.probe == f.bound


@given(z2_series(), z2_series())
def test_linear_combination_nonexpansive(f, g):
    zero = TruncatedSeries.constant(("t",), f.bound, 0)
    combined = TruncatedSeries.from_fn(("t",), f.bound,
                                       lambda w: (f.coefficient(w) + g.coefficient(w)) % 2)
    e = lambda a: series_distance(a, zero).exponent_lower_bound()
    assert e(combined) >= min(e(f), e(g))


@st.composite
def bool_automata(draw):
    n = draw(st.integers(1, 4))
    letters = ("a", "b")[: draw(st.integers(1, 2))]
    states = FinSet("S", [f"s{i}" for i in range(n)])
    output = {s: draw(st.integers(0, 1)) for s in states}
    step = {(s, a): f"s{draw(st.integers(0, n - 1))}"
            for s in states for a in letters}
    return MooreAutomaton(states, letters, BOOL.as_finset(), output, step)


@given(bool_automata(), st.integers(0, 4))
def test_behavior_matches_simulation(aut, depth):
    for s in aut.states:
        beh = behavior(aut, s, depth)
        for w in words_below(aut.alphabet, depth):
            assert beh.coefficient(w) == aut.output[run_word(aut, s, w)]


@given(bool_automata())
def test_behavior_truncations_cohere(aut):
    s = aut.states.elements[0]
    for n in range(4):
        assert behavior(aut, s, n + 1).truncate(n) == behavior(aut, s, n)


@st.composite
def small_function_pairs(draw):
    sizes = [draw(st.integers(1, 3)) for _ in range(3)]
    X, Y, Z = (carrier(n) for n in sizes)
    f = draw(st.sampled_from(list(all_functions(X, Y))))
    g = draw(st.sampled_from(list(all_functions(Y, Z))))
    return f, g


@given(small_function_pairs())
def test_moore_functor_preserves_composition(pair):
    f, g = pair
    H = moore_functor(FinSet("k", (0, 1)), FinSet("A", ("a",)))
    h_fg, h_f, h_g = arrow(H, f.then(g)), arrow(H, f), arrow(H, g)
    assert all(h_fg(el) == h_g(h_f(el)) for el in eval_functor(H, f.dom))


@given(st.lists(st.sampled_from("ab"), max_size=6))
def test_word_string_roundtrip(letters):
    # A word's key joins its letters' strings.
    w = tuple(letters)
    assert word_parser(("a", "b"))("".join(w)) == w


@given(st.lists(st.integers(0, 2), min_size=0, max_size=3, unique=True),
       st.sampled_from(list(all_functions(carrier(3), carrier(2)))))
def test_powerset_images_are_canonical(subset, f):
    P = PowersetMonad()
    X, Y = carrier(3), carrier(2)
    el = tuple(sorted(subset))
    image = P.map_element_fn(f, X, Y, el)
    assert list(image) == sorted(set(f(x) for x in el), key=Y.index)
