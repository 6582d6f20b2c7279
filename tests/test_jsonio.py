import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from barrlab import (BlowUpGuard, InputError, NonFinitePreserving, carrier,
                     check_distlaw_em, check_monad_laws)
from barrlab.jsonio import (decode_element, dump_series, encode_element,
                            load_automaton, load_distlaw_em, load_distlaw_kl,
                            load_finset, load_functor, load_monad, load_monoid,
                            load_polynomial, load_semiring, load_sequence, load_series,
                            standard_alphabet, word_parser)
from barrlab.series import TruncatedSeries, word_strings, words_below


def test_element_codec_roundtrip():
    els = [0, "x", (0, 1), ((0, "a"), ("b",)), ()]
    for el in els:
        assert decode_element(encode_element(el)) == el


def test_load_finset_forms():
    assert len(load_finset("X3")) == 3
    assert load_finset(["a", "b"]).elements == ("a", "b")
    assert load_finset({"name": "S", "elements": [[0, 1], [1, 0]]}).elements == \
        ((0, 1), (1, 0))
    with pytest.raises(InputError):
        load_finset({"name": "S"})
    with pytest.raises(InputError):
        load_finset({"elements": [0, 0]})


def test_a_canonical_carrier_is_guarded_before_listing(monkeypatch):
    # X<n> used to list its n elements with no guard: X200000 loaded under a
    # guard of 1000, and X1000000000 would exhaust memory.  A component key
    # that is a size names the same carrier.
    monkeypatch.setenv("BARRLAB_BLOWUP_GUARD", "10")
    assert len(load_finset("X10")) == 10
    with pytest.raises(BlowUpGuard, match=r"^enumeration of 11 elements exceeds the guard "
                                          r"\(10\) while listing set: X11$"):
        load_finset("X11")
    with pytest.raises(BlowUpGuard, match="200000 elements"):
        load_finset("x200000")
    with pytest.raises(BlowUpGuard, match=r"while listing law.components.11: X11$"):
        load_distlaw_em({"monad": "maybe", "functor": "id", "components": {"11": {}}})


def test_load_monoid_shorthands():
    assert len(load_monoid("s3").elements) == 6
    assert load_monoid("z4").op(3, 2) == 1
    with pytest.raises(InputError):
        load_monoid("what")


def test_load_monoid_tables():
    doc = {"elements": [0, 1], "unit": 1,
           "op": {"0": {"0": 0, "1": 0}, "1": {"0": 0, "1": 1}}}
    m = load_monoid(doc)
    assert m.op(0, 1) == 0


def test_load_semiring_shorthands():
    assert load_semiring("bool").name == "bool"
    assert load_semiring("z4").mul(2, 3) == 2
    assert load_semiring("minplus:3").mul(2, 2) == 3
    assert not load_semiring("nat").finite


def test_load_monad_shorthands():
    assert load_monad("maybe").name == "maybe"
    assert load_monad("exception:3").card(0) == 3
    assert load_monad("writer:s3").card(2) == 12
    assert load_monad("powerset").card(3) == 8
    assert load_monad("semimodule:z2").card(3) == 8
    with pytest.raises(NonFinitePreserving):
        load_monad("list")
    with pytest.raises(NonFinitePreserving):
        load_monad("semimodule:nat")
    with pytest.raises(InputError):
        load_monad("mystery")
    # A builtin document names its monad exactly; it is not a shorthand.
    for name in ("Maybe", "writer:z2"):
        with pytest.raises(InputError, match="monad.builtin: unknown builtin monad"):
            load_monad({"builtin": name})


def test_table_monad_checks_laws():
    # round trip: dump the maybe monad into explicit tables on carriers of
    # size <= 4 (iterated applications land on sizes 2..4) and re-check it.
    # Carriers of equal size are identified with the canonical one by index.
    import itertools
    import json as _json

    from barrlab import all_functions, maybe_monad

    real = maybe_monad()
    tables, maps = {}, []
    for n in range(5):
        X = carrier(n)
        MX = real.apply(X)
        m = len(MX)
        mult = {}
        for tok in real.apply(carrier(m)):
            # the token denotes an element of M(M X) via index transport
            transported = real.map_element_fn(lambda i: MX.elements[i],
                                              carrier(m), MX, tok)
            mult[_json.dumps(encode_element(tok))] = \
                encode_element(real.mult_element(X, transported))
        tables[str(n)] = {
            "elements": [encode_element(e) for e in MX],
            "unit": [encode_element(real.unit_element(X, x)) for x in X],
            "mult": mult,
        }
    for m, n in itertools.product(range(5), repeat=2):
        for f in all_functions(carrier(m), carrier(n)):
            maps.append({
                "dom": m, "cod": n,
                "values": [f(i) for i in range(m)],
                "table": {_json.dumps(encode_element(el)):
                          encode_element(real.map_element_fn(f, f.dom, f.cod, el))
                          for el in real.apply(carrier(m))},
            })
    M = load_monad({"name": "maybe-tables", "tables": tables, "maps": maps})
    report = check_monad_laws(M, 1)
    assert report.passed, report.first_failure()


def test_load_functor():
    assert str(load_functor("id")) == "X"
    moore = load_functor("moore:z2:1letter")
    assert str(moore) == "(z2*(X^A))"
    # The outputs of k x X^A are k's carrier, so k must be finite.
    with pytest.raises(InputError, match="functor.semiring: the outputs need a finite "
                                         "semiring, got nat"):
        load_functor("moore:nat:1letter")
    assert standard_alphabet(1) == ("t",)
    assert standard_alphabet(3) == ("a", "b", "c")
    assert standard_alphabet(26)[-1] == "z"
    # Past z the alphabet used to stop at 26 letters without a word.
    with pytest.raises(InputError, match="^27 letters: the standard alphabet has at most 26"):
        standard_alphabet(27)
    doc = {"coprod": [{"const": {"elements": ["*"]}},
                      {"prod": [{"const": {"elements": ["a"]}}, "id"]}]}
    T = load_functor(doc)
    from barrlab import eval_functor

    assert len(eval_functor(T, carrier(2))) == 3
    with pytest.raises(InputError):
        load_functor({"mystery": 1})


def test_load_distlaw_shorthands():
    law = load_distlaw_em("gset-z2-conj")
    assert law.name.endswith("conj")
    law2 = load_distlaw_em("moore:z2:1letter")
    assert check_distlaw_em(law2, 1).passed
    law3 = load_distlaw_em("pointed:2:maybe")
    assert check_distlaw_em(law3, 1).passed
    with pytest.raises(InputError):
        load_distlaw_em("gset-z2-frobnicate")


def test_load_distlaw_documents():
    doc = {"monad": "semimodule:z2",
           "family": {"name": "moore", "alphabet": {"elements": ["a"]}}}
    law = load_distlaw_em(doc)
    assert check_distlaw_em(law, 1).passed
    kl = load_distlaw_kl({"monad": "maybe",
                          "family": {"name": "words",
                                     "alphabet": {"elements": ["a"]}}})
    from barrlab import check_distlaw_kl

    assert check_distlaw_kl(kl, 1).passed


def test_explicit_law_components_load_and_check(maybe):
    # the identity law for H = Id given as explicit per-carrier tables;
    # the multiplication axiom needs components at derived carriers the
    # tables do not cover, so it is recorded as skipped, not failed
    import json as _json

    tables = {}
    for n in range(2):
        X = carrier(n)
        MX = maybe.apply(X)
        tables[str(n)] = {_json.dumps(encode_element(el)): encode_element(el)
                          for el in MX}
    doc = {"monad": "maybe", "functor": "id", "components": tables}
    law = load_distlaw_em(doc)
    report = check_distlaw_em(law, 1)
    assert report.passed
    assert any(c.law == "mult-axiom" and c.status == "skipped"
               for c in report.checks)


def test_word_codec():
    parse = word_parser(("a", "b"))
    assert parse("aba") == ("a", "b", "a")
    assert parse("") == ()
    with pytest.raises(InputError):
        parse("abc")


def _backtracking_str_to_word(s, alphabet):
    """The recursive matcher word_parser replaced, kept as the reference:
    at each position the longest letter whose remainder still parses."""
    letters = sorted((str(a) for a in alphabet), key=len, reverse=True)
    by_str = {str(a): a for a in alphabet}

    def match(rest):
        if not rest:
            return ()
        for lit in letters:
            if rest.startswith(lit):
                tail = match(rest[len(lit):])
                if tail is not None:
                    return (by_str[lit],) + tail
        return None

    return match(s)


@pytest.mark.parametrize("alphabet", [("a", "ab", "b", "ba"), ("a", "aa", "aaa", "b"),
                                      ("ab", "abc", "c", "bc", "a"), ("a", "abc", "bcd", "cd"),
                                      (0, 1, 10, "01")])
def test_word_parser_agrees_with_the_backtracking_matcher(alphabet):
    # Every string of up to 6 characters over the letters' characters and
    # one character outside them.
    parse = word_parser(alphabet)
    chars = sorted(set("".join(str(a) for a in alphabet))) + ["z"]
    for n in range(7):
        for s in map("".join, itertools.product(chars, repeat=n)):
            expected = _backtracking_str_to_word(s, alphabet)
            if expected is None:
                with pytest.raises(InputError):
                    parse(s)
            else:
                assert parse(s) == expected


def test_series_roundtrip():
    doc = {"alphabet": ["t"], "bound": 3,
           "coefficients": {"": 1, "tt": 1}}
    s = load_series(doc)
    assert s.coefficient(()) == 1
    assert s.coefficient(("t",)) == 0
    assert dump_series(s)["coefficients"] == {"": 1, "t": 0, "tt": 1}
    with pytest.raises(InputError):
        load_series({"alphabet": ["t"], "bound": 1, "coefficients": {"t": 1}})


@pytest.mark.parametrize("alphabet, key", [
    (["a", "aa"], "aa"),  # ("a", "a") and ("aa",)
    (["a", ""], ""),  # () and ("",)
    (["ab", "b", "a"], "ab"),  # ("a", "b") and ("ab",)
])
def test_a_series_whose_words_collide_is_refused_on_load(alphabet, key):
    # The same error as dump_series gives: no document sets every
    # coefficient of such a series.
    with pytest.raises(InputError, match=rf"^series: more than one word over the alphabet "
                                         rf"\[.*\] serializes to the key '{key}'$"):
        load_series({"alphabet": alphabet, "bound": 3})
    # Below bound 2 the words are the empty word and the letters.
    if key:
        assert load_series({"alphabet": alphabet, "bound": 2}).bound == 2


def test_a_key_that_a_greedy_split_reads_as_a_longer_word_loads():
    # "abcd" is the word (a, bcd); splitting it greedily gives (ab, c, d),
    # a word above the bound.
    alphabet = ["a", "ab", "bcd", "c", "d"]
    s = TruncatedSeries(alphabet, 3, range(len(words_below(alphabet, 3))))
    doc = dump_series(s)
    assert doc["coefficients"]["abcd"] == s.coefficient(("a", "bcd"))
    assert load_series(doc) == s


@st.composite
def _series_without_colliding_keys(draw):
    alphabet = draw(st.lists(st.text("abc", min_size=1, max_size=3), min_size=1, max_size=4,
                             unique=True))
    bound = draw(st.integers(0, 3))
    keys = word_strings(alphabet, bound)
    assume(len(set(keys)) == len(keys))
    coeffs = draw(st.lists(st.integers(0, 2), min_size=len(keys), max_size=len(keys)))
    return TruncatedSeries(alphabet, bound, coeffs)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_series_without_colliding_keys())
def test_a_dumped_series_loads_back(s):
    assert load_series(dump_series(s)) == s


def test_a_series_is_keyed_by_one_listing_and_parsed_only_on_error(monkeypatch):
    # Each of load_series and dump_series lists the keys once; the parser
    # runs only for a key that no word below the bound writes, to name the
    # error.
    import barrlab.jsonio as jsonio

    calls = {"word_strings": 0, "word_parser": 0}

    def spy(name):
        fn = getattr(jsonio, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(jsonio, name, counted)

    spy("word_strings")
    spy("word_parser")
    doc = {"alphabet": ["a", "ab", "bb"], "bound": 3, "coefficients": {"abb": 1, "": 1}}
    s = load_series(doc)
    assert calls == {"word_strings": 1, "word_parser": 0}
    dump_series(s)
    assert calls == {"word_strings": 2, "word_parser": 0}
    with pytest.raises(InputError, match="'ababb' is above the bound"):
        load_series(dict(doc, coefficients={"ababb": 1}))
    assert calls == {"word_strings": 3, "word_parser": 1}
    with pytest.raises(InputError, match="cannot parse word 'abc'"):
        load_series(dict(doc, coefficients={"abc": 1}))
    assert calls == {"word_strings": 4, "word_parser": 2}


def test_polynomial_loading():
    p = load_polynomial({"alphabet": ["t"], "semiring": "nat",
                         "terms": {"": 2, "ttt": 1}})
    assert p.coefficient(("t", "t", "t")) == 1
    assert p.degree() == 3


def _count_splits(monkeypatch):
    """Count the runs of word_parser's split, by key."""
    import barrlab.jsonio as jsonio

    splits, real = [], jsonio.word_parser

    def counted(alphabet):
        parse = real(alphabet)
        return lambda key: splits.append(key) or parse(key)

    monkeypatch.setattr(jsonio, "word_parser", counted)
    return splits


def test_a_sequence_splits_each_key_once(monkeypatch):
    splits = _count_splits(monkeypatch)
    partial_sums = [{"alphabet": ["t", "tt"], "terms": {"t" * i: 1 for i in range(n + 1)}}
                    for n in range(4)]
    doc = {"polynomials": partial_sums}
    polys, _ = load_sequence(doc, 3)
    assert sorted(splits) == ["", "t", "tt", "ttt"]
    assert [p.terms for p in polys] == [load_polynomial(p).terms for p in partial_sums]
    # The parsers live as long as one sequence: the next one splits again.
    del splits[:]
    load_sequence(doc, 3)
    assert sorted(splits) == ["", "t", "tt", "ttt"]


def test_an_error_in_a_sequence_is_the_one_its_polynomial_gives_alone(monkeypatch):
    # The alphabet of polynomials[2] loaded cleanly in polynomials[0] and
    # [1]; its errors are those it gives when loaded alone.
    splits = _count_splits(monkeypatch)
    clean = {"alphabet": ["t"], "terms": {"": 1, "t": 1}}
    with pytest.raises(InputError, match=r"^cannot parse word 'x' over alphabet \('t',\)$"):
        load_sequence({"polynomials": [clean, clean, {"alphabet": ["t"], "terms": {"x": 1}}]}, 1)
    with pytest.raises(InputError, match=r"^cannot parse word 'x' over alphabet \('t',\)$"):
        load_polynomial({"alphabet": ["t"], "terms": {"x": 1}}, path="polynomials[2]")
    with pytest.raises(InputError, match=r"^polynomials\[2\]\.terms\.t: expected a non-negative "
                                         r"integer over nat, got 'x'$"):
        load_sequence({"polynomials": [clean, clean, {"alphabet": ["t"], "terms": {"t": "x"}}]},
                      1)
    # A split that fails is not remembered: each call runs it again.
    import barrlab.jsonio as jsonio

    parse = jsonio._shared_parser(("t",), {})
    del splits[:]
    for key in ("x", "x", "t", "t"):
        try:
            parse(key)
        except InputError:
            pass
    assert splits == ["x", "x", "t"]


@pytest.mark.parametrize("letters", ([1, True], [0.0, -0.0], [1, 1.0]))
def test_letters_that_compare_equal_get_their_own_parser(letters):
    # 1 == True and 0.0 == -0.0, but they are written "1" and "True",
    # "0.0" and "-0.0".
    doc = {"polynomials": [{"alphabet": [a], "terms": {str(a): 1}} for a in letters]}
    polys, _ = load_sequence(doc, 1)
    for a, p in zip(letters, polys):
        (word,) = p.terms
        assert len(word) == 1 and type(word[0]) is type(a) and repr(word[0]) == repr(a)


def test_automaton_loading_and_errors():
    doc = {"states": ["s0"], "alphabet": ["a"], "semiring": "bool",
           "output": {"s0": 1}, "delta": {"s0": {"a": "s0"}}}
    aut = load_automaton(doc)
    assert aut.run("s0", ("a", "a")) == "s0"
    bad = dict(doc, delta={"s0": {"b": "s0"}})
    with pytest.raises(InputError) as err:
        load_automaton(bad)
    assert "delta" in str(err.value)
