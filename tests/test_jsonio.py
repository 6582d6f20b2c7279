import itertools

import pytest

from barrlab import (BlowUpGuard, InputError, NonFinitePreserving, carrier,
                     check_distlaw_em, check_monad_laws)
from barrlab.jsonio import (decode_element, dump_series, encode_element,
                            load_automaton, load_distlaw_em, load_distlaw_kl,
                            load_finset, load_functor, load_monad, load_monoid,
                            load_polynomial, load_semiring, load_series,
                            standard_alphabet, word_parser)


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


def test_a_prefix_code_alphabet_lists_no_keys(monkeypatch):
    # No letter is empty or a prefix of another, so distinct words write
    # distinct keys: the collision check lists no words.
    import barrlab.jsonio as jsonio

    assert jsonio._prefix_code(["a", "ba", "bb"])
    assert not jsonio._prefix_code(["b", "ab", "a"])
    assert not jsonio._prefix_code([1, "1"])

    def no_listing(*args):
        raise AssertionError("words listed")

    monkeypatch.setattr(jsonio, "word_strings", no_listing)
    jsonio._refuse_colliding_keys(["a", "ba", "bb"], 40, "series")
    with pytest.raises(AssertionError):
        jsonio._refuse_colliding_keys(["a", "ab"], 40, "series")


def test_polynomial_loading():
    p = load_polynomial({"alphabet": ["t"], "semiring": "nat",
                         "terms": {"": 2, "ttt": 1}})
    assert p.coefficient(("t", "t", "t")) == 1
    assert p.degree() == 3


def test_automaton_loading_and_errors():
    doc = {"states": ["s0"], "alphabet": ["a"], "semiring": "bool",
           "output": {"s0": 1}, "delta": {"s0": {"a": "s0"}}}
    aut = load_automaton(doc)
    assert aut.run("s0", ("a", "a")) == "s0"
    bad = dict(doc, delta={"s0": {"b": "s0"}})
    with pytest.raises(InputError) as err:
        load_automaton(bad)
    assert "delta" in str(err.value)
