import json
import re
from pathlib import Path

import pytest

from barrlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_check_monad_pass(capsys):
    code, out = run(capsys, "check-monad", "maybe", "--max-size", "3")
    assert code == 0
    assert "verdict: PASS" in out


def test_check_monad_rejects_list(capsys):
    code, out = run(capsys, "check-monad", "list")
    assert code == 2
    assert "NonFinitePreserving" in out


def test_invalid_input_cites_key(capsys, tmp_path):
    path = tmp_path / "aut.json"
    path.write_text(json.dumps({"states": ["s0"], "alphabet": ["a"],
                                "semiring": "bool", "output": {"s0": 1},
                                "delta": {"s0": {"b": "s0"}}}))
    code, out = run(capsys, "behavior", "--automaton", str(path), "--state", "s0")
    assert code == 2
    assert "delta" in out and "b" in out


def test_check_distlaw_and_diff_liftings(capsys):
    code, _ = run(capsys, "check-distlaw", "em", "gset-s3-conj", "--max-size", "2")
    assert code == 0
    code, report = run_json(capsys, "diff-liftings", "gset-s3", "--max-size", "1")
    assert code == 0
    assert report["result"]["liftings_differ"] is True
    assert report["result"]["witness"] is not None


def test_failed_check_exits_one(capsys):
    # an explicit law table violating the unit axiom: constant component
    doc = {
        "monad": "maybe", "functor": "id",
        "components": {
            "0": {json.dumps([0, "*"]): [0, "*"]},
            "1": {json.dumps([0, "*"]): [0, "*"],
                  json.dumps([1, 0]): [0, "*"]},
        },
    }
    code, out = run(capsys, "check-distlaw", "em", json.dumps(doc), "--max-size", "1")
    assert code == 1
    assert "FAIL" in out


def test_chain_inspect(capsys):
    code, report = run_json(capsys, "chain", "inspect", "--functor",
                            "moore:z2:1letter", "--depth", "4", "--level", "2")
    assert code == 0
    assert report["result"]["level_sizes"] == [1, 2, 4, 8, 16]
    assert len(report["result"]["elements"]) == 4


def test_behavior_distance_limit(capsys, tmp_path):
    aut = {"states": ["s0", "s1"], "alphabet": ["a"], "semiring": "bool",
           "output": {"s0": 0, "s1": 1},
           "delta": {"s0": {"a": "s1"}, "s1": {"a": "s1"}}}
    aut_path = tmp_path / "aut.json"
    aut_path.write_text(json.dumps(aut))
    code, report = run_json(capsys, "behavior", "--automaton", str(aut_path),
                            "--state", "s0", "--depth", "4")
    assert code == 0
    assert report["result"]["coefficients"] == {"": 0, "a": 1, "aa": 1, "aaa": 1}

    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps(report["result"]))
    one = dict(report["result"], coefficients={"": 0, "a": 1, "aa": 0, "aaa": 1})
    right.write_text(json.dumps(one))
    code, report = run_json(capsys, "distance", "--left", str(left),
                            "--right", str(right))
    assert code == 0
    assert report["result"] == {"agree_depth": 2}

    seq = {"polynomials": [
        {"alphabet": ["t"], "semiring": "nat", "terms": {("t" * j): 1 for j in range(n)}}
        for n in range(5)], "modulus": [1, 2, 3, 4]}
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps(seq))
    code, report = run_json(capsys, "limit", "--sequence", str(seq_path),
                            "--depth", "4")
    assert code == 0
    assert report["result"]["coefficients"] == {"": 1, "t": 1, "tt": 1, "ttt": 1}


def test_not_cauchy_is_a_validation_error(capsys, tmp_path):
    seq = {"polynomials": [
        {"alphabet": ["t"], "semiring": "nat", "terms": {"": 1}},
        {"alphabet": ["t"], "semiring": "nat", "terms": {"": 2}}],
        "modulus": [0]}
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps(seq))
    code, out = run(capsys, "limit", "--sequence", str(seq_path), "--depth", "1")
    assert code == 2
    assert "NotCauchy" in out


@pytest.mark.parametrize("bounds", (
    ("--depth", "8", "--n", "3"),
    # The extremes: --n at 0 and at --depth, --probe-depth at --depth + 1.
    ("--depth", "3", "--n", "0", "--probe-depth", "4", "--seed", "2"),
    ("--depth", "3", "--n", "3", "--probe-depth", "4", "--seed", "2"),
))
def test_density_subcommand(capsys, bounds):
    code, report = run_json(capsys, "density", "--functor", "moore:z2:1letter", *bounds)
    assert code == 0
    assert report["result"]["projection_matches"] is True


@pytest.mark.parametrize("seed", ("0", "2"))
@pytest.mark.parametrize("bounds, flag", (
    (("--n", "1", "--probe-depth", "9"), "--probe-depth"),
    (("--n", "1", "--probe-depth", "5"), "--probe-depth"),
    (("--n", "-1"), "--n"),
    (("--n", "4"), "--n"),
))
def test_density_checks_its_bounds_up_front(capsys, seed, bounds, flag):
    # The chain is built to --depth + 1 = 4: --n runs over 0..--depth and
    # --probe-depth up to --depth + 1, whatever point --seed picks.
    code, report = run_json(capsys, "density", "--functor", "moore:z2:1letter",
                            "--depth", "3", "--seed", seed, *bounds)
    assert code == 2
    assert report["error"] == "InputError"
    assert report["message"].startswith(flag + " ")


def test_density_zero_object_violation(capsys):
    code, out = run(capsys, "density", "--law", "gset-s3-mult",
                    "--depth", "3", "--n", "1")
    assert code == 2
    assert "ZeroObjectViolation" in out


def test_lemma_subcommands(capsys):
    for which in ("lemma1", "lemma2"):
        code, _ = run(capsys, which, "--law", "moore:z2:1letter", "--levels", "3")
        assert code == 0
        code, _ = run(capsys, which, "--law", "pointed:2:maybe", "--levels", "3")
        assert code == 0


@pytest.mark.parametrize("which", ["lemma1", "lemma2"])
def test_lemma_negative_levels_name_the_flag(capsys, which):
    code, report = run_json(capsys, which, "--law", "moore:z2:1letter", "--levels", "-1")
    assert code == 2
    assert report["error"] == "InputError"
    assert "--levels" in report["message"]


def test_commute_check_and_search(capsys):
    cand = {"monad": "semimodule:z2",
            "partner": {"generators": {"elements": ["*"]},
                        "alphabet": {"elements": ["a"]}}}
    code, _ = run(capsys, "commute", "check", json.dumps(cand), "--max-size", "2")
    assert code == 0

    T = {"coprod": [{"const": {"elements": ["*"]}},
                    {"prod": [{"const": {"elements": ["a"]}}, "id"]}]}
    H = {"prod": [{"const": {"elements": [[0], [1]]}},
                  {"power": {"exponent": {"elements": ["a"]}, "body": "id"}}]}
    law = {"monad": "semimodule:z2",
           "family": {"name": "moore", "alphabet": {"elements": ["a"]},
                      "generators": {"elements": ["*"]}}}
    code, report = run_json(capsys, "commute", "search", "--T", json.dumps(T),
                            "--H", json.dumps(H), "--law", json.dumps(law),
                            "--max-size", "1")
    assert code == 0
    assert report["result"]["status"] == "found"


def test_lift_subcommand(capsys):
    alg = {"monad": "writer:s3", "free_on": "X1"}
    code, report = run_json(capsys, "lift", "gset-s3-mult", json.dumps(alg),
                            "--max-size", "1")
    assert code == 0
    assert report["result"]["size"] == 36


def test_words_subcommand(capsys):
    code, report = run_json(capsys, "words", "--alphabet", "a,b", "--depth", "3")
    assert code == 0
    assert report["result"]["count"] == 7


@pytest.mark.parametrize("alphabet", ("", "a,,b", ","))
def test_words_rejects_an_empty_letter(capsys, alphabet):
    # An empty --alphabet used to fall back to the standard alphabet ["t"].
    code, report = run_json(capsys, "words", "--alphabet", alphabet, "--depth", "2")
    assert code == 2
    assert report["error"] == "InputError"
    assert report["message"] == f"--alphabet: empty letter in {alphabet!r}"


def test_reports_are_byte_identical_modulo_timing(capsys):
    _, first = run_json(capsys, "check-monad", "powerset", "--seed", "5")
    _, second = run_json(capsys, "check-monad", "powerset", "--seed", "5")
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_anamorphism_subcommand(capsys, tmp_path):
    aut = {"states": ["s"], "alphabet": ["a"], "semiring": "bool",
           "output": {"s": 1}, "delta": {"s": {"a": "s"}}}
    path = tmp_path / "aut.json"
    path.write_text(json.dumps(aut))
    code, report = run_json(capsys, "anamorphism", "--automaton", str(path),
                            "--state", "s", "--level", "2")
    assert code == 0
    assert report["result"]["element"] == [1, [[1, ["*"]]]]


def test_anamorphism_negative_level_exits_two(capsys):
    aut = {"states": ["s"], "alphabet": ["a"], "semiring": "bool",
           "output": {"s": 1}, "delta": {"s": {"a": "s"}}}
    code, report = run_json(capsys, "anamorphism", "--automaton", json.dumps(aut),
                            "--state", "s", "--level", "-1")
    assert code == 2
    assert report["error"] == "DepthExceeded"


def test_anamorphism_builds_the_chain_to_the_level_only(capsys):
    # At the default --depth 8 the two-letter chain passes the blow-up guard
    # at level 5; the leg at level 2 needs only levels 0-2.
    argv = ("anamorphism", "--automaton", "tests/golden/inputs/automaton-z2-2letter.json",
            "--state", "s0", "--level", "2")
    code, report = run_json(capsys, *argv)
    assert code == 0
    _, shallow = run_json(capsys, *argv, "--depth", "2")
    assert report["result"] == shallow["result"]


def test_anamorphism_checks_the_state_before_the_chain(capsys):
    # Level 5 of the two-letter chain is past the blow-up guard, so building
    # the chain first would report BlowUpGuard, not the unknown state.
    code, report = run_json(capsys, "anamorphism", "--automaton",
                            "tests/golden/inputs/automaton-z2-2letter.json",
                            "--state", "nosuch", "--level", "5", "--depth", "5")
    assert code == 2
    assert report["error"] == "InputError"
    assert report["message"] == "state 'nosuch' not in the automaton"


# States 0 and 1, written "0" and "1" as the document's keys.
_INT_STATES = json.dumps({"states": [0, 1], "alphabet": ["a"], "semiring": "bool",
                          "output": {"0": 1, "1": 0},
                          "delta": {"0": {"a": 1}, "1": {"a": 0}}})


def test_behavior_reads_an_integer_state_as_a_document_key(capsys):
    code, report = run_json(capsys, "behavior", "--automaton", _INT_STATES,
                            "--state", "0", "--depth", "3")
    assert code == 0
    assert report["result"]["coefficients"] == {"": 1, "a": 0, "aa": 1}
    code, report = run_json(capsys, "behavior", "--automaton", _INT_STATES,
                            "--state", "2", "--depth", "3")
    assert code == 2
    assert report["message"] == "state '2' not in the automaton"


def _one_state(alphabet):
    return json.dumps({"states": ["s"], "alphabet": alphabet, "semiring": "bool",
                       "output": {"s": 1}, "delta": {"s": {a: "s" for a in alphabet}}})


_COLLISION = "series: more than one word over the alphabet {} serializes to the key {!r}"


@pytest.mark.parametrize("argv, message", [
    # ("a", "a") and ("aa",) both write "aa".
    (("behavior", "--automaton", _one_state(["a", "aa"]), "--state", "s",
      "--depth", "3"), _COLLISION.format(["a", "aa"], "aa")),
    # ("",) writes "", the key of the empty word.
    (("behavior", "--automaton", _one_state(["a", ""]), "--state", "s",
      "--depth", "2"), _COLLISION.format(["a", ""], "")),
    (("limit", "--depth", "3", "--sequence", json.dumps({"polynomials": [
        {"alphabet": ["a", "aa"], "terms": {"": 1, "aa": 1}}], "modulus": [0, 0, 0]})),
     _COLLISION.format(["a", "aa"], "aa")),
])
def test_a_dump_whose_words_collide_is_an_input_error(capsys, argv, message):
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert (report["error"], report["message"]) == ("InputError", message)


def test_a_series_document_whose_words_collide_is_an_input_error(capsys):
    # Over the letters a and aa no document can set the coefficient of
    # (a, a): the key "aa" reads as (aa).
    left = {"alphabet": ["a", "aa"], "bound": 3, "coefficients": {"aa": 1}}
    code, report = run_json(capsys, "distance", "--left", json.dumps(left),
                            "--right", json.dumps({"alphabet": ["a", "aa"], "bound": 3}))
    assert code == 2
    assert (report["error"], report["message"]) == (
        "InputError", "left: more than one word over the alphabet ['a', 'aa'] serializes "
                      "to the key 'aa'")


def test_a_dump_whose_words_are_distinct_keeps_every_coefficient(capsys):
    code, report = run_json(capsys, "behavior", "--automaton", _one_state(["a", "aa"]),
                            "--state", "s", "--depth", "2")
    assert code == 0
    assert report["result"]["coefficients"] == {"": 1, "a": 1, "aa": 1}


def test_anamorphism_reads_an_integer_state_as_a_document_key(capsys):
    code, report = run_json(capsys, "anamorphism", "--automaton", _INT_STATES,
                            "--state", "1", "--level", "2")
    assert code == 0
    assert report["result"] == {"state": 1, "level": 2, "element": [0, [[1, ["*"]]]]}


@pytest.mark.parametrize("argv, message", [
    (("behavior", "--state", "s", "--automaton", json.dumps({
        "states": ["s"], "alphabet": ["a"], "semiring": "bool",
        "output": {"s": 1, '{"a": 1}': 0}, "delta": {"s": {"a": "s"}}})),
     """automaton.output: key '{"a": 1}' is not an element of automaton.states"""),
    (("check-monad", "--max-size", "1", json.dumps({"tables": {"1": {
        "elements": [[0, "*"], [1, 0]], "unit": [[1, 0]], "mult": {'{"a":1}': [1, 0]}}}})),
     """monad.tables.1.mult: keys are JSON-encoded elements, got '{"a":1}'"""),
    (("behavior", "--automaton", "tests/golden/inputs/automaton-z2-2letter.json",
      "--state", '{"a": 1}'), """state '{"a": 1}' not in the automaton"""),
])
def test_keys_that_decode_to_json_objects_are_named(capsys, argv, message):
    # A JSON object decodes to an unhashable value, which is no element:
    # the error names the field and the key.
    code = main([*argv, "--format", "json"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2
    assert (report["error"], report["message"]) == ("InputError", message)
    assert "Traceback" not in captured.err


def test_distance_guards_the_words_below_the_bound(capsys, monkeypatch):
    # The words of a loaded series are counted before any is listed: at
    # "bound": 40 the 2^40 - 1 words used to run the process out of memory.
    # A guard of 10 shows the same trip on 31 words.
    monkeypatch.setenv("BARRLAB_BLOWUP_GUARD", "10")
    series = json.dumps({"alphabet": ["a", "b"], "bound": 5})
    code, report = run_json(capsys, "distance", "--left", series, "--right", series)
    assert code == 2
    assert report["error"] == "BlowUpGuard"
    assert report["message"].startswith("enumeration of 31 elements exceeds the guard (10)")


def test_behavior_guards_the_depth(capsys, monkeypatch):
    # --depth 40 over two letters used to run without end (2^40 words).
    monkeypatch.setenv("BARRLAB_BLOWUP_GUARD", "10")
    code, report = run_json(capsys, "behavior", "--automaton",
                            "tests/golden/inputs/automaton-z2-2letter.json",
                            "--state", "s0", "--depth", "5")
    assert code == 2
    assert report["error"] == "BlowUpGuard"
    assert report["message"].startswith("enumeration of 31 elements exceeds the guard (10)")


@pytest.mark.parametrize("argv", (
    ("check-distlaw", "pointed:11:maybe"),
    ("check-monad", "exception:11"),
    ("check-monad", '{"builtin": "exception", "errors": 11}'),
    ("limit", "--sequence", json.dumps({"polynomials": [
        {"alphabet": ["t"], "semiring": "z11"}]}), "--depth", "1"),
    ("limit", "--sequence", json.dumps({"polynomials": [
        {"alphabet": ["t"], "semiring": "minplus:9"}]}), "--depth", "1"),
))
def test_sizes_in_a_shorthand_are_guarded_before_listing(capsys, monkeypatch, argv):
    # A few digits name N outputs, N errors or a semiring of N elements: N is
    # checked against the guard before the N elements are listed, so a large
    # N exits 2 instead of running out of memory.
    monkeypatch.setenv("BARRLAB_BLOWUP_GUARD", "10")
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["error"] == "BlowUpGuard"
    assert report["message"].startswith("enumeration of 11 elements exceeds the guard (10)")


def test_a_mult_axiom_whose_h_of_m_x_exceeds_the_guard_is_skipped(capsys):
    # Nineteen letters: |M(M(H X1))| = 16, but H(M X1) has 2 * 2^19 elements.
    # The axiom at X1 is skipped by that cardinality before H(M X1) is built;
    # it used to stop the whole run with BlowUpGuard.
    code, report = run_json(capsys, "check-distlaw", "moore:z2:19letters", "--max-size", "1")
    assert code == 0
    skipped = [c for c in report["result"]["checks"] if c["status"] == "skipped"]
    assert skipped == [{"law": "mult-axiom", "instance": "X1", "status": "skipped",
                        "detail": "|H(M X1)| = 1048576 > guard 1000000"}]


# The maybe monad as tables on carriers of size 0 and 1 only, so it has no
# size for M(M X1).
MAYBE_UP_TO_1 = {
    "name": "maybe01",
    "tables": {"0": {"elements": [[0, "*"]], "unit": [],
                     "mult": {json.dumps([0, "*"]): [0, "*"], json.dumps([1, 0]): [0, "*"]}},
               "1": {"elements": [[0, "*"], [1, 0]], "unit": [[1, 0]],
                     "mult": {json.dumps([0, "*"]): [0, "*"], json.dumps([1, 0]): [0, "*"],
                              json.dumps([1, 1]): [1, 0]}}},
    "maps": [{"dom": 0, "cod": n, "values": [], "table": {json.dumps([0, "*"]): [0, "*"]}}
             for n in (0, 1)] +
            [{"dom": 1, "cod": 1, "values": [0],
              "table": {json.dumps([0, "*"]): [0, "*"], json.dumps([1, 0]): [1, 0]}}],
}


@pytest.mark.parametrize("direction, derived", (("em", "maybe01(X({}))"), ("kl", "maybe01({})")))
def test_a_law_with_no_component_at_m_x_is_skipped_before_any_size_is_asked(capsys, direction,
                                                                            derived):
    # The identity law on the identity functor, as tables at X0 and X1: with
    # no component at M X, the mult axiom is skipped for that reason, and the
    # monad is never asked for a size it has no table for.
    law = {"monad": MAYBE_UP_TO_1, "functor": "id",
           "components": {"0": {json.dumps([0, "*"]): [0, "*"]},
                          "1": {json.dumps([0, "*"]): [0, "*"], json.dumps([1, 0]): [1, 0]}}}
    code, report = run_json(capsys, "check-distlaw", direction, json.dumps(law),
                            "--max-size", "1")
    assert code == 0
    assert [(c["instance"], c["detail"]) for c in report["result"]["checks"]
            if c["status"] == "skipped"] == [
        (x, f"no component at the derived carrier {derived.format(x)}") for x in ("X0", "X1")]


def test_a_law_whose_h_ignores_x_checks_its_mult_axiom_without_building_m_m_x(capsys):
    # No letters: H X = z2 for every X, but M(M X5) has 2^32 elements.  The
    # lifted free algebra is read at the 16 points of M(M(H X5)) rather than
    # tabulated from the free algebra's table over M(M X5).
    code, report = run_json(capsys, "check-distlaw", "moore:z2:0letters", "--max-size", "5")
    assert code == 0
    assert all(c["status"] == "pass" for c in report["result"]["checks"])


def test_unparsable_word_keys_exit_two(capsys):
    # A 1200-letter key used to end in a RecursionError, and an ambiguous
    # alphabet with no split used to backtrack without end.
    long_key = {"alphabet": ["t"], "bound": 3, "coefficients": {"t" * 1200: 1}}
    no_split = {"alphabet": ["a", "aa", "aaa"], "bound": 3,
                "coefficients": {"a" * 60 + "b": 1}}
    for doc, message in ((long_key, "left.coefficients: word "),
                         (no_split, "left.coefficients: cannot parse word ")):
        code, report = run_json(capsys, "distance", "--left", json.dumps(doc),
                                "--right", json.dumps(doc))
        assert code == 2
        assert report["error"] == "InputError"
        assert report["message"].startswith(message)


_T_SERIES = json.dumps({"alphabet": ["t"], "bound": 2})
_X_KEY = json.dumps({"alphabet": ["t"], "bound": 2, "coefficients": {"x": 1}})
_BOGUS_FACTOR = json.dumps({"prod": ["id", "bogus"]})
_IDENTITY_LAW = json.dumps({"monad": "maybe", "family": "identity"})


@pytest.mark.parametrize("argv, message", [
    (("distance", "--left", _X_KEY, "--right", _T_SERIES),
     "left.coefficients: cannot parse word 'x' over alphabet ('t',)"),
    (("distance", "--left", _T_SERIES, "--right", _X_KEY),
     "right.coefficients: cannot parse word 'x' over alphabet ('t',)"),
    (("distance", "--left", "missing.json", "--right", _T_SERIES),
     "left: file not found: missing.json"),
    (("commute", "search", "--T", _BOGUS_FACTOR, "--H", "id", "--law", _IDENTITY_LAW),
     "T.prod[1]: unknown functor shorthand 'bogus'"),
    (("commute", "search", "--T", "id", "--H", _BOGUS_FACTOR, "--law", _IDENTITY_LAW),
     "H.prod[1]: unknown functor shorthand 'bogus'"),
])
def test_a_command_reading_two_documents_of_one_kind_names_the_flag(capsys, argv, message):
    # Each document's errors name its flag; both series used to be named
    # "series", and both functors "functor".
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert (report["error"], report["message"]) == ("InputError", message)


def test_bad_integer_fields_exit_two(capsys):
    path = Path(__file__).parent / "golden" / "inputs" / "maybe-tables-broken-mult.json"
    table_monad = json.loads(path.read_text())
    table_monad["maps"][0]["dom"] = "q"
    series = {"alphabet": ["t"], "bound": 2}
    poly = {"alphabet": ["t"], "semiring": "nat", "terms": {"": 1}}
    for argv, message in (
            (("check-monad", '{"builtin": "exception", "errors": "x"}'),
             "monad.errors: expected an integer, got 'x'"),
            (("check-monad", '{"builtin": "exception", "errors": -1}'),
             "monad.errors: must be >= 0, got -1"),
            (("check-monad", json.dumps(table_monad)),
             "monad.maps[0].dom: expected an integer, got 'q'"),
            (("distance", "--left", json.dumps(dict(series, bound="x")),
              "--right", json.dumps(series)),
             "left.bound: expected an integer, got 'x'"),
            (("distance", "--left", json.dumps(dict(series, bound=-1)),
              "--right", json.dumps(series)),
             "left.bound: must be >= 0, got -1"),
            (("limit", "--sequence", json.dumps({"polynomials": [poly, poly],
                                                 "modulus": [0, "x"]}), "--depth", "2"),
             "modulus[1]: expected an integer, got 'x'"),
            (("limit", "--sequence", json.dumps({"polynomials": [poly], "modulus": [0]}),
              "--depth", "2"),
             "modulus: expected an array with an entry for each word length below "
             "--depth 2"),
            # A coefficient is an element of the polynomial's semiring: over
            # nat a non-negative integer, never a bool.
            (("limit", "--sequence", json.dumps({"polynomials": [
                poly, {"alphabet": ["t"], "terms": {"t": "x"}}]}), "--depth", "2"),
             "polynomials[1].terms.t: expected a non-negative integer over nat, got 'x'"),
            (("limit", "--sequence", json.dumps({"polynomials": [
                dict(poly, terms={"": -1})]}), "--depth", "1"),
             "polynomials[0].terms.: expected a non-negative integer over nat, got -1"),
            (("limit", "--sequence", json.dumps({"polynomials": [
                dict(poly, terms={"tt": True})]}), "--depth", "1"),
             "polynomials[0].terms.tt: expected a non-negative integer over nat, got True"),
            (("limit", "--sequence", json.dumps({"polynomials": [
                dict(poly, semiring="z2", terms={"t": 2})]}), "--depth", "1"),
             "polynomials[0].terms.t: coefficient 2 is not an element of z2"),
            (("limit", "--sequence", json.dumps({"polynomials": [
                dict(poly, semiring="bool", terms={"t": [1]})]}), "--depth", "1"),
             "polynomials[0].terms.t: coefficient (1,) is not an element of bool"),
            (("limit", "--sequence", json.dumps({"polynomials": [
                dict(poly, semiring="z3", terms={"t": 1.0})]}), "--depth", "1"),
             "polynomials[0].terms.t: coefficient 1.0 is not an element of z3"),
            (("limit", "--sequence", json.dumps({"polynomials": [
                dict(poly, semiring="minplus:2", terms={"t": "inf", "": True})]}),
              "--depth", "1"),
             "polynomials[0].terms.: coefficient True is not an element of minplus2")):
        code, report = run_json(capsys, *argv, "--max-size", "1")
        assert code == 2, argv
        assert report["error"] == "InputError", argv
        assert report["message"] == message


def test_malformed_documents_are_input_errors(capsys):
    # a missing key is bad input (exit 2), never a counterexample (exit 1)
    for argv, path in ((("check-distlaw", '{"family":"identity"}'), "law"),
                       (("check-distlaw", '{"monad": "semimodule:z2", "family": "stream"}'),
                        "law"),
                       (("check-monad", '{"builtin":"writer"}'), "monad")):
        code, report = run_json(capsys, *argv)
        assert code == 2
        assert report["error"] == "InputError"
        assert report["message"].startswith(f"{path}: missing key")


def test_partial_semiring_tables_are_input_errors(capsys):
    # a gap in add or mul, a result outside the elements, or a unit that is
    # not an element is bad input (exit 2), never a traceback
    z2 = {"elements": [0, 1], "zero": 0, "one": 1,
          "add": {"0": {"0": 0, "1": 1}, "1": {"0": 1, "1": 0}},
          "mul": {"0": {"0": 0, "1": 0}, "1": {"0": 0, "1": 1}}}
    cases = (
        (dict(z2, add={"0": {"0": 0}}, mul={"0": {"0": 0}}), "semiring.add"),
        (dict(z2, mul={"0": {"0": 0, "1": 0}, "1": {"0": 0}}), "semiring.mul"),
        (dict(z2, mul=dict(z2["mul"], **{"1": {"0": 0, "1": 2}})), "semiring.mul"),
        (dict(z2, one=7), "semiring.one"),
        (dict(z2, elements=[0, 0]), "semiring.add"),
    )
    for semiring, path in cases:
        doc = {"builtin": "semimodule", "semiring": semiring}
        code, report = run_json(capsys, "check-monad", json.dumps(doc), "--max-size", "1")
        assert code == 2
        assert report["error"] == "InputError"
        assert path in report["message"]
    code, _ = run(capsys, "check-monad",
                  json.dumps({"builtin": "semimodule", "semiring": z2}), "--max-size", "1")
    assert code == 0


def test_partial_arrow_tables_are_input_errors(capsys):
    # an arrow table that leaves out an element of M(dom), or sends one
    # outside M(cod), is bad input (exit 2), never a traceback
    path = Path(__file__).parent / "golden" / "inputs" / "maybe-tables-broken-mult.json"
    doc = json.loads(path.read_text())
    i = next(i for i, entry in enumerate(doc["maps"])
             if (entry["dom"], entry["cod"]) == (1, 1))
    gap, stray = json.loads(path.read_text()), json.loads(path.read_text())
    del gap["maps"][i]["table"]["[1, 0]"]
    stray["maps"][i]["table"]["[1, 0]"] = [1, 1]
    for broken, detail in ((gap, "no value for (1, 0)"),
                           (stray, "value (1, 1) of (1, 0) is not an element of "
                                   "monad.tables.1")):
        code, report = run_json(capsys, "check-monad", json.dumps(broken), "--max-size", "2")
        assert code == 2
        assert report["error"] == "InputError"
        assert report["message"] == f"monad.maps[{i}].table: {detail}"
    code, _ = run(capsys, "check-monad", json.dumps(doc), "--max-size", "1")
    assert code == 1


def test_partial_or_open_unit_and_mult_tables_are_input_errors(capsys):
    # unit and mult values must be elements of their level, and mult must
    # cover M(M X_n) wherever that level is given: exit 2, never a traceback
    path = Path(__file__).parent / "golden" / "inputs" / "maybe-tables-broken-map-identity.json"
    gap, unit, stray = (json.loads(path.read_text()) for _ in range(3))
    del gap["tables"]["1"]["mult"]["[1, 1]"]
    unit["tables"]["1"]["unit"] = [[1, 7]]
    stray["tables"]["1"]["mult"]["[1, 1]"] = [1, 9]
    for broken, message in (
            (gap, "monad.tables.1.mult: no value for (1, 1)"),
            (unit, "monad.tables.1.unit: value (1, 7) of 0 is not an element of "
                   "monad.tables.1"),
            (stray, "monad.tables.1.mult: value (1, 9) of (1, 1) is not an element of "
                    "monad.tables.1")):
        code, report = run_json(capsys, "check-monad", json.dumps(broken), "--max-size", "1")
        assert code == 2
        assert report["error"] == "InputError"
        assert report["message"] == message


def test_out_of_range_bounds_exit_two(capsys):
    T = H = json.dumps({"prod": [{"const": {"elements": ["p"]}}, "id"]})
    law = json.dumps({"monad": "writer:z2",
                      "family": {"name": "swap", "constant": {"elements": ["p"]}}})
    cand = json.dumps({"monad": "semimodule:z2",
                       "partner": {"generators": {"elements": ["*"]},
                                   "alphabet": {"elements": ["a"]}}})
    for argv in (("check-monad", "maybe", "--max-size", "0"),
                 ("chain", "build", "--functor", "moore:z2:1letter", "--depth", "-1"),
                 ("commute", "search", "--T", T, "--H", H, "--law", law,
                  "--max-size", "-1"),
                 ("commute", "check", cand, "--max-size", "-1"),
                 ("commute", "search", "--T", T, "--H", H, "--law", law,
                  "--max-size", "1", "--search-cap", "-1"),
                 ("density", "--functor", "moore:z2:1letter", "--depth", "3",
                  "--n", "1", "--probe-depth", "-1")):
        code, report = run_json(capsys, *argv)
        assert code == 2, argv
        assert report["error"] == "InputError", argv


def test_flags_before_a_commute_mode_are_usage_errors(capsys):
    # A flag before the mode used to be overwritten by the mode's default
    # (this ran at --max-size 3); it is now an argparse usage error that
    # names the flag and says where it goes.
    cand = json.dumps({"monad": "semimodule:z2",
                       "partner": {"generators": {"elements": ["*"]},
                                   "alphabet": {"elements": ["a"]}}})
    with pytest.raises(SystemExit) as exc:
        main(["commute", "--max-size", "1", "check", cand])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "--max-size is given before the mode; flags follow the mode" in err
    assert "invalid choice" not in err
    with pytest.raises(SystemExit) as exc:
        main(["commute", "--format=json", "search", "--T", "id"])
    assert exc.value.code == 2
    assert "--format is given before the mode" in capsys.readouterr().err
    code, report = run_json(capsys, "commute", "check", cand, "--max-size", "1")
    assert code == 0
    assert report["config"]["max_size"] == 1
    assert len(report["result"]["checks"]) == 10


def test_gset_family_takes_its_group_from_the_writer_monad(capsys):
    # The gset law lives over writer[G]; a monad that is not a writer monad
    # over a group, or a `group` key naming another group, is bad input.
    for law, message in (
            ({"monad": "maybe", "family": {"name": "gset", "group": "z2"}},
             "law.monad: the gset family needs a writer monad over a group, got maybe"),
            ({"monad": "writer:s3", "family": {"name": "gset", "group": "z2"}},
             "law.group: Z2 is not the group of writer[S3]")):
        code, report = run_json(capsys, "check-distlaw", json.dumps(law), "--max-size", "1")
        assert code == 2
        assert report["error"] == "InputError"
        assert report["message"] == message
    for law in ({"monad": "writer:s3", "family": "gset"},
                {"monad": "writer:s3", "family": {"name": "gset", "group": "s3"}}):
        code, report = run_json(capsys, "check-distlaw", json.dumps(law), "--max-size", "1")
        assert code == 0
        assert report["result"]["subject"] == "distributive law gset-s3-mult"


def test_gset_family_rejects_an_unknown_variant(capsys):
    # Only mult and conj name a gset law; any other variant used to fall
    # through to conj and pass.
    law = {"monad": "writer:s3", "family": {"name": "gset", "variant": "bogus"}}
    code, report = run_json(capsys, "check-distlaw", json.dumps(law), "--max-size", "1")
    assert code == 2
    assert report["error"] == "InputError"
    assert report["message"] == "law.variant: expected 'mult' or 'conj', got 'bogus'"


@pytest.mark.parametrize("law", (
    "pointed:0:maybe",
    json.dumps({"monad": "maybe", "family": {"name": "pointed", "outputs": {"elements": []}}}),
    json.dumps({"monad": "exception:2",
                "family": {"name": "pointed", "outputs": [], "alphabet": ["a"]}}),
))
def test_pointed_family_needs_an_output(capsys, law):
    # An error value outputs the first element of the outputs, so an empty
    # set of outputs used to end in "law: too few entries".
    code, report = run_json(capsys, "check-distlaw", law, "--max-size", "1")
    assert code == 2
    assert report["error"] == "InputError"
    assert report["message"] == "law.outputs: the pointed family needs at least one output"


def _automaton(path, states, letters):
    path.write_text(json.dumps({"states": states, "alphabet": letters, "semiring": "z2",
                                "output": {"s": 1}, "delta": {"s": {"a": "s"}}}))
    return str(path)


_SERIES = json.dumps({"alphabet": ["a", "a"], "bound": 2})
_POLYS = json.dumps({"polynomials": [{"alphabet": ["t", "t"], "terms": {"": 1}}]})


@pytest.mark.parametrize("argv, message", (
    (("check-algebra", '{"monad": "maybe", "carrier": ["a", "a"], "structure": {}}'),
     "algebra.carrier: element 'a' is given twice"),
    (("check-algebra", '{"monad": "maybe", "carrier": {"elements": ["a", "a"]}, '
      '"structure": {}}'), "algebra.carrier: element 'a' is given twice"),
    (("check-distlaw", '{"monad": "maybe", "family": {"name": "pointed", '
      '"outputs": ["a", "a"]}}'), "law.outputs: element 'a' is given twice"),
    (("chain", "build", "--functor", '{"power": {"exponent": ["a", "a"], "body": "id"}}'),
     "functor.power.exponent: element 'a' is given twice"),
    (("check-monad", '{"builtin": "writer", "monoid": {"elements": [0, 0], '
      '"op": {"0": {"0": 0}}, "unit": 0}}'),
     "monad.monoid.op: element 0 is given twice"),
    (("behavior", "--automaton", "STATES", "--state", "s"),
     "automaton.states: element 's' is given twice"),
    (("behavior", "--automaton", "LETTERS", "--state", "s"),
     "automaton.alphabet: letter 'a' is given twice"),
    (("anamorphism", "--automaton", "LETTERS", "--state", "s", "--level", "1"),
     "automaton.alphabet: letter 'a' is given twice"),
    (("words", "--alphabet", "a,a"), "--alphabet: letter 'a' is given twice"),
    (("distance", "--left", _SERIES, "--right", _SERIES),
     "left.alphabet: letter 'a' is given twice"),
    (("limit", "--sequence", _POLYS, "--depth", "1"),
     "polynomials[0].alphabet: letter 't' is given twice"),
))
def test_repeated_elements_and_letters_are_input_errors(capsys, tmp_path, argv, message):
    # A list-form set used to end in a ValueError traceback, and a repeated
    # letter was accepted and listed duplicate words.
    files = {"STATES": _automaton(tmp_path / "states.json", ["s", "s"], ["a"]),
             "LETTERS": _automaton(tmp_path / "letters.json", ["s"], ["a", "a"])}
    code, report = run_json(capsys, *(files.get(arg, arg) for arg in argv))
    assert code == 2
    assert report["error"] == "InputError"
    assert report["message"] == message


@pytest.mark.parametrize("parts", (["id"], ["id", "id", "id"], "ab"))
def test_compose_needs_two_entries(capsys, parts):
    functor = json.dumps({"compose": parts})
    code, report = run_json(capsys, "chain", "build", "--functor", functor)
    assert code == 2
    assert report["error"] == "InputError"
    assert report["message"] == f"functor.compose: expected [outer, inner], got {parts!r}"


def test_lift_names_both_monads_when_they_differ(capsys):
    code, report = run_json(capsys, "lift", "gset-z2-mult",
                            '{"monad": "maybe", "free_on": "X1"}')
    assert code == 2
    assert report["error"] == "DomainMismatch"
    assert report["message"] == ("algebra free(X1) belongs to maybe, not writer[Z2], "
                                 "the monad of gset-z2-mult")


# T = H = Id over maybe with the identity as sigma at X0 and X1.
_IDENTITY_PAIR = json.dumps({"monad": "maybe", "T": "id", "H": "id", "sigma": {
    "0": {json.dumps([0, "*"]): [0, "*"]},
    "1": {json.dumps([0, "*"]): [0, "*"], json.dumps([1, 0]): [1, 0]}}})


def test_commute_law_over_another_monad_exits_two(capsys):
    # The square flattens through the law's lifting of the free algebra on
    # X, so a law over another monad is bad input; the identity law over
    # powerset used to pass by accident.
    code, report = run_json(capsys, "commute", "check", _IDENTITY_PAIR,
                            "--law", '{"monad": "powerset", "family": "identity"}',
                            "--max-size", "1")
    assert code == 2
    assert report["error"] == "DomainMismatch"
    assert report["message"] == ("algebra free(X0) belongs to maybe, not powerset, "
                                 "the monad of identity[powerset]")
    code, _ = run_json(capsys, "commute", "check", _IDENTITY_PAIR,
                       "--law", '{"monad": "maybe", "family": "identity"}', "--max-size", "1")
    assert code == 0


@pytest.mark.parametrize("name, message", (
    (None, "monad.monoid: 1 is not a unit at 0"),
    ("M", "monad.monoid: M: 1 is not a unit at 0"),
))
def test_a_broken_writer_monoid_names_its_path_once(capsys, name, message):
    monoid = {"elements": [0, 1], "op": {"0": {"0": 0, "1": 1}, "1": {"0": 1, "1": 1}},
              "unit": 1}
    if name:
        monoid["name"] = name
    code, report = run_json(capsys, "check-monad",
                            json.dumps({"builtin": "writer", "monoid": monoid}))
    assert code == 2
    assert report["message"] == message


def text_report(capsys, *argv):
    """The default text report, its closing timing replaced by '<t>'."""
    code, out = run(capsys, *argv)
    return code, re.sub(r"\(\d+\.\d ms\)\n$", "(<t> ms)\n", out)


def test_text_output_of_chain_inspect(capsys):
    code, out = text_report(capsys, "chain", "inspect", "--functor", "moore:z2:1letter",
                            "--depth", "2", "--level", "1")
    assert code == 0
    assert out == (
        "barrlab 0.1.0 :: chain inspect --functor moore:z2:1letter --depth 2 --level 1 "
        "(seed 0)\n"
        '  functor: "(z2*(X^A))"\n'
        "  depth: 2\n"
        "  level_sizes: [1, 2, 4]\n"
        "  level: 1\n"
        '  elements: [[0, ["*"]], [1, ["*"]]]\n'
        "verdict: PASS (<t> ms)\n")


def test_text_output_of_commute_search_with_an_empty_component(capsys):
    # H(M X0) is empty for H = {p} x X, so sigma at X0 has no entries.
    product = '{"prod": [{"const": {"elements": ["p"]}}, "id"]}'
    law = '{"monad": "writer:z2", "family": {"name": "swap", "constant": {"elements": ["p"]}}}'
    code, out = text_report(capsys, "commute", "search", "--T", product, "--H", product,
                            "--law", law, "--max-size", "1")
    assert code == 0
    assert out == (
        f"barrlab 0.1.0 :: commute search --T {product} --H {product} --law {law} "
        "--max-size 1 (seed 0)\n"
        '  status: "found"\n'
        "  tried: 2\n"
        "  sigma:\n"
        "    X0:\n"
        "    X1:\n"
        '      ["p", [0, 0]]: [0, ["p", 0]]\n'
        '      ["p", [1, 0]]: [1, ["p", 0]]\n'
        "verdict: PASS (<t> ms)\n")


def test_text_output_of_lift_nests_the_law_report(capsys):
    algebra = '{"monad": "writer:z2", "free_on": "X1"}'
    code, out = text_report(capsys, "lift", "gset-z2-conj", algebra, "--max-size", "1")
    assert code == 0
    carrier = '"(Z2*X)(writer[Z2](X1))"'
    assert out == (
        f"barrlab 0.1.0 :: lift gset-z2-conj {algebra} --max-size 1 (seed 0)\n"
        f"  carrier: {carrier}\n"
        "  size: 4\n"
        "  structure:\n"
        "    [0, [0, [0, 0]]]: [0, [0, 0]]\n"
        "    [0, [0, [1, 0]]]: [0, [1, 0]]\n"
        "    [0, [1, [0, 0]]]: [1, [0, 0]]\n"
        "    [0, [1, [1, 0]]]: [1, [1, 0]]\n"
        "    [1, [0, [0, 0]]]: [0, [1, 0]]\n"
        "    [1, [0, [1, 0]]]: [0, [0, 0]]\n"
        "    [1, [1, [0, 0]]]: [1, [1, 0]]\n"
        "    [1, [1, [1, 0]]]: [1, [0, 0]]\n"
        "  algebra_laws:\n"
        '    subject: "algebra lift[gset-z2-conj](free(X1)) over writer[Z2]"\n'
        "    passed: true\n"
        "    checks:\n"
        '      law: "unit-law"\n'
        f"      instance: {carrier}\n"
        '      status: "pass"\n'
        "      -\n"
        '      law: "multiplication-law"\n'
        f"      instance: {carrier}\n"
        '      status: "pass"\n'
        "verdict: PASS (<t> ms)\n")


def test_search_stopped_at_the_cap_exits_two(capsys):
    # With a cap of 0 the search stops before testing any bijection: no
    # counterexample was found, so this is a guard trip, not a failed check.
    T = H = json.dumps({"prod": [{"const": {"elements": ["p"]}}, "id"]})
    law = json.dumps({"monad": "writer:z2",
                      "family": {"name": "swap", "constant": {"elements": ["p"]}}})
    code, report = run_json(capsys, "commute", "search", "--T", T, "--H", H,
                            "--law", law, "--max-size", "1", "--search-cap", "0")
    assert code == 2
    assert report["error"] == "SearchCapReached"
    assert "--search-cap 0" in report["message"]
    assert "tried = 0" in report["message"]
    # The same search with room to finish finds sigma and exits 0.
    code, report = run_json(capsys, "commute", "search", "--T", T, "--H", H,
                            "--law", law, "--max-size", "1")
    assert code == 0
    assert report["result"]["status"] == "found"


_PQ = json.dumps({"prod": [{"const": {"elements": ["p", "q"]}}, "id"]})
_PQR = json.dumps({"prod": [{"const": {"elements": ["p", "q", "r"]}}, "id"]})


# The biproduct pair 1 + a x X and z2[*] x X^a, with sigma in closed form.
_WORDS_A = json.dumps({"coprod": [{"const": {"elements": ["*"]}},
                                  {"prod": [{"const": {"elements": ["a"]}}, "id"]}]})
_MOORE_A = json.dumps({"prod": [{"const": {"elements": [[0], [1]]}},
                                {"power": {"exponent": {"elements": ["a"]}, "body": "id"}}]})
_MOORE_LAW_A = json.dumps({"monad": "semimodule:z2",
                           "family": {"name": "moore", "alphabet": {"elements": ["a"]},
                                      "generators": {"elements": ["*"]}}})


def _swap(group, letters):
    return json.dumps({"monad": f"writer:z{group}",
                       "family": {"name": "swap", "constant": {"elements": letters}}})


@pytest.mark.parametrize("argv", (
    ("commute", "search", "--T", _PQ, "--H", _PQ, "--law", _swap(5, ["p", "q"]),
     "--max-size", "1"),
    ("commute", "search", "--T", _PQR, "--H", _PQR, "--law", _swap(3, ["p", "q", "r"]),
     "--max-size", "1"),
    ("commute", "check", json.dumps({"monad": "semimodule:z2",
                                     "partner": {"generators": {"elements": ["*"]},
                                                 "alphabet": {"elements": ["a"]}}}),
     "--max-size", "2"),
    ("check-distlaw", "em", "moore:z2:1letter", "--max-size", "2"),
    ("check-distlaw", "kl", "words:1letter:semimodule:z2", "--max-size", "3"),
    ("lemma1", "--law", "moore:z2:1letter", "--levels", "4"),
    ("lemma2", "--law", "moore:z2:1letter", "--levels", "4"),
    ("commute", "search", "--T", _WORDS_A, "--H", _MOORE_A, "--law", _MOORE_LAW_A,
     "--max-size", "2"),
), ids=("search-z5", "search-z3", "partner", "em-moore", "kl-words", "lemma1", "lemma2",
        "search-biproduct"))
def test_each_functor_is_evaluated_once_per_carrier(capsys, monkeypatch, argv):
    # A spy on every barrlab module's name for eval_functor, as the
    # benchmark's tracer installs it.  Evaluations are keyed by the functor's
    # value and the carrier's name and elements, so two equal instances that
    # each evaluate one carrier count as a repeat.
    import sys

    from barrlab import functors

    real, seen = functors.eval_functor, {}

    def spy(expr, X):
        seen.setdefault((expr, X.name, X), []).append(expr)
        return real(expr, X)

    for name, module in list(sys.modules.items()):
        if name.startswith("barrlab") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, spy)
    code, _ = run_json(capsys, *argv)
    assert code == 0
    assert seen
    again = {f"{exprs[0]}({name})": len(exprs) for (_, name, _), exprs in seen.items()
             if len(exprs) > 1}
    assert again == {}


def test_main_can_be_called_again_and_again(capsys):
    # One process, many calls: nothing a call parses may leak into the next.
    functor = ("--functor", "moore:z2:1letter", "--depth", "3")
    code, report = run_json(capsys, "chain", "inspect", *functor, "--level", "2")
    assert code == 0
    assert report["result"]["level"] == 2
    code, report = run_json(capsys, "chain", "build", *functor)
    assert code == 0
    assert "level" not in report["result"]

    partner = json.dumps({"monad": "semimodule:z2",
                          "partner": {"generators": {"elements": ["*"]},
                                      "alphabet": {"elements": ["a"]}}})
    code, report = run_json(capsys, "commute", "check", partner, "--max-size", "1")
    assert code == 0
    assert report["config"]["max_size"] == 1
    code, first = run_json(capsys, "commute", "check", partner)
    assert code == 0
    assert first["config"]["max_size"] == 3

    # A usage error between two good calls leaves the next report unchanged.
    with pytest.raises(SystemExit) as exc:
        main(["commute", "check", partner, "--max-size", "many"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, again = run_json(capsys, "commute", "check", partner)
    assert code == 0
    first.pop("timing_ms")
    again.pop("timing_ms")
    assert again == first


_AUTOMATON = {"states": ["s"], "alphabet": ["a"], "semiring": "bool",
              "output": {"s": 1}, "delta": {"s": {"a": "s"}}}
_SEMIRING = {"elements": [0], "add": {"0": {"0": 0}}, "mul": {"0": {"0": 0}},
             "zero": 0, "one": 0}
_TABLES = {"0": {"elements": [0], "unit": [], "mult": {"0": 0}}}


@pytest.mark.parametrize("argv, path", [
    (("check-monad", '{"tables": [1]}'), "monad.tables"),
    (("check-monad", json.dumps({"tables": {"0": dict(_TABLES["0"], mult=[1])}})),
     "monad.tables.0.mult"),
    (("check-monad", json.dumps({"tables": _TABLES, "maps": [
        {"dom": 0, "cod": 0, "values": [], "table": [1]}]})), "monad.maps[0].table"),
    (("check-monad", '{"builtin":"writer","monoid":{"elements":[0],"op":[1],"unit":0}}'),
     "monad.monoid.op"),
    (("check-monad", json.dumps({"builtin": "semimodule",
                                 "semiring": dict(_SEMIRING, add=[1])})),
     "monad.semiring.add"),
    (("check-monad", json.dumps({"builtin": "semimodule",
                                 "semiring": dict(_SEMIRING, mul=[1])})),
     "monad.semiring.mul"),
    (("check-distlaw", '{"monad":"maybe","functor":"id","components":[1]}'),
     "law.components"),
    (("commute", "check", '{"monad":"semimodule:z2","T":"id","H":"id","sigma":[1]}'),
     "candidate.sigma"),
    (("behavior", "--automaton", json.dumps(dict(_AUTOMATON, output=[1])), "--state", "s"),
     "automaton.output"),
    (("behavior", "--automaton", json.dumps(dict(_AUTOMATON, delta=[1])), "--state", "s"),
     "automaton.delta"),
    (("distance", "--left", '{"alphabet":["t"],"bound":2,"coefficients":[1]}',
      "--right", '{"alphabet":["t"],"bound":2}'), "left.coefficients"),
    (("limit", "--sequence",
      '{"polynomials": [{"alphabet":["t"],"semiring":"nat","terms":[1]}]}'),
     "polynomials[0].terms"),
    (("limit", "--sequence", '{"polynomials": 5}'), "polynomials"),
])
def test_non_objects_where_objects_belong_are_input_errors(capsys, argv, path):
    # A list or a number where a loader reads an object (or, for a sequence's
    # polynomials, an array) is bad input naming its path: exit 2, never a
    # traceback.
    code = main([*argv, "--max-size", "1", "--depth", "1", "--format", "json"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2
    assert report["error"] == "InputError"
    assert report["message"].startswith(f"{path}: expected an ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("make, reason", (
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(b"\xff\xfe{"), "can't decode byte 0xff"),
))
def test_an_unreadable_json_argument_is_an_input_error(capsys, tmp_path, make, reason):
    # A directory named like a document, or bytes that are not UTF-8, used to
    # end in an IsADirectoryError or UnicodeDecodeError traceback (exit 1).
    path = tmp_path / "x.json"
    make(path)
    code = main(["check-monad", str(path), "--format", "json"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2
    assert report["error"] == "InputError"
    assert report["message"].startswith(f"monad: cannot read {path}: ")
    assert reason in report["message"]
    assert "Traceback" not in captured.err


def _writer(elements, op, unit):
    """A writer monad document on a monoid given by its operation."""
    table = {json.dumps(a): {json.dumps(b): op(a, b) for b in elements} for a in elements}
    return json.dumps({"builtin": "writer",
                       "monoid": {"elements": elements, "op": table, "unit": unit}})


_PARTNER = json.dumps({"monad": "semimodule:z2", "partner": {
    "generators": {"elements": ["*"]}, "alphabet": {"elements": ["a"]}}})


# A table law over maybe with a component at X0 only.
_X0_ONLY = json.dumps({"monad": "maybe", "functor": "id",
                       "components": {"0": {json.dumps([0, "*"]): [0, "*"]}}})


@pytest.mark.parametrize("guard, argv, error, message", [
    (None, ("check-monad", "tests/golden/inputs/no-such-document.json"), "InputError",
     "monad: file not found: tests/golden/inputs/no-such-document.json"),
    (None, ("check-monad", '{"builtin": '), "InputError",
     "monad: invalid inline JSON: Expecting value: line 1 column 12 (char 11)"),
    ("abc", ("check-monad", "maybe", "--max-size", "1"), "InputError",
     "BARRLAB_BLOWUP_GUARD must be an integer, got 'abc'"),
    (None, ("check-distlaw", "em", "a", "b"), "InputError", "usage: check-distlaw [em|kl] LAW"),
    (None, ("density", "--n", "0"), "InputError",
     "density needs --functor SHORTHAND or --law DOC"),
    (None, ("check-distlaw", "em", _X0_ONLY, "--max-size", "1"), "MissingComponent",
     "table-law: no component at X1"),
    (None, ("check-distlaw", "kl", _X0_ONLY, "--max-size", "1"), "MissingComponent",
     "table-klaw: no component at X1"),
    (None, ("check-monad", "semimodule:z1"), "InputError",
     "monad.semiring: zmod needs modulus >= 2"),
    (None, ("check-monad", "writer:z0"), "InputError", "monad.monoid: cyclic group needs m >= 1"),
    (None, ("limit", "--sequence", '{"polynomials": []}', "--depth", "2"), "InputError",
     "empty polynomial sequence"),
    (None, ("limit", "--sequence", '{"terms": {}}', "--depth", "2"), "InputError",
     "sequence document needs a 'polynomials' array"),
    (None, ("check-monad", _writer([0, 1], lambda a, b: a ^ b, 2)), "InputError",
     "monad.monoid: unit 2 not an element"),
    (None, ("check-monad", _writer([0, 1, 2], lambda a, b: ((0, 1, 2), (1, 2, 2), (2, 1, 0))[a][b],
                                   0)),
     "InputError", "monad.monoid: not associative at (1, 1, 1)"),
    (None, ("check-monad", "BAD.json"), "InputError",
     "monad: BAD.json: invalid JSON: Expecting value: line 1 column 13 (char 12)"),
    (None, ("check-monad", '{"name": "m"}'), "InputError",
     "monad: monad document needs 'builtin' or 'tables'"),
    (None, ("check-monad", '{"tables": {"x": {"elements": [], "unit": []}}}'), "InputError",
     "monad.tables: carrier keys are sizes, got 'x'"),
    (None, ("check-monad", '{"tables": {"1": {"elements": [[0, "*"], [1, 0]], "unit": []}}}'),
     "InputError", "monad.tables.1: unit must list 1 values"),
    (None, ("behavior", "--automaton", json.dumps({
        "states": ["s"], "alphabet": ["a"], "semiring": "nat", "output": {"s": 1},
        "delta": {"s": {"a": "s"}}}), "--state", "s"), "InputError",
     "automaton: outputs need a finite carrier"),
    (None, ("check-distlaw", "kl", '{"monad": "maybe", "family": {"name": "bogus"}}'),
     "InputError", "law: unknown kleisli family 'bogus'"),
    (None, ("check-distlaw", json.dumps({"monad": "maybe", "family": {
        "name": "moore", "alphabet": {"elements": ["a"]}}})), "InputError",
     "law: the moore family needs a semimodule monad"),
    (None, ("check-distlaw", json.dumps({"monad": "maybe", "family": {
        "name": "swap", "constant": {"elements": ["p"]}}})), "InputError",
     "law: the swap family needs a writer monad"),
    (None, ("commute", "check", _PARTNER, "--law", "moore:z2:2letters"), "DomainMismatch",
     "distributive law is for a different functor"),
])
def test_other_bad_inputs_exit_two(capsys, tmp_path, monkeypatch, guard, argv, error, message):
    # A missing file, broken inline JSON, a guard that is no integer, a usage
    # error, a density with no law, and a table law with no component at a
    # carrier under --max-size, in either direction.  Then shorthands whose
    # size is out of range, malformed sequence, monoid, monad and automaton
    # documents, invalid JSON in a file, families the monad cannot carry,
    # and a commuting candidate checked against a law for another functor.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BAD.json").write_text('{"builtin": ')
    if guard is not None:
        monkeypatch.setenv("BARRLAB_BLOWUP_GUARD", guard)
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert (report["error"], report["message"]) == (error, message)


@pytest.mark.parametrize("argv", (
    ("check-distlaw", "moore:z2:27letters", "--max-size", "0"),
    ("check-distlaw", "kl", "words:30letters:maybe", "--max-size", "0"),
    ("chain", "build", "--functor", "moore:z2:27letters", "--depth", "1"),
))
def test_a_shorthand_above_26_letters_is_an_input_error(capsys, argv):
    # The standard alphabet is a to z: 27 or 30 letters used to load as 26
    # and exit 0.
    code, report = run_json(capsys, *argv)
    n = re.search(r"(\d+)letters", " ".join(argv)).group(1)
    assert code == 2
    assert report["error"] == "InputError"
    assert report["message"] == f"{n} letters: the standard alphabet has at most 26 (a to z)"


@pytest.mark.parametrize("monad, size", (
    ("writer:z101", "1030301"), ("writer:z200", "8000000"), ("writer:s5", "(5!)^3")))
def test_a_group_shorthand_with_too_many_triples_exits_two(capsys, monad, size):
    # Associativity is checked on all |G|^3 triples: writer:z200 used to run
    # 8 * 10^6 of them and exit 0 after seconds, s5 about 1.7 * 10^6.  Under
    # the default guard (10^6) z100 and s4 are the largest that load.
    code, report = run_json(capsys, "check-monad", monad, "--max-size", "1")
    group = monad.split(":")[1].upper()
    assert code == 2
    assert report["error"] == "BlowUpGuard"
    assert report["message"] == (f"enumeration of {size} elements exceeds the guard "
                                 f"(1000000) while checking {group} for associativity")


def test_jobs_is_not_a_flag(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["words", "--jobs", "1"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --jobs 1" in capsys.readouterr().err


# Documented document forms that no other test reaches.

def test_the_constant_law_family_passes(capsys):
    law = {"monad": "semimodule:z2", "family": {"name": "constant",
                                                "algebra": {"free_on": "X1"}}}
    code, report = run_json(capsys, "check-distlaw", json.dumps(law), "--max-size", "2")
    assert code == 0
    assert report["result"]["subject"] == (
        "distributive law const[free(X1)/semimodule[z2]]")
    assert {c["law"] for c in report["result"]["checks"]} == {
        "unit-axiom", "mult-axiom", "naturality"}


@pytest.mark.parametrize("monad", ("maybe", "powerset", "semimodule:z2", "writer:s3"))
def test_a_terminal_algebra_passes_the_algebra_laws(capsys, monad):
    code, report = run_json(capsys, "check-algebra",
                            json.dumps({"monad": monad, "terminal": True}))
    assert code == 0
    assert [c["status"] for c in report["result"]["checks"]] == ["pass", "pass"]


def test_a_composite_functor_builds_its_chain(capsys):
    product = {"prod": [{"const": ["p", "q"]}, "id"]}
    for functor, sizes in (({"compose": [product, "id"]}, [1, 2, 4]),
                           ({"compose": [product, product]}, [1, 4, 16])):
        code, report = run_json(capsys, "chain", "build", "--functor", json.dumps(functor),
                                "--depth", "2")
        assert code == 0
        assert report["result"]["level_sizes"] == sizes


def test_an_automaton_with_outputs_instead_of_a_semiring(capsys):
    automaton = {"states": ["s", "t"], "alphabet": ["a"], "outputs": ["x", "y"],
                 "output": {"s": "x", "t": "y"}, "delta": {"s": {"a": "t"}, "t": {"a": "s"}}}
    code, report = run_json(capsys, "behavior", "--automaton", json.dumps(automaton),
                            "--state", "s", "--depth", "3")
    assert code == 0
    assert report["result"]["coefficients"] == {"": "x", "a": "y", "aa": "x"}


_MOORE = {"states": ["s", "t"], "alphabet": ["a"], "semiring": "bool",
          "output": {"s": 1, "t": 0}, "delta": {"s": {"a": "t"}, "t": {"a": "s"}}}


@pytest.mark.parametrize("change, message", (
    ({"output": {"s": 1}}, "no output for state 't'"),
    ({"delta": {"s": {"a": "t"}, "t": {}}}, "no transition for ('t', 'a')"),
    ({"output": {"s": 1, "t": 2}}, "output 2 of 't' not in bool"),
    ({"delta": {"s": {"a": "t"}, "t": {"a": 7}}}, "transition from 't' leaves the state set"),
))
def test_an_incomplete_automaton_exits_two(capsys, change, message):
    code, report = run_json(capsys, "behavior", "--automaton", json.dumps({**_MOORE, **change}),
                            "--state", "s")
    assert code == 2
    assert report["error"] == "DomainMismatch"
    assert report["message"] == message


@pytest.mark.parametrize("fmt", ("json", "text"))
@pytest.mark.parametrize("argv", (
    ("check-monad", "[" * 20000 + "]" * 20000),
    ("chain", "inspect", "--functor", json.dumps({"prod": [{"const": {"elements": ["c"]}}, "id"]}),
     "--depth", "1200", "--level", "1200"),
    ("density", "--functor", "pointed:1:maybe", "--depth", "1200", "--n", "3"),
), ids=("nested-document", "deep-chain-elements", "deep-density-point"))
def test_a_recursion_error_exits_two(capsys, argv, fmt):
    # Reading a document nested 20000 deep, and writing elements that nest
    # as deep as the chain, exhaust Python's stack: each used to end in a
    # RecursionError traceback and exit 1.  On Python 3.10 and 3.11 json's
    # C encoder counts its levels against the recursion limit (1000).
    code = main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    message = "the input or the result nests too deeply (Python's recursion limit)"
    if fmt == "json":
        report = json.loads(captured.out)
        assert (report["error"], report["message"]) == ("InputError", message)
    else:
        assert captured.out.endswith(f"error [InputError]: {message}\n")
    assert "Traceback" not in captured.err


def test_distance_reads_a_key_that_a_greedy_split_reads_as_a_longer_word(capsys):
    # Over these letters "abcd" is the word (a, bcd), which dump_series
    # writes; the greedy split (ab, c, d) is above the bound.  The two
    # series differ at that word, of length 2.
    left = {"alphabet": ["a", "ab", "bcd", "c", "d"], "bound": 3, "coefficients": {"abcd": 1}}
    right = dict(left, coefficients={})
    code, report = run_json(capsys, "distance", "--left", json.dumps(left),
                            "--right", json.dumps(right))
    assert code == 0
    assert report["result"] == {"agree_depth": 2}



@pytest.mark.parametrize("fmt", ("json", "text"))
def test_a_density_point_500_deep_is_written(capsys, fmt):
    # The point and its approximant nest 500 deep; json writes them with no
    # Python frame per level.
    code, out = run(capsys, "density", "--functor", "pointed:1:maybe", "--depth", "500",
                    "--n", "3", "--format", fmt)
    assert code == 0
    if fmt == "json":
        assert out.count("\n") == 1
        report = json.loads(out)
        assert report["passed"] and report["result"]["projection_matches"]
        assert json.dumps(report["result"]["point"]).count("[") == 500
    else:
        assert "verdict: PASS" in out


# Every skip reason has one form: the size, where it is known and printable,
# next to the guard.
SKIP_REASON = re.compile(r"^\|[^|]+\| (= \d+ )?> guard \d+$")


@pytest.mark.parametrize("guard, argv, detail", (
    # |H X2| = 4 and |M(H X2)| = 16, above a guard of 8: the tower (65536)
    # is not computed.  At X1 the top step is the first above the guard.
    ("8", ("check-distlaw", "moore:z2:1letter", "--max-size", "2"),
     {("mult-axiom", "X1"): "|MM(H X1)| = 16 > guard 8",
      ("mult-axiom", "X2"): "|MM(H X2)| > guard 8",
      **{("naturality", f"X2->X{n}"): "|M(H X2)| = 16 > guard 8" for n in range(3)}}),
    ("8", ("check-algebra", json.dumps({"monad": "semimodule:z2", "free_on": "X1"})),
     {("multiplication-law", "semimodule[z2](X1)"): "|MM(semimodule[z2](X1))| = 16 > guard 8"}),
    # Powerset on X2: 4, 16, 65536; the associativity skip used to say 16.
    ("10", ("check-monad", "powerset", "--max-size", "2"),
     {("mult-associativity", "X1"): "|MMMX| = 16 > guard 10",
      ("mult-associativity", "X2"): "|MMMX| > guard 10",
      **{("mult-naturality", f"X2->X{n}"): "|MMX| = 16 > guard 10" for n in range(3)}}),
    # |MM(M X3)| = 2^256, too large to print: it used to read "= > 1000000".
    ("1000000", ("check-algebra", json.dumps({"monad": "semimodule:z2", "free_on": "X3"})),
     {("multiplication-law", "semimodule[z2](X3)"): "|MM(semimodule[z2](X3))| > guard 1000000"}),
    # Four letters: |H X2| = 2 * 2^4 = 32, so |M(H X2)| = 2^32 is above the
    # guard and |MM(H X2)| = 2^(2^32) is not computed (the skip once printed
    # 2^32 as its size).  Naturality's skip used to give no size.
    ("1000000", ("check-distlaw", "moore:z2:4letters", "--max-size", "2"),
     {("mult-axiom", "X2"): "|MM(H X2)| > guard 1000000",
      **{("naturality", f"X2->X{n}"): "|M(H X2)| = 4294967296 > guard 1000000"
         for n in range(3)}}),
    # |H(M X_n)| = 2 * 2^n; the algebra square's skip used to give no size.
    ("8", ("commute", "check", json.dumps(
        {"monad": "semimodule:z2", "partner": {"generators": {"elements": ["*"]},
                                               "alphabet": {"elements": ["a"]}}}),
           "--max-size", "2"),
     {("algebra-square", "X1"): "|M(H(M X1))| = 16 > guard 8",
      ("algebra-square", "X2"): "|M(H(M X2))| = 256 > guard 8"}),
    # The Kleisli mult axiom enumerates T(M(M X1)), 1 + 4 elements: it is
    # skipped by that size, where it used to stop the run with BlowUpGuard.
    ("4", ("check-distlaw", "kl", "words:1letter:semimodule:z2", "--max-size", "1"),
     {("mult-axiom", "X1"): "|T(MM X1)| = 5 > guard 4"}),
))
def test_a_tower_above_the_guard_prints_its_size_or_the_guard(capsys, monkeypatch, guard,
                                                              argv, detail):
    monkeypatch.setenv("BARRLAB_BLOWUP_GUARD", guard)
    code, report = run_json(capsys, *argv)
    assert code == 0
    got = {(c["law"], c["instance"]): c["detail"] for c in report["result"]["checks"]
           if c["status"] == "skipped"}
    assert got == detail
    assert all(SKIP_REASON.match(reason) for reason in got.values()), got
