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


def test_density_subcommand(capsys):
    code, report = run_json(capsys, "density", "--functor", "moore:z2:1letter",
                            "--depth", "8", "--n", "3")
    assert code == 0
    assert report["result"]["projection_matches"] is True


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
))
def test_sizes_in_a_shorthand_are_guarded_before_listing(capsys, monkeypatch, argv):
    # A few digits name N outputs or N errors: N is checked against the guard
    # before the N elements are listed, so a large N exits 2 instead of
    # running out of memory.
    monkeypatch.setenv("BARRLAB_BLOWUP_GUARD", "10")
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["error"] == "BlowUpGuard"
    assert report["message"].startswith("enumeration of 11 elements exceeds the guard (10)")


def test_unparsable_word_keys_exit_two(capsys):
    # A 1200-letter key used to end in a RecursionError, and an ambiguous
    # alphabet with no split used to backtrack without end.
    long_key = {"alphabet": ["t"], "bound": 3, "coefficients": {"t" * 1200: 1}}
    no_split = {"alphabet": ["a", "aa", "aaa"], "bound": 3,
                "coefficients": {"a" * 60 + "b": 1}}
    for doc, message in ((long_key, "series.coefficients: word "),
                         (no_split, "cannot parse word ")):
        code, report = run_json(capsys, "distance", "--left", json.dumps(doc),
                                "--right", json.dumps(doc))
        assert code == 2
        assert report["error"] == "InputError"
        assert report["message"].startswith(message)


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
             "series.bound: expected an integer, got 'x'"),
            (("distance", "--left", json.dumps(dict(series, bound=-1)),
              "--right", json.dumps(series)),
             "series.bound: must be >= 0, got -1"),
            (("limit", "--sequence", json.dumps({"polynomials": [poly, poly],
                                                 "modulus": [0, "x"]}), "--depth", "2"),
             "modulus[1]: expected an integer, got 'x'"),
            (("limit", "--sequence", json.dumps({"polynomials": [poly], "modulus": [0]}),
              "--depth", "2"),
             "modulus: expected an array with an entry for each word length below "
             "--depth 2")):
        code, report = run_json(capsys, *argv, "--max-size", "1")
        assert code == 2, argv
        assert report["error"] == "InputError", argv
        assert report["message"] == message


def test_malformed_documents_are_input_errors(capsys):
    # a missing key is bad input (exit 2), never a counterexample (exit 1)
    for argv, path in ((("check-distlaw", '{"family":"identity"}'), "law"),
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
