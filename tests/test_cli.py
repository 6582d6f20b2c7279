import json

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
