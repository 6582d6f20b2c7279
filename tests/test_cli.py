import json
import re

import pytest

from barrlab.cli import main
from cli_cases import MOORE_A, MOORE_LAW_A, PRODUCT_PQ, WORDS_A, partner, swap


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_check_distlaw_and_diff_liftings(capsys):
    code, _ = run(capsys, "check-distlaw", "em", "gset-s3-conj", "--max-size", "2")
    assert code == 0
    code, report = run_json(capsys, "diff-liftings", "gset-s3", "--max-size", "1")
    assert code == 0
    assert report["result"]["liftings_differ"] is True
    assert report["result"]["witness"] is not None


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


def test_reports_are_byte_identical_modulo_timing(capsys):
    _, first = run_json(capsys, "check-monad", "powerset", "--seed", "5")
    _, second = run_json(capsys, "check-monad", "powerset", "--seed", "5")
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_anamorphism_builds_the_chain_to_the_level_only(capsys):
    # At the default --depth 8 the two-letter chain passes the blow-up guard
    # at level 5; the leg at level 2 needs only levels 0-2.
    argv = ("anamorphism", "--automaton", "tests/golden/inputs/automaton-z2-2letter.json",
            "--state", "s0", "--level", "2")
    code, report = run_json(capsys, *argv)
    assert code == 0
    _, shallow = run_json(capsys, *argv, "--depth", "2")
    assert report["result"] == shallow["result"]


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


def test_flags_before_a_commute_mode_are_usage_errors(capsys):
    # A flag before the mode used to be overwritten by the mode's default
    # (this ran at --max-size 3); it is now an argparse usage error that
    # names the flag and says where it goes (the case "commute, flag before
    # the mode").  The same flag after the mode is read.
    with pytest.raises(SystemExit) as exc:
        main(["commute", "--format=json", "search", "--T", "id"])
    assert exc.value.code == 2
    assert "--format is given before the mode" in capsys.readouterr().err
    code, report = run_json(capsys, "commute", "check", json.dumps(partner(["a"])),
                            "--max-size", "1")
    assert code == 0
    assert report["config"]["max_size"] == 1
    assert len(report["result"]["checks"]) == 10


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


_PQR = {"prod": [{"const": {"elements": ["p", "q", "r"]}}, "id"]}


@pytest.mark.parametrize("argv", (
    ("commute", "search", "--T", PRODUCT_PQ, "--H", PRODUCT_PQ, "--law", swap(5, ["p", "q"]),
     "--max-size", "1"),
    ("commute", "search", "--T", _PQR, "--H", _PQR, "--law", swap(3, ["p", "q", "r"]),
     "--max-size", "1"),
    ("commute", "check", partner(["a"]), "--max-size", "2"),
    ("check-distlaw", "em", "moore:z2:1letter", "--max-size", "2"),
    ("check-distlaw", "kl", "words:1letter:semimodule:z2", "--max-size", "3"),
    ("lemma1", "--law", "moore:z2:1letter", "--levels", "4"),
    ("lemma2", "--law", "moore:z2:1letter", "--levels", "4"),
    ("commute", "search", "--T", WORDS_A, "--H", MOORE_A, "--law", MOORE_LAW_A,
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
    code, _ = run_json(capsys, *(a if isinstance(a, str) else json.dumps(a) for a in argv))
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

    cand = json.dumps(partner(["a"]))
    code, report = run_json(capsys, "commute", "check", cand, "--max-size", "1")
    assert code == 0
    assert report["config"]["max_size"] == 1
    code, first = run_json(capsys, "commute", "check", cand)
    assert code == 0
    assert first["config"]["max_size"] == 3

    # A usage error between two good calls leaves the next report unchanged.
    with pytest.raises(SystemExit) as exc:
        main(["commute", "check", cand, "--max-size", "many"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, again = run_json(capsys, "commute", "check", cand)
    assert code == 0
    first.pop("timing_ms")
    again.pop("timing_ms")
    assert again == first


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
    ("8", ("commute", "check", json.dumps(partner(["a"])), "--max-size", "2"),
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


def test_any_other_exception_exits_3_with_the_error_payload(capsys, monkeypatch):
    import barrlab.cli as cli

    def broken(args):
        raise ValueError("a fault inside a command")

    monkeypatch.setitem(cli.COMMANDS, "words", (broken, cli.COMMANDS["words"][1]))
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    code = main(["words", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 3
    lines = captured.out.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["error"], payload["message"]) == ("ValueError", "a fault inside a command")
    assert "Traceback" not in captured.err
    assert main(["words"]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "error [ValueError]: a fault inside a command")
