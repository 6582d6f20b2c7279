"""The command line's exit-code contract, as one table of cases.

Each case runs `barrlab ARGV` and names the exit code it must end with:
0 when every check passed, 1 for a counterexample, 2 for bad input or a
guard trip.  A case may also name a fragment that stdout or stderr must
hold (a fragment that ends in a newline must end one of them), environment
variables to set, and files to create in a fresh temporary working
directory; a case with no files runs in the root of the repository.
Documents are Python values written with `json.dumps`, or files under
tests/golden/inputs.

The table is run two ways, with the same checks (`problems`):

    python -m pytest tests/test_cli_cases.py   # in-process, through cli.main
    python tools/run_cases.py                  # each case as a real process

Beyond its exit code and fragment, no case may print a traceback, and a case
run with `--format json` must print exactly one line that `json.loads`
reads.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import NamedTuple, Optional, Union

from barrlab.cli import COMMANDS

INPUTS = "tests/golden/inputs/"
JSON = ("--format", "json")


class Case(NamedTuple):
    label: str
    argv: tuple
    code: int
    out: str = ""
    env: Optional[dict] = None
    # name -> contents; None makes a directory.
    files: Optional[dict[str, Union[str, bytes, None]]] = None


def case(code: int, label: str, *argv, out="", env=None, files=None) -> Case:
    """A case; each argument that is not a string is written with json.dumps."""
    return Case(label, tuple(a if isinstance(a, str) else json.dumps(a) for a in argv),
                code, out, env, files)


def error(kind: str, message: str, whole=True) -> str:
    """The end of a --format json error payload naming kind and message (or,
    with whole=False, a message that starts so)."""
    tail = json.dumps({"error": kind, "message": message})[1:-1]
    return tail if whole else tail[:-1]


def text_error(kind: str, message: str, whole=True) -> str:
    """The last line of a --format text error (or its start, with whole=False)."""
    return f"error [{kind}]: {message}" + ("\n" if whole else "")


def make_files(case: Case, directory: Path) -> None:
    for name, contents in (case.files or {}).items():
        path = directory / name
        if contents is None:
            path.mkdir()
        else:
            path.write_bytes(contents.encode() if isinstance(contents, str) else contents)


def problems(case: Case, code: int, out: str, err: str) -> list[str]:
    """What a run of case that exited with code and printed out and err got
    wrong; empty when it kept the contract."""
    found = []
    if code != case.code:
        found.append(f"exit {code}, want {case.code}")
    if case.out.endswith("\n") and not (out.endswith(case.out) or err.endswith(case.out)):
        found.append(f"stdout and stderr do not end with {case.out!r}")
    elif case.out not in out + err:
        found.append(f"no {case.out!r} in the output")
    if "Traceback" in err:
        found.append("a traceback on stderr")
    if any(pair == JSON for pair in zip(case.argv, case.argv[1:])):
        lines = out.splitlines()
        if len(lines) != 1 or not out.endswith("\n"):
            found.append(f"{len(lines)} lines on stdout, want 1")
        else:
            try:
                json.loads(out)
            except ValueError:
                found.append("stdout is not JSON")
    return found


def command(case: Case) -> Optional[str]:
    """The subcommand a case runs, with its mode for `commute`."""
    name = case.argv[0]
    spec = COMMANDS.get(name)
    if isinstance(spec, dict):
        return f"{name} {next((a for a in case.argv[1:] if a in spec), None)}"
    return name


# ---------------------------------------------------------------------------
# Documents

BROKEN_LAW = {"monad": "maybe", "functor": "id", "components": {
    "0": {'[0, "*"]': [0, "*"]}, "1": {'[0, "*"]': [0, "*"], "[1, 0]": [0, "*"]}}}
# T = H = Id over maybe with the identity as sigma at X0 and X1.
IDENTITY_PAIR = {"monad": "maybe", "T": "id", "H": "id", "sigma": {
    "0": {'[0, "*"]': [0, "*"]}, "1": {'[0, "*"]': [0, "*"], "[1, 0]": [1, 0]}}}
# A table law over maybe with a component at X0 only.
X0_ONLY_LAW = {"monad": "maybe", "functor": "id", "components": {"0": {'[0, "*"]': [0, "*"]}}}
IDENTITY_LAW = {"monad": "maybe", "family": "identity"}
PRODUCT = {"prod": [{"const": {"elements": ["p"]}}, "id"]}
PRODUCT_PQ = {"prod": [{"const": {"elements": ["p", "q"]}}, "id"]}
BOGUS_FACTOR = {"prod": ["id", "bogus"]}


def swap(group: int, letters: list) -> dict:
    return {"monad": f"writer:z{group}", "family": {"name": "swap",
                                                     "constant": {"elements": letters}}}


def partner(letters: list) -> dict:
    return {"monad": "semimodule:z2", "partner": {"generators": {"elements": ["*"]},
                                                  "alphabet": {"elements": letters}}}


# The biproduct pair 1 + a x X and z2[*] x X^a, with sigma in closed form.
WORDS_A = {"coprod": [{"const": {"elements": ["*"]}},
                      {"prod": [{"const": {"elements": ["a"]}}, "id"]}]}
MOORE_A = {"prod": [{"const": {"elements": [[0], [1]]}},
                    {"power": {"exponent": {"elements": ["a"]}, "body": "id"}}]}
MOORE_LAW_A = {"monad": "semimodule:z2", "family": {
    "name": "moore", "alphabet": {"elements": ["a"]}, "generators": {"elements": ["*"]}}}


def one_state(alphabet: list, **fields) -> dict:
    return {"states": ["s"], "alphabet": alphabet, "semiring": "bool", "output": {"s": 1},
            "delta": {"s": {a: "s" for a in alphabet}}, **fields}


# States 0 and 1, written "0" and "1" as the document's keys.
INT_STATES = {"states": [0, 1], "alphabet": ["a"], "semiring": "bool",
              "output": {"0": 1, "1": 0}, "delta": {"0": {"a": 1}, "1": {"a": 0}}}
TWO_STATES = {"states": ["s", "t"], "alphabet": ["a"], "semiring": "bool",
              "output": {"s": 1, "t": 0}, "delta": {"s": {"a": "t"}, "t": {"a": "s"}}}
AUTOMATON_Z2 = INPUTS + "automaton-z2-2letter.json"
POLY = {"alphabet": ["t"], "semiring": "nat", "terms": {"": 1}}
T_SERIES = {"alphabet": ["t"], "bound": 2}
AA_SERIES = {"alphabet": ["a", "aa"], "bound": 3}
# No split of the key into a, aa and aaa reads it: a parser that
# backtracks over every split runs without end.
NO_SPLIT = {"alphabet": ["a", "aa", "aaa"], "bound": 3, "coefficients": {"a" * 60 + "b": 1}}
ABCD_SERIES = {"alphabet": ["a", "ab", "bcd", "c", "d"], "bound": 3, "coefficients": {"abcd": 1}}
SEMIRING_Z2 = {"elements": [0, 1], "zero": 0, "one": 1,
               "add": {"0": {"0": 0, "1": 1}, "1": {"0": 1, "1": 0}},
               "mul": {"0": {"0": 0, "1": 0}, "1": {"0": 0, "1": 1}}}
SEMIRING_0 = {"elements": [0], "add": {"0": {"0": 0}}, "mul": {"0": {"0": 0}},
              "zero": 0, "one": 0}
TABLES_0 = {"0": {"elements": [0], "unit": [], "mult": {"0": 0}}}


def golden(name: str) -> dict:
    return json.loads((Path(__file__).parent / "golden" / "inputs" / name).read_text())


# The broken-mult maybe tables with one entry of the arrow table of a map
# X1 -> X1 left out (PARTIAL_MAP) or sent outside M X1 (STRAY_MAP); the
# broken-map-identity tables with mult's entry at (1, 1) left out
# (PARTIAL_MULT) or sent outside M X1 (STRAY_MULT), or a unit value outside
# M X1 (STRAY_UNIT).
BROKEN_MULT = golden("maybe-tables-broken-mult.json")
MAP_11 = next(i for i, e in enumerate(BROKEN_MULT["maps"]) if (e["dom"], e["cod"]) == (1, 1))
PARTIAL_MAP, STRAY_MAP, BAD_DOM = (golden("maybe-tables-broken-mult.json") for _ in range(3))
del PARTIAL_MAP["maps"][MAP_11]["table"]["[1, 0]"]
STRAY_MAP["maps"][MAP_11]["table"]["[1, 0]"] = [1, 1]
BAD_DOM["maps"][0]["dom"] = "q"
PARTIAL_MULT, STRAY_MULT, STRAY_UNIT = (golden("maybe-tables-broken-map-identity.json")
                                        for _ in range(3))
del PARTIAL_MULT["tables"]["1"]["mult"]["[1, 1]"]
STRAY_MULT["tables"]["1"]["mult"]["[1, 1]"] = [1, 9]
STRAY_UNIT["tables"]["1"]["unit"] = [[1, 7]]


def writer_doc(elements: list, op, unit, **monoid) -> dict:
    """A writer monad document on a monoid given by its operation."""
    table = {json.dumps(a): {json.dumps(b): op(a, b) for b in elements} for a in elements}
    return {"builtin": "writer",
            "monoid": {"elements": elements, "op": table, "unit": unit, **monoid}}


def collision(alphabet: list, key: str, path="series") -> str:
    return (f"{path}: more than one word over the alphabet {alphabet} serializes "
            f"to the key {key!r}")


RECURSION = "the input or the result nests too deeply (Python's recursion limit)"
NESTED_DOCUMENT = "[" * 20000 + "]" * 20000
DEEP_CHAIN = ("chain", "inspect", "--functor", {"prod": [{"const": {"elements": ["c"]}}, "id"]},
              "--depth", "1200", "--level", "1200")
DEEP_DENSITY = ("density", "--functor", "pointed:1:maybe", "--depth", "1200", "--n", "3")
GUARD_10 = {"BARRLAB_BLOWUP_GUARD": "10"}
MACHINE = INPUTS + "machine.json"


def deep_result(label: str, *argv) -> Case:
    """A run whose result nests 1200 deep.  On Python 3.10 and 3.11 json's C
    encoder counts each level against the recursion limit, so the result is
    too deep to write and the run exits 2; from 3.12 it does not, and the
    run writes the result and passes."""
    as_json = any(pair == JSON for pair in zip(argv, argv[1:]))
    if sys.version_info >= (3, 12):
        return case(0, label, *argv, out='"passed": true' if as_json else "verdict: PASS")
    write = error if as_json else text_error
    return case(2, label, *argv, out=write("InputError", RECURSION))


# ---------------------------------------------------------------------------
# The cases

CASES = [
    # Each subcommand on good input, on bad input, past a guard, and on a law
    # that fails.
    case(0, "check-monad maybe", "check-monad", "maybe", "--max-size", "2"),
    case(0, "check-monad maybe at --max-size 3", "check-monad", "maybe", "--max-size", "3",
         out="verdict: PASS"),
    case(0, "check-monad maybe at --max-size 5, past the full scan's reach", "check-monad",
         "maybe", "--max-size", "5", *JSON, out='"passed": true'),
    case(1, "check-distlaw em, broken law", "check-distlaw", "em", BROKEN_LAW,
         "--max-size", "1", out="verdict: FAIL"),
    case(2, "commute search at --search-cap 0", "commute", "search", "--T", PRODUCT,
         "--H", PRODUCT, "--law", swap(2, ["p"]), "--max-size", "1", "--search-cap", "0",
         out=text_error("SearchCapReached", "commute search stopped at --search-cap 0 with "
                                            "tried = 0 and no verdict")),
    case(0, "commute search with room to finish", "commute", "search", "--T", PRODUCT,
         "--H", PRODUCT, "--law", swap(2, ["p"]), "--max-size", "1", *JSON,
         out='"status": "found"'),
    case(0, "commute search at --max-size 2", "commute", "search", "--T", PRODUCT_PQ,
         "--H", PRODUCT_PQ, "--law", swap(3, ["p", "q"]), "--max-size", "2",
         "--search-cap", "1000000"),
    case(2, "check-monad, partial arrow table", "check-monad", PARTIAL_MAP, "--max-size", "2",
         out=text_error("InputError", f"monad.maps[{MAP_11}].table: no value for (1, 0)")),
    case(2, "check-monad, arrow table value outside M(cod)", "check-monad", STRAY_MAP,
         "--max-size", "2", *JSON,
         out=error("InputError", f"monad.maps[{MAP_11}].table: value (1, 1) of (1, 0) is not "
                                 "an element of monad.tables.1")),
    case(1, "check-monad, broken mult tables", "check-monad", BROKEN_MULT, "--max-size", "1"),
    case(2, "check-monad, partial mult table", "check-monad", PARTIAL_MULT, "--max-size", "1",
         out=text_error("InputError", "monad.tables.1.mult: no value for (1, 1)")),
    case(2, "check-monad, unit value outside M X1", "check-monad", STRAY_UNIT,
         "--max-size", "1", *JSON,
         out=error("InputError", "monad.tables.1.unit: value (1, 7) of 0 is not an element "
                                 "of monad.tables.1")),
    case(2, "check-monad, mult value outside M X1", "check-monad", STRAY_MULT,
         "--max-size", "1", *JSON,
         out=error("InputError", "monad.tables.1.mult: value (1, 9) of (1, 1) is not an "
                                 "element of monad.tables.1")),
    case(2, "commute, flag before the mode", "commute", "--max-size", "1", "check",
         partner(["a"]), out="barrlab commute: error: --max-size is given before the mode; "
                             "flags follow the mode, as in: commute check|search ... "
                             "--max-size VALUE"),
    case(0, "anamorphism, two letters, level 2", "anamorphism", "--automaton", AUTOMATON_Z2,
         "--state", "s0", "--level", "2"),
    case(2, "anamorphism, level -1", "anamorphism", "--automaton", AUTOMATON_Z2,
         "--state", "s0", "--level", "-1",
         out=text_error("InputError", "--level must be >= 0, got -1")),
    case(2, "chain inspect, level 7 of a depth-3 chain", "chain", "inspect", "--functor",
         "moore:z2:1letter", "--depth", "3", "--level", "7",
         out=text_error("InputError", "--level must be in 0..3 (--depth), got 7")),
    case(2, "chain build, --level 7", "chain", "build", "--functor", "id", "--depth", "3",
         "--level", "7",
         out=text_error("InputError", "--level is read only by chain inspect, not chain build")),
    # Levels are built on first read, so a deep chain of one-element levels
    # is read in a loop, and a level above --level still trips the guard.
    case(0, "chain inspect, level 2500 of a depth-3000 identity chain", "chain", "inspect",
         "--functor", "id", "--depth", "3000", "--level", "2500"),
    case(2, "chain inspect, moore:z2:2letters past the guard above --level", "chain",
         "inspect", "--functor", "moore:z2:2letters", "--depth", "6", "--level", "1",
         out=text_error("BlowUpGuard", "enumeration of 2147483648 elements exceeds the guard "
                        "(1000000) while evaluating (z2*(X^A)) on (z2*(X^A))((z2*(X^A))("
                        "(z2*(X^A))((z2*(X^A))(1))))")),
    case(2, "distance, 1200-letter word key", "distance",
         "--left", {"alphabet": ["t"], "bound": 3, "coefficients": {"t" * 1200: 1}},
         "--right", {"alphabet": ["t"], "bound": 3, "coefficients": {"t" * 1200: 1}},
         out=text_error("InputError", "left.coefficients: word ", whole=False)),
    case(2, "limit, non-integer modulus entry", "limit",
         "--sequence", {"polynomials": [POLY, POLY], "modulus": [0, "x"]}, "--depth", "2",
         out=text_error("InputError", "modulus[1]: expected an integer, got 'x'")),
    case(2, "limit, unparsable key in the last polynomial", "limit", "--sequence",
         {"polynomials": [POLY, POLY, dict(POLY, terms={"x": 1})]}, "--depth", "2"),
    case(0, "lift pointed:4:maybe on the free maybe algebra on X4", "lift", "pointed:4:maybe",
         '{"monad": "maybe", "free_on": "X4"}', *JSON),
    # Level 5 of the two-letter chain is past the blow-up guard: the state is
    # checked before the chain is built.
    case(2, "anamorphism, unknown state at level 5", "anamorphism", "--automaton",
         AUTOMATON_Z2, "--state", "nosuch", "--level", "5", "--depth", "5",
         out=text_error("InputError", "state 'nosuch' not in the automaton")),
    case(2, "distance, two-letter series of bound 40", "distance",
         "--left", {"alphabet": ["a", "b"], "bound": 40},
         "--right", {"alphabet": ["a", "b"], "bound": 40}),
    case(2, "behavior, two letters at depth 40", "behavior", "--automaton", AUTOMATON_Z2,
         "--state", "s0", "--depth", "40"),
    case(2, "distance, one-letter series of bound 10^6", "distance",
         "--left", {"alphabet": ["a"], "bound": 1000000},
         "--right", {"alphabet": ["a"], "bound": 1000000}),
    case(2, "check-distlaw, unknown gset variant", "check-distlaw",
         {"monad": "writer:s3", "family": {"name": "gset", "variant": "bogus"}},
         "--max-size", "1",
         out=text_error("InputError", "law.variant: expected 'mult' or 'conj', got 'bogus'")),
    case(2, "check-distlaw, pointed family without outputs", "check-distlaw",
         "pointed:0:maybe", "--max-size", "1",
         out=text_error("InputError", "law.outputs: the pointed family needs at least one "
                                      "output")),
    case(2, "check-algebra, carrier list repeats an element", "check-algebra",
         '{"monad": "maybe", "carrier": ["a", "a"], "structure": {}}',
         out=text_error("InputError", "algebra.carrier: element 'a' is given twice")),
    case(2, "words, alphabet repeats a letter", "words", "--alphabet", "a,a",
         out=text_error("InputError", "--alphabet: letter 'a' is given twice")),
    case(2, "chain build, compose with one entry", "chain", "build", "--functor",
         '{"compose": ["id"]}',
         out=text_error("InputError", "functor.compose: expected [outer, inner], got ['id']")),
    case(2, "behavior, delta given as a list", "behavior", "--automaton",
         one_state(["a"], delta=[1]), "--state", "s",
         out=text_error("InputError", "automaton.delta: expected an ", whole=False)),
    case(2, "distance, coefficients given as a list", "distance",
         "--left", dict(T_SERIES, coefficients=[1]), "--right", dict(T_SERIES, coefficients=[1]),
         out=text_error("InputError", "left.coefficients: expected an ", whole=False)),
    case(2, "limit, polynomials given as a number", "limit",
         "--sequence", '{"polynomials": 5}', "--depth", "1",
         out=text_error("InputError", "polynomials: expected an ", whole=False)),
    case(2, "check-monad, monoid op given as a list", "check-monad",
         {"builtin": "writer", "monoid": {"elements": [0], "op": [1], "unit": 0}},
         out=text_error("InputError", "monad.monoid.op: expected an ", whole=False)),
    case(2, "limit, nat coefficient given as text", "limit", "--sequence",
         {"polynomials": [{"alphabet": ["t"], "terms": {"t": "x"}}] * 3}, "--depth", "2"),
    case(2, "words, empty alphabet", "words", "--alphabet", "",
         out=text_error("InputError", "--alphabet: empty letter in ''")),
    case(2, "commute check, law over another monad", "commute", "check", IDENTITY_PAIR,
         "--law", '{"monad": "powerset", "family": "identity"}', "--max-size", "1",
         out=text_error("DomainMismatch", "algebra free(X0) belongs to maybe, not powerset, "
                                          "the monad of identity[powerset]")),
    case(0, "commute check, identity pair over its own monad", "commute", "check",
         IDENTITY_PAIR, "--law", IDENTITY_LAW, "--max-size", "1", *JSON),
    case(2, "density, --probe-depth above --depth + 1", "density",
         "--functor", "moore:z2:1letter", "--depth", "3", "--n", "1", "--probe-depth", "9",
         "--seed", "0", out=text_error("InputError", "--probe-depth ", whole=False)),
    # A JSON object decodes to an unhashable value, which is no element: the
    # error names the field and the key.
    case(2, "behavior, output key decoding to an object", "behavior", "--automaton",
         one_state(["a"], output={"s": 1, '{"a": 1}': 0}), "--state", "s",
         out=text_error("InputError", "automaton.output: key '{\"a\": 1}' is not an element "
                                      "of automaton.states")),
    case(2, "check-monad, mult key decoding to an object", "check-monad",
         '{"tables": {"1": {"elements": [[0,"*"],[1,0]], "unit": [[1,0]], '
         '"mult": {"{\\"a\\":1}": [1,0]}}}}', "--max-size", "1",
         out=text_error("InputError", "monad.tables.1.mult: keys are JSON-encoded elements, "
                                      "got '{\"a\":1}'")),
    case(2, "behavior, --state decoding to an object", "behavior", "--automaton",
         AUTOMATON_Z2, "--state", '{"a": 1}', *JSON,
         out=error("InputError", "state '{\"a\": 1}' not in the automaton")),
    case(2, "limit, break two terms after the modulus index", "limit", "--sequence",
         {"polynomials": [{"alphabet": ["t"], "terms": {"": c}} for c in (1, 1, 2)],
          "modulus": [0]}, "--depth", "1"),
    case(2, "behavior, letters a and aa at depth 3", "behavior", "--automaton",
         one_state(["a", "aa"]), "--state", "s", "--depth", "3",
         out=text_error("InputError", collision(["a", "aa"], "aa"))),
    case(0, "behavior, letters a and aa at depth 2", "behavior", "--automaton",
         one_state(["a", "aa"]), "--state", "s", "--depth", "2",
         out='coefficients:\n    "": 1\n    a: 1\n    aa: 1\nverdict: PASS ('),
    case(2, "behavior, letters a and the empty letter", "behavior", "--automaton",
         one_state(["a", ""]), "--state", "s", "--depth", "2", *JSON,
         out=error("InputError", collision(["a", ""], ""))),
    case(2, "limit, letters a and aa", "limit", "--depth", "3", "--sequence", {"polynomials": [
        {"alphabet": ["a", "aa"], "terms": {"": 1, "aa": 1}}], "modulus": [0, 0, 0]}, *JSON,
         out=error("InputError", collision(["a", "aa"], "aa"))),
    case(2, "distance, letters a and aa at bound 3", "distance",
         "--left", dict(AA_SERIES, coefficients={"aa": 1}), "--right", AA_SERIES,
         out=text_error("InputError", collision(["a", "aa"], "aa", "left"))),
    case(0, "distance, key abcd read as the word (a, bcd)", "distance",
         "--left", ABCD_SERIES, "--right", ABCD_SERIES),
    case(0, "distance, key abcd against no coefficients", "distance", "--left", ABCD_SERIES,
         "--right", dict(ABCD_SERIES, coefficients={}), *JSON,
         out='"result": {"agree_depth": 2}'),
    deep_result("chain inspect, elements nested 1200 deep", *DEEP_CHAIN),
    deep_result("chain inspect, elements nested 1200 deep, json", *DEEP_CHAIN, *JSON),
    case(2, "check-monad, inline document nested 20000 deep", "check-monad", NESTED_DOCUMENT,
         out=text_error("InputError", RECURSION)),
    case(2, "check-monad, inline document nested 20000 deep, json", "check-monad",
         NESTED_DOCUMENT, *JSON, out=error("InputError", RECURSION)),
    deep_result("density, a point nested 1200 deep", *DEEP_DENSITY, "--format", "text"),
    deep_result("density, a point nested 1200 deep, json", *DEEP_DENSITY, *JSON),
    case(0, "lemma2, moore:z2:1letter at level 4", "lemma2", "--law", "moore:z2:1letter",
         "--levels", "4"),
    # H(M X1) has 2 * 2^19 elements: the mult axiom at X1 is skipped by that
    # size before H(M X1) is built.
    case(0, "check-distlaw, 19 letters, H(M X1) above the guard", "check-distlaw",
         "moore:z2:19letters", "--max-size", "1"),
    case(2, "lemma2, moore:z3:1letter at level 3", "lemma2", "--law", "moore:z3:1letter",
         "--levels", "3"),
    case(2, "lemma2, moore:z2:2letters at level 3", "lemma2", "--law", "moore:z2:2letters",
         "--levels", "3"),
    case(0, "density, depth-6 chain", "density", "--functor", "moore:z2:1letter",
         "--depth", "6", "--n", "2", "--seed", "1"),
    case(0, "limit, partial sums 1, 1+t, 1+t+t^2", "limit", "--sequence", {"polynomials": [
        {"alphabet": ["t"], "terms": {"t" * j: 1 for j in range(n)}} for n in (1, 2, 3)],
        "modulus": [1, 2]}, "--depth", "2"),
    case(0, "commute check, biproduct partner", "commute", "check", partner(["a"]),
         "--max-size", "2"),
    case(0, "commute check, 19-letter partner at X0", "commute", "check",
         partner([f"a{i}" for i in range(19)]), "--max-size", "0"),
    case(0, "commute search, biproduct pair in closed form", "commute", "search",
         "--T", WORDS_A, "--H", MOORE_A, "--law", MOORE_LAW_A, "--max-size", "2"),
    case(0, "commute search, biproduct pair at X1", "commute", "search", "--T", WORDS_A,
         "--H", MOORE_A, "--law", MOORE_LAW_A, "--max-size", "1", *JSON,
         out='"status": "found"'),
    case(0, "behavior, integer state 0", "behavior", "--automaton", INT_STATES,
         "--state", "0", "--depth", "3",
         out='coefficients:\n    "": 1\n    a: 0\n    aa: 1\nverdict: PASS ('),
    case(2, "behavior, integer state 2 is no state", "behavior", "--automaton", INT_STATES,
         "--state", "2", "--depth", "3", *JSON,
         out=error("InputError", "state '2' not in the automaton")),
    case(0, "anamorphism, integer state 1", "anamorphism", "--automaton", INT_STATES,
         "--state", "1", "--level", "2", *JSON,
         out='"result": {"state": 1, "level": 2, "element": [0, [[1, ["*"]]]]}'),
    case(0, "check-monad powerset", "check-monad", "powerset"),
    case(0, "check-algebra, free z2 algebra on X2", "check-algebra",
         '{"monad": "semimodule:z2", "free_on": "X2"}'),
    case(1, "check-monad, broken map composition", "check-monad",
         INPUTS + "maybe-tables-broken-map-composition.json", "--max-size", "2"),
    case(2, "check-monad, a directory named x.json", "check-monad", "x.json",
         files={"x.json": None},
         out=text_error("InputError", "monad: cannot read x.json: [Errno 21] Is a directory: "
                                      "'x.json'")),
    case(2, "check-monad, a .json file that is not UTF-8", "check-monad", "latin.json",
         files={"latin.json": b"\xff\xfe{"},
         out=text_error("InputError", "monad: cannot read latin.json: 'utf-8' codec can't "
                                      "decode byte 0xff in position 0: invalid start byte")),
    case(2, "check-monad writer:z200, 8 * 10^6 associativity triples", "check-monad",
         "writer:z200", "--max-size", "1",
         out=text_error("BlowUpGuard", "enumeration of 8000000 elements exceeds the guard "
                                       "(1000000) while checking Z200 for associativity")),
    *(case(2, f"check-monad {monad}, {size} associativity triples", "check-monad", monad,
           "--max-size", "1", *JSON,
           out=error("BlowUpGuard", f"enumeration of {size} elements exceeds the guard "
                                    f"(1000000) while checking {group} for associativity"))
      for monad, size, group in (("writer:z101", "1030301", "Z101"),
                                 ("writer:s5", "(5!)^3", "S5"))),
    case(2, "check-distlaw, 27 letters", "check-distlaw", "moore:z2:27letters",
         "--max-size", "0",
         out=text_error("InputError", "27 letters: the standard alphabet has at most 26 "
                                      "(a to z)")),
    case(2, "check-distlaw kl, 30 letters", "check-distlaw", "kl", "words:30letters:maybe",
         "--max-size", "0", *JSON,
         out=error("InputError", "30 letters: the standard alphabet has at most 26 (a to z)")),
    case(2, "chain build, 27 letters", "chain", "build", "--functor", "moore:z2:27letters",
         "--depth", "1", *JSON,
         out=error("InputError", "27 letters: the standard alphabet has at most 26 (a to z)")),
    case(2, "words --jobs 1, no such flag", "words", "--jobs", "1",
         out="unrecognized arguments: --jobs 1"),
    case(2, "a non-integer BARRLAB_BLOWUP_GUARD", "check-monad", "maybe", "--max-size", "1",
         env={"BARRLAB_BLOWUP_GUARD": "abc"},
         out=text_error("InputError", "BARRLAB_BLOWUP_GUARD must be an integer, got 'abc'")),
    case(2, "check-distlaw em, a table law with no component at X1", "check-distlaw", "em",
         X0_ONLY_LAW, "--max-size", "1",
         out=text_error("MissingComponent", "table-law: no component at X1")),
    case(2, "check-distlaw kl, a table law with no component at X1", "check-distlaw", "kl",
         X0_ONLY_LAW, "--max-size", "1",
         out=text_error("MissingComponent", "table-klaw: no component at X1")),
    case(2, "commute search, an unknown factor in --H", "commute", "search", "--T", "id",
         "--H", BOGUS_FACTOR, "--law", IDENTITY_LAW,
         out=text_error("InputError", "H.prod[1]: unknown functor shorthand 'bogus'")),
    case(2, "commute search, an unknown factor in --T", "commute", "search",
         "--T", BOGUS_FACTOR, "--H", "id", "--law", IDENTITY_LAW, *JSON,
         out=error("InputError", "T.prod[1]: unknown functor shorthand 'bogus'")),
    case(0, "check-distlaw kl, words:1letter:semimodule:z2 at --max-size 4", "check-distlaw",
         "kl", "words:1letter:semimodule:z2", "--max-size", "4"),
    # M(lambda_X) at X1 lands in vectors of 2^17 coordinates.
    case(0, "check-distlaw kl, words:16letters:semimodule:z2 at --max-size 1",
         "check-distlaw", "kl", "words:16letters:semimodule:z2", "--max-size", "1"),
    case(2, "distance, a missing --left file", "distance", "--left", "missing.json",
         "--right", T_SERIES, out=text_error("InputError", "left: file not found: missing.json")),
    case(2, "distance, an unparsable key on the left", "distance",
         "--left", dict(T_SERIES, coefficients={"x": 1}), "--right", T_SERIES, *JSON,
         out=error("InputError", "left.coefficients: cannot parse word 'x' over alphabet "
                                 "('t',)")),
    case(2, "distance, an unparsable key on the right", "distance", "--left", T_SERIES,
         "--right", dict(T_SERIES, coefficients={"x": 1}), *JSON,
         out=error("InputError", "right.coefficients: cannot parse word 'x' over alphabet "
                                 "('t',)")),
    case(2, "distance, a key that no split of a, aa, aaa reads", "distance",
         "--left", NO_SPLIT, "--right", NO_SPLIT, *JSON,
         out=error("InputError", "left.coefficients: cannot parse word ", whole=False)),
    case(2, "check-monad semimodule:z1", "check-monad", "semimodule:z1",
         out=text_error("InputError", "monad.semiring: zmod needs modulus >= 2")),
    case(2, "limit, an empty polynomial list", "limit", "--sequence", '{"polynomials": []}',
         "--depth", "2", out=text_error("InputError", "empty polynomial sequence")),
    # The Kleisli mult axiom is skipped by the size of the set it enumerates.
    case(0, "check-distlaw kl, T(M(M X1)) above a guard of 4", "check-distlaw", "kl",
         "words:1letter:semimodule:z2", "--max-size", "1", env={"BARRLAB_BLOWUP_GUARD": "4"}),
    case(2, "check-monad list, the error payload", "check-monad", "list", *JSON,
         out=error("NonFinitePreserving", "", whole=False)),

    # README's examples.
    case(0, "README: check-monad semimodule:z4", "check-monad", "semimodule:z4"),
    case(0, "README: check-distlaw gset-s3-conj", "check-distlaw", "gset-s3-conj",
         "--max-size", "2"),
    case(0, "README: diff-liftings gset-s3", "diff-liftings", "gset-s3"),
    case(0, "README: density at depth 8", "density", "--functor", "moore:z2:1letter",
         "--depth", "8", "--n", "3"),
    case(0, "README: lemma1 at level 3", "lemma1", "--law", "moore:z2:1letter",
         "--levels", "3"),
    case(0, "README: behavior of machine.json", "behavior", "--automaton", MACHINE,
         "--state", "s0", "--depth", "6"),
    case(0, "README: commute check", "commute", "check",
         '{"monad": "semimodule:z2", "partner":\n    {"generators": {"elements": ["*"]}, '
         '"alphabet": {"elements": ["a"]}}}'),
    case(2, "diff-liftings, an unknown group", "diff-liftings", "gset-bogus",
         out=text_error("InputError", "group: unknown group shorthand 'bogus'")),

    # Documents read from files, and reports pinned by one of their lines.
    case(2, "behavior, a letter outside the alphabet", "behavior", "--automaton", "aut.json",
         "--state", "s0", files={"aut.json": json.dumps(
             {"states": ["s0"], "alphabet": ["a"], "semiring": "bool", "output": {"s0": 1},
              "delta": {"s0": {"b": "s0"}}})},
         out=text_error("InputError", "automaton.delta.s0: unknown letter 'b'")),
    case(2, "limit, a sequence file that is not Cauchy", "limit", "--sequence", "seq.json",
         "--depth", "1", files={"seq.json": json.dumps({"polynomials": [
             POLY, dict(POLY, terms={"": 2})], "modulus": [0]})},
         out=text_error("NotCauchy", "", whole=False)),
    *(case(0, f"density {' '.join(bounds)}", "density", "--functor", "moore:z2:1letter",
           *bounds, *JSON, out='"projection_matches": true')
      for bounds in (("--depth", "8", "--n", "3"),
                     # --n at 0 and at --depth, --probe-depth at --depth + 1.
                     ("--depth", "3", "--n", "0", "--probe-depth", "4", "--seed", "2"),
                     ("--depth", "3", "--n", "3", "--probe-depth", "4", "--seed", "2"))),
    # The chain is built to --depth + 1 = 4: --n runs over 0..--depth and
    # --probe-depth up to --depth + 1, whatever point --seed picks.
    *(case(2, f"density --seed {seed} {' '.join(bounds)}", "density",
           "--functor", "moore:z2:1letter", "--depth", "3", "--seed", seed, *bounds, *JSON,
           out=error("InputError", bounds[-2] + " ", whole=False))
      for seed in ("0", "2")
      for bounds in (("--n", "1", "--probe-depth", "9"), ("--n", "1", "--probe-depth", "5"),
                     ("--n", "-1"), ("--n", "4"))
      if (seed, bounds) != ("0", ("--n", "1", "--probe-depth", "9"))),
    case(2, "density, gset-s3-mult has no zero object", "density", "--law", "gset-s3-mult",
         "--depth", "3", "--n", "1", out=text_error("ZeroObjectViolation", "", whole=False)),
    *(case(0, f"{lemma} {law}", lemma, "--law", law, "--levels", "3")
      for lemma in ("lemma1", "lemma2") for law in ("moore:z2:1letter", "pointed:2:maybe")),
    *(case(2, f"{lemma} --levels -1", lemma, "--law", "moore:z2:1letter", "--levels", "-1",
           *JSON, out=error("InputError", "--levels must be >= 0, got -1"))
      for lemma in ("lemma1", "lemma2")),
    case(0, "lift gset-s3-mult on the free algebra on X1", "lift", "gset-s3-mult",
         {"monad": "writer:s3", "free_on": "X1"}, "--max-size", "1", *JSON, out='"size": 36,'),
    case(2, "lift, algebra over another monad", "lift", "gset-z2-mult",
         '{"monad": "maybe", "free_on": "X1"}', *JSON,
         out=error("DomainMismatch", "algebra free(X1) belongs to maybe, not writer[Z2], the "
                                     "monad of gset-z2-mult")),
    case(0, "words a,b to depth 3", "words", "--alphabet", "a,b", "--depth", "3", *JSON,
         out='"count": 7,'),
    *(case(2, f"words --alphabet {alphabet!r}", "words", "--alphabet", alphabet,
           "--depth", "2", *JSON,
           out=error("InputError", f"--alphabet: empty letter in {alphabet!r}"))
      for alphabet in ("a,,b", ",")),
    case(0, "anamorphism from a file", "anamorphism", "--automaton", "aut.json",
         "--state", "s", "--level", "2", *JSON, files={"aut.json": json.dumps(one_state(["a"]))},
         out='"element": [1, [[1, ["*"]]]]'),
    case(2, "anamorphism, level -1 of an inline automaton", "anamorphism",
         "--automaton", one_state(["a"]), "--state", "s", "--level", "-1", *JSON,
         out=error("InputError", "--level must be >= 0, got -1")),
    *(case(0, f"chain build, {label}", "chain", "build", "--functor", functor,
           "--depth", "2", *JSON, out=f'"level_sizes": {sizes}')
      for label, functor, sizes in (
          ("{p,q} x X after Id", {"compose": [{"prod": [{"const": ["p", "q"]}, "id"]}, "id"]},
           [1, 2, 4]),
          ("{p,q} x X after itself", {"compose": [{"prod": [{"const": ["p", "q"]}, "id"]}] * 2},
           [1, 4, 16]))),
    case(0, "behavior, outputs instead of a semiring", "behavior", "--automaton",
         {"states": ["s", "t"], "alphabet": ["a"], "outputs": ["x", "y"],
          "output": {"s": "x", "t": "y"}, "delta": {"s": {"a": "t"}, "t": {"a": "s"}}},
         "--state", "s", "--depth", "3", *JSON,
         out='"coefficients": {"": "x", "a": "y", "aa": "x"}'),
    *(case(2, f"behavior, {message}", "behavior", "--automaton", {**TWO_STATES, **change},
           "--state", "s", *JSON, out=error("DomainMismatch", message))
      for change, message in (
          ({"output": {"s": 1}}, "no output for state 't'"),
          ({"delta": {"s": {"a": "t"}, "t": {}}}, "no transition for ('t', 'a')"),
          ({"output": {"s": 1, "t": 2}}, "output 2 of 't' not in bool"),
          ({"delta": {"s": {"a": "t"}, "t": {"a": 7}}},
           "transition from 't' leaves the state set"))),

    # A guard of 10: the words below a bound are counted before any is
    # listed, and a size in a shorthand is checked before its elements are.
    case(2, "distance, 31 words above a guard of 10", "distance",
         "--left", {"alphabet": ["a", "b"], "bound": 5},
         "--right", {"alphabet": ["a", "b"], "bound": 5}, *JSON, env=GUARD_10,
         out=error("BlowUpGuard", "enumeration of 31 elements exceeds the guard (10)", False)),
    case(2, "behavior, depth 5 above a guard of 10", "behavior", "--automaton", AUTOMATON_Z2,
         "--state", "s0", "--depth", "5", *JSON, env=GUARD_10,
         out=error("BlowUpGuard", "enumeration of 31 elements exceeds the guard (10)", False)),
    *(case(2, f"guard of 10: {' '.join(argv)}", *argv, *JSON, env=GUARD_10,
           out=error("BlowUpGuard", "enumeration of 11 elements exceeds the guard (10)", False))
      for argv in (
          ("check-distlaw", "pointed:11:maybe"),
          ("check-monad", "exception:11"),
          ("check-monad", '{"builtin": "exception", "errors": 11}'),
          ("limit", "--sequence", '{"polynomials": [{"alphabet": ["t"], "semiring": "z11"}]}',
           "--depth", "1"),
          ("limit", "--sequence",
           '{"polynomials": [{"alphabet": ["t"], "semiring": "minplus:9"}]}', "--depth", "1"))),

    # Malformed documents: exit 2 with the path of the bad field.
    *(case(2, f"bad integer: {message}", *argv, "--max-size", "1", *JSON,
           out=error("InputError", message))
      for argv, message in (
          (("check-monad", '{"builtin": "exception", "errors": "x"}'),
           "monad.errors: expected an integer, got 'x'"),
          (("check-monad", '{"builtin": "exception", "errors": -1}'),
           "monad.errors: must be >= 0, got -1"),
          (("check-monad", json.dumps(BAD_DOM)),
           "monad.maps[0].dom: expected an integer, got 'q'"),
          (("distance", "--left", json.dumps(dict(T_SERIES, bound="x")),
            "--right", json.dumps(T_SERIES)), "left.bound: expected an integer, got 'x'"),
          (("distance", "--left", json.dumps(dict(T_SERIES, bound=-1)),
            "--right", json.dumps(T_SERIES)), "left.bound: must be >= 0, got -1"),
          (("limit", "--sequence", json.dumps({"polynomials": [POLY], "modulus": [0]}),
            "--depth", "2"),
           "modulus: expected an array with an entry for each word length below --depth 2"),
          # A coefficient is an element of the polynomial's semiring: over
          # nat a non-negative integer, never a bool.
          (("limit", "--sequence", json.dumps({"polynomials": [
              POLY, {"alphabet": ["t"], "terms": {"t": "x"}}]}), "--depth", "2"),
           "polynomials[1].terms.t: expected a non-negative integer over nat, got 'x'"),
          (("limit", "--sequence", json.dumps({"polynomials": [dict(POLY, terms={"": -1})]}),
            "--depth", "1"),
           "polynomials[0].terms.: expected a non-negative integer over nat, got -1"),
          (("limit", "--sequence", json.dumps({"polynomials": [dict(POLY, terms={"tt": True})]}),
            "--depth", "1"),
           "polynomials[0].terms.tt: expected a non-negative integer over nat, got True"),
          (("limit", "--sequence", json.dumps({"polynomials": [
              dict(POLY, semiring="z2", terms={"t": 2})]}), "--depth", "1"),
           "polynomials[0].terms.t: coefficient 2 is not an element of z2"),
          (("limit", "--sequence", json.dumps({"polynomials": [
              dict(POLY, semiring="bool", terms={"t": [1]})]}), "--depth", "1"),
           "polynomials[0].terms.t: coefficient (1,) is not an element of bool"),
          (("limit", "--sequence", json.dumps({"polynomials": [
              dict(POLY, semiring="z3", terms={"t": 1.0})]}), "--depth", "1"),
           "polynomials[0].terms.t: coefficient 1.0 is not an element of z3"),
          (("limit", "--sequence", json.dumps({"polynomials": [
              dict(POLY, semiring="minplus:2", terms={"t": "inf", "": True})]}), "--depth", "1"),
           "polynomials[0].terms.: coefficient True is not an element of minplus2"))),
    # A missing key is bad input, never a counterexample.
    *(case(2, f"missing key in {doc}", command, doc, *JSON,
           out=error("InputError", f"{path}: missing key", whole=False))
      for command, doc, path in (
          ("check-distlaw", '{"family":"identity"}', "law"),
          ("check-distlaw", '{"monad": "semimodule:z2", "family": "stream"}', "law"),
          ("check-monad", '{"builtin":"writer"}', "monad"))),
    # A gap in add or mul, a result outside the elements, or a unit that is
    # not an element.
    *(case(2, f"semiring table: {message}", "check-monad",
           {"builtin": "semimodule", "semiring": semiring}, "--max-size", "1", *JSON,
           out=error("InputError", message))
      for semiring, message in (
          (dict(SEMIRING_Z2, add={"0": {"0": 0}}, mul={"0": {"0": 0}}),
           "monad.semiring.add: no entry for (0, 1)"),
          (dict(SEMIRING_Z2, mul={"0": {"0": 0, "1": 0}, "1": {"0": 0}}),
           "monad.semiring.mul: no entry for (1, 1)"),
          (dict(SEMIRING_Z2, mul=dict(SEMIRING_Z2["mul"], **{"1": {"0": 0, "1": 2}})),
           "monad.semiring.mul: (1, 1) gives 2, not an element"),
          (dict(SEMIRING_Z2, one=7), "monad.semiring.one: 7 is not an element"),
          (dict(SEMIRING_Z2, elements=[0, 0]), "monad.semiring.add: element 0 is given twice"))),
    case(0, "check-monad, the z2 semiring as tables", "check-monad",
         {"builtin": "semimodule", "semiring": SEMIRING_Z2}, "--max-size", "1"),
    case(2, "check-monad maybe --max-size 0", "check-monad", "maybe", "--max-size", "0", *JSON,
         out=error("InputError", "--max-size must be >= 1, got 0")),
    *(case(2, f"{' '.join(argv[:-2])} -1", *argv, *JSON,
           out=error("InputError", f"{argv[-2]} must be >= 0, got -1"))
      for argv in (
          ("chain", "build", "--functor", "moore:z2:1letter", "--depth", "-1"),
          ("commute", "search", "--T", json.dumps(PRODUCT), "--H", json.dumps(PRODUCT),
           "--law", json.dumps(swap(2, ["p"])), "--max-size", "-1"),
          ("commute", "check", json.dumps(partner(["a"])), "--max-size", "-1"),
          ("commute", "search", "--T", json.dumps(PRODUCT), "--H", json.dumps(PRODUCT),
           "--law", json.dumps(swap(2, ["p"])), "--max-size", "1", "--search-cap", "-1"),
          ("density", "--functor", "moore:z2:1letter", "--depth", "3", "--n", "1",
           "--probe-depth", "-1"))),
    # The gset law lives over writer[G].
    case(2, "gset family over maybe", "check-distlaw",
         {"monad": "maybe", "family": {"name": "gset", "group": "z2"}}, "--max-size", "1",
         *JSON, out=error("InputError", "law.monad: the gset family needs a writer monad over "
                                        "a group, got maybe")),
    case(2, "gset family naming another group", "check-distlaw",
         {"monad": "writer:s3", "family": {"name": "gset", "group": "z2"}}, "--max-size", "1",
         *JSON, out=error("InputError", "law.group: Z2 is not the group of writer[S3]")),
    *(case(0, f"gset family {law['family']}", "check-distlaw", law, "--max-size", "1", *JSON,
           out='"subject": "distributive law gset-s3-mult"')
      for law in ({"monad": "writer:s3", "family": "gset"},
                  {"monad": "writer:s3", "family": {"name": "gset", "group": "s3"}})),
    *(case(2, f"pointed family without outputs: {law}", "check-distlaw", law,
           "--max-size", "1", *JSON,
           out=error("InputError", "law.outputs: the pointed family needs at least one output"))
      for law in ({"monad": "maybe", "family": {"name": "pointed", "outputs": {"elements": []}}},
                  {"monad": "exception:2",
                   "family": {"name": "pointed", "outputs": [], "alphabet": ["a"]}})),
    # A list-form set with a repeated element, or a repeated letter.
    *(case(2, f"{argv[0]}: {message}", *argv, *JSON, out=error("InputError", message), files={
        "states.json": json.dumps(dict(one_state(["a"]), states=["s", "s"], semiring="z2")),
        "letters.json": json.dumps(dict(one_state(["a"]), alphabet=["a", "a"], semiring="z2"))})
      for argv, message in (
          (("check-algebra", '{"monad": "maybe", "carrier": {"elements": ["a", "a"]}, '
                             '"structure": {}}'), "algebra.carrier: element 'a' is given twice"),
          (("check-distlaw", '{"monad": "maybe", "family": {"name": "pointed", '
                             '"outputs": ["a", "a"]}}'),
           "law.outputs: element 'a' is given twice"),
          (("chain", "build", "--functor",
            '{"power": {"exponent": ["a", "a"], "body": "id"}}'),
           "functor.power.exponent: element 'a' is given twice"),
          (("check-monad", '{"builtin": "writer", "monoid": {"elements": [0, 0], '
                           '"op": {"0": {"0": 0}}, "unit": 0}}'),
           "monad.monoid.op: element 0 is given twice"),
          (("behavior", "--automaton", "states.json", "--state", "s"),
           "automaton.states: element 's' is given twice"),
          (("behavior", "--automaton", "letters.json", "--state", "s"),
           "automaton.alphabet: letter 'a' is given twice"),
          (("anamorphism", "--automaton", "letters.json", "--state", "s", "--level", "1"),
           "automaton.alphabet: letter 'a' is given twice"),
          (("distance", "--left", '{"alphabet": ["a", "a"], "bound": 2}',
            "--right", '{"alphabet": ["a", "a"], "bound": 2}'),
           "left.alphabet: letter 'a' is given twice"),
          (("limit", "--sequence", '{"polynomials": [{"alphabet": ["t", "t"], "terms": {"": 1}}]}',
            "--depth", "1"), "polynomials[0].alphabet: letter 't' is given twice"))),
    *(case(2, f"compose of {parts!r}", "chain", "build", "--functor", {"compose": parts},
           *JSON, out=error("InputError", f"functor.compose: expected [outer, inner], "
                                          f"got {parts!r}"))
      for parts in (["id", "id", "id"], "ab")),
    *(case(2, message, "check-monad", writer_doc([0, 1], lambda a, b: a | b, 1, **name), *JSON,
           out=error("InputError", message))
      for name, message in (({}, "monad.monoid: 1 is not a unit at 0"),
                            ({"name": "M"}, "monad.monoid: M: 1 is not a unit at 0"))),
    # A list or a number where a loader reads an object.
    *(case(2, f"{path} given as a list", *argv, "--max-size", "1", "--depth", "1", *JSON,
           out=error("InputError", f"{path}: expected an ", whole=False))
      for argv, path in (
          (("check-monad", '{"tables": [1]}'), "monad.tables"),
          (("check-monad", json.dumps({"tables": {"0": dict(TABLES_0["0"], mult=[1])}})),
           "monad.tables.0.mult"),
          (("check-monad", json.dumps({"tables": TABLES_0, "maps": [
              {"dom": 0, "cod": 0, "values": [], "table": [1]}]})), "monad.maps[0].table"),
          (("check-monad", json.dumps({"builtin": "semimodule",
                                       "semiring": dict(SEMIRING_0, add=[1])})),
           "monad.semiring.add"),
          (("check-monad", json.dumps({"builtin": "semimodule",
                                       "semiring": dict(SEMIRING_0, mul=[1])})),
           "monad.semiring.mul"),
          (("check-distlaw", '{"monad":"maybe","functor":"id","components":[1]}'),
           "law.components"),
          (("commute", "check", '{"monad":"semimodule:z2","T":"id","H":"id","sigma":[1]}'),
           "candidate.sigma"),
          (("behavior", "--automaton", json.dumps(one_state(["a"], output=[1])), "--state", "s"),
           "automaton.output"),
          (("limit", "--sequence",
            '{"polynomials": [{"alphabet":["t"],"semiring":"nat","terms":[1]}]}'),
           "polynomials[0].terms"))),
    # A missing file, broken JSON, usage errors, sizes out of range, and
    # families the monad cannot carry.
    *(case(2, message, *argv, *JSON, out=error(kind, message),
           files={"BAD.json": '{"builtin": '})
      for argv, kind, message in (
          (("check-monad", INPUTS + "no-such-document.json"), "InputError",
           f"monad: file not found: {INPUTS}no-such-document.json"),
          (("check-monad", '{"builtin": '), "InputError",
           "monad: invalid inline JSON: Expecting value: line 1 column 12 (char 11)"),
          (("check-distlaw", "em", "a", "b"), "InputError", "usage: check-distlaw [em|kl] LAW"),
          (("density", "--n", "0"), "InputError",
           "density needs --functor SHORTHAND or --law DOC"),
          (("check-monad", "writer:z0"), "InputError", "monad.monoid: cyclic group needs m >= 1"),
          (("limit", "--sequence", '{"terms": {}}', "--depth", "2"), "InputError",
           "sequence document needs a 'polynomials' array"),
          (("check-monad", json.dumps(writer_doc([0, 1], lambda a, b: a ^ b, 2))), "InputError",
           "monad.monoid: unit 2 not an element"),
          (("check-monad", json.dumps(writer_doc(
              [0, 1, 2], lambda a, b: ((0, 1, 2), (1, 2, 2), (2, 1, 0))[a][b], 0))),
           "InputError", "monad.monoid: not associative at (1, 1, 1)"),
          (("check-monad", "BAD.json"), "InputError",
           "monad: BAD.json: invalid JSON: Expecting value: line 1 column 13 (char 12)"),
          (("check-monad", '{"name": "m"}'), "InputError",
           "monad: monad document needs 'builtin' or 'tables'"),
          (("check-monad", '{"tables": {"x": {"elements": [], "unit": []}}}'), "InputError",
           "monad.tables: carrier keys are sizes, got 'x'"),
          (("check-monad", '{"tables": {"1": {"elements": [[0, "*"], [1, 0]], "unit": []}}}'),
           "InputError", "monad.tables.1: unit must list 1 values"),
          (("behavior", "--automaton", json.dumps(dict(one_state(["a"]), semiring="nat")),
            "--state", "s"), "InputError", "automaton: outputs need a finite carrier"),
          (("check-distlaw", "kl", '{"monad": "maybe", "family": {"name": "bogus"}}'),
           "InputError", "law: unknown kleisli family 'bogus'"),
          (("check-distlaw", json.dumps({"monad": "maybe", "family": {
              "name": "moore", "alphabet": {"elements": ["a"]}}})), "InputError",
           "law: the moore family needs a semimodule monad"),
          (("check-distlaw", json.dumps({"monad": "maybe", "family": {
              "name": "swap", "constant": {"elements": ["p"]}}})), "InputError",
           "law: the swap family needs a writer monad"),
          (("commute", "check", json.dumps(partner(["a"])), "--law", "moore:z2:2letters"),
           "DomainMismatch", "distributive law is for a different functor"))),
]


def _help_cases():
    """`--help` at the top level, for each subcommand and each commute mode:
    argparse formats a help string only when asked."""
    yield case(0, "barrlab --help", "--help", out="usage: barrlab")
    for name, spec in COMMANDS.items():
        yield case(0, f"barrlab {name} --help", name, "--help", out="usage: barrlab")
        for mode in spec if isinstance(spec, dict) else ():
            yield case(0, f"barrlab {name} {mode} --help", name, mode, "--help",
                       out="usage: barrlab")


CASES += _help_cases()
