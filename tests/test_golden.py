"""JSON reports of fixed CLI runs: stdout is the stored golden as
`json.dumps` writes it, on one line, once the `timing_ms` field is taken
out."""

import json
import re
from pathlib import Path

import pytest

from barrlab.cli import main

GOLDEN = Path(__file__).parent / "golden"

# The identity functor over maybe with a constant component: the unit axiom
# fails at X1, so the run exits 1.
BROKEN_LAW = {
    "monad": "maybe", "functor": "id", "name": "constant-nothing",
    "components": {
        "0": {json.dumps([0, "*"]): [0, "*"]},
        "1": {json.dumps([0, "*"]): [0, "*"], json.dumps([1, 0]): [0, "*"]},
    },
}


def _product_functor(letters):
    return json.dumps({"prod": [{"const": {"elements": letters}}, "id"]})


def _writer_swap_search(group, letters):
    # T = H = A x X over writer:z<group> with the swap law, as in the
    # benchmark's sigma-search workload: a brute-force search ending in found.
    law = {"monad": f"writer:z{group}",
           "family": {"name": "swap", "constant": {"elements": letters}}}
    return ["commute", "search", "--T", _product_functor(letters),
            "--H", _product_functor(letters), "--law", json.dumps(law),
            "--max-size", "1"]


# The Moore pair over semimodule:z2: the closed-form partner is found at once.
MOORE_T = {"coprod": [{"const": {"elements": ["*"]}},
                      {"prod": [{"const": {"elements": ["a"]}}, "id"]}]}
MOORE_H = {"prod": [{"const": {"elements": [[0], [1]]}},
                    {"power": {"exponent": {"elements": ["a"]}, "body": "id"}}]}
MOORE_LAW = {"monad": "semimodule:z2",
             "family": {"name": "moore", "alphabet": {"elements": ["a"]},
                        "generators": {"elements": ["*"]}}}


def _inline(name):
    """A document under golden/inputs, passed inline so that the echoed
    command does not depend on where the checkout lives."""
    return json.dumps(json.loads((GOLDEN / "inputs" / name).read_text()))


# The maybe monad as explicit tables on carriers of size <= 3, with one
# multiplication entry at size 1 broken: both unit laws fail at X1.
BROKEN_TABLES_MONAD = json.loads((GOLDEN / "inputs" / "maybe-tables-broken-mult.json").read_text())

# The maybe monad as explicit tables with one arrow-table entry broken, so
# that the first counterexample of the report lies in the named law: law ->
# the --max-size that reaches it.  Each document holds the arrow tables its
# run asks for and no others.
BROKEN_TABLE_LAWS = {"map-identity": 1, "mult-naturality": 1, "mult-associativity": 1,
                     "unit-naturality": 2, "map-composition": 2}

# A maybe-algebra on {0, 1} whose structure swaps the units of 0 and 1: both
# algebra laws fail.
BROKEN_ALGEBRA = {
    "monad": "maybe", "carrier": {"name": "C", "elements": [0, 1]},
    "structure": {json.dumps([0, "*"]): 0, json.dumps([1, 0]): 1, json.dumps([1, 1]): 0},
}

# A Kleisli-direction law for the identity functor over maybe with a
# constant component: the unit axiom fails at X1.
BROKEN_KL_LAW = {
    "monad": "maybe", "functor": "id", "name": "constant-nothing-kl",
    "components": {
        "0": {json.dumps([0, "*"]): [0, "*"]},
        "1": {json.dumps([0, "*"]): [0, "*"], json.dumps([1, 0]): [0, "*"]},
    },
}

PARTNER = {"monad": "semimodule:z2",
           "partner": {"generators": {"elements": ["*"]}, "alphabet": {"elements": ["a"]}}}

# T = H = Id over maybe with the identity law, and a sigma that swaps the two
# elements of M X1: a bijection of the right size that is not natural and
# breaks the algebra square.
BROKEN_SIGMA = {
    "monad": "maybe", "T": "id", "H": "id",
    "law": {"monad": "maybe", "family": "identity"},
    "sigma": {
        "0": {json.dumps([0, "*"]): [0, "*"]},
        "1": {json.dumps([0, "*"]): [1, 0], json.dumps([1, 0]): [0, "*"]},
    },
}

CASES = {
    "lemma1-moore-z2-1letter-levels3":
        (["lemma1", "--law", "moore:z2:1letter", "--levels", "3"], 0),
    "lemma2-moore-z2-1letter-levels3":
        (["lemma2", "--law", "moore:z2:1letter", "--levels", "3"], 0),
    "lemma1-pointed-4-maybe-levels3":
        (["lemma1", "--law", "pointed:4:maybe", "--levels", "3"], 0),
    "check-distlaw-moore-z2-1letter-max2":
        (["check-distlaw", "moore:z2:1letter", "--max-size", "2"], 0),
    "check-distlaw-broken-law":
        (["check-distlaw", "em", json.dumps(BROKEN_LAW), "--max-size", "1"], 1),
    "commute-search-writer-z5-pq-max1": (_writer_swap_search(5, ["p", "q"]), 0),
    "commute-search-writer-z3-pqr-max1": (_writer_swap_search(3, ["p", "q", "r"]), 0),
    "commute-search-moore-z2-max1":
        (["commute", "search", "--T", json.dumps(MOORE_T), "--H", json.dumps(MOORE_H),
          "--law", json.dumps(MOORE_LAW), "--max-size", "1"], 0),
    "check-monad-maybe-max2": (["check-monad", "maybe", "--max-size", "2"], 0),
    "check-monad-broken-tables":
        (["check-monad", json.dumps(BROKEN_TABLES_MONAD), "--max-size", "1"], 1),
    "check-algebra-free-z2-x2":
        (["check-algebra", json.dumps({"monad": "semimodule:z2", "free_on": "X2"})], 0),
    "check-algebra-broken-structure": (["check-algebra", json.dumps(BROKEN_ALGEBRA)], 1),
    "check-distlaw-kl-words-1letter-z2-max2":
        (["check-distlaw", "kl", "words:1letter:semimodule:z2", "--max-size", "2"], 0),
    "check-distlaw-kl-broken-law":
        (["check-distlaw", "kl", json.dumps(BROKEN_KL_LAW), "--max-size", "1"], 1),
    "commute-check-partner-max2":
        (["commute", "check", json.dumps(PARTNER), "--max-size", "2"], 0),
    "commute-check-broken-sigma":
        (["commute", "check", json.dumps(BROKEN_SIGMA), "--max-size", "1"], 1),
    "lift-gset-z3-conj-free-x1":
        (["lift", "gset-z3-conj", json.dumps({"monad": "writer:z3", "free_on": "X1"})], 0),
    "diff-liftings-gset-s3": (["diff-liftings", "gset-s3"], 0),
    "chain-build-moore-z2-1letter-depth4":
        (["chain", "build", "--functor", "moore:z2:1letter", "--depth", "4"], 0),
    "chain-inspect-moore-z2-1letter-depth4-level2":
        (["chain", "inspect", "--functor", "moore:z2:1letter", "--depth", "4",
          "--level", "2"], 0),
    "anamorphism-z2-2letter-s0-level3":
        (["anamorphism", "--automaton", _inline("automaton-z2-2letter.json"),
          "--state", "s0", "--level", "3", "--depth", "3"], 0),
    "behavior-z2-2letter-s0-depth4":
        (["behavior", "--automaton", _inline("automaton-z2-2letter.json"),
          "--state", "s0", "--depth", "4"], 0),
    "distance-2letter-bound3":
        (["distance", "--left", _inline("series-2letter-left.json"),
          "--right", _inline("series-2letter-right.json")], 0),
    "limit-nat-1letter-depth4":
        (["limit", "--sequence", _inline("sequence-nat-1letter.json"), "--depth", "4"], 0),
    # A probe depth other than the depth, so the config echo shows both.
    "density-moore-z2-1letter-n3-seed0-probe6":
        (["density", "--functor", "moore:z2:1letter", "--depth", "8", "--n", "3",
          "--seed", "0", "--probe-depth", "6"], 0),
    "words-ab-depth3": (["words", "--alphabet", "a,b", "--depth", "3"], 0),
    # An error payload (exit 2): the config echo, the error class and its message.
    "error-check-monad-list": (["check-monad", "list"], 2),
}
CASES.update({
    f"check-monad-broken-{law}":
        (["check-monad", _inline(f"maybe-tables-broken-{law}.json"),
          "--max-size", str(max_size)], 1)
    for law, max_size in BROKEN_TABLE_LAWS.items()})


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(capsys, name):
    argv, want_code = CASES[name]
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    body, n = re.subn(r', "timing_ms": [^,}]*\}\n\Z', "}\n", out)
    # An error payload (exit 2) has no timing field.
    assert n == (0 if want_code == 2 else 1)
    assert code == want_code
    assert body == json.dumps(json.loads((GOLDEN / f"{name}.json").read_text())) + "\n"


@pytest.mark.parametrize("law", sorted(BROKEN_TABLE_LAWS))
def test_broken_tables_fail_first_in_their_law(law):
    report = json.loads((GOLDEN / f"check-monad-broken-{law}.json").read_text())
    failures = [c for c in report["result"]["checks"] if c["status"] == "fail"]
    assert failures[0]["law"] == law
