"""JSON reports of fixed CLI runs, byte-identical to the stored goldens once
the `timing_ms` line is taken out."""

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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(capsys, name):
    argv, want_code = CASES[name]
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    body, n = re.subn(r',\n  "timing_ms": [^\n]*\n}', "\n}", out)
    assert n == 1
    assert code == want_code
    assert body == (GOLDEN / f"{name}.json").read_text()
