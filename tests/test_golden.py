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
