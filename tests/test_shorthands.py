"""Each shorthand is read as the document it stands for: a run on the
shorthand and a run on that document give the same JSON report, apart
from the echoed command and the timing."""

import json

import pytest

from barrlab.cli import main

ALPHABET_T = {"name": "A", "elements": ["t"]}
ALPHABET_AB = {"name": "A", "elements": ["a", "b"]}

# (command, shorthand, document, extra flags)
CASES = [
    ("check-monad", "maybe", {"builtin": "maybe"}, "2"),
    ("check-monad", "powerset", {"builtin": "powerset"}, "2"),
    ("check-monad", "list", {"builtin": "list"}, "2"),
    ("check-monad", "exception", {"builtin": "exception", "errors": 2}, "2"),
    ("check-monad", "exception:3", {"builtin": "exception", "errors": 3}, "2"),
    ("check-monad", "writer:z3", {"builtin": "writer", "monoid": "z3"}, "2"),
    ("check-monad", "semimodule:z2", {"builtin": "semimodule", "semiring": "z2"}, "2"),
    ("check-monad", "semimodule:nat", {"builtin": "semimodule", "semiring": "nat"}, "2"),
    ("check-distlaw em", "gset-s3-conj",
     {"monad": {"builtin": "writer", "monoid": "s3"},
      "family": {"name": "gset", "variant": "conj"}}, "1"),
    ("check-distlaw em", "gset-z2-mult",
     {"monad": {"builtin": "writer", "monoid": "z2"},
      "family": {"name": "gset", "variant": "mult"}}, "2"),
    ("check-distlaw em", "moore:z2:1letter",
     {"monad": {"builtin": "semimodule", "semiring": "z2"},
      "family": {"name": "moore", "alphabet": ALPHABET_T}}, "2"),
    ("check-distlaw em", "moore:z2:1letter", {"monad": "semimodule:z2", "family": "moore"}, "2"),
    ("check-distlaw em", "moore:bool:2letters",
     {"monad": {"builtin": "semimodule", "semiring": "bool"},
      "family": {"name": "moore", "alphabet": ALPHABET_AB}}, "1"),
    ("check-distlaw em", "pointed:2:maybe",
     {"monad": {"builtin": "maybe"},
      "family": {"name": "pointed", "outputs": {"name": "k", "elements": [0, 1]}}}, "2"),
    ("check-distlaw em", "pointed:2:writer:z2",
     {"monad": {"builtin": "writer", "monoid": "z2"},
      "family": {"name": "pointed", "outputs": {"name": "k", "elements": [0, 1]}}}, "1"),
    ("check-distlaw kl", "words:1letter:semimodule:z2",
     {"monad": {"builtin": "semimodule", "semiring": "z2"},
      "family": {"name": "words", "alphabet": ALPHABET_T}}, "2"),
    ("check-distlaw kl", "words:1letter:semimodule:z2",
     {"monad": "semimodule:z2", "family": "words"}, "2"),
    ("check-distlaw kl", "words:2letters:maybe",
     {"monad": {"builtin": "maybe"}, "family": {"name": "words", "alphabet": ALPHABET_AB}},
     "2"),
    ("chain build --functor", "moore:z2:1letter",
     {"prod": [{"const": {"name": "z2", "elements": [0, 1]}},
               {"power": {"exponent": ALPHABET_T, "body": "id"}}]}, "3"),
    ("chain build --functor", "moore:z3:2letters",
     {"prod": [{"const": {"name": "z3", "elements": [0, 1, 2]}},
               {"power": {"exponent": ALPHABET_AB, "body": "id"}}]}, "2"),
]


def report(capsys, command, subject, size):
    flag = "--depth" if command.startswith("chain") else "--max-size"
    code = main([*command.split(), subject, flag, size, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    del doc["config"]["command"]
    doc.pop("timing_ms", None)
    return code, json.dumps(doc, indent=2)


@pytest.mark.parametrize("command,shorthand,document,size", CASES,
                         ids=[f"{c.split()[-1]}-{s}-{i}" for i, (c, s, _d, _n)
                              in enumerate(CASES)])
def test_shorthand_reports_as_its_document(capsys, command, shorthand, document, size):
    want = report(capsys, command, json.dumps(document), size)
    assert report(capsys, command, shorthand, size) == want
