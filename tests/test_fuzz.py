"""The golden runs with one JSON document mutated: every run ends in an exit
code the README gives (0 pass, 1 counterexample, 2 bad input or guard trip),
and no exception escapes `cli.main`.

A mutation drops a key, replaces a value by one of another JSON type, or
truncates or empties an array.  None enlarges a size: the replacement values
are small, and an array only loses entries."""

import contextlib
import io
import json

import hypothesis.strategies as st
from hypothesis import given, settings
from test_golden import CASES

from barrlab.cli import main

# (golden name, position in its argv) of every argument that is an inline
# JSON document.
DOCUMENTS = [(name, i) for name, (argv, _code) in sorted(CASES.items())
             for i, arg in enumerate(argv) if arg.startswith(("{", "["))]

# One small value of each JSON type.
REPLACEMENTS = (None, True, 0, 1, -1, "", "x", [], {})


def json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def slots(doc):
    """(container, key) for every value inside doc, parents first."""
    entries = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in entries:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from slots(value)


@st.composite
def mutated_argvs(draw):
    name, i = draw(st.sampled_from(DOCUMENTS))
    argv = list(CASES[name][0])
    # The whole document sits in a one-entry list, so that it can be
    # replaced like any value inside it.
    root = [json.loads(argv[i])]
    container, key = draw(st.sampled_from(list(slots(root))))
    value = container[key]
    kinds = ["swap type"]
    if isinstance(container, dict):
        kinds.append("drop key")
    if isinstance(value, list) and value:
        kinds.append("truncate")
    kind = draw(st.sampled_from(kinds))
    if kind == "drop key":
        del container[key]
    elif kind == "truncate":
        container[key] = value[:draw(st.integers(0, len(value) - 1))]
    else:
        container[key] = draw(st.sampled_from(
            [v for v in REPLACEMENTS if json_type(v) != json_type(value)]))
    argv[i] = json.dumps(root[0])
    return argv


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(mutated_argvs())
def test_a_mutated_document_exits_0_1_or_2(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--format", "json"])
    assert code in (0, 1, 2)
