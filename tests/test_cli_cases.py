"""The case table of tests/cli_cases.py, run in-process through cli.main."""

import pytest

from barrlab.cli import COMMANDS, main
from cli_cases import CASES, command, make_files, problems


@pytest.mark.parametrize("case", CASES, ids=[case.label for case in CASES])
def test_case(case, capsys, monkeypatch, tmp_path):
    for name, value in (case.env or {}).items():
        monkeypatch.setenv(name, value)
    if case.files:
        make_files(case, tmp_path)
        monkeypatch.chdir(tmp_path)
    try:
        code = main(list(case.argv))
    except SystemExit as exc:  # argparse: a usage error or --help
        code = exc.code
    captured = capsys.readouterr()
    assert problems(case, code, captured.out, captured.err) == []


def test_every_command_has_a_passing_case_and_a_bad_input_case():
    # --help exits 0 for every command, so it does not count.
    seen = {(command(case), case.code) for case in CASES if "--help" not in case.argv}
    commands = []
    for name, spec in COMMANDS.items():
        commands += [f"{name} {mode}" for mode in spec] if isinstance(spec, dict) else [name]
    missing = [(name, code) for name in commands for code in (0, 2) if (name, code) not in seen]
    assert missing == []


def test_labels_are_unique():
    labels = [case.label for case in CASES]
    assert len(set(labels)) == len(labels)
