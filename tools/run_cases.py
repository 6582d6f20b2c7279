"""Run every case of tests/cli_cases.py as a real process.

    python tools/run_cases.py      # from any directory

Each case runs `python -m barrlab.cli ARGV`, which exits through
sys.exit(main()) as a user's run does, with src on PYTHONPATH.  The
in-process tests call main() and never see the status a process exits
with.  Prints one line per case and exits 1 if any case fails.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from cli_cases import CASES, Case, make_files, problems  # noqa: E402


def run(case: Case) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **(case.env or {})}
    workdir = tempfile.TemporaryDirectory() if case.files else contextlib.nullcontext(ROOT)
    with workdir as cwd:
        make_files(case, Path(cwd))
        done = subprocess.run([sys.executable, "-m", "barrlab.cli", *case.argv], cwd=cwd,
                              env=env, capture_output=True, encoding="utf-8",
                              errors="replace")
    return problems(case, done.returncode, done.stdout, done.stderr)


def main() -> int:
    failed = 0
    for case in CASES:
        found = run(case)
        failed += bool(found)
        print(f"{'FAIL' if found else 'ok'} (exit {case.code}) {case.label}"
              + "".join(f"\n    {problem}" for problem in found))
    print(f"{len(CASES) - failed} of {len(CASES)} cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
