"""The report manifest: for every request of the benchmark's workloads
(`perfbench/workloads.py`) at seeds 1 and 3, the exit code and the SHA-256
of the JSON report with its `timing_ms` field taken out, keyed by
workload/seed/index.  The test recomputes every entry and names the first
request that differs.

Re-capture the manifest, in a commit of its own, with

    PYTHONPATH=src python tests/test_manifest.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"
SEEDS = (1, 3)


def requests():
    """(key, kind, argv) of every request, in workload, seed and index
    order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for name, make in WORKLOADS.items():
        for seed in SEEDS:
            for i, req in enumerate(make(seed)):
                yield f"{name}/{seed}/{i}", req.kind, req.argv


def entry(argv) -> list:
    """[exit code, SHA-256 of stdout without `timing_ms`] of one request."""
    from barrlab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    body = re.sub(r', "timing_ms": [^,}]*\}\n\Z', "}\n", out.getvalue())
    return [code, hashlib.sha256(body.encode()).hexdigest()]


def test_every_benchmark_report_matches_the_manifest(monkeypatch):
    monkeypatch.delenv("BARRLAB_BLOWUP_GUARD", raising=False)
    want = json.loads(MANIFEST.read_text())
    seen = []
    for key, kind, argv in requests():
        seen.append(key)
        got = entry(argv)
        assert got == want.get(key), f"{key} ({kind}): {got} != {want.get(key)}"
    assert seen == list(want)


if __name__ == "__main__":
    os.environ.pop("BARRLAB_BLOWUP_GUARD", None)
    entries = [(key, entry(argv)) for key, _kind, argv in requests()]
    MANIFEST.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                           for k, v in entries) + "\n}\n")
