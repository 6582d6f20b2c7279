"""One workload in a fresh, single-threaded process.

Run by run.py as `python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS TRACE`
with ROOT/src on PYTHONPATH.  It sends the workload's requests to
`barrlab.cli.main` in-process, one after another (a closed loop with one
client), checks every verdict against its known answer, and writes one JSON
object to standard output.

Untraced (TRACE 0): passes over the requests for SECONDS, the first one whole
(see `measure`), with every time corrected for the host's speed (hostspeed.py).  Traced (TRACE 1): one untraced pass,
then one pass under the tracer, whose verdicts must equal the untraced ones.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from hostspeed import SpeedProbe  # noqa: E402
from oracle import project  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: a host-speed diagnostic."""
    times = []
    for _ in range(3):
        start = perf_counter()
        acc, table = 0, {}
        for i in range(200_000):
            table[i & 1023] = acc
            acc = (acc * 31 + i) % 1_000_003
        times.append(perf_counter() - start)
    return statistics.median(times)


def call(main, argv) -> tuple:
    """Run one request; return (exit code, parsed JSON report or None, error,
    seconds spent in `main`).  Only `main` is timed: parsing the report is
    the harness's work, not the program's."""
    buf = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buf):
        start = perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code, error = exc.code, f"SystemExit({exc.code})"
        except Exception:  # a traceback is a failed request, not a crashed benchmark
            code, error = None, traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
    if error is not None:
        return code, None, error, elapsed
    try:
        return code, json.loads(buf.getvalue()), None, elapsed
    except json.JSONDecodeError:
        return code, None, "output is not JSON", elapsed


def checked(req, code, doc):
    """The request's check; a report too malformed to check fails it."""
    try:
        return req.check(code, doc)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"malformed report ({type(exc).__name__}: {exc})"


class Pass:
    def __init__(self):
        self.times: list[float] = []      # seconds in `main`, per request
        self.marks: list[tuple] = []      # SpeedProbe marks around each request
        self.verdicts: list = []          # filled only when asked for
        self.failures: list[str] = []
        self.elapsed = 0.0                # the pass including the harness's work

    @property
    def wall(self) -> float:
        """The pass's time in barrlab: the sum of its requests' times."""
        return sum(self.times)


def run_pass(main, requests, tracer=None, verdicts=False, probe=None,
             deadline=None, expected=None) -> Pass:
    """One pass over `requests`.  Under a tracer each request runs in a root
    span; `verdicts` keeps the projection of every verdict for comparison.
    With a started SpeedProbe, the probes that ran inside a request are taken
    out of its time and its marks are kept for the speed correction.  With a
    `deadline`, the pass stops before a request whose `expected` time would
    end it past the deadline."""
    # Each CLI invocation is a fresh process, so no garbage outlives it and
    # the collector's counters start afresh.  Collecting before every request
    # gives each the same start whatever ran before it, and keeps peak memory
    # a per-request figure.  `main` freezes the harness's own objects first,
    # so these collections scan only what the requests left behind.
    out = Pass()
    start = perf_counter()
    for i, req in enumerate(requests):
        if deadline is not None and perf_counter() + expected[i] > deadline:
            break
        run = main if tracer is None else functools.partial(tracer.call, i, main)
        gc.collect()
        begin = probe.mark() if probe else 0
        code, doc, error, elapsed = call(run, req.argv)
        if probe:
            end = probe.mark()
            elapsed -= probe.spent(begin, end)
            out.marks.append((begin, end))
        out.times.append(elapsed)
        reason = error if error is not None else (
            "no report" if doc is None else checked(req, code, doc))
        if reason is not None:
            out.failures.append(f"{req.kind}: {reason}")
        if verdicts:
            out.verdicts.append(project(code, doc, req.keys))
    out.elapsed = perf_counter() - start
    return out


def measure(main, requests, seconds: float) -> dict:
    """Passes over `requests` for `seconds`: the first pass whole, later ones
    while each next request is expected to end in time, so that the run's
    time is used up rather than cut to whole passes."""
    passes = []
    probe = SpeedProbe()
    deadline = perf_counter() + seconds
    probe.start()
    try:
        passes.append(run_pass(main, requests, probe=probe))
        # A request is expected to take what it took in the first pass, plus
        # the harness's share of that pass.
        first = passes[0]
        overhead = (first.elapsed - first.wall) / len(requests)
        expected = [t + overhead for t in first.times]
        while len(passes[-1].times) == len(requests) and perf_counter() < deadline:
            passes.append(run_pass(main, requests, probe=probe,
                                   deadline=deadline, expected=expected))
    finally:
        probe.stop()
    # Every time is corrected to the reference host speed (hostspeed.py).  A
    # request's time is its mean over the passes that ran it, the percentiles
    # are taken over the workload's requests, and a pass's time is the sum of
    # its requests' times.
    corrected = [[t * probe.scale(*m) for t, m in zip(p.times, p.marks)] for p in passes]
    per_request = [statistics.fmean(c[i] for c in corrected if i < len(c))
                   for i in range(len(requests))]
    raw = [statistics.fmean(p.times[i] for p in passes if i < len(p.times))
           for i in range(len(requests))]
    ranked = sorted(per_request)
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.times) for p in passes)
    return {
        "passes": attempted / len(requests),
        "wall_s": sum(per_request),
        "raw_wall_s": sum(raw),
        "probe_ms": statistics.fmean(probe.times) * 1000,
        "verdict_p50_ms": statistics.median(ranked) * 1000,
        "verdict_p99_ms": ranked[-(-99 * len(ranked) // 100) - 1] * 1000,
        "requests": len(requests),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
    }


def traced(main, requests, trace_path: str) -> dict:
    plain = run_pass(main, requests, verdicts=True)
    tracer = Tracer()
    missing = tracer.install()
    try:
        traced_pass = run_pass(main, requests, tracer=tracer, verdicts=True)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced_pass.wall / plain.wall
    changed = [requests[i].kind for i, (a, b) in
               enumerate(zip(plain.verdicts, traced_pass.verdicts)) if a != b]
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.write_spans(trace_path)
    failures = plain.failures + traced_pass.failures + [
        f"{kind}: verdict changed under tracing" for kind in changed]
    return {
        "metrics": metrics,
        "attempted": 2 * len(requests),
        "failed": len(plain.failures) + len(traced_pass.failures) + len(changed),
        "failures": failures[:5],
        "missing": missing,
        "spans": len(tracer.spans),
        "traced_wall_s": traced_pass.wall,
    }


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    root, workload, seed, seconds, trace = sys.argv[1:6]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from barrlab import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"barrlab imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    calib = calibrate()
    requests = WORKLOADS[workload](int(seed))
    harness_rss = rss_mb()
    gc.collect()
    gc.freeze()
    if trace == "1":
        path = os.path.join(root, ".bench_build", "perfbench",
                            f"trace-{workload}-seed{seed}.jsonl")
        out = traced(cli.main, requests, path)
    else:
        out = measure(cli.main, requests, float(seconds))
    out["host.calib_s"] = calib
    out["peak_rss_mb"] = rss_mb()
    out["harness_rss_mb"] = harness_rss
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
