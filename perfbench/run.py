"""barrlab benchmark: time to verdict on four checker workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a barrlab checkout (the directory holding src/barrlab).
It measures set-up time (fresh interpreters importing `barrlab.cli`), then
runs the workload in one fresh worker process (see worker.py) and prints the
metrics, one per line, followed by one JSON object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a traced pass.  Workloads and metrics are described
in README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 165


def worker_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BARRLAB_") and k not in ("PYTHONDONTWRITEBYTECODE",
                                                           "PYTHONSTARTUP")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    # Fixed hashing keeps iteration orders, and so the traced counts, repeatable.
    env["PYTHONHASHSEED"] = "0"
    return env


def time_imports(root: str, env: dict, count: int) -> list[float]:
    """Wall times of `count` fresh interpreters importing barrlab.cli.

    No timeout is passed: waiting with one polls the child in steps of up to
    50 ms, which would quantise the measurement."""
    argv = [sys.executable, "-c", "import barrlab.cli"]
    times = []
    for _ in range(count):
        start = perf_counter()
        code = subprocess.Popen(argv, env=env, cwd=root).wait()
        times.append(perf_counter() - start)
        if code != 0:
            raise SystemExit(f"importing barrlab.cli failed with exit code {code}")
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "barrlab", "cli.py")):
        print(f"no barrlab source at {os.path.join(root, 'src', 'barrlab')}; "
              "run from the root of a barrlab checkout", file=sys.stderr)
        return 2
    env = worker_env(root)
    # Set-up samples are taken before and after the workload, so that their
    # median spans the run rather than one moment of the host.  The first
    # import writes the bytecode caches and is not counted.
    setup = time_imports(root, env, 1 + SETUP_SAMPLES // 2)[1:] if args.trace == 0 else []
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), root, args.workload,
         str(args.seed), str(args.seconds), str(args.trace)],
        env=env, cwd=root, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 2
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if args.trace == 0:
        setup += time_imports(root, env, SETUP_SAMPLES - len(setup))
    for line in out.get("failures", []):
        print(f"FAILED {line}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (out["wall_s"], "s"),
            "verdict_p50_ms": (out["verdict_p50_ms"], "ms"),
            "verdict_p99_ms": (out["verdict_p99_ms"], "ms"),
            "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        }
        for name, (value, unit) in metrics.items():
            print(f"  {name:<16} {value:12.4f} {unit}")
        print(f"  {'':<16} percentiles over {out['requests']} requests, each the mean "
              f"of its runs in {out['passes']:.2f} passes; p99 is nearest-rank, a tail "
              f"estimate only from 1000 requests")
        print(f"  {'':<16} times corrected to the reference host speed; uncorrected "
              f"wall_s {out['raw_wall_s']:.4f} s, mean speed probe {out['probe_ms']:.4f} ms")
        print(f"  {'':<16} peak memory of the harness before the first request: "
              f"{out['harness_rss_mb']:.1f} MB")
    else:
        units = {name: unit for name, unit, _better in per_layer_metrics()}
        values = dict(out["metrics"], **{"host.calib_s": out["host.calib_s"]})
        metrics = {name: (values.get(name, 0), unit) for name, unit in units.items()}
        for name, (value, unit) in metrics.items():
            print(f"  {name:<44} {value:14.6g} {unit}")
        if out["missing"]:
            print(f"  trace targets not found: {', '.join(out['missing'])}")
        print(f"  {out['spans']} spans written under .bench_build/perfbench/")
        wall = out["traced_wall_s"]
        print(f"  traced pass {wall:.3f} s, of which cli.build_parser "
              f"{values['cli.build_parser_s'] / wall:.1%} and cli.render "
              f"{values['cli.render_s'] / wall:.1%}")
    print(f"  {'failed_share':<16} {out['failed'] / out['attempted']:12.4f} "
          f"({out['failed']} of {out['attempted']} requests)")
    print(f"  {'host.calib_s':<16} {out['host.calib_s']:12.4f} s")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
