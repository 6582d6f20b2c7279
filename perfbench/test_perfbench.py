"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repo root)."""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from barrlab import cli  # noqa: E402

import workloads  # noqa: E402
from hostspeed import ELASTICITY, REFERENCE_S, SpeedProbe  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402
from worker import run_pass  # noqa: E402

CHEAP_LAW_CHECKS = ("check-distlaw kl words", "commute check partner", "check-distlaw broken")


def _sample():
    """Cheap requests covering every query kind and the broken law document."""
    laws = [r for r in workloads.law_checks(0) if r.kind in CHEAP_LAW_CHECKS]
    return laws + workloads.queries(7)[:40]


def test_queries_repeat_for_a_seed():
    first = [r.argv for r in workloads.queries(3)]
    assert first == [r.argv for r in workloads.queries(3)]
    assert first != [r.argv for r in workloads.queries(4)]
    assert len(first) >= 1000
    assert {r.kind for r in workloads.queries(3)} == {
        "behavior", "anamorphism", "density", "chain inspect", "lemma1", "lemma2",
        "limit", "distance", "lift"}


def test_sample_verdicts_match_the_oracle():
    result = run_pass(cli.main, _sample())
    assert result.failures == []


def test_tracing_leaves_verdicts_and_counts_unchanged():
    requests = _sample()
    plain = run_pass(cli.main, requests, verdicts=True)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        assert tracer.install() == []
        try:
            traced = run_pass(cli.main, requests, tracer=tracer, verdicts=True)
        finally:
            tracer.uninstall()
        assert traced.verdicts == plain.verdicts
        assert traced.failures == []
        metrics = tracer.metrics()
        counts.append({k: v for k, v in metrics.items() if isinstance(v, int)})
    assert counts[0] == counts[1]
    assert counts[0]["jsonio.load_calls"] > 0
    assert counts[0]["law.distlaw_em.unit-axiom.instances"] == 2
    # Uninstalling restores the original functions.
    assert cli.build_parser.__module__ == "barrlab.cli"
    assert "print" not in vars(cli)


def _perturbing(transform):
    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        doc = json.loads(buf.getvalue())
        transform(doc)
        print(json.dumps(doc))
        return code

    return main


def test_a_flipped_behavior_coefficient_counts_as_failed():
    request = next(r for r in workloads.queries(1) if r.kind == "behavior")
    assert run_pass(cli.main, [request]).failures == []

    def flip(doc):
        coeffs = doc["result"]["coefficients"]
        word = sorted(coeffs)[-1]
        coeffs[word] = 1 - coeffs[word] if coeffs[word] in (0, 1) else 0

    assert len(run_pass(_perturbing(flip), [request]).failures) == 1


def test_a_moved_counterexample_counts_as_failed():
    request = next(r for r in workloads.law_checks(0) if r.kind == "check-distlaw broken")

    def move(doc):
        doc["result"]["checks"][2]["counterexample"]["element"] = 1

    assert run_pass(cli.main, [request]).failures == []
    assert len(run_pass(_perturbing(move), [request]).failures) == 1


def test_benchmark_json_lists_the_traced_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        per_layer_metrics()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_a_malformed_report_counts_as_failed():
    request = next(r for r in workloads.queries(1) if r.kind == "density")

    def drop(doc):
        doc["result"]["point"] = None

    assert len(run_pass(_perturbing(drop), [request]).failures) == 1



def test_speed_correction_uses_the_probes_around_a_request():
    probe = SpeedProbe()
    probe.times = [REFERENCE_S] * 10 + [2 * REFERENCE_S] * 10
    assert probe.scale(2, 4) == 1.0
    assert probe.scale(14, 16) == pytest.approx(0.5 ** ELASTICITY)
    # A request with no probe inside it takes its speed from its neighbours.
    assert probe.scale(10, 10) == pytest.approx((1 + 0.5 ** ELASTICITY) / 2)
    assert probe.spent(0, 10) == pytest.approx(10 * REFERENCE_S)
