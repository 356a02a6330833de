"""Tests of the benchmark itself, run at tiny sizes: metric names and units,
the output-correctness gate, and the traced run's tolerance of missing hooks."""

import dataclasses
import json

import pytest

import harness
import layers
from aflsim import market

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> harness.Workload:
    return dataclasses.replace(harness.WORKLOADS[name], n_dos=12, horizon=6, min_passes=2)


def nudged_decide(monkeypatch):
    """Raise DO 0's posted price by 0.1% on every step."""
    real = market.decide_for_policy

    def decide(spec, state, *args, **kwargs):
        decision = real(spec, state, *args, **kwargs)
        if state.id == 0:
            decision.price_p *= 1.001
        return decision

    monkeypatch.setattr(market, "decide_for_policy", decide)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == {name: unit for name, unit, _ in layers.LAYER_METRICS}


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_smoke_reports_every_metric_with_its_unit(name, tmp_path):
    wl = tiny(name)
    plain = harness.measure_untraced(wl, 5, 0.0, workdir=tmp_path)
    assert plain.correct and plain.attempted == 2 * len(wl.cells())
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: unit for k, (_, unit) in plain.metrics.items()} == units
    assert all(value > 0 for value, _ in plain.metrics.values())

    traced = harness.measure_traced(wl, 5, 0.0, workdir=tmp_path)
    assert traced.correct and traced.notes["absent_hooks"] == []
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in traced.metrics.items()} == units
    assert all(value is not None for value, _ in traced.metrics.values())
    assert traced.metrics["market.step_calls"][0] == wl.steps_per_pass()
    assert traced.metrics["market.audit_checks"][0] == wl.steps_per_pass()
    bypassed = "market.auction_requests" if name.startswith("demand") else "demand.tasks_drawn"
    assert traced.metrics[bypassed][0] == 0


def test_step_times_are_rescaled_by_the_speed_gauge(tmp_path):
    wl = tiny("compare-n100")
    out = harness.measure_untraced(wl, 5, 0.0, workdir=tmp_path)
    assert out.notes["step_samples"] == 2 * wl.steps_per_pass()
    assert harness.to_reference(3.0, [harness.GAUGE_REF_NS] * 2) == 3.0
    assert harness.to_reference(3.0, [harness.GAUGE_REF_NS, 3 * harness.GAUGE_REF_NS]) == 1.5
    # A slow reading far from a step does not touch it; one beside it does.
    gauges = [harness.GAUGE_REF_NS] * 12 + [9 * harness.GAUGE_REF_NS]
    scaled = harness.steps_at_reference([2.0] * 12, gauges)
    assert scaled[:7] == [2.0] * 7 and scaled[11] < 2.0


@pytest.mark.parametrize("name", ["compare-n100", "dense-n800"])
def test_perturbed_price_fails_against_stored_digest(name, tmp_path, monkeypatch):
    wl = tiny(name)
    clean = harness.measure_untraced(wl, 5, 0.0, workdir=tmp_path)
    assert clean.notes["failed_share"] == 0
    nudged_decide(monkeypatch)
    perturbed = harness.measure_untraced(
        wl, 5, 0.0, reference=clean.notes["digests"], workdir=tmp_path
    )
    assert perturbed.notes["failed_share"] == 1.0
    assert not perturbed.correct


def test_repeat_that_differs_from_first_pass_fails(tmp_path, monkeypatch):
    real_pass = harness.run_pass
    passes = []

    def second_pass_perturbed(*args, **kwargs):
        passes.append(None)
        if len(passes) == 2:
            nudged_decide(monkeypatch)
        return real_pass(*args, **kwargs)

    monkeypatch.setattr(harness, "run_pass", second_pass_perturbed)
    out = harness.measure_untraced(tiny("demand-mixed-n400"), 5, 0.0, workdir=tmp_path)
    assert (out.attempted, out.failed) == (2, 1)


def test_traced_run_survives_a_missing_hook(tmp_path):
    renamed = tuple(
        hook._replace(attr="eligible_delegates_renamed")
        if hook.span == "policy_pas.eligible_delegates"
        else hook
        for hook in layers.HOOKS
    )
    out = harness.measure_traced(tiny("dense-n800"), 5, 0.0, workdir=tmp_path, hooks=renamed)
    assert out.correct
    assert out.notes["absent_hooks"] == ["policy_pas.eligible_delegates"]
    for name in ("policy_pas.eligible_delegates_s", "policy_pas.quotes_built"):
        assert out.metrics[name][0] is None
    assert out.metrics["market.contexts_s"][0] > 0
