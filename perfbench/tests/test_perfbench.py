"""Tests of the benchmark's own machinery: span arithmetic, the fused
and per-round fleet workloads agreeing, and the tracing wrappers leaving
results untouched."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def synthetic_tree():
    """root [0, 10] with children a [1, 4] and b [3, 6] overlapping on
    [3, 4], a grandchild c [2, 3] under a, and d [9, 12] running past the
    root's end."""
    return [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 3.0, 6.0, 0),
        ("d", 9.0, 12.0, 0),
    ]


def test_self_time_subtracts_the_union_of_children_clipped_to_parent():
    selfs = tracing.self_times(synthetic_tree())
    # root: children cover [1, 6] and [9, 10] -> 6 s of 10.
    assert selfs == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])
    assert tracing.children_within_parents(synthetic_tree(), selfs)


def test_self_time_of_disjoint_children_and_leaves():
    spans = [("root", 0.0, 5.0, -1), ("x", 0.5, 1.5, 0), ("y", 2.0, 2.5, 0),
             ("z", 2.1, 2.2, 2)]
    assert tracing.self_times(spans) == pytest.approx([3.5, 1.0, 0.4, 0.1])


def test_children_exceeding_parent_are_detected():
    spans = [("root", 0.0, 1.0, -1), ("x", 0.0, 1.0, 0)]
    assert not tracing.children_within_parents(spans, [0.0, 2.0])


def test_layer_metrics_per_episode_and_shares():
    tracer = tracing.Tracer()
    for _ in range(2):
        with tracer.episode():
            index = tracer.open("sim.events.EventScheduler.step")
            inner = tracer.open("wsn.Battery.drain")
            tracer.close(inner)
            tracer.close(index)
    metrics, nested_ok = tracing.layer_metrics(tracer, episodes=2)
    assert nested_ok
    assert metrics["sim.events.EventScheduler.step.calls"] == 1.0
    assert metrics["wsn.Battery.drain.calls"] == 1.0
    assert metrics["nn.functional.conv2d.calls"] == 0.0
    shares = [metrics[f"{layer}.share"] for layer in tracing.LAYERS]
    assert sum(shares) + metrics["unattributed.share"] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def test_fused_and_live_fleet_produce_equal_digests(tmp_path):
    fused = workloads.workload("fleet_fused", str(tmp_path))
    live = workloads.workload("fleet_live", str(tmp_path))
    inputs = fused.prepare(3)
    fused_episode = fused.once(inputs)
    live_episode = live.once(inputs)
    assert fused_episode.digest == live_episode.digest
    assert fused.check(fused_episode, None, None) == []
    assert live.check(live_episode, fused.reference_entry(fused_episode),
                      None) == []
    # The scenario exercises what it is meant to: faults fire, budgets
    # re-derive, and the fused engine pre-executes every round.
    assert fused_episode.digest["faults_applied"] == 5
    assert 0 in fused_episode.digest["arq_budgets"]
    assert fused_episode.layer_counts["core.rounds.fused_ratio"] > 0.9


def test_committed_reference_matches_current_program(tmp_path):
    reference = json.loads(run.REFERENCE.read_text())
    fused = workloads.workload("fleet_fused", str(tmp_path))
    episode = fused.once(fused.prepare(0))
    assert fused.check(episode, reference["fleet"]["0"], None) == []
    ensemble = workloads.workload("fleet_ensemble")
    episode = ensemble.once(ensemble.prepare(0))
    assert ensemble.check(episode, reference["fleet_ensemble"]["0"],
                          None) == []


def test_reference_check_catches_a_changed_result(tmp_path):
    fused = workloads.workload("fleet_fused", str(tmp_path))
    episode = fused.once(fused.prepare(0))
    reference = json.loads(json.dumps(fused.reference_entry(episode)))
    reference["digest"]["failed_rounds"][0] += 1
    reference["approx"]["mean_final_loss"] += 1e-5
    problems = fused.check(episode, reference, None)
    assert any("failed_rounds" in p for p in problems)
    assert any("mean final loss" in p for p in problems)


# ----------------------------------------------------------------------
# Tracing wrappers leave results bit-identical
# ----------------------------------------------------------------------
def traced(fn):
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        with tracer.episode():
            return fn(), tracer
    finally:
        uninstall()


@pytest.mark.parametrize("name", ["fleet_fused", "fleet_live",
                                  "fleet_ensemble"])
def test_wrappers_leave_fleet_results_bit_identical(name, tmp_path):
    workload = workloads.workload(name, str(tmp_path))
    inputs = workload.prepare(1)
    plain = workload.once(inputs)
    wrapped, tracer = traced(lambda: workload.once(inputs))
    assert wrapped.digest == plain.digest
    assert wrapped.approx == plain.approx
    assert len(tracer.starts) > 100
    again = workload.once(inputs)
    assert again.digest == plain.digest      # wrappers fully removed


def test_wrappers_leave_conv_classifier_bit_identical():
    from repro.apps import ImageClassifier
    rng = np.random.default_rng(0)
    images = rng.random((24, 1, 28, 28))
    labels = rng.integers(0, 10, 24)

    def fit():
        classifier = ImageClassifier((1, 28, 28), 10, seed=0)
        history = classifier.fit(images[:16], labels[:16], images[16:],
                                 labels[16:], epochs=2, batch_size=8)
        return history.test_loss, history.test_accuracy

    plain = fit()
    wrapped, tracer = traced(fit)
    assert wrapped == plain
    names = set(tracer.names)
    assert {"nn.functional.conv2d", "nn.functional.max_pool2d",
            "nn.tensor.Tensor.backward", "nn.optim.Adam.step",
            "apps.ImageClassifier.fit"} <= names


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what the runner prints
# ----------------------------------------------------------------------
def test_benchmark_json_lists_every_emitted_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] \
        == list(run.END_TO_END_UNITS)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END_UNITS[metric["name"]]
    assert spec["per_layer"] == run.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
