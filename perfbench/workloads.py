"""The benchmark's four workloads, their episodes and their output checks.

Each workload turns a seed into inputs (:meth:`Workload.prepare`, the
timed set-up), runs one *episode* on them through the public ``repro``
API (:meth:`Workload.episode`, the timed unit of work) and checks the
episode's output (:meth:`Workload.check`) against the committed
reference for that seed, the seed-independent invariants, and the
run's first episode.  Why each workload exists is in ``README.md``.

Importing this module imports ``repro``: it is part of the set-up the
benchmark times.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core import (
    EdgeTrainingScheduler,
    OrcoDCSConfig,
    OrcoDCSFramework,
    ResilientOrchestrationPolicy,
)
from repro.obs import JsonlWriter, MetricsCollector, TelemetryBus
from repro.obs.telemetry import (
    ClusterRetired,
    DeadlineMissed,
    FaultApplied,
    RoundCompleted,
    SegmentFused,
    SpanClosed,
    TransmitBatch,
)
from repro.sim import ARQConfig, ChannelSpec, FaultEvent, FaultSchedule

# -- fleet_fused / fleet_live geometry ---------------------------------
FLEET_CLUSTERS = 16
FLEET_DEVICES = 40
FLEET_LATENT = 6
FLEET_BATCH = 8
FLEET_ROWS = 96
FLEET_ROUNDS = 160
FLEET_LOSS = 0.1
FLEET_BASE_RETRIES = 3
#: Modelled makespan of the lossless 16 x 160 run; fault times are drawn
#: as fractions of it so every fault lands inside the run.
FLEET_NOMINAL_MAKESPAN_S = 4.9

# -- fleet_ensemble geometry -------------------------------------------
ENSEMBLE_CLUSTERS = 1000
ENSEMBLE_ROUNDS = 60
ENSEMBLE_LOSS = 0.12
ENSEMBLE_SIZES = (12, 16, 24, 32)
ENSEMBLE_LATENTS = (4, 6)
#: Distinct (size, latent, battery, deadline) configurations the
#: ensemble's clusters cycle through: few enough that the price memo
#: hits, many enough that it also misses.
ENSEMBLE_CONFIGS = 32

# -- paper_fig5 --------------------------------------------------------
FIG5_SCALE = 0.05

LOSS_TOLERANCE = 1e-6
SERIES_TOLERANCE = 1e-6
ENSEMBLE_RELATIVE = 1e-9


def _canonical(value):
    """JSON round trip: the form a digest has once committed."""
    return json.loads(json.dumps(value))


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


@dataclass
class Episode:
    """What one episode produced, for timing and checking."""

    work: int                      # items completed (see Workload.unit)
    digest: dict                   # exact-match part of the output
    approx: dict = field(default_factory=dict)   # tolerance-checked part
    facts: dict = field(default_factory=dict)    # invariant-only inputs
    layer_counts: Dict[str, float] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)    # reported, not checked


class Workload:
    name = ""
    unit = ""
    #: Key of this workload's entries in ``reference.json``.
    reference_key = ""

    def prepare(self, seed: int):
        raise NotImplementedError

    def episode(self, inputs, probe: Optional[TelemetryBus] = None):
        """Run once (the timed work) and return the raw outcome.

        ``probe`` is a bus the traced run reads the program's own spans
        and segment events from.
        """
        raise NotImplementedError

    def summarize(self, outcome) -> Episode:
        """Digest a raw outcome, outside the timed region."""
        raise NotImplementedError

    def once(self, inputs) -> Episode:
        """One untimed episode, summarized."""
        return self.summarize(self.episode(inputs))

    def invariants(self, episode: Episode) -> List[str]:
        raise NotImplementedError

    def reference_entry(self, episode: Episode) -> dict:
        return {"digest": episode.digest, "approx": episode.approx}

    def check(self, episode: Episode, reference: Optional[dict],
              first: Optional[Episode]) -> List[str]:
        """Problems with one episode's output (empty when correct)."""
        problems = self.invariants(episode)
        digest = _canonical(episode.digest)
        if reference is not None:
            if digest != reference["digest"]:
                problems.append(_first_difference(reference["digest"],
                                                  digest, "reference"))
            problems += self._compare_approx(reference["approx"],
                                             episode.approx, "reference")
        if first is not None:
            if digest != _canonical(first.digest):
                problems.append(_first_difference(_canonical(first.digest),
                                                  digest, "first episode"))
            problems += self._compare_approx(first.approx, episode.approx,
                                             "first episode")
        return problems

    def _compare_approx(self, expected: dict, actual: dict,
                        against: str) -> List[str]:
        raise NotImplementedError


def _first_difference(expected: dict, actual: dict, against: str) -> str:
    for key in sorted(set(expected) | set(actual)):
        if expected.get(key) != actual.get(key):
            return (f"{key} differs from the {against}: "
                    f"{str(actual.get(key))[:120]} != "
                    f"{str(expected.get(key))[:120]}")
    return f"digest differs from the {against}"


# ----------------------------------------------------------------------
# fleet_fused / fleet_live
# ----------------------------------------------------------------------
@dataclass
class FleetInputs:
    seed: int
    configs: List[OrcoDCSConfig]
    data: List[np.ndarray]
    scheduler_seed: int
    channels: ChannelSpec
    resilience: ResilientOrchestrationPolicy
    faults: FaultSchedule
    jsonl_path: str


def fleet_inputs(seed: int, scratch_dir: str) -> FleetInputs:
    """The lossy 16-cluster scenario with faults spread over the run.

    A node death (an ordinary device: without positions, device 0 is the
    aggregator, whose death would idle its cluster for the failover
    downtime), a straggler plus its recovery and two brownouts land at
    fixed fractions of the nominal makespan on seed-drawn clusters.
    Each brownout drops its cluster to the battery knee: adaptive ARQ
    re-derives that cluster's budget to zero, the fused engine
    re-records its channel traces, and the cluster retires once the
    battery runs dry.  The fault structure is the same for every seed,
    so seeds vary the data, models and loss draws, not how much of the
    fleet survives.
    """
    rng = np.random.default_rng([seed, 1])
    configs = [OrcoDCSConfig(input_dim=FLEET_DEVICES, latent_dim=FLEET_LATENT,
                             noise_sigma=0.05, batch_size=FLEET_BATCH,
                             seed=int(rng.integers(2 ** 31)))
               for _ in range(FLEET_CLUSTERS)]
    data = [rng.random((FLEET_ROWS, FLEET_DEVICES))
            for _ in range(FLEET_CLUSTERS)]
    victims = [f"cluster-{k}" for k in rng.permutation(FLEET_CLUSTERS)[:4]]
    at = [fraction * FLEET_NOMINAL_MAKESPAN_S
          for fraction in (0.15, 0.25, 0.7, 0.4, 0.8)]
    faults = FaultSchedule([
        FaultEvent(at[0], "node_death", victims[0],
                   device=int(rng.integers(1, FLEET_DEVICES))),
        FaultEvent(at[1], "straggler", victims[1], magnitude=3.0),
        FaultEvent(at[2], "recover", victims[1]),
        FaultEvent(at[3], "brownout", victims[2], magnitude=1e-12),
        FaultEvent(at[4], "brownout", victims[3], magnitude=1e-12),
    ])
    return FleetInputs(
        seed=seed, configs=configs, data=data,
        scheduler_seed=int(rng.integers(2 ** 31)),
        channels=ChannelSpec(loss=FLEET_LOSS,
                             arq=ARQConfig(max_retries=FLEET_BASE_RETRIES)),
        resilience=ResilientOrchestrationPolicy(adaptive_arq=True),
        faults=faults,
        jsonl_path=os.path.join(scratch_dir, "fleet_live-events.jsonl"))


def build_fleet(inputs: FleetInputs, fused: bool,
                telemetry: Optional[TelemetryBus] = None
                ) -> EdgeTrainingScheduler:
    scheduler = EdgeTrainingScheduler(
        "round_robin", rng=np.random.default_rng(inputs.scheduler_seed),
        engine="event", fault_schedule=inputs.faults,
        resilience=inputs.resilience, channels=inputs.channels,
        segment_batching=fused, telemetry=telemetry)
    for index, (config, data) in enumerate(zip(inputs.configs, inputs.data)):
        scheduler.add_cluster(f"cluster-{index}", OrcoDCSFramework(config),
                              data, batch_size=FLEET_BATCH)
    return scheduler


def fleet_digest(scheduler: EdgeTrainingScheduler, report) -> dict:
    """Everything the fused and per-round engines must agree on exactly."""
    names = [c.name for c in scheduler.clusters]
    ledgers = [c.trainer.ledger.records for c in scheduler.clusters]
    return _canonical({
        "makespan_s": report.makespan_s,
        "clock_s": [c.trainer.clock_s for c in scheduler.clusters],
        "rounds_per_cluster": [report.rounds_per_cluster.get(n, 0)
                               for n in names],
        "failed_rounds": [report.failed_rounds.get(n, 0) for n in names],
        "retired": dict(sorted(report.dead_clusters.items())),
        "arq_budgets": [report.arq_budgets.get(n) for n in names],
        "faults_applied": report.faults_applied,
        "ledger": [[len(records), sum(r.delivered for r in records),
                    sum(r.attempts for r in records)] for records in ledgers],
    })


class FleetWorkload(Workload):
    unit = "cluster-rounds"

    def __init__(self, fused: bool, scratch_dir: str = ".") -> None:
        self.fused = fused
        self.name = "fleet_fused" if fused else "fleet_live"
        # The fused and per-round engines share one reference per seed.
        self.reference_key = "fleet"
        self.scratch_dir = scratch_dir
        self.expected_reasons = (() if fused
                                 else ("segment-batching-disabled",))

    def prepare(self, seed: int) -> FleetInputs:
        return fleet_inputs(seed, self.scratch_dir)

    def episode(self, inputs: FleetInputs,
                probe: Optional[TelemetryBus] = None):
        if self.fused:
            scheduler = build_fleet(inputs, True, telemetry=probe)
            return inputs, scheduler, scheduler.run(FLEET_ROUNDS), None, None
        bus = probe if probe is not None else TelemetryBus()
        collector = MetricsCollector(bus)
        with JsonlWriter(inputs.jsonl_path, bus) as writer:
            scheduler = build_fleet(inputs, False, telemetry=bus)
            report = scheduler.run(FLEET_ROUNDS)
        return inputs, scheduler, report, collector, writer

    def summarize(self, outcome) -> Episode:
        inputs, scheduler, report, collector, writer = outcome
        rounds = sum(report.rounds_per_cluster.values())
        records = [r for c in scheduler.clusters
                   for r in c.trainer.ledger.records]
        attempts = sum(r.attempts for r in records)
        facts = {"plan_reasons": tuple(scheduler.execution_plan().reasons),
                 "report": report, "mean_final_loss": report.mean_final_loss,
                 "faults_scheduled": len(inputs.faults)}
        counts = {
            "core.rounds.segments": float(report.segments),
            "core.rounds.fused_ratio": report.fused_rounds / max(rounds, 1),
            "sim.channel.delivered_per_attempt":
                sum(r.delivered for r in records) / max(attempts, 1),
            "wsn.ledger_records": float(len(records)),
        }
        if writer is not None:
            facts.update(collector=collector, jsonl_path=inputs.jsonl_path,
                         jsonl_events=writer.events_written)
            counts["obs.jsonl_events"] = float(writer.events_written)
            counts["obs.jsonl_bytes"] = float(
                os.path.getsize(inputs.jsonl_path))
        return Episode(work=rounds, digest=fleet_digest(scheduler, report),
                       approx={"mean_final_loss": report.mean_final_loss},
                       facts=facts, layer_counts=counts)

    def invariants(self, episode: Episode) -> List[str]:
        problems = []
        facts = episode.facts
        digest = episode.digest
        report = facts["report"]
        if facts["plan_reasons"] != self.expected_reasons:
            problems.append(f"plan reasons {facts['plan_reasons']} != "
                            f"{self.expected_reasons}")
        if not math.isfinite(facts["mean_final_loss"]):
            problems.append("mean final loss is not finite")
        if episode.work <= 0 or any(
                not 0 <= n <= FLEET_ROUNDS
                for n in digest["rounds_per_cluster"]):
            problems.append("rounds per cluster out of range")
        if digest["faults_applied"] > facts["faults_scheduled"]:
            problems.append("more faults applied than scheduled")
        for records, delivered, attempts in digest["ledger"]:
            if not delivered <= records <= attempts:
                problems.append("ledger delivered/records/attempts disorder")
                break
        if self.fused and report.fused_rounds <= 0:
            problems.append("fused engine pre-executed no rounds")
        if not self.fused:
            if report.fused_rounds != 0:
                problems.append("per-round engine reported fused rounds")
            problems += _jsonl_matches_collector(facts)
        return problems

    def _compare_approx(self, expected: dict, actual: dict,
                        against: str) -> List[str]:
        delta = abs(expected["mean_final_loss"] - actual["mean_final_loss"])
        if not delta <= LOSS_TOLERANCE:
            return [f"mean final loss differs from the {against} by {delta}"]
        return []


def _jsonl_matches_collector(facts: dict) -> List[str]:
    """The JSONL log and the metrics collector saw the same events."""
    collector: MetricsCollector = facts["collector"]
    lines = 0
    per_kind: Dict[str, int] = {}
    transmits = 0
    with open(facts["jsonl_path"]) as handle:
        for line in handle:
            event = json.loads(line)
            lines += 1
            per_kind[event["kind"]] = per_kind.get(event["kind"], 0) + 1
            if event["kind"] == TransmitBatch.kind:
                transmits += event["count"]
    observed = {
        RoundCompleted.kind: sum(s.rounds.value
                                 for s in collector.clusters.values()),
        SegmentFused.kind: collector.segment_hist.count,
        FaultApplied.kind: sum(s.faults.value
                               for s in collector.clusters.values()),
        ClusterRetired.kind: sum(collector.retirements.values()),
        DeadlineMissed.kind: collector.deadline_misses.value,
        SpanClosed.kind: sum(h.count for h in collector.span_hists.values()),
    }
    problems = []
    if lines != facts["jsonl_events"]:
        problems.append(f"JSONL holds {lines} events, writer counted "
                        f"{facts['jsonl_events']}")
    for kind, count in observed.items():
        if per_kind.get(kind, 0) != count:
            problems.append(f"JSONL has {per_kind.get(kind, 0)} {kind} "
                            f"events, the collector {count}")
    if transmits != collector.transmits.value:
        problems.append(f"JSONL transmits {transmits} != collector "
                        f"{collector.transmits.value}")
    if per_kind.get(RoundCompleted.kind, 0) == 0:
        problems.append("no round events were exported")
    return problems


# ----------------------------------------------------------------------
# fleet_ensemble
# ----------------------------------------------------------------------
@dataclass
class EnsembleInputs:
    configs: List[OrcoDCSConfig]
    data: Dict[int, np.ndarray]
    batteries: List[float]
    deadlines: List[Optional[float]]
    scheduler_seed: int
    channels: ChannelSpec
    resilience: ResilientOrchestrationPolicy


def ensemble_inputs(seed: int) -> EnsembleInputs:
    """1000 lossy clusters cycling through a few dozen configurations.

    Sizes and latent widths cycle in a fixed pattern, so every seed
    builds the same mix of models; batteries, deadlines and model seeds
    are drawn per seed.  Adaptive ARQ turns battery and deadline into a
    per-cluster retry budget, so the price memo sees repeats and new
    keys alike.
    """
    rng = np.random.default_rng([seed, 2])
    table = []
    for index in range(ENSEMBLE_CONFIGS):
        size = ENSEMBLE_SIZES[index % len(ENSEMBLE_SIZES)]
        latent = ENSEMBLE_LATENTS[(index // len(ENSEMBLE_SIZES))
                                  % len(ENSEMBLE_LATENTS)]
        battery = float(10 ** rng.uniform(-2.0, 1.0))
        deadline = (None if rng.random() < 0.25
                    else float(rng.uniform(0.5, 6.0)))
        table.append((size, latent, battery, deadline))
    configs, batteries, deadlines = [], [], []
    for index in range(ENSEMBLE_CLUSTERS):
        size, latent, battery, deadline = table[index % ENSEMBLE_CONFIGS]
        configs.append(OrcoDCSConfig(input_dim=size, latent_dim=latent,
                                     noise_sigma=0.05, batch_size=16,
                                     seed=int(rng.integers(2 ** 31))))
        batteries.append(battery)
        deadlines.append(deadline)
    data = {size: rng.standard_normal((32, size)) for size in ENSEMBLE_SIZES}
    return EnsembleInputs(
        configs=configs, data=data, batteries=batteries, deadlines=deadlines,
        scheduler_seed=int(rng.integers(2 ** 31)),
        channels=ChannelSpec(loss=ENSEMBLE_LOSS, arq=ARQConfig(max_retries=2)),
        resilience=ResilientOrchestrationPolicy(adaptive_arq=True))


class EnsembleWorkload(Workload):
    name = reference_key = "fleet_ensemble"
    unit = "clusters"

    def prepare(self, seed: int) -> EnsembleInputs:
        return ensemble_inputs(seed)

    def episode(self, inputs: EnsembleInputs,
                probe: Optional[TelemetryBus] = None):
        scheduler = EdgeTrainingScheduler(
            "round_robin", rng=np.random.default_rng(inputs.scheduler_seed),
            engine="analytic", channels=inputs.channels,
            resilience=inputs.resilience)
        for index, config in enumerate(inputs.configs):
            scheduler.add_cluster(
                f"c{index}", OrcoDCSFramework(config),
                inputs.data[config.input_dim], batch_size=16,
                deadline_s=inputs.deadlines[index],
                aggregator_battery_j=inputs.batteries[index])
        return scheduler, scheduler.run(rounds_per_cluster=ENSEMBLE_ROUNDS)

    def summarize(self, outcome) -> Episode:
        scheduler, report = outcome
        names = [c.name for c in scheduler.clusters]
        delivered = [report.delivered_rounds[n] for n in names]
        energy = [report.energy_j[n] for n in names]
        budgets = [report.arq_budgets[n] for n in names]
        digest = {
            "clusters": len(names),
            "engine": report.engine,
            "budgets_sha": _sha(budgets),
            "budget_counts": {str(b): budgets.count(b)
                              for b in sorted(set(budgets))},
            "rounds_sha": _sha([report.rounds_per_cluster[n] for n in names]),
            "retired": len(report.dead_clusters),
        }
        approx = {
            "delivered_sum": math.fsum(delivered),
            "delivered_min": min(delivered), "delivered_max": max(delivered),
            "energy_sum": math.fsum(energy),
            "energy_min": min(energy), "energy_max": max(energy),
        }
        return Episode(work=len(names), digest=_canonical(digest),
                       approx=approx,
                       facts={"delivered": delivered, "energy": energy,
                              "budgets": budgets})

    def invariants(self, episode: Episode) -> List[str]:
        facts = episode.facts
        problems = []
        if episode.digest["engine"] != "analytic":
            problems.append("ensemble did not run on the analytic engine")
        if episode.work != ENSEMBLE_CLUSTERS:
            problems.append(f"priced {episode.work} clusters")
        if not all(0.0 <= d <= ENSEMBLE_ROUNDS for d in facts["delivered"]):
            problems.append("expected delivered rounds out of range")
        if not all(e >= 0.0 and math.isfinite(e) for e in facts["energy"]):
            problems.append("expected energy negative or not finite")
        if not all(0 <= b <= 6 for b in facts["budgets"]):
            problems.append("ARQ budget outside the adaptive clamp")
        return problems

    def _compare_approx(self, expected: dict, actual: dict,
                        against: str) -> List[str]:
        problems = []
        for key, value in expected.items():
            if not math.isclose(actual[key], value,
                                rel_tol=ENSEMBLE_RELATIVE, abs_tol=0.0):
                problems.append(f"{key} {actual[key]!r} differs from the "
                                f"{against} {value!r}")
        return problems


# ----------------------------------------------------------------------
# paper_fig5
# ----------------------------------------------------------------------
class Fig5Workload(Workload):
    name = reference_key = "paper_fig5"
    unit = "experiment calls"

    def prepare(self, seed: int):
        from repro.experiments import EXPERIMENTS
        return {"run": EXPERIMENTS["fig5"], "seed": seed}

    def episode(self, inputs, probe: Optional[TelemetryBus] = None):
        return inputs["run"](scale=FIG5_SCALE, seed=inputs["seed"])

    def summarize(self, result) -> Episode:
        series = {label: {"x": data["x"], "y": data["y"]}
                  for label, data in sorted(result.series.items())}
        return Episode(
            work=1,
            digest=_canonical({"labels": sorted(series),
                               "epochs": [series[k]["x"] for k in series]}),
            approx={"series": {k: v["y"] for k, v in series.items()}},
            # At this scale every framework sits at chance, so the
            # experiment's own shape checks are coin flips (seed 5 fails
            # one); the reference series are the correctness check.
            notes={"shape_checks_failed": sorted(
                k for k, ok in result.checks.items() if not ok)})

    def invariants(self, episode: Episode) -> List[str]:
        problems = []
        series = episode.approx["series"]
        if len(series) != 16:
            problems.append(f"{len(series)} series, expected 16")
        for label, ys in series.items():
            if label.endswith("/accuracy") and not all(
                    0.0 <= y <= 1.0 for y in ys):
                problems.append(f"{label} outside [0, 1]")
            if label.endswith("/loss") and not all(
                    math.isfinite(y) and y > 0.0 for y in ys):
                problems.append(f"{label} not finite and positive")
        return problems

    def _compare_approx(self, expected: dict, actual: dict,
                        against: str) -> List[str]:
        expected, actual = expected["series"], actual["series"]
        if set(expected) != set(actual):
            return [f"series labels differ from the {against}"]
        worst = max((abs(a - e) for k in expected
                     for a, e in zip(actual[k], expected[k])), default=0.0)
        if not worst <= SERIES_TOLERANCE:
            return [f"series differ from the {against} by up to {worst}"]
        return []


def workload(name: str, scratch_dir: str = ".") -> Workload:
    if name == "fleet_fused":
        return FleetWorkload(True, scratch_dir)
    if name == "fleet_live":
        return FleetWorkload(False, scratch_dir)
    if name == "fleet_ensemble":
        return EnsembleWorkload()
    if name == "paper_fig5":
        return Fig5Workload()
    raise ValueError(f"unknown workload {name!r}")


def probe_counts(events: List) -> Dict[str, float]:
    """Per-episode figures read off the program's own telemetry."""
    plan = sum(e.elapsed_s for e in events
               if isinstance(e, SpanClosed) and e.name == "plan")
    execute = sum(e.elapsed_s for e in events
                  if isinstance(e, SpanClosed) and e.name == "execute")
    segments = sum(1 for e in events if isinstance(e, SegmentFused))
    return {"core.rounds.plan_span_s": plan,
            "core.rounds.execute_span_s": execute,
            "core.rounds.segment_events": float(segments)}
