"""Repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_fused --seed 0 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
split.  The last line of standard output is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before
it carries provenance and diagnostics, and the same record is written to
``.perfbench-out/``.  Workloads, metrics and the layer table are
documented in ``perfbench/README.md``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("fleet_fused", "fleet_live", "paper_fig5", "fleet_ensemble")
#: Workloads whose first episode is an untimed warm-up.  A fig5 call is
#: long enough that its first call is timed like the rest.
WARM_UP = ("fleet_fused", "fleet_live", "fleet_ensemble")
#: Fresh-process set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {"work_per_s": "1/s", "run_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def pin_threads() -> None:
    """Pin BLAS/OpenMP pools to one thread; call before numpy loads.

    The default two-thread OpenBLAS pool on a shared 2-core host turned
    a 60 ms matmul loop into a 1.1 s outlier.  This module imports only
    the standard library at load time, so numpy is not loaded yet when
    :func:`main` calls this.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)


# ----------------------------------------------------------------------
# Host and provenance
# ----------------------------------------------------------------------
def calibrate() -> float:
    """Seconds for a fixed interpreter + numpy loop owned by the benchmark.

    Recorded at the start and end of every run as a diagnostic, so a
    reviewer can tell host drift from a program change.
    """
    import numpy as np
    matrix = np.random.default_rng(0).random((160, 160)) / 160.0
    start = time.perf_counter()
    total = 0
    for value in range(200_000):
        total += value * value
    product = matrix
    for _ in range(100):
        product = np.tanh(matrix @ product)
    return time.perf_counter() - start


def blas_threads():
    """Threads of numpy's bundled OpenBLAS pool, or None if not found."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        library = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_sha():
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_sha() -> str:
    """Digest of every file under ``src/repro``: which program ran."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(args) -> dict:
    import numpy as np
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "src_sha256": source_sha(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def setup_probe(args) -> None:
    """Child-process body: time importing ``repro`` and building inputs."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    workloads.workload(args.workload, str(OUT)).prepare(args.seed)
    emit(repr(time.perf_counter() - start))


def setup_samples(args) -> list:
    """``SETUP_SAMPLES`` set-up times, each in a fresh interpreter."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run(command, capture_output=True, text=True,
                               timeout=SETUP_TIMEOUT_S, cwd=str(ROOT))
        if child.returncode != 0:
            fail("set-up failed:\n" + child.stderr[-2000:])
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return samples


def load_reference(workload, seed: int):
    table = json.loads(REFERENCE.read_text())
    return table.get(workload.reference_key, {}).get(str(seed))


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
class Run:
    """Episodes of one run: timings, checks and (traced) layer counts."""

    def __init__(self, workload, inputs, reference) -> None:
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.timed = []          # (work, seconds) of untraced episodes
        self.traced = []         # (work, seconds) of traced episodes
        self.counts = {}         # summed Episode.layer_counts (traced)

    def episode(self, timings, probe=None, tracer=None):
        gc.collect()
        if tracer is None:
            start = time.perf_counter()
            outcome = self.workload.episode(self.inputs, probe)
            elapsed = time.perf_counter() - start
        else:
            import tracer as tracing
            uninstall = tracing.install(tracer)
            try:
                with tracer.episode() as span:
                    outcome = self.workload.episode(self.inputs, probe)
            finally:
                uninstall()
            elapsed = tracer.ends[span.index] - tracer.starts[span.index]
        result = self.workload.summarize(outcome)
        self.attempted += 1
        problems = self.workload.check(result, self.reference, self.first)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        if self.first is None:
            self.first = result
        if timings is not None:
            timings.append((result.work, elapsed))
        return result


def measure(args) -> dict:
    sys.path.insert(0, str(SRC))
    import workloads
    workload = workloads.workload(args.workload, str(OUT))
    inputs = workload.prepare(args.seed)
    run = Run(workload, inputs, load_reference(workload, args.seed))
    if args.workload in WARM_UP:
        run.episode(None)
    gc.freeze()
    tracer = None
    probe_events = []
    start = time.perf_counter()
    if not args.trace:
        while not run.timed or time.perf_counter() - start < args.seconds:
            run.episode(run.timed)
    else:
        import tracer as tracing
        from repro.obs import TelemetryBus
        from repro.obs.telemetry import SegmentFused, SpanClosed
        tracer = tracing.Tracer()
        while (not run.traced
               or time.perf_counter() - start < args.seconds):
            run.episode(run.timed)
            probe = None
            if isinstance(workload, workloads.FleetWorkload):
                probe = TelemetryBus()
                probe.subscribe(probe_events.append,
                                kinds=(SpanClosed.kind, SegmentFused.kind))
            result = run.episode(run.traced, probe=probe, tracer=tracer)
            for key, value in result.layer_counts.items():
                run.counts[key] = run.counts.get(key, 0.0) + value
    return {"run": run, "tracer": tracer, "probe_events": probe_events,
            "workload": workload}


def rate(pairs) -> float:
    """Median over episodes of work items per wall second.

    A median, not total work over total time: this host has slow phases
    lasting seconds, and a sum lets one of them move the whole run.
    """
    return statistics.median(work / seconds for work, seconds in pairs)


def end_to_end(run: Run, setups: list) -> dict:
    return {
        "work_per_s": rate(run.timed),
        "run_s": statistics.median(s for _, s in run.timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(measured: dict, calib: float) -> tuple:
    """Per-layer metrics of a traced run, and whether spans nest soundly."""
    import tracer as tracing
    import workloads
    run, tracer = measured["run"], measured["tracer"]
    episodes = len(run.traced)
    metrics, nested_ok = tracing.layer_metrics(tracer, episodes)
    for name in EXTRA_LAYER_METRICS:
        metrics.setdefault(name, 0.0)
    for key, value in run.counts.items():
        metrics[key] = value / episodes
    metrics.update({key: value / episodes for key, value in
                    workloads.probe_counts(measured["probe_events"]).items()})
    forecasts = metrics["scale.analytic.forecast_cluster.calls"]
    if forecasts:
        metrics["scale.analytic.price_per_cluster"] = (
            metrics["scale.analytic.price_transmit.calls"] / forecasts)
    metrics["trace.overhead"] = rate(run.traced) / rate(run.timed)
    metrics["host.calib_s"] = calib
    return metrics, nested_ok


#: Per-layer figures beyond calls/self time/share, with their units.
#: Workloads that do not exercise one report 0.
EXTRA_LAYER_METRICS = {
    "core.fleet.rounds_per_call": ("count", "higher"),
    "core.rounds.segments": ("count", "lower"),
    "core.rounds.fused_ratio": ("ratio", "higher"),
    "core.rounds.segment_events": ("count", "lower"),
    "core.rounds.plan_span_s": ("s", "lower"),
    "core.rounds.execute_span_s": ("s", "lower"),
    "sim.channel.delivered_per_attempt": ("ratio", "higher"),
    "sim.sampler.frames": ("count", "lower"),
    "wsn.ledger_records": ("count", "lower"),
    "obs.jsonl_events": ("count", "lower"),
    "obs.jsonl_bytes": ("bytes", "lower"),
    "scale.analytic.price_per_cluster": ("count", "lower"),
    "unattributed.share": ("ratio", "lower"),
    "trace.overhead": ("ratio", "higher"),
    "host.calib_s": ("s", "lower"),
}


def per_layer_spec() -> list:
    """The ``per_layer`` entries of ``BENCHMARK.json``, in output order."""
    import tracer as tracing
    spec = []
    for name in tracing.span_layers():
        spec.append({"name": f"{name}.calls", "unit": "count",
                     "better": "lower"})
        spec.append({"name": f"{name}.self_s", "unit": "s",
                     "better": "lower"})
    for layer in tracing.LAYERS:
        spec.append({"name": f"{layer}.self_s", "unit": "s",
                     "better": "lower"})
        spec.append({"name": f"{layer}.share", "unit": "ratio",
                     "better": "lower"})
    for name, (unit, better) in EXTRA_LAYER_METRICS.items():
        spec.append({"name": name, "unit": unit, "better": better})
    return spec


def main(argv=None) -> None:
    pin_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'repro'} is missing")
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args)
        return

    calib_start = calibrate()
    setups = setup_samples(args)
    measured = measure(args)
    calib_end = calibrate()
    run = measured["run"]
    failed = run.failed
    if args.trace:
        sys.path.insert(0, str(SRC))
        metrics, nested_ok = per_layer(
            measured, statistics.median([calib_start, calib_end]))
        if not nested_ok:
            failed += 1
            run.problems.append("children's self times exceed a parent span")
        metrics = {spec["name"]: {"value": metrics[spec["name"]],
                                  "unit": spec["unit"]}
                   for spec in per_layer_spec()}
        measured["tracer"].write(
            OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end(run, setups).items()}
    episode_s = sorted(s for _, s in run.timed)
    record = {
        "provenance": provenance(args),
        "diagnostics": {
            "unit": measured["workload"].unit,
            "episodes": len(run.timed), "traced_episodes": len(run.traced),
            "episode_s": {"min": episode_s[0], "p50": statistics.median(
                episode_s), "max": episode_s[-1]},
            "setup_samples_s": setups,
            "host.calib_s": {"start": calib_start, "end": calib_end},
            "problems": run.problems[:20],
            "notes": run.first.notes,
        },
    }
    result = {"correct": failed == 0, "attempted": run.attempted,
              "failed": failed, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**record, "result": result,
                              "timed_episode_s": [s for _, s in run.timed],
                              "traced_episode_s": [s for _, s in run.traced]},
                             indent=1))
    for problem in run.problems[:20]:
        sys.stderr.write(f"perfbench: check failed: {problem}\n")
    emit(json.dumps(record))
    emit(json.dumps(result))


if __name__ == "__main__":
    main()
