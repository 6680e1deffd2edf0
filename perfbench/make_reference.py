"""Regenerate ``perfbench/reference.json``, the committed expected outputs.

Usage (from the repository root)::

    python3 perfbench/make_reference.py [--seeds 32]

For each seed in ``0 .. seeds-1`` it runs one episode of every workload
and records the parts the benchmark checks: the fleet digest and mean
final loss (shared by ``fleet_fused`` and ``fleet_live``, which must
agree before anything is written), the ensemble's budgets and delivered
rounds and energy, and the fig5 accuracy/loss series.  Regenerate only
when a change is meant to alter results, and say so in the change.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402

run.pin_threads()
import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args()
    run.OUT.mkdir(exist_ok=True)
    fused = workloads.workload("fleet_fused", str(run.OUT))
    live = workloads.workload("fleet_live", str(run.OUT))
    others = [workloads.workload(name)
              for name in ("fleet_ensemble", "paper_fig5")]
    table = {w.reference_key: {} for w in [fused] + others}
    for seed in range(args.seeds):
        inputs = fused.prepare(seed)
        fused_episode = fused.once(inputs)
        live_episode = live.once(inputs)
        entry = fused.reference_entry(fused_episode)
        problems = (fused.check(fused_episode, None, None)
                    + live.check(live_episode, entry, None))
        if problems:
            raise SystemExit(f"seed {seed}: {problems}")
        table[fused.reference_key][str(seed)] = entry
        for workload in others:
            episode = workload.once(workload.prepare(seed))
            problems = workload.check(episode, None, None)
            if problems:
                raise SystemExit(f"{workload.name} seed {seed}: {problems}")
            table[workload.reference_key][str(seed)] = (
                workload.reference_entry(episode))
        sys.stdout.write(f"seed {seed} recorded\n")
        sys.stdout.flush()
    run.REFERENCE.write_text(json.dumps(table, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
