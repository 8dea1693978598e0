"""Self-test of the traced run: exact counts repeat for a seed, not across.

Usage (from the repository root)::

    python3 perfbench/selftest.py [--workloads fine-portfolio,...] \\
        [--seed 1] [--holdout 7919]

For every workload it makes three traced runs (``run.py --trace 1``):
two on ``--seed`` and one on ``--holdout``.  It passes when every count
in :data:`EXACT` is bit-for-bit equal between the two same-seed runs and
at least one of them differs on the held-out seed (a different customer
population must change what the layers do).  The held-out seed 7919 was
never used while the benchmark was sized, so a later claim can be
re-checked on it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: per-layer counts that depend only on the seed, never on timing
EXACT = (
    "soc.ticks.mcds", "mcds.messages", "mcds.trace_bits",
    "ed.lost_messages", "soc.sim_cycles", "soc.ticks",
    "profiling.payload_bytes", "checkpoint.saves", "checkpoint.bytes",
    "checkpoint.restores", "fleet.aggregate.bytes", "fleet.cache.hit_ratio",
    "fleet.retries", "fleet.quarantined", "serve.evictions",
    "resilience.journal_records", "trace.forked_workers",
)


def traced_counts(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, timeout=600,
        cwd=os.path.dirname(HERE))
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run failed\n"
                         f"{done.stderr}")
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in EXACT}


def main(argv=None) -> int:
    from specs import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--holdout", type=int, default=7919)
    args = parser.parse_args(argv)
    failures = 0
    for workload in args.workloads.split(","):
        first = traced_counts(workload, args.seed)
        again = traced_counts(workload, args.seed)
        other = traced_counts(workload, args.holdout)
        unstable = [name for name in EXACT if first[name] != again[name]]
        moved = [name for name in EXACT if first[name] != other[name]]
        verdict = "ok" if not unstable and moved else "FAIL"
        failures += verdict != "ok"
        print(f"{workload}: {verdict}; repeat differs in "
              f"{unstable or 'nothing'}; seed {args.holdout} differs in "
              f"{moved or 'nothing'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
