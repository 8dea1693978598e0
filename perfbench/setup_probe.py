"""One set-up, in a fresh interpreter: everything before the first submission.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED ROOT``

Imports what the workload needs, builds its specs and job matrices and,
for ``serve-preempt``, constructs and starts a ``CampaignService`` on
``ROOT`` (replaying whatever journal is there).  Prints, as JSON, the
``time.perf_counter()`` reading at the moment the first submission could
be made, and the speed samples (speed.py) taken first thing and right
after it.  On Linux that clock is ``CLOCK_MONOTONIC``, shared by all
processes, so the parent measures from its own reading taken just before
it started this process.
"""

from __future__ import annotations

import json
import os
import sys
import time

from speed import timed_reference


def main(argv) -> int:
    first = timed_reference()
    workload, seed, root = argv[0], int(argv[1]), argv[2]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from specs import all_specs
    for spec in all_specs(workload, seed):
        spec.build_jobs()
    if workload == "serve-preempt":
        import asyncio

        from repro.serve import CampaignService

        async def start_and_stop() -> float:
            service = CampaignService(root)
            await service.start()
            ready = time.perf_counter()
            await service.stop()
            return ready
        ready = asyncio.run(start_and_stop())
    else:
        from repro.fleet.api import run_campaign  # noqa: F401
        ready = time.perf_counter()
    print(json.dumps({"ready": ready,
                      "samples": [first, timed_reference()]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
