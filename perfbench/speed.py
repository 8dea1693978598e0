"""Host speed, sampled where the work runs, and times corrected for it.

The shared host this benchmark was sized on changes speed by up to
~1.8x within minutes (NOTES.md), far more than the changes the
benchmark must resolve.  So every timed interval is reported in
*reference seconds*: its wall time, less the samples taken inside it,
scaled by how fast a fixed reference loop ran around it.

:class:`SpeedProbe` runs the loop right before a job's simulation runs
(with checkpoints, before every segment between two of them) and before
its profile is decoded, at most every :data:`SAMPLE_EVERY_S`, in the
thread or pool worker doing the job, and wherever the benchmark calls
:meth:`SpeedProbe.sample` itself (around every timed interval).  Only a
loop interleaved this finely with the work tracks the work's speed: one
timed before and after a multi-second campaign, or in another process,
does not.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import statistics
import time
from typing import List, Tuple

#: iterations of the reference loop (about 9-11 ms on the sizing host)
REF_ITERATIONS = 75_000
#: the loop's duration at reference speed: the fastest it ran on the
#: sizing host, so reference seconds are roughly that host's best times
REF_S = 0.009
#: least time between two samples taken before simulation segments
SAMPLE_EVERY_S = 0.2

#: (start, end, pid) of one run of the reference loop
Sample = Tuple[float, float, int]


def reference_loop() -> dict:
    """Fixed interpreter work: integer arithmetic and dict updates."""
    table: dict = {}
    for i in range(REF_ITERATIONS):
        key = i & 63
        table[key] = table.get(key, 0) + i * i % 7
    return table


def timed_reference() -> Sample:
    start = time.perf_counter()
    reference_loop()
    return start, time.perf_counter(), os.getpid()


class SpeedProbe:
    """Reference-loop samples of one timed unit, from every process."""

    def __init__(self, spool_dir: str) -> None:
        self.pid = os.getpid()
        self.spool_dir = spool_dir
        os.makedirs(spool_dir, exist_ok=True)
        self.samples: List[Sample] = []
        self._last = 0.0                    # end of the latest sample
        self._undo: list = []

    def sample(self) -> None:
        self.samples.append(timed_reference())
        self._last = self.samples[-1][1]

    def install(self) -> "SpeedProbe":
        """Sample before simulation segments; pool workers spool.

        Like the layer tracer's, the ``run_shard`` wrapper keeps the
        function's module and name, so the pool pickles it by reference
        and the forked worker finds the wrapped one again.
        """
        from campaigns import patched
        from repro.core.profiling.session import ProfilingSession
        from repro.ed.device import EmulationDevice
        from repro.fleet import orchestrator as fleet_orchestrator
        from repro.fleet import worker as fleet_worker
        probe = self

        def make_sampled(method):
            @functools.wraps(method)
            def sampled(*args, **kwargs):
                if time.perf_counter() - probe._last >= SAMPLE_EVERY_S:
                    probe.sample()
                return method(*args, **kwargs)
            return sampled

        def make_shard(run_shard):
            @functools.wraps(run_shard)
            def spooled_shard(*args, **kwargs):
                if os.getpid() == probe.pid:
                    return run_shard(*args, **kwargs)
                probe.samples = []          # drop what fork copied
                try:
                    return run_shard(*args, **kwargs)
                finally:
                    probe._spool()
            return spooled_shard
        for owner, attr, make in (
                (EmulationDevice, "run", make_sampled),
                (ProfilingSession, "result", make_sampled),
                (fleet_worker, "run_shard", make_shard),
                (fleet_orchestrator, "run_shard",
                 lambda _: fleet_worker.run_shard)):
            self._undo.append(patched(owner, attr, make).__enter__())
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop().__exit__()

    def _spool(self) -> None:
        spool(self.samples, self.spool_dir, "speed")
        self.samples = []

    def collect(self) -> List[Sample]:
        """Every sample: this process's plus those pool workers spooled."""
        return sorted(self.samples
                      + collect_spooled(self.spool_dir, "speed"))


def spool(records: list, directory: str, kind: str) -> None:
    """Write a pool worker's records where the parent collects them."""
    path = os.path.join(directory, f"{kind}-{os.getpid()}-"
                        f"{time.perf_counter_ns()}.json")
    with open(path, "w") as handle:
        json.dump(records, handle)


def collect_spooled(directory: str, kind: str) -> List[tuple]:
    """Every record of ``kind`` that pool workers spooled."""
    records: List[tuple] = []
    for path in sorted(glob.glob(os.path.join(directory, f"{kind}-*.json"))):
        with open(path) as handle:
            records.extend(tuple(record) for record in json.load(handle))
    return records


def reference_seconds(start: float, end: float, samples: List[Sample],
                      workers: int = 1) -> float:
    """``[start, end)`` in reference seconds.

    The samples inside the interval ran on its clock, so their time
    comes off it (shared between ``workers`` parallel processes).  The
    interval's speed is the mean over those samples and the last sample
    before and the first after it.
    """
    inside = [s for s in samples if s[0] >= start and s[1] <= end]
    before = [s for s in samples if s[1] <= start][-1:]
    after = [s for s in samples if s[0] >= end][:1]
    near = before + inside + after
    if not near:
        raise ValueError("no speed sample around a timed interval")
    probe_s = sum(e - s for s, e, _ in inside) / workers
    mean_s = statistics.fmean(e - s for s, e, _ in near)
    return (end - start - probe_s) * REF_S / mean_s
