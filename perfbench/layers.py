"""Layer spans for the traced run, recorded from the benchmark's side.

:class:`LayerTracer` wraps the public entry point of each layer at
runtime (module or class attributes; nothing under ``src/`` changes) and
records one span per call: name, start, end, process, thread, its own
id, the id of the span that caused it, and the request it served (the
job, or the campaign for service calls).  Spans stay in memory and are
written out when the run ends, as Chrome trace-event JSON that
``repro traces ingest`` reads.

Process-pool workers are forked from the benchmark process, so they
inherit the wrappers.  A worker keeps the spans of one shard in memory
and, when the shard ends, writes them to a spool file in the run
directory; the parent reads the spool after the campaign.  Spans of
every process use ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux),
one clock for all of them.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.core.profiling.session import ProfilingSession
from repro.ed.device import EmulationDevice
from repro.fleet import orchestrator as fleet_orchestrator
from repro.fleet import worker as fleet_worker
from repro.fleet.cache import ResultCache
from repro.fleet.orchestrator import CampaignRunner
from repro.fleet.spec import CampaignJob
from repro.fleet.store import ResultStore
from repro.resilience.journal import AdmissionJournal
from repro.serve.queue import FairQueue
from repro.serve.service import CampaignService
from repro.soc.kernel.simulator import Simulator

from campaigns import patched
from speed import collect_spooled, spool

#: spans that do a layer's work; their union is what ``other_s`` excludes
LAYER_SPANS = (
    "workloads.build", "ed.run", "profiling.decode", "profiling.serialise",
    "checkpoint.snapshot", "checkpoint.save", "checkpoint.load",
    "checkpoint.restore", "fleet.store.append", "fleet.store.rewrite",
    "fleet.aggregate.write", "fleet.cache.store", "fleet.cache.lookup",
    "serve.submit", "resilience.journal",
)


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _ticks(device) -> Dict[str, int]:
    stats = device.soc.sim.kernel_stats()
    return {entry["name"]: entry["ticks"] for entry in stats["components"]}


class LayerTracer:
    """Installs the layer wrappers and holds the spans they record."""

    def __init__(self, spool_dir: str) -> None:
        self.pid = os.getpid()
        self.spool_dir = spool_dir
        os.makedirs(spool_dir, exist_ok=True)
        #: (name, start, end, pid, tid, span id, parent id, request, args)
        self.spans: List[tuple] = []
        self.reports: List = []           # every CampaignReport produced
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[patched] = []
        self._enqueued: Dict[str, float] = {}

    # -- span recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, start: float, end: float, span_id: str,
                parent: Optional[str], request, args: Dict) -> None:
        self.spans.append((name, start, end, os.getpid(),
                           threading.get_native_id(), span_id, parent,
                           request, args))

    def _span_id(self) -> str:
        return f"{os.getpid()}.{next(self._ids)}"

    def _patch(self, owner, attr: str, make: Callable) -> None:
        self._undo.append(patched(owner, attr, make).__enter__())

    def _wrap(self, owner, attr: str, name: str,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None,
              request: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args, kwargs)`` runs before the clock starts and
        ``after(args, kwargs, result, ctx)`` after it stops, so the
        probes they make (file sizes, kernel counters) stay out of the
        span.  ``request(args, kwargs)`` names the request the call
        serves; by default it is inherited from the enclosing span.
        """
        tracer = self

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                ctx = before(args, kwargs) if before else None
                stack = tracer._stack()
                parent, inherited = stack[-1] if stack else (None, None)
                req = request(args, kwargs) if request else inherited
                span_id = tracer._span_id()
                stack.append((span_id, req))
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    tracer._record(name, start, time.perf_counter(),
                                   span_id, parent, req,
                                   {"error": type(exc).__name__})
                    raise
                finally:
                    stack.pop()
                end = time.perf_counter()
                tracer._record(name, start, end, span_id, parent, req,
                               after(args, kwargs, result, ctx)
                               if after else {})
                return result
            return wrapper
        self._patch(owner, attr, make)

    # -- the layers ----------------------------------------------------------
    def install(self) -> "LayerTracer":
        wrap = self._wrap
        # workloads: device build, per scenario class that defines build()
        owners = []
        for scenario in fleet_worker.SCENARIOS.values():
            owner = next(cls for cls in scenario.__mro__
                         if "build" in cls.__dict__)
            if owner not in owners:
                owners.append(owner)
        for owner in owners:
            wrap(owner, "build", "workloads.build")

        # simulation kernel + measurement plane: one armed device run
        def run_before(args, kwargs):
            return _ticks(args[0])

        def run_after(args, kwargs, result, before_ticks):
            after_ticks = _ticks(args[0])
            cycles = args[1] if len(args) > 1 else kwargs["cycles"]
            return {"cycles": int(cycles),
                    "ticks": sum(after_ticks.values())
                    - sum(before_ticks.values()),
                    "mcds_ticks": after_ticks.get("mcds", 0)
                    - before_ticks.get("mcds", 0)}
        wrap(EmulationDevice, "run", "ed.run", run_before, run_after)

        def decode_after(args, kwargs, result, ctx):
            device = args[0].device
            return {"messages": len(device.dap.received)
                    + device.emem.message_count,
                    "trace_bits": int(result.trace_bits),
                    "lost": int(result.lost_messages)}
        wrap(ProfilingSession, "result", "profiling.decode",
             after=decode_after)
        wrap(fleet_worker, "result_to_json", "profiling.serialise",
             after=lambda a, k, result, c: {"bytes": len(result)})

        # checkpointing
        wrap(Simulator, "snapshot_state", "checkpoint.snapshot")
        wrap(fleet_worker, "save_checkpoint", "checkpoint.save",
             after=lambda a, k, result, c: {"bytes": _size(result)})
        wrap(fleet_worker, "load_latest_checkpoint", "checkpoint.load")
        wrap(Simulator, "restore_state", "checkpoint.restore")

        # fleet: jobs, store, cache, aggregate, campaigns, pool shards
        wrap(fleet_worker, "execute_job", "fleet.execute_job",
             after=lambda a, k, r, c: {
                 "job_id": CampaignJob.from_dict(a[0]).job_id},
             request=lambda a, k: a[0]["name"])
        wrap(ResultStore, "append", "fleet.store.append",
             before=lambda a, k: _size(a[0].path),
             after=lambda a, k, r, size0: {
                 "bytes": _size(a[0].path) - size0,
                 "job_id": a[1].get("job_id"),
                 "source": a[1].get("source")},
             request=lambda a, k: a[1].get("job_id"))
        wrap(ResultStore, "rewrite", "fleet.store.rewrite")
        wrap(ResultStore, "write_aggregate", "fleet.aggregate.write",
             after=lambda a, k, result, c: {"bytes": _size(result)})
        wrap(ResultCache, "store", "fleet.cache.store")
        wrap(ResultCache, "lookup", "fleet.cache.lookup",
             after=lambda a, k, result, c: {"hit": result is not None})

        def campaign_after(args, kwargs, report, ctx):
            self.reports.append(report)
            return {"jobs": report.metrics.total_jobs,
                    "executed": report.metrics.executed,
                    "preempted": report.preempted}
        wrap(CampaignRunner, "run", "fleet.campaign", after=campaign_after)
        self._wrap_shard()

        # service and its journal
        wrap(CampaignService, "submit", "serve.submit",
             after=lambda a, k, campaign, c: {
                 "campaign": campaign.campaign_id},
             request=lambda a, k: a[1])
        wrap(AdmissionJournal, "append", "resilience.journal",
             after=lambda a, k, r, c: {"op": a[1]})
        self._wrap_queue()
        return self

    def _wrap_shard(self) -> None:
        """``run_shard``: a pool worker spools its shard's spans.

        The wrappers keep ``run_shard``'s module and name, so the pool
        pickles the function by reference and the forked worker finds
        the wrapped one again.
        """
        tracer = self

        def before(args, kwargs):
            if os.getpid() != tracer.pid:
                tracer.spans = []          # drop the spans fork copied
        self._wrap(fleet_worker, "run_shard", "fleet.shard", before,
                   lambda a, k, r, c: {"jobs": len(a[0])})

        def make(traced):
            @functools.wraps(traced)
            def run_shard(*args, **kwargs):
                try:
                    return traced(*args, **kwargs)
                finally:
                    if os.getpid() != tracer.pid:
                        tracer._spool()
            return run_shard
        self._patch(fleet_worker, "run_shard", make)
        self._patch(fleet_orchestrator, "run_shard",
                    lambda original: fleet_worker.run_shard)

    def _wrap_queue(self) -> None:
        """Queue wait: from each push until the pop that dispatches it."""
        tracer = self

        def make_push(push):
            @functools.wraps(push)
            def traced_push(queue, campaign_id, *args, **kwargs):
                entry = push(queue, campaign_id, *args, **kwargs)
                tracer._enqueued[campaign_id] = time.perf_counter()
                return entry
            return traced_push

        def make_pop(pop):
            @functools.wraps(pop)
            def traced_pop(queue):
                entry = pop(queue)
                if entry is not None and \
                        entry.campaign_id in tracer._enqueued:
                    tracer._record(
                        "serve.queue_wait",
                        tracer._enqueued.pop(entry.campaign_id),
                        time.perf_counter(), tracer._span_id(), None,
                        entry.campaign_id, {"tenant": entry.tenant})
                return entry
            return traced_pop
        self._patch(FairQueue, "push", make_push)
        self._patch(FairQueue, "pop", make_pop)

    def _spool(self) -> None:
        spool(self.spans, self.spool_dir, "spans")
        self.spans = []

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop().__exit__()

    def collect(self) -> List[tuple]:
        """Every span: this process's plus those pool workers spooled."""
        return ([tuple(span) for span in self.spans]
                + collect_spooled(self.spool_dir, "spans"))


def _union_length(intervals: List[tuple]) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(spans: List[tuple], window: tuple, workers: int,
                  kernel_s: float, kernel_cycles: int, service,
                  reports: List, tracer_pid: int,
                  speed_samples: List[tuple]) -> Dict[str, float]:
    """Fold spans into the per-layer metrics (see NOTES.md).

    The benchmark's own speed samples count as covered for ``other_s``
    and as no work for ``fleet.busy_s``.
    """
    busy: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    notes: Dict[str, float] = defaultdict(float)
    executed_at: Dict[str, float] = {}
    appends = []
    lookups = hits = 0
    for name, start, end, pid, _tid, _sid, _parent, _req, args in spans:
        busy[name] += end - start
        calls[name] += 1
        for key, value in args.items():
            if isinstance(value, (int, float)) and \
                    not isinstance(value, bool):
                notes[f"{name}:{key}"] += value
        if name == "fleet.execute_job" and "job_id" in args:
            executed_at[args["job_id"]] = end
        elif name == "fleet.store.append" and \
                args.get("source") == "executed":
            appends.append((end, args.get("job_id")))
        elif name == "fleet.cache.lookup":
            lookups += 1
            hits += bool(args.get("hit"))
    # the benchmark's speed samples run inside jobs; they are not job work
    busy["fleet.execute_job"] -= sum(
        e - s for s, e, pid in speed_samples
        if any(name == "fleet.execute_job" and span_pid == pid
               and job_start <= s and e <= job_end
               for name, job_start, job_end, span_pid, *_ in spans))
    record_delay = sum(end - executed_at.pop(job_id)
                       for end, job_id in sorted(appends)
                       if job_id in executed_at)
    start, end = window
    campaign_s = end - start
    covered = _union_length([
        (max(s, start), min(e, end)) for s, e in
        [(s, e) for name, s, e, *_ in spans if name in LAYER_SPANS]
        + [(s, e) for s, e, _pid in speed_samples]
        if e > start and s < end])
    capacity = max(1, workers) * campaign_s
    evictions = streamed = 0
    if service is not None:
        for campaign in service.campaigns.values():
            evictions += campaign.evictions
            streamed += campaign.results_streamed
    return {
        "mcds.plane_s": busy["ed.run"] - kernel_s,
        "soc.ticks.mcds": notes["ed.run:mcds_ticks"],
        "mcds.messages": notes["profiling.decode:messages"],
        "mcds.trace_bits": notes["profiling.decode:trace_bits"],
        "ed.lost_messages": notes["profiling.decode:lost"],
        "soc.kernel_s": kernel_s,
        "soc.sim_cycles": notes["ed.run:cycles"],
        "soc.ticks": notes["ed.run:ticks"],
        "soc.cycles_per_s": kernel_cycles / kernel_s if kernel_s else 0.0,
        "profiling.decode_s": busy["profiling.decode"],
        "profiling.serialise_s": busy["profiling.serialise"],
        "profiling.payload_bytes": notes["profiling.serialise:bytes"],
        "checkpoint.save_s": busy["checkpoint.save"]
        + busy["checkpoint.snapshot"],
        "checkpoint.saves": calls["checkpoint.save"],
        "checkpoint.bytes": notes["checkpoint.save:bytes"],
        "checkpoint.restore_s": busy["checkpoint.load"]
        + busy["checkpoint.restore"],
        "checkpoint.restores": calls["checkpoint.restore"],
        "fleet.store.append_s": busy["fleet.store.append"],
        "fleet.store.bytes": notes["fleet.store.append:bytes"],
        "fleet.store.rewrite_s": busy["fleet.store.rewrite"],
        "fleet.cache.store_s": busy["fleet.cache.store"],
        "fleet.cache.lookup_s": busy["fleet.cache.lookup"],
        "fleet.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "fleet.aggregate.write_s": busy["fleet.aggregate.write"],
        "fleet.aggregate.bytes": notes["fleet.aggregate.write:bytes"],
        "fleet.record_delay_s": record_delay,
        "fleet.busy_s": busy["fleet.execute_job"],
        "fleet.worker_utilization": busy["fleet.execute_job"] / capacity,
        "fleet.pool_idle_s": capacity - busy["fleet.execute_job"],
        "fleet.retries": sum(r.metrics.retries for r in reports),
        "fleet.quarantined": sum(r.metrics.quarantined for r in reports),
        "serve.submit_s": busy["serve.submit"],
        "serve.queue_wait_s": busy["serve.queue_wait"],
        "serve.evictions": evictions,
        "serve.results_streamed": streamed,
        "resilience.journal_records": calls["resilience.journal"],
        "resilience.journal_s": busy["resilience.journal"],
        "workloads.build_s": busy["workloads.build"],
        "other_s": campaign_s - covered,
        "trace.forked_workers": len({span[3] for span in spans
                                     if span[3] != tracer_pid}),
    }


def write_chrome(spans: List[tuple], path: str, tracer_pid: int,
                 other: Dict) -> str:
    """Write the spans as Chrome trace-event JSON (``ph: X``)."""
    origin = min((span[1] for span in spans), default=0.0)
    events = []
    for pid in sorted({span[3] for span in spans}):
        label = "benchmark" if pid == tracer_pid else f"pool worker {pid}"
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": label}})
    for name, start, end, pid, tid, span_id, parent, req, args in \
            sorted(spans, key=lambda span: span[1]):
        body = dict(args)
        body.update({"id": span_id, "parent": parent, "job": req})
        events.append({"name": name, "cat": name.split(".")[0], "ph": "X",
                       "ts": (start - origin) * 1e6,
                       "dur": (end - start) * 1e6,
                       "pid": pid, "tid": tid, "args": body})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": other}, handle)
    return path
