"""The three campaign workloads and their correctness gate.

Each workload is one *timed unit*: a whole campaign (or, for the
service, a whole closed-loop session) from the first submission to the
last ``aggregate.json``, followed by replays of what it wrote.  A unit
returns its timed intervals with the speed samples taken around and
inside them (:mod:`speed`), the SHA-256 of every aggregate it wrote next
to the spec that produced it, and its operation counts.
:func:`reference_aggregates` runs every spec of the run once through a
plain in-process ``run_campaign`` (no cache, no checkpoints, no pool)
before the timed units, and :func:`check_aggregates` requires every
aggregate they wrote to be byte-identical to it.

Everything here drives the program through its public API.  Three
probes wrap program calls in every run, traced or not, because the
measurements need them:

* :class:`speed.SpeedProbe` samples the host's speed where jobs run;
* :class:`AppendClock` notes when a store's first result record became
  durable (``first_result_s`` of the non-service workloads);
* :class:`EvictionGate` fixes when tenant ``alpha`` arrives during
  ``serve-preempt``: at ``beta``'s first checkpoint after each dispatch.
  Without it the eviction point would depend on thread timing, and the
  per-layer counts could not repeat exactly.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import QuotaExceeded, ServiceUnavailable
from repro.fleet import store as fleet_store
from repro.fleet import worker as fleet_worker
from repro.fleet.api import CampaignSpec, run_campaign
from repro.fleet.spec import canonical_json
from repro.fleet.store import ResultStore
from repro.serve.service import COMPLETED, CampaignService

from specs import (POOL_WORKERS, REPLAYS, SERVE_CAMPAIGNS, fleet_spec,
                   serve_specs)
from speed import Sample, SpeedProbe, reference_seconds

#: longest a checkpointed beta job waits for alpha's submission to land
GATE_TIMEOUT_S = 60.0
#: longest a whole service session may take before the run gives up
SESSION_TIMEOUT_S = 150.0


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


#: ``(start, end)`` on the ``time.perf_counter()`` clock
Interval = Tuple[float, float]


@dataclass
class Unit:
    """What one timed unit measured and produced."""

    #: first submission -> last aggregate (or last stream closed)
    campaign: Interval = (0.0, 0.0)
    #: one per replay (warm re-submission or service restart)
    replays: List[Interval] = field(default_factory=list)
    #: submit -> first durable/streamed result, one per campaign
    first_results: List[Interval] = field(default_factory=list)
    #: which work the unit did: the population index of a fleet unit;
    #: every service session does the same work
    population: int = 0
    #: processes running jobs side by side
    workers: int = 1
    #: reference-loop runs around and inside the intervals
    samples: List[Sample] = field(default_factory=list)
    #: (spec, sha256 of the aggregate bytes) for every aggregate written
    aggregates: List[Tuple[CampaignSpec, str]] = field(default_factory=list)
    attempted: int = 0          # jobs submitted + service submissions
    failed: int = 0             # jobs quarantined or retried + refusals
    problems: List[str] = field(default_factory=list)
    #: the service of a ``serve-preempt`` session, for layer metrics
    service: Optional[CampaignService] = None

    @property
    def campaign_s(self) -> float:
        """Wall seconds of the campaign interval."""
        return self.campaign[1] - self.campaign[0]

    @property
    def timed_s(self) -> float:
        """Wall seconds timed: the campaign(s) plus all the replays."""
        return self.campaign_s + sum(end - start
                                     for start, end in self.replays)

    def reference_s(self, interval: Interval) -> float:
        return reference_seconds(*interval, self.samples, self.workers)


class patched:
    """Replace ``owner.attr`` with ``make(original)`` inside a block."""

    def __init__(self, owner, attr: str, make: Callable) -> None:
        self.owner, self.attr, self.make = owner, attr, make

    def __enter__(self):
        self.original = getattr(self.owner, self.attr)
        setattr(self.owner, self.attr, self.make(self.original))
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.owner, self.attr, self.original)


class AppendClock:
    """Time of the first durable ``ResultStore.append`` per store."""

    def __init__(self) -> None:
        self.first: Dict[str, float] = {}

    def install(self) -> patched:
        first = self.first

        def make(original):
            def append(store, record, *args, **kwargs):
                result = original(store, record, *args, **kwargs)
                first.setdefault(store.path, time.perf_counter())
                return result
            return append
        return patched(fleet_store.ResultStore, "append", make)


def _job_counts(records) -> Tuple[int, int]:
    """(jobs, jobs quarantined or retried) from result-store records."""
    failed = 0
    for record in records:
        if record.get("status") == "quarantined":
            failed += 1
        elif record.get("source") == "executed":
            failed += max(0, int(record.get("attempts", 1)) - 1)
    return len(records), failed


def fleet_unit(workload: str, seed: int, directory: str, index: int,
               probe: SpeedProbe) -> Unit:
    """Cold campaign, then warm re-submissions of the same spec."""
    spec, population = fleet_spec(workload, seed, index)
    workers = 0 if workload == "fine-portfolio" else POOL_WORKERS
    dirs = dict(cache_dir=os.path.join(directory, "cache"),
                campaign_dir=os.path.join(directory, "campaign"))
    clock = AppendClock()
    with clock.install():
        start = time.perf_counter()
        cold = run_campaign(spec, workers=workers, **dirs)
        end = time.perf_counter()
    first = clock.first.get(cold.store_path)
    cold_sha = sha256_file(cold.aggregate_path)
    warm, replays = [], []
    for _ in range(REPLAYS[workload]):
        probe.sample()
        replay_start = time.perf_counter()
        warm.append(run_campaign(spec, workers=workers, **dirs))
        replays.append((replay_start, time.perf_counter()))

    unit = Unit(campaign=(start, end), replays=replays,
                first_results=[(start, first)] if first else [],
                population=population, workers=max(1, workers),
                aggregates=[(spec, cold_sha)])
    if first is None:
        unit.problems.append("the cold campaign stored no result")
    for report in [cold] + warm:
        jobs, failed = _job_counts(report.records)
        unit.attempted += jobs
        unit.failed += failed
        if report.quarantined:
            unit.problems.append(
                f"{len(report.quarantined)} quarantined jobs")
    for report in warm:
        if report.metrics.executed or \
                report.metrics.cache_hits != report.metrics.total_jobs:
            unit.problems.append(
                f"a warm replay executed {report.metrics.executed} jobs "
                f"and hit the cache {report.metrics.cache_hits} times of "
                f"{report.metrics.total_jobs}")
    # every replay rewrote the same file; the last one must still hold
    # the cold run's bytes
    if sha256_file(warm[-1].aggregate_path) != cold_sha:
        unit.problems.append("warm replay aggregate differs from the "
                             "cold run's")
    return unit


class EvictionGate:
    """Alpha's arrival time, made deterministic.

    While alpha still has campaigns to submit, the first checkpoint a
    beta campaign writes after each dispatch signals alpha's client and
    holds beta's slot thread until the scheduler has asked beta to yield.
    Beta is then evicted at exactly that checkpoint, whatever the thread
    timing: two evictions per session, each at a known cycle.
    """

    def __init__(self, service: CampaignService,
                 loop: asyncio.AbstractEventLoop) -> None:
        self.service = service
        self.loop = loop
        self.arrived = asyncio.Event()
        self.alpha_left = SERVE_CAMPAIGNS - 1
        self.timeouts = 0
        self._seen = set()
        self._lock = threading.Lock()

    def install(self) -> patched:
        def make(original):
            def save_checkpoint(path, *args, **kwargs):
                result = original(path, *args, **kwargs)
                self._at_checkpoint(path)
                return result
            return save_checkpoint
        return patched(fleet_worker, "save_checkpoint", make)

    def _at_checkpoint(self, path: str) -> None:
        # <root>/campaigns/<campaign id>/checkpoints/<job id>.ckpt
        campaign_id = os.path.basename(os.path.dirname(os.path.dirname(path)))
        campaign = self.service.campaigns.get(campaign_id)
        if campaign is None or campaign.tenant != "beta":
            return
        with self._lock:
            key = (campaign_id, campaign.attempts)
            if self.alpha_left <= 0 or key in self._seen:
                return
            self._seen.add(key)
        self.loop.call_soon_threadsafe(self.arrived.set)
        if not campaign.yield_flag.wait(GATE_TIMEOUT_S):
            self.timeouts += 1


@dataclass
class _Submitted:
    spec: CampaignSpec
    campaign: object
    submitted_at: float
    first_result_at: Optional[float] = None
    done_at: float = 0.0


async def _submit(service, tenant, priority, spec, refusals) -> _Submitted:
    """Submit, retrying (and counting) quota and availability refusals."""
    while True:
        now = time.perf_counter()
        try:
            campaign = service.submit(
                tenant, dict(spec.to_dict(), priority=priority))
            return _Submitted(spec, campaign, now)
        except (QuotaExceeded, ServiceUnavailable) as exc:
            refusals.append(tenant)
            await asyncio.sleep(min(5.0, exc.retry_after_s or 0.5))


async def _follow(entry: _Submitted) -> None:
    """Read the campaign's event stream until the campaign is terminal."""
    buffer, last = entry.campaign.buffer, 0
    while True:
        await buffer.wait(last)
        events, closed = buffer.since(last)
        for event_id, name, _data in events:
            last = event_id
            if name == "job.result" and entry.first_result_at is None:
                entry.first_result_at = time.perf_counter()
        if closed:
            entry.done_at = time.perf_counter()
            return


async def _tenant(service, gate, tenant, priority, specs, first,
                  refusals, done) -> None:
    """One closed-loop client: next campaign only after the last one."""
    entry = first
    for k in range(len(specs)):
        if k:
            if tenant == "alpha":
                await gate.arrived.wait()
                gate.arrived.clear()
                gate.alpha_left -= 1
            entry = await _submit(service, tenant, priority, specs[k],
                                  refusals)
        await _follow(entry)
        done.append(entry)


async def _serve_session(root: str, seed: int, unit: Unit) -> None:
    plan = serve_specs(seed)
    service = CampaignService(root)
    await service.start()
    gate = EvictionGate(service, asyncio.get_running_loop())
    refusals: List[str] = []
    done: List[_Submitted] = []
    with gate.install():
        # both tenants' first campaigns are queued before the scheduler
        # runs, so alpha (higher priority) is always dispatched first
        firsts = [await _submit(service, tenant, priority, specs[0],
                                refusals)
                  for tenant, priority, specs in plan]
        start = min(e.submitted_at for e in firsts)
        clients = asyncio.gather(*[
            _tenant(service, gate, tenant, priority, specs, first,
                    refusals, done)
            for (tenant, priority, specs), first in zip(plan, firsts)])
        try:
            await asyncio.wait_for(clients, SESSION_TIMEOUT_S)
        except asyncio.TimeoutError:
            unit.problems.append(f"the session did not finish within "
                                 f"{SESSION_TIMEOUT_S:.0f} s")
        unit.campaign = (start, max((e.done_at for e in done),
                                    default=start))
    await service.stop()

    unit.service = service
    unit.attempted += len(done) + len(refusals)
    unit.failed += len(refusals)
    if gate.timeouts:
        unit.problems.append(f"{gate.timeouts} eviction rendezvous "
                             f"timed out")
    for entry in done:
        campaign = entry.campaign
        if entry.first_result_at is not None:
            unit.first_results.append(
                (entry.submitted_at, entry.first_result_at))
        if campaign.state != COMPLETED or campaign.aggregate_path is None:
            unit.problems.append(
                f"{campaign.campaign_id} ended {campaign.state}: "
                f"{campaign.error}")
            continue
        if campaign.quarantined:
            unit.problems.append(f"{campaign.campaign_id} quarantined "
                                 f"{len(campaign.quarantined)} jobs")
        jobs, failed = _job_counts(ResultStore(campaign.directory).load())
        unit.attempted += jobs
        unit.failed += failed
        unit.aggregates.append(
            (entry.spec, sha256_file(campaign.aggregate_path)))


async def _serve_restart(root: str, expected: Dict[str, tuple],
                         unit: Unit) -> Interval:
    """Restart on the session's root and read every campaign back.

    ``expected`` maps each campaign id to its job count and aggregate
    SHA-256; anything read back differently is a problem of ``unit``.
    """
    start = time.perf_counter()
    service = CampaignService(root)
    await service.start()
    pages = {campaign_id: (service.results_page(campaign, 0),
                           service.aggregate_text(campaign))
             for campaign_id, campaign in service.campaigns.items()}
    end = time.perf_counter()
    await service.stop()
    if sorted(pages) != sorted(expected):
        unit.problems.append(f"restart recovered {sorted(pages)}, not "
                             f"{sorted(expected)}")
    for campaign_id, (page, text) in pages.items():
        jobs = sum(r.get("status") == "ok" for r in page["records"])
        sha = hashlib.sha256((text or "").encode("utf-8")).hexdigest()
        if (jobs, sha) != expected.get(campaign_id):
            unit.problems.append(f"restart read back {campaign_id} "
                                 f"differently")
    return start, end


def serve_unit(seed: int, directory: str, probe: SpeedProbe) -> Unit:
    """The closed-loop service session, then restart read-backs."""
    unit = Unit()
    root = os.path.join(directory, "service")
    asyncio.run(_serve_session(root, seed, unit))
    expected = {c.campaign_id: (c.jobs_total, sha256_file(c.aggregate_path))
                for c in unit.service.campaigns.values()
                if c.aggregate_path is not None}
    for _ in range(REPLAYS["serve-preempt"]):
        probe.sample()
        unit.replays.append(asyncio.run(_serve_restart(root, expected,
                                                       unit)))
    return unit


def run_unit(workload: str, seed: int, directory: str,
             index: int = 0) -> Unit:
    """Timed unit number ``index`` of a run, with its speed samples."""
    probe = SpeedProbe(os.path.join(directory, "speed")).install()
    try:
        probe.sample()
        if workload == "serve-preempt":
            unit = serve_unit(seed, directory, probe)
        else:
            unit = fleet_unit(workload, seed, directory, index, probe)
        probe.sample()
    finally:
        probe.uninstall()
    unit.samples = probe.collect()
    return unit


def reference_aggregates(specs: List[CampaignSpec], directory: str,
                         problems: List[str]) -> Dict[str, str]:
    """SHA-256 of each spec's aggregate from a plain in-process run.

    Runs before any timed unit, so it also finishes the lazy set-up
    (first-use imports and tables) a process pays once.
    """
    reference: Dict[str, str] = {}
    for index, spec in enumerate(specs):
        report = run_campaign(spec, workers=0, campaign_dir=os.path.join(
            directory, f"reference-{index}"))
        if report.quarantined or report.aggregate_path is None:
            problems.append(f"reference run of seed {spec.seed} did not "
                            f"complete cleanly")
            continue
        reference[canonical_json(spec.to_dict())] = \
            sha256_file(report.aggregate_path)
    return reference


def check_aggregates(aggregates: List[Tuple[CampaignSpec, str]],
                     reference: Dict[str, str]) -> List[str]:
    """Compare every aggregate with the in-process run of its spec."""
    return [f"aggregate of seed {spec.seed} differs from the in-process "
            f"reference" for spec, sha in aggregates
            if reference.get(canonical_json(spec.to_dict())) != sha]
