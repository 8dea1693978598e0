"""Workload sizes and the campaign specs each seed generates.

Kept free of module-level ``repro`` imports so the set-up probe can time
exactly the imports a workload needs.  NOTES.md explains the sizes.
"""

from __future__ import annotations

from typing import List, Tuple

WORKLOADS = ("fine-portfolio", "serve-preempt", "pool-default")

#: fine grid of E17: 32-cycle IPC windows, per-instruction event rates
FINE = dict(count=4, cycles=20_000, ipc_resolution=32, rate_per=1)
#: default grid (ipc_resolution=256, rate_per=100), long jobs
POOL = dict(count=8, cycles=120_000)
#: populations a fleet workload's timed units cycle through, one per unit
POPULATIONS = {"fine-portfolio": 2, "pool-default": 3}
#: process-pool width: the host's 2 cores (the CLI default of 4 would
#: oversubscribe them)
POOL_WORKERS = 2
#: default grid, 60k-cycle jobs, as the service's tenants submit them
SERVE = dict(count=2, cycles=60_000)
#: campaigns each closed-loop tenant submits, one after the other
SERVE_CAMPAIGNS = 3
#: replays per timed unit (warm re-submissions, or service restarts);
#: ``replay_s`` is the median of every replay of the run
REPLAYS = {"fine-portfolio": 1, "pool-default": 5, "serve-preempt": 45}
#: (tenant, priority): alpha's submissions evict beta's running campaign
TENANTS = (("alpha", 1), ("beta", 0))


def fleet_spec(workload: str, seed: int, unit: int = 0):
    """``(spec, population)`` of timed unit ``unit`` of a fleet workload.

    Successive units cycle through :data:`POPULATIONS` populations
    derived from the seed.  Which customers a population draws moves a
    campaign's time by 15% or more (and, on the pool, how evenly its jobs
    fall into digest-sharded shards by up to a third); a median over
    several populations keeps those effects in the metric without
    letting one seed's draw decide it.
    """
    from repro.fleet.api import CampaignSpec
    sizes = FINE if workload == "fine-portfolio" else POOL
    population = unit % POPULATIONS[workload]
    return CampaignSpec(seed=seed * 100 + population, **sizes), population


def serve_specs(seed: int) -> List[Tuple[str, int, list]]:
    """Per tenant: ``(tenant, priority, [spec, ...])`` in submission order.

    Every campaign gets its own population, derived from the workload
    seed, so no two campaigns of a session compute the same jobs.
    """
    from repro.fleet.api import CampaignSpec
    plan = []
    for index, (tenant, priority) in enumerate(TENANTS):
        specs = [CampaignSpec(seed=seed * 100 + index * 10 + k, **SERVE)
                 for k in range(SERVE_CAMPAIGNS)]
        plan.append((tenant, priority, specs))
    return plan


def all_specs(workload: str, seed: int, units: int = None) -> list:
    """Every spec the first ``units`` timed units (default: all) submit."""
    if workload == "serve-preempt":
        return [spec for _, _, specs in serve_specs(seed) for spec in specs]
    count = POPULATIONS[workload] if units is None \
        else min(units, POPULATIONS[workload])
    return [fleet_spec(workload, seed, k)[0] for k in range(count)]
