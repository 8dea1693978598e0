"""Campaign benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fine-portfolio --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  The
timed unit (a whole campaign, or a whole service session) repeats until
``--seconds`` of measured time have passed, at least once.  Timings are
in reference seconds (speed.py: wall time corrected for the host's
speed, sampled where the work runs), median per population of the seed,
then median over the populations.  ``--trace 1`` runs two units
untraced and two traced, re-runs the same jobs on a bare kernel, and
reports the per-layer metrics; its spans go to
``.bench_traces/<workload>-s<seed>.trace.json`` as Chrome trace-event
JSON.  Both modes first run every spec of the run through a plain
in-process ``run_campaign``, then check every aggregate the timed units
write against it and exit 1, with ``correct: false`` and no metrics, on
any mismatch.  NOTES.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: set-ups measured per run, each in a fresh interpreter
SETUPS = 5


def median(values):
    return statistics.median(values) if values else 0.0


def unit_times(unit) -> dict:
    """A unit's timings in reference seconds (see speed.py)."""
    return {
        "campaign_s": unit.reference_s(unit.campaign),
        "replay_s": median([unit.reference_s(r) for r in unit.replays]),
        "first_result_s": median([unit.reference_s(r)
                                  for r in unit.first_results]),
    }


def per_population_median(figures, name: str) -> float:
    """Median over the run's populations of each one's median unit.

    ``figures`` holds ``(population, unit_times(unit))`` per unit.  Units
    go round the populations, so a plain median over units would weigh
    them by how many units each got.
    """
    times = {}
    for population, unit in figures:
        times.setdefault(population, []).append(unit[name])
    return median([median(values) for values in times.values()])


def reset_peak_rss() -> None:
    """Free garbage, then forget this process's largest resident set so
    far (Linux)."""
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError as exc:
        print(f"note: peak RSS not reset ({exc}); peak_rss_mb includes "
              f"the reference runs")


def peak_rss_mb() -> float:
    """Largest resident set since the reset: this process or any waited
    child (the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0          # ru_maxrss is KiB on Linux


def measure_setup(workload: str, seed: int, directory: str,
                  journal: str = None) -> float:
    """Median of :data:`SETUPS` set-ups, each in a fresh interpreter.

    Each in reference seconds, from the speed samples the set-up took.
    """
    from speed import reference_seconds
    times = []
    for index in range(SETUPS):
        root = os.path.join(directory, f"setup-{index}")
        os.makedirs(root)
        if journal:
            shutil.copy(journal, root)
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             workload, str(seed), root],
            capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(done.stdout.splitlines()[-1])
        times.append(reference_seconds(started, probe["ready"],
                                       probe["samples"]))
    return median(times)


def bare_kernel(specs):
    """The same jobs on a bare kernel: no profiling session armed."""
    from repro.fleet.worker import CONFIGS, SCENARIOS
    seconds, cycles = 0.0, 0
    for spec in specs:
        for job in spec.build_jobs():
            device = SCENARIOS[job.domain]().build(
                CONFIGS[job.device](), dict(job.params), seed=job.seed)
            start = time.perf_counter()
            device.run(job.cycles)
            seconds += time.perf_counter() - start
            cycles += job.cycles
    return seconds, cycles


def untraced(args, work: str):
    from campaigns import run_unit
    units, figures, spent = [], [], 0.0
    while not units or spent < args.seconds:
        unit = run_unit(args.workload, args.seed,
                        os.path.join(work, f"unit-{len(units)}"), len(units))
        units.append(unit)
        spent += unit.timed_s
        figures.append((unit.population, unit_times(unit)))
        print(f"unit {len(units) - 1} (population {unit.population}): "
              f"wall campaign {unit.campaign_s:.4f} s; reference "
              + "; ".join(f"{name} {value:.4f} s"
                          for name, value in figures[-1][1].items()),
              flush=True)
    rss = peak_rss_mb()
    journal = None
    if args.workload == "serve-preempt":
        from repro.resilience.journal import JOURNAL_NAME
        journal = os.path.join(work, "unit-0", "service", JOURNAL_NAME)
    setup_s = measure_setup(args.workload, args.seed, work, journal)
    print(f"units measured: {len(units)} over "
          f"{len({unit.population for unit in units})} populations; "
          f"replay_s samples: {sum(len(u.replays) for u in units)}; "
          f"first_result_s samples: "
          f"{sum(len(u.first_results) for u in units)}; speed samples: "
          f"{sum(len(u.samples) for u in units)}")
    metrics = {name: per_population_median(figures, name)
               for name in ("campaign_s", "replay_s", "first_result_s")}
    metrics.update(setup_s=setup_s, peak_rss_mb=rss)
    return units, metrics


def traced(args, work: str):
    """Untraced and traced units in ABBA order, then the layer split.

    The per-layer metrics come from the first traced unit; the second
    pair only firms up ``trace.overhead_s``: the median traced minus the
    median untraced ``campaign_s``, in reference seconds as the
    end-to-end run reports it.
    """
    from campaigns import run_unit
    from layers import LayerTracer, layer_metrics, write_chrome
    from specs import POOL_WORKERS
    plain, traced_units, tracers = [], [], []
    for index, order in enumerate(("plain", "traced", "traced", "plain")):
        directory = os.path.join(work, f"{order}-{index}")
        if order == "plain":
            plain.append(run_unit(args.workload, args.seed, directory))
            continue
        tracer = LayerTracer(directory + "-spool").install()
        try:
            traced_units.append(run_unit(args.workload, args.seed,
                                         directory))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    unit, tracer = traced_units[0], tracers[0]
    spans = tracer.collect()
    kernel_s, kernel_cycles = bare_kernel(
        [spec for spec, _sha in unit.aggregates])
    workers = POOL_WORKERS if args.workload == "pool-default" else 1
    layer = layer_metrics(spans, unit.campaign, workers, kernel_s,
                          kernel_cycles, unit.service, tracer.reports,
                          tracer.pid, unit.samples)
    layer["trace.campaign_s"] = unit.campaign_s
    layer["trace.overhead_s"] = (
        median([u.reference_s(u.campaign) for u in traced_units])
        - median([u.reference_s(u.campaign) for u in plain]))
    split = ("spans shipped back from fork-inherited wrappers in "
             f"{int(layer['trace.forked_workers'])} pool workers"
             if args.workload == "pool-default"
             else "spans recorded in-process")
    path = write_chrome(
        spans, os.path.join(ROOT, ".bench_traces",
                            f"{args.workload}-s{args.seed}.trace.json"),
        tracer.pid, {"workload": args.workload, "seed": args.seed,
                     "layer_split": split})
    print(f"layer split: {split}")
    print(f"trace: {len(spans)} spans -> {os.path.relpath(path, ROOT)}")
    return plain + traced_units, layer


def declared_metrics(trace: int):
    """``(name, unit)`` of every metric ``BENCHMARK.json`` declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    return [(metric["name"], metric["unit"]) for metric in declared]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from specs import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    work = os.path.join(ROOT, ".bench_runs",
                        f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        from campaigns import check_aggregates, reference_aggregates
        from specs import all_specs
        problems = []
        # traced units all use the first population
        reference = reference_aggregates(
            all_specs(args.workload, args.seed, 1 if args.trace else None),
            os.path.join(work, "reference"), problems)
        reset_peak_rss()        # peak_rss_mb is the timed units' alone
        measure = traced if args.trace else untraced
        units, metrics = measure(args, work)
        problems += [p for unit in units for p in unit.problems]
        problems += check_aggregates(
            [a for unit in units for a in unit.aggregates], reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(unit.attempted for unit in units)
    failed = sum(unit.failed for unit in units)
    if problems:
        for problem in problems:
            print(f"INCORRECT: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    result = {}
    for name, unit in declared_metrics(args.trace):
        value = metrics[name]
        if unit in ("count", "B"):
            value = int(value)
        result[name] = {"value": value, "unit": unit}
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{args.workload} {name} = {shown} {unit}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
