"""The repository's benchmark: four workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-sm --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same plan twice on a shorter budget, untraced and
then with spans wrapped around the program's layers (see ``spans.py``),
and reports the per-layer metrics; it also writes the spans as a Chrome
``trace_event`` file and a self-time table that sums to the traced wall
under ``.bench_build/perfbench/``.  Every point's stats are checked
against the committed digests (``pools.py``); the last stdout line is
the JSON result, preceded by one ``record`` line with host context and
every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: Hard deadline of one run's timed phases; a run still exits (and
#: reports what it lost) well inside the 180 s limit.
DEADLINE_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "point_p50_s": "s",
    "sim_minst_per_s": "Minst/s",
    "peak_rss_mb": "MB",
}

#: Printed in the record line only.  The tail follows host CPU-speed
#: drift more than the other timings do, and its spread over ten seeds
#: reached the largest bound a metric may carry.
RECORD_ONLY = {
    "point_tail_s": "s",
    "traced_wall_s": "s",
}

PER_LAYER = {
    "sim.run_s": "s",
    "sim.sm_self_s": "s",
    "sim.ns_per_inst": "ns",
    "sim.memory_share": "ratio",
    "memory.line_s": "s",
    "memory.line_calls": "count",
    "cache.access_s": "s",
    "cache.accesses": "count",
    "noc.s": "s",
    "noc.transfers": "count",
    "dram.s": "s",
    "dram.accesses": "count",
    "cache.l1_miss_rate": "ratio",
    "cache.l2_miss_rate": "ratio",
    "kernels.build_s": "s",
    "replay.materialize_s": "s",
    "replay.template_hit_ratio": "ratio",
    "trace_store.load_s": "s",
    "trace_store.save_s": "s",
    "trace_store.bytes": "bytes",
    "trace_store.hit_ratio": "ratio",
    "sweep.trace_cache_hit_ratio": "ratio",
    "sampled.estimate_s": "s",
    "service.http_s": "s",
    "service.polls": "count",
    "service.cache_hit_ratio": "ratio",
    "service.jobs_executed": "count",
    "service.queue_wait_s": "s",
    "service.trace_load_s": "s",
    "service.sim_s": "s",
    "service.serialize_s": "s",
    "hit_p50_s": "s",
    "est_cycles_err": "ratio",
    "error_rate": "ratio",
    "dist.chunk_s": "s",
    "dist.wire_s": "s",
    "dist.chunks": "count",
    "dist.retries": "count",
    "dist.redispatches": "count",
    "bench.other_s": "s",
    "trace.overhead": "ratio",
}


def hermetic_env() -> None:
    """Import ``repro`` from this checkout, untouched by the caller's env."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)


# -- statistics -------------------------------------------------------------

def tail(values: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with ten samples or fewer no
    percentile qualifies and the maximum is returned, labelled 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


# -- host context -------------------------------------------------------------

def host_context(seed: int) -> dict:
    from repro.sim.trace_store import source_fingerprint

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode())
        tree.update(path.read_bytes())
    return {
        "affinity_cpus": cpus,
        "python": sys.version.split()[0],
        "gil_enabled": getattr(sys, "_is_gil_enabled", lambda: True)(),
        "git_sha": sha,
        "src_sha256": tree.hexdigest()[:16],
        "source_fingerprint": source_fingerprint()[:16],
        "seed": seed,
    }


# -- one run ------------------------------------------------------------------

def _alarm(signum, frame):
    from workloads import DeadlineExceeded

    raise DeadlineExceeded("run deadline reached")


def set_up(workload, reps: int, trace_workers=None):
    """``reps`` timed set-ups; returns (median seconds, last context)."""
    times, ctx = [], None
    for _ in range(reps):
        if ctx is not None:
            workload.close(ctx)
            ctx = None
        gc.collect()  # the last rep's garbage is not this rep's cost
        t0 = time.perf_counter()
        ctx = workload.setup(WORK, trace_workers)
        times.append(time.perf_counter() - t0)
    return median(times), ctx


def verify(timed, expected: dict) -> tuple[int, list]:
    """Check every outcome against the digests; returns (failed, reasons)."""
    import pools

    failed, reasons = 0, []
    for outcome in timed.outcomes:
        why = outcome.error or pools.check(expected, outcome.key,
                                           outcome.stats)
        if why is not None:
            failed += 1
            reasons.append(f"{outcome.label}: {why}")
    return failed, reasons


def est_cycles_err(timed, expected: dict) -> float:
    errors = []
    for outcome in timed.outcomes:
        if outcome.kind != "estimate" or outcome.stats is None:
            continue
        exact = expected.get(outcome.exact_key)
        if exact is not None and exact["cycles"]:
            errors.append(
                abs(outcome.stats["cycles"] - exact["cycles"]) / exact["cycles"])
    return statistics.fmean(errors) if errors else 0.0


def simulated_instructions(timed) -> int:
    return sum(o.stats["instructions"] for o in timed.outcomes
               if o.kind == "exact" and o.stats is not None)


def end_to_end(timed, setup_s: float) -> tuple[dict, dict]:
    tail_value, tail_pct = tail(timed.latencies)
    metrics = {
        "setup_s": setup_s,
        "wall_s": timed.wall_s,
        "point_p50_s": median(timed.latencies),
        "point_tail_s": tail_value,
        "sim_minst_per_s": simulated_instructions(timed) / timed.wall_s / 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {
        "point_p50_s": len(timed.latencies),
        "point_tail_s": len(timed.latencies),
        "point_tail_percentile": round(tail_pct, 2),
        "hit_p50_s": len(timed.hit_latencies),
    }
    return metrics, samples


def per_layer(tracer, timed, untraced_wall: float, table: dict,
              worker_counters: dict) -> dict:
    """The ``PER_LAYER`` metrics of one traced timed phase, except the
    run-wide ones :func:`run` adds (``error_rate``, ``hit_p50_s``,
    ``est_cycles_err``)."""
    totals = tracer.totals()
    counters = tracer.snapshot_counters()
    for source in (worker_counters, timed.counters):
        for name, value in source.items():
            counters[name] = counters.get(name, 0) + value

    def self_s(layer):
        return totals.get(layer, {}).get("self_s", 0.0)

    def calls(layer):
        return totals.get(layer, {}).get("calls", 0)

    def incl_s(layer):
        return totals.get(layer, {}).get("incl_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(hits, misses):
        hits, misses = counters.get(hits, 0), counters.get(misses, 0)
        return ratio(hits, hits + misses)

    sim_run = incl_s("sim.run")
    memory_side = sum(self_s(x) for x in
                      ("memory.line", "cache.access", "noc", "dram"))
    instructions = simulated_instructions(timed)
    stats = [o.stats for o in timed.outcomes
             if o.kind == "exact" and o.stats is not None]
    l1 = [sum(s["l1"][k] for s in stats) for k in ("load_misses",
                                                    "load_accesses")]
    l2 = [sum(s["l2"][k] for s in stats) for k in ("load_misses",
                                                    "load_accesses")]
    metrics = {
        "sim.run_s": sim_run,
        "sim.sm_self_s": self_s("sim.run"),
        "sim.ns_per_inst": ratio(sim_run, instructions) * 1e9,
        "sim.memory_share": ratio(memory_side, sim_run),
        "memory.line_s": self_s("memory.line"),
        "memory.line_calls": calls("memory.line"),
        "cache.access_s": self_s("cache.access"),
        "cache.accesses": calls("cache.access"),
        "noc.s": self_s("noc"),
        "noc.transfers": calls("noc"),
        "dram.s": self_s("dram"),
        "dram.accesses": calls("dram"),
        "cache.l1_miss_rate": ratio(*l1),
        "cache.l2_miss_rate": ratio(*l2),
        "kernels.build_s": self_s("kernels.build"),
        "replay.materialize_s": self_s("replay.materialize"),
        "replay.template_hit_ratio": hit_ratio("replay.template_hits",
                                               "replay.template_live"),
        "trace_store.load_s": self_s("trace_store.load"),
        "trace_store.save_s": self_s("trace_store.save"),
        "trace_store.bytes": counters.get("trace_store.bytes", 0),
        "trace_store.hit_ratio": hit_ratio("trace_store.hits",
                                           "trace_store.builds"),
        "sweep.trace_cache_hit_ratio": hit_ratio("sweep.trace_cache.hits",
                                                 "sweep.trace_cache.misses"),
        "sampled.estimate_s": incl_s("sampled.estimate"),
        "service.http_s": self_s("service.http"),
        "service.polls": counters.get("service.polls", 0),
        "service.cache_hit_ratio": hit_ratio("service.cache_hits",
                                             "service.cache_misses"),
        "service.jobs_executed": counters.get("service.jobs_executed", 0),
        "service.queue_wait_s": counters.get("service.queue_wait_s", 0.0),
        "service.trace_load_s": counters.get("service.trace_load_s", 0.0),
        "service.sim_s": counters.get("service.sim_s", 0.0),
        "service.serialize_s": counters.get("service.serialize_s", 0.0),
        "dist.chunk_s": incl_s("dist.chunk"),
        "dist.wire_s": self_s("dist.wire"),
        "dist.chunks": counters.get("dist.chunks", 0),
        "dist.retries": counters.get("dist.retries", 0),
        "dist.redispatches": counters.get("dist.redispatches", 0),
        "bench.other_s": table["bench.other_s"],
        "trace.overhead": ratio(timed.wall_s, untraced_wall),
    }
    return metrics


def absorb_workers(tracer, directory: Path) -> dict:
    """Fold the layer totals traced dsweep workers wrote into ``tracer``;
    returns the sum of their counters."""
    counters: dict = {}
    for path in sorted(directory.glob("worker-*.json")):
        data = json.loads(path.read_text())
        tracer.merge_totals(data["totals"], f"dsweep {path.stem}")
        for name, value in data["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return counters


def run_untraced(workload, seed: int, seconds: float, deadline: float):
    """Set-up ``setup_reps`` times, then the timed phase, tracing off."""
    import spans

    setup_s, ctx = set_up(workload, workload.setup_reps)
    try:
        timed = workload.run(ctx, workload.plan(seed, seconds),
                             spans.NullTracer(), deadline)
    finally:
        workload.close(ctx)
    metrics, samples = end_to_end(timed, setup_s)
    return [timed], metrics, samples, {
        name: metrics[name] for name in END_TO_END}, {}


def run_traced(workload, seed: int, seconds: float, deadline: float,
               meta: dict):
    """One plan untraced, then set-up and the same plan with spans on.

    Writes the Chrome trace and the self-time table under ``WORK``.
    """
    import spans

    plan = workload.plan(seed, seconds / 3)
    _, ctx = set_up(workload, 1)
    try:
        untraced = workload.run(ctx, plan, spans.NullTracer(), deadline)
    finally:
        workload.close(ctx)
    metrics, samples = end_to_end(untraced, 0.0)
    del metrics["setup_s"]  # one untimed set-up here
    tracer = spans.Tracer()
    worker_dir = WORK / f"workers-{os.getpid()}"
    worker_dir.mkdir(exist_ok=True)
    tracer.install(after_hooks=spans.counter_hooks(tracer))
    try:
        with tracer.span("bench.traced") as root:
            with tracer.span("bench.setup"):
                ctx = workload.setup(WORK, worker_dir)
            try:
                timed = workload.run(ctx, plan, tracer, deadline)
            finally:
                workload.close(ctx)  # traced workers write their totals
    finally:
        tracer.uninstall()
    worker_counters = absorb_workers(tracer, worker_dir)
    shutil.rmtree(worker_dir)
    table = tracer.self_time_table(root.duration, "bench.traced")
    report = per_layer(tracer, timed, untraced.wall_s, table,
                       worker_counters)
    metrics.update(report, traced_wall_s=root.duration)
    stem = WORK / f"{meta['workload']}-seed{seed}"
    tracer.write_chrome_trace(f"{stem}.trace.json", meta)
    Path(f"{stem}.layers.json").write_text(json.dumps(
        {"traced_wall_s": root.duration, "self_s": table,
         "all_threads": tracer.totals()}, indent=1, sort_keys=True))
    return [untraced, timed], metrics, samples, report, {
        "self_time_table": table}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the record and the result object."""
    import pools
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    WORK.mkdir(parents=True, exist_ok=True)
    expected = pools.load_digests()
    workload.prepare(WORK)
    record = {"workload": workload_name, "seconds": seconds,
              "trace": int(trace), "host": host_context(seed)}
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S + 15.0)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if trace:
            phases, metrics, samples, report, extra = run_traced(
                workload, seed, seconds, deadline,
                {"workload": workload_name, **record["host"]})
        else:
            phases, metrics, samples, report, extra = run_untraced(
                workload, seed, seconds, deadline)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    attempted = sum(len(t.outcomes) for t in phases)
    failed, reasons = 0, []
    for timed in phases:
        n, why = verify(timed, expected)
        failed, reasons = failed + n, reasons + why
    quality = {
        "error_rate": failed / max(1, attempted),
        "hit_p50_s": median(phases[-1].hit_latencies),
        "est_cycles_err": est_cycles_err(phases[-1], expected),
    }
    metrics.update(quality)
    if trace:
        report.update(quality)
    units = PER_LAYER if trace else END_TO_END
    all_units = {**END_TO_END, **PER_LAYER, **RECORD_ONLY}
    record.update(
        metrics={name: {"value": value, "unit": all_units[name]}
                 for name, value in metrics.items()},
        samples=samples,
        failures=reasons[:20],
        **extra,
    )
    return {
        "record": record,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": report[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep-sm", "sweep-mem", "cold-service",
                                 "fanout-small"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    hermetic_env()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": out["record"]}, sort_keys=True))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
