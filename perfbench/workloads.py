"""The four workloads: one-off preparation, timed set-up, seeded plans
and the timed closed loops.

Every workload has one caller that waits for each result before it
sends the next (a closed loop with one client), and none starts more
processes than the two CPUs the benchmark was sized on.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import pools


class DeadlineExceeded(Exception):
    """Raised (by the run's alarm) when a workload overruns its deadline."""


@dataclass
class Outcome:
    """One attempted point or request, checked after the timed phase."""

    key: str  # point_key of the point the result must match
    label: str
    kind: str  # "exact" | "estimate" | "hit"
    stats: dict | None = None
    error: str | None = None
    exact_key: str | None = None  # for estimates: the exact twin


@dataclass
class Timed:
    """What one timed phase produced."""

    wall_s: float = 0.0
    outcomes: list = field(default_factory=list)
    #: caller-seen latencies of the misses (points, requests, sweeps)
    latencies: list = field(default_factory=list)
    hit_latencies: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def add(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


def _deadline_passed(deadline: float) -> bool:
    return time.monotonic() >= deadline


# -- sweep-sm / sweep-mem ----------------------------------------------------

class SweepWorkload:
    """In-process ``run_sweep(jobs=0)`` over a pre-warmed trace store.

    Points run at medium size: a large point takes 2-3.5 s here, so a
    run would hold too few samples for a tail percentile, and the
    memory-side share per app is the same at both sizes.  A pass runs
    every pool point of the first app once and of the second app twice
    (the second app's points are the cheaper ones), so the median falls
    on the second app and the tail on the first in every seed's order.
    """

    setup_reps = 11

    def __init__(self, name, why, apps, configs, pass_s):
        self.name, self.why = name, why
        self.apps, self._configs, self.pass_s = apps, configs, pass_s

    def pool(self) -> dict:
        return pools.sweep_pool(self.apps, self._configs())

    def prepare(self, work: Path) -> None:
        """Build the store once per source fingerprint (not timed)."""
        self.setup(work)

    @staticmethod
    def _store_dir(work: Path) -> Path:
        from repro.sim.trace_store import source_fingerprint

        return work / "store" / source_fingerprint()[:16]

    def setup(self, work: Path, trace_workers: Path | None = None):
        from repro.core.sweep import TraceCache
        from repro.sim.trace_store import TraceStore

        cache = TraceCache(store=TraceStore(self._store_dir(work)))
        for points in self.pool().values():
            if cache.get(points[0]) is None:
                raise RuntimeError(f"{points[0].label} is not replayable")
        return cache

    def close(self, ctx) -> None:
        pass

    def plan(self, seed: int, seconds: float) -> list:
        first, second = (self.pool()[abbr] for abbr in self.apps)
        return pools.passes(pools.seeded(seed, self.name),
                            [first, second + second], seconds,
                            self.pass_s, minimum=6)

    def run(self, ctx, plan: list, tracer, deadline: float) -> Timed:
        from repro.core.sweep import point_key, run_sweep

        out = Timed()
        start = time.perf_counter()
        for point in plan:
            outcome = Outcome(point_key(point), point.label, "exact")
            out.outcomes.append(outcome)
            if _deadline_passed(deadline):
                outcome.error = "deadline passed before the point ran"
                continue
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.point", label=point.label):
                    stats = run_sweep([point], jobs=0, cache=ctx, store=None)
                outcome.stats = stats[point.label]
            except Exception as exc:  # noqa: BLE001 - recorded as failed
                outcome.error = f"{type(exc).__name__}: {exc}"
            out.latencies.append(time.perf_counter() - t0)
        out.wall_s = time.perf_counter() - start
        for outcome in out.outcomes:
            if outcome.stats is not None:
                outcome.stats = outcome.stats.to_dict()
        return out


# -- cold-service ---------------------------------------------------------------

class ServiceWorkload:
    """One client against an in-process ``repro serve`` over loopback.

    Each set-up starts a server with a fresh result cache, artifact
    root and (empty) trace store in a private temp dir.  A full run
    sends every miss in the pool once, in seeded order: small
    simulate/estimate requests of all ten apps under three configs
    (so same-app/different-config pairs are present) and medium
    simulate requests of the cheaper apps, with repeats of earlier
    requests interleaved as cache hits.  A shorter run takes a prefix
    that keeps the class proportions.
    """

    name = "cold-service"
    why = ("cold simulate/estimate requests over loopback HTTP with cache "
           "hits interleaved: trace generation and the service path dominate")
    full_s = 18.0  # nominal wall of the whole pool on a 2-CPU host
    hit_share = 6  # one repeat per this many misses
    poll_s = 0.005
    setup_reps = 15

    def prepare(self, work: Path) -> None:
        pass

    def setup(self, work: Path, trace_workers: Path | None = None):
        import repro.service.server as server_mod
        from repro.service.client import ServiceClient

        tmp = Path(tempfile.mkdtemp(prefix="service-", dir=work))
        os.environ["REPRO_TRACE_STORE"] = str(tmp / "store")
        (tmp / "store").mkdir()
        server = server_mod.make_server(
            "127.0.0.1", 0,
            cache_root=tmp / "results",
            artifact_root=tmp / "artifacts",
            workers=1,
        )
        # The server's per-request log lines go to a file, not the output.
        log = open(tmp / "requests.log", "w")
        server.RequestHandlerClass = type(
            "QuietHandler", (server.RequestHandlerClass,),
            {"_log": lambda handler, status: print(
                handler.command, handler.path, status, file=log)},
        )
        # A short poll interval keeps shutdown (between set-ups) quick.
        thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                                  name="perfbench-server", daemon=True)
        thread.start()
        client = ServiceClient(*server.server_address[:2], timeout=60.0)
        client.health()
        return {"server": server, "thread": thread, "client": client,
                "tmp": tmp, "log": log}

    def close(self, ctx) -> None:
        ctx["server"].shutdown()
        ctx["server"].server_close()
        ctx["thread"].join(timeout=10)
        ctx["log"].close()
        os.environ.pop("REPRO_TRACE_STORE", None)
        shutil.rmtree(ctx["tmp"], ignore_errors=True)

    def plan(self, seed: int, seconds: float) -> list:
        rng = pools.seeded(seed, self.name)
        classes: dict = {}
        for request in pools.service_pool():
            size = request["payload"]["size"]
            classes.setdefault((request["kind"], size), []).append(request)
        # The result cache outlives a pass, so a run is one pass at most.
        misses = pools.passes(rng, list(classes.values()),
                              min(seconds, self.full_s), self.full_s,
                              minimum=12)
        plan = [dict(r, repeat=False) for r in misses]
        for _ in range(len(misses) // self.hit_share):
            index = rng.randrange(1, len(plan) + 1)
            original = rng.choice([r for r in plan[:index] if not r["repeat"]])
            plan.insert(index, dict(original, repeat=True))
        return plan

    def run(self, ctx, plan: list, tracer, deadline: float) -> Timed:
        from repro.core.sweep import point_key
        from repro.service.client import FINAL_STATES, ServiceError

        client = ctx["client"]
        out = Timed()
        start = time.perf_counter()
        for request in plan:
            kind = "hit" if request["repeat"] else (
                "estimate" if request["kind"] == "estimate" else "exact")
            point = request["point"]
            outcome = Outcome(point_key(point), point.label, kind,
                              exact_key=point_key(request["exact"]))
            out.outcomes.append(outcome)
            if _deadline_passed(deadline):
                outcome.error = "deadline passed before the request was sent"
                continue
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.request", label=point.label):
                    view = client.submit(request["kind"], **request["payload"])
                    if view.get("result") is None:
                        while view["state"] not in FINAL_STATES:
                            if _deadline_passed(deadline):
                                raise DeadlineExceeded(view["id"])
                            with tracer.span("bench.poll_sleep"):
                                time.sleep(self.poll_s)
                            view = client.job(view["id"])
                            out.add("service.polls")
                        envelope = client.result(view["id"])
                        view, result = envelope["job"], envelope["result"]
                    else:
                        result = view["result"]
                outcome.stats = result["stats"]
                if not view.get("cached"):
                    for stage, value in (view.get("timings") or {}).items():
                        out.add(f"service.{stage}", value)
                elif kind != "hit":
                    outcome.error = "first request answered from the cache"
                if kind == "hit" and not view.get("cached"):
                    outcome.error = "repeated request missed the cache"
            except (ServiceError, OSError, KeyError, DeadlineExceeded) as exc:
                outcome.error = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            (out.hit_latencies if kind == "hit" else out.latencies).append(
                latency)
        out.wall_s = time.perf_counter() - start
        metrics = client.metrics()
        out.counters["service.jobs_executed"] = metrics["jobs_executed"]
        cache = metrics.get("result_cache", {})
        out.counters["service.cache_hits"] = cache.get("hits", 0)
        out.counters["service.cache_misses"] = cache.get("misses", 0)
        return out


# -- fanout-small -----------------------------------------------------------------

class FanoutWorkload:
    """``run_dsweep`` over two local worker processes.

    The caller sends one grid of ten points at a time and waits for its
    merge.  Grids are consecutive slices of passes over the whole small
    pool (every app, both CDP variants, three configs).  Worker spawn
    is set-up; workers start with cold trace caches, so the first pass
    also generates traces.
    """

    name = "fanout-small"
    why = ("many short small points through run_dsweep over 2 local "
           "workers: coordinator, wire and launcher costs are visible")
    workers = 2
    grid_points = 10
    pass_s = 3.4  # nominal wall of the 60-point pool once workers are warm
    chunk_timeout_s = 60.0
    setup_reps = 5

    def __init__(self, worker_env: dict | None = None, max_retries: int = 2):
        #: failure injection for the benchmark's own tests
        self.worker_env = worker_env
        self.max_retries = max_retries

    def prepare(self, work: Path) -> None:
        pass

    def setup(self, work: Path, trace_workers: Path | None = None):
        from repro.dist import LocalProcessLauncher

        extra = None
        if trace_workers is not None:
            hook = str(Path(__file__).resolve().parent / "worker_hook")
            extra = {
                "PYTHONPATH": os.pathsep.join(
                    [hook] + [p for p in os.environ.get(
                        "PYTHONPATH", "").split(os.pathsep) if p]),
                "PERFBENCH_WORKER_TRACE": str(trace_workers),
            }
        launcher = LocalProcessLauncher(
            workers=self.workers, extra_env=extra, worker_env=self.worker_env
        )
        try:
            # An empty chunk spawns the worker and completes a handshake
            # and one protocol round trip.
            for worker_id in range(self.workers):
                launcher.run_chunk(worker_id, -1 - worker_id, [])
        except BaseException:
            launcher.close()
            raise
        return launcher

    def close(self, ctx) -> None:
        ctx.close()

    def plan(self, seed: int, seconds: float) -> list:
        points = pools.passes(pools.seeded(seed, self.name),
                              [pools.fanout_pool()], seconds, self.pass_s,
                              minimum=12 * self.grid_points)
        return [points[i:i + self.grid_points]
                for i in range(0, len(points), self.grid_points)]

    def run(self, ctx, plan: list, tracer, deadline: float) -> Timed:
        from repro.core.sweep import point_key
        from repro.dist import DistSweepError, run_dsweep
        from repro.dist import coordinator

        out = Timed()
        failed_dispatches = [0]
        real_run_chunk = ctx.run_chunk

        def counting_run_chunk(*args, **kwargs):
            try:
                return real_run_chunk(*args, **kwargs)
            except Exception:
                failed_dispatches[0] += 1
                raise

        ctx.run_chunk = counting_run_chunk
        start = time.perf_counter()
        try:
            for grid in plan:
                outcomes = [Outcome(point_key(p), p.label, "exact")
                            for p in grid]
                out.outcomes.extend(outcomes)
                if _deadline_passed(deadline):
                    for outcome in outcomes:
                        outcome.error = "deadline passed before the sweep ran"
                    continue
                t0 = time.perf_counter()
                try:
                    with tracer.span("bench.sweep", points=len(grid)):
                        merged = run_dsweep(
                            grid, ctx,
                            chunk_timeout=min(
                                self.chunk_timeout_s,
                                max(1.0, deadline - time.monotonic())),
                            max_retries=self.max_retries,
                        )
                    for outcome, point in zip(outcomes, grid):
                        outcome.stats = merged[point.label]
                    last = coordinator.run_dsweep.last_stats
                    out.add("dist.chunks", last.get("chunks", 0))
                    out.add("dist.redispatches", last.get("redispatches", 0))
                except DistSweepError as exc:
                    lost = set(exc.lost)
                    for outcome, point in zip(outcomes, grid):
                        outcome.error = (
                            "lost after retries"
                            if f"{point.label} [{outcome.key}]" in lost
                            else "sweep failed: " + exc.cause)
                except Exception as exc:  # noqa: BLE001 - recorded as failed
                    for outcome in outcomes:
                        outcome.error = f"{type(exc).__name__}: {exc}"
                out.latencies.append(time.perf_counter() - t0)
        finally:
            del ctx.run_chunk
        out.wall_s = time.perf_counter() - start
        out.counters["dist.retries"] = failed_dispatches[0]
        for outcome in out.outcomes:
            if outcome.stats is not None:
                outcome.stats = outcome.stats.to_dict()
        return out


WORKLOADS = {
    "sweep-sm": SweepWorkload(
        "sweep-sm",
        "PairHMM and SW replayed across SM-side configs: the SM issue loop "
        "does nearly all the work, the memory side 3-6%",
        pools.SM_APPS, pools.sm_configs, pass_s=12.0,
    ),
    "sweep-mem": SweepWorkload(
        "sweep-mem",
        "GKSW and NvB replayed across cache, DRAM and NoC configs: the "
        "memory side does 35-55% of the work",
        pools.MEM_APPS, pools.mem_configs, pass_s=25.0,
    ),
    "cold-service": ServiceWorkload(),
    "fanout-small": FanoutWorkload(),
}
