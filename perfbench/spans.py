"""Host-time spans around the program's layers, installed from outside.

The benchmark edits no program code: ``Tracer.install`` replaces public
functions and methods of the named ``repro`` modules with wrappers that
time each call and attribute its *self time* (duration minus the time of
the child spans it contains) to a layer.  Aggregates are kept per thread
and merged at the end; coarse layers also keep every span as an event
for the Chrome ``trace_event`` export, while hot leaf layers (caches,
NoC, DRAM) are aggregated only, because they run millions of times.

Only the calling thread's spans sum to its wall time.  Spans from other
threads (HTTP handler threads, dsweep dispatch threads) overlap the main
thread's waiting and are reported as layer totals, never in the
self-time table that must add up to the traced wall.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

#: (module, attribute path, layer).  Every wrapped callable is public
#: API of its module except where a private method is the only place a
#: layer's work is separable (store file load/save).
TARGETS = [
    ("repro.kernels.registry", "build_application", "kernels.build"),
    ("repro.sim.replay", "CachedApplication.__init__", "replay.materialize"),
    ("repro.sim.replay", "replay_application", "replay.replay"),
    ("repro.sim.trace_store", "TraceStore.get_or_build", "trace_store.get"),
    ("repro.sim.trace_store", "TraceStore._load_path", "trace_store.load"),
    ("repro.sim.trace_store", "TraceStore._save_path", "trace_store.save"),
    ("repro.core.sweep", "run_sweep", "sweep.run_sweep"),
    ("repro.core.sweep", "run_point", "sweep.run_point"),
    ("repro.core.sweep", "TraceCache.get", "sweep.trace_cache"),
    ("repro.sim.gpu", "GPUSimulator.run_application", "sim.run"),
    ("repro.sim.memory", "MemorySubsystem.line_request", "memory.line"),
    ("repro.sim.memory", "MemorySubsystem.line_requests", "memory.line"),
    ("repro.sim.memory", "MemorySubsystem.writeback", "memory.line"),
    ("repro.sim.cache", "Cache.access", "cache.access"),
    ("repro.sim.cache", "Cache.probe_hits", "cache.access"),
    ("repro.sim.interconnect.network", "Network.request", "noc"),
    ("repro.sim.interconnect.network", "Network.response", "noc"),
    ("repro.sim.dram", "DRAMChannel.access", "dram"),
    ("repro.sim.sampled", "estimate_application", "sampled.estimate"),
    ("repro.service.client", "ServiceClient._request", "service.http"),
    ("repro.service.service", "SimulationService.submit", "service.submit"),
    ("repro.dist.coordinator", "run_dsweep", "dist.run_dsweep"),
    ("repro.dist.launchers", "LocalProcessLauncher.run_chunk", "dist.chunk"),
    ("repro.dist.wire", "encode_point", "dist.wire"),
    ("repro.dist.wire", "decode_stats", "dist.wire"),
    ("repro.dist.wire", "write_frame", "dist.wire"),
]

#: Layers called too often to keep one event per span.
HOT_LAYERS = {"memory.line", "cache.access", "noc", "dram", "dist.wire"}


class _ThreadAgg:
    """One thread's span stack, aggregates and events."""

    def __init__(self, name: str):
        self.name = name
        self.stack: list = []  # [layer, child_seconds] frames
        self.active: dict = {}  # layer -> open spans (for inclusive time)
        self.self_s: dict = {}
        self.incl_s: dict = {}
        self.calls: dict = {}
        self.events: list = []  # (layer, start, dur, args)


class Tracer:
    """Span aggregates for one traced run."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadAgg] = []
        self.counters: dict = {}
        #: (counter prefix, id(obj)) -> latest cumulative counter values
        self._latest: dict = {}
        self.origin = time.perf_counter()
        self._undo: list = []

    # -- recording -----------------------------------------------------------
    def _agg(self) -> _ThreadAgg:
        try:
            return self._local.agg
        except AttributeError:
            agg = _ThreadAgg(threading.current_thread().name)
            self._local.agg = agg
            with self._lock:
                self._threads.append(agg)
            return agg

    def _enter(self, layer: str):
        agg = self._agg()
        frame = [layer, 0.0]
        agg.stack.append(frame)
        agg.active[layer] = agg.active.get(layer, 0) + 1
        return agg, frame, time.perf_counter()

    def _exit(self, agg, frame, start, args=None) -> float:
        end = time.perf_counter()
        dur = end - start
        layer = frame[0]
        agg.stack.pop()
        if agg.stack:
            agg.stack[-1][1] += dur
        agg.self_s[layer] = agg.self_s.get(layer, 0.0) + dur - frame[1]
        agg.calls[layer] = agg.calls.get(layer, 0) + 1
        depth = agg.active[layer] - 1
        agg.active[layer] = depth
        if depth == 0:
            agg.incl_s[layer] = agg.incl_s.get(layer, 0.0) + dur
        if layer not in HOT_LAYERS:
            agg.events.append((layer, start, dur, args))
        return dur

    def span(self, layer: str, **args):
        """Context manager for a benchmark-side span (``bench.*``)."""
        return _Span(self, layer, args)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, prefix: str, obj, **values) -> None:
        """Record ``obj``'s cumulative counters (latest value wins)."""
        with self._lock:
            self._latest[(prefix, id(obj))] = values

    def snapshot_counters(self) -> dict:
        """Plain counters plus the observed objects' latest values."""
        with self._lock:
            out = dict(self.counters)
            for (prefix, _), values in self._latest.items():
                for name, value in values.items():
                    key = f"{prefix}.{name}"
                    out[key] = out.get(key, 0) + value
        return out

    def wrap(self, fn, layer: str, after=None):
        """``fn`` timed as a ``layer`` span; ``after(args, result)`` runs
        on success (outside the span) to read counters off the call."""
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            agg, frame, start = enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(agg, frame, start)
            if after is not None:
                after(args, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    # -- installation ----------------------------------------------------------
    def install(self, targets=TARGETS, after_hooks=None) -> None:
        """Wrap every target; module-level functions are replaced in
        every loaded module that imported them by name."""
        hooks = dict(after_hooks or {})
        for module_name, path, layer in targets:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapped = self.wrap(original, layer, hooks.get(path))
            self._replace(owner, attr, original, wrapped)
            if not isinstance(owner, type):
                for other in list(sys.modules.values()):
                    if other is owner or other is None:
                        continue
                    if getattr(other, "__dict__", {}).get(attr) is original:
                        self._replace(other, attr, original, wrapped)

    def _replace(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------------
    def main_agg(self) -> _ThreadAgg | None:
        main = threading.main_thread().name
        for agg in self._threads:
            if agg.name == main:
                return agg
        return None

    def totals(self) -> dict:
        """``{layer: {"self_s", "incl_s", "calls"}}`` over all threads."""
        out: dict = {}
        for agg in self._threads:
            for layer, value in agg.self_s.items():
                row = out.setdefault(
                    layer, {"self_s": 0.0, "incl_s": 0.0, "calls": 0}
                )
                row["self_s"] += value
                row["incl_s"] += agg.incl_s.get(layer, 0.0)
                row["calls"] += agg.calls.get(layer, 0)
        return out

    def merge_totals(self, totals: dict, name: str) -> None:
        """Fold another process's :meth:`totals` in as a pseudo-thread."""
        agg = _ThreadAgg(name)
        for layer, row in totals.items():
            agg.self_s[layer] = row["self_s"]
            agg.incl_s[layer] = row["incl_s"]
            agg.calls[layer] = row["calls"]
        with self._lock:
            self._threads.append(agg)

    def self_time_table(self, wall_s: float, root: str) -> dict:
        """Main-thread self time per layer inside the ``root`` span,
        plus the residual ``bench.other_s``; the rows sum to ``wall_s``."""
        agg = self.main_agg()
        table = {}
        if agg is not None:
            table = {
                layer: value
                for layer, value in sorted(agg.self_s.items())
                if layer != root
            }
        table["bench.other_s"] = wall_s - sum(table.values())
        return table

    def chrome_trace(self, meta: dict) -> dict:
        """The spans as a Chrome ``trace_event`` document (host time,
        microseconds), in the layout ``repro.sim.telemetry`` writes."""
        trace = [{"ph": "M", "pid": 1, "name": "process_name",
                  "args": {"name": "host spans (perfbench)"}}]
        for tid, agg in enumerate(self._threads):
            trace.append({"ph": "M", "pid": 1, "tid": tid,
                          "name": "thread_name", "args": {"name": agg.name}})
            for layer, start, dur, args in agg.events:
                trace.append({
                    "ph": "X", "pid": 1, "tid": tid, "name": layer,
                    "cat": layer.split(".")[0],
                    "ts": round((start - self.origin) * 1e6, 3),
                    "dur": round(dur * 1e6, 3),
                    "args": args or {},
                })
        return {"traceEvents": trace, "displayTimeUnit": "ms",
                "otherData": meta}

    def write_chrome_trace(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(meta), fh)
            fh.write("\n")


def counter_hooks(tracer: Tracer) -> dict:
    """``after`` hooks reading the work counters the program keeps."""

    def file_bytes(path) -> int:
        try:
            return path.stat().st_size
        except OSError:
            return 0

    def materialized(args, result):
        app = args[0]
        tracer.count("replay.template_hits", app.template_hits)
        tracer.count("replay.template_live", app.template_live)

    def loaded(args, result):
        if result is not None:
            tracer.count("trace_store.bytes", file_bytes(args[1]))

    def saved(args, result):
        tracer.count("trace_store.bytes", file_bytes(args[1]))

    def store_get(args, result):
        store = args[0]
        tracer.observe("trace_store", store, hits=store.hits,
                       builds=store.builds)

    def cache_get(args, result):
        cache = args[0]
        tracer.observe("sweep.trace_cache", cache, hits=cache.hits,
                       misses=cache.misses)

    return {
        "CachedApplication.__init__": materialized,
        "TraceStore._load_path": loaded,
        "TraceStore._save_path": saved,
        "TraceStore.get_or_build": store_get,
        "TraceCache.get": cache_get,
    }


class _Span:
    def __init__(self, tracer: Tracer, layer: str, args: dict):
        self.tracer, self.layer, self.args = tracer, layer, args

    def __enter__(self):
        self._agg, self._frame, self._start = self.tracer._enter(self.layer)
        return self

    def __exit__(self, *exc):
        self.duration = self.tracer._exit(
            self._agg, self._frame, self._start, self.args
        )
        return False


class NullTracer:
    """The untraced stand-in: benchmark spans cost one call."""

    def span(self, layer: str, **args):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()
