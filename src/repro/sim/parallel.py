"""Window-barrier parallel core: shard the SM array across workers.

One simulation is still one logical event schedule, but SMs only
interact through the shared memory subsystem (NoC/L2/DRAM) and grid
bookkeeping — every such interaction already flows through a deferred
decision at a global ``(time, sm_id, seq)`` heap slot (see
``repro.sim.sm._run_local``).  Following "Parallelizing a modern GPU
simulator" (PAPERS.md, arXiv 2502.14691), this module partitions the
SMs round-robin across N shards and advances each shard independently
up to a window boundary ``T + W``; at the barrier the coordinator
*drains* every staged cross-shard interaction in merged
``(time, sm_id, k)`` order against the real memory subsystem, then
*delivers* the resulting completion times back to the parked warps.

Determinism/identity argument (locked by tests/sim/test_parallel_golden.py):

- **Windows are safe.**  ``W`` auto-tunes to the minimum cross-SM
  interaction latency (NoC request leg + L2 bank latency, see
  ``MemorySubsystem.min_cross_sm_latency``), so a completion produced
  by a decision inside window ``[T, T+W)`` lands at or past ``T+W`` —
  no decision inside the window could have observed it.
- **The drain replays sequential call order.**  All memory-subsystem
  mutations happen during deferred executions, which the sequential
  core runs in global ``(time, sm_id, seq)`` heap order with per-SM
  decision times strictly increasing.  Each shard pops its heap in
  that same order, so its staged ops come out key-sorted; a k-way
  merge by ``(time, sm_id, k)`` (``k`` a per-shard monotone counter)
  reproduces the exact sequential call sequence — including the
  relative order of writebacks, line requests, and grid-retire events
  within one decision.
- **Stall attribution is chunk-identical.**  An SM whose next wake
  falls at or past the window end parks *pseudo-dormant* (the
  ``_horizon`` gate in ``repro.sim.sm``) with the dominant reason
  computed at the decision time; the barrier resolves the true wake —
  possibly a freshly delivered cross-shard completion — and
  ``wake_accounting`` charges the whole span in one chunk, literally
  the ``add_stall`` the sequential jump would have made.
- **Shards are internally sequential**, so the order in which shards
  run a window cannot reorder anything observable: in-process ≡
  forked ≡ sequential, bit-for-bit.

Per-grid fallback keeps the API total: CDP-capable applications
(``may_device_launch``) and grids that cannot fully dispatch at submit
run under the plain sequential ``_drive_grid`` on the same simulator.
An opt-in relaxed mode (``GPUConfig.parallel_relaxed``) admits windows
beyond the safe bound — fewer barriers, approximate results — and is
excluded from the golden identity locks.

Backends: this module's :class:`WindowBarrierDriver` runs every
shard's window in-process, one after another (``inline``);
:mod:`repro.sim.parallel_proc` adds the ``processes`` backend (forked
shard workers exchanging staged interactions over pipes), which is
what delivers real multi-core speedup under the GIL.
:func:`install_parallel_driver` picks between them: ``auto`` prefers
forked workers whenever the application is eligible and more than one
CPU is available.  There is no thread backend: shards would serialize
on the interpreter lock and lose to ``inline`` on every measured run.
"""

from __future__ import annotations

import itertools
import os
from bisect import insort
from heapq import heappop, heappush, merge as _kway_merge
from operator import attrgetter

from repro.sim.gpu import GPUSimulator, SimulationDeadlock
from repro.sim.stats import RunStats
from repro.sim.warp import NEVER

_AGE = attrgetter("age")

# Staged-interaction kinds, replayed at the barrier in merged order.
_REQ = 0  # memory.line_request       -> completion slot
_BATCH = 1  # memory.line_requests    -> completion slot
_WB = 2  # memory.writeback           (fire-and-forget)
_CTA = 3  # gpu.cta_finished          (grid bookkeeping)


def effective_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def resolve_window(gpu) -> tuple[float, float, bool, bool]:
    """Resolve ``(window, safe_bound, exact, enabled)`` for ``gpu``.

    Shared between the in-process and forked drivers so both reject unsafe
    explicit windows with the same error and agree on exactness.
    """
    config = gpu.config
    safe = gpu.memory.min_cross_sm_latency()
    requested = config.window_cycles
    if requested and requested > safe and not config.parallel_relaxed:
        raise ValueError(
            f"window_cycles={requested} exceeds the safe bound {safe} "
            "(minimum cross-SM interaction latency); set "
            "parallel_relaxed=True to accept approximate results"
        )
    if requested:
        window = requested
    elif config.parallel_relaxed:
        # Relaxed auto-tune: roughly a full L2-miss round trip
        # (both NoC legs + L2 + DRAM service) — several times
        # fewer barriers, timing skew bounded by one window.
        dram_floor = min(
            channel.min_service_latency() for channel in gpu.memory.dram
        )
        window = 2 * safe + dram_floor
    else:
        window = safe
    exact = window <= safe and local_completion_floor(config) < safe
    return window, safe, exact, exact or config.parallel_relaxed


def install_parallel_driver(gpu, app):
    """Pick and install the shard driver for one ``run_application``.

    Resolves the ``parallel_executor`` policy: ``processes`` (and
    ``auto`` on multi-CPU hosts) first tries the forked shard backend,
    which requires a windowable application (see
    ``parallel_proc.try_install_process_driver``); ``inline`` — or any
    ineligible application — gets the in-process
    :class:`WindowBarrierDriver`.  Returns the application to run
    (possibly wrapped so its host program is materialized exactly once).
    """
    mode = gpu.config.parallel_executor
    if mode == "processes" or (mode == "auto" and effective_cpus() > 1):
        from repro.sim.parallel_proc import try_install_process_driver

        wrapped = try_install_process_driver(gpu, app)
        if wrapped is not None:
            return wrapped
    WindowBarrierDriver(gpu)
    return app


def local_completion_floor(config) -> int:
    """Largest completion delta a deferred memory decision can produce
    without the memory subsystem (its all-hit prefix / store part).

    Window execution delivers a parked warp's wake as the max over its
    staged completions; that is only the true (sequential) completion
    when every staged completion dominates the hit part, i.e. when
    this floor is below the minimum cross-SM latency.
    """
    port = 1 if config.l1_port_serialization else 0
    hit = max(
        config.l1.hit_latency,
        config.const_cache.hit_latency,
        config.tex_cache.hit_latency,
    )
    return (config.warp_size - 1) * port + hit


class _StagingMemory:
    """Duck-typed stand-in for :class:`MemorySubsystem` inside a window.

    Records each call under the shard's current ``(time, sm_id, k)``
    cursor instead of touching shared state, and returns ``NEVER`` so
    the issuing warp parks on an unknown completion (the same
    external-event-park the SM already implements for barriers); the
    barrier drain fills the slot and delivery wakes the warp.
    """

    __slots__ = ("_shard",)

    def __init__(self, shard: "_Shard"):
        self._shard = shard

    def line_request(self, sm_id, line, store, now):
        shard = self._shard
        slot = [NEVER]
        shard.staged.append(
            (shard.next_key(), _REQ, (sm_id, line, store, now), slot)
        )
        shard.open_slots.append(slot)
        return NEVER

    def line_requests(self, sm_id, entries, store):
        shard = self._shard
        slot = [NEVER]
        shard.staged.append(
            (shard.next_key(), _BATCH, (sm_id, tuple(entries), store), slot)
        )
        shard.open_slots.append(slot)
        return NEVER

    def writeback(self, sm_id, line, now):
        shard = self._shard
        shard.staged.append((shard.next_key(), _WB, (sm_id, line, now), None))


class _ShardContext:
    """The ``gpu`` argument handed to ``sm.step`` inside a window.

    Exposes exactly the surface the SM cores touch: the run-ahead
    flag, the (shard-local) event heap, the (staging) memory
    subsystem, and the launch/retire hooks.
    """

    #: always on — shard mode requires run-ahead (enforced by the
    #: driver's per-grid fallback)
    _runahead = True

    __slots__ = ("_shard", "_gpu", "_heap", "_heap_seq", "memory")

    def __init__(self, shard: "_Shard", gpu: GPUSimulator):
        self._shard = shard
        self._gpu = gpu
        self._heap = shard.heap
        self._heap_seq = shard.seq
        self.memory = _StagingMemory(shard)

    def device_launch(self, sm, warp, spec, t):
        # Delegate to the real simulator: under run-ahead it raises
        # the loud mismarked-application error, which is exactly the
        # behavior a device launch reaching a shard must have (CDP
        # applications never enter windowed execution).
        self._gpu.device_launch(sm, warp, spec, t)

    def cta_finished(self, sm, grid, t, cta=None):
        shard = self._shard
        shard.staged.append((shard.next_key(), _CTA, (sm, grid, t, cta), None))


class _Shard:
    """A partition of the SM array with its own heap, stats, staging."""

    __slots__ = (
        "index", "sms", "heap", "seq", "staged", "parked", "open_slots",
        "stats", "telemetry", "cursor_t", "cursor_sm", "_k", "ctx",
    )

    def __init__(self, index: int, sms: list, gpu: GPUSimulator):
        self.index = index
        self.sms = sms
        self.heap: list = []
        self.seq = itertools.count()
        #: staged interactions ``(key, kind, payload, slot)``; keys are
        #: ``(time, sm_id, k)`` and come out sorted by construction
        #: (heap pops are (time, sm_id)-monotone, ``k`` is monotone)
        self.staged: list = []
        #: ``(sm, warp, slots)`` for warps parked on staged completions
        self.parked: list = []
        #: completion slots staged by the deferred decision being
        #: executed right now
        self.open_slots: list = []
        #: private counters: SMs of this shard write here so the hot
        #: paths stay single-writer; merged back at finalize
        self.stats = RunStats()
        self.telemetry = None
        self.cursor_t = 0.0
        self.cursor_sm = -1
        self._k = 0
        self.ctx = _ShardContext(self, gpu)

    def next_key(self):
        k = self._k
        self._k = k + 1
        return (self.cursor_t, self.cursor_sm, k)

    # -- window execution (runs on the shard's worker) --------------------
    def run_window(self, w_end: float) -> None:
        """Advance this shard's SMs up to the window boundary.

        Touches only shard-local state (SMs, heap, staging lists), so
        concurrent shards never share a writer.  The loop is the
        sequential ``_drive_grid`` pop loop with the window bound
        inlined; identical decisions, same stale-entry handling.
        """
        for sm in self.sms:
            sm._horizon = w_end
        heap = self.heap
        seq = self.seq
        ctx = self.ctx
        parked = self.parked
        while heap and heap[0][0] < w_end:
            t, sm_id, s, sm = heappop(heap)
            if t < sm.time and sm._deferred is None:
                # Stale entry — re-queue at the SM's real time (see
                # GPUSimulator._run_until for the rationale).
                heappush(heap, (sm.time, sm_id, next(seq), sm))
                continue
            pending = sm._deferred
            if pending is not None and s == sm._deferred_seq:
                # Executing a deferred (nonlocal) decision: stage its
                # memory traffic under this (time, sm_id) cursor.
                self.cursor_t = t
                self.cursor_sm = sm_id
                deferred_warp = pending[0]
            else:
                deferred_warp = None
            sm.step(ctx, t, s)
            slots = self.open_slots
            if slots:
                # The decision staged response-carrying requests; its
                # warp parked at NEVER and wakes at barrier delivery.
                parked.append((sm, deferred_warp, slots))
                self.open_slots = []
            if (
                sm._deferred is None
                and sm.dormant_since is None
                and sm.warps
            ):
                # Horizon-gated: the SM stopped with work remaining
                # (at sm.time >= w_end); hand it to the next window.
                heappush(heap, (sm.time, sm_id, next(seq), sm))

    # -- barrier phase 2 (coordinator, after the drain) -------------------
    def deliver(self) -> None:
        """Wake parked warps and resolve pseudo-dormant SMs."""
        heap = self.heap
        seq = self.seq
        for sm, warp, slots in self.parked:
            # The true completion is the max over the staged slots:
            # the window-safety bound guarantees every slot dominates
            # the decision's SM-local (all-hit / store) part.
            wake = max(slot[0] for slot in slots)
            warp.next_ready = wake
            if wake <= sm.time:
                warp.in_ready = True
                insort(sm._ready, warp, key=_AGE)
            else:
                heappush(sm._wakes, (wake, warp.age, warp))
        self.parked.clear()
        for sm in self.sms:
            if sm.dormant_since is not None and sm.warps:
                wake = sm._next_wake()
                if wake != NEVER:
                    # Charges [dormant_since, wake) in one chunk with
                    # the dominant reason recorded at the decision —
                    # the exact add_stall the sequential jump makes.
                    sm.wake_accounting(wake)
                    heappush(heap, (wake, sm.sm_id, next(seq), sm))
                # else: truly dormant (all warps wait on events that
                # no shard can produce) — the deadlock check at the
                # next window boundary reports it.


class WindowBarrierDriver:
    """Coordinator: owns the shards, the barrier, and the drains.

    Construction wires the driver into ``gpu`` (as ``_grid_driver``
    plus a finalize hook); ``GPUSimulator.run_application`` does this
    automatically when ``config.parallel_shards > 1``.
    """

    def __init__(self, gpu: GPUSimulator):
        config = gpu.config
        self.gpu = gpu
        self.num_shards = max(1, min(config.parallel_shards, len(gpu.sms)))
        #: bit-identity holds iff the window respects the safe bound
        #: and delivered wakes dominate SM-local completion parts;
        #: windowed execution runs when it is exact, or when the user
        #: opted into approximate results; otherwise every grid takes
        #: the sequential fallback
        self.window, self.safe_window, self.exact, self.enabled = (
            resolve_window(gpu)
        )

        self.shards: list[_Shard] = []
        tel = gpu.telemetry
        for index in range(self.num_shards):
            shard = _Shard(index, gpu.sms[index::self.num_shards], gpu)
            if tel is not None:
                from repro.sim.telemetry import Telemetry

                shard.telemetry = Telemetry(tel.interval, tel.max_events)
            for sm in shard.sms:
                sm.stats = shard.stats
                if shard.telemetry is not None:
                    sm._tel = shard.telemetry
            self.shards.append(shard)

        #: which sink/horizon binding is live ("sequential" at
        #: construction: GPUSimulator wired the real sinks already)
        self._binding = "sequential"
        gpu._grid_driver = self.drive
        gpu._finalize_hooks.append(self._finalize)

    # -- per-grid entry point ---------------------------------------------
    def drive(self, grid) -> None:
        gpu = self.gpu
        if not gpu._runahead or gpu._pending_grids or not self.enabled:
            # Not windowable: CDP-capable application (run-ahead off),
            # a grid that could not fully dispatch at submit (mid-grid
            # refills read live SM clocks), or an exactness-incapable
            # configuration without the relaxed opt-in.  Run the plain
            # sequential loop on this same simulator.
            self._bind_sequential()
            gpu._drive_grid(grid)
            return
        self._bind_windowed()
        self._adopt_entries()
        self._drive_windowed(grid)

    # -- binding flips ----------------------------------------------------
    def _bind_sequential(self) -> None:
        if self._binding == "sequential":
            return
        self._binding = "sequential"
        gpu = self.gpu
        for sm in gpu.sms:
            sm._horizon = NEVER
            sm.l1.writeback_sink = (
                lambda line, _sm=sm: gpu.memory.writeback(
                    _sm.sm_id, line, _sm.time
                )
            )
        self._return_entries()

    def _bind_windowed(self) -> None:
        if self._binding == "windowed":
            return
        self._binding = "windowed"
        for shard in self.shards:
            staging = shard.ctx.memory
            for sm in shard.sms:
                # Dirty L1 evictions happen only inside deferred
                # executions, so staging them under the live cursor
                # preserves their exact sequential call slot.
                sm.l1.writeback_sink = (
                    lambda line, _sm=sm, _mem=staging: _mem.writeback(
                        _sm.sm_id, line, _sm.time
                    )
                )

    # -- heap custody ------------------------------------------------------
    def _adopt_entries(self) -> None:
        """Move global heap entries to their owning shards.

        Sorting first preserves FIFO tie order: entries with equal
        ``(time, sm_id)`` stay in push order under the fresh per-shard
        sequence numbers.
        """
        heap = self.gpu._heap
        if not heap:
            return
        n = self.num_shards
        shards = self.shards
        for t, sm_id, _, sm in sorted(heap):
            shard = shards[sm_id % n]
            heappush(shard.heap, (t, sm_id, next(shard.seq), sm))
        heap.clear()

    def _return_entries(self) -> None:
        """Move shard heap entries back to the global heap (fallback)."""
        gpu = self.gpu
        gheap = gpu._heap
        heap_seq = gpu._heap_seq
        for shard in self.shards:
            if shard.heap:
                for t, sm_id, _, sm in sorted(shard.heap):
                    heappush(gheap, (t, sm_id, next(heap_seq), sm))
                shard.heap.clear()

    # -- the window loop ---------------------------------------------------
    def _drive_windowed(self, grid) -> None:
        gpu = self.gpu
        shards = self.shards
        window = self.window
        while grid.remaining_ctas:
            # Next window starts at the earliest queued decision —
            # jumping past empty stretches is safe because every
            # delivery already happened at the previous barrier.
            start = NEVER
            for shard in shards:
                if shard.heap and shard.heap[0][0] < start:
                    start = shard.heap[0][0]
            if start == NEVER:
                raise SimulationDeadlock(
                    "no runnable SMs but the run predicate is unsatisfied "
                    f"(pending grids: {len(gpu._pending_grids)})"
                )
            w_end = start + window
            for shard in shards:
                if shard.heap and shard.heap[0][0] < w_end:
                    shard.run_window(w_end)
            self._drain()
            for shard in shards:
                shard.deliver()

    def _drain(self) -> None:
        """Barrier phase 1: replay staged interactions in global order."""
        gpu = self.gpu
        memory = gpu.memory
        streams = [shard.staged for shard in self.shards if shard.staged]
        if not streams:
            return
        for key, kind, payload, slot in _kway_merge(*streams):
            if kind == _REQ:
                sm_id, line, store, now = payload
                slot[0] = memory.line_request(sm_id, line, store, now)
            elif kind == _BATCH:
                sm_id, entries, store = payload
                slot[0] = memory.line_requests(sm_id, entries, store)
            elif kind == _WB:
                memory.writeback(*payload)
            else:  # _CTA
                sm, target, t, cta = payload
                gpu.cta_finished(sm, target, t, cta)
        for shard in self.shards:
            shard.staged.clear()

    # -- finalize hook -----------------------------------------------------
    def _finalize(self) -> None:
        gpu = self.gpu
        for shard in self.shards:
            gpu.stats.merge(shard.stats)
            if shard.telemetry is not None:
                gpu.telemetry.absorb(shard.telemetry)


__all__ = [
    "WindowBarrierDriver",
    "effective_cpus",
    "install_parallel_driver",
    "local_completion_floor",
    "resolve_window",
]
