"""Process shard backend: forked workers for the window-barrier core.

The in-process driver in :mod:`repro.sim.parallel` runs the shards'
windows one after another, so ``--workers N`` alone buys no wall
clock.  This module runs each shard in a **forked worker process**:

- **Fork inheritance, no warp pickling.**  The driver forks *after*
  the shards are built, so every worker inherits the cached
  application, the instantiated SM/cache structures, and the shard
  partitioning copy-on-write.  Nothing simulation-sized ever crosses
  the process boundary; per window only the staged cross-shard
  interactions travel.
- **Replicated deterministic dispatch.**  CTA placement in the
  sequential core is a pure function of the kernel's resource needs on
  an idle machine (host-synchronous apps fully dispatch every grid
  from empty — checked per launch before forking).
  :func:`plan_dispatch` mirrors ``GPUSimulator._dispatch_pending``'s
  least-loaded rule, and both the parent and every worker walk the
  same plan: workers admit the CTAs owned by their SMs (bumping
  ``grid.next_cta`` past remote ones so CTA ids — and therefore trace
  addresses — stay global), the parent only keeps grid bookkeeping.
- **Compact binary channel.**  Parent → worker ops are tagged frames
  (``RUN w_end``, ``DELIVER completions``, ``SUBMIT ordinal avail``,
  ``FLUSH``, ``FINALIZE``, ``CLOSE``); worker → parent frames carry
  the window's staged interactions (struct-packed, one ``(time,
  sm_id, k, kind)`` header per entry), the shard's next heap minimum,
  a pickled finalize payload (per-shard ``RunStats`` / ``Telemetry`` /
  per-SM cache stats), or a pickled exception + traceback.  Each
  shard talks to the parent over one duplex ``multiprocessing.Pipe``.
- **Exact replay at the barrier.**  The parent is the sole owner of
  the memory subsystem and grid bookkeeping: it k-way merges the
  workers' staged frames by ``(time, sm_id, k)`` and replays them
  against the real NoC/L2/DRAM — byte-for-byte the same call sequence
  as the sequential core, so bit-identity extends through
  ``Telemetry.absorb`` / ``RunStats.merge`` unchanged (locked by
  tests/sim/test_parallel_golden.py).
- **Failure propagation.**  A worker exception ships back pickled
  with its traceback and re-raises in the parent; a dead worker
  (killed, OOM) surfaces as :class:`SimulationDeadlock` at the next
  barrier; any error — including ``KeyboardInterrupt`` — terminates
  and reaps all workers before propagating.

Eligibility is checked up front by :func:`try_install_process_driver`
(fork available, run-ahead application, no observers, windowed mode
exact or relaxed, every launch fully dispatches); ineligible runs fall
back to the in-process :class:`~repro.sim.parallel.WindowBarrierDriver`
— never a mid-run backend switch.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import struct
import time
import traceback
from heapq import heappush, merge as _kway_merge

from repro.sim.gpu import SimulationDeadlock
from repro.sim.launch import HostLaunch
from repro.sim.parallel import (
    _BATCH,
    _REQ,
    _WB,
    WindowBarrierDriver,
    resolve_window,
)
from repro.sim.warp import NEVER, Grid

# -- wire protocol ----------------------------------------------------------
# Parent -> worker op frames (first byte):
_OP_RUN = b"R"  # + f8 w_end                   -> staged frame
_OP_DELIVER = b"D"  # + u4 n + n*f8 completions -> heap-min frame
_OP_SUBMIT = b"G"  # + u4 ordinal + f8 avail    -> submit-reply frame
_OP_FLUSH = b"X"  # (no reply)
_OP_FINALIZE = b"F"  # -> pickled finalize frame
_OP_CLOSE = b"Q"  # (no reply; worker exits)
# Worker -> parent reply tags (first byte):
_TAG_STAGED = b"S"
_TAG_MIN = b"M"
_TAG_FINAL = b"F"
_TAG_ERROR = b"E"  # + pickle((exception, traceback_text))

_F8 = struct.Struct("<d")
_U4 = struct.Struct("<I")
#: staged-entry header: key time (f8), key sm_id (i4, -1 sentinel ok),
#: key k (u4), kind (u1)
_HDR = struct.Struct("<diIB")
_P_REQ = struct.Struct("<iqBd")  # sm_id, line, store, now
_P_WB = struct.Struct("<iqd")  # sm_id, line, now
_P_CTA = struct.Struct("<id")  # sm_id, t
_P_BATCH = struct.Struct("<iBI")  # sm_id, store, n_entries
_P_ENTRY = struct.Struct("<dq")  # issue_time, line
_SUBMIT = struct.Struct("<Id")  # launch ordinal, available_time
_SUBMIT_REPLY = struct.Struct("<dBd")  # heap_min, has_start, start_time


def _encode_staged(staged) -> bytes:
    """Pack one window's staged interactions into a ``b"S"`` frame."""
    buf = bytearray(_TAG_STAGED)
    buf += _U4.pack(len(staged))
    hdr = _HDR.pack
    for (t, sm_key, k), kind, payload, _slot in staged:
        buf += hdr(t, sm_key, k, kind)
        if kind == _REQ:
            sm_id, line, store, now = payload
            buf += _P_REQ.pack(sm_id, line, 1 if store else 0, now)
        elif kind == _BATCH:
            sm_id, entries, store = payload
            buf += _P_BATCH.pack(sm_id, 1 if store else 0, len(entries))
            pack_entry = _P_ENTRY.pack
            for issue, line in entries:
                buf += pack_entry(issue, line)
        elif kind == _WB:
            buf += _P_WB.pack(*payload)
        else:  # _CTA: payload is (sm, grid, t, cta); only (sm_id, t) travel
            sm, _grid, t_done, _cta = payload
            buf += _P_CTA.pack(sm.sm_id, t_done)
    return bytes(buf)


def _decode_staged(frame: bytes, origin: int) -> list:
    """Unpack a ``b"S"`` frame into ``(key, kind, payload, origin)``."""
    (count,) = _U4.unpack_from(frame, 1)
    offset = 1 + _U4.size
    out = []
    hdr = _HDR
    for _ in range(count):
        t, sm_key, k, kind = hdr.unpack_from(frame, offset)
        offset += hdr.size
        if kind == _REQ:
            sm_id, line, store, now = _P_REQ.unpack_from(frame, offset)
            offset += _P_REQ.size
            payload = (sm_id, line, bool(store), now)
        elif kind == _BATCH:
            sm_id, store, n = _P_BATCH.unpack_from(frame, offset)
            offset += _P_BATCH.size
            entries = []
            unpack_entry = _P_ENTRY.unpack_from
            for _ in range(n):
                entries.append(unpack_entry(frame, offset))
                offset += _P_ENTRY.size
            payload = (sm_id, tuple(entries), bool(store))
        elif kind == _WB:
            payload = _P_WB.unpack_from(frame, offset)
            offset += _P_WB.size
        else:  # _CTA
            payload = _P_CTA.unpack_from(frame, offset)
            offset += _P_CTA.size
        out.append(((t, sm_key, k), kind, payload, origin))
    return out


# -- deterministic dispatch mirror ------------------------------------------
def plan_dispatch(gpu, kernel, num_ctas: int) -> list[int]:
    """CTA -> SM placement ``_dispatch_pending`` makes from an idle machine.

    Mirrors ``sm.can_admit`` resource checks and the least-loaded
    ``min(candidates, key=(used_threads, sm_id))`` rule: an ascending
    scan keeping the first strict minimum reproduces ``min``'s
    tie-break exactly.  Returns one ``sm_id`` per CTA in admission
    order; shorter than ``num_ctas`` means the grid cannot fully
    dispatch (the process backend then declines the application).
    """
    config = gpu.config
    n = len(gpu.sms)
    cta_threads = kernel.cta_threads
    cta_regs = kernel.regs_per_thread * cta_threads
    cta_smem = kernel.smem_per_cta
    max_ctas = config.max_ctas_per_sm
    max_threads = config.max_threads_per_sm
    max_regs = config.registers_per_sm
    max_smem = config.shared_mem_per_sm
    ctas = [0] * n
    threads = [0] * n
    plan: list[int] = []
    for _ in range(num_ctas):
        best = -1
        best_threads = 0
        for sm_id in range(n):
            used = threads[sm_id]
            if best >= 0 and used >= best_threads:
                continue
            if ctas[sm_id] >= max_ctas:
                continue
            if used + cta_threads > max_threads:
                continue
            if ctas[sm_id] * cta_regs + cta_regs > max_regs:
                continue
            if ctas[sm_id] * cta_smem + cta_smem > max_smem:
                continue
            best = sm_id
            best_threads = used
        if best < 0:
            break
        plan.append(best)
        ctas[best] += 1
        threads[best] += cta_threads
    return plan


class _OpsApp:
    """Application wrapper replaying a pre-materialized host program.

    The eligibility scan must walk the host ops before forking (to
    plan every launch), and stateful generators cannot be walked
    twice — so the scan materializes them once and the simulator runs
    this wrapper.
    """

    def __init__(self, ops: list, app):
        self._ops = ops
        self.name = getattr(app, "name", "app")
        self.may_device_launch = getattr(app, "may_device_launch", True)

    def host_program(self):
        return iter(self._ops)


def try_install_process_driver(gpu, app):
    """Install :class:`ProcessShardDriver` on ``gpu`` when eligible.

    Returns the (wrapped) application to run, or ``None`` when the
    run must fall back to the in-process driver: no ``fork`` on this
    platform, a CDP-capable application, observers attached (the
    sampled estimator's hooks cannot cross a process boundary),
    windowed execution disabled, or a launch that cannot fully
    dispatch from an idle machine.
    """
    config = gpu.config
    if not hasattr(os, "fork"):  # pragma: no cover - posix-only repo
        return None
    if not config.event_core or getattr(app, "may_device_launch", True):
        return None
    if gpu.cta_observer is not None or gpu.launch_observer is not None:
        return None
    if max(1, min(config.parallel_shards, len(gpu.sms))) < 2:
        return None
    # Same validation (and the same ValueError on unsafe explicit
    # windows) as the in-process driver.
    _window, _safe, _exact, enabled = resolve_window(gpu)
    if not enabled:
        return None
    ops = list(app.host_program())
    launches = [op.launch for op in ops if isinstance(op, HostLaunch)]
    plans = []
    memo: dict = {}
    for launch in launches:
        kernel = launch.kernel
        key = (
            kernel.cta_threads,
            kernel.regs_per_thread,
            kernel.smem_per_cta,
            launch.num_ctas,
        )
        plan = memo.get(key)
        if plan is None:
            plan = memo[key] = plan_dispatch(gpu, kernel, launch.num_ctas)
        if len(plan) < launch.num_ctas:
            # Partially-dispatched grids need live mid-grid refills;
            # the in-process driver's per-grid fallback handles them.
            return None
        plans.append(plan)
    ProcessShardDriver(gpu, launches, plans)
    return _OpsApp(ops, app)


class ProcessShardDriver(WindowBarrierDriver):
    """Window-barrier driver whose shards run in forked workers.

    Construction forks one worker per shard (inheriting the fully
    built shard structures copy-on-write), takes over ``submit_grid``
    (grid admission is replicated in the workers from the shared
    dispatch plans), and registers the flush/finalize hooks.  The
    parent keeps sole ownership of the memory subsystem, grid
    bookkeeping, and host accounting; workers own their shard's SMs.
    """

    def __init__(self, gpu, launches, plans):
        super().__init__(gpu)
        self.launches = launches
        self.plans = plans
        self._heap_mins = [NEVER] * self.num_shards
        self._next_launch = 0
        self._pids: list = []
        self._channels: list = []
        self._fork_workers()
        # Instance-level override: grid admission happens inside the
        # workers, the parent only keeps bookkeeping.
        gpu.submit_grid = self._submit
        gpu._flush_hooks.append(self._flush)

    # -- worker lifecycle --------------------------------------------------
    def _fork_workers(self) -> None:
        pairs = [multiprocessing.Pipe(duplex=True)
                 for _ in range(self.num_shards)]
        for index in range(self.num_shards):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    # Close every fd this worker does not own: the
                    # parent ends, and the other workers' child ends —
                    # otherwise a dead sibling's pipe never reaches EOF
                    # in the parent.
                    for j, (parent_end, child_end) in enumerate(pairs):
                        parent_end.close()
                        if j != index:
                            child_end.close()
                    self._worker_main(index, pairs[index][1])
                    status = 0
                except BaseException:  # noqa: BLE001 - child never unwinds
                    pass
                finally:
                    # Never run the parent's atexit/test machinery.
                    os._exit(status)
            self._pids.append(pid)
        for _parent_end, child_end in pairs:
            child_end.close()
        self._channels = [parent_end for parent_end, _child_end in pairs]

    def close(self, terminate: bool = False) -> None:
        """Stop and reap all workers (idempotent; safe on error paths)."""
        channels, self._channels = self._channels, []
        for channel in channels:
            if not terminate:
                try:
                    channel.send_bytes(_OP_CLOSE)
                except Exception:
                    pass
        for index, pid in enumerate(self._pids):
            if pid is None:
                continue
            if terminate:
                try:
                    os.kill(pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass
            if not _reap(pid, timeout=5.0):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                _reap(pid, timeout=5.0)
            self._pids[index] = None
        for channel in channels:
            try:
                channel.close()
            except Exception:
                pass

    # -- parent-side channel helpers ---------------------------------------
    def _send(self, index: int, frame: bytes) -> None:
        try:
            self._channels[index].send_bytes(frame)
        except (BrokenPipeError, EOFError, OSError):
            raise SimulationDeadlock(
                f"shard worker {index} died before the window barrier"
            ) from None

    def _expect(self, index: int, want: bytes) -> bytes:
        try:
            frame = self._channels[index].recv_bytes()
        except (EOFError, OSError):
            raise SimulationDeadlock(
                f"shard worker {index} died before the window barrier"
            ) from None
        tag = frame[:1]
        if tag == _TAG_ERROR:
            exc, text = pickle.loads(frame[1:])
            raise exc from RuntimeError(
                f"shard worker {index} failed; worker traceback:\n{text}"
            )
        if tag != want:  # pragma: no cover - protocol is lockstep
            raise RuntimeError(
                f"shard worker {index}: expected frame {want!r}, got {tag!r}"
            )
        return frame

    # -- grid submission ----------------------------------------------------
    def _submit(self, grid: Grid) -> None:
        try:
            self._submit_inner(grid)
        except BaseException:
            self.close(terminate=True)
            raise

    def _submit_inner(self, grid: Grid) -> None:
        gpu = self.gpu
        gpu._active_grids += 1
        ordinal = self._next_launch
        self._next_launch += 1
        # All CTAs are admitted inside the workers (from the shared
        # plan); the parent's copy only tracks retirement.
        grid.next_cta = grid.num_ctas
        frame = _OP_SUBMIT + _SUBMIT.pack(ordinal, grid.available_time)
        for index in range(self.num_shards):
            self._send(index, frame)
        for index in range(self.num_shards):
            reply = self._expect(index, _TAG_MIN)
            head, has_start, start = _SUBMIT_REPLY.unpack_from(reply, 1)
            self._heap_mins[index] = head
            if has_start:
                # Reported by the worker owning plan[0]'s SM — the
                # exact start_time the sequential first admission sets.
                grid.start_time = start

    def _flush(self) -> None:
        try:
            for index in range(self.num_shards):
                self._send(index, _OP_FLUSH)
        except BaseException:
            self.close(terminate=True)
            raise

    # -- the window loop (parent side) --------------------------------------
    def drive(self, grid: Grid) -> None:
        try:
            gpu = self.gpu
            if not gpu._runahead or gpu._pending_grids or not self.enabled:
                # The eligibility scan guarantees these before forking;
                # reaching here means a backend invariant broke — fail
                # loudly, a silent sequential fallback would desync the
                # workers' SM state from the parent's.
                raise RuntimeError(
                    "process shard backend: windowed-execution "
                    "preconditions violated mid-run"
                )
            self._window_loop(grid)
        except BaseException:
            self.close(terminate=True)
            raise

    def _window_loop(self, grid: Grid) -> None:
        gpu = self.gpu
        window = self.window
        mins = self._heap_mins
        n = self.num_shards
        run_op = _OP_RUN
        while grid.remaining_ctas:
            start = min(mins)
            if start == NEVER:
                raise SimulationDeadlock(
                    "no runnable SMs but the run predicate is unsatisfied "
                    f"(pending grids: {len(gpu._pending_grids)})"
                )
            w_end = start + window
            due = [i for i in range(n) if mins[i] < w_end]
            frame = run_op + _F8.pack(w_end)
            for index in due:
                self._send(index, frame)
            staged = [self._expect(index, _TAG_STAGED) for index in due]
            deliveries = self._replay(due, staged, grid)
            for index in due:
                values = deliveries[index]
                self._send(
                    index,
                    _OP_DELIVER + _U4.pack(len(values))
                    + struct.pack(f"<{len(values)}d", *values),
                )
            for index in due:
                reply = self._expect(index, _TAG_MIN)
                mins[index] = _F8.unpack_from(reply, 1)[0]

    def _replay(self, due, frames, grid) -> dict:
        """Barrier drain: replay staged ops in global sequential order."""
        gpu = self.gpu
        memory = gpu.memory
        out: dict[int, list] = {index: [] for index in due}
        streams = []
        for index, frame in zip(due, frames):
            entries = _decode_staged(frame, index)
            if entries:
                streams.append(entries)
        if not streams:
            return out
        for _key, kind, payload, origin in _kway_merge(*streams):
            if kind == _REQ:
                out[origin].append(memory.line_request(*payload))
            elif kind == _BATCH:
                sm_id, entries, store = payload
                out[origin].append(
                    memory.line_requests(sm_id, entries, store)
                )
            elif kind == _WB:
                memory.writeback(*payload)
            else:  # _CTA — observers are None by eligibility, and with
                # no pending grids refill_sm is a no-op, so the parent
                # replays retirement without SM/CTA objects.
                _sm_id, t = payload
                gpu.cta_finished(None, grid, t, None)
        return out

    # -- finalize ------------------------------------------------------------
    def _finalize(self) -> None:
        gpu = self.gpu
        if not self._channels:
            return
        try:
            for index in range(self.num_shards):
                self._send(index, _OP_FINALIZE)
            for index in range(self.num_shards):
                frame = self._expect(index, _TAG_FINAL)
                stats, telemetry, rows = pickle.loads(frame[1:])
                gpu.stats.merge(stats)
                if telemetry is not None and gpu.telemetry is not None:
                    gpu.telemetry.absorb(telemetry)
                # The parent's SM copies never ran: overwrite their
                # (all-zero) cache stats with the workers' so
                # GPUSimulator.finalize's per-SM merge runs unchanged.
                for sm_id, l1_stats, const_stats, issued in rows:
                    sm = gpu.sms[sm_id]
                    sm.l1.stats = l1_stats
                    sm.const_cache.stats = const_stats
                    sm.issued_instructions = issued
        except BaseException:
            self.close(terminate=True)
            raise
        self.close()

    # -- worker main loop (child side) --------------------------------------
    def _worker_main(self, index: int, channel) -> None:
        # The parent coordinates teardown; a terminal Ctrl-C reaches it
        # and propagates as terminate+reap.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        shard = self.shards[index]
        staging = shard.ctx.memory
        for sm in shard.sms:
            # The windowed writeback binding (dirty L1 evictions stage
            # under the live cursor — see WindowBarrierDriver).
            sm.l1.writeback_sink = (
                lambda line, _sm=sm, _mem=staging: _mem.writeback(
                    _sm.sm_id, line, _sm.time
                )
            )
        own = {sm.sm_id: sm for sm in shard.sms}
        heap = shard.heap
        seq = shard.seq
        try:
            while True:
                try:
                    frame = channel.recv_bytes()
                except (EOFError, OSError):
                    return  # parent is gone
                op = frame[:1]
                if op == _OP_RUN:
                    (w_end,) = _F8.unpack_from(frame, 1)
                    shard.run_window(w_end)
                    channel.send_bytes(_encode_staged(shard.staged))
                elif op == _OP_DELIVER:
                    (count,) = _U4.unpack_from(frame, 1)
                    values = struct.unpack_from(f"<{count}d", frame, 5)
                    j = 0
                    for entry in shard.staged:
                        slot = entry[3]
                        if slot is not None:
                            slot[0] = values[j]
                            j += 1
                    shard.staged.clear()
                    shard.deliver()
                    head = heap[0][0] if heap else NEVER
                    channel.send_bytes(_TAG_MIN + _F8.pack(head))
                elif op == _OP_SUBMIT:
                    ordinal, avail = _SUBMIT.unpack_from(frame, 1)
                    launch = self.launches[ordinal]
                    grid = Grid(
                        launch.kernel,
                        launch.num_ctas,
                        args=launch.args,
                        available_time=avail,
                    )
                    plan = self.plans[ordinal]
                    for sm_id in plan:
                        sm = own.get(sm_id)
                        if sm is None:
                            # Remote CTA: burn its id so local CTAs
                            # keep their global cta_id (trace
                            # addresses depend on it).
                            grid.next_cta += 1
                            continue
                        cta = sm.admit_cta(grid, avail)
                        cta.sm = sm
                        # Mirror of _dispatch_pending's _wake_sm call.
                        wake = max(sm.time, avail)
                        sm.wake_accounting(wake)
                        heappush(heap, (wake, sm_id, next(seq), sm))
                    has_start = bool(plan) and plan[0] in own
                    start = grid.start_time if has_start else 0.0
                    head = heap[0][0] if heap else NEVER
                    channel.send_bytes(
                        _TAG_MIN
                        + _SUBMIT_REPLY.pack(
                            head, 1 if has_start else 0, start or 0.0
                        )
                    )
                elif op == _OP_FLUSH:
                    for sm in shard.sms:
                        sm.l1.flush()
                        sm.const_cache.flush()
                        sm.tex_cache.flush()
                elif op == _OP_FINALIZE:
                    rows = [
                        (
                            sm.sm_id,
                            sm.l1.stats,
                            sm.const_cache.stats,
                            sm.issued_instructions,
                        )
                        for sm in shard.sms
                    ]
                    payload = (shard.stats, shard.telemetry, rows)
                    channel.send_bytes(
                        _TAG_FINAL
                        + pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
                    )
                elif op == _OP_CLOSE:
                    return
                else:  # pragma: no cover - protocol is lockstep
                    raise RuntimeError(f"unknown op frame {op!r}")
        except BaseException as exc:  # noqa: BLE001 - ship, then die
            text = traceback.format_exc()
            try:
                blob = pickle.dumps((exc, text), pickle.HIGHEST_PROTOCOL)
            except Exception:
                blob = pickle.dumps(
                    (RuntimeError(f"{type(exc).__name__}: {exc}"), text),
                    pickle.HIGHEST_PROTOCOL,
                )
            try:
                channel.send_bytes(_TAG_ERROR + blob)
            except Exception:
                pass


def _reap(pid: int, timeout: float) -> bool:
    """Wait for ``pid`` to exit; True once reaped (or already gone)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            done, _status = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done == pid:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)


__all__ = [
    "ProcessShardDriver",
    "plan_dispatch",
    "try_install_process_driver",
]
