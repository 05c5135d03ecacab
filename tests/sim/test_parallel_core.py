"""Parallel-core edge cases: cross-shard events, fallbacks, deadlock.

These exercise the paths the golden suite (``test_parallel_golden``)
only crosses incidentally: a CDP device launch whose child lands on a
remote shard (the per-grid sequential fallback), a grid retiring
exactly on a window boundary, the deadlock detector when every shard
heap drains mid-run, the mismarked-application error propagating
out of a shard window, relaxed mode, and the window-bound
validation.
"""

import dataclasses

import pytest

from repro.isa import TraceBuilder
from repro.sim import (
    Application,
    GPUConfig,
    GPUSimulator,
    HostLaunch,
    KernelLaunch,
    KernelProgram,
)
from repro.sim.gpu import SimulationDeadlock
from repro.sim.parallel import WindowBarrierDriver, local_completion_floor
from repro.sim.warp import Grid


class ScriptKernel(KernelProgram):
    """Kernel whose trace comes from a per-warp script function."""

    def __init__(self, script, cta_threads=64, **resources):
        super().__init__("script", cta_threads, **resources)
        self.script = script

    def warp_trace(self, ctx):
        yield from self.script(ctx)


class ScriptApp(Application):
    """One launch of a scripted kernel, optionally run-ahead eligible."""

    name = "script-app"

    def __init__(self, kernel, num_ctas=1, launch_free=False):
        self.kernel = kernel
        self.num_ctas = num_ctas
        self.may_device_launch = not launch_free

    def host_program(self):
        yield HostLaunch(KernelLaunch(self.kernel, num_ctas=self.num_ctas))


def run_app(app, num_sms=4, **config_overrides):
    config = GPUConfig(
        event_core=True, num_sms=num_sms, num_mem_partitions=2,
        **config_overrides,
    )
    return GPUSimulator(config).run_application(app)


def memory_script(ctx):
    """A few dependent global loads + ALU work: every warp crosses the
    memory subsystem, so shards must stage cross-shard traffic."""
    b = TraceBuilder()
    for i in range(6):
        yield b.ints(3)
        yield b.ld_global([ctx.global_warp * 9 + i, ctx.global_warp + 512])
    yield b.exit()


class TestCDPFallback:
    def _cdp_app(self):
        child = ScriptKernel(
            lambda ctx: iter(
                [TraceBuilder().ints(200), TraceBuilder().exit()]
            ),
            32,
        )

        def parent(ctx):
            b = TraceBuilder()
            yield b.launch(KernelLaunch(child, num_ctas=4))
            yield b.device_sync()
            yield b.exit()

        return ScriptApp(ScriptKernel(parent, 32), num_ctas=4)

    def test_device_launch_lands_identically(self):
        """A CDP child may be dispatched to any SM — including one a
        different shard would own.  The driver must route the whole
        application through the sequential fallback and match the
        plain event core bit-for-bit."""
        seq = run_app(self._cdp_app())
        par = run_app(
            self._cdp_app(), parallel_shards=4, parallel_executor="inline"
        )
        assert par.device_launches > 0
        assert dataclasses.asdict(par) == dataclasses.asdict(seq)

    def test_mismarked_app_raises_through_pool(self):
        """An application that declares itself launch-free enters
        windowed execution; a device launch from inside a shard window
        must surface the loud RuntimeError, not diverge or hang."""
        child = ScriptKernel(lambda ctx: iter([TraceBuilder().exit()]), 32)

        def parent(ctx):
            b = TraceBuilder()
            yield b.launch(KernelLaunch(child, num_ctas=1))
            yield b.exit()

        app = ScriptApp(ScriptKernel(parent, 32), launch_free=True)
        with pytest.raises(RuntimeError, match="may_device_launch"):
            run_app(app, parallel_shards=2, parallel_executor="inline")


class TestWindowBoundaries:
    @pytest.mark.parametrize("window", [1, 2, 3, 7])
    def test_tiny_windows_identical(self, window):
        """window=1 puts a barrier on *every* occupied cycle, so grid
        retirement (``cta_finished`` draining at the barrier) lands
        exactly on a window boundary; small primes cover off-phase
        boundaries.  All must match the sequential core."""
        def app():
            return ScriptApp(
                ScriptKernel(memory_script, 64), num_ctas=8, launch_free=True
            )

        seq = run_app(app())
        par = run_app(app(), parallel_shards=2, window_cycles=window)
        assert dataclasses.asdict(par) == dataclasses.asdict(seq)

    def test_partial_dispatch_falls_back_identically(self):
        """A grid too large to fully dispatch at submit stays pending;
        mid-grid refills read live SM clocks, so the driver must take
        the sequential fallback — and still match bit-for-bit."""
        def app():
            return ScriptApp(
                ScriptKernel(memory_script, 256, smem_per_cta=24 * 1024),
                num_ctas=24,
                launch_free=True,
            )

        seq = run_app(app(), num_sms=2)
        par = run_app(app(), num_sms=2, parallel_shards=2)
        assert dataclasses.asdict(par) == dataclasses.asdict(seq)


class TestDeadlock:
    def test_all_shards_idle_raises(self):
        """Every shard heap empty with CTAs still outstanding must
        raise, not spin: the window loop cannot pick a start time."""
        sim = GPUSimulator(GPUConfig(
            event_core=True, num_sms=2, num_mem_partitions=2,
            parallel_shards=2, parallel_executor="inline",
        ))
        driver = WindowBarrierDriver(sim)
        sim._runahead = True  # windowed path, no fallback
        kernel = ScriptKernel(lambda ctx: iter([TraceBuilder().exit()]), 32)
        orphan = Grid(kernel, num_ctas=1)  # never submitted: no heap entries
        with pytest.raises(SimulationDeadlock):
            driver.drive(orphan)

    def test_undispatchable_grid_raises(self):
        """The classic deadlock (a CTA that fits no SM) flows through
        the pending-grid fallback and still reports loudly."""
        huge = ScriptKernel(
            lambda ctx: iter([TraceBuilder().exit()]),
            64,
            smem_per_cta=200 * 1024,
        )
        with pytest.raises(SimulationDeadlock):
            run_app(
                ScriptApp(huge, launch_free=True),
                num_sms=2,
                parallel_shards=2,
            )


class TestWindowValidation:
    def test_window_beyond_safe_bound_rejected(self):
        app = ScriptApp(
            ScriptKernel(memory_script, 64), num_ctas=2, launch_free=True
        )
        with pytest.raises(ValueError, match="safe bound"):
            run_app(app, parallel_shards=2, window_cycles=10_000)

    def test_relaxed_mode_completes(self):
        """Relaxed windows trade exactness for fewer barriers: results
        must still be a complete, plausible simulation (identical
        instruction stream; timing may drift within a window)."""
        def app():
            return ScriptApp(
                ScriptKernel(memory_script, 64), num_ctas=8, launch_free=True
            )

        seq = run_app(app())
        for overrides in (
            {"parallel_relaxed": True},                        # auto window
            {"parallel_relaxed": True, "window_cycles": 2_000},
        ):
            par = run_app(app(), parallel_shards=2, **overrides)
            assert par.instructions == seq.instructions
            assert par.cycles > 0

    def test_driver_reports_exactness(self):
        sim = GPUSimulator(GPUConfig(
            event_core=True, num_sms=4, num_mem_partitions=2,
            parallel_shards=2,
        ))
        driver = WindowBarrierDriver(sim)
        assert driver.exact
        assert driver.window <= driver.safe_window
        assert local_completion_floor(sim.config) < driver.safe_window
