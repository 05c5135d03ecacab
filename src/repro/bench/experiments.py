"""Every table and figure of the paper as a runnable experiment.

Conventions:

- Each function accepts a ``config`` (default: the RTX 3070 baseline)
  and returns a list of row dicts ready for
  :func:`repro.core.report.format_table`.
- Benchmarks default to the SMALL datasets so a full figure finishes
  in seconds; pass ``size=DatasetSize.MEDIUM``/``LARGE`` to scale up.
- Per-figure benchmark subsets match the paper (Fig 2 uses SW/NW/STAR;
  Fig 7 uses NW/PairHMM; everything else runs the full suite with CDP
  variants).
"""

from __future__ import annotations

from dataclasses import asdict

from repro.core.config_presets import (
    CACHE_SWEEP,
    CTA_SCALING,
    MEM_CONTROLLERS,
    NOC_BANDWIDTH_SWEEP,
    NOC_LATENCY_SWEEP,
    SCHEDULERS,
    TOPOLOGIES,
    baseline_config,
    scale_cta_resources,
    with_cache_sizes,
    with_controller,
    with_topology,
)
from repro.core.runner import run_benchmark, variant_name
from repro.core.suite import BenchmarkSuite
from repro.core.sweep import run_sweep, sweep_point
from repro.cpu.timing import cpu_cycles
from repro.data.datasets import DatasetSize, dataset_for
from repro.kernels import benchmark_names
from repro.sim.config import GPUConfig
from repro.sim.stats import RunStats


def suite_variants() -> list[tuple[str, bool]]:
    """All 20 (benchmark, cdp) variants in Table III order."""
    return [(abbr, cdp) for abbr in benchmark_names() for cdp in (False, True)]


def _sweep_variants(
    benchmarks: list[str] | None = None,
) -> list[tuple[str, bool]]:
    """``suite_variants`` filtered to an optional benchmark subset."""
    return [
        (abbr, cdp) for abbr, cdp in suite_variants()
        if not benchmarks or abbr in benchmarks
    ]


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table1_configs() -> list[dict]:
    """Table I: the hardware configuration space (baseline bolded)."""
    from repro.core import config_presets as presets

    base = baseline_config()
    return [
        {"configuration": "Shader Cores", "baseline": base.num_sms,
         "sweep": [base.num_sms]},
        {"configuration": "Warp Size", "baseline": base.warp_size,
         "sweep": [base.warp_size]},
        {"configuration": "Registers / Core",
         "baseline": base.registers_per_sm, "sweep": presets.REGISTER_SWEEP},
        {"configuration": "CTAs / Core", "baseline": base.max_ctas_per_sm,
         "sweep": presets.CTA_SWEEP},
        {"configuration": "Threads / Core",
         "baseline": base.max_threads_per_sm, "sweep": presets.THREAD_SWEEP},
        {"configuration": "Shared Memory / Core (KB)",
         "baseline": base.shared_mem_per_sm // 1024,
         "sweep": presets.SHARED_MEM_SWEEP_KB},
        {"configuration": "L1 Cache", "baseline": base.l1.size_bytes,
         "sweep": [l1 for l1, _ in CACHE_SWEEP]},
        {"configuration": "L2 Cache", "baseline": base.l2.size_bytes,
         "sweep": [l2 for _, l2 in CACHE_SWEEP]},
        {"configuration": "Memory Controller",
         "baseline": base.dram.controller, "sweep": MEM_CONTROLLERS},
        {"configuration": "Scheduler", "baseline": base.scheduler,
         "sweep": SCHEDULERS},
    ]


def table2_configs() -> list[dict]:
    """Table II: the interconnect configuration space."""
    base = baseline_config()
    return [
        {"configuration": "Topology", "baseline": base.noc.topology,
         "sweep": TOPOLOGIES},
        {"configuration": "Routing Mechanism", "baseline": "per topology",
         "sweep": ["dimension order", "destination tag",
                   "nearest common ancestor"]},
        {"configuration": "Routing delay", "baseline": base.noc.router_delay,
         "sweep": NOC_LATENCY_SWEEP},
        {"configuration": "Flit size (Bytes)",
         "baseline": base.noc.channel_bytes, "sweep": NOC_BANDWIDTH_SWEEP},
    ]


def table3_properties(config: GPUConfig | None = None) -> list[dict]:
    """Table III: benchmark properties plus the model's CTA/core."""
    suite = BenchmarkSuite(config or baseline_config())
    return [asdict(suite.properties(abbr)) for abbr in suite.names()]


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

def fig2_cpu_gpu(
    config: GPUConfig | None = None, size: DatasetSize = DatasetSize.SMALL
) -> list[dict]:
    """Fig 2: CPU vs GPU vs GPU+CDP for SW, NW, STAR (normalized to CPU)."""
    config = config or baseline_config()
    rows = []
    for abbr in ("SW", "NW", "STAR"):
        cpu = cpu_cycles(abbr, dataset_for(abbr, size))
        gpu = run_benchmark(
            abbr, cdp=False, size=size, config=config
        ).device_time()
        gpu_cdp = run_benchmark(
            abbr, cdp=True, size=size, config=config
        ).device_time()
        rows.append({
            "benchmark": abbr,
            "cpu_cycles": cpu,
            "gpu_cycles": gpu,
            "gpu_cdp_cycles": gpu_cdp,
            "gpu_norm": gpu / cpu,
            "gpu_cdp_norm": gpu_cdp / cpu,
            "gpu_speedup": cpu / gpu,
            "gpu_cdp_speedup": cpu / gpu_cdp,
        })
    return rows


def fig3_cdp(
    config: GPUConfig | None = None, size: DatasetSize = DatasetSize.SMALL
) -> list[dict]:
    """Fig 3: kernel execution time, CDP vs non-CDP, per benchmark."""
    config = config or baseline_config()
    rows = []
    for abbr in benchmark_names():
        base = run_benchmark(abbr, cdp=False, size=size, config=config)
        cdp = run_benchmark(abbr, cdp=True, size=size, config=config)
        rows.append({
            "benchmark": abbr,
            "noncdp_cycles": base.device_time(),
            "cdp_cycles": cdp.device_time(),
            "improvement": 1.0 - cdp.device_time() / base.device_time(),
        })
    return rows


def fig4_kernel_pci(
    config: GPUConfig | None = None, size: DatasetSize = DatasetSize.SMALL
) -> list[dict]:
    """Fig 4: kernel/PCI call counts and total/average times."""
    config = config or baseline_config()
    rows = []
    for abbr, cdp in suite_variants():
        stats = run_benchmark(abbr, cdp=cdp, size=size, config=config)
        launches = stats.kernel_launches + stats.device_launches
        rows.append({
            "benchmark": variant_name(abbr, cdp),
            "kernel_count": launches,
            "pci_count": stats.memcpy_calls,
            "kernel_cycles": stats.kernel_cycles,
            "pci_cycles": stats.pci_cycles,
            "avg_kernel_cycles": stats.kernel_cycles / max(1, launches),
            "avg_pci_cycles": stats.pci_cycles / max(1, stats.memcpy_calls),
        })
    return rows


def fig5_stalls(
    config: GPUConfig | None = None, size: DatasetSize = DatasetSize.SMALL
) -> list[dict]:
    """Fig 5: pipeline-stall breakdown per benchmark."""
    config = config or baseline_config()
    rows = []
    for abbr, cdp in suite_variants():
        stats = run_benchmark(abbr, cdp=cdp, size=size, config=config)
        row = {"benchmark": variant_name(abbr, cdp)}
        row.update(stats.stall_breakdown())
        rows.append(row)
    return rows


def fig6_sram(config: GPUConfig | None = None) -> list[dict]:
    """Fig 6: register / shared / constant utilization per benchmark."""
    config = config or baseline_config()
    suite = BenchmarkSuite(config)
    from repro.kernels import build_application
    from repro.sim.occupancy import occupancy_report

    rows = []
    for abbr in suite.names():
        app = build_application(abbr)
        kernel = getattr(app, "kernel", None)
        if kernel is None:
            for op in app.host_program():
                if hasattr(op, "launch"):
                    kernel = op.launch.kernel
                    break
        report = occupancy_report(config, kernel)
        rows.append({
            "benchmark": abbr,
            "registers": report.register_utilization,
            "shared_memory": report.shared_utilization,
            "constant": report.constant_utilization,
            "ctas_per_core": report.ctas_per_sm,
            "limiter": report.limiter,
        })
    return rows


def fig7_shared_memory(
    config: GPUConfig | None = None, size: DatasetSize = DatasetSize.SMALL
) -> list[dict]:
    """Fig 7: NW and PairHMM with vs without shared memory."""
    config = config or baseline_config()
    rows = []
    for abbr in ("NW", "PairHMM"):
        with_smem = run_benchmark(
            abbr, size=size, config=config, use_shared=True
        ).device_time()
        without = run_benchmark(
            abbr, size=size, config=config, use_shared=False
        ).device_time()
        rows.append({
            "benchmark": abbr,
            "with_shared_cycles": with_smem,
            "without_shared_cycles": without,
            "slowdown_without": without / with_smem,
        })
    return rows


def fig8_instruction_mix(
    config: GPUConfig | None = None, size: DatasetSize = DatasetSize.SMALL
) -> list[dict]:
    """Fig 8: dynamic instruction-class distribution."""
    config = config or baseline_config()
    rows = []
    for abbr, cdp in suite_variants():
        stats = run_benchmark(abbr, cdp=cdp, size=size, config=config)
        row = {"benchmark": variant_name(abbr, cdp)}
        row.update(stats.op_fractions())
        rows.append(row)
    return rows


def fig9_memory_mix(
    config: GPUConfig | None = None, size: DatasetSize = DatasetSize.SMALL
) -> list[dict]:
    """Fig 9: memory-space distribution of memory instructions."""
    config = config or baseline_config()
    rows = []
    for abbr, cdp in suite_variants():
        stats = run_benchmark(abbr, cdp=cdp, size=size, config=config)
        row = {"benchmark": variant_name(abbr, cdp)}
        row.update(stats.mem_fractions())
        rows.append(row)
    return rows


def fig10_warp_occupancy(
    config: GPUConfig | None = None, size: DatasetSize = DatasetSize.SMALL
) -> list[dict]:
    """Fig 10: warp-occupancy histogram (W1-4 .. W29-32)."""
    config = config or baseline_config()
    rows = []
    for abbr, cdp in suite_variants():
        stats = run_benchmark(abbr, cdp=cdp, size=size, config=config)
        row = {"benchmark": variant_name(abbr, cdp)}
        row.update(stats.occupancy_fractions())
        rows.append(row)
    return rows


def fig11_cta_sweep(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    benchmarks: list[str] | None = None,
    num_sms: int = 4,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 11: speedup when CTA/core (and linked resources) scale.

    Resident-CTA capacity only binds when grids oversubscribe the
    machine, so this sweep runs on a small ``num_sms`` device (the
    paper's 32K-scale inputs oversubscribe all 78 SMs; the SMALL
    datasets would leave them idle).  PairHMM uses the MEDIUM batch for
    the same reason — its CTA demand must exceed baseline capacity for
    the paper's PairHMM-CDP scaling trend to be visible.
    """
    config = (config or baseline_config()).with_(num_sms=num_sms)
    variants = _sweep_variants(benchmarks)
    points = [
        sweep_point(
            f"{variant_name(abbr, cdp)}|x{factor}",
            abbr,
            scale_cta_resources(config, factor),
            cdp=cdp,
            size=DatasetSize.MEDIUM if abbr == "PairHMM" else size,
        )
        for abbr, cdp in variants
        for factor in CTA_SCALING
    ]
    stats = run_sweep(points, jobs=jobs)
    rows = []
    for abbr, cdp in variants:
        name = variant_name(abbr, cdp)
        row = {"benchmark": name}
        for factor in CTA_SCALING:
            row[f"x{factor}"] = stats[f"{name}|x{factor}"].device_time()
        base_time = row["x1.0"]
        for factor in CTA_SCALING:
            row[f"speedup_x{factor}"] = base_time / row[f"x{factor}"]
        rows.append(row)
    return rows


def cache_sweep_results(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    benchmarks: list[str] | None = None,
    jobs: int | None = 0,
) -> list[dict]:
    """Shared sweep behind Figs 12-14: one row per (variant, cache pair)."""
    config = config or baseline_config()
    variants = _sweep_variants(benchmarks)
    points = [
        sweep_point(
            f"{variant_name(abbr, cdp)}|l1={l1_bytes}|l2={l2_bytes}",
            abbr,
            with_cache_sizes(config, l1_bytes, l2_bytes),
            cdp=cdp,
            size=size,
        )
        for abbr, cdp in variants
        for l1_bytes, l2_bytes in CACHE_SWEEP
    ]
    results = run_sweep(points, jobs=jobs)
    rows = []
    for abbr, cdp in variants:
        name = variant_name(abbr, cdp)
        for l1_bytes, l2_bytes in CACHE_SWEEP:
            stats = results[f"{name}|l1={l1_bytes}|l2={l2_bytes}"]
            rows.append({
                "benchmark": name,
                "l1_bytes": l1_bytes,
                "l2_bytes": l2_bytes,
                "cycles": stats.device_time(),
                "ipc": stats.ipc,
                "l1_miss_rate": stats.l1.miss_rate,
                "l2_miss_rate": stats.l2.miss_rate,
            })
    return rows


def _baseline_key(row: dict) -> bool:
    return row["l1_bytes"] == 128 * 1024 and row["l2_bytes"] == 4 * 1024 * 1024


def fig12_cache_speedup(sweep: list[dict] | None = None, **kwargs) -> list[dict]:
    """Fig 12: IPC speedup per cache configuration vs the baseline."""
    sweep = sweep or cache_sweep_results(**kwargs)
    baselines = {
        row["benchmark"]: row["ipc"] for row in sweep if _baseline_key(row)
    }
    return [
        {
            "benchmark": row["benchmark"],
            "l1_bytes": row["l1_bytes"],
            "l2_bytes": row["l2_bytes"],
            "speedup": row["ipc"] / baselines[row["benchmark"]]
            if baselines[row["benchmark"]]
            else 0.0,
        }
        for row in sweep
    ]


def fig13_l1_miss(sweep: list[dict] | None = None, **kwargs) -> list[dict]:
    """Fig 13: L1 miss rate per cache configuration."""
    sweep = sweep or cache_sweep_results(**kwargs)
    return [
        {k: row[k] for k in ("benchmark", "l1_bytes", "l2_bytes", "l1_miss_rate")}
        for row in sweep
    ]


def fig14_l2_miss(sweep: list[dict] | None = None, **kwargs) -> list[dict]:
    """Fig 14: L2 miss rate per cache configuration."""
    sweep = sweep or cache_sweep_results(**kwargs)
    return [
        {k: row[k] for k in ("benchmark", "l1_bytes", "l2_bytes", "l2_miss_rate")}
        for row in sweep
    ]


def fig15_perfect_memory(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 15: speedup with a zero-latency memory system."""
    config = config or baseline_config()
    perfect_config = config.with_(perfect_memory=True)
    variants = _sweep_variants()
    points = []
    for abbr, cdp in variants:
        name = variant_name(abbr, cdp)
        points.append(sweep_point(f"{name}|base", abbr, config,
                                  cdp=cdp, size=size))
        points.append(sweep_point(f"{name}|perfect", abbr, perfect_config,
                                  cdp=cdp, size=size))
    results = run_sweep(points, jobs=jobs)
    rows = []
    for abbr, cdp in variants:
        name = variant_name(abbr, cdp)
        base = results[f"{name}|base"].device_time()
        perfect = results[f"{name}|perfect"].device_time()
        rows.append({
            "benchmark": name,
            "baseline_cycles": base,
            "perfect_cycles": perfect,
            "speedup": base / perfect,
        })
    return rows


def _controller_sweep(
    config: GPUConfig, size: DatasetSize, jobs: int | None
) -> dict[str, RunStats]:
    """Shared Figs 16/17 sweep: variant x controller, one run each."""
    points = [
        sweep_point(
            f"{variant_name(abbr, cdp)}|{controller}",
            abbr,
            with_controller(config, controller),
            cdp=cdp,
            size=size,
        )
        for abbr, cdp in _sweep_variants()
        for controller in MEM_CONTROLLERS
    ]
    return run_sweep(points, jobs=jobs)


def fig16_mem_controller(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 16: FR-FCFS vs FIFO vs OoO-128 memory controllers."""
    config = config or baseline_config()
    results = _controller_sweep(config, size, jobs)
    rows = []
    for abbr, cdp in _sweep_variants():
        name = variant_name(abbr, cdp)
        row = {"benchmark": name}
        times = {
            controller: results[f"{name}|{controller}"].device_time()
            for controller in MEM_CONTROLLERS
        }
        row.update(times)
        for controller in MEM_CONTROLLERS:
            row[f"norm_{controller}"] = times["frfcfs"] / times[controller]
        rows.append(row)
    return rows


def fig17_dram_efficiency(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 17: DRAM efficiency per benchmark and controller."""
    config = config or baseline_config()
    results = _controller_sweep(config, size, jobs)
    rows = []
    for abbr, cdp in _sweep_variants():
        name = variant_name(abbr, cdp)
        row = {"benchmark": name}
        for controller in MEM_CONTROLLERS:
            row[controller] = results[f"{name}|{controller}"].dram.efficiency
        rows.append(row)
    return rows


def fig18_dram_utilization(
    config: GPUConfig | None = None, size: DatasetSize = DatasetSize.SMALL
) -> list[dict]:
    """Fig 18: fraction of execution time the DRAM pins move data."""
    config = config or baseline_config()
    rows = []
    for abbr, cdp in suite_variants():
        stats = run_benchmark(abbr, cdp=cdp, size=size, config=config)
        rows.append({
            "benchmark": variant_name(abbr, cdp),
            "utilization": stats.dram_utilization(),
        })
    return rows


def _axis_sweep(
    config: GPUConfig,
    size: DatasetSize,
    jobs: int | None,
    axis: list,
    make_config,
    key,
    norm_value,
) -> list[dict]:
    """One-knob sweeps behind Figs 19-22: variant rows, axis columns.

    ``make_config(value)`` builds the config for one axis value,
    ``key(value)`` names its column, and ``norm_value`` is the axis
    value every other one is normalized against.
    """
    variants = _sweep_variants()
    points = [
        sweep_point(
            f"{variant_name(abbr, cdp)}|{key(value)}",
            abbr,
            make_config(value),
            cdp=cdp,
            size=size,
        )
        for abbr, cdp in variants
        for value in axis
    ]
    results = run_sweep(points, jobs=jobs)
    rows = []
    for abbr, cdp in variants:
        name = variant_name(abbr, cdp)
        row = {"benchmark": name}
        times = {
            value: results[f"{name}|{key(value)}"].device_time()
            for value in axis
        }
        for value in axis:
            row[key(value)] = times[value]
        for value in axis:
            row[f"norm_{key(value)}"] = times[norm_value] / times[value]
        rows.append(row)
    return rows


def fig19_scheduler(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 19: warp-scheduler sensitivity (normalized to LRR)."""
    config = config or baseline_config()
    return _axis_sweep(
        config, size, jobs, SCHEDULERS,
        lambda sched: config.with_(scheduler=sched),
        lambda sched: sched,
        "lrr",
    )


def fig20_topology(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 20: interconnect topology (normalized to the local crossbar)."""
    config = config or baseline_config()
    return _axis_sweep(
        config, size, jobs, TOPOLOGIES,
        lambda topology: with_topology(config, topology),
        lambda topology: topology,
        "xbar",
    )


def fig21_noc_latency(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 21: router latency +0/4/8/16 cycles on a mesh."""
    config = config or baseline_config()
    return _axis_sweep(
        config, size, jobs, NOC_LATENCY_SWEEP,
        lambda delay: with_topology(config, "mesh", router_delay=delay),
        lambda delay: f"delay{delay}",
        0,
    )


def fig22_noc_bandwidth(
    config: GPUConfig | None = None,
    size: DatasetSize = DatasetSize.SMALL,
    jobs: int | None = 0,
) -> list[dict]:
    """Fig 22: channel width 8/16/32/40B on a mesh (normalized to 40B)."""
    config = config or baseline_config()
    return _axis_sweep(
        config, size, jobs, NOC_BANDWIDTH_SWEEP,
        lambda width: with_topology(config, "mesh", channel_bytes=width),
        lambda width: f"bw{width}",
        40,
    )
