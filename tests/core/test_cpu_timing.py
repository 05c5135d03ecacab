"""Tests for the CPU baseline cost model."""

import pytest

from repro.cpu import CPUModel, cpu_cycles
from repro.data.datasets import DatasetSize, dataset_for
from repro.data.workloads import PairwiseWorkload
from repro.genomics.sequence import Sequence


class TestCPUModel:
    def test_pairwise_scales_with_cells(self):
        model = CPUModel()
        small = PairwiseWorkload(Sequence("q", "A" * 100), Sequence("t", "A" * 100))
        large = PairwiseWorkload(Sequence("q", "A" * 200), Sequence("t", "A" * 200))
        assert model.pairwise(large) == 4 * model.pairwise(small)

    def test_center_star_counts_both_phases(self):
        workload = dataset_for("STAR", DatasetSize.SMALL)
        model = CPUModel()
        k = len(workload.sequences)
        cycles = model.center_star(workload)
        # At least (k choose 2) + (k-1) rows of work.
        min_rows = (k * (k - 1)) // 2 + (k - 1)
        assert cycles >= min_rows * model.row_cycles

    def test_batch_sums_pairs(self):
        workload = dataset_for("GG", DatasetSize.SMALL)
        assert CPUModel().batch(workload) > 0

    def test_pairhmm(self):
        workload = dataset_for("PairHMM", DatasetSize.SMALL)
        assert CPUModel().pairhmm(workload) > 0


class TestCpuCyclesDispatch:
    @pytest.mark.parametrize("abbr", ["SW", "NW", "STAR", "GG", "PairHMM"])
    def test_supported_benchmarks(self, abbr):
        workload = dataset_for(abbr, DatasetSize.SMALL)
        assert cpu_cycles(abbr, workload) > 0

    def test_unsupported_benchmark(self):
        with pytest.raises(ValueError):
            cpu_cycles("NvB", None)

    def test_gpu_speedup_in_paper_range(self):
        """Fig 2's headline: GPU beats CPU by up to ~20x."""
        from repro.core import run_benchmark
        from repro.core.config_presets import baseline_config

        workload = dataset_for("SW", DatasetSize.SMALL)
        cpu = cpu_cycles("SW", workload)
        gpu = run_benchmark("SW", config=baseline_config()).device_time()
        assert 3 < cpu / gpu < 30
