"""Tests for the shared experiment runner."""

from repro.experiments.parallel import run_cells
from repro.experiments.runner import (
    EVAL_WORKLOADS,
    QUICK,
    ExperimentConfig,
    matrix_cells,
    matrix_of,
)


def _run_matrix(config, systems, workloads=None):
    """``matrix[workload][system]`` of the cells, through the cell runner."""
    chosen = config.workloads if workloads is None else workloads
    run = run_cells({"": matrix_cells(chosen, systems)}, config)
    return matrix_of(run.results, chosen, systems)


class TestExperimentConfig:
    def test_eval_workloads_is_the_full_suite(self):
        assert len(EVAL_WORKLOADS) == 15
        assert "gemver" in EVAL_WORKLOADS

    def test_bundle_rounds_override(self):
        bundle = QUICK.bundle("gemver", rounds=1)
        assert bundle.round_count == 1
        default = QUICK.bundle("gemver")
        assert default.round_count == 2  # gemver's spec value

    def test_system_config_carries_cache_sizes(self):
        config = ExperimentConfig(l1_bytes=1024, l2_bytes=8192)
        system_config = config.system_config()
        assert system_config.accelerator.l1_bytes == 1024
        assert system_config.accelerator.l2_bytes == 8192

    def test_bundles_are_deterministic(self):
        assert QUICK.bundle("doitg").rounds == QUICK.bundle("doitg").rounds


class TestRunMatrix:
    def test_matrix_shape(self):
        matrix = _run_matrix(QUICK, ["Ideal", "DRAM-less"])
        assert set(matrix) == set(QUICK.workloads)
        for results in matrix.values():
            assert set(results) == {"Ideal", "DRAM-less"}

    def test_workload_override(self):
        matrix = _run_matrix(QUICK, ["Ideal"], workloads=["gemver"])
        assert set(matrix) == {"gemver"}

    def test_results_carry_workload_names(self):
        matrix = _run_matrix(QUICK, ["Ideal"], workloads=["doitg"])
        assert matrix["doitg"]["Ideal"].workload == "doitg"
        assert matrix["doitg"]["Ideal"].system == "Ideal"
