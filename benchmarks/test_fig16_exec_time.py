"""Figure 16: execution-time decomposition."""

from benchmarks.conftest import write_report
from repro.experiments import fig16_exec_time


def test_fig16_exec_time(benchmark, bench_config, full_matrix,
                         results_dir, bench_record):
    result = benchmark.pedantic(
        fig16_exec_time.view, args=(bench_config, full_matrix),
        rounds=1, iterations=1)

    write_report(results_dir, "fig16_exec_time",
                 fig16_exec_time.report(result))
    fractions = result["mean_fractions"]
    bench_record("fig16.dramless_compute_fraction",
                 fractions["DRAM-less"]["computation"],
                 better="higher", unit="fraction")
    bench_record("fig16.hetero_compute_fraction",
                 fractions["Hetero"]["computation"],
                 better="neutral", unit="fraction")
    # Heterogeneous systems spend real time staging/writing back data;
    # integrated/PRAM systems never stage.
    for name in ("Hetero", "Heterodirect", "Hetero-PRAM",
                 "Heterodirect-PRAM"):
        assert fractions[name]["data_preparation"] > 0.02, name
    for name in ("Integrated-SLC", "PAGE-buffer", "NOR-intf",
                 "DRAM-less"):
        assert fractions[name]["data_preparation"] == 0.0, name
    # Hetero's wall clock is dominated by data movement, not compute.
    hetero = fractions["Hetero"]
    movement = (hetero["data_preparation"] + hetero["output_writeback"]
                + hetero["memory_stall"] + hetero["store_stall"])
    assert movement > hetero["computation"]
    # DRAM-less has no per-round writeback phase (persistent medium).
    assert fractions["DRAM-less"]["output_writeback"] == 0.0
