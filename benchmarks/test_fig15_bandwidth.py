"""Figure 15: normalized data-processing throughput of all systems."""

from benchmarks.conftest import write_report
from repro.experiments import fig15_bandwidth


def test_fig15_bandwidth(benchmark, bench_config, full_matrix,
                         results_dir, bench_record):
    result = benchmark.pedantic(
        fig15_bandwidth.view, args=(bench_config, full_matrix),
        rounds=1, iterations=1)

    write_report(results_dir, "fig15_bandwidth",
                 fig15_bandwidth.report(result))
    means = result["means"]
    bench_record("fig15.dramless_vs_hetero",
                 result["dramless_vs_hetero"],
                 better="higher", unit="fraction")
    bench_record("fig15.dramless_vs_heterodirect",
                 result["dramless_vs_heterodirect"],
                 better="higher", unit="fraction")
    bench_record("fig15.dramless_mean_throughput", means["DRAM-less"],
                 better="higher", unit="normalized")
    # Headline shape claims (paper values in parentheses):
    # DRAM-less beats Hetero decisively (+93%).
    assert result["dramless_vs_hetero"] >= 0.5
    # DRAM-less beats the P2P-DMA systems (+47%).
    assert result["dramless_vs_heterodirect"] >= 0.15
    # Hardware automation beats firmware admission (+25%).
    assert result["dramless_vs_firmware"] >= 0.10
    # P2P DMA beats the stock host stack (+25%).
    assert result["heterodirect_vs_hetero"] >= 0.10
    # DRAM-less is the best evaluated system overall.
    assert means["DRAM-less"] == max(means.values())
    # Flash grades order: SLC > MLC > TLC.
    assert (means["Integrated-SLC"] > means["Integrated-MLC"]
            > means["Integrated-TLC"])
    # PAGE-buffer beats Integrated-SLC (paper: +78%).
    assert means["PAGE-buffer"] > means["Integrated-SLC"]
