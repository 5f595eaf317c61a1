"""Figure 17: energy decomposition."""

from benchmarks.conftest import write_report
from repro.experiments import fig17_energy


def test_fig17_energy(benchmark, bench_config, full_matrix, results_dir,
                      bench_record):
    result = benchmark.pedantic(
        fig17_energy.view, args=(bench_config, full_matrix),
        rounds=1, iterations=1)

    write_report(results_dir, "fig17_energy", fig17_energy.report(result))
    means = result["mean_mj"]
    categories = result["category_mj"]
    bench_record("fig17.dramless_mean_mj", means["DRAM-less"],
                 better="lower", unit="mJ")
    bench_record("fig17.dramless_fraction_of_heterodirect",
                 result["dramless_fraction_of_heterodirect"],
                 better="lower", unit="fraction")
    # Paper: DRAM-less consumes ~19% of the advanced (P2P) systems'
    # energy; shape band: well under half.
    assert result["dramless_fraction_of_heterodirect"] <= 0.5
    # And ~76% less than PAGE-buffer; shape band: under 70%.
    assert result["dramless_fraction_of_pagebuffer"] <= 0.7
    # Hetero burns most of its energy in the host storage stack.
    assert categories["Hetero"]["host"] == max(
        categories["Hetero"].values())
    # DRAM-less has zero host-side and zero DRAM-background energy.
    assert categories["DRAM-less"]["host"] == 0.0
    assert categories["DRAM-less"]["dram"] == 0.0
    # P2P halves-or-better the host energy versus the stock stack.
    assert (categories["Heterodirect"]["host"]
            < categories["Hetero"]["host"])
    # DRAM-less is the most energy-frugal evaluated system.
    assert means["DRAM-less"] == min(means.values())
