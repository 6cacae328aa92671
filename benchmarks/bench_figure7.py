"""Figure 7 — average and variability of communication speed per node."""

from conftest import emit

from repro.experiments import figure7


def test_figure7(benchmark, figure_engine, report_dir):
    result = benchmark.pedantic(figure7, args=(figure_engine,), rounds=1, iterations=1)
    emit(report_dir, "figure7", result.report)

    assert all(m > 100 for m in result.series["myrinet"]["mean"])
    assert all(m < 45 for m in result.series["tcp-gige"]["mean"])
    tcp = result.series["tcp-gige"]
    spreads = [tcp["max"][i] - tcp["min"][i] for i in range(3)]
    assert spreads[1] > spreads[0]  # variability jumps at four processors
