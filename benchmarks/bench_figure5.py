"""Figure 5 — total energy calculation time for the three networks."""

from conftest import emit

from repro.experiments import figure5


def test_figure5(benchmark, figure_engine, report_dir):
    result = benchmark.pedantic(figure5, args=(figure_engine,), rounds=1, iterations=1)
    emit(report_dir, "figure5", result.report)

    p8 = {net: result.series[net][3] for net in ("tcp-gige", "score-gige", "myrinet")}
    assert p8["myrinet"] < p8["score-gige"] < p8["tcp-gige"]
