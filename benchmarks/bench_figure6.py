"""Figure 6 — breakdown percentages per network, classic and PME."""

from conftest import emit

from repro.experiments import figure6


def test_figure6(benchmark, figure_engine, report_dir):
    result = benchmark.pedantic(figure6, args=(figure_engine,), rounds=1, iterations=1)
    emit(report_dir, "figure6", result.report)

    for component in ("classic", "pme"):
        at8 = {
            net: result.series[f"{net}_{component}"][3]
            for net in ("tcp-gige", "score-gige", "myrinet")
        }
        assert at8["myrinet"] < at8["score-gige"] < at8["tcp-gige"]
