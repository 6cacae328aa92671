"""Figure 4 — % computation/communication/synchronization, reference case."""

from conftest import emit

from repro.experiments import figure4


def test_figure4(benchmark, figure_engine, report_dir):
    result = benchmark.pedantic(figure4, args=(figure_engine,), rounds=1, iterations=1)
    emit(report_dir, "figure4", result.report)

    classic = result.series["classic_overhead"]
    pme = result.series["pme_overhead"]
    assert classic[1] < 0.10  # < 10% at two processors
    assert classic[3] > 0.50  # > ~60% at eight
    assert pme[1] > 0.40  # ~ 50% at two
    assert pme[3] > 0.70  # > 75% at eight
