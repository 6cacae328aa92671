"""Figure 9 — uni- vs dual-processor nodes on TCP/IP and Myrinet."""

from conftest import emit

from repro.experiments import figure9


def test_figure9(benchmark, figure_engine, report_dir):
    result = benchmark.pedantic(figure9, args=(figure_engine,), rounds=1, iterations=1)
    emit(report_dir, "figure9", result.report)

    tcp_dual = result.series["tcp-gige_dual"]
    assert tcp_dual[3] > tcp_dual[2]  # dual TCP gets worse with node count
    assert tcp_dual[3] > result.series["tcp-gige_uni"][3]
    myr_dual = result.series["myrinet_dual"]
    assert myr_dual[3] < myr_dual[1]  # Myrinet dual keeps scaling
