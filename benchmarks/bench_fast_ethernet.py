"""Extension — the Sec. 4.1 prior-work claim: Fast Ethernet ~ GigE on TCP."""

from conftest import emit

from repro.experiments import fast_ethernet_comparison


def test_fast_ethernet(benchmark, figure_engine, report_dir):
    result = benchmark.pedantic(
        fast_ethernet_comparison, args=(figure_engine,), rounds=1, iterations=1
    )
    emit(report_dir, "fast_ethernet", result.report)

    gige = result.series["tcp-gige"]
    fast = result.series["tcp-fast-ethernet"]
    # a 10x slower wire costs far less than 10x once TCP overheads dominate
    for i in (1, 2, 3):
        assert fast[i] / gige[i] < 3.0
