"""Figure 3 — wall time of classic vs PME energy calc, reference case.

Regenerates the series of the paper's Figure 3: 10 MD steps of the
3552-atom system on MPI over TCP/IP (uni-processor nodes), p = 1, 2, 4, 8.
"""

from conftest import emit

from repro.experiments import figure3


def test_figure3(benchmark, figure_engine, report_dir):
    result = benchmark.pedantic(figure3, args=(figure_engine,), rounds=1, iterations=1)
    emit(report_dir, "figure3", result.report)

    total = result.series["total"]
    pme = result.series["pme"]
    assert 5.5 < total[0] < 7.0  # paper: ~6.2 s serial
    assert pme[1] >= pme[0]  # PME at p=2 exceeds serial PME
    assert total[3] < total[0]  # some overall speedup remains
