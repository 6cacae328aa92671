"""Figure 8 — MPI vs CMPI middleware on TCP/IP."""

from conftest import emit

from repro.experiments import figure8


def test_figure8(benchmark, figure_engine, report_dir):
    result = benchmark.pedantic(figure8, args=(figure_engine,), rounds=1, iterations=1)
    emit(report_dir, "figure8", result.report)

    cmpi = result.series["cmpi"]
    mpi = result.series["mpi"]
    assert cmpi["total"][3] > cmpi["total"][2]  # 4 -> 8 regression
    assert cmpi["classic"][3] > cmpi["classic"][2]
    assert cmpi["pme"][3] > cmpi["pme"][2]
    assert cmpi["sync"][3] > 3 * mpi["sync"][3]  # sync explosion
