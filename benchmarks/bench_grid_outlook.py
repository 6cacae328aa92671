"""Extension — the conclusion's grid-computing outlook.

'Migration to widely distributed computing on the Internet (Grid) remains
a particular challenge' — quantify it: the same parallel calculation over
a simulated wide-area path versus the local cluster.
"""

from conftest import emit

from repro.experiments import grid_outlook


def test_grid_outlook(benchmark, figure_engine, report_dir):
    result = benchmark.pedantic(grid_outlook, args=(figure_engine,), rounds=1, iterations=1)
    emit(report_dir, "grid_outlook", result.report)

    # parallel MD over the wide area is slower than just running serially
    assert all(g > result.series["serial"] for g in result.series["grid"])
    # and massively slower than the same run on the local cluster
    assert all(s > 5.0 for s in result.series["slowdown"])
