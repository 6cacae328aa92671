"""Extension — the conclusion's scalability claims towards 16+ processors.

'The amount of parallelism in CHARMM should suffice ... with up to the 32
to 64 processors' (classic, good software); 'for PME, good scalability is
limited to a reasonable fraction of such a cluster' without Myrinet.
"""

from conftest import emit

from repro.experiments import extrapolation


def test_extrapolation(benchmark, figure_engine, report_dir):
    result = benchmark.pedantic(
        extrapolation, args=(figure_engine,), rounds=1, iterations=1
    )
    emit(report_dir, "extrapolation", result.report)

    p = result.series["p"]
    assert p[-1] == 16
    tcp = result.series["tcp-gige"]
    myr = result.series["myrinet"]
    # on TCP the extra processors beyond 8 buy little or nothing
    assert tcp[4] > 0.8 * tcp[3]
    # on Myrinet p=16 still improves
    assert myr[4] < myr[3]
