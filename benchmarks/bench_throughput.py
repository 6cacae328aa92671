"""The conclusion's trade-off: task parallelism vs a faster single run."""

from conftest import emit

from repro.experiments import throughput_study


def test_throughput_tradeoff(benchmark, figure_engine, report_dir):
    study = benchmark.pedantic(
        throughput_study, args=(figure_engine,), kwargs={"n_jobs": 32}, rounds=1, iterations=1
    )
    emit(report_dir, "throughput", study.report)

    # turnaround: data parallelism on a good network wins
    assert study.best_turnaround("myrinet").ranks_per_job >= 4
    # batch makespan on TCP/IP: task parallelism is already near-optimal
    tcp_best = study.best_makespan("tcp-gige")
    tcp_serial = [
        p for p in study.plans if p.network == "tcp-gige" and p.ranks_per_job == 1
    ][0]
    assert tcp_serial.makespan <= 1.5 * tcp_best.makespan
