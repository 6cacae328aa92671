"""The repository benchmark: end-to-end and per-layer wall-clock metrics.

Run from the repository root::

    python3 perfbench/run.py --workload pme-p8 --seed 2002 --seconds 4 --trace 0
    python3 perfbench/run.py                 # every workload, untraced then traced

One invocation measures one workload (or, without ``--workload``, every
workload untraced and then traced).  All work happens in fresh child
interpreters started one at a time, so at most two cores are busy: this
process and one child.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics of a traced run.  The lines before it
give every metric by name and unit, the host fingerprint and each
failed check.  See ``perfbench/README.md`` for the workloads and layers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD = HERE / "child.py"

DEFAULT_SEED = 2002
#: every run of one workload must end within this many seconds
RUN_BUDGET_S = 170.0
#: MD steps per measured run (the paper's 10-step energy calculation)
N_STEPS = 10

MD_WORKLOADS = {
    "pme-p8": {"workload": "myoglobin-pme", "strategy": "replicated", "oracle": "serial"},
    "spatial-water-p8": {"workload": "water-box", "strategy": "spatial", "oracle": "replicated"},
}
PAPER_CAMPAIGN = "paper-campaign"
WORKLOADS = [*MD_WORKLOADS, PAPER_CAMPAIGN]

#: paper-campaign: the paper's one-factor-at-a-time design, 2 steps a point
PAPER_POINTS = 20
PAPER_STEPS = 2
#: rounds of reference, warm, analyze and set-up legs per campaign measurement, at least
MIN_ROUNDS = 2
#: the analyze leg, as a user runs it (it also saves reports/report-latest.json)
ANALYZE_ARGS = ["analyze", "report"]

#: pme-p8 at the default seed: per-phase virtual seconds (rank means) and
#: the final total energy, pinned from the seed code
PINNED_PME_P8 = {
    "virtual": {
        "classic_comp": 0.5612222299999999,
        "classic_comm": 0.31841151972387227,
        "classic_sync": 0.44262045190535393,
        "pme_comp": 0.3496136241102231,
        "pme_comm": 0.48847091838256346,
        "pme_sync": 0.9227359224186187,
    },
    "final_total_energy": -8186.044944622814,
}
PINNED_RTOL = 1e-9

#: wall seconds of one reference child at the speed end-to-end timings are
#: expressed in (about its time on the 2-core host the benchmark was tuned on)
REFERENCE_S = 0.4

END_TO_END = [
    ("setup_s", "s"),
    ("md_steps_per_s", "steps/s"),
    ("cold_campaign_s", "s"),
    ("warm_campaign_s", "s"),
    ("analyze_s", "s"),
    ("peak_rss_mb", "MB"),
]


class Run:
    """One workload run: its checks, child processes and deadline."""

    def __init__(self, name: str, seed: int, seconds: int, workdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: list[str] = []
        #: end-to-end metric -> its samples, scaled to the reference host speed
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: end-to-end metric -> the same samples as measured
        self.unscaled: dict[str, list[float]] = defaultdict(list)
        #: the latest reference child's wall time over REFERENCE_S
        self.slowdown: float | None = None
        self.slowdowns: list[float] = []
        self._n = 0

    # ------------------------------------------------------------------
    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def path(self, stem: str) -> Path:
        self._n += 1
        return self.workdir / f"{self._n:03d}-{stem}"

    def spawn(self, argv: list[str]) -> tuple[subprocess.CompletedProcess | None, float, float]:
        """Run one child to completion; returns (process, spawn stamp, wall s)."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        timeout = max(1.0, self.deadline - time.monotonic())
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:  # subprocess.run kills and reaps it
            return None, t0, time.monotonic() - t0
        return proc, t0, time.monotonic() - t0

    def child(self, mode: str, params: dict, argv: list[str] = ()) -> tuple[dict | None, float, float]:
        """Run ``child.py MODE``; returns (its document, spawn stamp, wall s)."""
        out = self.path(f"{mode}.json")
        proc, t0, wall = self.spawn([str(CHILD), mode, str(out), json.dumps(params), *argv])
        doc = None
        if proc is not None and out.exists():
            doc = json.loads(out.read_text())
        ok = proc is not None and doc is not None and (mode == "cli" or proc.returncode == 0)
        if not self.check(ok, f"child {mode} failed"):
            self._explain(proc)
        return doc, t0, wall

    def reference(self) -> float | None:
        """Time one reference child; returns the host's current slowdown."""
        doc, _, wall = self.child("reference", {})
        if doc is not None:
            self.slowdown = wall / REFERENCE_S
            self.slowdowns.append(self.slowdown)
        return self.slowdown

    def sample(self, metric: str, value: float, slowdown: float | None = None) -> None:
        """Record one end-to-end sample, scaled by ``slowdown`` (default: the
        latest reference's): seconds are divided by it, rates multiplied."""
        slowdown = slowdown or self.slowdown
        self.unscaled[metric].append(value)
        if slowdown is not None:
            rate = dict(END_TO_END)[metric].endswith("/s")
            self.samples[metric].append(value * slowdown if rate else value / slowdown)

    def _explain(self, proc) -> None:
        if proc is None:
            self.notes.append("child timed out")
        else:
            self.notes.append(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")

    # ------------------------------------------------------------------
    def campaign(self, store: Path, leg: str, args: list[str]) -> tuple[float, str]:
        """One ``repro campaign`` command; returns (wall s, stdout)."""
        proc, _, wall = self.spawn(["-m", "repro", "campaign", *args, "--store", str(store)])
        code = proc.returncode if proc is not None else None
        if code != 0:
            self._explain(proc)
        self.check(code == 0, f"{leg} leg exited {code}")
        return wall, proc.stdout if proc is not None else ""

    def traced_campaign(self, store: Path, leg: str, args: list[str]):
        """The same command through the traced CLI entry point.

        Returns (wall s, spawn stamp, the child's trace document).
        """
        doc, t0, wall = self.child("cli", {}, ["campaign", *args, "--store", str(store)])
        code = doc["code"] if doc else None
        self.check(code == 0, f"traced {leg} leg exited {code}")
        return wall, t0, doc

    def expect_counts(self, store: Path, leg: str, **expected) -> None:
        """The campaign's manifest (one per store here) must show ``expected``."""
        manifests = list((store / "manifests").glob("*.json"))
        counts = json.loads(manifests[0].read_text())["counts"] if len(manifests) == 1 else {}
        got = {k: counts.get(k) for k in expected}
        self.check(got == expected, f"{leg} manifest counts {got} != {expected}")

    def expect_report(self, stdout: str | None, n_points: int) -> None:
        """The analyze report must be JSON covering every stored point."""
        try:
            report = json.loads(stdout or "")
            seen = sum(len(g["points"]) for g in report["groups"])
        except (ValueError, KeyError, TypeError):
            seen = None
        self.check(seen == n_points, f"analyze report covers {seen} points, not {n_points}")


# ----------------------------------------------------------------------
def _campaign_args(name: str, seed: int) -> tuple[list[str], int]:
    """``campaign run`` arguments of a workload and its point count."""
    if name == PAPER_CAMPAIGN:
        args = ["--design", "paper", "--steps", str(PAPER_STEPS)]
        return ["run", *args, "--seed", str(seed), "--workers", "0"], PAPER_POINTS
    md = MD_WORKLOADS[name]
    args = ["--workload", md["workload"], "--design", "sweep", "--ranks", "8",
            "--steps", str(N_STEPS), "--strategy", md["strategy"]]
    return ["run", *args, "--seed", str(seed), "--workers", "0"], 1


def campaign_legs(run: Run, round_child=None) -> None:
    """Cold run over a fresh store, then rounds of warm, analyze and more.

    Each round is a reference child, a warm leg, an analyze leg,
    ``round_child(run)`` (a set-up or measuring child, unless None) and
    another analyze leg; rounds repeat until ``run.seconds`` have passed
    since the cold leg ended, at least :data:`MIN_ROUNDS` times.  A
    sample is scaled by the reference child taken just before it; the
    cold leg, one long sample, by the mean of the references on both
    sides of it.
    """
    store = run.path("store")
    args, n_points = _campaign_args(run.name, run.seed)
    before = run.reference()
    cold, _ = run.campaign(store, "cold", args)
    run.expect_counts(store, "cold", ran=n_points, failed=0)
    until = time.monotonic() + run.seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.monotonic() < until:
        rounds += 1
        now = run.reference()
        if rounds == 1:
            run.sample("cold_campaign_s", cold, slowdown=_mean(before, now))
        wall, _ = run.campaign(store, "warm", args)
        run.sample("warm_campaign_s", wall)
        run.expect_counts(store, "warm", hit=n_points, ran=0)
        for leg in range(2):
            wall, stdout = run.campaign(store, "analyze", ANALYZE_ARGS)
            run.sample("analyze_s", wall)
            run.expect_report(stdout, n_points)
            if leg == 0 and round_child is not None:
                round_child(run)


def _mean(a: float | None, b: float | None) -> float | None:
    """Mean of two slowdowns, either of which may be missing."""
    if a is None or b is None:
        return a if b is None else b
    return (a + b) / 2


def setup_sample(run: Run, params: dict) -> None:
    doc, t0, _ = run.child("setup", params)
    if doc is not None:
        run.sample("setup_s", doc["ready"] - t0)


def measure_child(run: Run, params: dict, bracket: bool = False) -> dict | None:
    """One measuring child: a set-up sample, a warm-up and timed MD runs.

    Its samples are scaled by the latest reference child or, with
    ``bracket``, by the mean of reference children taken just before and
    just after it.
    """
    before = run.reference() if bracket else run.slowdown
    doc, t0, _ = run.child("measure", params)
    slowdown = _mean(before, run.reference()) if bracket else before
    if doc is not None:
        run.sample("setup_s", doc["ready"] - t0, slowdown=slowdown)
        for t in doc["times"]:
            run.sample("md_steps_per_s", N_STEPS / t, slowdown=slowdown)
        run.attempted += len(doc["times"])
        run.failures += ["a timed run differs from the first run"] * doc["mismatches"]
    return doc


def measure_md(run: Run) -> None:
    """Untraced pme-p8 / spatial-water-p8.

    The main measuring child times back-to-back runs for ``run.seconds``
    after its warm-up and then checks the warm-up run against the
    oracle.  The CPU speed one interpreter gets can differ from the next
    by half, so every campaign round adds a smaller measuring child (one
    timed run): the MD samples come from several processes.
    """
    params = dict(MD_WORKLOADS[run.name], seed=run.seed, seconds=run.seconds, min_runs=2)
    doc = measure_child(run, params, bracket=True)
    if doc is not None:
        run.check(doc["oracle_ok"], f"first run disagrees with the {params['oracle']} oracle")
        if run.name == "pme-p8" and run.seed == DEFAULT_SEED:
            check_pinned(run, doc)
    extra = dict(params, oracle=None, seconds=0, min_runs=1)
    campaign_legs(run, lambda r: measure_child(r, extra))
    run.notes.append(
        f"md_steps_per_s from {len(run.samples['md_steps_per_s'])} timed runs of "
        f"{N_STEPS} steps in {len(run.samples['setup_s'])} processes"
    )


def check_pinned(run: Run, measured: dict) -> None:
    pinned = PINNED_PME_P8
    for key, want in pinned["virtual"].items():
        got = measured["virtual"][key]
        run.check(_close(got, want), f"virtual {key} {got!r} != pinned {want!r}")
    got = measured["final_total_energy"]
    want = pinned["final_total_energy"]
    run.check(_close(got, want), f"final total energy {got!r} != pinned {want!r}")


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= PINNED_RTOL * abs(want)


def measure_paper_campaign(run: Run) -> None:
    """Untraced paper-campaign."""
    params = {"workload": "myoglobin-pme"}
    run.reference()
    setup_sample(run, params)
    campaign_legs(run, lambda r: setup_sample(r, params))
    steps = PAPER_POINTS * PAPER_STEPS
    for kind in (run.samples, run.unscaled):
        kind["md_steps_per_s"] = [steps / wall for wall in kind["cold_campaign_s"]]


def end_to_end_values(run: Run) -> dict:
    """Median of each end-to-end metric's scaled samples; notes the unscaled."""
    values = {name: _median(run.samples[name]) for name, _ in END_TO_END}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    run.notes.append("host slowdowns (reference child / REFERENCE_S): "
                     + " ".join(f"{x:.3f}" for x in run.slowdowns))
    run.notes.append("unscaled medians: " + ", ".join(
        f"{name} {_median(run.unscaled[name]):.6g}"
        for name, _ in END_TO_END if run.unscaled[name]
    ))
    return values


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


# ----------------------------------------------------------------------
def trace_md(run: Run) -> dict:
    """Traced pme-p8 / spatial-water-p8: per-layer metrics per 10-step run."""
    import layers

    params = dict(MD_WORKLOADS[run.name], seed=run.seed, seconds=run.seconds, min_runs=2)
    doc, t0, _ = run.child("trace-md", params)
    if doc is None:
        return {}
    runs = len(doc["traced"])
    run.attempted += 2 * runs
    run.failures += ["a traced or untraced run differs from the first run"] * doc["mismatches"]
    metrics = layers.layer_metrics(doc["self_s"], doc["counts"],
                                   wall_s=sum(doc["traced"]), runs=runs)
    metrics["cli.import_s"] = doc["imported"] - t0
    metrics["workloads.build_s"] = doc["build_s"]
    metrics["trace.overhead_ratio"] = (
        statistics.median(doc["traced"]) / statistics.median(doc["untraced"])
    )
    _note_window(run, metrics, sum(doc["traced"]) / runs, f"per run, {runs} traced runs")
    return metrics


def _note_window(run: Run, metrics: dict, wall: float, what: str) -> None:
    share = metrics["unattributed_s"] / wall
    run.notes.append(f"traced wall {wall:.4f} s {what}; unattributed {share:.1%} of it")


def trace_paper_campaign(run: Run) -> dict:
    """Traced paper-campaign: per-layer metrics summed over its three commands."""
    import layers

    campaign_legs(run)
    untraced = sum(_median(run.unscaled[name])
                   for name in ("cold_campaign_s", "warm_campaign_s", "analyze_s"))

    store = run.path("traced-store")
    args, n_points = _campaign_args(run.name, run.seed)
    docs, walls, import_s = [], [], 0.0
    for leg, leg_args in (("cold", args), ("warm", args), ("analyze", ANALYZE_ARGS)):
        wall, t0, doc = run.traced_campaign(store, leg, leg_args)
        if leg == "cold":
            run.expect_counts(store, leg, ran=n_points, failed=0)
        elif leg == "warm":
            run.expect_counts(store, leg, hit=n_points, ran=0)
        walls.append(wall)
        if doc is None:
            return {}
        # spawn until every traced module is imported
        import_s += doc["imported"] - t0
        docs.append(doc)
    read_only = docs[1:]
    md_calls = sum(d["counts"].get("run.calls", 0) for d in read_only)
    evals = [d["force_evals"] for d in read_only]
    run.check(md_calls == 0, f"warm leg + analyze called run_parallel_md {md_calls} times")
    run.check(evals == [0, 0], f"warm leg + analyze force evaluations {evals}")

    self_s, counts = Counter(), Counter()
    for d in docs:
        self_s.update(d["self_s"])
        counts.update(d["counts"])
    counts["analytics.force_evals"] = docs[2]["force_evals"]
    wall = sum(walls)
    metrics = layers.layer_metrics(self_s, counts, wall_s=wall, runs=1)
    metrics["cli.import_s"] = import_s
    metrics["unattributed_s"] -= import_s
    metrics["trace.overhead_ratio"] = wall / untraced
    _note_window(run, metrics, wall, "over the three commands")
    return metrics


# ----------------------------------------------------------------------
def host_fingerprint() -> dict:
    """Where a result was measured: compare absolute seconds only between
    results whose fingerprints are equal."""
    import numpy as np

    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "loadavg_before": list(os.getloadavg()),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Measure one workload; returns the result document."""
    workdir = WORK / f"{name}-{os.getpid()}-{'trace' if trace else 'e2e'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(name, seed, seconds, workdir)
    host = host_fingerprint()
    try:
        if trace:
            measure = trace_md if name in MD_WORKLOADS else trace_paper_campaign
            values = measure(run)
        else:
            measure = measure_md if name in MD_WORKLOADS else measure_paper_campaign
            measure(run)
            values = end_to_end_values(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host["loadavg_after"] = list(os.getloadavg())
    error_rate = len(run.failures) / max(run.attempted, 1)
    if trace:
        import layers

        units = dict(layers.PER_LAYER)
        values["error_rate"] = error_rate
    else:
        units = dict(END_TO_END)
    metrics = {k: {"value": values.get(k), "unit": unit} for k, unit in units.items()}
    missing = [k for k, m in metrics.items() if m["value"] is None]
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "host": host,
        "correct": not run.failures and not missing,
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures) + (1 if missing and not run.failures else 0),
        "error_rate": error_rate,
        "metrics": metrics,
        "failures": run.failures,
        "notes": run.notes,
    }


def print_result(doc: dict) -> None:
    kind = "per-layer (traced)" if doc["trace"] else "end-to-end"
    print(f"== {doc['workload']} seed {doc['seed']}: {kind} metrics")
    for name, m in doc["metrics"].items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:40s} {value:>14s} {m['unit']}")
    print(f"  error_rate {doc['error_rate']:.6g}: {doc['failed']} failed of "
          f"{doc['attempted']} attempted")
    for note in doc["notes"]:
        print(f"  note: {note}")
    for failure in doc["failures"]:
        print(f"  FAILED: {failure}")
    print("host " + json.dumps(doc["host"], sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all of them, untraced and traced)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=4,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--out", default=None,
                        help="also write every result document to this JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    if args.workload is not None:
        doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_result(doc)
        if args.out:
            Path(args.out).write_text(json.dumps([doc], indent=2, sort_keys=True) + "\n")
        print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0
    return run_all(args.seed, args.seconds, args.out)


def run_all(seed: int, seconds: int, out: str | None) -> int:
    """Every workload untraced, then traced, each in its own driver process
    (so ``peak_rss_mb`` sees only that workload's children)."""
    WORK.mkdir(exist_ok=True)
    docs = []
    for trace in (0, 1):
        for name in WORKLOADS:
            part = WORK / f"all-{os.getpid()}-{name}-{trace}.json"
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace), "--out", str(part)],
                capture_output=True, text=True, check=False,
            )
            # its report, without its own result line
            print(proc.stdout.rstrip().rpartition("\n")[0], flush=True)
            sys.stderr.write(proc.stderr)
            if part.exists():
                docs += json.loads(part.read_text())
                part.unlink()
    if out:
        Path(out).write_text(json.dumps(docs, indent=2, sort_keys=True) + "\n")
    correct = len(docs) == 2 * len(WORKLOADS) and all(d["correct"] for d in docs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": {
            f"{d['workload']}:{k}": m for d in docs for k, m in d["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
