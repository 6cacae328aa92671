"""The campaign runner: parallel, resumable design-point execution.

A *campaign* is any iterable of :class:`DesignPoint` over one named
workload.  The engine partitions points into cache hits and misses
against the :class:`ResultStore`, fans the misses out through
:func:`pool_map` (design points are independent — the classic
embarrassingly-parallel sweep shape), and streams every completed
record straight back into the store, so a killed campaign resumes
exactly where it stopped.  The same deterministic crc32-derived
platform seed the :class:`CharacterizationRunner` uses makes an
engine-run record bit-identical to a runner-run one.

:func:`pool_map` is the package's one scheduler: every campaign miss,
every ``verify`` re-run and every analytics map task is one attempt of
one payload through it.  With ``n_workers >= 1`` each attempt is its own
worker process, with a per-attempt timeout (the worker is killed, not
abandoned) and bounded retries with exponential backoff.  With
``n_workers == 0`` the same attempts run inline, in input order, through
the same posting protocol — the reference path that parallel output is
asserted byte-identical against.  Inline attempts get no timeout and
hand back no metrics delta, since their work already counted in this
process's registry; a worker process's delta is folded back by the
caller.

Wall-clock reads in this module time the *harness itself* (scheduling,
per-point elapsed time for the manifest), never the simulation — hence
the ``noqa: REP104`` markers on those lines.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from ..core.design import DesignPoint
from ..core.responses import ResponseRecord
from ..instrument.commstats import communication_speeds
from ..instrument.metrics import REGISTRY, merge_metrics
from ..instrument.runlog import RunLog
from ..instrument.tracing import SpanTracer
from ..parallel.costmodel import PIII_1GHZ, MachineCostModel
from ..parallel.pmd import MDRunConfig
from ..parallel.run import RunOptions, run_parallel_md
from . import manifest as mf
from .keys import (
    SCHEMA_VERSION,
    cache_key,
    campaign_id_for,
    point_seed,
    workload_fingerprint,
)
from .store import ResultStore, record_from_dict, record_to_dict
from .workloads import build_workload

__all__ = [
    "RETRY_BACKOFF_S",
    "Attempt",
    "CampaignEngine",
    "CampaignResult",
    "execute_point",
    "point_trace_path",
    "pool_map",
    "pool_results",
]

#: Base of the exponential retry delay: retry ``n`` of a payload waits
#: ``RETRY_BACKOFF_S * 2**(n - 1)`` seconds before it launches.
RETRY_BACKOFF_S = 0.25


def point_trace_path(trace_dir, key: str) -> Path:
    """Where one executed point's span trace lands under ``trace_dir``."""
    return Path(trace_dir) / f"point-{key[:16]}.trace.json"


def execute_point(
    workload: str,
    point: DesignPoint,
    config: MDRunConfig,
    cost: MachineCostModel,
    base_seed: int,
    sanitize: bool = False,
    shared_compute: bool = True,
    span_trace_path=None,
) -> ResponseRecord:
    """Run one design point from scratch, in whatever process this is.

    This is the single execution path shared by the inline engine, the
    worker processes and ``verify`` — and it performs exactly the calls
    :meth:`CharacterizationRunner.run_point` makes, so records agree
    bit-for-bit however a point was produced.  ``shared_compute``
    constructs one :class:`~repro.parallel.shared.SharedComputeCache` per
    point inside :func:`run_parallel_md`; it changes wall-clock only, so
    it participates in neither the cache key nor the record.
    ``span_trace_path``, when given, attaches a fresh
    :class:`~repro.instrument.tracing.SpanTracer` to the run and writes
    its Chrome trace-event JSON there — equally wall-clock-only.
    """
    system, positions = build_workload(workload)
    spec = point.config.cluster_spec(point.n_ranks, seed=point_seed(base_seed, point))
    tracer = SpanTracer() if span_trace_path is not None else None
    options = RunOptions.for_point(
        point, config=config, cost=cost, sanitize=sanitize,
        span_tracer=tracer, shared_compute=shared_compute,
    )
    if tracer is not None:
        with tracer.span("execute_point", track="engine", label=point.label()):
            result = run_parallel_md(system, positions, spec, options)
        tracer.write(span_trace_path)
    else:
        result = run_parallel_md(system, positions, spec, options)
    stats = communication_speeds(result.transfers)
    if stats.n_transfers:
        REGISTRY.histogram("run.comm_speed_mbs").observe(stats.mean)
    REGISTRY.counter("run.points_executed").increment()
    return ResponseRecord.from_run(point, result)


def _worker_main(task: dict, out_queue) -> None:
    """:func:`pool_map` target: run one point, post the record (or the error).

    ``task["run"]`` holds :func:`execute_point`'s arguments.  The posted
    tuple carries this process's metrics delta (work counters,
    comm-speed observations) so the parent can fold a worker process's
    observability back into one campaign-wide snapshot.  Only
    ``Exception`` is posted: a ``KeyboardInterrupt`` inline reaches the
    caller, and a worker process killed by one reports its exit code.
    """
    before = REGISTRY.snapshot()  # fork copies the parent's live counters
    try:
        record = execute_point(**task["run"])
        out_queue.put(
            (task["key"], "ok", record_to_dict(record), None, REGISTRY.delta(before))
        )
    except Exception as exc:  # the scheduler decides whether to retry
        out_queue.put(
            (task["key"], "failed", None, f"{type(exc).__name__}: {exc}",
             REGISTRY.delta(before))
        )


def _mp_context():
    """Fork where available (shares the built workload pages); else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass
class Attempt:
    """One attempt of one payload, as :func:`pool_map` reports it.

    ``status`` is ``None`` while the attempt runs, then ``"ok"``,
    ``"failed"``, ``"timeout"`` or ``"crashed"``.  ``final`` is set on an
    end that no retry follows.  ``metrics`` is a worker process's metrics
    delta (``None`` for inline attempts).
    """

    key: str
    payload: dict
    number: int = 1
    not_before: float = 0.0
    started: float = 0.0
    pid: int | None = None
    status: str | None = None
    doc: object = None
    error: str | None = None
    metrics: dict | None = None
    elapsed: float = 0.0
    final: bool = False


def pool_map(target, payloads, n_workers: int, timeout=None, retries: int = 0):
    """Run independent payloads as attempts; yield every attempt twice.

    ``target(payload, out_queue)`` runs one attempt and must post exactly
    one ``(key, status, doc, error, metrics_delta)`` tuple, where ``key``
    is ``payload["key"]`` and ``status`` is ``"ok"`` (``doc`` is the
    result) or ``"failed"`` (``error`` says why).  Each :class:`Attempt`
    is yielded when it launches (``status is None``) and again when it
    ends.  A payload whose attempt did not end ``ok`` is retried up to
    ``retries`` times after :data:`RETRY_BACKOFF_S` backoff.

    ``n_workers >= 1`` runs every attempt in its own worker process, at
    most ``n_workers`` at a time.  A worker that overruns ``timeout``
    seconds is killed (``timeout``); one that exits without posting ends
    ``crashed``.  ``n_workers <= 0`` calls ``target`` inline, in payload
    order: no timeout, and no metrics delta, because the work already
    counted in this process.
    """
    inline = n_workers <= 0
    ctx = None if inline else _mp_context()
    out_queue = queue_mod.SimpleQueue() if inline else ctx.Queue()
    pending = deque(Attempt(key=p["key"], payload=p) for p in payloads)
    live: dict[str, Attempt] = {}
    procs: dict[str, object] = {}  # key -> worker process

    def end(key, status, doc, error, metrics) -> Attempt:
        att = live.pop(key)
        proc = procs.pop(key, None)
        if proc is not None:
            proc.join(timeout=5)
        now = time.monotonic()  # noqa: REP104 — harness wall time
        att.elapsed = now - att.started
        att.status, att.doc, att.error = status, doc, error
        att.metrics = None if inline else metrics
        att.final = status == "ok" or att.number > retries
        if not att.final:
            delay = RETRY_BACKOFF_S * 2 ** (att.number - 1)
            pending.append(Attempt(key, att.payload, att.number + 1, now + delay))
        return att

    while pending or live:
        now = time.monotonic()  # noqa: REP104
        while pending and len(live) < max(n_workers, 1) and pending[0].not_before <= now:
            att = pending.popleft()
            att.started = time.monotonic()  # noqa: REP104
            live[att.key] = att
            if not inline:
                proc = ctx.Process(target=target, args=(att.payload, out_queue), daemon=True)
                proc.start()
                procs[att.key], att.pid = proc, proc.pid
            yield att
            if inline:
                target(att.payload, out_queue)
        if not live:  # everything left is backing off
            time.sleep(pending[0].not_before - now)
            continue

        try:
            item = out_queue.get(timeout=0.05)
        except queue_mod.Empty:
            pass
        else:
            if item[0] in live:
                yield end(*item)
            continue

        now = time.monotonic()  # noqa: REP104
        for key, proc in list(procs.items()):
            if key not in live:
                continue
            if timeout is not None and now - live[key].started > timeout:
                proc.terminate()
                yield end(key, "timeout", None, f"timed out after {timeout} s", None)
            elif not proc.is_alive():
                # died without posting; give its message a moment to land
                try:
                    item = out_queue.get(timeout=0.5)
                except queue_mod.Empty:
                    item = (key, "crashed", None,
                            f"worker exited with code {proc.exitcode}", None)
                if item[0] in live:
                    yield end(*item)


def pool_results(target, payloads, n_workers: int) -> tuple[dict, dict]:
    """Drain :func:`pool_map` (no timeout, no retries) into final results.

    Returns ``(docs, errors)``: per-key result documents and per-key error
    strings, for callers that only need each payload's outcome.
    """
    docs: dict[str, object] = {}
    errors: dict[str, str] = {}
    for att in pool_map(target, payloads, n_workers):
        if att.final and att.status == "ok":
            docs[att.key] = att.doc
        elif att.final:
            errors[att.key] = att.error
    return docs, errors


@dataclass
class CampaignResult:
    """What one :meth:`CampaignEngine.run` call produced."""

    manifest: mf.CampaignManifest
    #: one record per input point, in input order (None for failed/timeout)
    records: list[ResponseRecord | None]

    @property
    def ok(self) -> bool:
        c = self.manifest.counts
        return c["failed"] == 0 and c["timeout"] == 0 and c["pending"] == 0


@dataclass
class CampaignEngine:
    """Executes design-point campaigns over one named workload.

    Parameters
    ----------
    workload:
        A name from :mod:`repro.campaign.workloads`.
    store:
        Result store; defaults to a fresh memory-only store.  Hand every
        engine and runner the same persistent store and they share work.
    n_workers:
        ``0`` executes inline (no subprocesses, no timeout enforcement);
        ``n >= 1`` fans out over ``n`` single-point worker processes.
        Either way the misses go through :func:`pool_map`.
    timeout:
        Per-point wall-time budget in seconds (workers only).  An
        overrunning worker is terminated, and the point retried until
        ``retries`` is exhausted, then marked ``timeout``.
    retries:
        Extra attempts after the first, for failed or timed-out points,
        each after :data:`RETRY_BACKOFF_S` exponential backoff.
    shared_compute:
        Deduplicate replicated-data work across simulated ranks inside
        each point (one :class:`~repro.parallel.shared.SharedComputeCache`
        per point).  Wall-clock only — records are bit-identical either
        way, so this is not part of the cache key.
    trace_dir:
        When set, every executed point writes a Chrome span trace
        (``point-<key>.trace.json``) there, and the engine writes its own
        host-side trace (``campaign-<id>-host.trace.json``) covering
        scheduling, launches and retires.  Wall-clock only.
    """

    workload: str = "myoglobin-pme"
    config: MDRunConfig = field(default_factory=MDRunConfig)
    cost: MachineCostModel = PIII_1GHZ
    base_seed: int = 2002
    store: ResultStore = field(default_factory=ResultStore)
    n_workers: int = 0
    timeout: float | None = None
    retries: int = 1
    sanitize: bool = False
    shared_compute: bool = True
    trace_dir: str | None = None

    _fingerprint: str | None = field(default=None, init=False, repr=False)

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            system, positions = build_workload(self.workload)
            self._fingerprint = workload_fingerprint(system, positions)
        return self._fingerprint

    def key_for(self, point: DesignPoint) -> str:
        return cache_key(self.fingerprint, point, self.config, self.cost, self.base_seed)

    def _meta(self, point: DesignPoint, elapsed: float, attempts: int) -> dict:
        return {
            "workload": self.workload,
            "label": point.label(),
            "elapsed": elapsed,
            "attempts": attempts,
            "git_rev": mf.git_revision(),
            "host": mf.host_info()["node"],
        }

    # ------------------------------------------------------------------
    def run(self, points, progress=None) -> CampaignResult:
        """Execute a campaign; cache hits cost nothing, misses fan out.

        ``progress`` is an optional callable receiving one human-readable
        line after every resolved point.
        """
        points = list(points)
        keys = [self.key_for(p) for p in points]
        man = mf.CampaignManifest(
            campaign_id=campaign_id_for(keys),
            workload=self.workload,
            created_at=mf.timestamp(),
            git_rev=mf.git_revision(),
            host=mf.host_info(),
            schema=SCHEMA_VERSION,
            points=[
                mf.PointStatus(label=p.label(), key=k) for p, k in zip(points, keys)
            ],
        )
        by_key = {k: i for i, k in enumerate(keys)}
        records: list[ResponseRecord | None] = [None] * len(points)

        t_start = time.monotonic()  # noqa: REP104 — harness wall time
        metrics_before = REGISTRY.snapshot()
        runlog = self._runlog(man.campaign_id)
        runlog.log("campaign_start", n_points=len(points), n_workers=self.n_workers)
        tracer = SpanTracer() if self.trace_dir is not None else None

        misses: list[tuple[str, DesignPoint]] = []
        for i, (point, key) in enumerate(zip(points, keys)):
            cached = self.store.get(key)
            if cached is not None:
                records[i] = cached
                man.points[i].status = "hit"
                REGISTRY.counter("campaign.points").increment(status="hit")
                REGISTRY.counter("campaign.cache_hits").increment()
                runlog.log("point_hit", key=key, label=point.label())
            elif key in by_key and by_key[key] != i:
                # duplicate point in the input: resolved by the first copy
                continue
            else:
                REGISTRY.counter("campaign.cache_misses").increment()
                misses.append((key, point))

        def note() -> None:
            man.total_wall = time.monotonic() - t_start  # noqa: REP104
            if self.store.root is not None:
                man.write(self._manifest_path(man.campaign_id))
            if progress is not None:
                c = man.counts
                progress(
                    mf.progress_line(
                        man.campaign_id, man.n_points - c["pending"], man.n_points, c
                    )
                )

        note()
        worker_deltas: list[dict] = []
        spans: dict[str, object] = {}  # key -> open wall span (traced runs)
        payloads = [
            self._payload(key, point, self.sanitize, self._point_trace(key))
            for key, point in misses
        ]
        for att in pool_map(
            _worker_main, payloads, self.n_workers, self.timeout, self.retries
        ):
            i = by_key[att.key]
            if att.status is None:
                runlog.log("point_launch", key=att.key, label=points[i].label(),
                           attempt=att.number, pid=att.pid)
                if tracer is not None:
                    spans[att.key] = tracer.begin(
                        "point", track="engine", key=att.key[:16], attempt=att.number
                    )
                continue
            span = spans.pop(att.key, None)
            if span is not None:
                span.end(status=att.status)
            if att.metrics:
                worker_deltas.append(att.metrics)
            if not att.final:
                runlog.log("point_retry", key=att.key, attempt=att.number,
                           status=att.status, error=att.error)
                continue
            status = self._resolve(man, records, i, points[i], att)
            runlog.log("point_retire", key=att.key, attempt=att.number,
                       status=status, elapsed=att.elapsed, error=att.error)
            note()

        # duplicate inputs share the first copy's outcome
        for i, key in enumerate(keys):
            if records[i] is None and self.store.get(key) is not None:
                records[i] = self.store.get(key)
                if man.points[i].status == "pending":
                    man.points[i].status = "hit"

        man.total_wall = time.monotonic() - t_start  # noqa: REP104
        man.metrics = merge_metrics(REGISTRY.delta(metrics_before), *worker_deltas)
        runlog.log("campaign_end", total_wall=man.total_wall, **man.counts)
        if tracer is not None:
            tracer.write(
                Path(self.trace_dir) / f"campaign-{man.campaign_id}-host.trace.json"
            )
        note()
        return CampaignResult(manifest=man, records=records)

    def _runlog(self, campaign_id: str) -> RunLog:
        """The engine's structured event log (in-memory for memory stores)."""
        path = None
        if self.store.root is not None:
            path = self.store.root / "logs" / f"campaign-{campaign_id}.jsonl"
        return RunLog(path, campaign=campaign_id, workload=self.workload)

    def _point_trace(self, key: str):
        """This point's span-trace output path, or None when untraced."""
        if self.trace_dir is None:
            return None
        return point_trace_path(self.trace_dir, key)

    def _payload(self, key: str, point: DesignPoint, sanitize: bool, trace_path) -> dict:
        """One :func:`_worker_main` payload: the key plus the run's arguments."""
        return {
            "key": key,
            "run": {
                "workload": self.workload,
                "point": point,
                "config": self.config,
                "cost": self.cost,
                "base_seed": self.base_seed,
                "sanitize": sanitize,
                "shared_compute": self.shared_compute,
                "span_trace_path": trace_path,
            },
        }

    # ------------------------------------------------------------------
    def _resolve(
        self,
        man: mf.CampaignManifest,
        records: list,
        index: int,
        point: DesignPoint,
        att: Attempt,
    ) -> str:
        """Record a point's final attempt; returns its manifest status."""
        status = {"ok": "ran", "timeout": "timeout"}.get(att.status, "failed")
        ps = man.points[index]
        ps.status = status
        ps.attempts = att.number
        ps.wall_time = att.elapsed
        ps.error = att.error
        REGISTRY.counter("campaign.points").increment(status=status)
        REGISTRY.counter("campaign.attempts").increment(att.number)
        if att.number > 1:
            REGISTRY.counter("campaign.retries").increment(att.number - 1)
        REGISTRY.histogram("campaign.point_wall_seconds").observe(att.elapsed)
        if status == "ran":
            records[index] = record = record_from_dict(att.doc)
            self.store.put(att.key, record, self._meta(point, att.elapsed, att.number))
        return status

    def _manifest_path(self, campaign_id: str):
        assert self.store.root is not None
        return self.store.root / "manifests" / f"{campaign_id}.json"

    # ------------------------------------------------------------------
    def verify(self, sample: int = 4, seed: int = 0, n_workers: int = 0) -> list[dict]:
        """Re-run a sample of cached points; diff responses bit-for-bit.

        Only entries addressable by *this* engine (same workload, config,
        cost model and base seed) are eligible.  Returns one dict per
        mismatching field; an empty list means every sampled record
        reproduced exactly.

        ``n_workers`` fans the re-runs out over worker processes exactly
        like :meth:`run` does for misses (verification is embarrassingly
        parallel over sampled points); ``0`` re-runs inline.  A worker
        that dies or errors surfaces as a ``__rerun__`` mismatch.
        """
        import numpy as np

        eligible = []
        for entry in self.store.entries():
            point = self._point_from_record(entry.record)
            if self.key_for(point) == entry.key:
                eligible.append((entry, point))
        eligible.sort(key=lambda pair: pair[0].key)
        rng = np.random.default_rng(seed)
        if len(eligible) > sample:
            idx = rng.choice(len(eligible), size=sample, replace=False)
            eligible = [eligible[i] for i in sorted(idx)]

        fresh_by_key, rerun_errors = self._rerun_points(eligible, n_workers)

        mismatches = []
        for entry, point in eligible:
            if entry.key in rerun_errors:
                mismatches.append(
                    {
                        "key": entry.key,
                        "label": point.label(),
                        "field": "__rerun__",
                        "stored": None,
                        "rerun": rerun_errors[entry.key],
                    }
                )
                continue
            fresh = fresh_by_key[entry.key]
            stored, rerun = record_to_dict(entry.record), record_to_dict(fresh)
            for name in stored:
                if stored[name] != rerun[name] and not (
                    isinstance(stored[name], float)
                    and isinstance(rerun[name], float)
                    and np.isnan(stored[name])
                    and np.isnan(rerun[name])
                ):
                    mismatches.append(
                        {
                            "key": entry.key,
                            "label": point.label(),
                            "field": name,
                            "stored": stored[name],
                            "rerun": rerun[name],
                        }
                    )
        return mismatches

    def _rerun_points(
        self, pairs: list[tuple], n_workers: int
    ) -> tuple[dict[str, ResponseRecord], dict[str, str]]:
        """Re-execute (entry, point) pairs; return records and errors by key.

        The same :func:`pool_map` attempts as :meth:`run`, with no timeout
        or retries — verification re-runs points that already executed
        successfully once.
        """
        payloads = [
            self._payload(entry.key, point, False, None) for entry, point in pairs
        ]
        docs, errors = pool_results(_worker_main, payloads, n_workers)
        return {key: record_from_dict(doc) for key, doc in docs.items()}, errors

    @staticmethod
    def _point_from_record(record: ResponseRecord) -> DesignPoint:
        from ..core.factors import PlatformConfig

        return DesignPoint(
            config=PlatformConfig(
                network=record.network,
                middleware=record.middleware,
                cpus_per_node=record.cpus_per_node,
            ),
            n_ranks=record.n_ranks,
            replicate=record.replicate,
        )
