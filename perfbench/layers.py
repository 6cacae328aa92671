"""Which functions of ``repro`` the traced run wraps, and what it reports.

Layer names are ``repro`` module names.  Each wrapper is patched where
its name is bound at the call site: a method on its class, a function
in the module namespace its callers look it up in.  Nothing under
``src/`` changes; :func:`install` patches at run time and
:meth:`LayerTracer.uninstall` restores every original.

Buckets whose self time is not a reported metric (``run_parallel_md``
itself, the spatial rank program, the campaign engine's bookkeeping,
...) still stop their children's time from leaking into a parent layer;
their own time is part of ``unattributed_s``.
"""

from __future__ import annotations

import weakref

from tracer import LayerTracer

#: (metric name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("cli.import_s", "s"),
    ("workloads.build_s", "s"),
    ("campaign.keys.fingerprint_s", "s"),
    ("campaign.store.load_s", "s"),
    ("campaign.store.put_s", "s"),
    ("campaign.store.put_calls", "count"),
    ("campaign.store.get_calls", "count"),
    ("campaign.store.hit_ratio", "ratio"),
    ("campaign.engine.point_overhead_s", "s"),
    ("campaign.engine.points_run", "count"),
    ("campaign.engine.points_hit", "count"),
    ("campaign.analytics.run_s", "s"),
    ("campaign.analytics.force_evals", "count"),
    ("md.neighborlist.self_s", "s"),
    ("md.neighborlist.builds", "count"),
    ("md.neighborlist.candidates", "count"),
    ("md.nonbonded.self_s", "s"),
    ("md.nonbonded.pairs", "count"),
    ("md.nonbonded.bytes_computed", "B"),
    ("md.bonded.self_s", "s"),
    ("md.bonded.terms", "count"),
    ("pme.grid.stencil_s", "s"),
    ("pme.grid.spread_s", "s"),
    ("pme.grid.interpolate_s", "s"),
    ("pme.grid.points_scattered", "count"),
    ("parallel.pfft.self_s", "s"),
    ("parallel.pfft.fft_points", "count"),
    ("parallel.shared.hit_ratio", "ratio"),
    ("parallel.pmd.self_s", "s"),
    ("parallel.ppme.self_s", "s"),
    ("parallel.spatial.compute_forces_s", "s"),
    ("parallel.spatial.halo_s", "s"),
    ("parallel.spatial.migrate_s", "s"),
    ("mpi.collectives.alltoallv_s", "s"),
    ("mpi.collectives.allreduce_s", "s"),
    ("mpi.collectives.allgatherv_s", "s"),
    ("mpi.collectives.barrier_s", "s"),
    ("mpi.collectives.calls", "count"),
    ("mpi.endpoint.self_s", "s"),
    ("mpi.endpoint.messages_per_step", "msgs/step"),
    ("mpi.endpoint.bytes_per_step", "B/step"),
    ("cluster.state.plan_transfer_s", "s"),
    ("cluster.state.transfers", "count"),
    ("sim.engine.self_s", "s"),
    ("sim.engine.events", "count"),
    ("unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("error_rate", "ratio"),
]

#: per-layer time metric -> the bucket whose self time it reports
TIME_BUCKETS = {
    "workloads.build_s": "workloads.build",
    "campaign.keys.fingerprint_s": "campaign.keys.fingerprint",
    "campaign.store.load_s": "campaign.store.load",
    "campaign.store.put_s": "campaign.store.put",
    "campaign.engine.point_overhead_s": "campaign.engine.point",
    "campaign.analytics.run_s": "campaign.analytics.run",
    "md.neighborlist.self_s": "md.neighborlist",
    "md.nonbonded.self_s": "md.nonbonded",
    "md.bonded.self_s": "md.bonded",
    "pme.grid.stencil_s": "pme.grid.stencil",
    "pme.grid.spread_s": "pme.grid.spread",
    "pme.grid.interpolate_s": "pme.grid.interpolate",
    "parallel.pfft.self_s": "parallel.pfft",
    "parallel.pmd.self_s": "parallel.pmd",
    "parallel.ppme.self_s": "parallel.ppme",
    "parallel.spatial.compute_forces_s": "parallel.spatial.compute_forces",
    "parallel.spatial.halo_s": "parallel.spatial.halo",
    "parallel.spatial.migrate_s": "parallel.spatial.migrate",
    "mpi.collectives.alltoallv_s": "mpi.collectives.alltoallv",
    "mpi.collectives.allreduce_s": "mpi.collectives.allreduce",
    "mpi.collectives.allgatherv_s": "mpi.collectives.allgatherv",
    "mpi.collectives.barrier_s": "mpi.collectives.barrier",
    "mpi.endpoint.self_s": "mpi.endpoint",
    "cluster.state.plan_transfer_s": "cluster.state.plan_transfer",
    "sim.engine.self_s": "sim.engine",
}

#: per-layer count metric -> the tracer counter it reports
COUNTS = {
    "campaign.store.put_calls": "store.put",
    "campaign.store.get_calls": "store.get",
    "campaign.engine.points_run": "engine.points_run",
    "campaign.engine.points_hit": "engine.points_hit",
    "campaign.analytics.force_evals": "analytics.force_evals",
    "md.neighborlist.builds": "nl.builds",
    "md.neighborlist.candidates": "nl.candidates",
    "md.nonbonded.pairs": "nb.pairs",
    "md.nonbonded.bytes_computed": "nb.bytes",
    "md.bonded.terms": "bonded.terms",
    "pme.grid.points_scattered": "grid.points_scattered",
    "parallel.pfft.fft_points": "pfft.points",
    "mpi.collectives.calls": "collectives.calls",
    "cluster.state.transfers": "state.transfers",
    "sim.engine.events": "sim.events",
}


def install(tracer: LayerTracer) -> None:
    """Patch every traced call site of ``repro`` with ``tracer``'s wrappers."""
    import repro.campaign
    import repro.campaign.analytics as analytics
    import repro.campaign.engine as engine
    import repro.campaign.keys as keys
    import repro.campaign.store as store
    import repro.campaign.workloads as cworkloads
    import repro.cluster.state as state
    import repro.md.neighborlist as neighborlist
    import repro.md.nonbonded as nonbonded
    import repro.mpi.collectives as collectives
    import repro.mpi.endpoint as endpoint
    import repro.parallel.pclassic as pclassic
    import repro.parallel.pfft as pfft
    import repro.parallel.ppme as ppme
    import repro.parallel.run as prun
    import repro.parallel.shared as shared
    import repro.parallel.spatial as spatial
    import repro.parallel.spatial.engine as spatial_engine
    import repro.pme.grid as grid
    import repro.sim.engine as sim

    t = tracer
    count = t.count

    # -- workloads, campaign -------------------------------------------
    for owner in (cworkloads, engine, repro.campaign):
        t.patch(owner, "build_workload", "workloads.build")
    for owner in (keys, engine):
        t.patch(owner, "workload_fingerprint", "campaign.keys.fingerprint")
    t.patch(store.ResultStore, "_load", "campaign.store.load")
    t.patch(store.ResultStore, "put", "campaign.store.put",
            after=lambda a, k, r: count("store.put"))

    def _get(args, kwargs, record):
        count("store.get")
        count("store.get_hits", record is not None)

    t.patch(store.ResultStore, "get", "campaign.store.get", after=_get)
    t.patch(engine, "execute_point", "campaign.engine.point")

    def _campaign(args, kwargs, result):
        counts = result.manifest.counts
        count("engine.points_run", counts["ran"])
        count("engine.points_hit", counts["hit"])

    t.patch(engine.CampaignEngine, "run", "campaign.engine.run", after=_campaign)
    t.patch(analytics, "run_analysis", "campaign.analytics.run")

    # -- the run and its rank programs ---------------------------------
    def _run(args, kwargs, result):
        count("run.calls")
        count("run.steps", result.config.n_steps)

    for owner in (prun, engine):
        t.patch(owner, "run_parallel_md", "parallel.run", after=_run)
    t.patch(prun, "rank_program", "parallel.pmd", generator=True)
    t.patch(spatial, "spatial_rank_program", "parallel.spatial.program", generator=True)
    t.patch(sim.Simulator, "run", "sim.engine",
            after=lambda a, k, r: count("sim.events", a[0]._seq))

    # -- md --------------------------------------------------------------
    def _build(args, kwargs, pairs):
        count("nl.builds")
        count("nl.candidates", args[0].last_candidates)

    t.patch(neighborlist.NeighborList, "build", "md.neighborlist", after=_build)
    t.patch(neighborlist.NeighborList, "needs_rebuild", "md.neighborlist")
    t.patch(neighborlist.NeighborList, "ensure", "md.neighborlist")

    def _pair_terms(args, kwargs, out):
        pairs = args[2] if len(args) > 2 else kwargs["pairs"]
        count("nb.pairs", args[0].last_pair_count)
        count("nb.bytes", pairs.nbytes + sum(a.nbytes for a in out))

    t.patch(nonbonded.NonbondedKernel, "compute", "md.nonbonded")
    t.patch(nonbonded.NonbondedKernel, "pair_terms", "md.nonbonded", after=_pair_terms)
    t.patch(pclassic, "bonded_energy_forces", "md.bonded",
            after=lambda a, k, r: count("bonded.terms", a[2].n_terms))
    for name in ("bond_row_terms", "angle_row_terms", "dihedral_row_terms",
                 "improper_row_terms"):
        t.patch(spatial_engine, name, "md.bonded",
                after=lambda a, k, r: count("bonded.terms", len(a[2])))

    # -- pme ---------------------------------------------------------------
    def _scattered(args, kwargs, result):
        count("grid.points_scattered", args[0].last_workload.scattered_points)

    t.patch(grid.ChargeMesh, "stencil", "pme.grid.stencil")
    t.patch(grid.ChargeMesh, "spread", "pme.grid.spread", after=_scattered)
    t.patch(grid.ChargeMesh, "interpolate_forces", "pme.grid.interpolate", after=_scattered)
    t.patch(ppme.ParallelPME, "reciprocal", "parallel.ppme", generator=True)
    for name in ("forward", "inverse"):
        t.patch(pfft.DistributedFFT, name, "parallel.pfft", generator=True,
                after=lambda a, k, r: count("pfft.points", a[3].size))

    # -- parallel.shared: a call is a hit when the cache answered it ------
    # id(cache) -> (weak reference to it, hits it had served); the weak
    # reference tells a reused id from the same cache without keeping a
    # finished run's cache (and its pair list) alive
    seen: dict[int, tuple] = {}

    def _shared(args, kwargs, result):
        cache = args[0]
        served = cache.n_mirrored + cache.n_stencil_hits
        ref, before = seen.get(id(cache), (None, 0))
        if ref is None or ref() is not cache:
            before = 0
        seen[id(cache)] = (weakref.ref(cache), served)
        count("shared.calls")
        count("shared.hits", served > before)

    t.patch(shared.SharedComputeCache, "neighbor_pairs", "parallel.shared", after=_shared)
    t.patch(shared.SharedComputeCache, "pme_stencil", "parallel.shared", after=_shared)

    # -- parallel.spatial ------------------------------------------------
    se = spatial_engine.SpatialEngine
    t.patch(se, "compute_forces", "parallel.spatial.compute_forces")
    for name in ("halo_payload", "halo_receive"):
        t.patch(se, name, "parallel.spatial.halo")
    for name in ("migrate_payload", "migrate_receive"):
        t.patch(se, name, "parallel.spatial.migrate")

    # -- mpi ---------------------------------------------------------------
    for name in ("alltoallv", "allreduce", "allgatherv", "barrier"):
        t.patch(collectives, name, f"mpi.collectives.{name}", generator=True,
                after=lambda a, k, r: count("collectives.calls"))

    def _isend(args, kwargs, request):
        count("endpoint.messages")
        count("endpoint.bytes", request.message.nbytes)

    ep = endpoint.RankEndpoint
    t.patch(ep, "isend", "mpi.endpoint", generator=True, after=_isend)
    t.patch(ep, "irecv", "mpi.endpoint", generator=True,
            after=lambda a, k, r: count("endpoint.messages"))
    for name in ("send", "recv", "sendrecv", "compute"):
        t.patch(ep, name, "mpi.endpoint", generator=True)
    t.patch(endpoint.SendRequest, "wait", "mpi.endpoint", generator=True)
    t.patch(endpoint.RecvRequest, "wait", "mpi.endpoint", generator=True)

    # -- cluster -------------------------------------------------------------
    t.patch(state.ClusterState, "plan_transfer", "cluster.state.plan_transfer",
            after=lambda a, k, r: count("state.transfers"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(self_s: dict, counts: dict, *, wall_s: float, runs: int) -> dict:
    """Per-layer metric values from summed buckets and counters.

    ``self_s``/``counts`` are sums over ``runs`` traced runs whose wall
    times sum to ``wall_s``; times and counts are reported per run.
    ``cli.import_s``, ``trace.overhead_ratio`` and ``error_rate`` are
    measured by the caller and filled in there.
    """
    out = {name: 0.0 for name, _ in PER_LAYER}
    for metric, bucket in TIME_BUCKETS.items():
        out[metric] = self_s.get(bucket, 0.0) / runs
    for metric, counter in COUNTS.items():
        out[metric] = counts.get(counter, 0) / runs
    out["campaign.store.hit_ratio"] = _ratio(counts.get("store.get_hits", 0),
                                             counts.get("store.get", 0))
    out["parallel.shared.hit_ratio"] = _ratio(counts.get("shared.hits", 0),
                                              counts.get("shared.calls", 0))
    steps = counts.get("run.steps", 0)
    out["mpi.endpoint.messages_per_step"] = _ratio(counts.get("endpoint.messages", 0), steps)
    out["mpi.endpoint.bytes_per_step"] = _ratio(counts.get("endpoint.bytes", 0), steps)
    attributed = sum(self_s.get(bucket, 0.0) for bucket in TIME_BUCKETS.values())
    out["unattributed_s"] = (wall_s - attributed) / runs
    return out
