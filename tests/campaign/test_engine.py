"""Campaign engine: caching, parallel execution, passivity, verify."""

import multiprocessing
import os

import pytest

import repro.campaign.engine as engine_mod
from repro.campaign import CampaignManifest
from repro.campaign.engine import pool_map
from repro.campaign.keys import SCHEMA_VERSION, point_seed
from repro.campaign.store import record_to_dict
from repro.campaign.workloads import build_workload
from repro.core.design import DesignPoint
from repro.core.factors import FOCAL_POINT
from repro.core.responses import ResponseRecord
from repro.instrument import FORCE_EVALUATIONS
from repro.parallel import MDRunConfig
from repro.parallel.run import RunOptions, run_parallel_md

from .conftest import TINY_CONFIG, tiny_engine, tiny_points


def _exit_three(payload, out_queue):
    """A pool_map target whose worker dies without posting."""
    os._exit(3)


class TestColdAndWarm:
    def test_cold_run_executes_every_point(self, store_root):
        result = tiny_engine(store_root).run(tiny_points())
        assert result.ok
        assert [p.status for p in result.manifest.points] == ["ran", "ran"]
        assert all(r is not None for r in result.records)
        assert [r.n_ranks for r in result.records] == [1, 2]

    def test_warm_run_is_all_hits_and_does_zero_md_work(self, store_root):
        tiny_engine(store_root).run(tiny_points())

        warm = tiny_engine(store_root)
        before = FORCE_EVALUATIONS.snapshot()
        result = warm.run(tiny_points())
        assert FORCE_EVALUATIONS.delta(before) == 0
        assert result.ok
        assert [p.status for p in result.manifest.points] == ["hit", "hit"]

    def test_warm_records_equal_cold_records(self, store_root):
        cold = tiny_engine(store_root).run(tiny_points())
        warm = tiny_engine(store_root).run(tiny_points())
        for a, b in zip(cold.records, warm.records):
            assert record_to_dict(a) == record_to_dict(b)

    def test_duplicate_input_points_share_one_execution(self, store_root):
        point = tiny_points(ranks=(1,))[0]
        result = tiny_engine(store_root).run([point, point])
        assert result.ok
        assert record_to_dict(result.records[0]) == record_to_dict(result.records[1])
        statuses = sorted(p.status for p in result.manifest.points)
        assert statuses == ["hit", "ran"]

        # a failing point: every copy carries the one execution's outcome
        bad = DesignPoint(config=FOCAL_POINT, n_ranks=32)
        result = tiny_engine(store_root, retries=0).run([bad, bad])
        points = result.manifest.points
        assert [(p.status, p.attempts) for p in points] == [("failed", 1)] * 2
        assert points[1].error == points[0].error
        assert result.manifest.counts["pending"] == 0
        assert result.records == [None, None]


class TestPassivity:
    def test_engine_records_bit_identical_to_direct_runner(self, store_root):
        """Exact passivity: going through the engine (store, manifest,
        scheduling) changes nothing about the record a bare
        :func:`run_parallel_md` call with the point's seed produces."""
        system, positions = build_workload("peptide-tiny")
        direct = []
        for point in tiny_points():
            spec = point.config.cluster_spec(point.n_ranks, seed=point_seed(2002, point))
            options = RunOptions.for_point(point, config=TINY_CONFIG)
            result = run_parallel_md(system, positions, spec, options)
            direct.append(ResponseRecord.from_run(point, result))

        engine = tiny_engine(store_root)
        via_engine = engine.run(tiny_points()).records
        for a, b in zip(direct, via_engine):
            assert record_to_dict(a) == record_to_dict(b)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pool_records_bit_identical_to_inline(
        self, store_root, start_method, monkeypatch
    ):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} start method unavailable here")
        monkeypatch.setattr(
            engine_mod, "_mp_context", lambda: multiprocessing.get_context(start_method)
        )
        inline = tiny_engine(store_root).run(tiny_points()).records

        pooled_engine = tiny_engine(None, n_workers=2)
        pooled = pooled_engine.run(tiny_points())
        assert pooled.ok
        assert {p.status for p in pooled.manifest.points} == {"ran"}
        for a, b in zip(inline, pooled.records):
            assert record_to_dict(a) == record_to_dict(b)


class TestFailureHandling:
    @pytest.mark.parametrize("n_workers", [0, 1])
    def test_impossible_point_marked_failed_after_retries(self, store_root, n_workers):
        # 32 uni-CPU ranks need 32 nodes; the CoPs cluster has 16
        bad = DesignPoint(config=FOCAL_POINT, n_ranks=32)
        engine = tiny_engine(store_root, retries=1, n_workers=n_workers)
        result = engine.run(tiny_points(ranks=(1,)) + [bad])
        assert not result.ok
        statuses = [p.status for p in result.manifest.points]
        assert statuses == ["ran", "failed"]
        failed = result.manifest.points[1]
        assert failed.attempts == 2  # first try + one retry
        assert "nodes" in failed.error
        assert result.records[1] is None

    def test_timeout_kills_and_marks_the_point(self, store_root):
        slow = tiny_engine(
            store_root,
            config=type(TINY_CONFIG)(n_steps=3000, dt=0.0004),
            n_workers=1,
            timeout=0.2,
            retries=0,
        )
        result = slow.run(tiny_points(ranks=(2,)))
        assert not result.ok
        (status,) = result.manifest.points
        assert status.status == "timeout"
        assert "timed out" in status.error

    def test_worker_that_exits_without_posting_is_crashed(self):
        *_, last = pool_map(_exit_three, [{"key": "a"}], n_workers=1)
        assert last.final
        assert last.status == "crashed"
        assert last.error == "worker exited with code 3"

    def test_ctrl_c_in_an_inline_point_propagates(self, store_root, monkeypatch):
        """An interrupt inline stops the campaign; it is not a failed point."""
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(args)
            raise KeyboardInterrupt

        monkeypatch.setattr(engine_mod, "execute_point", interrupted)
        with pytest.raises(KeyboardInterrupt):
            tiny_engine(store_root, retries=1).run(tiny_points())
        assert len(calls) == 1  # no retry, no second point

    def test_unknown_workload_raises(self, store_root):
        engine = tiny_engine(store_root, workload="no-such-system")
        with pytest.raises(ValueError, match="unknown workload"):
            engine.run(tiny_points())


class TestManifest:
    def test_manifest_written_and_readable(self, store_root):
        engine = tiny_engine(store_root)
        result = engine.run(tiny_points())
        path = store_root / "manifests" / f"{result.manifest.campaign_id}.json"
        assert path.exists()
        read_back = CampaignManifest.read(path)
        assert read_back.campaign_id == result.manifest.campaign_id
        assert read_back.workload == "peptide-tiny"
        assert read_back.schema == SCHEMA_VERSION
        assert [p.status for p in read_back.points] == ["ran", "ran"]
        assert read_back.counts["ran"] == 2
        assert "2/2" in read_back.summary_line()

    def test_campaign_id_is_deterministic(self, store_root):
        a = tiny_engine(store_root).run(tiny_points())
        b = tiny_engine(store_root).run(tiny_points())
        assert a.manifest.campaign_id == b.manifest.campaign_id


class TestVerify:
    def test_intact_store_verifies_clean(self, store_root):
        engine = tiny_engine(store_root)
        engine.run(tiny_points())
        assert engine.verify(sample=2) == []

    def test_reopened_store_verifies_clean(self, store_root):
        tiny_engine(store_root).run(tiny_points())
        assert tiny_engine(store_root).verify(sample=2) == []

    def test_parallel_verify_clean(self, store_root):
        """Satellite: ``verify`` can fan the re-runs out over workers."""
        engine = tiny_engine(store_root)
        engine.run(tiny_points())
        assert engine.verify(sample=2, n_workers=2) == []

    def test_parallel_verify_detects_tampering(self, store_root):
        engine = tiny_engine(store_root)
        result = engine.run(tiny_points(ranks=(2,)))
        key = engine.key_for(tiny_points(ranks=(2,))[0])
        record = result.records[0]
        tampered = type(record)(
            **{**record_to_dict(record), "wall_time": record.wall_time * 1.5}
        )
        engine.store.put(key, tampered)
        mismatches = engine.verify(sample=2, n_workers=2)
        assert {m["field"] for m in mismatches} == {"wall_time"}

    def test_tampered_record_detected(self, store_root):
        engine = tiny_engine(store_root)
        result = engine.run(tiny_points(ranks=(2,)))
        key = engine.key_for(tiny_points(ranks=(2,))[0])
        record = result.records[0]
        tampered = type(record)(
            **{**record_to_dict(record), "wall_time": record.wall_time * 1.5}
        )
        engine.store.put(key, tampered)
        mismatches = engine.verify(sample=2)
        assert mismatches
        assert {m["field"] for m in mismatches} == {"wall_time"}
        assert mismatches[0]["key"] == key

    def test_tampered_spatial_record_detected(self, store_root):
        """Non-replicated records are eligible too: the point rebuilt from
        the record keeps its strategy, so its key matches the entry's."""
        engine = tiny_engine(
            store_root, workload="water-box", config=MDRunConfig(n_steps=1)
        )
        point = DesignPoint(config=FOCAL_POINT, n_ranks=2, strategy="spatial")
        (record,) = engine.run([point]).records
        tampered = type(record)(
            **{**record_to_dict(record), "wall_time": record.wall_time * 1.5}
        )
        engine.store.put(engine.key_for(point), tampered)
        mismatches = engine.verify(sample=1)
        assert {m["field"] for m in mismatches} == {"wall_time"}
        assert mismatches[0]["label"] == "tcp-gige/mpi/uni p=2 spatial"

