"""Design-point execution through the campaign engine (small workload)."""

import pytest

from repro.campaign import CampaignEngine
from repro.core import FOCAL_POINT, DesignPoint, ResponseRecord
from repro.parallel import MDRunConfig


@pytest.fixture(scope="module")
def engine(peptide_workload):
    return CampaignEngine(
        workload=peptide_workload, config=MDRunConfig(n_steps=2, dt=0.0004)
    )


def sweep(engine, levels):
    points = [DesignPoint(config=FOCAL_POINT, n_ranks=p) for p in levels]
    return engine.run(points).records_or_raise()


class TestRunner:
    def test_sweep_produces_records(self, engine):
        records = sweep(engine, (1, 2))
        assert len(records) == 2
        assert [r.n_ranks for r in records] == [1, 2]
        for r in records:
            assert isinstance(r, ResponseRecord)
            assert r.total_time > 0
            assert r.network == "tcp-gige"

    def test_replicates_get_fresh_seeds(self, engine):
        a, b = engine.run(
            [DesignPoint(config=FOCAL_POINT, n_ranks=2, replicate=r) for r in (0, 1)]
        ).records_or_raise()
        assert a.wall_time != b.wall_time

    def test_measure_full_design(self, engine):
        points = [
            DesignPoint(config=FOCAL_POINT.with_level("network", n), n_ranks=2)
            for n in ("tcp-gige", "myrinet")
        ]
        records = engine.run(points).records_or_raise()
        assert {r.network for r in records} == {"tcp-gige", "myrinet"}


class TestResponseRecord:
    def test_derived_quantities(self, engine):
        (rec,) = sweep(engine, (2,))
        assert rec.total_time == pytest.approx(rec.classic_time + rec.pme_time)
        assert 0 <= rec.classic_overhead_fraction <= 1
        assert 0 <= rec.pme_overhead_fraction <= 1
        assert rec.total_comp == pytest.approx(rec.classic_comp + rec.pme_comp)

    def test_as_dict(self, engine):
        (rec,) = sweep(engine, (1,))
        d = rec.as_dict()
        assert d["n_ranks"] == 1
        assert d["network"] == "tcp-gige"

    def test_serial_record_has_no_overhead(self, engine):
        (rec,) = sweep(engine, (1,))
        assert rec.classic_comm == 0.0
        assert rec.classic_sync == 0.0
        assert rec.pme_overhead_fraction == 0.0
