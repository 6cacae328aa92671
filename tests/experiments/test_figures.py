"""Figure drivers: structure of the results (fast, small workload)."""

import pytest

import repro.campaign.engine as engine_mod
from repro.campaign import CampaignEngine
from repro.experiments import ALL_FIGURES, extrapolation, figure3, figure7, figure9
from repro.parallel import MDRunConfig

SMALL_CONFIG = MDRunConfig(n_steps=2, dt=0.0004)


@pytest.fixture(scope="module")
def small_engine(peptide_workload):
    return CampaignEngine(workload=peptide_workload, config=SMALL_CONFIG)


class TestRegistry:
    def test_all_figures_registered(self):
        assert set(ALL_FIGURES) == {
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "fast_ethernet",
            "extrapolation",
            "grid_outlook",
        }


class TestDriverStructure:
    def test_figure3_series(self, small_engine):
        res = figure3(small_engine)
        assert res.series["p"] == [1, 2, 4, 8]
        assert len(res.series["classic"]) == 4
        assert "Figure 3" in res.report
        assert res.figure == "figure3"

    def test_figure7_series(self, small_engine):
        res = figure7(small_engine)
        for net in ("tcp-gige", "score-gige", "myrinet"):
            assert len(res.series[net]["mean"]) == 3
            assert all(
                res.series[net]["min"][i] <= res.series[net]["mean"][i] <= res.series[net]["max"][i]
                for i in range(3)
            )

    def test_figure9_series(self, small_engine):
        res = figure9(small_engine)
        assert set(res.series) == {
            "tcp-gige_uni",
            "tcp-gige_dual",
            "myrinet_uni",
            "myrinet_dual",
        }

    def test_by_platform_grouping(self, small_engine):
        res = figure9(small_engine)
        groups = res.by_platform()
        assert len(groups) == 4
        for recs in groups.values():
            assert [r.n_ranks for r in recs] == [1, 2, 4, 8]

    def test_extrapolation_reaches_sixteen(self, small_engine):
        res = extrapolation(small_engine)
        assert res.series["p"] == [1, 2, 4, 8, 16]
        for net in ("tcp-gige", "score-gige", "myrinet"):
            assert len(res.series[net]) == 5

    def test_all_reports_render(self, small_engine):
        for name, driver in ALL_FIGURES.items():
            res = driver(small_engine)
            assert isinstance(res.report, str) and len(res.report) > 0
            assert res.records, name

    def test_runner_cache_shared_across_figures(self, small_engine):
        """Figure 4 reuses Figure 3's runs (same design points)."""
        n_before = len(small_engine.store)
        figure3(small_engine)
        n_mid = len(small_engine.store)
        from repro.experiments import figure4

        figure4(small_engine)
        assert len(small_engine.store) == n_mid
        assert n_mid >= n_before


class TestUnresolvedPoints:
    def test_driver_raises_naming_the_failing_label(self, peptide_workload, monkeypatch):
        """A figure needs its whole design: a point that cannot resolve
        raises instead of plotting a partial series."""
        real = engine_mod.execute_point

        def fail_at_eight(workload, point, *args, **kw):
            if point.n_ranks == 8:
                raise ValueError("no route to host")
            return real(workload, point, *args, **kw)

        monkeypatch.setattr(engine_mod, "execute_point", fail_at_eight)
        engine = CampaignEngine(workload=peptide_workload, config=SMALL_CONFIG, retries=0)
        with pytest.raises(RuntimeError) as info:
            figure3(engine)
        message = str(info.value)
        assert "tcp-gige/mpi/uni p=8 (failed: ValueError: no route to host)" in message
        assert "p=4" not in message
