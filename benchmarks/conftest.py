"""Shared benchmark fixtures.

All figure benchmarks, the full factorial and the throughput study share
one :class:`~repro.campaign.engine.CampaignEngine` over the paper's
3552-atom workload, backed by one persistent content-addressed result
store (``benchmarks/.repro-cache/``): each design point is simulated
exactly once per benchmark session — and, across sessions, never
resimulated until the workload, run config, cost model or schema
changes.  ``repro campaign`` sweeps over the same store feed figure
regeneration and vice versa.  Every benchmark writes the regenerated
rows/series to ``benchmarks/reports/``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.campaign import CampaignEngine, ResultStore
from repro.parallel import MDRunConfig

REPORT_DIR = pathlib.Path(__file__).parent / "reports"
CACHE_DIR = pathlib.Path(__file__).parent / ".repro-cache"


@pytest.fixture(scope="session")
def figure_store():
    store = ResultStore(CACHE_DIR)
    yield store
    store.close()


@pytest.fixture(scope="session")
def figure_engine(figure_store):
    """The paper's setup: myoglobin-PME (the default workload), 10 steps."""
    return CampaignEngine(config=MDRunConfig(n_steps=10), store=figure_store)


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    REPORT_DIR.mkdir(exist_ok=True)
    return REPORT_DIR


def emit(report_dir: pathlib.Path, name: str, text: str) -> None:
    """Print the regenerated table and persist it next to the benchmarks."""
    print(f"\n{text}\n")
    (report_dir / f"{name}.txt").write_text(text + "\n")
