"""Shared figure engine: the full 3552-atom workload, 10-step runs.

One :class:`~repro.campaign.engine.CampaignEngine` (default workload
``myoglobin-pme``) is shared by every experiment test, so its store
simulates each design point exactly once per session.
"""

import pytest

from repro.campaign import CampaignEngine
from repro.parallel import MDRunConfig


@pytest.fixture(scope="session")
def figure_engine():
    return CampaignEngine(config=MDRunConfig(n_steps=10))
