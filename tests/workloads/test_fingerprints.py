"""Pinned content hashes of the named workloads.

Campaign cache keys embed ``workload_fingerprint``, so any change to a
builder's output bits silently invalidates every stored result.  These
values were recorded once from the reference builders and must never be
regenerated: a builder optimisation is only acceptable if it reproduces
them exactly.
"""

import hashlib
import json
from dataclasses import astuple

import numpy as np
import pytest

from repro.campaign.keys import workload_fingerprint
from repro.campaign.workloads import build_workload
from repro.workloads import myoglobin_workload

WORKLOAD_FINGERPRINTS = {
    "myoglobin-pme": "7fcae2e97531c652408059a1355124c49ebf09ebbc60847a334382d4885daca6",
    "myoglobin-shift": "5bab0a8199b2ecf60e0322fc56b1dda0d0d762f09a6b5562fb04317c27c6b71b",
    "peptide-tiny": "59f8c5414c5c4ce8b5fd035512b0bfefcb75e18868c0deb79c0b5ccfbc8c0a21",
    "water-box": "421ac83cc79e56460758ef0575f19883679ad1f94fe42d1afabaaad60effd5c2",
}

MYOGLOBIN_POSITIONS_SHA256 = (
    "9b9a554ece5b125a8c2ccebf5b1b3db977baada255f227f1659821b9c4fbe55d"
)

#: table name -> (row count, sha256 of the JSON-encoded rows)
MYOGLOBIN_TABLES = {
    "atoms": (3552, "2f30fd16ef9d81d913c77b63dff4537c14b0f0411e1c6290ab5b096dc8f01ea9"),
    "bonds": (3205, "69ffee4fcd7a73fe7a380e421e166193358db6064dcddce87b46a0024f269691"),
    "angles": (5074, "729ad753e0ceabd66d30f596c3b8c36bc285ff2c4e7dbabe0914afa7f67c22c2"),
    "dihedrals": (6757, "fc56fb912695711a7f0b89b6b27acab94e85dd58dadd4007f84a0c678137858f"),
    "impropers": (145, "cffd5d6c46aad8969ae40c7d3fb8e7ea4f20e2b92636ae5ab35a78b713c99f14"),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_FINGERPRINTS))
def test_workload_fingerprint_pinned(name):
    system, positions = build_workload(name)
    assert workload_fingerprint(system, positions) == WORKLOAD_FINGERPRINTS[name]


def test_myoglobin_positions_pinned():
    positions = np.ascontiguousarray(myoglobin_workload().positions, dtype=np.float64)
    assert positions.shape == (3552, 3)
    assert hashlib.sha256(positions.tobytes()).hexdigest() == MYOGLOBIN_POSITIONS_SHA256


@pytest.mark.parametrize("table", sorted(MYOGLOBIN_TABLES))
def test_myoglobin_topology_table_pinned(table):
    rows = [list(astuple(row)) for row in getattr(myoglobin_workload().topology, table)]
    count, digest = MYOGLOBIN_TABLES[table]
    assert len(rows) == count
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest
