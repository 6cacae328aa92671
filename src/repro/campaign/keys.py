"""Canonical cache keys for design-point results.

A cached :class:`~repro.core.responses.ResponseRecord` is addressed by a
content hash over everything that determines the run's output:

* the **workload fingerprint** — the actual initial coordinates, charges,
  masses, box, cutoff scheme and electrostatics configuration (hashed
  from the array bytes, so a rebuilt-but-identical workload hits and a
  changed one misses);
* the **design point** — network, middleware, CPUs per node, rank count,
  replicate;
* the **run configuration** — every :class:`MDRunConfig` field plus the
  runner's ``base_seed`` the per-point platform seeds derive from;
* the **cost-model fingerprint** — every :class:`MachineCostModel`
  constant (recalibration invalidates the cache);
* the **schema version** — bumped by hand whenever the meaning of a
  stored record changes (response fields, seeding discipline, run
  semantics).

Keys are hex SHA-256 digests of a canonical JSON document: no ``repr``,
no ``hash()``, no dict-order dependence — the same inputs produce the
same key in every process on every host.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from collections.abc import Iterable
from dataclasses import fields

import numpy as np

from ..core.design import DesignPoint
from ..md.system import MDSystem
from ..parallel.costmodel import MachineCostModel
from ..parallel.pmd import MDRunConfig

__all__ = [
    "SCHEMA_VERSION",
    "workload_fingerprint",
    "cost_fingerprint",
    "config_fingerprint",
    "cache_key",
    "campaign_id_for",
    "point_seed",
]

#: Bump when the stored record's meaning changes (new response fields,
#: different seeding discipline, changed run semantics).  Entries written
#: under another schema version never hit and are dropped by ``gc``.
SCHEMA_VERSION = 1


def _digest_array(h: "hashlib._Hash", arr: np.ndarray) -> None:
    a = np.ascontiguousarray(arr)
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())


def workload_fingerprint(system: MDSystem, positions: np.ndarray) -> str:
    """Content hash of the physical problem one runner executes."""
    h = hashlib.sha256()
    _digest_array(h, positions)
    _digest_array(h, system.charges)
    _digest_array(h, system.masses)
    h.update(json.dumps(
        {
            "n_atoms": system.n_atoms,
            "box": [system.box.lx, system.box.ly, system.box.lz],
            "r_cut": system.scheme.r_cut,
            "r_on": system.scheme.r_on,
            "skin": system.scheme.skin,
            "electrostatics": system.electrostatics,
            "pme_grid": list(system.pme.grid_shape) if system.uses_pme else None,
            "ewald_alpha": system.nonbonded.ewald_alpha,
        },
        sort_keys=True,
    ).encode())
    return h.hexdigest()


def cost_fingerprint(cost: MachineCostModel) -> str:
    """Hash of every cost-model constant (recalibration invalidates)."""
    doc = {f.name: getattr(cost, f.name) for f in fields(cost)}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def config_fingerprint(config: MDRunConfig) -> dict:
    """The run-configuration fields as a canonical JSON-able dict."""
    return {f.name: getattr(config, f.name) for f in fields(config)}


def cache_key(
    workload_fp: str,
    point: DesignPoint,
    config: MDRunConfig,
    cost: MachineCostModel,
    base_seed: int,
) -> str:
    """The content address of one design-point result.

    The strategy axis enters the key only when off-default, so every
    replicated-data result cached before the axis existed keeps its
    address (a default-strategy key is byte-identical to the historical
    document).
    """
    point_doc = {
        "network": point.config.network,
        "middleware": point.config.middleware,
        "cpus_per_node": point.config.cpus_per_node,
        "n_ranks": point.n_ranks,
        "replicate": point.replicate,
    }
    strategy = getattr(point, "strategy", "replicated")
    if strategy != "replicated":
        point_doc["strategy"] = strategy
    doc = {
        "schema": SCHEMA_VERSION,
        "workload": workload_fp,
        "point": point_doc,
        "config": config_fingerprint(config),
        "cost": cost_fingerprint(cost),
        "base_seed": base_seed,
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def campaign_id_for(keys: Iterable[str]) -> str:
    """A campaign's short id: order-free digest of its points' cache keys.

    The engine's manifests, published lease boards and merge manifests
    all name a campaign by this id, so the same point set gets the same
    id however it was run.
    """
    h = hashlib.sha256()
    for k in sorted(keys):
        h.update(k.encode())
    return h.hexdigest()[:12]


def point_seed(base_seed: int, point: DesignPoint) -> int:
    """Deterministic, distinct platform seed per design point.

    Uses a stable digest, not ``hash()``: string hashing is randomized
    per process (PYTHONHASHSEED), which would give every run of the same
    experiment different platform noise.  This is the historical
    :class:`CharacterizationRunner` formula, shared so engine-run points
    are bit-identical to runner-run ones.
    """
    key = (
        point.config.network,
        point.config.middleware,
        point.config.cpus_per_node,
        point.n_ranks,
        point.replicate,
    )
    # off-default strategies extend the tuple; the default keeps the
    # historical repr so replicated-data seeds are unchanged
    strategy = getattr(point, "strategy", "replicated")
    if strategy != "replicated":
        key = key + (strategy,)
    digest = zlib.crc32(repr(key).encode())
    return (base_seed + digest) % (2**31 - 1)
