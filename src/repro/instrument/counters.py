"""Process-wide work counters for cache-effectiveness assertions.

The campaign store promises that warm-cache figure regeneration does
*zero* MD work.  That promise is only testable if the MD layer counts
its own work: :data:`FORCE_EVALUATIONS` increments on every non-bonded
kernel evaluation (the irreducible unit of MD force work — every serial
or parallel energy step performs at least one).  Tests snapshot the
counter, run a driver, and assert the delta.

These are views into the default :data:`~repro.instrument.metrics.REGISTRY`
(``md.force_evaluations`` / ``md.neighbor_builds``), so campaign
manifests pick them up automatically.
"""

from __future__ import annotations

from .metrics import REGISTRY

__all__ = ["FORCE_EVALUATIONS", "NEIGHBOR_BUILDS"]

#: Incremented once per non-bonded kernel evaluation (see
#: :meth:`repro.md.nonbonded.NonbondedKernel.compute`).
FORCE_EVALUATIONS = REGISTRY.counter("md.force_evaluations")

#: Incremented once per *real* neighbour-list construction (see
#: :meth:`repro.md.neighborlist.NeighborList.build`).  The shared-compute
#: layer (:mod:`repro.parallel.shared`) promises one real build per rebuild
#: event regardless of the simulated rank count; tests assert the delta.
NEIGHBOR_BUILDS = REGISTRY.counter("md.neighbor_builds")
