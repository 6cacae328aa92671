"""Golden values of the serial run path: its bits must not move.

Two small runs, one per decomposition strategy, pinned value for value:
every rank's virtual comp/comm/sync seconds per phase and the final
total energy.  A refactor of the run path that changes any arithmetic,
message schedule or cost charge shows up here as a mismatch.  The
tolerance is the same portability rule the repository benchmark uses
for its pinned pme-p8 point (rtol 1e-9): tight enough to catch a moved
bit pattern in practice, loose enough for a different libm.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec, tcp_gigabit_ethernet
from repro.parallel import MDRunConfig, RunOptions, run_parallel_md

CFG = MDRunConfig(n_steps=2, dt=0.0004)
RTOL = 1e-9

#: per case: rank -> phase -> (comp, comm, sync) virtual seconds, and the
#: final total energy, written from the code before the within-point
#: execution engine was removed
GOLDEN = {
    "pme-replicated-p2": {
        "phases": {
            0: {
                "classic": (0.005737559999999999, 0.0005241063299455833, 0.0005150141406925889),
                "pme": (0.00915424, 0.002149239579332059, 0.001397381793462103),
            },
            1: {
                "classic": (0.0014591, 0.0006244430368314834, 0.0037616682814202826),
                "pme": (0.005144, 0.002160357867030722, 0.006216574833863743),
            },
        },
        "final_total_energy": -168.65287115856754,
    },
    "shift-spatial-p4": {
        "phases": {
            0: {
                "classic": (0.0021267800000000004, 0.0, 0.000559247868696186),
                "halo": (0.0, 0.0010574017522596985, 0.00021237635909582194),
                "migrate": (0.0, 0.0007184123117766404, 0.002264231198442836),
            },
            1: {
                "classic": (0.0039889800000000005, 0.0, 0.0003692763648973716),
                "halo": (0.0, 0.0013573474422551406, 0.00030584568311866825),
                "migrate": (0.0, 0.0007160000000000001, 0.000268),
            },
            2: {
                "classic": (0.0030316999999999996, 0.0, 0.000548372581404051),
                "halo": (0.0, 0.0011818085699162816, 0.00017988332398763168),
                "migrate": (0.0, 0.0007382239999999999, 0.0012024610149632175),
            },
            3: {
                "classic": (0.0029584799999999994, 0.0, 0.0004922360615999666),
                "halo": (0.0, 0.0014519690715010679, 0.00039222942231135577),
                "migrate": (0.0, 0.0007379999999999999, 0.0009055349348587927),
            },
        },
        "final_total_energy": -116.0743812858078,
    },
}


def observed(result) -> dict:
    """The pinned quantities of one run, in the shape of :data:`GOLDEN`."""
    return {
        "phases": {
            rank: {
                name: (tl.phases[name].comp, tl.phases[name].comm, tl.phases[name].sync)
                for name in sorted(tl.phases)
            }
            for rank, tl in enumerate(result.timelines)
        },
        "final_total_energy": result.energies[-1].total,
    }


def _run(system, pos, p, strategy):
    return run_parallel_md(
        system,
        pos,
        ClusterSpec(n_ranks=p, network=tcp_gigabit_ethernet(), seed=11),
        RunOptions(config=CFG, strategy=strategy),
    )


def _assert_matches(got: dict, want: dict) -> None:
    assert got["phases"].keys() == want["phases"].keys()
    for rank, phases in want["phases"].items():
        assert got["phases"][rank].keys() == phases.keys(), f"rank {rank}"
        for name, values in phases.items():
            assert got["phases"][rank][name] == pytest.approx(values, rel=RTOL, abs=0.0), (
                f"rank {rank} phase {name}"
            )
    assert got["final_total_energy"] == pytest.approx(
        want["final_total_energy"], rel=RTOL, abs=0.0
    )


def test_pme_replicated_p2(peptide_system):
    system, pos = peptide_system
    _assert_matches(observed(_run(system, pos, 2, "replicated")), GOLDEN["pme-replicated-p2"])


def test_shift_spatial_p4(peptide_system_shift):
    system, pos = peptide_system_shift
    _assert_matches(observed(_run(system, pos, 4, "spatial")), GOLDEN["shift-spatial-p4"])
