"""The 3552-atom benchmark system: paper-matching composition."""

import numpy as np
import pytest

from repro.workloads import PME_GRID, TARGET_ATOMS, myoglobin_workload
from repro.workloads.myoglobin import (
    N_RESIDUES,
    N_SEGMENTS,
    N_WATERS,
    _sidechain_plan,
)


@pytest.fixture(scope="module")
def system():
    return myoglobin_workload()  # cached: built once per process


class TestComposition:
    def test_total_atom_count(self, system):
        assert system.n_atoms == TARGET_ATOMS == 3552

    def test_neutral(self, system):
        assert system.topology.total_charge() == pytest.approx(0.0, abs=1e-9)

    def test_pme_grid_matches_paper(self, system):
        assert system.pme_grid == PME_GRID == (80, 36, 48)

    def test_residue_count(self, system):
        protein_residues = {
            (a.segment, a.residue_index)
            for a in system.topology.atoms
            if a.segment.startswith("HLX")
        }
        assert len(protein_residues) == N_RESIDUES == 153

    def test_water_count(self, system):
        n_wat = sum(1 for a in system.topology.atoms if a.residue == "TIP3")
        assert n_wat == 3 * N_WATERS == 1011

    def test_hetero_groups_present(self, system):
        residues = {a.residue for a in system.topology.atoms}
        assert "CO" in residues and "SO4" in residues

    def test_segment_count(self, system):
        segments = {a.segment for a in system.topology.atoms if a.segment.startswith("HLX")}
        assert len(segments) == N_SEGMENTS == 8

    def test_protein_charge_plus_two(self, system):
        q = sum(
            a.charge for a in system.topology.atoms if a.segment.startswith("HLX")
        )
        assert q == pytest.approx(2.0, abs=1e-9)

    def test_sidechain_plan(self):
        ks = _sidechain_plan()
        assert len(ks) == 153
        assert ks.count(3) == 23
        assert ks.count(2) == 130


class TestGeometry:
    def test_all_atoms_in_box_neighbourhood(self, system):
        wrapped = system.box.wrap(system.positions)
        assert np.all(wrapped >= 0)
        assert np.all(wrapped < system.box.lengths)

    def test_no_steric_clashes(self, system):
        from repro.md.neighborlist import brute_force_pairs

        pairs = brute_force_pairs(system.positions, system.box, 1.4)
        excl = {(int(i), int(j)) for i, j in system.topology.exclusion_pairs()}
        clashes = [(i, j) for i, j in map(tuple, pairs) if (i, j) not in excl]
        assert clashes == []

    def test_deterministic_build(self, system):
        from repro.workloads import build_myoglobin

        again = build_myoglobin()
        assert np.array_equal(again.positions, system.positions)

    def test_box_from_grid(self, system):
        assert np.allclose(system.box.lengths, np.array(PME_GRID) * 1.2)


class TestEnergetics:
    def test_finite_energy_and_bounded_forces(self, system):
        from repro.workloads import myoglobin_system

        md = myoglobin_system("pme")
        breakdown, forces = md.energy_forces(system.positions)
        assert np.isfinite(breakdown.total)
        assert breakdown.bond == pytest.approx(0.0, abs=1e-6)
        assert np.abs(forces).max() < 500.0  # no catastrophic contact

    def test_workload_pair_count_realistic(self, system):
        """The paper's system has hundreds of thousands of cutoff pairs."""
        from repro.workloads import myoglobin_system

        md = myoglobin_system("pme")
        md.neighbor_list.ensure(system.positions)
        md.classic_energy_forces(system.positions)
        assert 200_000 < md.nonbonded.last_pair_count < 600_000


class TestLocalSearch:
    """The builder's tree searches against the all-pairs scans they replace."""

    @pytest.fixture(scope="class")
    def solute(self, system):
        n_protein = sum(1 for a in system.topology.atoms if a.segment.startswith("HLX"))
        n_solute = sum(1 for a in system.topology.atoms if a.residue != "TIP3")
        return system.positions[:n_protein], system.positions[:n_solute]

    @pytest.mark.parametrize("which", [0, 1], ids=["protein", "placed"])
    def test_lattice_candidates_match_full_scan(self, system, solute, which):
        from repro.workloads import lattice_points
        from repro.workloads.myoglobin import _min_distance_to, _nearest_distance

        box = system.box
        candidates = lattice_points(box.lengths, spacing=3.1, margin=1.8)
        targets = solute[which]
        assert np.array_equal(
            _nearest_distance(candidates, targets, box),
            _min_distance_to(candidates, targets, box),
        )

    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_unwrapped_and_face_points_match_full_scan(self, system, solute, k):
        from repro.workloads.myoglobin import _min_distance_to, _nearest_distance

        box = system.box
        lengths = box.lengths
        rng = np.random.default_rng(7)
        # coordinates far outside [0, L), plus points exactly on the faces
        # and corners of the box and on their periodic images
        outside = rng.uniform(-1.5, 2.5, size=(400, 3)) * lengths
        faces = rng.uniform(0.0, 1.0, size=(300, 3)) * lengths
        axis = np.arange(300) % 3
        faces[np.arange(300), axis] = np.resize([0.0, 1.0, -1.0, 2.0], 300) * lengths[axis]
        corners = np.array(
            [[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)], dtype=np.float64
        ) * lengths
        points = np.vstack([outside, faces, corners])
        # targets shifted by whole box vectors are the same atoms to min-image
        targets = solute[1] + rng.integers(-1, 2, size=solute[1].shape) * lengths
        assert np.array_equal(
            _nearest_distance(points, targets, box, k=k),
            _min_distance_to(points, targets, box),
        )

    @pytest.mark.parametrize("k", [1, 2])
    def test_ties_beyond_k_match_full_scan(self, k):
        """More than ``k`` targets equidistant (in exact arithmetic) from a
        point: tree and min-image rounding disagree about which is nearest,
        so only the full-scan fallback recovers the exact minimum."""
        from repro.md.box import PeriodicBox
        from repro.workloads.myoglobin import _min_distance_to, _nearest_distance

        box = PeriodicBox(20.0, 20.0, 20.0)
        rng = np.random.default_rng(0)
        for _ in range(40):
            point = rng.uniform(-20.0, 40.0, size=(1, 3))
            directions = rng.normal(size=(64, 3))
            directions /= np.linalg.norm(directions, axis=1)[:, None]
            images = rng.integers(-1, 2, size=(64, 3)) * box.lengths
            targets = point + rng.uniform(0.5, 5.0) * directions + images
            assert np.array_equal(
                _nearest_distance(point, targets, box, k=k),
                _min_distance_to(point, targets, box),
            )

    @pytest.mark.parametrize("min_dist", [1.4, 1.5, 2.0])
    def test_clash_pairs_match_brute_force(self, system, min_dist):
        from repro.md.neighborlist import brute_force_pairs
        from repro.workloads.myoglobin import _close_pairs

        assert np.array_equal(
            _close_pairs(system.positions, system.box, min_dist),
            brute_force_pairs(system.positions, system.box, min_dist),
        )


def test_exhausted_water_orientations_raise(monkeypatch):
    """Every orientation of a water clashes: the build fails, naming it."""
    from repro.workloads import myoglobin
    from repro.workloads.solvent import water_coords

    first_site: list[np.ndarray] = []

    def stacked(forcefield, origin, orientation_seed=0):
        # every water lands on the first one's oxygen
        if not first_site:
            first_site.append(np.array(origin))
        return water_coords(forcefield, first_site[0], orientation_seed)

    monkeypatch.setattr(myoglobin, "water_coords", stacked)
    with pytest.raises(RuntimeError, match=r"water 1\b"):
        myoglobin.build_myoglobin(n_waters=3)
