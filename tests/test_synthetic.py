import numpy as np
import pytest

from molrdf.errors import InputError
from molrdf.geometry import CellTensor, to_reduced
from molrdf.synthetic import (
    SyntheticConfig,
    gen_offsets,
    gen_topology,
    generate_dataset,
    random_in_sphere,
    random_rotation,
    random_unit_vector,
    wrap_point,
)
from molrdf.trajectory_io import HistoryReader, parse_directives, parse_field
from molrdf.unfolding import centers_of_mass


class TestConfig:
    def test_defaults(self):
        cfg = SyntheticConfig()
        assert (cfg.n_sites, cfg.radius, cfg.distance) == (8, 3.0, 5.0)
        assert (cfg.cell_length, cfg.n_frames, cfg.seed) == (30.0, 200, 2024)

    def test_molecules_must_fit_in_half_cell(self):
        with pytest.raises(InputError, match="half the cell"):
            SyntheticConfig(distance=10.0, radius=3.0, cell_length=30.0)

    def test_bad_sizes(self):
        with pytest.raises(InputError):
            SyntheticConfig(n_sites=0)
        with pytest.raises(InputError):
            SyntheticConfig(n_frames=0)


TRICLINIC = np.array(
    [
        [10.0, 0.0, 0.0],
        [1.5, 9.0, 0.0],
        [1.0, 1.2, 8.0],
    ]
)


class TestWrapPoint:
    def test_known_cubic_values(self):
        cell = CellTensor.cubic(10.0)
        np.testing.assert_allclose(wrap_point(np.array([6.0, -6.0, 4.9]), cell), [-4.0, 4.0, 4.9])

    def test_cell_midpoint_goes_to_corner(self):
        # Reduced 0.5 lies on the upper boundary and folds to the lower one.
        cell = CellTensor.cubic(10.0)
        np.testing.assert_allclose(wrap_point(np.full(3, 5.0), cell), np.full(3, -5.0))

    def test_idempotent_bitwise(self):
        cell = CellTensor(TRICLINIC, imcon=3)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-40, 40, (300, 3))
        once = wrap_point(pts, cell)
        np.testing.assert_array_equal(wrap_point(once, cell), once)

    def test_invariant_under_lattice_translation(self):
        cell = CellTensor(TRICLINIC, imcon=3)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-10, 10, (200, 3))
        shifts = rng.integers(-3, 4, (200, 3)) @ TRICLINIC
        np.testing.assert_allclose(wrap_point(pts + shifts, cell), wrap_point(pts, cell), atol=1e-10)

    def test_wrapped_reduced_range(self):
        cell = CellTensor(TRICLINIC, imcon=3)
        rng = np.random.default_rng(9)
        s = to_reduced(wrap_point(rng.uniform(-50, 50, (400, 3)), cell), cell)
        assert np.all(s >= -0.5 - 1e-12) and np.all(s < 0.5 + 1e-12)

    def test_slab_wraps_two_directions(self):
        cell = CellTensor(np.diag([10.0, 10.0, 40.0]), imcon=6)
        wrapped = wrap_point(np.array([11.0, -7.0, 35.0]), cell)
        np.testing.assert_allclose(wrapped, [1.0, 3.0, 35.0])


class TestSamplers:
    def test_unit_vectors_are_unit(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert np.linalg.norm(random_unit_vector(rng)) == pytest.approx(1.0, abs=1e-12)

    def test_rotations_are_orthogonal(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            r = random_rotation(rng)
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_rotated_direction_has_zero_mean(self):
        # Components of a uniformly random unit vector have variance 1/3.
        rng = np.random.default_rng(3)
        n = 4000
        vecs = np.stack([random_rotation(rng) @ np.array([0.0, 0.0, 1.0]) for _ in range(n)])
        bound = 5.0 * np.sqrt(1.0 / (3.0 * n))
        assert np.all(np.abs(vecs.mean(axis=0)) < bound)

    def test_in_sphere_radii(self):
        rng = np.random.default_rng(4)
        pts = random_in_sphere(rng, 2.5, 500)
        assert np.all(np.linalg.norm(pts, axis=1) <= 2.5 + 1e-12)


class TestGroundTruth:
    def test_offsets_are_com_centered(self):
        cfg = SyntheticConfig(n_frames=1)
        rng = np.random.default_rng(cfg.seed)
        topo = gen_topology(cfg, rng)
        for mol, offsets in zip(topo.molecules, gen_offsets(cfg, topo, rng)):
            com = mol.masses @ offsets / mol.total_mass
            np.testing.assert_allclose(com, 0.0, atol=1e-12 * cfg.radius)

    def test_com_distance_pegged_in_every_frame(self, tmp_path):
        cfg = SyntheticConfig(n_frames=25)
        ds = generate_dataset(cfg, tmp_path)
        masses = np.concatenate([m.masses for m in ds.topology.molecules])
        for frame in ds.unwrapped_frames:
            com1 = masses[:8] @ frame[:8] / masses[:8].sum()
            com2 = masses[8:] @ frame[8:] / masses[8:].sum()
            assert np.linalg.norm(com2 - com1) == pytest.approx(cfg.distance, abs=1e-12)

    def test_sites_stay_within_radius(self, tmp_path):
        cfg = SyntheticConfig(n_frames=10)
        ds = generate_dataset(cfg, tmp_path)
        masses = np.concatenate([m.masses for m in ds.topology.molecules])
        for frame in ds.unwrapped_frames:
            for sl in (slice(0, 8), slice(8, 16)):
                com = masses[sl] @ frame[sl] / masses[sl].sum()
                spread = np.linalg.norm(frame[sl] - com, axis=1)
                assert np.all(spread <= 2 * cfg.radius + 1e-9)


class TestGeneratedFiles:
    def test_deterministic_bytes(self, tmp_path):
        cfg = SyntheticConfig(n_frames=12, seed=99)
        a = generate_dataset(cfg, tmp_path / "a")
        b = generate_dataset(cfg, tmp_path / "b")
        for x, y in [
            (a.control_path, b.control_path),
            (a.field_path, b.field_path),
            (a.history_path, b.history_path),
        ]:
            assert x.read_bytes() == y.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = generate_dataset(SyntheticConfig(n_frames=3, seed=1), tmp_path / "a")
        b = generate_dataset(SyntheticConfig(n_frames=3, seed=2), tmp_path / "b")
        assert a.history_path.read_bytes() != b.history_path.read_bytes()

    def test_field_round_trips(self, tmp_path):
        ds = generate_dataset(SyntheticConfig(n_frames=2), tmp_path)
        topo = parse_field(ds.field_path.read_text())
        assert topo == ds.topology

    def test_control_parses_to_defaults_with_explicit_binning(self, tmp_path):
        ds = generate_dataset(SyntheticConfig(n_frames=2), tmp_path)
        d = parse_directives(ds.control_path.read_text())
        assert (d.rmax, d.dr, d.smooth) == (12.5, 0.1, False)

    def test_history_round_trips(self, tmp_path):
        cfg = SyntheticConfig(n_frames=7)
        ds = generate_dataset(cfg, tmp_path)
        with HistoryReader(ds.history_path, expected_natoms=16) as reader:
            frames = list(reader)
        assert len(frames) == 7
        assert not reader.truncated
        assert frames[0].cell.imcon == 1
        np.testing.assert_allclose(frames[0].cell.matrix, 30.0 * np.eye(3))

    def test_headerless_option(self, tmp_path):
        ds = generate_dataset(SyntheticConfig(n_frames=2), tmp_path)
        text = ds.history_path.read_text()
        ds.history_path.write_text(text.split("\n", 2)[2])
        first = ds.history_path.read_text().split(maxsplit=1)[0]
        assert first == "timestep"
        with HistoryReader(ds.history_path) as reader:
            assert len(list(reader)) == 2

    def test_com_distance_survives_file_round_trip(self, tmp_path):
        """Wrap, write, parse and unfold must preserve the pegged separation
        and give the true centres of mass up to a lattice vector."""
        cfg = SyntheticConfig(n_frames=15)
        ds = generate_dataset(cfg, tmp_path)
        masses = [m.masses for m in ds.topology.molecules]
        sites = (slice(0, 8), slice(8, 16))
        with HistoryReader(ds.history_path) as reader:
            frames = list(reader)
        assert len(frames) == len(ds.unwrapped_frames)
        for frame, true in zip(frames, ds.unwrapped_frames):
            coms = [
                centers_of_mass(frame.positions[sl][None], m, frame.cell)[0]
                for sl, m in zip(sites, masses)
            ]
            for com, sl, m in zip(coms, sites, masses):
                off = com - m @ true[sl] / m.sum()
                np.testing.assert_allclose(
                    off, cfg.cell_length * np.round(off / cfg.cell_length), atol=1e-9
                )
            # Each molecule unfolds in its own periodic image, so fold
            # the separation back per axis before measuring it.
            d = coms[1] - coms[0]
            d -= cfg.cell_length * np.floor(d / cfg.cell_length + 0.5)
            assert np.linalg.norm(d) == pytest.approx(cfg.distance, abs=1e-9)

    def test_first_molecule_actually_fragments(self, tmp_path):
        """The benchmark must exercise unfolding, not just binning."""
        cfg = SyntheticConfig(n_frames=5)
        ds = generate_dataset(cfg, tmp_path)
        fragmented = 0
        with HistoryReader(ds.history_path) as reader:
            for frame in reader:
                span = np.ptp(frame.positions[:8], axis=0)
                if np.any(span > 2 * cfg.cell_length / 3):
                    fragmented += 1
        assert fragmented == 5
