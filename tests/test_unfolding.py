import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molrdf.geometry import CellTensor
from molrdf.unfolding import centers_of_mass, unfold

TRICLINIC = np.array(
    [
        [12.0, 0.0, 0.0],
        [1.8, 11.0, 0.0],
        [1.0, 1.5, 10.0],
    ]
)

# A cubic cell far larger than the molecules, so no bond folds.
WIDE = CellTensor.cubic(1000.0)


def pair_distances(points):
    n = len(points)
    return np.sort(
        [np.linalg.norm(points[i] - points[j]) for i in range(n) for j in range(i + 1, n)]
    )


def lattice_residual(delta, cell):
    """Distance (Angstrom) from each displacement in ``delta`` to the nearest
    lattice vector of ``cell``; along non-periodic directions nothing is a
    lattice vector but zero."""
    s = np.asarray(delta, dtype=float) @ cell.inverse
    s[..., cell.periodic] -= np.round(s[..., cell.periodic])
    return np.linalg.norm(s @ cell.matrix, axis=-1)


def scatter(true, cell, rng, reach=3):
    """``true`` with every site moved by its own random lattice vector."""
    k = rng.integers(-reach, reach + 1, true.shape) * cell.periodic
    return true + k @ cell.matrix


def assert_whole(whole, true, cell):
    """Each molecule of ``whole`` is its true shape moved by one lattice vector."""
    offset = whole - true
    np.testing.assert_allclose(offset, np.broadcast_to(offset[:, :1], offset.shape), atol=1e-9)
    assert lattice_residual(offset[:, 0], cell).max() < 1e-9


class TestUnfoldMolecule:
    def test_single_broken_bond(self):
        cell = CellTensor.cubic(10.0)
        positions = np.array([[[9.8, 0.0, 0.0], [0.4, 0.0, 0.0]]])
        whole = unfold(positions, cell)
        np.testing.assert_allclose(whole[0, 1], [10.4, 0.0, 0.0], atol=1e-12)
        np.testing.assert_array_equal(whole[0, 0], positions[0, 0])
        assert whole[0, 1, 0] - positions[0, 1, 0] == 10.0

    def test_already_whole_returns_same_object(self):
        cell = CellTensor.cubic(10.0)
        positions = np.array([[[1.0, 1.0, 1.0], [2.0, 1.5, 1.0]]] * 3)
        assert unfold(positions, cell) is positions

    def test_no_periodicity_is_identity(self):
        """A bond along a slab's normal never folds, however long."""
        positions = np.array([[[0.0, 0.0, 0.0], [1.0, 1.0, 9.0]]])
        assert unfold(positions, CellTensor(10.0 * np.eye(3), 6)) is positions

    def test_single_site_molecules_are_identity(self):
        positions = np.random.default_rng(2).uniform(-20, 20, (7, 1, 3))
        assert unfold(positions, CellTensor.cubic(10.0)) is positions

    @pytest.mark.parametrize(
        "matrix,imcon",
        [
            (20.0 * np.eye(3), 1),
            (np.diag([16.0, 20.0, 24.0]), 2),
            (TRICLINIC, 3),
        ],
    )
    def test_random_wrap_recovery(self, matrix, imcon):
        """Scattering sites by random lattice vectors must be fully undone."""
        cell = CellTensor(matrix, imcon)
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(2, 21))
            count = int(rng.integers(1, 6))
            # Chains with short steps keep every bond well inside half a cell.
            steps = rng.uniform(-0.6, 0.6, (count, n - 1, 3))
            true = np.concatenate([np.zeros((count, 1, 3)), np.cumsum(steps, axis=1)], axis=1)
            true += rng.uniform(-20, 20, (count, 1, 3))
            whole = unfold(scatter(true, cell, rng), cell)
            assert_whole(whole, true, cell)
            for w, t in zip(whole, true):
                np.testing.assert_allclose(pair_distances(w), pair_distances(t), atol=1e-9)

    def test_slab_wrap_recovery(self):
        cell = CellTensor(np.diag([10.0, 12.0, 50.0]), 6)
        rng = np.random.default_rng(3)
        steps = rng.uniform(-0.8, 0.8, (4, 7, 3))
        true = np.concatenate([np.zeros((4, 1, 3)), np.cumsum(steps, axis=1)], axis=1)
        observed = scatter(true, cell, rng, reach=2)
        whole = unfold(observed, cell)
        assert_whole(whole, true, cell)
        # The non-periodic direction is never touched.
        np.testing.assert_array_equal(whole[..., 2], observed[..., 2])

    def test_whole_copies_keep_their_input_positions(self):
        """Only torn copies move; whole ones come back bit for bit."""
        cell = CellTensor(TRICLINIC, 3)
        rng = np.random.default_rng(9)
        steps = rng.uniform(-0.7, 0.7, (6, 4, 3))
        true = np.concatenate([np.zeros((6, 1, 3)), np.cumsum(steps, axis=1)], axis=1)
        observed = true.copy()
        observed[[1, 4]] = scatter(true[[1, 4]], cell, rng)
        torn = (np.abs(observed - true).max(axis=(1, 2)) > 0).nonzero()[0]
        assert list(torn) == [1, 4]
        whole = unfold(observed, cell)
        untouched = [0, 2, 3, 5]
        np.testing.assert_array_equal(whole[untouched], observed[untouched])
        assert_whole(whole, true, cell)

    def test_chain_longer_than_half_the_cell(self):
        """Only bonds must stay below half the cell, not the whole molecule."""
        cell = CellTensor.cubic(10.0)
        true = np.array([[[1.0 + 1.5 * i, 0.2, 0.3] for i in range(7)]])  # 9 A long
        whole = unfold(scatter(true, cell, np.random.default_rng(5)), cell)
        assert_whole(whole, true, cell)

    def test_bond_longer_than_half_the_cell_is_not_recovered(self):
        """The documented limit: a 6 A bond in a 10 A cell folds to -4 A."""
        cell = CellTensor.cubic(10.0)
        positions = np.array([[[0.0, 0.0, 0.0], [6.0, 0.0, 0.0]]])
        whole = unfold(positions, cell)
        np.testing.assert_allclose(whole[0, 1], [-4.0, 0.0, 0.0], atol=1e-12)
        com = centers_of_mass(positions, [1.0, 1.0], cell)
        np.testing.assert_allclose(com, [[-2.0, 0.0, 0.0]], atol=1e-12)


class TestInputValidation:
    def test_shape_validation(self):
        cell = CellTensor.cubic(10.0)
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 2)), cell)
        with pytest.raises(ValueError):
            unfold(np.zeros((1, 2, 2)), cell)
        with pytest.raises(ValueError):
            centers_of_mass(np.zeros((1, 2, 3)), np.ones(3), cell)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            centers_of_mass(np.zeros((1, 2, 3)), [2.0, -1.0], CellTensor.cubic(10.0))


class TestCenterOfMass:
    def test_weighted_mean(self):
        positions = np.array([[[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]])
        np.testing.assert_allclose(centers_of_mass(positions, [1.0, 2.0], WIDE), [[2.0, 0.0, 0.0]])

    def test_zero_mass_sites_do_not_contribute(self):
        rng = np.random.default_rng(8)
        positions = rng.uniform(-5, 5, (3, 6, 3))
        masses = np.array([2.5, 0.0, 1.5, 0.0, 0.0, 4.0])
        expected = (
            2.5 * positions[:, 0] + 1.5 * positions[:, 2] + 4.0 * positions[:, 5]
        ) / 8.0
        np.testing.assert_allclose(centers_of_mass(positions, masses, WIDE), expected, atol=1e-12)

    def test_mass_scaling_invariance(self):
        rng = np.random.default_rng(13)
        positions = rng.uniform(-5, 5, (4, 5, 3))
        masses = rng.uniform(0.5, 10.0, 5)
        a = centers_of_mass(positions, masses, WIDE)
        b = centers_of_mass(positions, 7.0 * masses, WIDE)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_all_massless_gives_none(self):
        positions = np.array([[[1.0, 2.0, 3.0]]])
        assert centers_of_mass(positions, [0.0], CellTensor.cubic(10.0)) is None

    def test_one_row_per_copy_in_input_order(self):
        rng = np.random.default_rng(21)
        positions = rng.uniform(-5, 5, (5, 3, 3))
        masses = np.array([16.0, 1.0, 1.0])
        coms = centers_of_mass(positions, masses, WIDE)
        assert coms.shape == (5, 3)
        for k in range(5):
            np.testing.assert_allclose(coms[k], masses @ positions[k] / 18.0, atol=1e-12)


def _cell_for(imcon, lengths, tilts):
    a, b, c = lengths
    if imcon == 1:
        return CellTensor.cubic(a)
    if imcon == 2:
        return CellTensor.orthorhombic(a, b, c)
    if imcon == 3:
        return CellTensor(
            [[a, 0.0, 0.0], [tilts[0] * a, b, 0.0], [tilts[1] * a, tilts[2] * b, c]], 3
        )
    return CellTensor([[a, 0.0, 0.0], [tilts[0] * a, b, 0.0], [0.0, 0.0, c]], 6)


class TestUnfoldProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        imcon=st.sampled_from([1, 2, 3, 6]),
        count=st.integers(1, 40),
        n_sites=st.integers(1, 30),
        lengths=st.tuples(*[st.floats(8.0, 40.0)] * 3),
        tilts=st.tuples(*[st.floats(-0.3, 0.3)] * 3),
        massless_share=st.floats(0.0, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_com_is_true_com_modulo_a_lattice_vector(
        self, imcon, count, n_sites, lengths, tilts, massless_share, seed
    ):
        cell = _cell_for(imcon, lengths, tilts)
        rng = np.random.default_rng(seed)
        # Bonds shorter than a quarter of the narrowest periodic width.
        longest = 0.5 * min(cell.min_image_cutoff, 20.0)
        steps = rng.standard_normal((count, n_sites - 1, 3))
        steps *= (rng.uniform(0.0, longest, (count, n_sites - 1)) / np.linalg.norm(steps, axis=2))[..., None]
        true = np.concatenate([np.zeros((count, 1, 3)), np.cumsum(steps, axis=1)], axis=1)
        true += rng.uniform(-60.0, 60.0, (count, 1, 3))
        masses = rng.uniform(0.5, 20.0, n_sites) * (rng.uniform(size=n_sites) >= massless_share)
        masses[rng.integers(n_sites)] = rng.uniform(0.5, 20.0)

        observed = scatter(true, cell, rng)
        coms = centers_of_mass(observed, masses, cell)
        true_coms = masses @ true / masses.sum()
        assert coms.shape == (count, 3)
        assert lattice_residual(coms - true_coms, cell).max() < 1e-9
        assert_whole(unfold(observed, cell), true, cell)


def wrap(positions, cell):
    """Every site folded into the cell along its periodic directions, as a
    trajectory writes it: a molecule that straddles a face comes apart."""
    s = positions @ cell.inverse
    s[..., cell.periodic] -= np.floor(s[..., cell.periodic])
    return s @ cell.matrix


class TestStackedFrames:
    """The copies of a type in k frames that share a cell, stacked into one
    ``(k * count, n_sites, 3)`` array, get the centres of mass of k calls on
    their frames alone, bit for bit: to_reduced, the fold product and the
    mass product run per molecule on the same shapes either way."""

    @settings(max_examples=200, deadline=None)
    @given(
        imcon=st.sampled_from([1, 2, 3, 6]),
        frames=st.integers(2, 64),
        count=st.integers(1, 19),
        n_sites=st.integers(1, 30),
        lengths=st.tuples(*[st.floats(8.0, 40.0)] * 3),
        tilts=st.tuples(*[st.floats(-0.4, 0.4)] * 3),
        massless_share=st.floats(0.0, 0.9),
        one_torn=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_centres_of_mass_equal_frame_by_frame(
        self, imcon, frames, count, n_sites, lengths, tilts, massless_share, one_torn, seed
    ):
        cell = _cell_for(imcon, lengths, tilts)
        rng = np.random.default_rng(seed)
        # Bonds shorter than a quarter of the narrowest periodic width.
        longest = 0.5 * min(cell.min_image_cutoff, 20.0)
        steps = rng.standard_normal((frames, count, n_sites - 1, 3))
        steps *= (rng.uniform(0.0, longest, steps.shape[:3]) / np.linalg.norm(steps, axis=3))[..., None]
        true = np.concatenate([np.zeros((frames, count, 1, 3)), np.cumsum(steps, axis=2)], axis=2)
        true += rng.uniform(0.0, 1.0, (frames, count, 1, 3)) @ cell.matrix
        masses = rng.uniform(0.5, 20.0, n_sites) * (rng.uniform(size=n_sites) >= massless_share)
        masses[rng.integers(n_sites)] = rng.uniform(0.5, 20.0)
        if one_torn:
            # Only one frame needs a fold; the others are whole as given.
            positions = true.copy()
            torn = rng.integers(frames)
            positions[torn] = scatter(true[torn], cell, rng)
            for f, whole in enumerate(positions):
                if f != torn:
                    assert unfold(whole, cell) is whole
        else:
            positions = wrap(true, cell)

        stacked = centers_of_mass(positions.reshape(frames * count, n_sites, 3), masses, cell)
        one_by_one = np.stack([centers_of_mass(p, masses, cell) for p in positions])
        assert stacked.tobytes() == one_by_one.tobytes()
