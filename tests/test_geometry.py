import warnings
from unittest import mock

import numpy as np
import pytest

from molrdf.errors import InputError
from molrdf.geometry import CellTensor, nint, to_reduced
from molrdf.rdf_engine import PairHistogram, accumulate_frame
from molrdf.unfolding import unfold

TRICLINIC = np.array(
    [
        [10.0, 0.0, 0.0],
        [1.5, 9.0, 0.0],
        [1.0, 1.2, 8.0],
    ]
)


def adjugate_inverse(m):
    """Independent 3x3 inverse via the cofactor expansion."""
    cof = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            cof[i, j] = (-1) ** (i + j) * (
                minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0]
            )
    det = m[0] @ np.cross(m[1], m[2])
    return cof.T / det


class TestNint:
    def test_half_rounds_away_from_zero(self):
        assert nint(0.5) == 1.0
        assert nint(-0.5) == -1.0
        assert nint(2.5) == 3.0
        assert nint(-2.5) == -3.0

    def test_near_half(self):
        assert nint(0.49) == 0.0
        assert nint(-0.49) == 0.0
        assert nint(1.51) == 2.0

    def test_vectorized(self):
        np.testing.assert_array_equal(
            nint([-1.5, -0.2, 0.0, 0.2, 1.5]), [-2.0, 0.0, 0.0, 0.0, 2.0]
        )

    def test_equals_floor_and_ceil_form_bit_for_bit(self):
        """With and without ``out``, nint gives the bits of floor(x + 1/2),
        or ceil(x - 1/2) where x's sign bit is set, so that -0.0 keeps its
        sign: on halves, the largest double below 1/2, signed zeros and
        infinities, nan, 2^52 +- 0.5, subnormals and random values, on a 0-d
        input as n_bins passes, and into a slice of a 2-D buffer as the pair
        kernel passes."""

        def reference(x):
            return np.where(np.signbit(x), np.ceil(x - 0.5), np.floor(x + 0.5))

        tiny = np.nextafter(0.0, 1.0)
        special = [0.0, 0.5, 0.49999999999999994, 1.5, 2.5, np.inf, np.nan]
        special += [2.0**52 - 0.5, 2.0**52, 2.0**52 + 0.5, tiny, 1e3 * tiny, 2.0**-1022]
        rng = np.random.default_rng(12)
        x = np.concatenate(
            [special, np.negative(special), rng.uniform(-3, 3, 5000), rng.normal(0, 1e6, 500)]
        )
        assert np.signbit(x).any() and np.signbit(np.negative(0.0))
        assert nint(x).tobytes() == reference(x).tobytes()
        for v in x[: 2 * len(special)]:
            assert nint(v).tobytes() == reference(v).tobytes()
            assert nint(np.array(v)).shape == ()
        # Into a row slice of a 2-D buffer, flat and reshaped to 2-D as the
        # kernel's chunk rows are; the rest of the buffer is left alone.
        for shape in [(-1,), (2, -1)]:
            buf = np.full((2, x.size + 4), 7.0)
            out = buf[1, 2 : x.size + 2].reshape(shape)
            assert nint(x.reshape(shape), out=out) is out
            assert out.tobytes() == reference(x.reshape(shape)).tobytes()
            assert (buf[0] == 7.0).all() and (buf[1, [0, 1, -2, -1]] == 7.0).all()
        assert nint(0.49999999999999994) == 1.0 and nint(-0.5) == -1.0


class TestCellTensor:
    def test_cubic_factory(self):
        cell = CellTensor.cubic(12.0)
        assert cell.imcon == 1
        np.testing.assert_array_equal(cell.matrix, 12.0 * np.eye(3))

    def test_cubic_requires_equal_edges(self):
        with pytest.raises(InputError):
            CellTensor(np.diag([10.0, 10.0, 11.0]), imcon=1)

    def test_orthorhombic_rejects_off_diagonal(self):
        bad = np.diag([10.0, 11.0, 12.0])
        bad[0, 1] = 0.5
        with pytest.raises(InputError):
            CellTensor(bad, imcon=2)

    def test_singular_rejected(self):
        m = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]])
        with pytest.raises(InputError, match="singular"):
            CellTensor(m, imcon=3)

    @pytest.mark.parametrize("imcon, m", [(2, np.diag([1e200] * 3)), (3, 1e200 * TRICLINIC)])
    def test_overflowing_volume_rejected(self, imcon, m):
        """Finite rows whose volume overflows, with no numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = "^cell volume overflows; the cell rows are too large$"
            with pytest.raises(InputError, match=message):
                CellTensor(m, imcon=imcon)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(InputError, match=r"^cell matrix must be 3x3, got shape \(2, 3\)$"):
            CellTensor(np.ones((2, 3)), imcon=3)

    def test_unsupported_imcon(self):
        with pytest.raises(InputError, match="imcon"):
            CellTensor(np.eye(3), imcon=5)

    def test_imcon_zero_rejected(self):
        """g(r) needs the bulk density N/V, so a cell without periodic
        boundaries is not a cell here."""
        with pytest.raises(InputError, match=r"imcon=0 \(supported: \[1, 2, 3, 6\]\)"):
            CellTensor(np.zeros((3, 3)), 0)

    @pytest.mark.parametrize("name", ["matrix", "inverse"])
    def test_arrays_are_read_only(self, name):
        """One cell serves every frame that shares it, so a write into its
        arrays would reach later frames."""
        given = TRICLINIC.copy()
        array = getattr(CellTensor(given, imcon=3), name)
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            array *= 2.0
        given[0, 0] = 1.0  # the caller's array is copied, not frozen
        assert array[0, 0] != 1.0

    def test_derived_values_computed_once_per_cell(self):
        """One determinant per cell, made at construction, which both checks
        the cell and gives its volume."""
        with mock.patch.object(np.linalg, "det", wraps=np.linalg.det) as det, \
                mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm) as norm:
            cell = CellTensor(TRICLINIC, imcon=3)
            first = (cell.volume, cell.min_image_cutoff, cell.heights)
            calls = (det.call_count, norm.call_count)
            again = (cell.volume, cell.min_image_cutoff, cell.heights)
            assert (det.call_count, norm.call_count) == calls == (1, 1)
        assert first[0] == again[0] and first[1] == again[1] and first[2] is again[2]
        with pytest.raises(ValueError, match="read-only"):
            again[2][0] = 1.0

    def test_periodic_mask_codes(self):
        periodic = CellTensor.cubic(10.0).periodic
        np.testing.assert_array_equal(periodic, [True, True, True])
        np.testing.assert_array_equal(CellTensor(np.eye(3), 6).periodic, [True, True, False])
        with pytest.raises(InputError, match=r"imcon=4 \(supported: \[1, 2, 3, 6\]\)"):
            CellTensor(np.eye(3), 4)
        with pytest.raises(ValueError, match="read-only"):
            periodic[0] = True


class TestReducedCoordinates:
    def test_round_trip_against_cofactor_inverse(self):
        cell = CellTensor(TRICLINIC, imcon=3)
        rng = np.random.default_rng(7)
        points = rng.uniform(-30, 30, size=(1000, 3))
        s = to_reduced(points, cell)
        np.testing.assert_allclose(s, points @ adjugate_inverse(TRICLINIC), atol=1e-12)
        np.testing.assert_allclose(s @ cell.matrix, points, atol=1e-12 * 30)

    def test_lattice_vectors_reduce_to_unit_rows(self):
        cell = CellTensor(TRICLINIC, imcon=3)
        np.testing.assert_allclose(to_reduced(TRICLINIC, cell), np.eye(3), atol=1e-14)


class TestVolume:
    def test_matches_scalar_triple_product(self):
        cell = CellTensor(TRICLINIC, imcon=3)
        expected = abs(TRICLINIC[0] @ np.cross(TRICLINIC[1], TRICLINIC[2]))
        assert cell.volume == pytest.approx(expected, rel=1e-14)

    def test_cubic(self):
        assert CellTensor.cubic(30.0).volume == pytest.approx(27000.0, rel=1e-14)

    def test_has_the_bits_of_the_determinant(self):
        cell = CellTensor(TRICLINIC, imcon=3)
        assert cell.volume.hex() == float(abs(np.linalg.det(TRICLINIC))).hex()


def folded_bond(s_from, s_to, cell):
    """Reduced displacement from site ``s_from`` to ``s_to`` of two-site
    molecules after :func:`unfold` has made them whole."""
    sites = np.stack([s_from, s_to], axis=-2) @ cell.matrix
    whole = unfold(sites.reshape(-1, 2, 3), cell)
    return to_reduced(whole[:, 1] - whole[:, 0], cell)


class TestMinImage:
    """The minimum-image fold ``d - nint(d)`` of reduced displacements, as
    ``unfold`` applies it to bonds and ``accumulate_frame`` to pairs."""

    def test_reduced_components_fold_to_half(self):
        d = folded_bond(np.zeros(3), np.array([0.9, -0.6, 0.4]), CellTensor.cubic(10.0))
        np.testing.assert_allclose(d, [[-0.1, 0.4, 0.4]], atol=1e-15)

    def test_slab_leaves_third_direction_alone(self):
        cell = CellTensor(np.diag([10.0, 10.0, 40.0]), imcon=6)
        d = folded_bond(np.zeros(3), np.array([0.9, 0.9, 0.9]), cell)
        np.testing.assert_allclose(d, [[-0.1, -0.1, 0.9]], atol=1e-15)

    def test_no_periodicity_is_plain_difference(self):
        """Along a slab's normal nothing folds, however far apart."""
        a, b = np.array([0.1, 0.2, 0.3]), np.array([3.0, -2.0, 30.0])
        cell = CellTensor(np.diag([10.0, 10.0, 40.0]), 6)
        whole = unfold(np.array([[a, b]]), cell)
        np.testing.assert_array_equal(whole[0, 1] - whole[0, 0], b - a)
        # 30 apart along a 40 A normal: a periodic c would fold it to 10.
        hist = PairHistogram.create(1, rmax=40.0, dr=0.5)
        accumulate_frame(hist, np.array([0, 0]), np.array([a, b]), cell)
        r = np.sqrt(((b - a) ** 2).sum())
        assert hist.counts[0, 0, int(nint(r / 0.5))] == 2
        assert hist.counts.sum() == 2

    def test_components_bounded_by_half(self):
        # Multiples of 1/64 in a unit cube fold exactly, including the
        # components of exactly +-0.5, which flip sign.
        rng = np.random.default_rng(11)
        s_from, s_to = rng.integers(-320, 320, (2, 500, 3)) / 64
        s_to[0] = s_from[0] + [0.5, -0.5, 1.5]
        d = folded_bond(s_from, s_to, CellTensor.cubic(1.0))
        assert np.all(np.abs(d) <= 0.5)
        np.testing.assert_array_equal(d[0], [-0.5, 0.5, -0.5])
        shift = d - (s_to - s_from)
        np.testing.assert_array_equal(shift, np.round(shift))


class TestMinImageCutoff:
    def test_cubic_half_edge(self):
        assert CellTensor.cubic(30.0).min_image_cutoff == pytest.approx(15.0)

    def test_orthorhombic_shortest_half_edge(self):
        cell = CellTensor.orthorhombic(10.0, 24.0, 18.0)
        assert cell.min_image_cutoff == pytest.approx(5.0)

    def test_triclinic_uses_perpendicular_widths(self):
        cell = CellTensor(TRICLINIC, imcon=3)
        m = TRICLINIC
        widths = []
        vol = abs(m[0] @ np.cross(m[1], m[2]))
        for i in range(3):
            area = np.linalg.norm(np.cross(m[(i + 1) % 3], m[(i + 2) % 3]))
            widths.append(vol / area)
        assert cell.min_image_cutoff == pytest.approx(min(widths) / 2, rel=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_triclinic_agrees_with_volume_over_face_area(self, seed):
        """The heights from the inverse's columns match volume / face area,
        the determinant and cross-product form used before."""
        rng = np.random.default_rng(seed)
        m = np.diag(rng.uniform(5.0, 40.0, 3)) + np.tril(rng.uniform(-8.0, 8.0, (3, 3)), -1)
        cell = CellTensor(m, imcon=3)
        a, b, c = m
        vol = abs(np.linalg.det(m))
        old = 0.5 * min(
            vol / np.linalg.norm(np.cross(b, c)),
            vol / np.linalg.norm(np.cross(c, a)),
            vol / np.linalg.norm(np.cross(a, b)),
        )
        assert cell.min_image_cutoff == pytest.approx(old, rel=1e-12, abs=0.0)

    def test_slab_keeps_in_plane_width(self):
        """imcon 6 ignores the non-periodic c vector, however short it is."""
        cell = CellTensor(np.array([[10.0, 0.0, 0.0], [4.0, 12.0, 0.0], [0.0, 0.0, 1.0]]), imcon=6)
        assert cell.min_image_cutoff == pytest.approx(5.0 * 12.0 / np.hypot(4.0, 12.0))


class TestPerpendicularHeights:
    def test_orthorhombic_edges(self):
        cell = CellTensor.orthorhombic(10.0, 24.0, 18.0)
        np.testing.assert_allclose(cell.heights, [10.0, 24.0, 18.0], rtol=1e-15)

    def test_bounds_reduced_displacement(self):
        """No displacement of length r moves reduced coordinate k by more
        than r / h_k, and the bound is reached along the face normal."""
        cell = CellTensor(TRICLINIC, imcon=3)
        h = cell.heights
        d = np.random.default_rng(3).normal(size=(1000, 3))
        ds = np.abs(to_reduced(d, cell))
        assert (ds <= np.linalg.norm(d, axis=1)[:, None] / h * (1 + 1e-12)).all()
        normals = cell.inverse.T / np.linalg.norm(cell.inverse, axis=0)[:, None]
        np.testing.assert_allclose(np.abs(np.diag(to_reduced(normals, cell))), 1.0 / h)
