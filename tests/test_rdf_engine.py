import logging
import math
import re
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molrdf import rdf_engine
from molrdf.errors import InputError, NoFramesError
from molrdf.geometry import CellTensor, nint, to_reduced
from molrdf.rdf_engine import (
    PairHistogram,
    accumulate_frame,
    finalize,
    merge,
    n_bins,
    shell_volumes,
    smooth_curve,
)
from molrdf.trajectory_io import MoleculeSpec, Topology
from test_unfolding import _cell_for as make_cell


def point_topology(counts, masses=None):
    """Topology of single-site molecule types with the given copy numbers."""
    masses = masses or [1.0] * len(counts)
    return Topology(
        tuple(
            MoleculeSpec(f"T{i + 1}", c, (f"X{i + 1}",), (m,))
            for i, (c, m) in enumerate(zip(counts, masses))
        )
    )


def reference_nint(x):
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def reference_counts(frames, types, matrix, n_types, rmax, dr):
    """Naive double loop over molecule pairs, written without numpy."""
    nbins = 1 + reference_nint(rmax / dr)
    counts = [
        [[0] * nbins for _ in range(n_types)] for _ in range(n_types)
    ]
    inv = np.linalg.inv(matrix)
    for coms in frames:
        for i in range(len(coms)):
            for j in range(i + 1, len(coms)):
                s = [
                    float((coms[j] - coms[i]) @ inv[:, k]) for k in range(3)
                ]
                s = [v - reference_nint(v) for v in s]
                d = [
                    s[0] * matrix[0][k] + s[1] * matrix[1][k] + s[2] * matrix[2][k]
                    for k in range(3)
                ]
                r = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
                b = reference_nint(r / dr)
                if b < nbins:
                    counts[types[i]][types[j]][b] += 1
                    counts[types[j]][types[i]][b] += 1
    return np.array(counts)


class TestBinning:
    # 1-based bin numbers are 1 + nint(r / dr), the rule n_bins applies to rmax
    def test_bin_index_examples(self):
        assert 1 + nint(0.0 / 0.1) == 1
        assert 1 + nint(5.0 / 0.1) == 51
        assert 1 + nint(0.12 / 0.1) == 2
        assert 1 + nint(0.16 / 0.1) == 3

    def test_bin_index_vectorized(self):
        np.testing.assert_array_equal(1 + nint(np.array([0.0, 0.26, 0.9]) / 0.25), [1, 2, 5])

    def test_n_bins(self):
        assert n_bins(12.5, 0.1) == 126
        assert n_bins(9.0, 0.25) == 37

    def test_shell_volumes_against_integral(self):
        dr = 0.2
        v = shell_volumes(5, dr)
        for n in range(5):
            center = n * dr
            outer = center + dr / 2
            inner = max(center - dr / 2, 0.0)
            expected = 4.0 * math.pi / 3.0 * (outer**3 - inner**3)
            assert v[n] == pytest.approx(expected, rel=1e-14)
        # First bin is the half shell around zero.
        assert v[0] == pytest.approx(4.0 * math.pi / 3.0 * 0.1**3, rel=1e-14)


class TestAccumulateFrame:
    def test_two_molecules_known_bin(self):
        hist = PairHistogram.create(2, rmax=12.5, dr=0.1)
        cell = CellTensor.cubic(30.0)
        coms = np.array([[1.0, 1.0, 1.0], [6.0, 1.0, 1.0]])
        accumulate_frame(hist, np.array([0, 1]), coms, cell)
        assert hist.counts[0, 1, 50] == 1
        assert hist.counts[1, 0, 50] == 1
        assert hist.counts.sum() == 2
        assert hist.frames_used == 1
        assert hist.volume_sum == pytest.approx(27000.0)

    def test_like_pair_counts_twice_in_one_cell(self):
        hist = PairHistogram.create(1, rmax=10.0, dr=0.5)
        cell = CellTensor.cubic(20.0)
        coms = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        accumulate_frame(hist, np.array([0, 0]), coms, cell)
        assert hist.counts[0, 0, 6] == 2

    def test_minimum_image_distance_used(self):
        hist = PairHistogram.create(1, rmax=10.0, dr=0.5)
        cell = CellTensor.cubic(20.0)
        # 19 apart directly, 1 apart through the boundary.
        coms = np.array([[0.5, 0.0, 0.0], [19.5, 0.0, 0.0]])
        accumulate_frame(hist, np.array([0, 0]), coms, cell)
        assert hist.counts[0, 0, 2] == 2

    def test_beyond_rmax_discarded(self):
        hist = PairHistogram.create(1, rmax=5.0, dr=0.5)
        cell = CellTensor.cubic(30.0)
        coms = np.array([[0.0, 0.0, 0.0], [8.0, 0.0, 0.0]])
        accumulate_frame(hist, np.array([0, 0]), coms, cell)
        assert hist.counts.sum() == 0
        assert hist.frames_used == 1

    def test_last_bin_collects_its_whole_shell(self):
        # The shell centred on rmax extends to rmax + dr/2; distances in that
        # fringe still belong to the last bin and must be kept.
        hist = PairHistogram.create(1, rmax=5.0, dr=0.5)
        cell = CellTensor.cubic(30.0)
        for x, expected in [(5.0, 2), (5.2, 2), (5.3, 0)]:
            h = PairHistogram.create(1, rmax=5.0, dr=0.5)
            coms = np.array([[0.0, 0.0, 0.0], [x, 0.0, 0.0]])
            accumulate_frame(h, np.array([0, 0]), coms, cell)
            assert h.counts[0, 0, -1] == expected, x

    def test_unsafe_rmax_warns_once(self, caplog):
        hist = PairHistogram.create(1, rmax=12.5, dr=0.1)
        cell = CellTensor.cubic(20.0)
        coms = np.zeros((1, 3))
        with caplog.at_level(logging.WARNING, logger="molrdf.rdf_engine"):
            accumulate_frame(hist, np.array([0]), coms, cell)
            accumulate_frame(hist, np.array([0]), coms, cell)
        assert caplog.text.count("minimum-image") == 1

    def test_histogram_needs_a_type(self):
        with pytest.raises(ValueError, match="^need at least one molecule type$"):
            PairHistogram.create(0, rmax=5.0, dr=0.5)

    @pytest.mark.parametrize(
        "types, coms",
        [([0], np.zeros((2, 3))), ([0, 0], np.zeros((2, 2))), ([0, 0, 0], np.zeros(3))],
        ids=["fewer types", "two columns", "one row"],
    )
    def test_types_and_coms_must_match(self, types, coms):
        hist = PairHistogram.create(1, rmax=5.0, dr=0.5)
        with pytest.raises(ValueError, match=re.escape(
                "types and coms must be matching (n,) and (n, 3) arrays")):
            accumulate_frame(hist, np.array(types), coms, CellTensor.cubic(10.0))
        assert hist.frames_used == 0 and hist.counts.sum() == 0

    def test_type_out_of_range(self):
        hist = PairHistogram.create(1, rmax=5.0, dr=0.5)
        with pytest.raises(ValueError):
            accumulate_frame(hist, np.array([1]), np.zeros((1, 3)), CellTensor.cubic(10.0))

    @pytest.mark.parametrize("imcon", [1, 3, 6])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e17, -1e200])
    def test_non_finite_position_rejected(self, imcon, bad):
        """A NaN distance fails every bin test, so without the check the
        pair would be dropped while the frame still counted.  A centre of
        mass 1e17 or 1e200 out is finite, but its reduced coordinates keep
        no bits below one cell, so the fold would put the pair at r = 0."""
        hist = PairHistogram.create(1, rmax=5.0, dr=0.5)
        matrix = np.diag([10.0, 10.0, 40.0 if imcon == 6 else 10.0])
        if imcon == 3:
            matrix[1, 0], matrix[2, :2] = 2.0, (1.0, -1.5)
        cell = CellTensor(matrix, imcon)
        accumulate_frame(hist, np.array([0, 0]), np.array([[1.0, 1, 1], [2.0, 1, 1]]), cell)
        before = (hist.counts.copy(), hist.frames_used, hist.volume_sum)
        coms = np.array([[1.0, 1.0, 1.0], [2.0, bad, 1.0]])
        limit = f"more than {2.0**20 * cell.heights.min():.6g} A (2^20 cell heights)"
        match = re.escape(limit) if np.isfinite(bad) else "finite"
        with pytest.raises(rdf_engine.CentreOfMassError, match=match):
            accumulate_frame(hist, np.array([0, 0]), coms, cell)
        assert issubclass(rdf_engine.CentreOfMassError, ValueError)
        assert (hist.counts == before[0]).all()
        assert (hist.frames_used, hist.volume_sum) == before[1:]

    @pytest.mark.parametrize("x", [0.0, 1e6, -1e6])
    def test_far_position_within_the_limit_is_binned(self, x):
        """Two molecules 5 A apart a million A out, 33 333 cells of 30 A,
        lie within 2^20 cell heights of the origin: bin 50, as at x = 0."""
        hist = PairHistogram.create(1, rmax=12.5, dr=0.1)
        coms = np.array([[x, 1.0, 1.0], [x + 5.0, 1.0, 1.0]])
        accumulate_frame(hist, np.array([0, 0]), coms, CellTensor.cubic(30.0))
        assert np.flatnonzero(hist.counts[0, 0]).tolist() == [50]
        assert hist.counts.sum() == 2


class TestAgainstNaiveReference:
    @pytest.mark.parametrize(
        "matrix,imcon",
        [(12.0 * np.eye(3), 1), (np.diag([12.0, 14.0, 11.0]), 2)],
    )
    def test_counts_and_g_match(self, matrix, imcon):
        rng = np.random.default_rng(101)
        types = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2])
        topo = point_topology([4, 3, 3])
        cell = CellTensor(matrix, imcon)
        rmax, dr = 5.0, 0.3
        frames = [rng.uniform(0.0, 11.0, (10, 3)) for _ in range(5)]

        hist = PairHistogram.create(3, rmax, dr)
        for coms in frames:
            accumulate_frame(hist, types, coms, cell)
        expected = reference_counts(frames, types.tolist(), matrix, 3, rmax, dr)
        np.testing.assert_array_equal(hist.counts, expected)

        table = finalize(hist, topo)
        vol = abs(np.linalg.det(matrix))
        vshell = shell_volumes(hist.counts.shape[2], dr)
        for p, (a, b) in enumerate(table.pair_labels):
            n_a = topo.molecules[a - 1].count
            n_b = topo.molecules[b - 1].count
            g_ref = expected[a - 1, b - 1] * vol / (5 * n_a * n_b * vshell)
            np.testing.assert_allclose(table.g[p], g_ref, rtol=1e-12, atol=0)
            pop_ref = np.cumsum(expected[a - 1, b - 1] / (5 * n_a))
            np.testing.assert_allclose(table.pop[p], pop_ref, rtol=1e-12, atol=0)


class TestMerge:
    def make(self, seed, frames):
        rng = np.random.default_rng(seed)
        hist = PairHistogram.create(2, rmax=6.0, dr=0.25)
        cell = CellTensor.cubic(15.0)
        types = np.array([0, 0, 0, 1, 1])
        for _ in range(frames):
            accumulate_frame(hist, types, rng.uniform(0, 15, (5, 3)), cell)
        return hist

    def test_merge_with_empty_is_identity(self):
        a = self.make(1, 4)
        empty = PairHistogram.create(2, rmax=6.0, dr=0.25)
        merged = merge(a, empty)
        np.testing.assert_array_equal(merged.counts, a.counts)
        assert merged.frames_used == a.frames_used
        assert merged.volume_sum == a.volume_sum

    def test_merge_commutes(self):
        a, b = self.make(1, 3), self.make(2, 5)
        ab, ba = merge(a, b), merge(b, a)
        np.testing.assert_array_equal(ab.counts, ba.counts)
        assert ab.frames_used == ba.frames_used

    def test_chunked_equals_single_pass(self):
        rng = np.random.default_rng(77)
        cell = CellTensor.cubic(15.0)
        types = np.array([0, 0, 0, 1, 1])
        frames = [rng.uniform(0, 15, (5, 3)) for _ in range(20)]

        single = PairHistogram.create(2, rmax=6.0, dr=0.25)
        for coms in frames:
            accumulate_frame(single, types, coms, cell)

        merged = PairHistogram.create(2, rmax=6.0, dr=0.25)
        for lo in range(0, 20, 5):
            part = PairHistogram.create(2, rmax=6.0, dr=0.25)
            for coms in frames[lo : lo + 5]:
                accumulate_frame(part, types, coms, cell)
            merged = merge(merged, part)

        np.testing.assert_array_equal(merged.counts, single.counts)
        assert merged.frames_used == single.frames_used
        assert merged.volume_sum == pytest.approx(single.volume_sum, rel=1e-12)

    def test_incompatible_binning_rejected(self):
        a = PairHistogram.create(2, rmax=6.0, dr=0.25)
        b = PairHistogram.create(2, rmax=6.0, dr=0.5)
        with pytest.raises(ValueError):
            merge(a, b)


class TestFinalize:
    def test_spike_closed_form(self):
        """One isolated pair at fixed distance: g is V / V_shell in that bin."""
        hist = PairHistogram.create(2, rmax=12.5, dr=0.1)
        cell = CellTensor.cubic(30.0)
        for _ in range(100):
            accumulate_frame(
                hist,
                np.array([0, 1]),
                np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]]),
                cell,
            )
        table = finalize(hist, point_topology([1, 1]))
        cross = table.pair_labels.index((1, 2))
        vshell = shell_volumes(126, 0.1)
        assert table.g[cross, 50] == pytest.approx(27000.0 / vshell[50], rel=1e-12)
        assert np.count_nonzero(table.g) == 1
        assert table.pop[cross, -1] == 1.0

    def test_pop_is_monotone_cumulative(self):
        rng = np.random.default_rng(5)
        hist = PairHistogram.create(1, rmax=7.0, dr=0.35)
        cell = CellTensor.cubic(14.0)
        for _ in range(10):
            accumulate_frame(hist, np.zeros(20, dtype=int), rng.uniform(0, 14, (20, 3)), cell)
        table = finalize(hist, point_topology([20]))
        assert np.all(np.diff(table.pop[0]) >= 0)
        assert table.pop[0, -1] == pytest.approx(hist.counts[0, 0].sum() / (10 * 20), rel=1e-12)

    def test_pair_label_order(self):
        hist = PairHistogram.create(3, rmax=5.0, dr=0.5)
        accumulate_frame(
            hist,
            np.array([0, 1, 2]),
            np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]),
            CellTensor.cubic(12.0),
        )
        table = finalize(hist, point_topology([1, 1, 1]))
        assert table.pair_labels == ((1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3))

    def test_massless_type_excluded_with_warning(self, caplog):
        hist = PairHistogram.create(3, rmax=5.0, dr=0.5)
        accumulate_frame(
            hist,
            np.array([0, 2]),
            np.array([[0.0, 0, 0], [1.0, 0, 0]]),
            CellTensor.cubic(12.0),
        )
        topo = point_topology([1, 1, 1], masses=[1.0, 0.0, 2.0])
        with caplog.at_level(logging.WARNING, logger="molrdf.rdf_engine"):
            table = finalize(hist, topo)
        assert table.pair_labels == ((1, 1), (3, 3), (1, 3))
        assert "type 2" in caplog.text and "no mass" in caplog.text

    def test_topology_of_another_type_count_rejected(self):
        hist = PairHistogram.create(2, rmax=5.0, dr=0.5)
        accumulate_frame(hist, np.array([0, 1]), np.zeros((2, 3)), CellTensor.cubic(12.0))
        with pytest.raises(ValueError, match="^topology does not match histogram type count$"):
            finalize(hist, point_topology([1, 1, 1]))

    def test_all_massless_topology_rejected(self, caplog):
        hist = PairHistogram.create(2, rmax=5.0, dr=0.5)
        accumulate_frame(hist, np.array([0, 1]), np.zeros((2, 3)), CellTensor.cubic(12.0))
        with caplog.at_level(logging.WARNING, logger="molrdf.rdf_engine"):
            with pytest.raises(InputError, match="^every molecule type is massless; nothing to analyse$"):
                finalize(hist, point_topology([1, 1], masses=[0.0, 0.0]))
        assert "type 1" in caplog.text and "type 2" in caplog.text

    def test_no_frames_rejected(self):
        hist = PairHistogram.create(1, rmax=5.0, dr=0.5)
        with pytest.raises(NoFramesError):
            finalize(hist, point_topology([1]))

    def test_zero_volume_rejected(self):
        counts = np.zeros((1, 1, n_bins(5.0, 0.5)), dtype=np.int64)
        hist = PairHistogram(counts, 0.5, 5.0, frames_used=1, volume_sum=0.0)
        with pytest.raises(InputError, match="volume"):
            finalize(hist, point_topology([2]))

    def test_smooth_flag_touches_g_not_pop(self):
        rng = np.random.default_rng(21)
        hist = PairHistogram.create(1, rmax=7.0, dr=0.35)
        cell = CellTensor.cubic(14.0)
        for _ in range(5):
            accumulate_frame(hist, np.zeros(15, dtype=int), rng.uniform(0, 14, (15, 3)), cell)
        topo = point_topology([15])
        raw = finalize(hist, topo, smooth=False)
        smoothed = finalize(hist, topo, smooth=True)
        np.testing.assert_allclose(smoothed.g, smooth_curve(raw.g), atol=0)
        np.testing.assert_array_equal(smoothed.pop, raw.pop)


class TestSmoothCurve:
    def test_polyfit_oracle(self):
        rng = np.random.default_rng(31)
        y = rng.uniform(0, 3, 40)
        out = smooth_curve(y)
        x = np.arange(-2.0, 3.0)
        for i in range(2, 38):
            fit = np.polynomial.polynomial.polyfit(x, y[i - 2 : i + 3], 2)
            assert out[i] == pytest.approx(fit[0], rel=1e-10)

    def test_constant_unchanged(self):
        y = np.full(30, 2.5)
        np.testing.assert_allclose(smooth_curve(y), y, rtol=1e-12)

    def test_quadratic_unchanged_in_interior(self):
        i = np.arange(25, dtype=float)
        y = 3.0 + 0.5 * i - 0.2 * i * i
        np.testing.assert_allclose(smooth_curve(y)[2:-2], y[2:-2], rtol=1e-12)

    def test_endpoints_pass_through(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(0, 1, 12)
        out = smooth_curve(y)
        np.testing.assert_array_equal(out[:2], y[:2])
        np.testing.assert_array_equal(out[-2:], y[-2:])

    def test_short_input_unchanged(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(smooth_curve(y), y)

    def test_two_dimensional_rows(self):
        rng = np.random.default_rng(6)
        y = rng.uniform(0, 1, (3, 15))
        out = smooth_curve(y)
        for k in range(3):
            np.testing.assert_allclose(out[k], smooth_curve(y[k]), atol=0)


# A search returns (slots, chunks): chunks of index pairs into the order
# ``slots`` of the molecules, or into the molecules themselves when ``slots``
# is None, as only the cell search reorders them.
def _all_pairs(pos, cell, rc):
    return None, rdf_engine._pair_strips(len(pos))


def _cell_search(pos, cell, rc):
    return rdf_engine._cell_pairs(pos, rdf_engine._cell_grid(pos, cell, rc))


def molecule_chunks(search):
    """The chunks of a search's ``(slots, chunks)`` as molecule indices."""
    slots, chunks = search
    for i, j in chunks:
        yield (i, j) if slots is None else (slots[i], slots[j])


def counts_with(search, types, coms, cell, rmax, dr, n_types=2):
    """Histogram of one frame with the pair search replaced by ``search``."""
    hist = PairHistogram.create(n_types, rmax, dr)
    with mock.patch.object(rdf_engine, "_candidate_pairs", search):
        accumulate_frame(hist, types, coms, cell)
    return hist.counts


def search_radius(rmax, dr):
    return (n_bins(rmax, dr) - 0.5) * dr


class TestCellSearchProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        imcon=st.sampled_from([1, 2, 3, 6]),
        n=st.integers(50, 600),
        lengths=st.tuples(*[st.floats(20.0, 45.0)] * 3),
        tilts=st.tuples(*[st.floats(-0.45, 0.45)] * 3),
        across=st.integers(5, 16),
        frac=st.floats(0.05, 0.95),
        bins=st.integers(20, 200),
        near_cutoff=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cell_search_equals_all_pairs(
        self, imcon, n, lengths, tilts, across, frac, bins, near_cutoff, seed
    ):
        """The linked-cell histogram is the all-pairs histogram, for unwrapped
        positions, points on cell faces and at reduced +-0.5.  A grid is laid
        exactly when seven cells fit across every periodic direction, so
        never with rmax just below min_image_cutoff."""
        cell = make_cell(imcon, lengths, tilts)
        periodic = cell.periodic
        rng = np.random.default_rng(seed)
        heights = cell.heights
        if near_cutoff:
            rmax = cell.min_image_cutoff * (1.0 - 1e-6)
        else:
            # rc = rmax + dr/2 fits ``across`` cells of rc/3 across the
            # narrowest periodic direction.
            rmax = 3.0 * heights[periodic].min() / (across + frac) / (1.0 + 0.5 / bins)
        dr = rmax / bins
        rc = search_radius(rmax, dr)

        s = rng.uniform(-0.5, 0.5, (n, 3))
        if imcon == 6:
            s[:, 2] = rng.uniform(-0.5, 0.5, n) * rng.uniform(0.0, 2.0)
        shape = np.floor(heights * 3 / (rc * (1 + 1e-9))).astype(int)
        fits = (shape[periodic] >= 7).all()
        face = rng.random(n) < 0.2  # on a face of the grid's cells
        for axis in np.flatnonzero(periodic):
            s[face, axis] = rng.integers(0, max(shape[axis], 1), face.sum()) / max(shape[axis], 1)
        half = rng.random((n, 3)) < 0.05  # at reduced +-0.5
        s[half] = rng.choice([-0.5, 0.5], half.sum())
        # Unwrapped by up to three cells along the periodic axes.
        s[:, periodic] += rng.integers(-3, 4, (n, periodic.sum())) * (rng.random((n, 1)) < 0.3)
        coms = s @ cell.matrix
        types = rng.integers(0, 2, n)

        oracle = counts_with(_all_pairs, types, coms, cell, rmax, dr)
        grid = rdf_engine._cell_grid(to_reduced(coms, cell), cell, rc)
        assert (grid is not None) == fits
        assert not (near_cutoff and fits)
        if fits:
            np.testing.assert_array_equal(
                counts_with(_cell_search, types, coms, cell, rmax, dr), oracle
            )
        hist = PairHistogram.create(2, rmax, dr)
        accumulate_frame(hist, types, coms, cell)
        np.testing.assert_array_equal(hist.counts, oracle)

    def test_exact_faces_and_half_cell_points(self):
        """Cell of 32 x 32 x 33 with 8 x 8 x 24 cells, 4 wide and 1.375
        high: every coordinate is a multiple of a cell's edge, so all points
        sit on cell faces, edges or corners, at reduced -0.5 and +0.5 too,
        and some lie whole cells outside the box."""
        rng = np.random.default_rng(5)
        cell = CellTensor(np.diag([32.0, 32.0, 33.0]), 2)
        rmax, dr = 10.9, 0.1
        edges = np.array([4.0, 4.0, 1.375])
        coms = edges * rng.integers([-4, -4, -12], [5, 5, 13], (600, 3))
        coms += cell.matrix.diagonal() * rng.integers(-3, 4, (600, 3))
        types = rng.integers(0, 2, 600)
        grid = rdf_engine._cell_grid(to_reduced(coms, cell), cell, search_radius(rmax, dr))
        assert list(grid.shape) == [8, 8, 24]
        np.testing.assert_array_equal(
            counts_with(_cell_search, types, coms, cell, rmax, dr),
            counts_with(_all_pairs, types, coms, cell, rmax, dr),
        )


class TestCandidatePairs:
    def liquid_frame(self, n, edge, seed=0):
        rng = np.random.default_rng(seed)
        cell = CellTensor.cubic(edge)
        return to_reduced(rng.uniform(0.0, edge, (n, 3)), cell), cell

    def test_liquid_sized_frame_takes_cell_search(self):
        pos, cell = self.liquid_frame(1800, 40.0)
        slots, pairs = rdf_engine._candidate_pairs(pos, cell, search_radius(12.5, 0.1))
        assert slots is not None  # the cell search's own order
        assert sum(len(i) for i, _ in pairs) < 0.5 * 1800 * 1799 / 2

    def test_two_molecules_test_all_pairs(self, monkeypatch):
        """The spike's frame: two molecules lay no grid at all."""
        pos, cell = self.liquid_frame(2, 30.0)
        monkeypatch.setattr(rdf_engine, "_cell_grid", mock.Mock(side_effect=AssertionError))
        slots, pairs = rdf_engine._candidate_pairs(pos, cell, search_radius(12.5, 0.1))
        assert slots is None and pairs.__name__ == "_pair_strips"

    @staticmethod
    def chains_frame(n, edge):
        rng = np.random.default_rng(1)
        cell = CellTensor(edge * np.array([[1.0, 0, 0], [0.22, 0.96, 0], [-0.12, 0.17, 0.93]]), 3)
        return rng.uniform(0.0, 1.0, (n, 3)), cell

    def test_two_hundred_chains_test_all_pairs(self):
        """Triclinic cell of about 38 with rmax 12: the 25 columns of the
        9 x 8 x 23 grid, with z windows rc either side, meet half of the
        pairs, and 25 rows per molecule and the setup of the search cost
        more than the other half."""
        pos, cell = self.chains_frame(200, 38.0)
        grid = rdf_engine._cell_grid(pos, cell, search_radius(12.0, 0.2))
        assert list(grid.shape) == [9, 8, 23] and len(grid.columns) == 25
        candidates = sum(len(i) for i, _ in _cell_search(pos, cell, search_radius(12.0, 0.2))[1])
        assert 0.45 < candidates / (200 * 199 / 2) < 0.55
        slots, pairs = rdf_engine._candidate_pairs(pos, cell, search_radius(12.0, 0.2))
        assert slots is None and pairs.__name__ == "_pair_strips"

    def test_chains_cell_with_1800_molecules_takes_column_search(self):
        """The same cell shape, 40 across, with 1800 molecules: 44% of the
        pairs are candidates, and the rows are few beside them."""
        pos, cell = self.chains_frame(1800, 40.0)
        grid = rdf_engine._cell_grid(pos, cell, search_radius(12.5, 0.1))
        assert list(grid.shape) == [9, 9, 23]
        slots, pairs = rdf_engine._candidate_pairs(pos, cell, search_radius(12.5, 0.1))
        assert slots is not None
        assert sum(len(i) for i, _ in pairs) < 0.45 * 1800 * 1799 / 2

    @pytest.mark.parametrize("n, column_search", [(150, False), (900, True)])
    def test_slab_takes_the_cheaper_search(self, n, column_search):
        """A 60 x 60 slab 40 thick: 150 molecules cost the search's setup
        and rows more than all their pairs; 900 meet 14% of theirs."""
        rng = np.random.default_rng(n)
        cell = CellTensor(np.diag([60.0, 60.0, 200.0]), 6)
        pos = rng.uniform(0.0, 1.0, (n, 3)) * [1.0, 1.0, 0.2]
        grid = rdf_engine._cell_grid(pos, cell, search_radius(12.5, 0.1))
        assert list(grid.shape) == [14, 14, 25]
        slots, _ = rdf_engine._candidate_pairs(pos, cell, search_radius(12.5, 0.1))
        assert (slots is not None) == column_search

    @pytest.mark.parametrize("n", [2, 30, 200, 256, 257, 600, 1800])
    def test_all_pairs_in_row_order(self, n):
        """Row i holds j = i + 1 .. n - 1; up to 256 molecules, whose pairs
        fit in one chunk, that chunk is cached and read-only."""
        chunks = list(rdf_engine._pair_strips(n))
        i = np.concatenate([c[0] for c in chunks])
        j = np.concatenate([c[1] for c in chunks])
        expected_i, expected_j = np.triu_indices(n, 1)
        np.testing.assert_array_equal(i, expected_i)
        np.testing.assert_array_equal(j, expected_j)
        assert max(len(c[0]) for c in chunks) <= rdf_engine._CHUNK_PAIRS
        assert (len(chunks) == 1) == (n <= 256)
        if n <= 256:
            assert chunks[0] is rdf_engine._all_pairs(n)
            assert not (chunks[0][0].flags.writeable or chunks[0][1].flags.writeable)

    def test_few_molecules_in_a_wide_cell_test_all_pairs(self):
        """Few enough molecules that looking up their stencil costs more
        than testing every pair."""
        pos, cell = self.liquid_frame(200, 100.0)
        assert rdf_engine._cell_grid(pos, cell, search_radius(12.5, 0.1)) is not None
        slots, pairs = rdf_engine._candidate_pairs(pos, cell, search_radius(12.5, 0.1))
        assert slots is None and pairs.__name__ == "_pair_strips"

    @pytest.mark.parametrize("imcon, thickness", [(3, 4.0), (6, 1.0), (6, 0.4), (6, 0.05)])
    def test_candidates_unique_ordered_and_complete(self, imcon, thickness):
        """Every pair within rc comes once, in either order, and no molecule
        meets itself, not even through a ghost copy; also for slabs thin
        enough that the normal holds fewer than seven cells, which must not
        wrap."""
        rng = np.random.default_rng(3)
        cell = make_cell(imcon, (30.0, 32.0, 34.0), (0.3, -0.2, 0.25))
        pos = rng.uniform(-2.0, 2.0, (700, 3))
        pos[:, 2] *= thickness / 4.0
        rc = search_radius(8.0, 0.1)
        chunks = list(molecule_chunks(_cell_search(pos, cell, rc)))
        i = np.concatenate([c[0] for c in chunks])
        j = np.concatenate([c[1] for c in chunks])
        i, j = np.minimum(i, j), np.maximum(i, j)
        assert (i < j).all()
        assert len(np.unique(i * 700 + j)) == len(i)
        d = pos[None, :, :] - pos[:, None, :]
        d[..., cell.periodic] -= np.round(d[..., cell.periodic])
        r = np.linalg.norm(d @ cell.matrix, axis=2)
        near = np.argwhere(np.triu(r < rc, k=1))
        assert set(map(tuple, near)) <= set(zip(i.tolist(), j.tolist()))

    def test_chunks_stay_bounded(self, monkeypatch):
        pos, cell = self.liquid_frame(1800, 40.0, seed=4)
        coms = pos @ cell.matrix
        types = np.random.default_rng(4).integers(0, 2, 1800)
        whole = counts_with(_cell_search, types, coms, cell, 12.5, 0.1)
        monkeypatch.setattr(rdf_engine, "_CHUNK_PAIRS", 3000)
        _, chunks = _cell_search(pos, cell, search_radius(12.5, 0.1))
        sizes = [len(i) for i, _ in chunks]
        assert len(sizes) > 100 and max(sizes) <= 3000
        np.testing.assert_array_equal(
            counts_with(_cell_search, types, coms, cell, 12.5, 0.1), whole
        )

    @pytest.mark.parametrize("imcon, n", [(1, 191), (3, 191), (6, 191)])
    def test_too_few_molecules_build_no_grid(self, monkeypatch, imcon, n):
        """Every grid's stencil holds at least five columns, its own and
        those of the four adjacent cells in x and y, and below 192 molecules
        the setup of the search and those rows cost more than all pairs, so
        no grid is laid at all."""
        cell = make_cell(imcon, (60.0, 60.0, 60.0), (0.1, 0.1, 0.1))
        pos = np.random.default_rng(6).uniform(0.0, 1.0, (n + 1, 3))
        rc = search_radius(5.0, 0.1)
        grids = []
        cell_grid = rdf_engine._cell_grid

        def spy(*args):
            grids.append(cell_grid(*args))
            return grids[-1]

        monkeypatch.setattr(rdf_engine, "_cell_grid", spy)
        slots, pairs = rdf_engine._candidate_pairs(pos[:n], cell, rc)
        assert slots is None and pairs.__name__ == "_pair_strips"
        assert grids == []
        rdf_engine._candidate_pairs(pos, cell, rc)
        assert len(grids) == 1 and grids[0] is not None


class TestColumnSearch:
    """Grids at the edges of the column search, against all pairs."""

    def assert_equals_all_pairs(self, cell, s, shape, rmax=12.5, dr=0.1):
        coms = s @ cell.matrix
        types = np.random.default_rng(len(s)).integers(0, 2, len(s))
        grid = rdf_engine._cell_grid(to_reduced(coms, cell), cell, search_radius(rmax, dr))
        assert list(grid.shape) == shape
        oracle = counts_with(_all_pairs, types, coms, cell, rmax, dr)
        assert oracle.sum() > 0
        np.testing.assert_array_equal(
            counts_with(_cell_search, types, coms, cell, rmax, dr), oracle
        )

    @pytest.mark.parametrize(
        "imcon, lengths, shape",
        [
            (1, (30.0, 30.0, 30.0), [7, 7, 19]),
            (2, (40.0, 40.0, 30.0), [9, 9, 19]),
            (3, (40.0, 40.0, 32.0), [9, 9, 20]),
        ],
        ids=["cubic", "orthorhombic", "triclinic"],
    )
    def test_seven_cells_along_a_periodic_axis(self, imcon, lengths, shape):
        """With seven cells rc/3 high along z, the fewest that lay a grid,
        z holds 19 or 20 cells and a window of up to 17 of them meets every
        molecule of the column at most once, some through ghost copies;
        points sit on cell faces, at reduced -0.5 and +0.5, and whole cells
        away from the box."""
        rng = np.random.default_rng(imcon)
        cell = make_cell(imcon, lengths, (0.2, -0.15, 0.1))
        n = 700
        s = rng.uniform(-0.5, 0.5, (n, 3))
        face = rng.random((n, 3)) < 0.3
        s[face] = rng.integers(-31, 32, face.sum()) / 63.0  # faces of 7 and 9 cells
        half = rng.random((n, 3)) < 0.05
        s[half] = rng.choice([-0.5, 0.5], half.sum())
        s += rng.integers(-2, 3, (n, 3)) * (rng.random((n, 1)) < 0.3)
        self.assert_equals_all_pairs(cell, s, shape)

    @pytest.mark.parametrize("span, cells", [(0.05, 1), (0.1, 2)])
    def test_slab_one_or_two_cells_thick(self, span, cells):
        """The slab normal is never wrapped: windows are clipped at its
        ends, also where the span is a single z cell, and a point on the top
        face of the span joins the top cell."""
        rng = np.random.default_rng(cells)
        cell = make_cell(6, (40.0, 40.0, 40.0), (0.2, 0.0, 0.0))
        n = 600
        s = rng.uniform(-0.5, 0.5, (n, 3))
        s[:, 2] = rng.uniform(0.0, span, n)
        s[:2, 2] = [0.0, span]
        face = rng.random(n) < 0.3
        s[face, 2] = rng.integers(0, cells + 1, face.sum()) * span / cells
        half = rng.random((n, 2)) < 0.05
        s[:, :2][half] = rng.choice([-0.5, 0.5], half.sum())
        s[:, :2] += rng.integers(-2, 3, (n, 2)) * (rng.random((n, 1)) < 0.3)
        self.assert_equals_all_pairs(cell, s, [9, 9, cells])

    def test_sparse_frame_keeps_its_tables_small(self):
        """3000 molecules in a 1000 A cube: cells rc/3 high would make a
        grid of 239^3, 14 million cells.  The grid is coarsened so that its
        table stays near 2^16 entries, and the frame's scratch a few MB."""
        rng = np.random.default_rng(8)
        cell = CellTensor.cubic(1000.0)
        coms = rng.uniform(0.0, 1000.0, (3000, 3))
        types = rng.integers(0, 2, 3000)
        rmax, dr = 12.5, 0.1
        pos = to_reduced(coms, cell)
        grid = rdf_engine._cell_grid(pos, cell, search_radius(rmax, dr))
        assert rdf_engine._cell_search_pays(3000, grid)
        assert grid.shape.prod() < 2**16
        slots, _ = rdf_engine._candidate_pairs(pos, cell, search_radius(rmax, dr))
        assert slots is not None
        hist = PairHistogram.create(2, rmax, dr)
        tracemalloc.start()
        try:
            accumulate_frame(hist, types, coms, cell)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        np.testing.assert_array_equal(
            hist.counts, counts_with(_all_pairs, types, coms, cell, rmax, dr)
        )

    @staticmethod
    def reference_columns(widths, reach):
        """The stencil offset by offset: the own column, then every xy
        offset within +-3 with a positive first nonzero component whose
        cells' nearest corners lie within reach."""
        columns = [[0, 0]]
        for dx in range(-3, 4):
            for dy in range(-3, 4):
                if (dx, dy) <= (0, 0):
                    continue
                gap = np.maximum(np.abs([dx, dy]) - 1, 0) * np.array(widths)
                if (gap**2).sum() <= reach**2:
                    columns.append([dx, dy])
        return columns

    def test_stencil_matches_offset_by_offset_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(120):
            if rng.random() < 0.2:
                widths, reach = (0.0, 0.0), 1.0  # a non-orthogonal cell
            elif rng.random() < 0.5:
                edge = float(rng.uniform(1.0, 5.0))  # corners exactly at reach
                widths, reach = (edge,) * 2, edge * int(rng.integers(1, 4))
            else:
                widths, reach = tuple(rng.uniform(0.5, 6.0, 2)), rng.uniform(1.0, 15.0)
            columns = rdf_engine._stencil(widths, reach)
            assert columns.tolist() == self.reference_columns(widths, reach)
        assert len(rdf_engine._stencil((0.0, 0.0), 1.0)) == 25


class TestZWindows:
    """Each (molecule, column) row's own z window at its edges, against all
    pairs."""

    @staticmethod
    def assert_equals_all_pairs(cell, coms, rmax=11.0, dr=0.1, shape=None):
        types = np.random.default_rng(len(coms)).integers(0, 2, len(coms))
        if shape is not None:
            grid = rdf_engine._cell_grid(to_reduced(coms, cell), cell, search_radius(rmax, dr))
            assert list(grid.shape) == shape
        oracle = counts_with(_all_pairs, types, coms, cell, rmax, dr)
        assert oracle.sum() > 0
        np.testing.assert_array_equal(
            counts_with(_cell_search, types, coms, cell, rmax, dr), oracle
        )
        return oracle

    def test_molecules_on_column_faces(self):
        """Cubic cell of 32 with columns 4 wide: molecules sit exactly on a
        column face, fraction 0 of their cell, or one ulp below one,
        fraction 1 - eps, in x, in y or in both; the gaps to the columns
        around them are then 0 or whole cell widths."""
        rng = np.random.default_rng(21)
        cell = CellTensor.cubic(32.0)
        n = 700
        coms = rng.uniform(0.0, 32.0, (n, 3))
        faces = 4.0 * rng.integers(-8, 9, (n, 2))
        below = rng.random((n, 2)) < 0.5
        faces[below] = np.nextafter(faces[below], -np.inf)
        on = rng.random((n, 2)) < 0.7
        coms[:, :2][on] = faces[on]
        self.assert_equals_all_pairs(cell, coms, shape=[8, 8, 23])

    def test_pairs_one_ulp_either_side_of_the_window(self):
        """Pairs at the edge of a window: the partner sits on the near face
        of a column 1-3 cells away, gap g, and on a z cell face (above the
        molecule) or one ulp below one (below it), so that the window
        z +- sqrt(rc^2 - g^2) ends within a few ulp of the partner's cell.
        Every pair the kernel bins must be kept, some of them in the last
        bin."""
        rng = np.random.default_rng(22)
        cell = CellTensor(np.diag([32.0, 32.0, 33.0]), 2)
        rmax, dr = 10.9, 0.1
        rc = search_radius(rmax, dr)
        coms = []
        while len(coms) < 3000:
            i = rng.uniform(0.0, 32.0, 3)
            dx = int(rng.integers(1, 4)) * rng.choice([-1, 1])
            j = i.copy()
            # The face of column dx nearest the molecule.
            j[0] = 4.0 * (np.floor(i[0] / 4.0) + dx + (dx < 0))
            if abs(j[0] - i[0]) >= rc:
                continue
            up = rng.random() < 0.5
            j[2] = 1.375 * rng.integers(-8, 32)  # a z cell face
            if not up:
                j[2] = np.nextafter(j[2], -np.inf)
            dz = np.sqrt(rc**2 - (j[0] - i[0]) ** 2)
            i[2] = j[2] - dz if up else j[2] + dz
            for _ in range(int(rng.integers(0, 4))):
                i[2] = np.nextafter(i[2], rng.choice([-np.inf, np.inf]))
            coms += [i, j]
        grid = rdf_engine._cell_grid(to_reduced(np.array(coms), cell), cell, rc)
        assert list(grid.shape) == [8, 8, 24]
        oracle = self.assert_equals_all_pairs(cell, np.array(coms), rmax, dr)
        assert oracle[:, :, -1].sum() > 0

    @pytest.mark.parametrize("imcon", [1, 3])
    def test_ghosts_at_reduced_z_zero_and_one(self, imcon):
        """Molecules at reduced z exactly 0 and one ulp below 1 meet their
        partners across the periodic z boundary through ghost copies,
        from the bottom cell and from the top cell."""
        rng = np.random.default_rng(23 + imcon)
        cell = make_cell(imcon, (32.0, 32.0, 32.0), (0.2, -0.1, 0.15))
        n = 600
        s = rng.uniform(0.0, 1.0, (n, 3))
        s[: n // 3, 2] = rng.choice([0.0, np.nextafter(1.0, 0.0)], n // 3)
        # Partners within a z cell or two of the boundary, on both sides.
        s[n // 3 : 2 * n // 3, 2] = rng.choice([-1.0, 1.0], n // 3) * rng.uniform(0.0, 0.1, n // 3) % 1.0
        self.assert_equals_all_pairs(cell, s @ cell.matrix)

    @pytest.mark.parametrize(
        "lengths, rmax, shape",
        [
            ((40.0, 40.0, 29.5), 12.5, [9, 9, 18]),
            ((26.0, 26.0, 20.0), 8.5, [9, 9, 18]),
            ((26.0, 26.0, 20.0), 8.0, [9, 9, 19]),
        ],
    )
    def test_thinnest_periodic_z(self, lengths, rmax, shape):
        """A periodic z just seven rc/3 cells high holds 18 z cells, one more
        than the widest window: no window meets a molecule twice, through
        its real slot and a ghost copy.  The second case is 139 molecules in
        a 26 x 26 x 20 cell."""
        rng = np.random.default_rng(int(rmax * 10))
        cell = CellTensor.orthorhombic(*lengths)
        for n in (139, 600):
            coms = rng.uniform(-1.0, 2.0, (n, 3)) * lengths
            self.assert_equals_all_pairs(cell, coms, rmax, 0.1, shape)

    @pytest.mark.parametrize("span", [0.0, 1e-200, 1e-12])
    def test_slab_thinner_than_a_z_cell(self, span):
        """A slab whose molecules all but share one z, flat or a few
        hundred orders of magnitude thinner than a z cell, is one z cell
        high: its windows stay finite and meet that cell."""
        rng = np.random.default_rng(25)
        cell = CellTensor(np.diag([40.0, 40.0, 80.0]), 6)
        s = rng.uniform(0.0, 1.0, (600, 3))
        s[:, 2] = span * rng.integers(0, 2, 600)
        self.assert_equals_all_pairs(cell, s @ cell.matrix, 12.5, 0.1, [9, 9, 1])

    def test_coarsened_periodic_z_keeps_one_window(self):
        """A sparse frame whose table is coarsened keeps 17 z cells along a
        thin periodic z, as many as the widest window spans."""
        rng = np.random.default_rng(24)
        cell = CellTensor.orthorhombic(400.0, 400.0, 30.0)
        coms = rng.uniform(0.0, 1.0, (2000, 3)) * [400.0, 400.0, 30.0]
        self.assert_equals_all_pairs(cell, coms, 12.5, 0.1, [56, 56, 17])

    @pytest.mark.parametrize("n, edge, most", [(1800, 40.0, 380_000), (14_400, 80.0, 3_000_000)])
    def test_windows_cut_the_candidates(self, n, edge, most):
        """Uniform liquids with rmax 12.5: whole z cells per stencil column
        gave 610 717 candidates for 1800 molecules in a 40 A cube and 4.70
        million for 14 400 in an 80 A cube; per-molecule z windows give
        about 40% fewer."""
        pos, cell = TestCandidatePairs().liquid_frame(n, edge)
        slots, chunks = rdf_engine._candidate_pairs(pos, cell, search_radius(12.5, 0.1))
        assert slots is not None
        assert sum(len(i) for i, _ in chunks) <= most


class TestKernelPasses:
    @pytest.mark.parametrize("imcon", [3, 6])
    def test_pair_orientation_does_not_move_a_count(self, imcon):
        """Every candidate handed over as (j, i) instead of (i, j), by the
        cell search and by all pairs, on a tilted cell and on a slab."""
        rng = np.random.default_rng(imcon)
        cell = make_cell(imcon, (40.0, 42.0, 38.0), (0.25, -0.2, 0.15))
        n = 800
        s = rng.uniform(-0.5, 0.5, (n, 3))
        s[:, cell.periodic] += rng.integers(-2, 3, (n, cell.periodic.sum()))
        coms = s @ cell.matrix
        types = rng.integers(0, 3, n)
        rmax, dr = 12.5, 0.1

        def swapped(search):
            def search_swapped(pos, cell, rc):
                slots, chunks = search(pos, cell, rc)
                return slots, ((j, i) for i, j in chunks)

            return search_swapped

        oracle = counts_with(_all_pairs, types, coms, cell, rmax, dr, n_types=3)
        assert oracle.sum() > 0
        for search in (_cell_search, _all_pairs):
            np.testing.assert_array_equal(
                counts_with(swapped(search), types, coms, cell, rmax, dr, n_types=3), oracle
            )
            np.testing.assert_array_equal(
                counts_with(search, types, coms, cell, rmax, dr, n_types=3), oracle
            )

    @pytest.mark.parametrize("chunk", [7, 97])
    @pytest.mark.parametrize("imcon", [1, 2, 3, 6])
    def test_small_chunks_equal_all_pairs(self, monkeypatch, imcon, chunk):
        """Chunks of a few pairs, cutting the candidates of one molecule, and
        every row of all pairs, across chunk boundaries, give the histogram
        of all pairs taken at once, bit for bit."""
        rng = np.random.default_rng(imcon * 100 + chunk)
        cell = make_cell(imcon, (21.0, 23.0, 22.0), (0.2, -0.15, 0.1))
        n, rmax, dr = 90, 2.7, 0.1
        s = rng.uniform(-0.5, 0.5, (n, 3))
        # Unwrapped by up to two cells along the periodic axes.
        s[:, cell.periodic] += rng.integers(-2, 3, (n, cell.periodic.sum()))
        coms = s @ cell.matrix
        types = rng.integers(0, 3, n)
        oracle = counts_with(_all_pairs, types, coms, cell, rmax, dr, n_types=3)
        assert oracle.sum() > 0

        monkeypatch.setattr(rdf_engine, "_CHUNK_PAIRS", chunk)
        pos = to_reduced(coms, cell)
        chunks = list(molecule_chunks(_cell_search(pos, cell, search_radius(rmax, dr))))
        # Some molecule's candidates continue from one chunk into the next.
        assert any(
            {a[0][-1], a[1][-1]} & {b[0][0], b[1][0]} for a, b in zip(chunks, chunks[1:])
        )
        for search in (_cell_search, _all_pairs):
            np.testing.assert_array_equal(
                counts_with(search, types, coms, cell, rmax, dr, n_types=3), oracle
            )

    @pytest.mark.parametrize("n", [2, 3, 256])
    def test_one_chunk_of_all_pairs_is_cached(self, monkeypatch, n):
        """While all pairs fit in one chunk (256 molecules is the most), they
        are one cached, read-only pair of index arrays, with the pairs and
        the counts of row strips."""
        assert 256 * 255 // 2 <= rdf_engine._CHUNK_PAIRS < 257 * 256 // 2
        ((i, j),) = rdf_engine._pair_strips(n)
        ((i_again, j_again),) = rdf_engine._pair_strips(n)
        assert i_again is i and j_again is j
        for array in (i, j):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        rng = np.random.default_rng(n)
        cell = CellTensor.cubic(20.0)
        coms = rng.uniform(0.0, 20.0, (n, 3))
        types = rng.integers(0, 2, n)
        rmax, dr = 9.0, 0.25
        slots, pairs = rdf_engine._candidate_pairs(
            to_reduced(coms, cell), cell, search_radius(rmax, dr)
        )
        assert slots is None and pairs.__name__ == "_pair_strips"
        cached = counts_with(_all_pairs, types, coms, cell, rmax, dr)
        assert cached.sum() > 0

        monkeypatch.setattr(rdf_engine, "_CHUNK_PAIRS", n * (n - 1) // 2 - 1)
        strips = list(rdf_engine._pair_strips(n))
        assert len(strips) >= 2 or n == 2
        np.testing.assert_array_equal(np.concatenate([s[0] for s in strips]), i)
        np.testing.assert_array_equal(np.concatenate([s[1] for s in strips]), j)
        np.testing.assert_array_equal(counts_with(_all_pairs, types, coms, cell, rmax, dr), cached)
        if n <= 3:
            np.testing.assert_array_equal(
                cached, reference_counts([coms], types, cell.matrix, 2, rmax, dr)
            )

    def test_bins_at_the_cutoff_and_half_points(self):
        """Pairs one ulp either side of rc = rmax + dr/2, and of the bin
        half-points near rmax, land in bin nint(r / dr) whenever that bin
        exists: the r^2 prefilter drops none of them.  A power-of-two cell
        edge keeps r exactly the distance placed."""
        rmax, dr = 12.5, 0.1
        cell = CellTensor.cubic(32.0)
        nbins = n_bins(rmax, dr)
        hist = PairHistogram.create(1, rmax, dr)
        expected = np.zeros(nbins, dtype=np.int64)
        targets = [(k + 0.5) * dr for k in range(nbins - 4, nbins)] + [search_radius(rmax, dr)]
        for target in targets:
            for r in (np.nextafter(target, 0.0), target, np.nextafter(target, np.inf)):
                for axis, sign in [(0, 1.0), (1, -1.0), (2, 1.0)]:
                    coms = np.zeros((2, 3))
                    coms[1, axis] = sign * r
                    accumulate_frame(hist, np.array([0, 0]), coms, cell)
                    b = int(nint(r / dr))
                    if b < nbins:
                        expected[b] += 2
        assert expected[-1] > 0 and expected.sum() < 2 * 3 * 3 * len(targets)
        np.testing.assert_array_equal(hist.counts[0, 0], expected)

    @pytest.mark.parametrize("imcon", [1, 2, 3, 6])
    def test_cell_product_matches_d_at_m(self, imcon):
        """The kernel holds displacements as rows (x, y, z) and takes m.T @ d,
        the same sums as d @ m on pairs as rows.  On a diagonal cell the
        off-diagonal products are exact zeros, so both have the bits of
        d * diagonal.  On a tilted cell their bits depend on how the BLAS
        build orders and fuses the sums, so that case is checked to a few
        ulp here and bit for bit by the goldens."""
        rng = np.random.default_rng(imcon)
        d = rng.uniform(-0.5, 0.5, (3, 5000))
        for tilts in [(0.0, 0.0, 0.0), (0.23, -0.31, 0.17)]:
            m = make_cell(imcon, (31.7, 28.3, 35.1), tilts).matrix
            reference = np.ascontiguousarray((np.ascontiguousarray(d.T) @ m).T)
            if np.array_equal(m, np.diag(m.diagonal())):
                scaled = d * m.diagonal()[:, None]
                assert (m.T @ d).tobytes() == scaled.tobytes() == reference.tobytes()
            else:
                assert imcon in (3, 6) and tilts[0]
                np.testing.assert_allclose(m.T @ d, reference, rtol=1e-15, atol=1e-14)


class TestOverflowBin:
    """A pair that passes the r^2 prefilter but gets no bin goes to an
    overflow bin past the last bin of its pair of types, which is dropped
    when the frame is added to the histogram.  Three types, so that a spill
    into the first bin of the next pair of types would show."""

    rmax, dr = 12.5, 0.1

    def counts_at(self, r, pair_types):
        """Counts of one pair of molecules r apart along x, in a cube whose
        power-of-two edge keeps r exactly the distance placed."""
        hist = PairHistogram.create(3, self.rmax, self.dr)
        coms = np.zeros((2, 3))
        coms[1, 0] = r
        accumulate_frame(hist, np.array(pair_types), coms, CellTensor.cubic(32.0))
        return hist.counts

    @pytest.mark.parametrize("pair_types", [(0, 1), (1, 0), (1, 1), (2, 0), (2, 2)])
    def test_edges_of_the_last_bin_and_the_prefilter(self, pair_types):
        nbins = n_bins(self.rmax, self.dr)
        rc = search_radius(self.rmax, self.dr)
        # The largest r still in the last bin, and the next float, where
        # r / dr reaches nbins - 1/2.
        last = rc
        while nint(last / self.dr) >= nbins:
            last = np.nextafter(last, 0.0)
        edge = np.nextafter(last, np.inf)
        assert nint(last / self.dr) == nbins - 1 and nint(edge / self.dr) == nbins
        a, b = pair_types
        counts = self.counts_at(last, pair_types)
        assert counts[a, b, -1] == counts[b, a, -1] == 2 - (a != b) and counts.sum() == 2

        # The prefilter keeps these, within its margin: no bin, no count.
        r2_max = (rc * (1.0 + 1e-6)) ** 2
        margin = [edge, rc * (1.0 + 5e-7), rc * (1.0 + 1e-6)]
        assert all(r * r <= r2_max for r in margin)
        for r in margin + [np.nextafter(rc * (1.0 + 1e-6), np.inf), 15.0]:
            assert self.counts_at(r, pair_types).sum() == 0, r

    def test_margin_wider_than_a_bin(self):
        """Past a million bins the prefilter's margin of 1e-6 rc spans more
        than one bin: a pair at its end gets bin nbins + 1, and still goes
        to the overflow bin."""
        rmax, dr = 1.2, 1e-6
        hist = PairHistogram.create(1, rmax, dr)
        nbins = hist.counts.shape[2]
        r = search_radius(rmax, dr) * (1.0 + 1e-6)
        assert nint(r / dr) == nbins + 1
        coms = np.zeros((2, 3))
        coms[1, 2] = r
        accumulate_frame(hist, np.array([0, 0]), coms, CellTensor.cubic(32.0))
        assert hist.counts.sum() == 0


class TestScratch:
    """The kernel keeps one scratch per thread from chunk to chunk and from
    frame to frame."""

    @staticmethod
    def peak_of(hist, types, coms, cell):
        tracemalloc.start()
        try:
            accumulate_frame(hist, types, coms, cell)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_warm_frame_allocates_no_chunk_sized_scratch(self):
        """After a first frame, an 1800-molecule frame in a 40 A cube (21
        chunks) peaks at under 1.5 MiB of new memory: one chunk's pair
        indices and its pairs in range, and the frame's own tables, against
        5.0 MB when every chunk made its own scratch."""
        rng = np.random.default_rng(20)
        cell = CellTensor.cubic(40.0)
        types = rng.integers(0, 2, 1800)
        hist = PairHistogram.create(2, 12.5, 0.1)
        accumulate_frame(hist, types, rng.uniform(0.0, 40.0, (1800, 3)), cell)
        coms = rng.uniform(0.0, 40.0, (1800, 3))
        assert self.peak_of(hist, types, coms, cell) <= 1.5 * 2**20
        assert hist.frames_used == 2

    def test_two_molecules_allocate_little(self):
        """A thread's first two-molecule frame grows its scratch to the one
        pair, not to a whole chunk.  A warm one peaks at 12.6 KiB here,
        against 13.2 KiB when each frame made its own scratch (numpy 2.4);
        the bound leaves room for other builds."""
        cell = CellTensor.cubic(30.0)
        types = np.array([0, 1])
        coms = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.5]])
        hist = PairHistogram.create(2, 12.5, 0.1)
        peaks = []
        thread = threading.Thread(target=lambda: peaks.append(self.peak_of(hist, types, coms, cell)))
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive() and peaks[0] < 32 * 2**10
        accumulate_frame(hist, types, coms, cell)
        assert self.peak_of(hist, types, coms, cell) <= 16 * 2**10
        assert hist.counts[0, 1, 55] == hist.frames_used == 3

    def test_threads_accumulate_at_once(self, monkeypatch):
        """Three threads, more than the cores of a small machine, accumulate
        different frames into histograms of their own at the same time, with
        chunks of other sizes and thread switches every few microseconds:
        each equals the same frames taken serially."""
        monkeypatch.setattr(rdf_engine, "_CHUNK_PAIRS", 2000)
        rng = np.random.default_rng(21)
        cell = make_cell(3, (30.0, 31.0, 29.0), (0.2, -0.1, 0.15))
        runs = []
        for n in (700, 450, 300):
            s = rng.uniform(-0.5, 0.5, (6, n, 3))
            runs.append((rng.integers(0, 3, n), s @ cell.matrix))

        def accumulate(types, frames):
            hist = PairHistogram.create(3, 9.0, 0.1)
            for coms in frames:
                accumulate_frame(hist, types, coms, cell)
            return hist.counts

        serial = [accumulate(*run) for run in runs]
        start = threading.Barrier(len(runs), timeout=60.0)
        threaded = [None] * len(runs)

        def work(k):
            start.wait()
            threaded[k] = accumulate(*runs[k])

        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(runs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for counts, expected in zip(threaded, serial):
            assert expected.sum() > 0
            np.testing.assert_array_equal(counts, expected)
