"""End-to-end acceptance checks.

Each test prints one PASS line when its criterion holds; a failure surfaces
as a normal pytest failure before the line is printed.
"""

import logging
import math
import sys
import time

import numpy as np
import pytest

from molrdf.cli import main, run_analysis
from molrdf.geometry import CellTensor
from molrdf.rdf_engine import (
    PairHistogram,
    accumulate_frame,
    finalize,
    merge,
    shell_volumes,
    smooth_curve,
)
from molrdf.synthetic import SyntheticConfig, generate_dataset
from molrdf.trajectory_io import (
    HistoryReader,
    MoleculeSpec,
    Topology,
    parse_directives,
    parse_field,
)
from molrdf.unfolding import centers_of_mass, unfold


def test_spike_benchmark_end_to_end(tmp_path, capsys):
    """Two tumbling molecules at pegged separation give a single-bin g(r)."""
    t0 = time.perf_counter()
    assert main(["generate", "--dir", str(tmp_path), "--frames", "2000"]) == 0
    assert main(["--dir", str(tmp_path)]) == 0
    elapsed = time.perf_counter() - t0
    capsys.readouterr()

    rdf = np.loadtxt(tmp_path / "RDF")
    pop = np.loadtxt(tmp_path / "POP")
    # Columns: r, g(1,1), g(2,2), g(1,2).
    assert rdf.shape == (126, 4)
    np.testing.assert_array_equal(rdf[:, 1], 0.0)
    np.testing.assert_array_equal(rdf[:, 2], 0.0)
    spike = rdf[:, 3] != 0.0
    assert spike.sum() == 1
    assert rdf[np.argmax(spike), 0] == pytest.approx(5.0)
    assert np.argmax(spike) == 50  # bin 51, 1-based
    assert pop[-1, 3] == 1.0
    assert elapsed < 10.0

    print(f"PASS spike benchmark: single nonzero bin at r=5.0, pop12(rmax)=1.0, {elapsed:.1f}s")


def test_ideal_gas_is_flat(capsys):
    """Uniform random points give g = 1 inside 5-sigma counting bands."""
    t0 = time.perf_counter()
    n_mol, length, n_frames = 200, 20.0, 500
    dr, rmax = 0.25, 9.0
    rng = np.random.default_rng(2024)
    topo = Topology((MoleculeSpec("Gas", n_mol, ("X",), (1.0,)),))
    cell = CellTensor.cubic(length)
    hist = PairHistogram.create(1, rmax=rmax, dr=dr)
    types = np.zeros(n_mol, dtype=np.int64)
    for _ in range(n_frames):
        accumulate_frame(hist, types, rng.uniform(0, length, (n_mol, 3)), cell)
    table = finalize(hist, topo)
    elapsed = time.perf_counter() - t0

    sel = (table.bin_centers >= 1.0) & (table.bin_centers <= 9.0)
    g = table.g[0, sel]
    volume = length**3
    vshell = shell_volumes(len(table.bin_centers), dr)[sel]
    # Each unordered pair lands in a shell with probability p and adds 2 to
    # the like-pair cell, so the g estimate carries twice the Poisson sigma
    # of the unordered-pair count.
    n_pairs = n_frames * n_mol * (n_mol - 1) / 2
    p = vshell / volume
    sigma_g = 2.0 * np.sqrt(n_pairs * p) * volume / (n_frames * n_mol**2 * vshell)

    deviation = np.abs(g - 1.0)
    assert np.all(deviation <= 5.0 * sigma_g)
    assert deviation.mean() < 0.05
    assert elapsed < 60.0

    print(
        f"PASS ideal gas: {sel.sum()} bins within 5 sigma of 1.0, "
        f"mean |g-1| = {deviation.mean():.4f}, {elapsed:.1f}s"
    )


def test_counts_match_naive_double_loop():
    """Vectorized accumulation equals a from-scratch O(N^2) reference."""

    def ref_nint(x):
        return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)

    def ref_counts(frames, types, length, n_types, rmax, dr):
        nbins = 1 + ref_nint(rmax / dr)
        counts = np.zeros((n_types, n_types, nbins), dtype=np.int64)
        for coms in frames:
            for i in range(len(coms)):
                for j in range(i + 1, len(coms)):
                    d = [0.0, 0.0, 0.0]
                    for k in range(3):
                        frac = (coms[j][k] - coms[i][k]) / length
                        d[k] = (frac - ref_nint(frac)) * length
                    r = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
                    b = ref_nint(r / dr)
                    if b < nbins:
                        counts[types[i], types[j], b] += 1
                        counts[types[j], types[i], b] += 1
        return counts

    rng = np.random.default_rng(404)
    length, rmax, dr = 12.0, 5.0, 0.3
    types = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2])
    topo = Topology(
        tuple(
            MoleculeSpec(f"T{i}", c, ("X",), (1.0,))
            for i, c in enumerate([4, 3, 3], start=1)
        )
    )
    cell = CellTensor.cubic(length)
    frames = [rng.uniform(0, length, (10, 3)) for _ in range(5)]

    hist = PairHistogram.create(3, rmax=rmax, dr=dr)
    for coms in frames:
        accumulate_frame(hist, types, coms, cell)
    expected = ref_counts(frames, types, length, 3, rmax, dr)
    np.testing.assert_array_equal(hist.counts, expected)

    table = finalize(hist, topo)
    vshell = shell_volumes(hist.counts.shape[2], dr)
    for p_idx, (a, b) in enumerate(table.pair_labels):
        n_a = topo.molecules[a - 1].count
        n_b = topo.molecules[b - 1].count
        g_ref = expected[a - 1, b - 1] * length**3 / (5 * n_a * n_b * vshell)
        np.testing.assert_allclose(table.g[p_idx], g_ref, rtol=1e-12, atol=0)

    print("PASS naive reference: integer count equality and g within 1e-12 relative")


def test_unfold_round_trip_100_molecules():
    """Random lattice scatter is undone exactly for molecules up to 20 sites."""
    length = 20.0
    cell = CellTensor.cubic(length)
    rng = np.random.default_rng(606)
    mended = 0
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        # All sites inside a radius-4.5 ball: well under a quarter cell.
        directions = rng.standard_normal((n, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        positions = directions * 4.5 * np.cbrt(rng.uniform(0, 1, n))[:, None]
        positions += rng.uniform(-30, 30, 3)
        masses = rng.uniform(1.0, 20.0, n)

        shifts = rng.integers(-5, 6, (n, 3)) * length
        observed = (positions + shifts)[None]
        whole = unfold(observed, cell)[0]
        mended += not np.array_equal(whole, observed[0])

        # Every site moved by the same lattice vector, so the centre of mass
        # is the true one up to that vector.
        offset = whole - positions
        np.testing.assert_allclose(offset, np.broadcast_to(offset[0], offset.shape), atol=1e-9)
        np.testing.assert_allclose(offset[0], length * np.round(offset[0] / length), atol=1e-9)
        com = centers_of_mass(observed, masses, cell)[0]
        true_com = masses @ positions / masses.sum()
        d = com - true_com
        worst = max(worst, np.abs(d - length * np.round(d / length)).max())

        def dists(pts):
            return np.sort(
                [
                    np.linalg.norm(pts[i] - pts[j])
                    for i in range(len(pts))
                    for j in range(i + 1, len(pts))
                ]
            )

        np.testing.assert_allclose(dists(whole), dists(positions), atol=1e-9)
    assert worst < 1e-9
    assert mended > 90

    print(
        "PASS unfold round-trip: 100 molecules restored to 1e-9 A, "
        f"{mended} needed mending, COM off the true one by {worst:.1e} A modulo the lattice"
    )


def test_directive_block_and_defaults():
    block = (
        "simulation title\n"
        "temperature 300\n"
        "finish\n"
        "\n"
        "polyana\n"
        "  start  1001\n"
        "  stop   5000\n"
        "  rmax   10.0\n"
        "  dr     0.2\n"
        "  smooth\n"
        "end polyana\n"
    )
    d = parse_directives(block)
    assert (d.start, d.stop, d.rmax, d.dr, d.smooth) == (1001, 5000, 10.0, 0.2, True)

    d0 = parse_directives("simulation title\ntemperature 300\nfinish\n")
    assert (d0.start, d0.stop, d0.rmax, d0.dr, d0.smooth) == (
        1,
        sys.maxsize,
        12.5,
        0.1,
        False,
    )

    print("PASS directives: block gives (1001, 5000, 10.0, 0.2, true); defaults otherwise")


def test_truncated_and_headerless_trajectories(tmp_path, caplog):
    n_frames = 60
    generate_dataset(SyntheticConfig(n_frames=n_frames), tmp_path)
    baseline = run_analysis(tmp_path)
    assert baseline.frames_used == n_frames
    rdf_bytes = (tmp_path / "RDF").read_bytes()
    pop_bytes = (tmp_path / "POP").read_bytes()

    history = tmp_path / "HISTORY"
    full_text = history.read_text()

    # Cut mid-frame: one frame lost, warning emitted, outputs still valid.
    lines = full_text.splitlines()
    (tmp_path / "HISTORY_cut").write_text("\n".join(lines[:-7]) + "\n")
    with caplog.at_level(logging.WARNING, logger="molrdf.cli"):
        cut = run_analysis(tmp_path, history="HISTORY_cut", rdf_out="RDF_cut", pop_out="POP_cut")
    assert cut.frames_read == n_frames - 1
    assert cut.frames_used == n_frames - 1
    assert cut.truncated
    assert "abnormally terminated" in caplog.text
    cut_rdf = np.loadtxt(tmp_path / "RDF_cut")
    assert cut_rdf.shape == (126, 4)
    assert np.all(np.isfinite(cut_rdf))

    # Strip the two-line header: results must be identical to the baseline.
    (tmp_path / "HISTORY_bare").write_text("\n".join(lines[2:]) + "\n")
    bare = run_analysis(tmp_path, history="HISTORY_bare", rdf_out="RDF_bare", pop_out="POP_bare")
    assert bare.frames_used == n_frames
    assert (tmp_path / "RDF_bare").read_bytes() == rdf_bytes
    assert (tmp_path / "POP_bare").read_bytes() == pop_bytes

    print("PASS robust trajectories: truncation warns and degrades by one frame; headerless identical")


def test_smoothing_exactness():
    constant = np.full(50, 1.7)
    np.testing.assert_allclose(smooth_curve(constant), constant, rtol=1e-12)

    # Values stay away from zero so the relative tolerance is meaningful.
    i = np.arange(50, dtype=float)
    quadratic = 5.0 + 0.5 * i + 0.01 * i * i
    out = smooth_curve(quadratic)
    np.testing.assert_allclose(out[2:-2], quadratic[2:-2], rtol=1e-12)
    np.testing.assert_array_equal(out[:2], quadratic[:2])
    np.testing.assert_array_equal(out[-2:], quadratic[-2:])

    print("PASS smoothing: constants and quadratics preserved on interior, endpoints pass through")


def test_zero_mass_site_filtering(caplog):
    field_text = (
        "hexane split into massive head and tail groups\n"
        "MOLECULES 3\n"
        "HexaneHead\n"
        "NUMMOLS 2\n"
        "ATOMS 6\n"
        "C1 15.035 0.0\n"
        "C2 14.027 0.0\n"
        "C3 14.027 0.0\n"
        "C4  0.000 0.0\n"
        "C5  0.000 0.0\n"
        "C6  0.000 0.0\n"
        "FINISH\n"
        "HexaneTail\n"
        "NUMMOLS 2\n"
        "ATOMS 6\n"
        "C1  0.000 0.0\n"
        "C2  0.000 0.0\n"
        "C3  0.000 0.0\n"
        "C4 14.027 0.0\n"
        "C5 14.027 0.0\n"
        "C6 15.035 0.0\n"
        "FINISH\n"
        "Ghost\n"
        "NUMMOLS 1\n"
        "ATOMS 2\n"
        "X 0.0 0.0 2\n"
        "FINISH\n"
    )
    topo = parse_field(field_text)

    rng = np.random.default_rng(17)
    for mol in topo.molecules[:2]:
        positions = rng.uniform(-4, 4, (6, 3))
        masses = mol.masses
        # Sites within 14 A of each other in a 100 A cell: no bond folds.
        com = centers_of_mass(positions[None], masses, CellTensor.cubic(100.0))[0]
        np.testing.assert_allclose(com, masses @ positions / masses.sum(), atol=1e-12)
        massive = masses > 0
        expected = (masses[massive] @ positions[massive]) / masses[massive].sum()
        np.testing.assert_allclose(com, expected, atol=1e-12)

    assert centers_of_mass(rng.uniform(0, 1, (1, 2, 3)), np.zeros(2), CellTensor.cubic(20.0)) is None

    hist = PairHistogram.create(3, rmax=5.0, dr=0.5)
    cell = CellTensor.cubic(20.0)
    coms = np.array([[0.0, 0, 0], [2.0, 0, 0], [0, 3.0, 0], [0, 0, 4.0]])
    accumulate_frame(hist, np.array([0, 0, 1, 1]), coms, cell)
    with caplog.at_level(logging.WARNING, logger="molrdf.rdf_engine"):
        table = finalize(hist, topo)
    assert "Ghost" in caplog.text
    assert table.pair_labels == ((1, 1), (2, 2), (1, 2))

    print("PASS zero-mass filtering: COM from massive sites only; massless type excluded with warning")


def test_four_way_merge_equals_single_pass(tmp_path):
    ds = generate_dataset(SyntheticConfig(n_frames=80), tmp_path)
    topo = parse_field((tmp_path / "FIELD").read_text())
    masses = [m.masses for m in topo.molecules]
    with HistoryReader(tmp_path / "HISTORY") as reader:
        frames = list(reader)
    assert len(frames) == 80

    def com_arrays(frame):
        coms = [
            centers_of_mass(frame.positions[sl][None], m, frame.cell)[0]
            for sl, m in zip((slice(0, 8), slice(8, 16)), masses)
        ]
        return np.array([0, 1]), np.array(coms)

    # The mended centres are the true ones up to a lattice vector.
    length = ds.cell.matrix[0, 0]
    for frame, true in zip(frames, ds.unwrapped_frames):
        true_coms = [m @ true[sl] / m.sum() for sl, m in zip((slice(0, 8), slice(8, 16)), masses)]
        d = com_arrays(frame)[1] - true_coms
        np.testing.assert_allclose(d, length * np.round(d / length), atol=1e-9)

    single = PairHistogram.create(2, rmax=12.5, dr=0.1)
    for frame in frames:
        types, coms = com_arrays(frame)
        accumulate_frame(single, types, coms, frame.cell)

    merged = PairHistogram.create(2, rmax=12.5, dr=0.1)
    for lo in range(0, 80, 20):
        part = PairHistogram.create(2, rmax=12.5, dr=0.1)
        for frame in frames[lo : lo + 20]:
            types, coms = com_arrays(frame)
            accumulate_frame(part, types, coms, frame.cell)
        merged = merge(merged, part)

    np.testing.assert_array_equal(merged.counts, single.counts)
    assert merged.frames_used == single.frames_used
    t_single = finalize(single, topo)
    t_merged = finalize(merged, topo)
    np.testing.assert_allclose(t_merged.g, t_single.g, rtol=1e-12)

    print("PASS merge determinism: 4-way partition equals single pass with integer count equality")
