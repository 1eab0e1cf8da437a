"""Exact coordination numbers of crystals, and the flat g(r) of an ideal
gas, through the CLI.

The goldens pin the program's own bits, and an oracle that re-implements the
normalisation shares its formula.  A lattice has coordination numbers that
hold whatever that formula is: POP(r) must step by the size of each shell
and g(r) must be zero away from the shells.  An ideal gas has g(r) = 1 and
POP(r) the mean count of a sphere's volume.  Rigid 3-site molecules sit
with their centres of mass on the lattice, each turned at random and the
whole lattice shifted at random in every frame, and their sites are wrapped
one by one, so molecules are torn across the faces of the cell.  The inputs
are built here with numpy alone; every shell lies at least 0.01 A from a
bin edge and below the cell's minimum-image limit.
"""

import math

import numpy as np
import pytest

from molrdf import rdf_engine
from molrdf.cli import main

# Masses and positions (A) of a water-like molecule's sites.
MASSES = (16.0, 1.0, 1.0)
SITES = np.array([[0.0, 0.0, 0.0], [0.96, 0.0, 0.0], [-0.24, 0.93, 0.0]])
OFFSETS = SITES - np.array(MASSES) @ SITES / sum(MASSES)

ROOT3 = math.sqrt(3.0)
# Primitive vectors of an fcc lattice with a 5 A nearest-neighbour distance,
# 60 degrees apart.
FCC = 5.0 * np.array([[1.0, 0.0, 0.0], [0.5, ROOT3 / 2, 0.0], [0.5, ROOT3 / 6, math.sqrt(2 / 3)]])
# Shells at 5 sqrt(k) A for k = 1..5; the next, at 12.25 A, lies past rmax.
SQRT_SHELLS = [5.0 * math.sqrt(k) for k in range(1, 6)]


def write_inputs(directory, imcon, frames, masses, rmax, dr, rng):
    """CONTROL, FIELD and HISTORY of rigid 3-site molecules, one per centre
    of mass.  ``masses`` holds the site masses of each molecule type, and
    ``frames`` one ``(cell, centres)`` pair per frame, ``centres`` the
    centres of mass of each type's molecules in FIELD order."""
    counts = [len(c) for c in frames[0][1]]
    (directory / "CONTROL").write_text(
        f"lattice anchor\n\nfinish\n\npolyana\n  rmax {rmax}\n  dr   {dr}\nend polyana\n"
    )
    types = "".join(
        f"T{t + 1}\nNUMMOLS {n}\nATOMS 3\n"
        + "".join(f"H{k}{m:12.4f}{0.0:12.6f}\n" for k, m in enumerate(type_masses))
        + "FINISH\n"
        for t, (n, type_masses) in enumerate(zip(counts, masses))
    )
    (directory / "FIELD").write_text(
        f"lattice anchor\nUNITS internal\n\nMOLECULES {len(counts)}\n{types}CLOSE\n"
    )
    site_masses = np.concatenate([np.tile(m, n) for n, m in zip(counts, masses)])
    n_sites = len(site_masses)
    periodic = [True, True, imcon != 6]
    lines = ["lattice anchor", f"{0:10d}{imcon:10d}{n_sites:10d}"]
    for step, (cell, centres) in enumerate(frames, start=1):
        centres = np.concatenate(centres)
        turns, _ = np.linalg.qr(rng.standard_normal((len(centres), 3, 3)))
        shift = rng.uniform(-20.0, 20.0, 3)
        pos = (centres + shift)[:, None, :] + OFFSETS @ turns.transpose(0, 2, 1)
        s = pos.reshape(-1, 3) @ np.linalg.inv(cell)
        s[:, periodic] -= np.floor(s[:, periodic])
        pos = s @ cell
        lines.append(f"timestep{step:10d}{n_sites:10d}{0:10d}{imcon:10d}{0.001:12.6f}")
        lines += [f"{x:20.12f}{y:20.12f}{z:20.12f}" for x, y, z in cell]
        for i, ((x, y, z), m) in enumerate(zip(pos, site_masses)):
            lines.append(f"H{i % 3:<7d}{i + 1:10d}{m:12.6f}{0.0:12.6f}")
            lines.append(f"{x:20.12f}{y:20.12f}{z:20.12f}")
    (directory / "HISTORY").write_text("\n".join(lines) + "\n")


def analyse(directory, capsys):
    """Run the CLI on ``directory``, which must print no warning, and return
    the RDF's column labels and the RDF and POP tables."""
    assert main(["--dir", str(directory)]) == 0
    # Quiet: no shell reaches the cell's minimum-image limit.
    assert capsys.readouterr().err == ""
    labels = (directory / "RDF").read_text().split("\n", 1)[0].lstrip("#").split()
    return labels, np.loadtxt(directory / "RDF"), np.loadtxt(directory / "POP")


def shell_bins(shells, dr):
    """The bin of each shell, each at least 0.01 A from a bin edge."""
    bins = [round(r / dr) for r in shells]
    assert all(abs(r / dr - b) <= 0.5 - 0.01 / dr for r, b in zip(shells, bins))
    return bins


def steps(shells, sizes, nbins, dr):
    """The neighbours of each bin for shells at ``shells`` A holding
    ``sizes`` molecules each."""
    h = np.zeros(nbins)
    np.add.at(h, shell_bins(shells, dr), sizes)
    return h


def lattice(vectors, counts):
    """Points i a + j b + k c of the lattice ``vectors`` for i, j, k below
    ``counts``."""
    grid = np.stack(np.meshgrid(*map(np.arange, counts), indexing="ij"), axis=-1)
    return grid.reshape(-1, 3) @ vectors


def check_shells(tmp_path, monkeypatch, capsys, imcon, cell, centres, shells, sizes,
                 rmax, dr, column_search):
    """Run the CLI on the lattice and compare POP(1,1) and g(1,1) with the
    shells at ``shells`` A holding ``sizes`` molecules each."""
    searches = []
    cell_pairs = rdf_engine._cell_pairs
    monkeypatch.setattr(rdf_engine, "_cell_pairs", lambda *a: searches.append(1) or cell_pairs(*a))
    write_inputs(tmp_path, imcon, [(cell, [centres])] * 2, [MASSES], rmax, dr,
                 np.random.default_rng(imcon))
    _, rdf, pop = analyse(tmp_path, capsys)
    assert bool(searches) == column_search

    expected = steps(shells, sizes, round(rmax / dr) + 1, dr)
    np.testing.assert_array_equal(pop[:, 1], np.cumsum(expected))
    np.testing.assert_array_equal(np.flatnonzero(rdf[:, 1]), np.flatnonzero(expected))


@pytest.mark.parametrize("imcon, counts, column_search", [(1, (6, 6, 6), False),
                                                         (2, (6, 7, 8), True)])
def test_simple_cubic(tmp_path, monkeypatch, capsys, imcon, counts, column_search):
    """6, 12, 8, 6 and 24 neighbours at 5, 7.07, 8.66, 10 and 11.18 A; 216
    molecules test all pairs, 336 take the column search."""
    cubic = np.diag([5.0, 5.0, 5.0])
    check_shells(tmp_path, monkeypatch, capsys, imcon, cubic * counts, lattice(cubic, counts),
                 SQRT_SHELLS, [6, 12, 8, 6, 24], 12.0, 0.1, column_search)


@pytest.mark.parametrize("n, column_search", [(6, False), (12, True)])
def test_fcc_in_its_rhombohedral_cell(tmp_path, monkeypatch, capsys, n, column_search):
    """12, 6, 24, 12 and 24 neighbours at 5, 7.07, 8.66, 10 and 11.18 A.
    6^3 molecules leave the cell too thin for a grid and test all pairs;
    12^3 take the column search."""
    check_shells(tmp_path, monkeypatch, capsys, 3, n * FCC, lattice(FCC, (n, n, n)),
                 SQRT_SHELLS, [12, 6, 24, 12, 24], 12.0, 0.1, column_search)


def test_triangular_monolayer(tmp_path, monkeypatch, capsys):
    """6, 6, 6, 12 and 6 neighbours at 5, 8.66, 10, 13.23 and 15 A in a slab;
    the next shell, at 17.32 A, is the cell's minimum-image limit."""
    plane = FCC[:2]
    cell = np.vstack([8 * plane, [0.0, 0.0, 20.0]])
    centres = lattice(np.vstack([plane, np.zeros(3)]), (8, 8, 1)) + [0.0, 0.0, 3.7]
    shells = [5.0, 5.0 * ROOT3, 10.0, 5.0 * math.sqrt(7.0), 15.0]
    check_shells(tmp_path, monkeypatch, capsys, 6, cell, centres, shells, [6, 6, 6, 12, 6],
                 16.0, 0.1, column_search=False)


def test_fluorite_with_a_massless_type_between(tmp_path, capsys):
    """CaF2 (a = 5.46 A), with Ca as type 1 and F as type 3: 8 F around
    each Ca at a sqrt(3)/4 and 24 at a sqrt(11)/4, 12 Ca around each Ca at
    a/sqrt(2), and 6, 12 and 8 F around each F at a/2, a/sqrt(2) and
    a sqrt(3)/2.  Twice as many F as Ca, so POP(1,3) counts F around one Ca
    only if it divides by the count of Ca.  Type 2 carries no mass: it is
    left out, and the others keep their numbers."""
    a, n = 5.46, 3
    cube = a * np.eye(3)
    faces = a * np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    calcium = (lattice(cube, (n, n, n))[:, None] + faces).reshape(-1, 3)
    fluorine = lattice(cube / 2, (2 * n,) * 3) + a / 4
    rng = np.random.default_rng(4)
    massless = rng.uniform(0.0, n * a, (10, 3))
    write_inputs(tmp_path, 1, [(n * cube, [calcium, massless, fluorine])] * 2,
                 [MASSES, (0.0, 0.0, 0.0), MASSES], 5.2, 0.1, rng)
    labels, rdf, pop = analyse(tmp_path, capsys)
    assert labels == ["r", "g(1,1)", "g(3,3)", "g(1,3)"]

    shells = {
        "Ca-Ca": ([a / math.sqrt(2)], [12]),
        "F-F": ([a / 2, a / math.sqrt(2), a * ROOT3 / 2], [6, 12, 8]),
        "Ca-F": ([a * ROOT3 / 4, a * math.sqrt(11) / 4], [8, 24]),
    }
    for column, (radii, sizes) in enumerate(shells.values(), start=1):
        expected = steps(radii, sizes, 53, 0.1)
        np.testing.assert_array_equal(pop[:, column], np.cumsum(expected))
        np.testing.assert_array_equal(np.flatnonzero(rdf[:, column]), np.flatnonzero(expected))


def test_breathing_lattice(tmp_path, capsys):
    """The fcc lattice of 6^3 molecules on imcon 3, the lattice and its cell
    scaled by another factor within +-1% in each of 4 frames.  Each frame's
    shells fall in the bins of their own radii, so POP is exactly the mean
    of the frames' steps: a count per frame, in quarters."""
    factors = (1.002, 0.993, 1.0075, 0.9935)
    centres = lattice(FCC, (6, 6, 6))
    frames = [(s * 6 * FCC, [s * centres]) for s in factors]
    write_inputs(tmp_path, 3, frames, [MASSES], 12.0, 0.1, np.random.default_rng(5))
    _, rdf, pop = analyse(tmp_path, capsys)
    sizes = [12, 6, 24, 12, 24]
    expected = sum(steps([s * r for r in SQRT_SHELLS], sizes, 121, 0.1) for s in factors) / 4
    # Three patterns of bins among the four frames.
    assert len({tuple(shell_bins([s * r for r in SQRT_SHELLS], 0.1)) for s in factors}) == 3
    np.testing.assert_array_equal(pop[:, 1], np.cumsum(expected))
    np.testing.assert_array_equal(np.flatnonzero(rdf[:, 1]), np.flatnonzero(expected))


@pytest.mark.parametrize("imcon, cell", [
    (1, np.diag([24.0, 24.0, 24.0])),
    (2, np.diag([23.0, 24.0, 25.0])),
    (3, np.array([[24.0, 0.0, 0.0], [4.0, 23.0, 0.0], [-3.0, 5.0, 25.0]])),
])
def test_ideal_gas(tmp_path, capsys, imcon, cell):
    """N = 600 molecules placed at random, anew in each of 6 frames.  Every
    pair of molecules is then as likely to fall in a shell as its share of
    the volume: mu = F N (N - 1) / 2 * v / V pairs in a shell of volume v,
    give or take sqrt(mu), so g = (N - 1) / N, 1 to within 1/N, within 5
    sigma in every bin of mu >= 20 and over all bins at once; and POP(r) is
    4 pi R^3 (N - 1) / (3 V) within 5 sigma, R = r + dr/2 the outer edge of
    the bin.  A shell volume off by half a bin moves each bin by about one
    sigma here, and all of them by ten."""
    n, frames, rmax, dr = 600, 6, 10.0, 0.1
    rng = np.random.default_rng(imcon)
    write_inputs(tmp_path, imcon, [(cell, [rng.uniform(0.0, 1.0, (n, 3)) @ cell])
                                   for _ in range(frames)], [MASSES], rmax, dr, rng)
    _, rdf, pop = analyse(tmp_path, capsys)
    r, g, pop = rdf[:, 0], rdf[:, 1], pop[:, 1]
    volume = abs(np.linalg.det(cell))
    outer = r + dr / 2
    shells = 4 * math.pi / 3 * (outer**3 - np.maximum(r - dr / 2, 0.0) ** 3)
    pairs = frames * n * (n - 1) / 2 / volume
    mu = pairs * shells
    z = (g * n / (n - 1) - 1) * np.sqrt(mu)
    assert np.all(np.abs(z[mu >= 20]) <= 5)
    assert abs(z.sum()) <= 5 * math.sqrt(len(z))
    within = pairs * 4 * math.pi / 3 * outer**3
    band = 4 * math.pi / 3 * outer**3 * (n - 1) / volume
    z_pop = (pop / band - 1) * np.sqrt(within)
    assert np.all(np.abs(z_pop[within >= 20]) <= 5)
