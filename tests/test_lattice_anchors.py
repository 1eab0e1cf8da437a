"""Exact coordination numbers of crystals, through the CLI.

The goldens pin the program's own bits, and an oracle that re-implements the
normalisation shares its formula.  A lattice has coordination numbers that
hold whatever that formula is: POP(r) must step by the size of each shell
and g(r) must be zero away from the shells.  Rigid 3-site molecules sit
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


def write_inputs(directory, imcon, cell, centres, frames, rmax, dr, rng):
    """CONTROL, FIELD and HISTORY of one molecule type, a rigid 3-site
    molecule per centre of mass, over ``frames`` frames."""
    n = len(centres)
    (directory / "CONTROL").write_text(
        f"lattice anchor\n\nfinish\n\npolyana\n  rmax {rmax}\n  dr   {dr}\nend polyana\n"
    )
    sites = "".join(f"H{k}{m:12.4f}{0.0:12.6f}\n" for k, m in enumerate(MASSES))
    (directory / "FIELD").write_text(
        f"lattice anchor\nUNITS internal\n\nMOLECULES 1\nrigid\nNUMMOLS {n}\nATOMS 3\n"
        f"{sites}FINISH\nCLOSE\n"
    )
    periodic = [True, True, imcon != 6]
    inverse = np.linalg.inv(cell)
    lines = ["lattice anchor", f"{0:10d}{imcon:10d}{3 * n:10d}"]
    for step in range(1, frames + 1):
        turns, _ = np.linalg.qr(rng.standard_normal((n, 3, 3)))
        shift = rng.uniform(-20.0, 20.0, 3)
        pos = (centres + shift)[:, None, :] + OFFSETS @ turns.transpose(0, 2, 1)
        pos = pos.reshape(-1, 3)
        s = pos @ inverse
        s[:, periodic] -= np.floor(s[:, periodic])
        pos = s @ cell
        lines.append(f"timestep{step:10d}{3 * n:10d}{0:10d}{imcon:10d}{0.001:12.6f}")
        lines += [f"{x:20.12f}{y:20.12f}{z:20.12f}" for x, y, z in cell]
        for i, (x, y, z) in enumerate(pos):
            lines.append(f"H{i % 3:<7d}{i + 1:10d}{MASSES[i % 3]:12.6f}{0.0:12.6f}")
            lines.append(f"{x:20.12f}{y:20.12f}{z:20.12f}")
    (directory / "HISTORY").write_text("\n".join(lines) + "\n")


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
    write_inputs(tmp_path, imcon, cell, centres, 2, rmax, dr, np.random.default_rng(imcon))
    assert main(["--dir", str(tmp_path)]) == 0
    # Quiet: no shell reaches the cell's minimum-image limit.
    assert capsys.readouterr().err == ""
    assert bool(searches) == column_search

    bins = [round(r / dr) for r in shells]
    assert all(abs(r / dr - b) <= 0.5 - 0.01 / dr for r, b in zip(shells, bins))
    nbins = round(rmax / dr) + 1
    expected = np.zeros(nbins)
    expected[bins] = sizes
    rdf, pop = (np.loadtxt(tmp_path / name) for name in ("RDF", "POP"))
    np.testing.assert_array_equal(pop[:, 1], np.cumsum(expected))
    np.testing.assert_array_equal(np.flatnonzero(rdf[:, 1]), bins)


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
