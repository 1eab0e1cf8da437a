"""Golden RDF/POP files: the analysis must reproduce them byte for byte.

Each case writes a small CONTROL/FIELD/HISTORY triple from a fixed seed into
a temporary directory, runs the analysis there and compares the RDF and POP
files with the ones stored under ``tests/golden/<case>/``.  Molecules are
placed anywhere in the cell and every site is wrapped on its own, so most
frames hold molecules torn across the boundary.

The stored files were written by the per-molecule unfolding of molrdf 0.1.0;
those of the ``cells_*`` cases, which are large enough for the linked-cell
pair search, by the all-pairs pair kernel; those of the ``gap`` case by the
code as it stood before FIELD types were held as per-type arrays.  Rewrite
them only for an intended change of output::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import math
import sys
from decimal import ROUND_FLOOR, Decimal
from pathlib import Path

import numpy as np
import pytest

from molrdf import cli, rdf_engine
from molrdf.cli import run_analysis
from molrdf.synthetic import SyntheticConfig, generate_dataset
from molrdf.trajectory_io import HistoryReader

GOLDEN = Path(__file__).parent / "golden"

TRICLINIC = [[18.0, 0.0, 0.0], [2.5, 17.0, 0.0], [-1.5, 2.0, 19.0]]


def _rotation(rng):
    """A random rotation from three uniform angles (uniform draws only, so the
    inputs do not depend on how numpy samples other distributions)."""
    a, b, c = rng.uniform(0.0, 2.0 * np.pi, 3)
    rz = np.array([[np.cos(a), -np.sin(a), 0], [np.sin(a), np.cos(a), 0], [0, 0, 1]])
    ry = np.array([[np.cos(b), 0, np.sin(b)], [0, 1, 0], [-np.sin(b), 0, np.cos(b)]])
    rx = np.array([[1, 0, 0], [0, np.cos(c), -np.sin(c)], [0, np.sin(c), np.cos(c)]])
    return rz @ ry @ rx


def _chain(rng, n_sites, bond):
    """Freely jointed chain of ``n_sites`` sites, first site at the origin."""
    steps = rng.uniform(-1.0, 1.0, (n_sites - 1, 3))
    steps *= bond / np.linalg.norm(steps, axis=1)[:, None]
    return np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])


# name, site masses, copies, rigid template (True) or fresh chain per frame
MOLECULES = {
    "rigid": [
        ("Tri", [15.9994, 1.008, 1.008], 24, True),
        ("Chain", [12.0, 14.0, 14.0, 14.0, 14.0, 15.0], 10, False),
    ],
    "groups": [
        ("Lipid", [30.0, 31.0, 16.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 10, False),
        ("Linker", [12.0, 0.0, 0.0, 0.0, 14.0], 12, False),
        ("Water", [15.9994, 1.008, 1.008], 24, True),
        ("Ghost", [0.0, 0.0], 16, True),
    ],
    # a massless type between two massive ones: the labels skip type 2
    "gap": [
        ("Water", [15.9994, 1.008, 1.008], 20, True),
        ("Probe", [0.0, 0.0, 0.0, 0.0], 8, False),
        ("Chain", [12.0, 14.0, 14.0, 14.0, 15.0], 12, False),
    ],
    # ~1000 molecules: enough for the linked-cell pair search to be chosen
    "liquid": [
        ("Tri", [15.9994, 1.008, 1.008], 700, True),
        ("Chain", [12.0, 14.0, 14.0, 14.0, 14.0, 15.0], 300, False),
    ],
}

# case: (molecules, imcon, cell matrix, rmax, dr, smooth, frames)
CASES = {
    "orthorhombic": ("rigid", 2, np.diag([17.0, 19.0, 21.0]), 8.0, 0.1, False, 4),
    "triclinic": ("rigid", 3, np.array(TRICLINIC), 8.0, 0.2, False, 4),
    "slab": ("rigid", 6, np.diag([18.0, 20.0, 40.0]), 8.5, 0.1, False, 4),
    "groups": ("groups", 1, 20.0 * np.eye(3), 9.0, 0.15, False, 4),
    "smooth": ("groups", 3, np.array(TRICLINIC), 8.0, 0.1, True, 4),
    "gap": ("gap", 2, np.diag([18.0, 20.0, 19.0]), 8.0, 0.1, False, 4),
    "cells_cubic": ("liquid", 1, 28.0 * np.eye(3), 8.0, 0.1, False, 3),
    "cells_triclinic": ("liquid", 3, 1.6 * np.array(TRICLINIC), 7.5, 0.1, False, 3),
}


def _wrap(positions, matrix, imcon):
    """Wrap every site into the origin-centred cell along its periodic axes."""
    s = positions @ np.linalg.inv(matrix)
    axes = 2 if imcon == 6 else 3
    s[:, :axes] -= np.floor(s[:, :axes] + 0.5)
    return s @ matrix


def write_inputs(case: str, directory: Path, seed: int = 7) -> None:
    """Write the CONTROL, FIELD and HISTORY of ``case`` into ``directory``."""
    kind, imcon, matrix, rmax, dr, smooth, n_frames = CASES[case]
    molecules = MOLECULES[kind]
    rng = np.random.default_rng(seed)

    control = ["golden case " + case, "finish", "polyana", f"  rmax {rmax}", f"  dr {dr}"]
    if smooth:
        control.append("  smooth")
    control.append("end polyana")
    (directory / "CONTROL").write_text("\n".join(control) + "\n")

    site_names = [[f"{name[0]}{i + 1}" for i in range(len(m))] for name, m, _, _ in molecules]
    field = ["golden case " + case, "UNITS internal", f"MOLECULES {len(molecules)}"]
    for (name, masses, count, _), names in zip(molecules, site_names):
        field += [name, f"NUMMOLS {count}", f"ATOMS {len(masses)}"]
        field += [f"{n} {m:.4f} 0.0" for n, m in zip(names, masses)]
        field.append("FINISH")
    field.append("CLOSE")
    (directory / "FIELD").write_text("\n".join(field) + "\n")

    templates = [_chain(rng, len(m), 1.2) if rigid else None for _, m, _, rigid in molecules]
    natoms = sum(len(m) * count for _, m, count, _ in molecules)
    # HISTORY names every site as FIELD does, copy after copy in FIELD order.
    history_names = [n for (_, _, count, _), names in zip(molecules, site_names)
                     for n in names * count]
    lines = ["golden case " + case, f"{0:10d}{imcon:10d}{natoms:10d}"]
    for step in range(1, n_frames + 1):
        sites = []
        for (_, masses, count, rigid), template in zip(molecules, templates):
            for _ in range(count):
                shape = template if rigid else _chain(rng, len(masses), 1.5)
                centre = rng.uniform(-0.5, 0.5, 3) @ matrix
                if imcon == 6:
                    centre[2] = rng.uniform(-6.0, 6.0)
                sites.append(centre + shape @ _rotation(rng).T)
        wrapped = _wrap(np.vstack(sites), matrix, imcon)
        lines.append(f"timestep{step:10d}{natoms:10d}{0:10d}{imcon:10d}{0.001:12.6f}")
        lines += [f"{x:20.10f}{y:20.10f}{z:20.10f}" for x, y, z in matrix]
        for i, (n, (x, y, z)) in enumerate(zip(history_names, wrapped)):
            lines.append(f"{n:<8s}{i + 1:10d}{1.0:12.6f}{0.0:12.6f}")
            lines.append(f"{x:20.10f}{y:20.10f}{z:20.10f}")
    (directory / "HISTORY").write_text("\n".join(lines) + "\n")


def write_spike(directory: Path) -> None:
    generate_dataset(SyntheticConfig(n_frames=60, seed=31), directory)


def _analyse(case: str, directory: Path) -> tuple[bytes, bytes]:
    if case == "spike":
        write_spike(directory)
    else:
        write_inputs(case, directory)
    summary = run_analysis(directory)
    return summary.rdf_path.read_bytes(), summary.pop_path.read_bytes()


ALL_CASES = ["spike", *CASES]


@pytest.mark.parametrize("case", ALL_CASES)
def test_output_matches_golden(case, tmp_path, caplog):
    rdf, pop = _analyse(case, tmp_path)
    assert rdf == (GOLDEN / case / "RDF").read_bytes()
    assert pop == (GOLDEN / case / "POP").read_bytes()
    # Steps 1, 2, 3, ...: the reader has nothing to warn about.
    assert [r.message for r in caplog.records if r.name == "molrdf.trajectory_io"] == []


@pytest.mark.parametrize("case", ["cells_cubic", "cells_triclinic"])
def test_cells_cases_use_the_cell_search(case, tmp_path, monkeypatch):
    searched = []
    cell_pairs = rdf_engine._cell_pairs
    monkeypatch.setattr(
        rdf_engine, "_cell_pairs", lambda *args: searched.append(1) or cell_pairs(*args)
    )
    _analyse(case, tmp_path)
    assert len(searched) == CASES[case][-1]


# The smallest relative distance that every golden run keeps from a bin edge
# (each pair's r / dr) and from a %14.6E rounding point (each written g(r) and
# POP value).  Above these, bits that move by far less, through another order
# of a sum or other BLAS kernels (1e-16 a step, 1e-13 over a volume sum of
# 1000 frames), cannot move a count or a written digit.  The goldens measure
# at least 1.2e-8 (cells_cubic) and 5.4e-11 (cells_triclinic).
EDGE_MARGIN = 1e-10
PRINT_MARGIN = 1e-12


def edge_margin(coms, cell, nbins, dr):
    """The smallest relative distance from r / dr to its nearest bin edge,
    n + 1/2, over the pairs of every frame of ``coms`` that are counted or
    lie within half a bin past the last edge, by a double loop over pairs:
    the minimum image of each, folded in reduced coordinates."""
    inv = np.linalg.inv(cell.matrix)
    smallest = math.inf
    for frame in np.reshape(coms, (-1, *np.shape(coms)[-2:])):
        s = frame @ inv
        for i in range(len(s) - 1):
            d = s[i + 1 :] - s[i]
            d[:, cell.periodic] -= np.floor(d[:, cell.periodic] + 0.5)
            x = np.sqrt(((d @ cell.matrix) ** 2).sum(axis=1)) / dr
            x = x[x < nbins]
            edge = np.floor(x) + 0.5
            smallest = min(smallest, float((np.abs(x - edge) / edge).min(initial=math.inf)))
    return smallest


def print_margin(values):
    """The smallest relative distance from a value to the nearest point at
    which its %14.6E form would round the other way; zeros print exactly."""
    smallest = math.inf
    for v in np.ravel(values).tolist():
        if v:
            exact = abs(Decimal(v))
            digits = exact.scaleb(6 - exact.adjusted())  # 7 digits before the point
            half = abs(digits - digits.to_integral_value(ROUND_FLOOR) - Decimal("0.5"))
            smallest = min(smallest, float(half / digits))
    return smallest


@pytest.mark.parametrize("case", ALL_CASES)
def test_counts_and_outputs_keep_their_margins(case, tmp_path, monkeypatch):
    """Every pair of each golden run lies more than EDGE_MARGIN from a bin
    edge, and every written value more than PRINT_MARGIN from a rounding
    point, so that the goldens pin the counts and the printed digits, not
    the last bits of the arithmetic."""
    edges, tables = [], []

    def accumulate_frame(hist, types, coms, cell):
        edges.append(edge_margin(coms, cell, hist.counts.shape[2], hist.dr))
        return rdf_engine.accumulate_frame(hist, types, coms, cell)

    def finalize(*args, **kwargs):
        tables.append(rdf_engine.finalize(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(cli, "accumulate_frame", accumulate_frame)
    monkeypatch.setattr(cli, "finalize", finalize)
    _analyse(case, tmp_path)
    (table,) = tables
    assert edges and min(edges) > EDGE_MARGIN
    assert print_margin([table.g, table.pop]) > PRINT_MARGIN


def test_inputs_tear_molecules(tmp_path):
    """The inputs must exercise unfolding: some 3-site molecule of the first
    frame has wrapped sites more than half the cell apart."""
    write_inputs("triclinic", tmp_path)
    with HistoryReader(tmp_path / "HISTORY") as reader:
        frame = next(iter(reader))
    spans = np.ptp(frame.positions[:72].reshape(24, 3, 3), axis=1)
    assert (spans.max(axis=1) > 9.0).any()


if __name__ == "__main__":
    import tempfile

    for case in ALL_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            rdf, pop = _analyse(case, Path(tmp))
        (GOLDEN / case).mkdir(parents=True, exist_ok=True)
        (GOLDEN / case / "RDF").write_bytes(rdf)
        (GOLDEN / case / "POP").write_bytes(pop)
        print(f"wrote {GOLDEN / case}", file=sys.stderr)
