"""Input generators for the benchmark workloads.

Each generator writes CONTROL, FIELD and HISTORY into a directory and returns
a :class:`Truth` holding what the analysis must find there: the true
(unwrapped) centre of mass of every massive molecule in every complete frame,
the cell of every frame exactly as written, and the expected summary.  The
program under test sees only the files.

``liquid`` and ``chains`` are built here with their own geometry, apart from
``molrdf.synthetic``; ``spike`` is built by the program's own ``molrdf
generate`` command, because its correctness check rests on exact properties
of that dataset rather than on stored positions.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Sizes of each workload.  README.md gives the reasons and measured costs.
LIQUID_EDGE = 40.0
LIQUID_FRAMES = 2
CHAINS_EDGE = 38.0
CHAINS_FRAMES = 6
CHAINS_BOND = 1.53
SPIKE_FRAMES = 1000
SPIKE_DISTANCE = 5.0
SPIKE_CELL = 30.0

DEFAULT_RMAX = 12.5
DEFAULT_DR = 0.1


@dataclass(frozen=True)
class MoleculeType:
    name: str
    count: int
    sites: tuple[tuple[str, float], ...]  # (site name, mass) after expansion

    @property
    def masses(self) -> np.ndarray:
        return np.array([m for _, m in self.sites])


@dataclass
class Truth:
    """Ground truth behind one generated input directory."""

    types: tuple[MoleculeType, ...]
    rmax: float
    dr: float
    frames_written: int  # complete frames only
    cells: list[np.ndarray] = field(default_factory=list)  # per frame, as written
    # Per complete frame: 0-based type index and true COM of each massive molecule.
    frame_types: list[np.ndarray] = field(default_factory=list)
    frame_coms: list[np.ndarray] = field(default_factory=list)
    expected_warnings: tuple[str, ...] = ()
    spike_distance: float | None = None

    @property
    def mean_volume(self) -> float:
        volume_sum = 0.0
        for c in self.cells:
            volume_sum += abs(float(np.dot(c[0], np.cross(c[1], c[2]))))
        return volume_sum / len(self.cells)

    @property
    def kept_types(self) -> list[int]:
        return [t for t, mol in enumerate(self.types) if mol.masses.sum() > 0.0]


def _rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniformly random rotation matrices from normalised Gaussian quaternions."""
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        axis=1,
    )


def _unit_vectors(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    v = rng.standard_normal(shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _wrap(positions: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """Wrap sites one by one into the origin-centred cell, tearing molecules apart."""
    s = positions @ np.linalg.inv(cell)
    s -= np.floor(s + 0.5)
    return s @ cell


def _as_written(matrix: np.ndarray) -> np.ndarray:
    """The cell matrix exactly as the program will read it back from HISTORY."""
    return np.array([[float(f"{v:20.12f}") for v in row] for row in matrix])


def _write_field(path: Path, title: str, types: tuple[MoleculeType, ...], records) -> None:
    lines = [title, "UNITS kcal", "", f"MOLECULES {len(types)}"]
    for mol, recs in zip(types, records):
        lines += [mol.name, f"NUMMOLS {mol.count}", f"ATOMS {len(mol.sites)}"]
        lines += recs
        lines.append("FINISH")
    lines.append("CLOSE")
    path.write_text("\n".join(lines) + "\n")


def _site_records(types: tuple[MoleculeType, ...]) -> list[str]:
    """HISTORY per-site record lines (name, index, mass, charge), FIELD order."""
    out = []
    for mol in types:
        for _ in range(mol.count):
            for name, mass in mol.sites:
                out.append(f"{name:<8s}{len(out) + 1:10d}{mass:12.6f}{0.0:12.6f}")
    return out


def _frame_lines(step, cell, imcon, keytrj, records, positions, extra) -> list[str]:
    lines = [f"timestep{step:10d}{len(records):10d}{keytrj:10d}{imcon:10d}{0.001:12.6f}"]
    lines += [f"{r[0]:20.12f}{r[1]:20.12f}{r[2]:20.12f}" for r in cell]
    rows = [[f"{x:20.12f}{y:20.12f}{z:20.12f}" for x, y, z in block.tolist()]
            for block in (positions, *extra)]
    for i, rec in enumerate(records):
        lines.append(rec)
        lines.extend(block[i] for block in rows)
    return lines


def make_liquid(directory: Path, seed: int) -> Truth:
    """Rigid 3-site and 5-site molecules at random positions and orientations."""
    rng = np.random.default_rng([seed, 1])
    types = (
        MoleculeType("WAT", 1500, (("OW", 15.9994), ("HW", 1.008), ("HW", 1.008))),
        MoleculeType("MET", 300, (("CM", 12.011),) + (("HM", 1.008),) * 4),
    )
    # Rigid templates: water (0.9572 A, 104.52 deg) and a tetrahedral methane (1.09 A).
    half = np.radians(104.52) / 2
    water = np.array([[0, 0, 0], [0.9572 * np.sin(half), 0, 0.9572 * np.cos(half)],
                      [-0.9572 * np.sin(half), 0, 0.9572 * np.cos(half)]])
    tetra = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) * 1.09 / np.sqrt(3)
    methane = np.vstack([[0, 0, 0], tetra])
    templates = []
    for mol, shape in zip(types, (water, methane)):
        m = mol.masses
        templates.append(shape - (m @ shape) / m.sum())

    cell = _as_written(np.diag([LIQUID_EDGE] * 3))
    truth = Truth(types, DEFAULT_RMAX, DEFAULT_DR, LIQUID_FRAMES)
    records = _site_records(types)
    lines = ["benchmark liquid", f"{0:10d}{1:10d}{len(records):10d}"]
    type_index = np.repeat(np.arange(len(types)), [m.count for m in types])
    for step in range(1, LIQUID_FRAMES + 1):
        coms = rng.uniform(0.0, LIQUID_EDGE, (len(type_index), 3))
        sites = []
        start = 0
        for mol, tmpl in zip(types, templates):
            rot = _rotations(rng, mol.count)
            body = np.einsum("kij,sj->ksi", rot, tmpl)  # (count, n_sites, 3)
            sites.append((coms[start:start + mol.count, None, :] + body).reshape(-1, 3))
            start += mol.count
        positions = _wrap(np.vstack(sites), cell)
        lines += _frame_lines(step, cell, 1, 0, records, positions, ())
        truth.cells.append(cell)
        truth.frame_types.append(type_index)
        truth.frame_coms.append(coms)

    (directory / "CONTROL").write_text("benchmark liquid\n\ntemperature 300\nfinish\n")
    _write_field(directory / "FIELD", "benchmark liquid", types,
                 [[f"{n:<8s}{m:12.4f}{0.0:12.6f}" for n, m in mol.sites] for mol in types])
    (directory / "HISTORY").write_text("\n".join(lines) + "\n")
    return truth


def _triclinic_cell(rng: np.random.Generator) -> np.ndarray:
    base = CHAINS_EDGE * np.array([[1.0, 0.0, 0.0], [0.22, 0.96, 0.0], [-0.12, 0.17, 0.93]])
    return _as_written(base * (1.0 + rng.uniform(-0.004, 0.004)))


def _min_image_cutoff(cell: np.ndarray) -> float:
    a, b, c = cell
    volume = abs(np.dot(a, np.cross(b, c)))
    return 0.5 * min(volume / np.linalg.norm(np.cross(u, v)) for u, v in ((b, c), (c, a), (a, b)))


def make_chains(directory: Path, seed: int) -> Truth:
    """Flexible 30-site chains with massive head groups, plus massless solvent.

    The cell is triclinic (imcon 3) and fluctuates from frame to frame,
    HISTORY carries velocities and forces (keytrj 2) and is cut off in the
    middle of a final, incomplete frame.
    """
    rng = np.random.default_rng([seed, 2])
    tail = (("CT", 0.0),) * 27
    types = (
        MoleculeType("LIPA", 120, (("N", 14.007), ("CA", 12.011), ("P", 30.974)) + tail),
        MoleculeType("LIPB", 80, (("O", 15.999), ("CB", 12.011), ("NB", 14.007)) + tail),
        MoleculeType("SOL", 600, (("SW", 0.0),)),
    )
    rmax, dr = 12.0, 0.2
    truth = Truth(types, rmax, dr, CHAINS_FRAMES,
                  expected_warnings=("abnormally terminated",
                                     "molecule type 3 (SOL) carries no mass"))
    records = _site_records(types)
    natoms = len(records)
    lines = ["benchmark chains", f"{2:10d}{3:10d}{natoms:10d}"]
    n_chains = types[0].count + types[1].count
    head_masses = [mol.masses[:3] for mol in types[:2]]
    chain_type = np.repeat([0, 1], [types[0].count, types[1].count])
    for step in range(1, CHAINS_FRAMES + 2):
        cell = _triclinic_cell(rng)
        # A pair whose fold is ambiguous then lies beyond rmax in every image.
        if _min_image_cutoff(cell) <= rmax + dr:
            raise ValueError("chains cell is too small for rmax")
        start = rng.uniform(0.0, 1.0, (n_chains, 3)) @ cell
        bonds = CHAINS_BOND * _unit_vectors(rng, (n_chains, 29))
        chains = start[:, None, :] + np.concatenate(
            [np.zeros((n_chains, 1, 3)), np.cumsum(bonds, axis=1)], axis=1)
        coms = np.empty((n_chains, 3))
        for t, m in enumerate(head_masses):
            sel = chain_type == t
            coms[sel] = np.einsum("s,ksi->ki", m, chains[sel, :3]) / m.sum()
        solvent = rng.uniform(0.0, 1.0, (types[2].count, 3)) @ cell
        positions = _wrap(np.vstack([chains.reshape(-1, 3), solvent]), cell)
        velocities = rng.normal(0.0, 5.0, (natoms, 3))
        forces = rng.normal(0.0, 500.0, (natoms, 3))
        frame = _frame_lines(step, cell, 3, 2, records, positions, (velocities, forces))
        if step > CHAINS_FRAMES:
            # Cut mid-frame: the header, cell and half of the site records.
            lines += frame[: 4 + 2 * natoms]
            break
        lines += frame
        truth.cells.append(cell)
        truth.frame_types.append(chain_type)
        truth.frame_coms.append(coms)

    (directory / "CONTROL").write_text(
        "benchmark chains\n\nensemble nvt hoover 0.5\nfinish\n\n"
        f"POLYANA\n  DR {dr}\n  rmax   {rmax}\nend polyana\n")
    field_records = []
    for mol in types:
        recs = [f"{n:<8s}{m:12.4f}{0.0:12.6f}" for n, m in mol.sites if n != "CT"]
        if len(mol.sites) > len(recs):  # tail written once with a repeat count
            recs.append(f"{'CT':<8s}{0.0:12.4f}{0.0:12.6f}{len(mol.sites) - len(recs):6d}")
        if len(mol.sites) > 1:  # a bond section the parser must skip
            recs += ["BONDS 1", "harm 1 2 300.0 1.53"]
        field_records.append(recs)
    _write_field(directory / "FIELD", "benchmark chains", types, field_records)
    (directory / "HISTORY").write_text("\n".join(lines) + "\n")
    return truth


def make_spike(directory: Path, seed: int, root: Path) -> Truth:
    """The README's two-molecule dataset, written by ``molrdf generate``."""
    cmd = [sys.executable, "-m", "molrdf.cli", "generate", "--dir", str(directory),
           "--sites", "8", "--radius", "3", "--distance", str(SPIKE_DISTANCE),
           "--cell", str(SPIKE_CELL), "--frames", str(SPIKE_FRAMES), "--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)
    # Only the type count and copies matter to the spike check; the random
    # site masses stay in the generated FIELD.
    types = (MoleculeType("RandomA", 1, (("A", 1.0),)), MoleculeType("RandomB", 1, (("B", 1.0),)))
    truth = Truth(types, DEFAULT_RMAX, DEFAULT_DR, SPIKE_FRAMES,
                  spike_distance=SPIKE_DISTANCE)
    truth.cells = [np.diag([SPIKE_CELL] * 3)] * SPIKE_FRAMES
    return truth


def make(workload: str, directory: Path, seed: int, root: Path) -> Truth:
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "liquid":
        return make_liquid(directory, seed)
    if workload == "chains":
        return make_chains(directory, seed)
    if workload == "spike":
        return make_spike(directory, seed, root)
    raise ValueError(f"unknown workload {workload!r}")
