"""Synthetic two-molecule benchmark trajectories.

Writes a CONTROL/FIELD/HISTORY triple for a system of two rigid random
molecules in a cubic cell whose centres of mass sit at an exact, fixed
separation in every frame while both molecules tumble with uniformly random
orientations.  The resulting g(r) must be a single spike at the pegged
distance and the cross-pair coordination population must reach exactly 1 at
rmax, which makes the dataset a self-contained correctness check for the
whole analysis pipeline.

The first molecule's centre of mass sits at the cell corner of the wrapped
coordinate domain, so its sites scatter across all eight corners once
wrapped.  Analysis only sees the wrapped file; putting the molecules where
wrapping tears them apart is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .geometry import CellTensor, to_reduced
from .trajectory_io import MoleculeSpec, Topology

DEFAULT_SEED = 2024


@dataclass(frozen=True)
class SyntheticConfig:
    """Geometry and size of the generated benchmark system."""

    n_sites: int = 8
    radius: float = 3.0
    distance: float = 5.0
    cell_length: float = 30.0
    n_frames: int = 200
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.n_sites < 1:
            raise InputError("n_sites must be >= 1")
        if self.radius <= 0 or self.distance <= 0 or self.cell_length <= 0:
            raise InputError("radius, distance and cell_length must be positive")
        if self.n_frames < 1:
            raise InputError("n_frames must be >= 1")
        # Both molecules must always fit inside half the cell, else the
        # minimum-image distance between their centres would not be pegged.
        if self.distance + 2 * self.radius >= self.cell_length / 2:
            raise InputError(
                f"distance + 2*radius = {self.distance + 2 * self.radius} must stay "
                f"below half the cell length ({self.cell_length / 2})"
            )


@dataclass(frozen=True, eq=False)
class GeneratedDataset:
    """Paths of the written files plus the ground truth behind them."""

    control_path: Path
    field_path: Path
    history_path: Path
    topology: Topology
    cell: CellTensor
    offsets: tuple[np.ndarray, np.ndarray]  # COM-centred site offsets per type
    unwrapped_frames: tuple[np.ndarray, ...]  # pre-wrap site positions per frame


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random rotation matrix (normalised random quaternion)."""
    while True:
        q = rng.standard_normal(4)
        norm = np.linalg.norm(q)
        if norm > 1e-12:
            break
    w, x, y, z = q / norm
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_in_sphere(rng: np.random.Generator, radius: float, n: int) -> np.ndarray:
    directions = np.stack([random_unit_vector(rng) for _ in range(n)])
    radii = radius * np.cbrt(rng.uniform(0.0, 1.0, n))
    return directions * radii[:, None]


def gen_topology(cfg: SyntheticConfig, rng: np.random.Generator) -> Topology:
    """Two single-copy molecule types with random 4-decimal site masses."""

    def make(name: str, prefix: str) -> MoleculeSpec:
        names = tuple(f"{prefix}{i + 1}" for i in range(cfg.n_sites))
        masses = tuple(round(rng.uniform(1.0, 20.0), 4) for _ in range(cfg.n_sites))
        return MoleculeSpec(name, 1, names, masses)

    return Topology((make("RandomA", "A"), make("RandomB", "B")))


def gen_offsets(cfg: SyntheticConfig, topology: Topology, rng: np.random.Generator):
    """Site offsets for each type, shifted so the mass-weighted mean is zero."""
    out = []
    for mol in topology.molecules:
        offsets = random_in_sphere(rng, cfg.radius, mol.n_sites)
        masses = mol.masses
        offsets -= (masses @ offsets) / masses.sum()
        out.append(offsets)
    return tuple(out)


def _write_field(topology: Topology, path: Path) -> None:
    lines = ["Synthetic two-molecule benchmark", "UNITS internal", ""]
    lines.append(f"MOLECULES {topology.n_types}")
    for mol in topology.molecules:
        lines.append(mol.name)
        lines.append(f"NUMMOLS {mol.count}")
        lines.append(f"ATOMS {mol.n_sites}")
        for name, mass in zip(mol.site_names, mol.site_masses):
            lines.append(f"{name:<8s}{mass:12.4f}{0.0:12.6f}")
        lines.append("FINISH")
    lines.append("CLOSE")
    path.write_text("\n".join(lines) + "\n")


def _write_control(path: Path, rmax: float, dr: float) -> None:
    lines = [
        "Synthetic two-molecule benchmark",
        "",
        "finish",
        "",
        "polyana",
        f"  rmax {rmax}",
        f"  dr   {dr}",
        "end polyana",
    ]
    path.write_text("\n".join(lines) + "\n")


def wrap_point(r: np.ndarray, cell: CellTensor) -> np.ndarray:
    """Translate points by lattice vectors into the origin-centred cell.

    Periodic reduced components of the result lie in [-0.5, 0.5), so a point
    at reduced +0.5 goes to -0.5.  The result differs from the input by an
    integer combination of lattice vectors, and wrapping it again changes no
    bit.
    """
    r = np.asarray(r, dtype=float)
    s = to_reduced(r, cell)
    shift = np.zeros_like(s)
    mask = cell.periodic
    shift[..., mask] = np.floor(s[..., mask] + 0.5)
    return r - shift @ cell.matrix


def _history_header(title: str, natoms: int, imcon: int) -> list[str]:
    return [title, f"{0:10d}{imcon:10d}{natoms:10d}"]


def _format_frame(
    step: int,
    wrapped: np.ndarray,
    topology: Topology,
    cell: CellTensor,
) -> list[str]:
    natoms = len(wrapped)
    lines = [f"timestep{step:10d}{natoms:10d}{0:10d}{cell.imcon:10d}{0.001:12.6f}"]
    for row in cell.matrix:
        lines.append(f"{row[0]:20.12f}{row[1]:20.12f}{row[2]:20.12f}")
    i = 0
    for mol in topology.molecules:
        for _ in range(mol.count):
            for name, mass in zip(mol.site_names, mol.site_masses):
                lines.append(f"{name:<8s}{i + 1:10d}{mass:12.6f}{0.0:12.6f}")
                x, y, z = wrapped[i]
                lines.append(f"{x:20.12f}{y:20.12f}{z:20.12f}")
                i += 1
    return lines


def generate_dataset(
    cfg: SyntheticConfig,
    out_dir: str | Path,
    with_header: bool = True,
) -> GeneratedDataset:
    """Write CONTROL, FIELD and HISTORY into out_dir and return the ground truth.

    All randomness flows from one generator seeded with cfg.seed, so the same
    configuration always produces byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)

    topology = gen_topology(cfg, rng)
    offsets = gen_offsets(cfg, topology, rng)
    cell = CellTensor.cubic(cfg.cell_length)
    natoms = topology.total_sites

    # The wrapped domain is centred on the origin, so this point is its corner.
    com1 = np.full(3, cfg.cell_length / 2.0)

    frames = []
    history_lines = _history_header("Synthetic two-molecule benchmark", natoms, cell.imcon)
    for k in range(cfg.n_frames):
        com2 = com1 + cfg.distance * random_unit_vector(rng)
        sites1 = com1 + offsets[0] @ random_rotation(rng).T
        sites2 = com2 + offsets[1] @ random_rotation(rng).T
        unwrapped = np.vstack([sites1, sites2])
        frames.append(unwrapped)
        history_lines.extend(_format_frame(k + 1, wrap_point(unwrapped, cell), topology, cell))
    if not with_header:
        history_lines = history_lines[2:]

    control_path = out_dir / "CONTROL"
    field_path = out_dir / "FIELD"
    history_path = out_dir / "HISTORY"
    _write_control(control_path, rmax=12.5, dr=0.1)
    _write_field(topology, field_path)
    history_path.write_text("\n".join(history_lines) + "\n")

    return GeneratedDataset(
        control_path=control_path,
        field_path=field_path,
        history_path=history_path,
        topology=topology,
        cell=cell,
        offsets=offsets,
        unwrapped_frames=tuple(frames),
    )
