"""Command-line driver.

Run with no arguments in a directory holding CONTROL, FIELD and HISTORY to
produce RDF and POP files there.  ``generate`` writes a synthetic benchmark
dataset instead.  Exit codes: 0 success, 1 bad input, 2 no usable frames.
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AnalysisError, InputError, NoFramesError
from .rdf_engine import CentreOfMassError, PairHistogram, accumulate_frame, finalize, n_bins
from .synthetic import SyntheticConfig, generate_dataset
from .trajectory_io import (
    Directives,
    Frame,
    HistoryReader,
    Topology,
    parse_directives,
    parse_field,
    write_pop,
    write_rdf,
)
from .unfolding import centers_of_mass

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AnalysisSummary:
    frames_read: int
    frames_used: int
    n_types: int
    mean_volume: float
    truncated: bool
    rdf_path: Path
    pop_path: Path

    def __str__(self) -> str:
        return (
            f"frames read:      {self.frames_read}\n"
            f"frames used:      {self.frames_used}\n"
            f"molecule types:   {self.n_types}\n"
            f"mean cell volume: {self.mean_volume:.6f} A^3"
        )


def _block_coms(frames: list[Frame], topology: Topology) -> np.ndarray:
    """Centres of mass ``(k, n, 3)`` of the molecules of ``topology.used``,
    type after type, in each of the ``k`` frames, which share one cell and
    were read with ``topology.used_flags()``.

    One ``centers_of_mass`` call per type takes its copies in every frame of
    the block; the arithmetic of each molecule, and so its bits, is that of
    a call on its frame alone.
    """
    k = len(frames)
    # A block of one is a view of its frame's positions, not a copy.
    positions = frames[0].positions[None] if k == 1 else np.stack([f.positions for f in frames])
    coms = []
    for t, rows in topology.used:
        mol = topology.molecules[t]
        block = positions[:, rows].reshape(k * mol.count, mol.used_sites, 3)
        masses = mol.masses[: mol.used_sites]
        coms.append(centers_of_mass(block, masses, frames[0].cell).reshape(k, mol.count, 3))
    return np.concatenate(coms, axis=1)


def accumulate_history(
    history_path: Path, topology: Topology, directives: Directives
) -> tuple[PairHistogram, int, bool]:
    """The histogram of frames ``start``..``stop`` of one HISTORY, the number
    of frames read, and whether the file ends inside a frame.

    Warns once, after the first counted block whose cell is too small for
    rmax (``cell.min_image_cutoff``), that g(r) is unreliable beyond it."""
    hist = PairHistogram.create(topology.n_types, directives.rmax, directives.dr)
    types, warned = None, False
    with HistoryReader(
        history_path, expected_natoms=topology.total_sites,
        start=directives.start, stop=directives.stop, sites=topology.used_flags(),
    ) as reader:
        for block in reader.blocks():
            # Coordinates near the float limit overflow here; accumulate_frame rejects them.
            with np.errstate(over="ignore", invalid="ignore"):
                coms = _block_coms(block, topology)
            if types is None:
                # The 0-based type of each centre of mass that _block_coms
                # returns; built once the reader has checked FIELD's site
                # count against HISTORY, as FIELD counts may be too large.
                used = [t for t, _ in topology.used]
                types = np.repeat(used, [topology.molecules[t].count for t in used])
            cell, bad = block[0].cell, None
            try:
                # A block of one goes in as its frame, (n, 3), whose molecules
                # perfbench's probe counts as len(coms).
                accumulate_frame(hist, types, coms if len(block) > 1 else coms[0], cell)
            except CentreOfMassError as exc:
                bad = exc
            # One frame at a time, the frames before a bad one would count
            # and warn; the error then ends the run, histogram and all.
            counted = len(block) if bad is None else bad.frame
            if counted and not warned and hist.rmax > cell.min_image_cutoff + 1e-9:
                warned = True
                logger.warning(
                    "rmax %.4f exceeds the safe minimum-image radius %.4f of the "
                    "cell; g(r) is unreliable beyond that distance",
                    hist.rmax,
                    cell.min_image_cutoff,
                )
            if bad is not None:
                raise InputError(
                    f"HISTORY: frame at step {block[bad.frame].step}: {bad}; "
                    "its coordinates are too large"
                )
        return hist, reader.frames_read, reader.truncated


def run_analysis(
    directory: str | Path = ".",
    control: str = "CONTROL",
    field: str = "FIELD",
    history: str = "HISTORY",
    rdf_out: str = "RDF",
    pop_out: str = "POP",
) -> AnalysisSummary:
    """Analyse one trajectory directory and write the RDF and POP files."""
    directory = Path(directory)
    control_path, field_path, history_path = (directory / f for f in (control, field, history))
    for path in (control_path, field_path, history_path):
        if not path.is_file():
            raise InputError(f"input file not found: {path}")

    directives = parse_directives(control_path.read_text(encoding="utf-8", errors="replace"))
    topology = parse_field(field_path.read_text(encoding="utf-8", errors="replace"))
    if not topology.used:
        raise InputError("every molecule type is massless; nothing to analyse")

    hist, frames_read, truncated = accumulate_history(history_path, topology, directives)
    if truncated:
        logger.warning(
            "the trajectory was abnormally terminated; results cover the %d "
            "complete frames",
            frames_read,
        )
    if hist.frames_used == 0:
        # An unset stop is sys.maxsize: the selection runs to the end.
        stop = "end" if directives.stop == sys.maxsize else directives.stop
        raise NoFramesError(
            f"no usable frames: {frames_read} read, selection keeps {directives.start}..{stop}"
        )

    table = finalize(hist, topology, smooth=directives.smooth)
    rdf_path, pop_path = directory / rdf_out, directory / pop_out
    write_rdf(table, rdf_path)
    write_pop(table, pop_path)
    return AnalysisSummary(
        frames_read=frames_read, frames_used=hist.frames_used, n_types=topology.n_types,
        mean_volume=table.mean_volume, truncated=truncated, rdf_path=rdf_path, pop_path=pop_path,
    )


def _analyze_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molrdf",
        description=(
            "Compute centre-of-mass radial distribution functions and "
            "coordination populations from a DL_POLY-style trajectory."
        ),
    )
    parser.add_argument("--dir", default=".", help="trajectory directory (default: cwd)")
    parser.add_argument("--control", default="CONTROL", help="run-settings filename")
    parser.add_argument("--field", default="FIELD", help="topology filename")
    parser.add_argument("--history", default="HISTORY", help="trajectory filename")
    parser.add_argument("--rdf-out", default="RDF", help="g(r) output filename")
    parser.add_argument("--pop-out", default="POP", help="population output filename")
    return parser


def _generate_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molrdf generate",
        description="Write a synthetic two-molecule benchmark trajectory.",
    )
    parser.add_argument("--dir", default=".", help="output directory (default: cwd)")
    parser.add_argument("--sites", type=int, default=8, help="sites per molecule")
    parser.add_argument("--radius", type=float, default=3.0, help="molecule radius (A)")
    parser.add_argument("--distance", type=float, default=5.0, help="pegged COM distance (A)")
    parser.add_argument("--cell", type=float, default=30.0, help="cubic cell edge (A)")
    parser.add_argument("--frames", type=int, default=200, help="number of frames")
    parser.add_argument("--seed", type=int, default=SyntheticConfig.seed, help="RNG seed")
    return parser


def _cmd_generate(argv: list[str]) -> int:
    args = _generate_parser().parse_args(argv)
    cfg = SyntheticConfig(
        n_sites=args.sites,
        radius=args.radius,
        distance=args.distance,
        cell_length=args.cell,
        n_frames=args.frames,
        seed=args.seed,
    )
    dataset = generate_dataset(cfg, args.dir)
    print(f"wrote {dataset.control_path}, {dataset.field_path}, {dataset.history_path}")
    _print_flushed(
        f"expected g(r) spike: r = {cfg.distance} "
        f"(bin {n_bins(cfg.distance, 0.1)} at dr = 0.1)"
    )
    return 0


def _cmd_analyze(argv: list[str]) -> int:
    args = _analyze_parser().parse_args(argv)
    summary = run_analysis(
        directory=args.dir,
        control=args.control,
        field=args.field,
        history=args.history,
        rdf_out=args.rdf_out,
        pop_out=args.pop_out,
    )
    _print_flushed(summary)
    return 0


def _print_flushed(text: str) -> None:
    """Print ``text`` to stdout now, so that a failed write is raised here
    for main to report.  After a failure stdout's descriptor is pointed at
    devnull (the recipe in Python's note on SIGPIPE): bytes left in its
    buffer would otherwise fail again when the interpreter flushes stdout at
    exit, printing a second error and exiting 120."""
    try:
        print(text, flush=True)
    except OSError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):  # no descriptor, as under capture
            fd = None
        if fd is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise


def main(argv: list[str] | None = None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``) and return
    the exit code.

    main freezes the garbage collector's view of the heap (``gc.freeze``)
    and leaves it frozen: a caller that goes on after main returns and wants
    those objects collectable again calls ``gc.unfreeze()``.
    """
    # The heap of the imports lives until exit; frozen, no collection walks it.
    gc.freeze()
    if argv is None:
        argv = sys.argv[1:]
    logging.basicConfig(
        level=logging.WARNING, format="%(levelname)s: %(message)s", stream=sys.stderr
    )
    try:
        if argv and argv[0] == "generate":
            return _cmd_generate(argv[1:])
        return _cmd_analyze(argv)
    except SystemExit as exc:  # argparse --help exits 0, usage errors exit 1
        return 0 if not exc.code else 1
    except (OSError, AnalysisError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NoFramesError) else 1


if __name__ == "__main__":
    sys.exit(main())
