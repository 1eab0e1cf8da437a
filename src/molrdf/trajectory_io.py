"""
Readers for DL_POLY-style CONTROL, FIELD and HISTORY files and writers for
the RDF / POP result tables.

CONTROL is scanned only below the ``finish`` directive for an analysis block
of the form::

    polyana
      start  1001
      stop   5000
      rmax   10.0
      dr     0.2
      smooth
    end polyana

Keywords are case-insensitive, may be indented freely and may appear in any
order; missing keywords fall back to defaults.  FIELD keywords are matched on
their first four characters, case-insensitively, following the DL_POLY
convention.  HISTORY files are streamed frame by frame and may lack the
two-line header (the restart case); a file cut off mid-frame terminates the
stream gracefully, while a corrupt record with more of the file after it is
an error.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import filterfalse, islice
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .errors import InputError
from .geometry import CellTensor

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Directives:
    """Analysis settings read from the CONTROL file."""

    start: int = 1
    stop: int = sys.maxsize
    rmax: float = 12.5
    dr: float = 0.1
    smooth: bool = False

    def __post_init__(self):
        if self.start < 1:
            raise InputError(f"start must be >= 1, got {self.start}")
        if self.stop < self.start:
            raise InputError(f"stop ({self.stop}) must be >= start ({self.start})")
        if self.dr <= 0:
            raise InputError(f"dr must be positive, got {self.dr}")
        if self.rmax <= self.dr:
            raise InputError(f"rmax ({self.rmax}) must exceed dr ({self.dr})")


@dataclass(frozen=True)
class MoleculeSpec:
    """A molecule type: its name, how many copies exist, and the names and
    masses of its sites in declaration order, after repeat expansion."""

    name: str
    count: int
    site_names: tuple[str, ...]
    site_masses: tuple[float, ...]

    @property
    def n_sites(self) -> int:
        return len(self.site_masses)

    @cached_property
    def masses(self) -> np.ndarray:
        """The site masses as an array, built once; read-only."""
        masses = np.array(self.site_masses, dtype=float)
        masses.flags.writeable = False
        return masses

    @property
    def total_mass(self) -> float:
        return float(sum(self.site_masses))


@dataclass(frozen=True)
class Topology:
    """Ordered molecule types; type numbers follow FIELD order, starting at 1."""

    molecules: tuple[MoleculeSpec, ...]

    @property
    def n_types(self) -> int:
        return len(self.molecules)

    @property
    def total_sites(self) -> int:
        return sum(m.count * m.n_sites for m in self.molecules)

    @cached_property
    def massive(self) -> tuple[tuple[int, slice], ...]:
        """``(t, sites)``, in FIELD order, for every type that has a centre of
        mass: its 0-based index and the slice of a frame's site rows that its
        copies fill.  The one place that decides which types are analysed."""
        massive = []
        stop = 0
        for t, mol in enumerate(self.molecules):
            start, stop = stop, stop + mol.count * mol.n_sites
            if mol.total_mass > 0.0:
                massive.append((t, slice(start, stop)))
        return tuple(massive)


@dataclass(frozen=True, eq=False)
class Frame:
    """One stored configuration of the trajectory."""

    step: int
    cell: CellTensor
    positions: np.ndarray  # (sites, 3), Angstrom, FIELD declaration order


def parse_directives(control_text: str) -> Directives:
    """Extract the analysis directives from CONTROL text.

    Only content after the DL_POLY ``finish`` directive is considered.  A
    missing block (or a CONTROL with no ``finish`` at all) yields the
    defaults.  A ``polyana`` opener without its ``end polyana`` closer is an
    error, as is a malformed numeric value.
    """
    past_finish = False
    in_block = False
    block_seen = False
    values: dict[str, object] = {}
    lines: dict[str, int] = {}  # the line that set each value

    for lineno, line in enumerate(control_text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        keyword = tokens[0].lower()

        if not past_finish:
            if keyword == "finish":
                past_finish = True
            continue

        if not in_block:
            if keyword == "polyana" and not block_seen:
                in_block = True
                block_seen = True
            continue

        if keyword == "end" and len(tokens) >= 2 and tokens[1].lower() == "polyana":
            in_block = False
            continue

        if keyword in ("start", "stop", "rmax", "dr"):
            if len(tokens) < 2:
                raise InputError(f"CONTROL line {lineno}: '{keyword}' needs a value")
            try:
                value = int(tokens[1]) if keyword in ("start", "stop") else float(tokens[1])
            except ValueError:
                raise InputError(
                    f"CONTROL line {lineno}: bad numeric value {tokens[1]!r} "
                    f"for '{keyword}'"
                ) from None
            if keyword in ("start", "stop") and abs(value) > sys.maxsize:
                raise InputError(f"CONTROL line {lineno}: '{keyword}' out of range, got {tokens[1]!r}")
            if not math.isfinite(value):
                raise InputError(
                    f"CONTROL line {lineno}: '{keyword}' must be finite, got {tokens[1]!r}"
                )
            values[keyword] = value
            lines[keyword] = lineno
        elif keyword == "smooth":
            values["smooth"] = True
        else:
            logger.warning("CONTROL line %d: unknown directive %r ignored", lineno, tokens[0])

    if in_block:
        raise InputError("CONTROL: 'polyana' block is never closed by 'end polyana'")
    try:
        return Directives(**values)
    except InputError as exc:
        # The line of the first setting the message names that CONTROL set.
        keyword = next(word for word in str(exc).split() if word in lines)
        raise InputError(f"CONTROL line {lines[keyword]}: {exc}") from None


def _keyword_matches(token: str, keyword: str) -> bool:
    # DL_POLY convention: directives are recognised by their first 4 characters.
    return token.lower().startswith(keyword[:4])


def parse_field(field_text: str) -> Topology:
    """Parse the molecular-topology section of a FIELD file.

    The first line is the title.  After the ``MOLECULES n`` directive, each
    of the n blocks contributes a name line, ``NUMMOLS``, ``ATOMS`` and the
    site records; everything else up to ``FINISH`` (bonds, constraints,
    rigid bodies, ...) is irrelevant to centre-of-mass analysis and skipped,
    as are the force-field sections after the last block.
    """
    lines = field_text.splitlines()
    pos = 0
    n_lines = len(lines)

    def next_content() -> tuple[int, str]:
        nonlocal pos
        while pos < n_lines:
            line = lines[pos]
            pos += 1
            if line.strip():
                return pos, line
        return 0, ""

    def count_directive(keyword: str, name: str) -> int:
        """The positive count that ends the next record, ``keyword n``."""
        lineno, line = next_content()
        tokens = line.split()
        if not line or not _keyword_matches(tokens[0], keyword.lower()):
            raise InputError(f"FIELD line {lineno or n_lines}: expected {keyword} for {name!r}")
        try:
            value = int(tokens[-1])
        except ValueError:
            raise InputError(f"FIELD line {lineno}: bad {keyword} value") from None
        if value < 1:
            raise InputError(f"FIELD line {lineno}: {keyword} must be >= 1")
        return value

    # Title line, then scan for MOLECULES.
    next_content()
    n_types = None
    while True:
        lineno, line = next_content()
        if not line:
            raise InputError("FIELD: no MOLECULES directive found")
        tokens = line.split()
        if _keyword_matches(tokens[0], "molecules"):
            # The count is the last token: both "MOLECULES n" and the long
            # "MOLECULAR TYPES n" form occur in the wild.
            try:
                n_types = int(tokens[-1])
            except ValueError:
                raise InputError(f"FIELD line {lineno}: bad MOLECULES count") from None
            if n_types < 1:
                raise InputError(f"FIELD line {lineno}: MOLECULES must be >= 1")
            break

    molecules = []
    for _ in range(n_types):
        lineno, line = next_content()
        if not line:
            raise InputError("FIELD: unexpected end of file before molecule name")
        name = line.strip()
        count = count_directive("NUMMOLS", name)
        n_sites = count_directive("ATOMS", name)

        sites: list[tuple[str, float]] = []
        while len(sites) < n_sites:
            lineno, line = next_content()
            if not line:
                raise InputError(f"FIELD: unexpected end of file in ATOMS of {name!r}")
            tokens = line.split()
            if len(tokens) < 3:
                raise InputError(
                    f"FIELD line {lineno}: site record needs name, mass and charge"
                )
            try:
                mass = float(tokens[1])
                float(tokens[2])  # the charge: unused, but must be a number
                repeat = int(tokens[3]) if len(tokens) > 3 else 1
                if len(tokens) > 4:
                    int(tokens[4])  # the frozen flag: unused, but must be an integer
            except ValueError:
                raise InputError(f"FIELD line {lineno}: bad site record {line.strip()!r}") from None
            if mass < 0:
                raise InputError(f"FIELD line {lineno}: negative site mass")
            if repeat < 1:
                raise InputError(f"FIELD line {lineno}: repeat count must be >= 1")
            # Checked before expanding, so that a huge count allocates nothing.
            if len(sites) + repeat > n_sites:
                raise InputError(
                    f"FIELD: repeat counts in {name!r} expand to {len(sites) + repeat} "
                    f"sites, ATOMS says {n_sites}"
                )
            sites += [(tokens[0], mass)] * repeat

        # Skip bonds/constraints/... up to the closing FINISH.
        while True:
            lineno, line = next_content()
            if not line:
                raise InputError(f"FIELD: missing FINISH for molecule {name!r}")
            if _keyword_matches(line.split()[0], "finish"):
                break

        names, masses = zip(*sites)
        molecules.append(MoleculeSpec(name, count, names, masses))

    return Topology(tuple(molecules))


def _coordinates(lines: list[str]) -> np.ndarray | None:
    """The first three numbers of each line as an ``(n, 3)`` array, or None
    when a line does not start with three numbers."""
    try:
        # comments=None: with the default "#", text from a "#" on would be
        # dropped instead of making its line bad.
        return np.loadtxt(lines, usecols=(0, 1, 2), comments=None, ndmin=2)
    except ValueError:
        return None


# What HistoryReader._read_frame returns for a frame it only walked.
_WALKED = object()


class HistoryReader:
    """Streaming reader for HISTORY trajectories.

    Detects and consumes the optional two-line header, then yields
    :class:`Frame` objects lazily.  ``truncated`` becomes True when the file
    ends (or degenerates) mid-frame; the partial frame is dropped and all
    frames yielded before it remain valid.

    Every record comes from one stream of the file's non-blank lines, so
    blank lines may stand anywhere.  Cell rows are taken three lines at a
    time and site records a whole frame at a time, each record 2 to 4 lines
    by keytrj; their coordinates are the first three numbers of each line,
    converted with one numpy call per frame, and tokens after them are
    ignored.  A frame cut short ends the trajectory, and so does a cell row,
    coordinate line or timestep record that is bad at the end of the file.
    Anywhere else, where frames follow that would be lost unseen, such a
    record is an error that names its frame, and so is a coordinate that
    reads as NaN or infinity, and a frame with no periodic cell (imcon 0),
    which has no volume to give g(r) its density.
    Frames whose imcon and cell rows repeat the previous frame's, character
    for character, share its :class:`CellTensor` object.

    Frames are numbered from 1, and the first one yielded is frame ``start``.
    A frame before it is walked, not converted: its timestep record is
    checked as for any frame, then its lines are counted off, so a cut
    inside it still ends the trajectory but a bad cell row or coordinate in
    it is not seen.  ``frames_read`` counts walked frames too.
    """

    def __init__(
        self,
        source: str | Path | IO[str],
        expected_natoms: int | None = None,
        start: int = 1,
    ):
        if hasattr(source, "readline"):
            self._fh = source
            self._owns_fh = False
        else:
            self._fh = open(source, "r")
            self._owns_fh = True
        # The file's non-blank lines; file objects never yield "".
        self._lines = filterfalse(str.isspace, self._fh)
        self._expected_natoms = expected_natoms
        self._start = start
        # The last frame's cell and the (imcon, raw cell rows) it came from.
        self._cell = None
        self._cell_key = None
        self.frames_read = 0
        self.truncated = False

    def close(self):
        if self._owns_fh:
            self._fh.close()

    def __enter__(self) -> "HistoryReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _consume_header(self) -> str | None:
        """Swallow the header if present; return the first timestep line."""
        first = next(self._lines, None)
        if first is None:
            self.truncated = True  # empty trajectory counts as abnormal
            return None
        if first.lower().split(maxsplit=1)[:1] == ["timestep"]:
            return first
        # Header: title line just read, then the levcfg/imcon/natoms line.
        info = next(self._lines, None)
        try:
            for tok in info.split()[:3]:
                int(tok)
        except (AttributeError, ValueError, IndexError):
            raise InputError(
                "HISTORY: first record is neither a header nor a timestep record"
            ) from None
        return next(self._lines, None)

    def __iter__(self) -> Iterator[Frame]:
        line = self._consume_header()
        while line is not None:
            frame = self._read_frame(line, convert=self.frames_read + 1 >= self._start)
            if frame is None:
                self.truncated = True
                return
            self.frames_read += 1
            if frame is not _WALKED:
                yield frame
            line = next(self._lines, None)

    def _cut_or_corrupt(self, message: str) -> None:
        """None, for a truncation, when the file ends after the bad record;
        otherwise an InputError, since the frames after it would be lost
        unseen."""
        if next(self._lines, None) is None:
            return None
        raise InputError(f"HISTORY: {message}") from None

    def _read_frame(self, timestep_line: str, convert: bool) -> Frame | object | None:
        """Parse one frame, or only walk its lines when not ``convert`` and
        return ``_WALKED``; None signals truncation (partial frame dropped)."""
        tokens = timestep_line.split()
        if tokens[0].lower() != "timestep" or len(tokens) < 5:
            return self._cut_or_corrupt(
                f"frame {self.frames_read + 1}: expected a timestep record with "
                f"step, site count, keytrj and imcon: {timestep_line.strip()!r}"
            )
        try:
            step = int(tokens[1])
            natoms = int(tokens[2])
            keytrj = int(tokens[3])
            imcon = int(tokens[4])
        except ValueError:
            return self._cut_or_corrupt(
                f"frame {self.frames_read + 1}: timestep record needs integer "
                f"step, site count, keytrj and imcon: {timestep_line.strip()!r}"
            )

        if self._expected_natoms is not None and natoms != self._expected_natoms:
            raise InputError(
                f"HISTORY: frame at step {step} has {natoms} sites, "
                f"FIELD topology expects {self._expected_natoms}"
            )
        if natoms < 0:
            return self._cut_or_corrupt(f"frame at step {step}: negative site count {natoms}")

        # Checked before the cell rows, which such a frame does not have.
        if imcon <= 0:
            raise InputError(
                f"HISTORY: frame at step {step}: imcon={imcon} gives no periodic "
                "cell, and g(r) needs one"
            )
        per_site = 2 + min(max(keytrj, 0), 2)  # name, coordinates, velocity, force
        if not convert:
            # The last of the cell rows and site records: None if the file
            # ends before it.  A count past sys.maxsize cannot be there.
            n_lines = min(3 + natoms * per_site, sys.maxsize)
            if next(islice(self._lines, n_lines - 1, None), None) is None:
                return None
            return _WALKED

        # A frame whose imcon and cell rows repeat the last frame's, as in
        # every constant-volume run, gets the last frame's cell object.
        rows = list(islice(self._lines, 3))
        if (imcon, rows) != self._cell_key:
            matrix = _coordinates(rows) if len(rows) == 3 else None
            if matrix is None:
                return self._cut_or_corrupt(
                    f"frame at step {step}: a cell row does not start with three numbers"
                )
            try:
                self._cell = CellTensor(matrix, imcon)
            except InputError as err:
                raise InputError(f"HISTORY: frame at step {step}: {err}") from None
            self._cell_key = (imcon, rows)
        cell = self._cell

        # zip takes whole site records only, so a frame cut inside its last
        # record comes up short like one cut between records.  A count past
        # sys.maxsize comes up short too.
        records = islice(zip(*[self._lines] * per_site), min(natoms, sys.maxsize))
        lines = list(map(itemgetter(1), records))
        if len(lines) < natoms:
            return None
        # loadtxt warns on no lines at all.
        positions = _coordinates(lines) if lines else np.empty((0, 3))
        if positions is None:
            return self._cut_or_corrupt(
                f"frame at step {step}: a coordinate line does not start with three numbers"
            )
        finite = np.isfinite(positions).all(axis=1)
        if not finite.all():
            site = 1 + int(np.argmin(finite))
            raise InputError(
                f"HISTORY: frame at step {step} has a non-finite coordinate at site {site}"
            )

        return Frame(step, cell, positions)


def _write_table(table, values: np.ndarray, destination, prefix: str) -> None:
    """One row per bin: r, then one column per pair, each ``%14.6E``;
    ``destination`` is a path or a text stream."""
    columns = ["r".rjust(13)] + [f"{prefix}({a},{b})".rjust(14) for a, b in table.pair_labels]
    np.savetxt(destination, np.column_stack([table.bin_centers, values.T]),
               fmt="%14.6E", delimiter="", header="".join(columns), comments="#")


def write_rdf(table, destination) -> None:
    """Write the g(r) columns: r first, then like pairs (1,1), (2,2), ...,
    then unlike pairs (1,2), (1,3), (2,3), ... in fixed-width scientific
    notation."""
    _write_table(table, table.g, destination, "g")


def write_pop(table, destination) -> None:
    """Write the cumulative coordination populations in the same layout as
    the RDF file."""
    _write_table(table, table.pop, destination, "pop")
