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
convention.  HISTORY files are streamed, consecutive frames that share a
cell converted together, and may lack the two-line header (the restart
case); a file cut off mid-frame terminates the stream gracefully, while a
corrupt record with more of the file after it is an error.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, filterfalse, islice
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
    # The non-blank lines with their 1-based numbers; (0, "") past the last.
    content = ((k, line) for k, line in enumerate(lines, 1) if line.strip())

    def count_directive(keyword: str, name: str) -> int:
        """The positive count that ends the next record, ``keyword n``."""
        lineno, line = next(content, (0, ""))
        tokens = line.split()
        if not line or not _keyword_matches(tokens[0], keyword.lower()):
            raise InputError(f"FIELD line {lineno or len(lines)}: expected {keyword} for {name!r}")
        try:
            value = int(tokens[-1])
        except ValueError:
            raise InputError(f"FIELD line {lineno}: bad {keyword} value") from None
        if value < 1:
            raise InputError(f"FIELD line {lineno}: {keyword} must be >= 1")
        return value

    # Title line, then scan for MOLECULES.
    next(content, (0, ""))
    n_types = None
    while True:
        lineno, line = next(content, (0, ""))
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
        lineno, line = next(content, (0, ""))
        if not line:
            raise InputError("FIELD: unexpected end of file before molecule name")
        name = line.strip()
        count = count_directive("NUMMOLS", name)
        n_sites = count_directive("ATOMS", name)

        sites: list[tuple[str, float]] = []
        while len(sites) < n_sites:
            lineno, line = next(content, (0, ""))
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
            if not math.isfinite(mass):
                raise InputError(f"FIELD line {lineno}: site mass must be finite, got {tokens[1]!r}")
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
            try:
                sites += [(tokens[0], mass)] * repeat
            except (OverflowError, MemoryError):
                raise InputError(
                    f"FIELD line {lineno}: repeat count {repeat} is too many sites to hold"
                ) from None

        # Skip bonds/constraints/... up to the closing FINISH.
        while True:
            lineno, line = next(content, (0, ""))
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
    if not lines:
        return np.empty((0, 3))  # loadtxt warns on no lines at all
    try:
        # comments=None: with the default "#", text from a "#" on would be
        # dropped instead of making its line bad.
        return np.loadtxt(lines, usecols=(0, 1, 2), comments=None, ndmin=2)
    except ValueError:
        return None


def _integers(tokens: list[str], k: int) -> list[int] | None:
    """``tokens`` as integers if they are ``k`` integers (k >= 1), else None."""
    try:
        return [int(token) for token in tokens] if len(tokens) == k else None
    except ValueError:
        return None


# What HistoryReader._read_frame returns for a frame it only walked.
_WALKED = object()

# A run read, converted and checked: its steps, its one cell and its
# positions, frame after frame, as the (n, 3) pieces they were read in.
_Run = tuple[list[int], CellTensor, list[np.ndarray]]

#: A run of frames that the reader converts at once, and so a block of
#: :meth:`HistoryReader.blocks`, holds at most this many sites (96 KiB of
#: positions); a frame of more sites is a run of one.
BLOCK_SITES = 4096

# The most lines of text the reader holds at once (about 110 B each, against
# 24 B a site converted): a frame's coordinate lines are converted this many at
# a time, and a read in bulk takes the whole frames that fit, or one frame.
_TEXT_LINES = 2048


def _repeated_steps(block: list[str], size: int, per_site: int, head: list[str],
                    rows: list[str]) -> tuple[list[int], np.ndarray | None]:
    """The steps and the positions of the whole frames of ``block``, ``size``
    lines each, up to the first that does not have the keyword, site count,
    keytrj and imcon tokens of the timestep record ``head`` and the cell
    ``rows``, character for character, or whose coordinate lines, every
    ``per_site``-th from the sixth, do not all convert to finite numbers."""
    k = len(block) // size
    columns = list(zip(*map(str.split, block[: k * size : size])))
    if (
        len(columns) >= 5
        and all(columns[c].count(head[c]) == k for c in (0, 2, 3, 4))
        and all(block[c : k * size : size].count(rows[c - 1]) == k for c in (1, 2, 3))
        and (steps := _integers(columns[1], k))
    ):
        lines = [block[f + 5 : f + size : per_site] for f in range(0, k * size, size)]
        positions = _coordinates(list(chain.from_iterable(lines)))
        if positions is not None and np.isfinite(positions).all():
            return steps, positions
    if k < 2:
        return [], None
    # Frame by frame, up to the first that fails.
    frames = (block[f : f + size] for f in range(0, k * size, size))
    first = next(f for f, one in enumerate(frames) if not _repeated_steps(one, size, per_site, head, rows)[0])
    return _repeated_steps(block[: first * size], size, per_site, head, rows)


class HistoryReader:
    """Streaming reader for HISTORY trajectories.

    Detects and consumes the optional two-line header, then yields
    :class:`Frame` objects lazily.  ``truncated`` becomes True when the file
    ends (or degenerates) mid-frame; the partial frame is dropped and all
    frames yielded before it remain valid.

    Every record comes from one stream of the file's non-blank lines, so
    blank lines may stand anywhere.  Cell rows are taken three lines at a
    time and a frame's coordinate lines, the second of each site record of 2
    to 4 lines by keytrj, with strided passes; coordinates are the first
    three numbers of each line, and tokens after them are ignored.  A frame
    cut short ends the trajectory, and so does a cell row, coordinate line
    or timestep record that is bad at the end of the file.  Anywhere else,
    where frames follow that would be lost unseen, such a record is an error
    that names its frame, and so is a coordinate that reads as NaN or infinity, and a frame
    with no periodic cell (imcon 0), which has no volume to give g(r) its
    density.  Frames whose imcon and cell rows repeat the previous frame's,
    character for character, share its :class:`CellTensor` object.  The
    first frame to come out whose step is not above the step of the frame
    that came out before it is warned about.

    Frames are numbered from 1; the first one yielded is frame ``start`` and
    the last one read is frame ``stop``: nothing after it is read, except one
    line to tell a bad coordinate line in it from a cut.  A frame before
    ``start`` is walked, not converted: its timestep record is checked as
    for any frame, then its lines are counted off, so a cut inside it still
    ends the trajectory but a bad cell row or coordinate in it is not seen.
    ``frames_read`` counts walked frames too.

    The reader reads ahead: consecutive frames that share a cell object are
    read as a run, whose positions are one ``(k, natoms, 3)`` array;
    :meth:`blocks` yields the runs.  Runs start at one frame, so the first
    frame is yielded as soon as it is read.  A run that fills its size is
    followed by one of :data:`BLOCK_SITES` sites, and a run cut short by a
    frame of another layout by one of twice its length, up to that cap; a new
    cell ends a run and starts again at one frame.  Text is converted as it is
    read, and at most ``_TEXT_LINES`` (2048) lines are held at once: a frame
    read on its own is converted that many coordinate lines at a time, and
    the rest of a run is read in blocks of the whole frames that fit in that
    many lines, or of one frame, up to the first frame that does not repeat
    the layout of the run's first or whose coordinates are not all finite
    numbers.  That frame is read on its own, with the lines after it put back
    (at most one block per run), and judged there: the frames of its run
    before it have come out, as one block, and a bad coordinate line is a cut
    only when nothing follows its frame.  Frames, errors, ``frames_read`` and
    ``truncated`` are those of reading one frame at a time.
    """

    def __init__(
        self,
        source: str | Path | IO[str],
        expected_natoms: int | None = None,
        start: int = 1,
        stop: int = sys.maxsize,
    ):
        if hasattr(source, "readline"):
            self._fh = source
            self._owns_fh = False
        else:
            # UTF-8 on every locale; a bad byte becomes U+FFFD, which no
            # number or keyword takes, so its record is bad, not the file.
            self._fh = open(source, "r", encoding="utf-8", errors="replace")
            # Decode 64 KiB at a time, not 8 KiB: the line walk is most of
            # reading a file of many sites, and fewer decodes shorten it.
            self._fh._CHUNK_SIZE = 1 << 16
            self._owns_fh = True
        # The file's non-blank lines; file objects never yield "".  Lines read
        # ahead and put back, _pending, come first.
        self._file_lines = self._lines = filterfalse(str.isspace, self._fh)
        self._pending = iter(())
        self._expected_natoms = expected_natoms
        self._start = start
        self._stop = stop
        # The last frame's cell and the (imcon, raw cell rows) it came from.
        self._cell = None
        self._cell_key = None
        self._step = -math.inf  # the last frame's that came out
        self._order_warned = False
        self._run_left = 0  # frames of the last run after its first
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
        """Swallow the header if present; return the first timestep line.

        A header is a title, which may start with any word, "timestep" too,
        and a line that starts with three integers (keytrj, imcon, natoms).
        A first line that is a whole timestep record starts the frames."""
        first = next(self._lines, None)
        if first is None:
            self.truncated = True  # empty trajectory counts as abnormal
            return None
        tokens = first.split()
        timestep = tokens[0].lower() == "timestep"
        if timestep and _integers(tokens[1:5], 4):
            return first
        info = next(self._lines, None)
        if info is not None and _integers(info.split()[:3], 3):
            return next(self._lines, None)
        if not timestep:
            raise InputError("HISTORY: first record is neither a header nor a timestep record")
        # A bad timestep record, which _read_frame names; the line after it goes back.
        if info is not None:
            self._pending = iter([info])
            self._lines = chain(self._pending, self._file_lines)
        return first

    def __iter__(self) -> Iterator[Frame]:
        for run in self._runs():
            yield from self._frames(run)

    def blocks(self) -> Iterator[list[Frame]]:
        """The frames of ``iter(self)``, one list per run: frames that share
        one cell object and one positions array.  Each list comes out as soon
        as its last frame is out, before the frame after it is read, so an
        error or a cut always falls between lists."""
        frames = iter(self)
        for frame in frames:
            yield [frame, *islice(frames, self._run_left)]

    def _runs(self) -> Iterator[_Run]:
        """Runs of frames ``start``..``stop`` that share one cell, read and
        converted; frames before ``start`` are walked.  Each run comes out
        before the frame after it is read (lines read ahead and not in the run
        are put back), so a frame that raises an InputError or ends in a cut
        comes after the runs before it, and no run has been read past.
        """
        size = 1
        n = 0
        while n < self._stop:
            line = next(self._lines, None) if n else self._consume_header()
            if line is None:
                return
            n += 1
            cell = self._cell
            run = self._read_frame(line, n, convert=n >= self._start)
            if run is None:
                self.truncated = True
                return
            if run is _WALKED:
                self.frames_read += 1
                continue
            if run[1] is not cell:  # only a reused cell reads ahead
                size = 1
            ahead = min(size - 1, self._stop - n)
            if ahead > 0:  # another layout, a cut or the end ends it early
                n += self._read_repeats(line, n, run, ahead)
            k = len(run[0])
            cap = max(1, BLOCK_SITES // max(1, sum(map(len, run[2])) // k))
            size = cap if k == size else min(2 * k, cap)
            yield run

    def _read_repeats(self, timestep_line: str, n: int, run: _Run, m: int) -> int:
        """Read up to ``m`` frames after frame ``n``, the last of ``run``,
        ``4 + natoms * per_site`` lines each, in blocks of the whole frames
        that fit in _TEXT_LINES lines (one frame at least), add those that
        _repeated_steps takes to ``run`` and return how many.  The first that
        it does not take, or that is cut short, and the lines after it go back."""
        head = timestep_line.split()
        steps, _, positions = run
        per_site = 2 + min(max(int(head[3]), 0), 2)
        size = 4 + int(head[2]) * per_site
        most = max(1, _TEXT_LINES // size) * size
        # Frames of another layout may be as short as this: even then no line
        # after frame stop is read.  While that bound or the line cap alone
        # cuts a block short, and the block is taken, another block follows.
        shortest = 4 + 2 * (self._expected_natoms or 0)
        block, got, known = [], 0, False  # known: block starts a frame of the layout
        while got < m:
            want = min((m - got) * size, most, known * size + (self._stop - n - got - known) * shortest)
            block += islice(self._lines, want - len(block))
            new, xyz = _repeated_steps(block, size, per_site, head, self._cell_key[1])
            if new:
                steps += new
                positions.append(xyz)
            got += len(new)
            ended = len(block) < want
            del block[: len(new) * size]
            # A whole frame left over does not repeat the layout.
            tokens = block[0].split() if 0 < len(block) < size else ()
            known = len(tokens) >= 5 and all(tokens[c] == head[c] for c in (0, 2, 3, 4))
            if ended or (block and not known):
                break
        if block:
            # After them what is left of those put back before: one chain deep.
            self._pending = iter(block + list(self._pending))
            self._lines = chain(self._pending, self._file_lines)
        return got

    def _cut_or_corrupt(self, message: str) -> None:
        """None, for a truncation, when the file ends after the bad record;
        otherwise an InputError: the frames after it would be lost unseen."""
        if next(self._lines, None) is not None:
            raise InputError(f"HISTORY: {message}") from None

    def _read_frame(self, timestep_line: str, n: int, convert: bool) -> _Run | object | None:
        """Read frame ``n`` as a run of one, its step, cell and positions, or,
        when not ``convert``, only walk its lines and return ``_WALKED``;
        None signals truncation (partial frame dropped).  A bad record in it
        is judged here, with nothing read past the frame but the one line
        that tells a cut from an error."""
        tokens = timestep_line.split()
        if tokens[0].lower() != "timestep" or len(tokens) < 5:
            return self._cut_or_corrupt(
                f"frame {n}: expected a timestep record with "
                f"step, site count, keytrj and imcon: {timestep_line.strip()!r}"
            )
        try:
            step, natoms, keytrj, imcon = map(int, tokens[1:5])
        except ValueError:
            return self._cut_or_corrupt(
                f"frame {n}: timestep record needs integer "
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

        # Every per_site-th line from the second is a coordinate line, read
        # and converted _TEXT_LINES at a time; the rest of the last record is
        # counted off too, so a frame cut inside it comes up short.  A bad line
        # or a non-finite coordinate is judged once the frame is whole.
        pieces = [] if natoms else [np.empty((0, 3))]
        bad, site, skip = False, 0, 1
        for first in range(0, natoms, _TEXT_LINES):
            count = min(natoms - first, _TEXT_LINES)
            lines = list(islice(self._lines, skip, skip + (count - 1) * per_site + 1, per_site))
            if len(lines) < count:
                return None
            skip = per_site - 1
            bad = bad or (xyz := _coordinates(lines)) is None
            if not (bad or site or np.isfinite(xyz).all()):
                site = first + 1 + int(np.argmin(np.isfinite(xyz).all(axis=1)))
            pieces.append(xyz)
        if natoms and len(list(islice(self._lines, per_site - 2))) < per_site - 2:
            return None
        if bad:
            return self._cut_or_corrupt(
                f"frame at step {step}: a coordinate line does not start with three numbers"
            )
        if site:
            raise InputError(f"HISTORY: frame at step {step} has a non-finite coordinate at site {site}")
        return [step], self._cell, pieces

    def _frames(self, run: _Run) -> Iterator[Frame]:
        """The frames of ``run``, their positions one array.  The run's pieces
        are let go once its frames are built, before the frames are used."""
        steps, cell, pieces = run
        k = len(steps)
        positions = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        pieces.clear()
        frames = [Frame(step, cell, xyz) for step, xyz in zip(steps, positions.reshape(k, -1, 3))]
        self._run_left = k - 1
        for frame in frames:
            self.frames_read += 1
            if frame.step <= self._step and not self._order_warned:
                self._order_warned = True
                logger.warning("HISTORY: frame %d has step %d, not above the step %d before it; "
                               "frames that repeat are counted again",
                               self.frames_read, frame.step, self._step)
            self._step = frame.step
            yield frame


# The suffixes that np.savetxt writes compressed (numpy's _datasource).
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _write_table(table, values: np.ndarray, destination, prefix: str) -> None:
    """One row per bin: r, then one column per pair, each ``%14.6E``;
    ``destination`` is a path or a text stream, and a path that ends in a
    compressed suffix is written compressed."""
    columns = ["r".rjust(13)] + [f"{prefix}({a},{b})".rjust(14) for a, b in table.pair_labels]
    header = "".join(columns)
    data = np.column_stack([table.bin_centers, values.T])
    if not hasattr(destination, "write") and str(destination).endswith(_COMPRESSED):
        np.savetxt(destination, data, fmt="%14.6E", delimiter="", header=header, comments="#")
        return
    # The lines np.savetxt writes, formatted as one string: it formats and
    # writes row by row, and opens a path through numpy's _datasource, which
    # imports gzip, bz2 and lzma on its first use.
    nbins, ncols = data.shape
    text = "#" + header + "\n" + (("%14.6E" * ncols + "\n") * nbins) % tuple(data.ravel().tolist())
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w") as stream:
            stream.write(text)


def write_rdf(table, destination) -> None:
    """Write the g(r) columns: r first, then like pairs (1,1), (2,2), ...,
    then unlike pairs (1,2), (1,3), (2,3), ... in fixed-width scientific
    notation."""
    _write_table(table, table.g, destination, "g")


def write_pop(table, destination) -> None:
    """Write the cumulative coordination populations in the same layout as
    the RDF file."""
    _write_table(table, table.pop, destination, "pop")
