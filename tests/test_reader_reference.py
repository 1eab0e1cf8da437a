"""``HistoryReader`` against a reader that takes one frame at a time.

``ReferenceReader`` states README's "HISTORY reading" rules directly, with
numpy alone: no runs, no reading in bulk, no lines put back.  Hypothesis
draws HISTORY texts with the faults that the reader must tell apart, reads
each through ``iter(reader)`` and ``reader.blocks()`` under several caps, and
requires the frames, the counts, the error, the warnings, the runs and the
unread rest of the caller's stream to be those of the reference.
"""

import io
import logging
import math
import sys
from contextlib import contextmanager
from itertools import chain, islice

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from molrdf import trajectory_io
from molrdf.errors import InputError
from molrdf.trajectory_io import HistoryReader


def integers(tokens, k):
    """Whether ``tokens`` are ``k`` integers."""
    try:
        return len([int(token) for token in tokens]) == k
    except ValueError:
        return False


def numbers(lines):
    """The first three numbers of each line, as numpy reads them, or None."""
    if not lines:
        return np.empty((0, 3))
    try:
        return np.loadtxt(lines, usecols=(0, 1, 2), comments=None, ndmin=2)
    except ValueError:
        return None


def cell_error(matrix, imcon):
    """What a cell of these rows cannot be, for the rows drawn here: diagonal
    ones, or ones with a zero or non-finite row."""
    if not np.isfinite(matrix).all():
        return "cell matrix contains non-finite entries"
    if imcon not in (1, 2, 3, 6):
        return f"unsupported periodic-boundary code imcon={imcon} (supported: [1, 2, 3, 6])"
    if np.linalg.det(matrix) == 0.0:
        return "singular cell tensor for a periodic cell"
    return None


class Cut(Exception):
    """The file ends inside a frame, or right after a bad record."""


class ReferenceReader:
    """HISTORY read one frame at a time.  Iterating yields ``(n, layout,
    cell, step, positions)`` for frames ``start`` to ``stop``: ``layout`` is
    what a frame read in bulk must repeat, and ``cell`` an object per cell
    built."""

    def __init__(self, stream, expected_natoms=None, start=1, stop=sys.maxsize):
        self.lines = (line for line in stream if not line.isspace())
        self.expected_natoms, self.start, self.stop = expected_natoms, start, stop
        self.frames_read, self.truncated, self.warnings = 0, False, []

    def take(self, k):
        lines = list(islice(self.lines, min(k, sys.maxsize)))
        if len(lines) < k:
            raise Cut
        return lines

    def bad(self, message):
        """A bad record is a cut when no line follows it, else an error."""
        if next(self.lines, None) is None:
            raise Cut
        raise InputError(f"HISTORY: {message}")

    def __iter__(self):
        try:
            yield from self.frames()
        except Cut:
            self.truncated = True

    def frames(self):
        if self.stop < 1:
            return
        line = next(self.lines, None)
        if line is None:
            raise Cut
        tokens = line.split()
        if not (tokens[0].lower() == "timestep" and integers(tokens[1:5], 4)):
            info = next(self.lines, None)
            if info is not None and integers(info.split()[:3], 3):
                line = next(self.lines, None)  # after a header
            elif tokens[0].lower() != "timestep":
                raise InputError("HISTORY: first record is neither a header nor a timestep record")
            elif info is not None:
                self.lines = chain([info], self.lines)
        key = cell = None
        last = -math.inf
        for n in range(1, self.stop + 1):
            if n > 1:
                line = next(self.lines, None)
            if line is None:
                return
            tokens = line.split()
            record = f"step, site count, keytrj and imcon: {line.strip()!r}"
            if tokens[0].lower() != "timestep" or len(tokens) < 5:
                self.bad(f"frame {n}: expected a timestep record with {record}")
            if not integers(tokens[1:5], 4):
                self.bad(f"frame {n}: timestep record needs integer {record}")
            step, natoms, keytrj, imcon = map(int, tokens[1:5])
            if self.expected_natoms is not None and natoms != self.expected_natoms:
                raise InputError(f"HISTORY: frame at step {step} has {natoms} sites, "
                                 f"FIELD topology expects {self.expected_natoms}")
            if natoms < 0:
                self.bad(f"frame at step {step}: negative site count {natoms}")
            if imcon <= 0:
                raise InputError(f"HISTORY: frame at step {step}: imcon={imcon} gives no "
                                 "periodic cell, and g(r) needs one")
            per_site = 2 + min(max(keytrj, 0), 2)
            if n < self.start:
                self.take(3 + natoms * per_site)
                self.frames_read += 1
                continue
            rows = self.take(3)
            if (imcon, rows) != key:
                matrix = numbers(rows)
                if matrix is None:
                    self.bad(f"frame at step {step}: a cell row does not start with three numbers")
                error = cell_error(matrix, imcon)
                if error:
                    raise InputError(f"HISTORY: frame at step {step}: {error}")
                key, cell = (imcon, rows), object()
            positions = numbers(self.take(natoms * per_site)[1::per_site])
            if positions is None:
                self.bad(f"frame at step {step}: a coordinate line does not start with three numbers")
            finite = np.isfinite(positions).all(axis=1)
            if not finite.all():
                raise InputError(f"HISTORY: frame at step {step} has a non-finite "
                                 f"coordinate at site {1 + np.argmin(finite)}")
            self.frames_read += 1
            if step <= last and not self.warnings:
                self.warnings.append(f"HISTORY: frame {n} has step {step}, not above the step "
                                     f"{last} before it; frames that repeat are counted again")
            last = step
            yield n, (tokens[0], *tokens[2:5], *rows), cell, step, positions


def runs(frames, stop, block_sites):
    """The lengths of the runs in which the reader reads ``frames``, the
    reference's, by README's "Runs of frames": a run starts at one frame and
    takes, up to its size, the frames after it that repeat its first frame's
    layout; a run that fills its size is followed by one of ``block_sites``
    sites, one cut short by one of twice its length up to that cap, and a new
    cell starts again at one frame."""
    lengths, size, cell = [], 1, None
    while sum(lengths) < len(frames):
        n, layout, first_cell, _, positions = frames[sum(lengths)]
        if first_cell is not cell:
            size = 1
        rest = frames[sum(lengths) + 1 : sum(lengths) + min(size, stop - n + 1)]
        k = 1 + next((f for f, frame in enumerate(rest) if frame[1] != layout), len(rest))
        cap = max(1, block_sites // max(1, len(positions)))
        size = cap if k == size else min(2 * k, cap)
        lengths.append(k)
        cell = first_cell
    return lengths


class Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@contextmanager
def logged():
    handler = Messages()
    logger = logging.getLogger(trajectory_io.__name__)
    logger.addHandler(handler)
    try:
        yield handler.messages
    finally:
        logger.removeHandler(handler)


@contextmanager
def caps(block_sites, text_lines):
    """``BLOCK_SITES`` and ``_TEXT_LINES`` set for the reads inside."""
    saved = trajectory_io.BLOCK_SITES, trajectory_io._TEXT_LINES
    trajectory_io.BLOCK_SITES, trajectory_io._TEXT_LINES = block_sites, text_lines
    try:
        yield
    finally:
        trajectory_io.BLOCK_SITES, trajectory_io._TEXT_LINES = saved


def outcome(frames, reader, stream, error, messages):
    """What a read yields and ends with; the unread rest of ``stream`` only
    when the read ends without an error, as README promises it there."""
    firsts = {}
    return (
        [frame[0] for frame in frames],
        [frame[1].tobytes() for frame in frames],
        [firsts.setdefault(id(frame[2]), f) for f, frame in enumerate(frames)],
        reader.frames_read,
        reader.truncated,
        error,
        messages,
        stream.read() if error is None else None,
    )


def read_reference(text, kwargs, block_sites):
    stream = io.StringIO(text)
    reader = ReferenceReader(stream, **kwargs)
    frames, error = [], None
    try:
        frames.extend(reader)
    except InputError as exc:
        error = str(exc)
    lengths = runs(frames, kwargs.get("stop", sys.maxsize), block_sites)
    frames = [(step, positions, cell) for _, _, cell, step, positions in frames]
    return outcome(frames, reader, stream, error, reader.warnings), lengths


def read(text, kwargs, blocks):
    """The outcome of reading ``text``, frame by frame or a block at a time,
    and the lengths of the blocks."""
    stream = io.StringIO(text)
    reader = HistoryReader(stream, **kwargs)
    frames, lengths, error = [], [], None
    with logged() as messages:
        try:
            if blocks:
                for block in reader.blocks():
                    assert all(frame.cell is block[0].cell for frame in block)
                    lengths.append(len(block))
                    frames += block
            else:
                frames.extend(reader)
        except InputError as exc:
            error = str(exc)
    frames = [(frame.step, frame.positions, frame.cell) for frame in frames]
    return outcome(frames, reader, stream, error, messages), lengths


BAD_LINES = {"coordinate": ["0.5 x 0.5", "0.5 0.5", "1.0D+00 0.5 0.5"],
             "non-finite": ["0.5 nan 0.5", "inf 0.5 0.5", "0.5 0.5 -inf 7"]}
CELL_FAULTS = ["x 0.0 0.0", "10.0 0.0", "nan 0.0 0.0", "0.0 0.0 0.0"]
NAMES = [f"A{i + 1:10d}{1.0:12.6f}{0.0:12.6f}" for i in range(10)]
VELOCITY = f"{0.1:20.10f}{0.2:20.10f}{0.3:20.10f}"
FAULTS = ["non-finite", "non-finite", "coordinate", "coordinate", "cell", "imcon", "timestep", "natoms",
          "byte"]


def history(rng, n_frames, modes, faults):
    """The lines of ``n_frames`` frames.  Each of site count, keytrj, cell and
    keyword case, by its mode, stays the same, changes at some frames or
    changes at every frame; each of ``faults`` is put in a frame."""

    def changing(choices, mode):
        index = rng.integers(len(choices), size=n_frames)
        for f in range(1, n_frames):
            if mode == "never" or (mode == "sometimes" and rng.random() > 0.15):
                index[f] = index[f - 1]
        return [choices[i] for i in index]

    imcon = int(rng.choice([1, 2, 3, 6]))
    counts = changing(rng.integers(0, 10, 2).tolist(), modes[0])
    keytrjs = changing([0, 1, 2, 3, -1], modes[1])
    # A cell of another edge, of another imcon, or with its second row spaced otherwise.
    cells = changing([(10.0, imcon, 20), (12.0, imcon, 20), (10.0, 1 + imcon % 3, 20), (10.0, imcon, 16)],
                     modes[2])
    keywords = changing(["timestep"] * 5 + ["TIMESTEP"], modes[3])
    steps = list(range(1, n_frames + 1))
    if n_frames > 1 and rng.random() < 0.5:
        f = rng.integers(1, n_frames)
        steps[f] = steps[f - 1] - rng.choice([0, 3])
    time = rng.random() < 0.5
    coord_suffix, cell_suffix = rng.choice(["", "  7"]), rng.choice(["", " 1"])

    # Each frame as its timestep record's tokens and its other lines.
    frames = []
    for f in range(n_frames):
        natoms, keytrj, (edge, imcon_f, width) = counts[f], keytrjs[f], cells[f]
        head = [keywords[f], *(f"{t:>10}" for t in (steps[f], natoms, keytrj, imcon_f))]
        lines = ["".join(f"{edge * (r == c):{width if r == 1 else 20}.10f}" for c in range(3)) + cell_suffix
                 for r in range(3)]
        extra = [VELOCITY] * min(max(keytrj, 0), 2)
        for name, xyz in zip(NAMES, rng.integers(-4000, 4000, (natoms, 3)) / 64):
            lines += [name, "%20.10f%20.10f%20.10f" % tuple(xyz) + coord_suffix, *extra]
        frames.append((head + [f"{0.001 * f:12.6f}"] * time, lines))

    for fault in faults if n_frames else ():
        f = rng.integers(n_frames)
        head, lines = frames[f]
        per_site = 2 + min(max(keytrjs[f], 0), 2)
        if fault in BAD_LINES and len(lines) > 3:
            lines[3 + rng.integers(counts[f]) * per_site + 1] = rng.choice(BAD_LINES[fault])
        elif fault == "cell":
            lines[rng.integers(3)] = rng.choice(CELL_FAULTS)
        elif fault == "imcon" and len(head) > 4:
            head[4] = f"{rng.choice([0, 4, -1]):>10}"
        elif fault == "timestep":
            kind = rng.integers(4)
            if kind == 0:
                head[0] = "timestap"
            elif kind == 1:
                del head[4:]
            else:
                head[kind - 1] = f"{'5.0' if kind == 2 else 'x':>10}"
        elif fault == "natoms":
            head[2] = f"{rng.choice([-1, counts[f] + 1, counts[f] - 1, 10**20]):>10}"
        elif fault == "byte":  # in a line, or in a token of the timestep record
            where, k = (head, rng.integers(len(head))) if rng.random() < 0.2 else (lines, rng.integers(len(lines)))
            where[k] = where[k][: len(where[k]) // 2] + "\ufffd" + where[k][len(where[k]) // 2 :]
    text = [line for head, lines in frames for line in ["".join(head), *lines]]
    return text, (keytrjs[0], imcon, counts[0]) if n_frames else (0, imcon, 0)


@st.composite
def histories(draw):
    """A HISTORY text, the reader's keyword arguments and the caps to read
    it with."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_frames = draw(st.integers(0, 60))
    modes = rng.choice(["never", "never", "sometimes", "every"], 4)
    faults = rng.choice(FAULTS, rng.choice([0, 1, 1, 2]))
    text, info = history(rng, n_frames, modes, faults)
    header = rng.choice(["", "", "test trajectory", "timestep series of a test run"])
    if header:
        text[:0] = [header, "".join(f"{t:10d}" for t in info)]
    for _ in range(rng.choice([0, 0, 3, 20])):
        text.insert(rng.integers(len(text) + 1), rng.choice(["", " ", "\t "]))
    text = "".join(line + "\n" for line in text)
    if rng.random() < 0.2:
        text = text[: rng.integers(len(text) + 1)]

    kwargs = {}
    for key in ("start", "stop", "expected_natoms"):
        if rng.random() < 0.5:
            kwargs[key] = info[2] if key == "expected_natoms" else int(rng.integers(-1, n_frames + 3))
    block_sites = draw(st.sampled_from([trajectory_io.BLOCK_SITES, 28, 1]))
    text_lines = draw(st.sampled_from([2048, 37, 3, 1]))
    return text, kwargs, block_sites, text_lines


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(histories())
def test_reader_reads_as_one_frame_at_a_time(case):
    """Frames, counts, error, warnings and the stream's unread rest are the
    reference's, through ``iter`` and ``blocks()``; the blocks are the
    reference's runs, the last of them ending, before an error or a cut, at
    the last frame that comes out."""
    text, kwargs, block_sites, text_lines = case
    expected, lengths = read_reference(text, kwargs, block_sites)
    with caps(block_sites, text_lines):
        assert read(text, kwargs, blocks=False)[0] == expected
        got, blocks = read(text, kwargs, blocks=True)
    assert got == expected
    assert blocks == lengths
