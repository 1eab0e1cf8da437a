import bz2
import gzip
import io
import logging
import lzma
import math
import re
import sys
import tracemalloc
import warnings
from itertools import accumulate, islice

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from molrdf import trajectory_io
from molrdf.cli import main
from molrdf.errors import InputError
from molrdf.rdf_engine import RdfTable
from molrdf.trajectory_io import (
    Directives,
    HistoryReader,
    parse_directives,
    parse_field,
    write_pop,
    write_rdf,
)
from test_reader_reference import ReferenceReader, caps, history, logged, outcome, runs

WATER_ALCOHOL_FIELD = """\
Water with a united-atom alcohol
UNITS kJ

MOLECULES 2
Butanol
NUMMOLS 50
ATOMS 6
  CH3     15.035     0.000
  CH2     14.027     0.000    2
  CH2     14.027     0.265
  O       15.999    -0.700
  H        1.008     0.435
BONDS 5
harm  1 2  2000.0  1.54
harm  2 3  2000.0  1.54
harm  3 4  2000.0  1.54
harm  4 5  2000.0  1.43
harm  5 6  2000.0  0.95
FINISH
SPCE Water
NUMMOLS 200
ATOMS 3
  OW      15.9994   -0.8476
  HW       1.0080    0.4238    2    1
CONSTRAINTS 3
1 2 1.0
1 3 1.0
2 3 1.633
FINISH
VDW 3
OW OW lj 0.65 3.166
CH3 CH3 lj 0.7 3.9
CH2 CH2 lj 0.4 3.9
CLOSE
"""


class TestParseDirectives:
    def test_full_block(self):
        text = (
            "title line\n"
            "steps 6000000\n"
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
        d = parse_directives(text)
        assert (d.start, d.stop, d.rmax, d.dr, d.smooth) == (1001, 5000, 10.0, 0.2, True)

    def test_defaults_without_block(self):
        d = parse_directives("some title\nsteps 100\nfinish\n")
        assert (d.start, d.stop, d.rmax, d.dr, d.smooth) == (
            1,
            sys.maxsize,
            12.5,
            0.1,
            False,
        )

    def test_defaults_without_finish(self):
        assert parse_directives("just a title\n") == Directives()

    def test_case_insensitive(self):
        text = "t\nFINISH\nPolyAna\n START 7\n Stop 9\nEND POLYANA\n"
        d = parse_directives(text)
        assert (d.start, d.stop) == (7, 9)

    def test_block_before_finish_is_ignored(self):
        text = "t\npolyana\n start 99\nend polyana\nfinish\n"
        assert parse_directives(text).start == 1

    def test_unknown_keyword_warned_and_ignored(self, caplog):
        text = "t\nfinish\npolyana\n every 5\n rmax 8.0\nend polyana\n"
        with caplog.at_level(logging.WARNING, logger="molrdf.trajectory_io"):
            d = parse_directives(text)
        assert d.rmax == 8.0
        assert "every" in caplog.text

    def test_unclosed_block_is_an_error(self):
        with pytest.raises(InputError, match="never closed"):
            parse_directives("t\nfinish\npolyana\n start 2\n")

    def test_bad_number_reports_line(self):
        text = "t\nfinish\npolyana\nstart ten\nend polyana\n"
        with pytest.raises(InputError, match="line 4"):
            parse_directives(text)

    def test_missing_value(self):
        with pytest.raises(InputError, match="needs a value"):
            parse_directives("t\nfinish\npolyana\nrmax\nend polyana\n")

    def test_second_block_is_ignored(self):
        text = (
            "t\nfinish\n"
            "polyana\n rmax 9.0\nend polyana\n"
            "polyana\n rmax 4.0\nend polyana\n"
        )
        assert parse_directives(text).rmax == 9.0


    @pytest.mark.parametrize(
        "block, message",
        [
            ("start 0\nrmax 9\n", "line 4: start must be >= 1, got 0"),
            ("stop 2\nstart 5\n", "line 4: stop (2) must be >= start (5)"),
            ("dr 0\nrmax 9\n", "line 4: dr must be positive, got 0.0"),
            ("dr 0.5\nrmax 0.5\n", "line 5: rmax (0.5) must exceed dr (0.5)"),
            ("dr 20\n", "line 4: rmax (12.5) must exceed dr (20.0)"),
            ("rmax 3\nrmax 0.05\n", "line 5: rmax (0.05) must exceed dr (0.1)"),
        ],
    )
    def test_out_of_range_names_the_line(self, block, message):
        """The line of the setting at fault, or of the other setting it is
        checked against when it was left at its default."""
        text = f"t\nfinish\npolyana\n{block}end polyana\n"
        with pytest.raises(InputError) as excinfo:
            parse_directives(text)
        assert str(excinfo.value) == f"CONTROL {message}"


class TestDirectivesValidation:
    def test_stop_before_start(self):
        with pytest.raises(InputError):
            Directives(start=10, stop=5)

    def test_nonpositive_dr(self):
        with pytest.raises(InputError):
            Directives(dr=0.0)

    def test_rmax_must_exceed_dr(self):
        with pytest.raises(InputError):
            Directives(rmax=0.1, dr=0.1)

    def test_start_below_one(self):
        with pytest.raises(InputError):
            Directives(start=0)


class TestParseField:
    def test_two_species(self):
        topo = parse_field(WATER_ALCOHOL_FIELD)
        assert topo.n_types == 2
        butanol, water = topo.molecules
        assert (butanol.name, butanol.count, butanol.n_sites) == ("Butanol", 50, 6)
        assert (water.name, water.count, water.n_sites) == ("SPCE Water", 200, 3)
        assert topo.total_sites == 50 * 6 + 200 * 3

    def test_repeat_expansion(self):
        topo = parse_field(WATER_ALCOHOL_FIELD)
        assert topo.molecules[0].site_names == ("CH3", "CH2", "CH2", "CH2", "O", "H")
        assert topo.molecules[1].site_names == ("OW", "HW", "HW")
        np.testing.assert_allclose(
            topo.molecules[1].masses, [15.9994, 1.008, 1.008]
        )

    def test_non_integer_frozen_column_rejected(self):
        # The charge is not kept either, but it must still be a number.
        for record in ("X 1.0 0.0 1 yes", "X 1.0 abc"):
            text = f"t\nmolecules 1\nM\nnummols 1\natoms 1\n{record}\nfinish\n"
            with pytest.raises(InputError, match=f"FIELD line 6: bad site record '{record}'"):
                parse_field(text)

    def test_used_types_and_their_rows(self):
        """A massless type in the middle is left out and reads no rows, and
        the type after it keeps its FIELD index and follows on in the rows."""
        text = (
            "t\nmolecules 3\n"
            "W\nnummols 4\natoms 3\nO 16.0 0.0\nH 1.0 0.0 2\nfinish\n"
            "P\nnummols 2\natoms 2\nX 0.0 0.0 2\nfinish\n"
            "C\nnummols 5\natoms 1\nC 12.0 0.0\nfinish\n"
        )
        topo = parse_field(text)
        assert topo.used == ((0, slice(0, 12)), (2, slice(12, 17)))
        assert topo.molecules[1].site_masses == (0.0, 0.0)
        assert topo.total_sites == 21
        assert list(topo.used_flags()) == [1] * 12 + [0] * 4 + [1] * 5

    def test_used_sites_and_their_rows(self):
        """A massive type keeps its sites up to its last one with mass,
        massless ones between them included; a massless type keeps none.
        The flags select those sites, and ``used`` gives where their rows
        sit in a frame read with the flags."""
        text = (
            "t\nmolecules 3\n"
            "W\nnummols 2\natoms 4\nO 16.0 0.0\nM 0.0 0.0\nH 1.0 0.0\nL 0.0 0.0\nfinish\n"
            "P\nnummols 2\natoms 2\nX 0.0 0.0 2\nfinish\n"
            "C\nnummols 3\natoms 2\nC 12.0 0.0\nD 0.0 0.0\nfinish\n"
        )
        topo = parse_field(text)
        assert [mol.used_sites for mol in topo.molecules] == [3, 0, 1]
        assert list(topo.used_flags()) == [1, 1, 1, 0] * 2 + [0, 0] * 2 + [1, 0] * 3
        assert topo.used == ((0, slice(0, 6)), (2, slice(6, 9)))

    def test_no_flags_when_every_site_is_used(self):
        topo = parse_field(WATER_ALCOHOL_FIELD)
        assert [mol.used_sites for mol in topo.molecules] == [6, 3]
        assert topo.used_flags() is None
        assert topo.used == ((0, slice(0, 300)), (1, slice(300, 900)))

    def test_flags_are_drawn_as_they_are_read(self):
        """A count far beyond any HISTORY builds nothing up front."""
        text = "t\nmolecules 1\nM\nnummols 100000000000000000000\natoms 2\nA 1.0 0.0\nB 0.0 0.0\nfinish\n"
        topo = parse_field(text)
        assert list(islice(topo.used_flags(), 5)) == [True, False, True, False, True]
        assert topo.used == ((0, slice(0, 10**20)),)

    def test_masses_are_built_once_and_read_only(self):
        mol = parse_field(WATER_ALCOHOL_FIELD).molecules[1]
        assert mol.masses is mol.masses
        np.testing.assert_array_equal(mol.masses, mol.site_masses)
        with pytest.raises(ValueError):
            mol.masses[0] = 0.0

    def test_total_mass(self):
        topo = parse_field(WATER_ALCOHOL_FIELD)
        assert topo.molecules[1].total_mass == pytest.approx(15.9994 + 2 * 1.008)

    def test_title_line_always_skipped(self):
        # A title that itself starts like the MOLECULES keyword must not match.
        text = "molecular liquid test\nmolecules 1\nM\nnummols 1\natoms 1\nX 1.0 0.0\nfinish\n"
        topo = parse_field(text)
        assert topo.n_types == 1 and topo.molecules[0].name == "M"

    def test_keywords_match_on_four_chars(self):
        text = "t\nMOLECULAR types 1\nM\nNUMMols 2\nATOMs 1\nX 1.0 0.0\nFINIsh\n"
        topo = parse_field(text)
        assert topo.molecules[0].count == 2

    def test_missing_molecules_directive(self):
        with pytest.raises(InputError, match="MOLECULES"):
            parse_field("title\nUNITS kJ\n")

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_molecule_type_count_must_be_positive(self, count):
        text = f"t\nUNITS kJ\nmolecules {count}\nM\nnummols 1\natoms 1\nX 1.0 0.0\nfinish\n"
        with pytest.raises(InputError, match="FIELD line 3: MOLECULES must be >= 1"):
            parse_field(text)

    def test_repeat_overshoot(self):
        text = "t\nmolecules 1\nM\nnummols 1\natoms 3\nX 1.0 0.0 2\nY 1.0 0.0 2\nfinish\n"
        with pytest.raises(InputError, match="expand"):
            parse_field(text)

    def test_huge_repeat_count_fails_before_expanding(self):
        """A repeat count far past ATOMS is rejected without building its
        sites, which would not fit in memory."""
        repeat = 10**12
        text = f"t\nmolecules 1\nM\nnummols 1\natoms 3\nX 1.0 0.0\nY 1.0 0.0 {repeat}\nfinish\n"
        message = f"^FIELD: repeat counts in 'M' expand to {repeat + 1} sites, ATOMS says 3$"
        with pytest.raises(InputError, match=message):
            parse_field(text)

    def test_negative_mass_rejected(self):
        text = "t\nmolecules 1\nM\nnummols 1\natoms 1\nX -1.0 0.0\nfinish\n"
        with pytest.raises(InputError, match="negative"):
            parse_field(text)

    @pytest.mark.parametrize("mass", ["nan", "inf", "1e400"])
    def test_non_finite_mass_rejected(self, mass):
        text = f"t\nmolecules 1\nM\nnummols 1\natoms 1\nX {mass} 0.0\nfinish\n"
        message = f"^FIELD line 6: site mass must be finite, got '{mass}'$"
        with pytest.raises(InputError, match=message):
            parse_field(text)

    @pytest.mark.parametrize("count", [2**60, 10**20])
    def test_repeat_count_too_large_to_hold(self, count):
        """ATOMS and a repeat count both too large for a list of sites:
        refused before anything is allocated, by line."""
        text = f"t\nmolecules 1\nM\nnummols 1\natoms {count}\nX 1.0 0.0 {count}\nfinish\n"
        message = f"^FIELD line 6: repeat count {count} is too many sites to hold$"
        with pytest.raises(InputError, match=message):
            parse_field(text)

    @pytest.mark.parametrize("n_sites", ["0", "-1"])
    def test_site_count_must_be_positive(self, n_sites):
        text = f"t\nmolecules 1\nM\nnummols 1\natoms {n_sites}\nX 1.0 0.0\nfinish\n"
        with pytest.raises(InputError, match="FIELD line 5: ATOMS must be >= 1"):
            parse_field(text)

    def test_missing_finish(self):
        text = "t\nmolecules 1\nM\nnummols 1\natoms 1\nX 1.0 0.0\n"
        with pytest.raises(InputError, match="FINISH"):
            parse_field(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t\nmolecules 1\nM\natoms 1\nX 1.0 0.0\nfinish\n",
             "FIELD line 4: expected NUMMOLS for 'M'"),
            ("t\nmolecules 1\nM\nnummols 1\nX 1.0 0.0\nfinish\n",
             "FIELD line 5: expected ATOMS for 'M'"),
            ("t\nmolecules 1\nM\n", "FIELD line 3: expected NUMMOLS for 'M'"),
            ("t\nmolecules 1\nM\nnummols many\natoms 1\nX 1.0 0.0\nfinish\n",
             "FIELD line 4: bad NUMMOLS value"),
            ("t\nmolecules 1\nM\nnummols 1\natoms 1.5\nX 1.0 0.0\nfinish\n",
             "FIELD line 5: bad ATOMS value"),
            ("t\nmolecules two\nM\nnummols 1\natoms 1\nX 1.0 0.0\nfinish\n",
             "FIELD line 2: bad MOLECULES count"),
            ("t\nmolecules 2\nM\nnummols 1\natoms 1\nX 1.0 0.0\nfinish\n",
             "FIELD: unexpected end of file before molecule name"),
            ("t\nmolecules 1\nM\nnummols 1\natoms 2\nX 1.0 0.0\n",
             "FIELD: unexpected end of file in ATOMS of 'M'"),
            ("t\nmolecules 1\nM\nnummols 1\natoms 1\nX 1.0\nfinish\n",
             "FIELD line 6: site record needs name, mass and charge"),
            ("t\nmolecules 1\nM\nnummols 1\natoms 1\nX 1.0 0.0 0\nfinish\n",
             "FIELD line 6: repeat count must be >= 1"),
        ],
        ids=["no-nummols", "no-atoms", "eof-at-nummols", "bad-nummols", "bad-atoms",
             "bad-molecules", "eof-before-name", "eof-in-atoms", "no-charge", "zero-repeat"],
    )
    def test_malformed_record_names_the_line(self, text, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            parse_field(text)


def history_text(
    frames,
    names=("A", "B"),
    masses=(1.0, 2.0),
    header=True,
    keytrj=0,
    imcon=1,
    length=10.0,
    cell=None,
    coord_suffix="",
    cell_suffix="",
):
    """Minimal HISTORY text for a system of single-site molecules.

    ``cell`` (rows a, b, c), or one such matrix per frame, replaces the
    cubic cell of edge ``length``; ``coord_suffix`` is appended to every
    coordinate line and ``cell_suffix`` to every cell row.
    """
    natoms = len(names)
    if cell is None:
        cell = length * np.eye(3)
    cells = np.broadcast_to(cell, (len(frames), 3, 3))
    lines = []
    if header:
        lines += ["test trajectory", f"{keytrj:10d}{imcon:10d}{natoms:10d}"]
    for step, (positions, cell) in enumerate(zip(frames, cells), start=1):
        lines.append(f"timestep{step:10d}{natoms:10d}{keytrj:10d}{imcon:10d}{0.001:12.6f}")
        if imcon > 0:
            for row in cell:
                lines.append("".join(f"{v:20.10f}" for v in row) + cell_suffix)
        for i, (name, mass) in enumerate(zip(names, masses)):
            lines.append(f"{name:<8s}{i + 1:10d}{mass:12.6f}{0.0:12.6f}")
            x, y, z = positions[i]
            lines.append(f"{x:20.10f}{y:20.10f}{z:20.10f}{coord_suffix}")
            if keytrj >= 1:
                lines.append(f"{0.1:20.10f}{0.2:20.10f}{0.3:20.10f}")
            if keytrj >= 2:
                lines.append(f"{1.0:20.10f}{2.0:20.10f}{3.0:20.10f}")
    return "\n".join(lines) + "\n"


FRAMES = [
    [(1.0, 2.0, 3.0), (4.0, 4.5, -2.0)],
    [(1.1, 2.1, 3.1), (4.1, 4.6, -2.1)],
    [(1.2, 2.2, 3.2), (4.2, 4.7, -2.2)],
]


class TestHistoryReader:
    def test_headered(self):
        reader = HistoryReader(io.StringIO(history_text(FRAMES)))
        frames = list(reader)
        assert reader.frames_read == 3
        assert not reader.truncated
        assert frames[0].step == 1
        assert frames[0].cell.imcon == 1
        np.testing.assert_allclose(frames[1].positions[0], [1.1, 2.1, 3.1])

    def test_headerless_matches_headered(self):
        headered = list(HistoryReader(io.StringIO(history_text(FRAMES))))
        bare = list(HistoryReader(io.StringIO(history_text(FRAMES, header=False))))
        assert len(headered) == len(bare)
        for a, b in zip(headered, bare):
            np.testing.assert_array_equal(a.positions, b.positions)
            np.testing.assert_array_equal(a.cell.matrix, b.cell.matrix)

    @pytest.mark.parametrize("keytrj", [1, 2])
    def test_velocity_and_force_records_skipped(self, keytrj):
        frames = list(HistoryReader(io.StringIO(history_text(FRAMES, keytrj=keytrj))))
        assert len(frames) == 3
        np.testing.assert_allclose(frames[2].positions[1], [4.2, 4.7, -2.2])

    def test_truncated_mid_positions(self):
        text = history_text(FRAMES)
        cut = "\n".join(text.splitlines()[:-3]) + "\n"
        reader = HistoryReader(io.StringIO(cut))
        frames = list(reader)
        assert len(frames) == 2
        assert reader.truncated
        assert reader.frames_read == 2

    def test_truncated_mid_cell(self):
        text = history_text(FRAMES[:1])
        keep = text.splitlines()[:4]  # header + timestep + one cell row
        reader = HistoryReader(io.StringIO("\n".join(keep) + "\n"))
        assert list(reader) == []
        assert reader.truncated

    def test_extra_tokens_on_cell_rows_are_ignored(self):
        cell = np.array([[10.0, 0.0, 0.0], [1.5, 9.0, 0.0], [1.0, 1.2, 8.0]])
        plain = list(HistoryReader(io.StringIO(history_text(FRAMES, imcon=3, cell=cell))))
        reader = HistoryReader(
            io.StringIO(history_text(FRAMES, imcon=3, cell=cell, cell_suffix=" 9.5 junk"))
        )
        padded = list(reader)
        assert reader.frames_read == 3 and not reader.truncated
        for a, b in zip(plain, padded):
            assert a.cell.matrix.tobytes() == b.cell.matrix.tobytes()
            assert a.positions.tobytes() == b.positions.tobytes()
        np.testing.assert_array_equal(padded[0].cell.matrix, cell)

    @pytest.mark.parametrize("rows", [(0,), (1,), (2,), (0, 1, 2)])
    @pytest.mark.parametrize("bad", ["10.0 0.0", "10.0 abc 0.0"])
    def test_short_or_bad_cell_row_truncates(self, rows, bad):
        """At the end of the file; with site records after them, see
        test_corrupt_record_before_more_frames_is_fatal."""
        lines = history_text(FRAMES).splitlines()
        third_frame = 2 + 2 * (1 + 3 + 2 * 2)  # header, two frames
        for row in rows:
            lines[third_frame + 1 + row] = bad
        del lines[third_frame + 4 :]
        reader = HistoryReader(io.StringIO("\n".join(lines) + "\n"))
        frames = list(reader)
        assert reader.frames_read == 2
        assert reader.truncated
        np.testing.assert_allclose(frames[1].positions, FRAMES[1])

    def test_garbage_coordinate_truncates(self):
        lines = history_text(FRAMES).splitlines()
        lines[-1] = "not a number at all"
        reader = HistoryReader(io.StringIO("\n".join(lines) + "\n"))
        assert len(list(reader)) == 2
        assert reader.truncated

    def test_short_coordinate_lines_truncate(self):
        lines = history_text(FRAMES).splitlines()
        for k in (-3, -1):  # both coordinate lines of the last frame
            lines[k] = " ".join(lines[k].split()[:2])
        reader = HistoryReader(io.StringIO("\n".join(lines) + "\n"))
        assert len(list(reader)) == 2
        assert reader.truncated

    @pytest.mark.parametrize("step", [1, 2])
    @pytest.mark.parametrize(
        "line, record",
        [(1, "cell row"), (3, "cell row"), (5, "coordinate line"), (7, "coordinate line")],
    )
    def test_corrupt_record_before_more_frames_is_fatal(self, step, line, record):
        """A bad cell row or coordinate line in frame 1 or 2 of 3 names its
        frame instead of dropping the frames after it as truncated."""
        lines = history_text(FRAMES).splitlines()
        k = 2 + (step - 1) * (1 + 3 + 2 * 2) + line  # past the header
        x, _, z = lines[k].split()
        lines[k] = f"{x} x {z}"
        frames = []
        with pytest.raises(
            InputError, match=rf"^HISTORY: frame at step {step}: a {record} does not start"
        ):
            frames.extend(HistoryReader(io.StringIO("\n".join(lines) + "\n")))
        assert [frame.step for frame in frames] == list(range(1, step))

    @pytest.mark.parametrize(
        "text, value",
        [
            ("1.0E+01", 10.0),
            ("-.5", -0.5),
            ("1.", 1.0),
            ("+2", 2.0),
            ("inf", math.inf),
            ("nan", math.nan),
            ("1_0", None),
            ("1.0D+00", None),
            ("\uff11", None),  # a full-width digit 1
            ("2#", None),
        ],
    )
    def test_number_forms(self, text, value):
        """The forms numpy's text reader converts; the others make the line
        bad.  Python's float() also takes "1_0" and non-ASCII digits, and
        "#" starts no comment."""
        lines = history_text(FRAMES).splitlines()
        site_2 = 2 + 1 + 3 + 3  # header, timestep, cell, first site
        x, y, _ = lines[site_2].split()
        lines[site_2] = f"{x} {y} {text}"
        reader = HistoryReader(io.StringIO("\n".join(lines) + "\n"))
        if value is None:
            with pytest.raises(InputError, match="step 1: a coordinate line does not start"):
                list(reader)
        elif not math.isfinite(value):
            with pytest.raises(InputError, match="step 1 has a non-finite coordinate at site 2"):
                list(reader)
        else:
            frames = list(reader)
            assert frames[0].positions[1, 2] == value
            assert len(frames) == 3 and not reader.truncated

    def test_reading_emits_no_warning(self):
        """Two frames of no sites, then a frame cut right after its cell
        rows: no empty conversion warns."""
        empty = history_text([[], []], names=(), masses=())
        cut = "\n".join(history_text(FRAMES[:1], header=False).splitlines()[:4]) + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reader, frames = read_all(empty + cut)
        assert [frame.positions.shape for frame in frames] == [(0, 3), (0, 3)]
        assert reader.truncated

    @pytest.mark.parametrize("bad", ["nan", "NaN", "inf", "-Infinity", "1e400"])
    def test_non_finite_coordinate_is_fatal(self, bad):
        lines = history_text(FRAMES).splitlines()
        second_frame = 2 + (1 + 3 + 2 * 2)
        site_2 = second_frame + 1 + 3 + 3  # timestep, cell, first site
        x, _, z = lines[site_2].split()
        lines[site_2] = f"{x} {bad} {z}"
        reader = HistoryReader(io.StringIO("\n".join(lines) + "\n"))
        with pytest.raises(InputError, match="step 2 has a non-finite coordinate at site 2"):
            list(reader)
        assert reader.frames_read == 1

    def test_empty_file(self):
        reader = HistoryReader(io.StringIO(""))
        assert list(reader) == []
        assert reader.truncated
        assert reader.frames_read == 0

    @pytest.mark.parametrize("good_frames", [0, 1])
    def test_negative_site_count_truncates(self, good_frames):
        text = history_text(FRAMES[:good_frames], header=False)
        reader = HistoryReader(io.StringIO(text + "timestep 1 -2 0 0 0.001\n"))
        frames = list(reader)
        assert len(frames) == good_frames
        assert reader.frames_read == good_frames
        assert reader.truncated

    @pytest.mark.parametrize("start", [1, 2])
    def test_site_count_past_maxsize_truncates(self, start):
        """A site count beyond sys.maxsize, with no expected count to check it
        against, ends the read as a cut, in a converted frame as in a walked
        one."""
        text = "timestep 1 99999999999999999999 0 1 0.001\n" + "".join(
            f"{row[0]} {row[1]} {row[2]}\n" for row in 10.0 * np.eye(3)
        )
        reader, got = read_all(text, start=start)
        assert got == []
        assert reader.truncated
        assert reader.frames_read == 0

    @pytest.mark.parametrize("start", [1, 3])
    @pytest.mark.parametrize("field", [1, 2, 3, 4, "keyword", "short", "negative"])
    def test_malformed_timestep_record_before_more_frames_is_fatal(self, field, start):
        """A non-integer step, site count, keytrj or imcon in frame 2 of 3, a
        misspelt keyword, a record of four tokens or a negative site count
        names the frame instead of dropping frames 2 and 3 as truncated, also
        when frame 2 comes before ``start`` and is only walked."""
        lines = history_text(FRAMES).splitlines()
        second_frame = 2 + (1 + 3 + 2 * 2)
        tokens = lines[second_frame].split()
        if field == "keyword":
            tokens[0] = "timestap"
            message = r"^HISTORY: frame 2: expected a timestep record with step, site count"
        elif field == "short":
            del tokens[4:]
            message = r"^HISTORY: frame 2: expected a timestep record with step, site count"
        elif field == "negative":
            tokens[2] = "-2"
            message = r"^HISTORY: frame at step 2: negative site count -2$"
        else:
            tokens[field] = "x"
            message = r"^HISTORY: frame 2: timestep record needs integer"
        lines[second_frame] = " ".join(tokens)
        reader = HistoryReader(io.StringIO("\n".join(lines) + "\n"), start=start)
        frames = []
        with pytest.raises(InputError, match=message):
            frames.extend(reader)
        assert [frame.step for frame in frames] == [1][start - 1 :]
        assert reader.frames_read == 1

    @pytest.mark.parametrize("record", ["timestep 3 2 0 x 0.001", "timestep 3 2 0 1."])
    def test_malformed_timestep_record_at_end_of_file_truncates(self, record):
        text = history_text(FRAMES[:2]) + record + "\n"
        reader = HistoryReader(io.StringIO(text))
        assert len(list(reader)) == 2
        assert reader.truncated

    def test_bad_header_is_fatal(self):
        reader = HistoryReader(io.StringIO("title only\nnot numbers here\n"))
        with pytest.raises(InputError, match="neither a header nor a timestep"):
            list(reader)

    @pytest.mark.parametrize("title", ["Timestep study of water", "TIMESTEP 1 2 0", "timestep"])
    def test_title_that_starts_with_timestep(self, title):
        """The title is CONTROL's, whatever its first word: a header is told
        by the integers of its second line."""
        text = history_text(FRAMES).replace("test trajectory", title, 1)
        reader, frames = read_all(text)
        assert (reader.frames_read, reader.truncated) == (3, False)
        assert_frames(frames, FRAMES)

    @pytest.mark.parametrize("more", [True, False])
    def test_bad_first_timestep_record_without_a_header(self, more):
        """A first record with the keyword but not four integers is named as
        frame 1's, with the line after it still there to tell it from a cut."""
        lines = history_text(FRAMES, header=False).splitlines()
        lines[0] = lines[0].replace(f"{1:10d}{0.001:12.6f}", f"{'x':>10}{0.001:12.6f}")
        reader = HistoryReader(io.StringIO("\n".join(lines[: None if more else 1]) + "\n"))
        if more:
            with pytest.raises(InputError, match="^HISTORY: frame 1: timestep record needs integer"):
                list(reader)
        else:
            assert list(reader) == [] and reader.truncated

    @pytest.mark.parametrize("start", [1, 2])
    def test_natoms_mismatch_is_fatal(self, start):
        reader = HistoryReader(
            io.StringIO(history_text(FRAMES)), expected_natoms=99, start=start
        )
        with pytest.raises(InputError, match="99"):
            list(reader)
        assert reader.frames_read == 0

    def test_unbounded_frame(self):
        """A frame with imcon 0 has no periodic cell, so no volume for the
        density g(r) divides by: an error that names its step."""
        reader = HistoryReader(io.StringIO(history_text(FRAMES, imcon=0)))
        with pytest.raises(
            InputError, match=r"^HISTORY: frame at step 1: imcon=0 gives no periodic cell"
        ):
            list(reader)
        assert reader.frames_read == 0

    @pytest.mark.parametrize("start", [1, 3])
    def test_unbounded_frame_after_periodic_ones(self, start):
        """Frame 2 of 3 written with imcon 0 and no cell rows stops the read
        at its own record, before its site lines could pass for cell rows,
        also when it comes before ``start``."""
        lines = history_text(FRAMES).splitlines()
        second_frame = 2 + (1 + 3 + 2 * 2)
        lines[second_frame] = f"timestep{2:10d}{2:10d}{0:10d}{0:10d}{0.001:12.6f}"
        del lines[second_frame + 1 : second_frame + 4]
        frames = []
        with pytest.raises(InputError, match=r"^HISTORY: frame at step 2: imcon=0"):
            frames.extend(HistoryReader(io.StringIO("\n".join(lines) + "\n"), start=start))
        assert [frame.step for frame in frames] == [1][start - 1 :]

    @pytest.mark.parametrize("step", [1, 2])
    @pytest.mark.parametrize("line", [1, 3, 5, 7])
    def test_corrupt_record_before_start_is_not_seen(self, step, line):
        """The bad cell row or coordinate line of
        test_corrupt_record_before_more_frames_is_fatal, in a frame before
        ``start``: the frame is walked, not converted, so nothing reads it."""
        lines = history_text(FRAMES).splitlines()
        k = 2 + (step - 1) * (1 + 3 + 2 * 2) + line
        x, _, z = lines[k].split()
        lines[k] = f"{x} x {z}"
        reader, got = read_all("\n".join(lines) + "\n", start=3)
        assert reader.frames_read == 3
        assert not reader.truncated
        assert [frame.step for frame in got] == [3]
        np.testing.assert_array_equal(got[0].positions, FRAMES[2])

    def test_file_source(self, tmp_path):
        path = tmp_path / "HISTORY"
        path.write_text(history_text(FRAMES))
        with HistoryReader(path) as reader:
            assert len(list(reader)) == 3


def frame_cells(text):
    return [frame.cell for frame in HistoryReader(io.StringIO(text))]


TILTED = np.array([[10.0, 0.0, 0.0], [1.5, 9.0, 0.0], [1.0, 1.25, 8.0]])

FIELD_A_B = """\
single-site molecules A and B
MOLECULES 2
A
NUMMOLS 1
ATOMS 1
A 1.0 0.0
FINISH
B
NUMMOLS 1
ATOMS 1
B 2.0 0.0
FINISH
CLOSE
"""

CONTROL_RMAX_4 = "t\nfinish\npolyana\n  rmax 4.0\n  dr 0.5\nend polyana\n"


class TestCellReuse:
    """A frame whose imcon and cell rows repeat the previous frame's shares
    its cell object; any change builds a new cell."""

    def test_repeated_rows_share_one_cell(self):
        cells = frame_cells(history_text(FRAMES, imcon=3, cell=TILTED))
        assert cells[0] is cells[1] is cells[2]
        np.testing.assert_array_equal(cells[2].matrix, TILTED)

    def test_npt_cell_changes_every_frame(self, tmp_path, capsys):
        scales = (1.0, 1.03125, 0.96875)  # exact in binary and in 10 decimals
        matrices = np.array([k * TILTED for k in scales])
        cells = frame_cells(history_text(FRAMES, imcon=3, cell=matrices))
        assert len({id(c) for c in cells}) == 3
        for cell, matrix in zip(cells, matrices):
            assert cell.matrix.tobytes() == matrix.tobytes()
            assert cell.volume == pytest.approx(abs(np.linalg.det(matrix)), rel=1e-14)
            assert cell.min_image_cutoff == pytest.approx(
                0.5 * min(1.0 / np.linalg.norm(np.linalg.inv(matrix), axis=0)), rel=1e-14
            )

        (tmp_path / "CONTROL").write_text(CONTROL_RMAX_4)
        (tmp_path / "FIELD").write_text(FIELD_A_B)
        (tmp_path / "HISTORY").write_text(history_text(FRAMES, imcon=3, cell=matrices))
        assert main(["--dir", str(tmp_path)]) == 0
        mean = np.mean([abs(np.linalg.det(m)) for m in matrices])
        assert f"mean cell volume: {mean:.6f} A^3" in capsys.readouterr().out
        assert f"{mean:.6f}" != f"{abs(np.linalg.det(TILTED)):.6f}"

    def test_same_rows_under_another_imcon_build_a_new_cell(self):
        imcons = (1, 2, 2, 3, 1)
        text = "".join(
            history_text([FRAMES[k % 3]], header=False, imcon=imcon)
            for k, imcon in enumerate(imcons)
        )
        cells = frame_cells(text)
        assert [c.imcon for c in cells] == list(imcons)
        assert cells[2] is cells[1]
        assert len({id(c) for c in cells}) == 4
        for cell in cells:
            np.testing.assert_array_equal(cell.matrix, 10.0 * np.eye(3))

    @pytest.mark.parametrize("start", [2, 3])
    def test_first_frame_after_start_builds_its_own_cell(self, start):
        """Walked frames build no cell, so the first converted frame cannot
        take a walked frame's, whether or not its rows repeat."""
        matrices = np.array([TILTED, 1.03125 * TILTED, 1.03125 * TILTED])
        text = history_text(FRAMES, imcon=3, cell=matrices)
        cells = [frame.cell for frame in HistoryReader(io.StringIO(text), start=start)]
        assert len(cells) == 4 - start
        assert cells[0] is cells[-1]
        np.testing.assert_array_equal(cells[0].matrix, matrices[start - 1])

    def test_changed_row_after_repeated_rows_is_picked_up(self):
        third_row = TILTED.copy()
        third_row[2] = [0.5, -0.75, 8.5]
        one_digit = TILTED.copy()
        one_digit[1, 1] += 1e-10  # the last decimal written
        matrices = np.array([TILTED, TILTED, third_row, third_row, one_digit, TILTED])
        frames = [FRAMES[k % 3] for k in range(len(matrices))]
        cells = frame_cells(history_text(frames, imcon=3, cell=matrices))
        assert cells[1] is cells[0] and cells[3] is cells[2]
        assert len({id(c) for c in cells}) == 4
        for cell, matrix in zip(cells, matrices):
            np.testing.assert_array_equal(cell.matrix, matrix)
        assert cells[2].volume != cells[1].volume


class TestBadCell:
    """A cell the reader cannot use is an error that names its frame."""

    def second_frame_error(self, text):
        frames = []
        with pytest.raises(InputError) as err:
            frames.extend(HistoryReader(io.StringIO(text)))
        assert [frame.step for frame in frames] == [1]
        return str(err.value)

    def test_unsupported_imcon(self):
        text = history_text(FRAMES).replace(
            f"timestep{2:10d}{2:10d}{0:10d}{1:10d}", f"timestep{2:10d}{2:10d}{0:10d}{4:10d}"
        )
        assert self.second_frame_error(text) == (
            "HISTORY: frame at step 2: unsupported periodic-boundary code imcon=4 "
            "(supported: [1, 2, 3, 6])"
        )

    def test_zero_rows(self):
        matrices = np.array([TILTED, np.zeros((3, 3)), TILTED])
        text = history_text(FRAMES, imcon=3, cell=matrices)
        assert self.second_frame_error(text) == (
            "HISTORY: frame at step 2: singular cell tensor for a periodic cell"
        )

    def test_tilted_cubic_cell(self):
        matrices = np.array([10.0 * np.eye(3), TILTED, TILTED])
        text = history_text(FRAMES, imcon=1, cell=matrices)
        assert self.second_frame_error(text) == (
            "HISTORY: frame at step 2: imcon=1 requires a diagonal cell matrix"
        )


def site_frames(n_frames, n_sites, seed=0):
    """Positions that the writer's 10 decimals print exactly."""
    rng = np.random.default_rng(seed)
    return rng.integers(-4000, 4000, (n_frames, n_sites, 3)) / 64


def sites_history(frames, **kwargs):
    n_sites = frames.shape[1]
    return history_text(frames, names=("A",) * n_sites, masses=(1.0,) * n_sites, **kwargs)


def read_all(text, start=1):
    reader = HistoryReader(io.StringIO(text), start=start)
    return reader, list(reader)


def assert_frames(got, expected):
    assert len(got) == len(expected)
    for frame, positions in zip(got, expected):
        np.testing.assert_array_equal(frame.positions, positions)


class TestBlockReader:
    """A frame's site records are taken whole and their coordinate lines
    converted at once.  Every case runs on a file of 2 and of 3 frames, so
    that its last frame follows one or two complete ones."""

    N_SITES = 7

    @pytest.fixture(params=[2, 3])
    def n_frames(self, request):
        return request.param

    def test_cut_at_every_line_of_last_frame(self, n_frames):
        frames = site_frames(n_frames, self.N_SITES)
        lines = sites_history(frames, keytrj=2).splitlines(keepends=True)
        last = len(lines) - (1 + 3 + self.N_SITES * 4)  # last timestep line
        # The last frame converted, and walked as a frame before start.
        for start in (1, n_frames, n_frames + 1):
            for k in range(last, len(lines) + 1):
                reader, got = read_all("".join(lines[:k]), start)
                complete = n_frames if k == len(lines) else n_frames - 1
                assert reader.frames_read == complete, (start, k)
                # A cut just before a timestep record is a clean end of file.
                assert reader.truncated == (last < k < len(lines)), (start, k)
                assert_frames(got, frames[start - 1 : complete])

    def test_cut_in_the_middle_of_every_line_of_last_frame(self, n_frames):
        frames = site_frames(n_frames, self.N_SITES)
        lines = sites_history(frames, keytrj=2).splitlines(keepends=True)
        last = len(lines) - (1 + 3 + self.N_SITES * 4)
        for start in (1, n_frames, n_frames + 1):
            for k in range(last, len(lines)):
                half = lines[k][: len(lines[k]) // 2]
                reader, got = read_all("".join(lines[:k]) + half, start)
                # Only the presence of a force record is checked, so half of the
                # frame's final line still completes it.
                complete = n_frames if k == len(lines) - 1 else n_frames - 1
                assert reader.frames_read == complete, (start, k)
                assert reader.truncated == (complete < n_frames), (start, k)
                assert_frames(got, frames[start - 1 : complete])

    @pytest.mark.parametrize("keytrj", [0, 2])
    def test_blank_lines_anywhere(self, n_frames, keytrj):
        frames = site_frames(n_frames, self.N_SITES)
        lines = sites_history(frames, keytrj=keytrj).splitlines()
        per_site = 2 + keytrj
        per_frame = 1 + 3 + per_site * self.N_SITES
        # From the back, so that earlier indices stay valid.
        lines.append(" ")
        for start in range(2 + (n_frames - 1) * per_frame, 1, -per_frame):
            site_4 = start + 4 + 3 * per_site
            lines.insert(site_4 + per_site - 1, "   ")  # before a record's last line
            lines.insert(site_4 + 1, "\t")  # after a name record
            lines.insert(start + 2, "")  # between cell rows
            lines.insert(start, "")  # before the timestep record
        for start in (1, n_frames, n_frames + 1):
            reader, got = read_all("\n".join(lines) + "\n", start)
            assert reader.frames_read == n_frames
            assert not reader.truncated
            assert_frames(got, frames[start - 1 :])

    def test_extra_tokens_are_ignored(self, n_frames):
        frames = site_frames(n_frames, self.N_SITES)
        reader, got = read_all(sites_history(frames, coord_suffix="  7.5 junk"))
        assert reader.frames_read == n_frames
        assert not reader.truncated
        assert_frames(got, frames)

    def test_short_line_not_made_up_by_a_long_neighbour(self, n_frames):
        frames = site_frames(n_frames, self.N_SITES)
        lines = sites_history(frames).splitlines()
        coord = 2 + 1 + 3 + 1  # first coordinate line
        x, y, z = lines[coord].split()
        lines[coord] = f"{x} {y}"
        lines[coord + 2] = f"{z} {lines[coord + 2]}"
        reader = HistoryReader(io.StringIO("\n".join(lines) + "\n"))
        with pytest.raises(InputError, match="step 1: a coordinate line does not start"):
            list(reader)
        assert reader.frames_read == 0

    @pytest.mark.parametrize("frame", [0, 1])
    def test_garbage_in_second_block_truncates(self, n_frames, frame):
        """Garbage at a site in the middle of the file's last frame; with
        frames after it, see test_corrupt_record_before_more_frames_is_fatal."""
        frames = site_frames(n_frames, self.N_SITES)
        lines = sites_history(frames).splitlines()
        per_frame = 4 + 2 * self.N_SITES
        coord = 2 + frame * per_frame + 4 + 2 * (self.N_SITES // 2) + 1
        lines[coord] = "1.0 abc 3.0"
        del lines[2 + (frame + 1) * per_frame :]
        reader, got = read_all("\n".join(lines) + "\n")
        assert reader.frames_read == frame
        assert reader.truncated
        assert_frames(got, frames[:frame])

    @pytest.mark.parametrize("keytrj", [-1, 0, 1, 2, 3])
    def test_keytrj(self, n_frames, keytrj):
        # -1 and 0 write no velocity or force lines, 3 writes both.
        frames = site_frames(n_frames, self.N_SITES)
        for start in (1, n_frames, n_frames + 1):
            reader, got = read_all(sites_history(frames, keytrj=keytrj), start)
            assert reader.frames_read == n_frames
            assert not reader.truncated
            assert_frames(got, frames[start - 1 :])

    @pytest.mark.parametrize("header", [True, False])
    @pytest.mark.parametrize("imcon", [1, 6])
    def test_header_and_imcon(self, n_frames, header, imcon):
        frames = site_frames(n_frames, self.N_SITES)
        reader, got = read_all(sites_history(frames, header=header, imcon=imcon))
        assert reader.frames_read == n_frames
        assert not reader.truncated
        assert_frames(got, frames)
        assert all(f.cell.imcon == imcon for f in got)

    def test_file_source(self, n_frames, tmp_path):
        frames = site_frames(n_frames, self.N_SITES)
        path = tmp_path / "HISTORY"
        path.write_text(sites_history(frames, keytrj=1))
        with HistoryReader(path) as reader:
            assert_frames(list(reader), frames)
        assert not reader.truncated


class TestZeroSiteFrames:
    """A timestep record may give 0 sites: such a frame is its timestep
    record and cell rows alone, comes out with ``(0, 3)`` positions and takes
    no line of the frame after it, whether it is read on its own, in a run
    of frames that share its cell, or walked before ``start``."""

    COUNTS = [0, 0, 3, 0, 3, 3, 0, 0, 0]

    @staticmethod
    def history(keytrj, new_cells):
        """Frame k of 1, 2, ... has COUNTS[k - 1] sites in a cubic cell of
        10 A, or of 10 + k A with ``new_cells``; its positions and the lines."""
        frames = [site_frames(1, n, seed=k)[0] for k, n in enumerate(TestZeroSiteFrames.COUNTS)]
        lines = []
        for step, positions in enumerate(frames, 1):
            lines.append(f"timestep{step:10d}{len(positions):10d}{keytrj:10d}{1:10d}{0.001:12.6f}")
            length = 10.0 + step * new_cells
            lines += ["".join(f"{v:20.10f}" for v in row) for row in length * np.eye(3)]
            for i, (x, y, z) in enumerate(positions, 1):
                lines.append(f"A{i:10d}{1.0:12.6f}{0.0:12.6f}")
                lines.append(f"{x:20.10f}{y:20.10f}{z:20.10f}")
                lines += [f"{0.1:20.10f}{0.2:20.10f}{0.3:20.10f}"] * keytrj
        return frames, lines

    @pytest.mark.parametrize("keytrj", [0, 2])
    @pytest.mark.parametrize("new_cells", [False, True])
    def test_cut_anywhere(self, keytrj, new_cells):
        """The file cut after every line: the frames it holds whole come out,
        and it is truncated unless the cut falls between two frames."""
        frames, lines = self.history(keytrj, new_cells)
        ends = list(accumulate(4 + (2 + keytrj) * len(positions) for positions in frames))
        assert ends[-1] == len(lines)
        for k in range(len(lines) + 1):
            complete = sum(end <= k for end in ends)
            text = "".join(line + "\n" for line in lines[:k])
            for start in (1, 3, 5):
                reader = HistoryReader(io.StringIO(text), start=start)
                got = list(reader)
                assert [frame.step for frame in got] == list(range(start, complete + 1)), (k, start)
                for frame in got:
                    assert frame.positions.shape == (self.COUNTS[frame.step - 1], 3)
                    np.testing.assert_array_equal(frame.positions, frames[frame.step - 1])
                assert reader.frames_read == complete, (k, start)
                assert reader.truncated == (k not in ends), (k, start)


def extend_by_blocks(frames, reader, start=1):
    """Extend ``frames`` by the frames of ``reader.blocks()``, checking that
    each block's frames share one positions array and that each block comes
    out before the reader reads the frame after it."""
    read = []  # the frame numbers _read_frame was called with
    read_frame = reader._read_frame
    reader._read_frame = lambda line, n, **kwargs: read.append(n) or read_frame(line, n, **kwargs)
    for block in reader.blocks():
        base = block[0].positions.base
        assert base is not None and all(frame.positions.base is base for frame in block)
        frames.extend(block)
        last = start - 1 + len(frames)  # the number of the block's last frame
        assert max(read) <= last and reader.frames_read == last


def reading(text, blocks=False, **kwargs):
    """What a reader of ``text`` yields and ends with: the steps, the
    positions' bytes, for each frame the first frame that shares its cell
    object, ``frames_read``, ``truncated`` and the error message, if any;
    with ``blocks``, the frames of its blocks, one after another."""
    reader = HistoryReader(io.StringIO(text), **kwargs)
    frames, error = [], None
    try:
        if blocks:
            extend_by_blocks(frames, reader, kwargs.get("start", 1))
        else:
            frames.extend(reader)
    except InputError as exc:
        error = str(exc)
    cells = [next(k for k, f in enumerate(frames) if f.cell is frame.cell) for frame in frames]
    return (
        [frame.step for frame in frames],
        [frame.positions.tobytes() for frame in frames],
        cells,
        reader.frames_read,
        reader.truncated,
        error,
    )


class TestBatchedReading:
    """Runs of frames that share a cell are converted at once, and the frames
    of a run after its first are read a block of lines at a time while they
    repeat its layout: everything a reader yields and ends with, and every
    warning it logs, equals what reading one frame per run gives, and so do
    the frames of its blocks, one run each.  Each case runs with the default
    cap, where 40 frames of 7 sites make runs of 1 and 39 frames, and with a
    28-site cap (1, then 4: frames 2-5, 6-9, ..., 34-37 and 38-40)."""

    N_SITES = 7
    N_FRAMES = 40

    @pytest.fixture(params=[trajectory_io.BLOCK_SITES, 28])
    def read(self, request, monkeypatch, caplog):
        def read(text, **kwargs):
            monkeypatch.setattr(trajectory_io, "BLOCK_SITES", request.param)
            caplog.clear()
            batched = reading(text, **kwargs), caplog.messages
            caplog.clear()
            assert (reading(text, blocks=True, **kwargs), caplog.messages) == batched
            monkeypatch.setattr(trajectory_io, "BLOCK_SITES", 1)
            caplog.clear()
            assert batched == (reading(text, **kwargs), caplog.messages)
            return batched[0]

        return read

    def lines(self, keytrj=0, **kwargs):
        frames = site_frames(self.N_FRAMES, self.N_SITES)
        return frames, sites_history(frames, keytrj=keytrj, **kwargs).splitlines()

    def timestep(self, frame, keytrj=0):
        """The index of the timestep record of 1-based ``frame`` in the lines
        of a headered file."""
        return 2 + (frame - 1) * (4 + (2 + keytrj) * self.N_SITES)

    def line(self, frame, site, keytrj=0):
        """The index of the coordinate line of 0-based ``site``."""
        return self.timestep(frame, keytrj) + 4 + (2 + keytrj) * site + 1

    def wrong_site_count(self, lines, frame):
        k = self.timestep(frame)
        lines[k] = lines[k].replace(f"{self.N_SITES:10d}", f"{99:10d}", 1)

    def new_cell(self, lines, frame):
        """Give ``frame`` a cubic cell of 12 A instead of 10 A."""
        for row in (1, 2, 3):
            k = self.line(frame, 0) - 5 + row
            lines[k] = lines[k].replace("10.0", "12.0")

    @staticmethod
    def text(lines):
        return "\n".join(lines) + "\n"

    def test_runs_share_one_array(self, monkeypatch):
        """The premise of the other cases: frames 2 to 40 are one run, whose
        positions are views into one array; with a cap of one site they are
        not."""
        frames, lines = self.lines()
        got = list(HistoryReader(io.StringIO(self.text(lines))))
        bases = [frame.positions.base for frame in got]
        assert all(base is bases[1] for base in bases[2:])
        assert bases[1].shape == ((self.N_FRAMES - 1) * self.N_SITES, 3)
        assert bases[0] is not bases[1]
        assert_frames(got, frames)
        monkeypatch.setattr(trajectory_io, "BLOCK_SITES", 1)
        got = list(HistoryReader(io.StringIO(self.text(lines))))
        assert got[1].positions.base is not got[2].positions.base

    @pytest.mark.parametrize("n_sites, longest_run", [(1000, 4), (3000, 1)])
    def test_lines_are_let_go_before_frames_come_out(self, n_sites, longest_run):
        """Runs of 1, 2 and 4 frames of 1000 sites, and of one frame of 3000:
        while a frame is out, the reader holds its run's positions (24 bytes
        a site) but none of the run's coordinate lines (over 100 bytes a
        site)."""
        lines = sites_history(site_frames(8, n_sites)).splitlines(keepends=True)
        assert sys.getsizeof(lines[7]) > 100  # a coordinate line
        tracemalloc.start()
        try:
            reader = HistoryReader(io.StringIO("".join(lines)))
            held = []
            base = tracemalloc.get_traced_memory()[0]
            for _ in reader:
                held.append(tracemalloc.get_traced_memory()[0] - base)
        finally:
            tracemalloc.stop()
        assert len(held) == 8
        assert max(held) < 2 * 24 * n_sites * longest_run

    def test_first_frame_is_yielded_before_the_second_is_read(self):
        _, lines = self.lines()
        k = self.timestep(2)  # frame 2's timestep record
        lines[k] = lines[k].replace(f"{self.N_SITES:10d}", f"{self.N_SITES + 1:10d}", 1)
        frames = iter(HistoryReader(io.StringIO(self.text(lines)), expected_natoms=self.N_SITES))
        assert next(frames).step == 1
        with pytest.raises(InputError, match="step 2 has 8 sites"):
            next(frames)

    @pytest.mark.parametrize("keytrj", [0, 1, 2])
    @pytest.mark.parametrize("start", [1, 6])
    def test_keytrj_and_blank_lines(self, read, keytrj, start):
        frames, lines = self.lines(keytrj, header=False)
        for k in range(len(lines), 0, -5):
            lines.insert(k, " " * (k % 3))
        steps, positions, cells, frames_read, truncated, error = read(self.text(lines), start=start)
        assert steps == list(range(start, self.N_FRAMES + 1))
        assert positions == [f.tobytes() for f in frames[start - 1 :]]
        assert cells == [0] * len(steps)
        assert (frames_read, truncated, error) == (self.N_FRAMES, False, None)

    def test_cell_changes_inside_runs(self, read):
        """Frame 5 and frames 10-11, inside runs with either cap, get a 12 A
        cell; frame 12 goes back to the 10 A one."""
        _, lines = self.lines()
        for frame in (5, 10, 11):
            self.new_cell(lines, frame)
        _, _, cells, frames_read, _, error = read(self.text(lines))
        assert cells == [0] * 4 + [4] + [5] * 4 + [9] * 2 + [11] * 29
        assert (frames_read, error) == (self.N_FRAMES, None)

    @pytest.mark.parametrize("start", [1, 5])
    def test_cut_inside_a_run(self, read, start):
        """The file cut at each line of frame 12, inside a run with either cap."""
        _, lines = self.lines(keytrj=1)
        first = self.timestep(12, keytrj=1)
        for k in range(first, self.timestep(13, keytrj=1)):
            steps, _, _, frames_read, truncated, error = read(self.text(lines[:k]), start=start)
            assert steps == list(range(start, 12)), k
            assert (frames_read, truncated, error) == (11, k > first, None), k

    @pytest.mark.parametrize("frame", [8, 9, 10, 15])
    @pytest.mark.parametrize(
        "bad, message",
        [("0.5 x 0.5", "a coordinate line does not start"), ("0.5 nan 0.5", "non-finite")],
    )
    def test_bad_coordinate_inside_a_run(self, read, frame, bad, message):
        """In a middle frame of the run of frames 2-40, and with the 28-site
        cap in a middle frame (8 and 15), the last (9) and the first (10) of
        a run: the frames before it come out, and the error names its step."""
        _, lines = self.lines()
        lines[self.line(frame, 3)] = bad
        steps, _, _, frames_read, truncated, error = read(self.text(lines))
        assert steps == list(range(1, frame))
        assert (frames_read, truncated) == (frame - 1, False)
        assert error.startswith(f"HISTORY: frame at step {frame}") and message in error

    @pytest.mark.parametrize("follows", ["nothing", "cut", "new cell", "site count"])
    def test_bad_coordinate_line_is_a_cut_only_when_nothing_follows(self, read, follows):
        """A bad line in frame 36 (inside a run with either cap) is a cut when
        the file ends there.  It is an error when a part of frame 37 follows,
        or frame 37 whole with a new cell, or only frame 37's timestep record
        with a wrong site count; each ends the file."""
        _, lines = self.lines()
        lines[self.line(36, 2)] = "0.5 x 0.5"
        timestep = self.timestep(37)
        del lines[self.timestep(38) :]
        if follows == "nothing":
            del lines[timestep:]
        elif follows == "cut":
            del lines[timestep + 3 :]
        elif follows == "new cell":
            self.new_cell(lines, 37)
        else:
            self.wrong_site_count(lines, 37)
            del lines[timestep + 1 :]
        steps, _, _, frames_read, truncated, error = read(
            self.text(lines), expected_natoms=self.N_SITES
        )
        assert (steps[-1], frames_read, truncated) == (35, 35, follows == "nothing")
        if follows == "nothing":
            assert error is None
        else:
            assert error.startswith("HISTORY: frame at step 36: a coordinate line")

    @pytest.mark.parametrize("later", ["bad line", "non-finite", "site count", "imcon", "cut"])
    def test_an_earlier_frame_error_wins(self, read, later):
        """A non-finite coordinate in frame 9 and a fault in frame 12, of the
        same run with the default cap: frame 9's error is the one raised."""
        _, lines = self.lines()
        lines[self.line(9, 6)] = "inf 0.5 0.5"
        timestep = self.timestep(12)
        if later == "bad line":
            lines[self.line(12, 1)] = "0.5 0.5"
        elif later == "non-finite":
            lines[self.line(12, 1)] = "0.5 0.5 nan"
        elif later == "site count":
            self.wrong_site_count(lines, 12)
        elif later == "imcon":
            lines[timestep] = lines[timestep][:-22] + f"{4:10d}" + lines[timestep][-12:]
        else:
            del lines[timestep + 6 :]
        steps, _, _, frames_read, truncated, error = read(
            self.text(lines), expected_natoms=self.N_SITES
        )
        assert (steps[-1], frames_read, truncated) == (8, 8, False)
        assert error == "HISTORY: frame at step 9 has a non-finite coordinate at site 7"

    @pytest.mark.parametrize("after", ["bad line", "site count", "cut", "nothing"])
    def test_stop_inside_a_run(self, read, after):
        """Stop at frame 10, inside a run with either cap: frame 11 is not
        read, so a fault in it or a cut there changes nothing."""
        _, lines = self.lines()
        timestep = self.timestep(11)
        if after == "bad line":
            lines[self.line(11, 0)] = "x"
        elif after == "site count":
            self.wrong_site_count(lines, 11)
        elif after == "cut":
            del lines[timestep + 2 :]
        elif after == "nothing":
            del lines[timestep:]
        steps, _, _, frames_read, truncated, error = read(
            self.text(lines), expected_natoms=self.N_SITES, start=3, stop=10
        )
        assert steps == list(range(3, 11))
        assert (frames_read, truncated, error) == (10, False, None)

    def test_frames_after_the_first_of_a_run_are_read_in_bulk(self, monkeypatch):
        """_read_frame reads the first frame of each of the two runs, 1 and
        2-40, and with start 6 the five frames walked before it and the
        first of the runs 6 and 7-40; DL_POLY 4's trailing time token, which
        changes every frame, does not break the layout."""
        _, lines = self.lines()
        for frame in range(1, self.N_FRAMES + 1):
            lines[self.timestep(frame)] += f"{0.001 * frame:12.6f}"
        calls = []
        read_frame = HistoryReader._read_frame
        monkeypatch.setattr(
            HistoryReader,
            "_read_frame",
            lambda self, line, n, **kwargs: calls.append(n) or read_frame(self, line, n, **kwargs),
        )
        for start, firsts in [(1, [1, 2]), (6, [1, 2, 3, 4, 5, 6, 7])]:
            calls.clear()
            reader, got = read_all(self.text(lines), start)
            assert calls == firsts
            assert [frame.step for frame in got] == list(range(start, self.N_FRAMES + 1))
            assert reader.frames_read == self.N_FRAMES

    def test_a_run_that_fills_its_size_is_followed_by_a_full_run(self):
        """1000 frames of 16 sites in one cell: a run of one frame, then runs
        of the 4096-site cap, 256 frames, and the 231 left."""
        frames = site_frames(1000, 16)
        reader = HistoryReader(io.StringIO(sites_history(frames)))
        blocks = list(reader.blocks())
        assert [len(block) for block in blocks] == [1, 256, 256, 256, 231]
        assert_frames([frame for block in blocks for frame in block], frames)

    @pytest.mark.parametrize("stop, last", [(1000, 231), (999, 230)])
    def test_full_runs_up_to_stop_without_a_site_count(self, stop, last):
        """The same frames read up to a stop, with no site count given: a
        read in bulk may only count on 4 lines a frame to stay inside frame
        stop, yet the runs are those above, up to stop, and nothing after
        frame stop is read."""
        frames = site_frames(1000, 16)
        text = sites_history(frames)
        stream = io.StringIO(text)
        blocks = list(HistoryReader(stream, stop=stop).blocks())
        assert [len(block) for block in blocks] == [1, 256, 256, 256, last]
        assert_frames([frame for block in blocks for frame in block], frames[:stop])
        assert stream.read() == (text[text.rindex("timestep") :] if stop < 1000 else "")

    @pytest.mark.parametrize("stop", [0, -1, -sys.maxsize])
    def test_a_stop_below_one_reads_no_frame(self, stop):
        reader = HistoryReader(io.StringIO(self.text(self.lines()[1])), stop=stop)
        assert list(reader) == []
        assert (reader.frames_read, reader.truncated) == (0, False)

    def test_a_run_cut_short_backs_off(self, monkeypatch):
        """keytrj alternates between 0 and 1 every frame, so every read in
        bulk comes up short: after the first, each asks for at most one
        frame."""
        frames, plain = self.lines()
        _, with_velocities = self.lines(keytrj=1)
        lines = plain[:2]
        for frame in range(1, self.N_FRAMES + 1):
            keytrj = frame % 2
            source = with_velocities if keytrj else plain
            lines += source[self.timestep(frame, keytrj) : self.timestep(frame + 1, keytrj)]
        asked = []
        read_repeats = HistoryReader._read_repeats

        def counted(self, line, n, run, m):
            got = read_repeats(self, line, n, run, m)
            asked.append((m, got))
            return got

        monkeypatch.setattr(HistoryReader, "_read_repeats", counted)
        reader, got = read_all(self.text(lines))
        assert_frames(got, frames)
        # Frame 2 follows a run of one that filled its size: a full run.
        assert asked[0] == (trajectory_io.BLOCK_SITES // self.N_SITES - 1, 0)
        assert asked[1:] and all(m == 1 and k == 0 for m, k in asked[1:])

    @pytest.mark.parametrize("frame", [9, 12, 15, 40])
    @pytest.mark.parametrize(
        "change", ["site count", "keytrj", "imcon", "step", "TIMESTEP", "time", "spacing"]
    )
    def test_a_frame_that_breaks_the_layout(self, read, frame, change):
        """A frame of a run read in bulk (frames 3-40 follow frame 2, and with
        the 28-site cap each frame here follows the first of its run) that
        differs from the frame before it: it is read on
        its own, as one frame at a time reads it.  A site count or step that
        is wrong is an error that names the frame; another keytrj, from that
        frame on, and an upper-case keyword or a trailing time token change
        nothing; another imcon, or cell rows spaced otherwise, build a new
        cell, and the frame after it another."""
        frames, lines = self.lines()
        k = self.timestep(frame)
        if change == "site count":
            self.wrong_site_count(lines, frame)
        elif change == "keytrj":
            _, with_velocities = self.lines(keytrj=1)
            lines[k:] = with_velocities[self.timestep(frame, keytrj=1) :]
        elif change == "imcon":
            lines[k] = lines[k][:-22] + f"{2:10d}" + lines[k][-12:]
        elif change == "step":
            lines[k] = lines[k].replace(f"{frame:10d}", f"{frame:8d}.0", 1)
        elif change == "TIMESTEP":
            lines[k] = lines[k].upper()
        elif change == "time":
            lines[k] += f"{0.001 * frame:12.6f}"
        else:
            lines[k + 1 : k + 4] = [" ".join(row.split()) for row in lines[k + 1 : k + 4]]
        steps, positions, cells, frames_read, truncated, error = read(
            self.text(lines), expected_natoms=self.N_SITES
        )
        if change == "site count":
            assert error == f"HISTORY: frame at step {frame} has 99 sites, FIELD topology expects 7"
        elif change == "step":
            assert error.startswith(f"HISTORY: frame {frame}: timestep record needs integer step")
        else:
            assert error is None
            assert positions == [f.tobytes() for f in frames]
            assert (frames_read, truncated) == (self.N_FRAMES, False)
            if change in ("imcon", "spacing"):
                assert cells == [0] * (frame - 1) + [frame - 1] + [frame] * (self.N_FRAMES - frame)
            else:
                assert cells == [0] * self.N_FRAMES
            return
        assert steps == list(range(1, frame))
        assert (frames_read, truncated) == (frame - 1, False)

    @pytest.mark.parametrize("first", [20, 16, 33])
    @pytest.mark.parametrize("start", [1, 30])
    def test_a_step_out_of_order_warns_once(self, read, caplog, first, start):
        """Frames ``first``..``first`` + 4 go back five steps, as after a
        restart from an earlier dump, and frame 38 repeats frame 37's step.
        Every frame is read and counted, and one warning names the first
        frame to come out whose step is not above that of the frame that came
        out before it; frames walked before ``start`` are not counted, so
        their steps are not compared."""
        frames, lines = self.lines()
        for frame in range(first, first + 5):
            k = self.timestep(frame)
            lines[k] = lines[k].replace(f"{frame:10d}", f"{frame - 5:10d}", 1)
        k = self.timestep(38)
        lines[k] = lines[k].replace(f"{38:10d}", f"{37:10d}", 1)
        steps, positions, _, frames_read, truncated, error = read(self.text(lines), start=start)
        expected = [s - 5 * (first <= s < first + 5) for s in range(1, self.N_FRAMES + 1)]
        expected[37] = 37
        assert steps == expected[start - 1 :]
        assert positions == [f.tobytes() for f in frames[start - 1 :]]
        assert (frames_read, truncated, error) == (self.N_FRAMES, False, None)
        frame, step, before = (first, first - 5, first - 1) if first >= start else (38, 37, 37)
        assert caplog.messages == [
            f"HISTORY: frame {frame} has step {step}, not above the step {before} "
            "before it; frames that repeat are counted again"
        ]

    def test_a_step_out_of_order_in_a_frame_that_does_not_come_out(self, read, caplog):
        """Frame 12 goes back to step 1, and frame 10, in the same run with
        either cap, holds a non-finite coordinate: the error ends the read
        before frame 12 comes out, so nothing warns, as when reading one frame
        at a time."""
        _, lines = self.lines()
        k = self.timestep(12)
        lines[k] = lines[k].replace(f"{12:10d}", f"{1:10d}", 1)
        lines[self.line(10, 3)] = "0.5 nan 0.5"
        steps, _, _, frames_read, _, error = read(self.text(lines))
        assert (steps[-1], frames_read) == (9, 9)
        assert error == "HISTORY: frame at step 10 has a non-finite coordinate at site 4"
        assert caplog.messages == []

    def test_steps_in_order_do_not_warn(self, read, caplog):
        """Steps that only rise, however unevenly, as DL_POLY writes them
        every nstraj steps."""
        _, lines = self.lines()
        for frame in range(self.N_FRAMES, 0, -1):
            k = self.timestep(frame)
            lines[k] = lines[k].replace(f"{frame:10d}", f"{1000 * frame + frame % 3:10d}", 1)
        assert read(self.text(lines))[-1] is None
        assert caplog.messages == []

    def test_nothing_after_stop_is_read(self):
        _, lines = self.lines()
        stream = io.StringIO(self.text(lines))
        assert len(list(HistoryReader(stream, stop=10))) == 10
        assert stream.readline() == lines[self.timestep(11)] + "\n"

    @pytest.mark.parametrize("natoms", [None, N_SITES])
    def test_nothing_after_stop_is_read_when_frames_get_shorter(self, natoms):
        """Frames 1-8 carry force and velocity lines and the frames after them
        do not, so frames 9 and on are shorter than those of the run of
        frames 2-8: the reads in bulk still stop at frame 10."""
        _, lines = self.lines()
        eleventh = lines[self.timestep(11)]
        _, with_forces = self.lines(keytrj=2)
        lines[: self.timestep(9)] = with_forces[: self.timestep(9, keytrj=2)]
        stream = io.StringIO(self.text(lines))
        assert len(list(HistoryReader(stream, expected_natoms=natoms, stop=10))) == 10
        assert stream.readline() == eleventh + "\n"

    @pytest.mark.parametrize("last", [True, False])
    def test_bad_coordinate_line_in_frame_stop(self, read, last):
        """A bad line in frame ``stop``: a cut when the file ends there, an
        error when more frames follow, as when reading one frame at a time."""
        _, lines = self.lines()
        lines[self.line(10, 4)] = "0.5 0.5"
        if last:
            del lines[self.timestep(11) :]
        steps, _, _, frames_read, truncated, error = read(self.text(lines), stop=10)
        assert (steps[-1], frames_read, truncated) == (9, 9, last)
        assert (error is None) == last


def coordinate_line(lines, step, site):
    """The index in ``lines``, of a keytrj-0 HISTORY, of the coordinates of
    the 1-based ``site`` in the frame at ``step``."""
    return next(k for k, line in enumerate(lines) if line.startswith(f"timestep{step:10d}")) + 3 + 2 * site


@st.composite
def selections(draw):
    """A valid HISTORY text, whole or cut between lines, the reader's
    keyword arguments, the site flags and the caps to read it with."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_frames = draw(st.integers(0, 40))
    lines, info = history(rng, n_frames, rng.choice(["never", "never", "sometimes", "every"], 4), ())
    if rng.random() < 0.5:
        lines[:0] = ["test trajectory", "".join(f"{t:10d}" for t in info)]
    if rng.random() < 0.3:
        del lines[rng.integers(len(lines) + 1) :]
    kwargs = {}
    for key in ("start", "stop", "expected_natoms"):
        if rng.random() < 0.5:
            kwargs[key] = info[2] if key == "expected_natoms" else int(rng.integers(-1, n_frames + 3))
    # Up to 10 flags, against frames of up to 9 sites: a site past the last flag is not converted.
    flags = (rng.random(rng.integers(11)) < rng.choice([0.0, 0.3, 0.7, 1.0])).tolist()
    block_sites = draw(st.sampled_from([trajectory_io.BLOCK_SITES, 28, 12]))
    text_lines = draw(st.sampled_from([2048, 37, 3]))
    return "".join(line + "\n" for line in lines), kwargs, flags, block_sites, text_lines


class TestSiteSelection:
    """A reader given ``sites`` converts the flagged site rows alone and
    counts the other lines off."""

    @staticmethod
    def sliced(text, kwargs, flags, block_sites):
        """What the reference's full read gives with each frame's rows
        sliced by ``flags``, and the lengths of the runs of those rows."""
        stream = io.StringIO(text)
        reader = ReferenceReader(stream, **kwargs)
        frames, error = [], None
        try:
            frames.extend(reader)
        except InputError as exc:
            error = str(exc)
        keep = np.zeros(10, bool)
        keep[: len(flags)] = flags
        # The runs of the converted rows; a frame of more than half the cap's
        # sites is a run of one, as when all its rows are converted.
        lengths = runs([(n, layout, cell, step, xyz if 2 * len(xyz) > block_sites else xyz[keep[: len(xyz)]])
                        for n, layout, cell, step, xyz in frames], kwargs.get("stop", sys.maxsize), block_sites)
        frames = [(step, xyz[keep[: len(xyz)]], cell) for _, _, cell, step, xyz in frames]
        return outcome(frames, reader, stream, error, reader.warnings), lengths

    @staticmethod
    def selected(text, kwargs, flags, blocks):
        stream = io.StringIO(text)
        reader = HistoryReader(stream, sites=iter(flags), **kwargs)
        frames, lengths, error = [], [], None
        with logged() as messages:
            try:
                for block in reader.blocks() if blocks else ([frame] for frame in reader):
                    lengths.append(len(block))
                    frames += [(frame.step, frame.positions, frame.cell) for frame in block]
            except InputError as exc:
                error = str(exc)
        return outcome(frames, reader, stream, error, messages), lengths

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(selections())
    def test_equals_the_full_read_sliced(self, case):
        """Steps, positions, shared cells, ``frames_read``, ``truncated``,
        errors, warnings and the unread rest of the stream are the full
        read's, with its rows sliced, through ``iter`` and ``blocks()``;
        the blocks are the runs of the converted sites, whose pieces and
        bulk blocks split the selection under small caps, and a frame of
        more than half ``BLOCK_SITES`` sites is a run of one."""
        text, kwargs, flags, block_sites, text_lines = case
        expected, lengths = self.sliced(text, kwargs, flags, block_sites)
        with caps(block_sites, text_lines):
            assert self.selected(text, kwargs, flags, blocks=False)[0] == expected
            got, blocks = self.selected(text, kwargs, flags, blocks=True)
        assert got == expected
        assert blocks == lengths

    @pytest.mark.parametrize("text_lines", [2048, 2])
    @pytest.mark.parametrize("bad", ["nan 0.0 0.0", "0.5 x 0.5"])
    def test_a_fault_in_a_site_not_converted_is_not_seen(self, monkeypatch, text_lines, bad):
        monkeypatch.setattr(trajectory_io, "_TEXT_LINES", text_lines)
        frames = site_frames(4, 5)
        lines = sites_history(frames).splitlines()
        lines[coordinate_line(lines, 2, 3)] = bad
        flags = [True, True, False, True]
        got = list(HistoryReader(io.StringIO("\n".join(lines) + "\n"), sites=flags))
        assert_frames(got, frames[:, [0, 1, 3]])

    @pytest.mark.parametrize("text_lines", [2048, 2])
    def test_a_non_finite_coordinate_names_its_site_in_the_frame(self, monkeypatch, text_lines):
        monkeypatch.setattr(trajectory_io, "_TEXT_LINES", text_lines)
        lines = sites_history(site_frames(4, 5)).splitlines()
        lines[coordinate_line(lines, 2, 4)] = "0.5 0.5 inf"
        reader = HistoryReader(io.StringIO("\n".join(lines) + "\n"), sites=[True, False, False, True])
        with pytest.raises(InputError, match="frame at step 2 has a non-finite coordinate at site 4$"):
            list(reader)

    def test_a_cut_inside_the_last_line_of_a_site_not_converted(self):
        """With keytrj 0 the last line of a frame is its last site's
        coordinates: cut inside them, the frame is whole if that site is not
        converted."""
        frames = site_frames(3, 4)
        text = sites_history(frames).rstrip("\n")[:-25]  # z and the end of y
        full = HistoryReader(io.StringIO(text))
        assert len(list(full)) == 2 and full.truncated
        reader = HistoryReader(io.StringIO(text), sites=[True, True, True, False])
        assert_frames(list(reader), frames[:, :3])
        assert not reader.truncated


class TestTextHeld:
    """HISTORY text is converted as it is read: a frame's coordinate lines
    ``_TEXT_LINES`` (2048) at a time, and the frames after the first of a
    run in blocks of the whole frames that fit in 2048 lines.  So reading
    holds the positions it has converted and about 2048 lines of text (over
    100 B each), never all the lines of a large frame or of a run."""

    N_SITES = 20_000  # ten pieces, the last of 1568 sites

    @pytest.fixture(scope="class")
    def large(self):
        """Three keytrj-2 frames of N_SITES sites, as lines of a headered file."""
        return sites_history(site_frames(3, self.N_SITES), keytrj=2).splitlines()

    @staticmethod
    def held(text):
        """The most memory that reading ``text``, one frame after another,
        holds at once beyond what it held before the first frame."""
        tracemalloc.start()
        try:
            reader = HistoryReader(io.StringIO(text))
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in reader:
                pass
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_a_large_frame(self, large):
        """A frame of 20 000 sites: its positions, 24 B a site, twice while
        its pieces are joined, and about 2048 lines; not its 20 000
        coordinate lines, about 2.2 MB."""
        frame = large[: 2 + 4 + 4 * self.N_SITES]
        assert self.held("\n".join(frame) + "\n") < 2 * 24 * self.N_SITES + 160 * 2048

    def test_many_small_frames(self):
        """1000 frames of 16 sites, read as runs of up to 256 frames: a run's
        positions, twice while its pieces are joined, its frames, and about
        2048 lines; not a run's 9 180 lines, about 0.9 MB."""
        run = trajectory_io.BLOCK_SITES
        assert self.held(sites_history(site_frames(1000, 16))) < 2 * 24 * run + 160 * 2048

    @pytest.mark.parametrize("site", [2049, 3000, 4096, N_SITES])
    @pytest.mark.parametrize("bad", ["0.5 x 0.5", "0.5 nan 0.5"])
    @pytest.mark.parametrize("follows", [True, False])
    def test_a_bad_line_in_a_later_piece(self, large, site, bad, follows):
        """A bad line or a NaN in frame 2, in the second piece (sites 2049 to
        4096) or on the last line of the last piece, with frame 3 after it or
        not: a bad line is a cut only when nothing follows, and a NaN is an
        error that names its site in the whole frame."""
        lines = large[: 2 + (2 + follows) * (4 + 4 * self.N_SITES)]
        lines[2 + 4 + 4 * self.N_SITES + 4 + 4 * (site - 1) + 1] = bad
        reader = HistoryReader(io.StringIO("\n".join(lines) + "\n"))
        frames, error = [], None
        try:
            frames.extend(reader)
        except InputError as exc:
            error = str(exc)
        assert [frame.step for frame in frames] == [1]
        if "nan" in bad:
            assert error == f"HISTORY: frame at step 2 has a non-finite coordinate at site {site}"
        elif follows:
            assert error == "HISTORY: frame at step 2: a coordinate line does not start with three numbers"
        else:
            assert (error, reader.truncated) == (None, True)
        assert reader.frames_read == 1


def test_plain_and_padded_layouts_agree_bit_for_bit():
    """A chains-like frame (triclinic cell, keytrj 2) read as written and
    with one extra token on every coordinate line."""
    rng = np.random.default_rng(7)
    n_sites = 356
    frames = rng.uniform(-20.0, 20.0, (2, n_sites, 3))
    cell = np.array([[37.9, 0.0, 0.0], [8.34, 36.4, 0.0], [-4.55, 6.45, 35.27]])
    plain = sites_history(frames, keytrj=2, imcon=3, cell=cell)
    padded = sites_history(frames, keytrj=2, imcon=3, cell=cell, coord_suffix=" 0.0")

    _, as_written = read_all(plain)
    _, with_padding = read_all(padded)

    written = [[[float(f"{v:20.10f}") for v in site] for site in frame] for frame in frames]
    assert_frames(as_written, np.array(written))
    np.testing.assert_array_equal(as_written[0].cell.matrix, cell)
    for a, b in zip(as_written, with_padding):
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.cell.matrix.tobytes() == b.cell.matrix.tobytes()


class TestWriters:
    def make_table(self):
        return RdfTable(
            pair_labels=((1, 1), (2, 2), (1, 2)),
            bin_centers=np.array([0.0, 0.1, 0.2]),
            g=np.array([[0.0, 1.0, 2.0], [0.5, 1.5, 2.5], [0.25, 1.25, 2.25]]),
            pop=np.array([[0.0, 0.1, 0.2], [0.0, 0.2, 0.4], [0.0, 0.3, 0.6]]),
            mean_volume=1000.0,
        )

    def test_rdf_layout(self, tmp_path):
        out = tmp_path / "RDF"
        write_rdf(self.make_table(), out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[0].split() == ["#", "r", "g(1,1)", "g(2,2)", "g(1,2)"]
        first = lines[1].split()
        assert first == ["0.000000E+00", "0.000000E+00", "5.000000E-01", "2.500000E-01"]
        assert len(lines) == 4

    def test_pop_layout(self):
        buf = io.StringIO()
        write_pop(self.make_table(), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].split()[1:] == ["r", "pop(1,1)", "pop(2,2)", "pop(1,2)"]
        assert lines[-1].split()[0] == "2.000000E-01"

    def test_plain_path_is_not_opened_by_numpy(self, tmp_path, monkeypatch):
        """np.savetxt opens a path through numpy's _datasource, whose first
        use imports gzip, bz2 and lzma; a plain path is opened here."""

        def refuse(*args, **kwargs):
            raise AssertionError("opened through numpy's _datasource")

        monkeypatch.setattr(np.lib._datasource, "open", refuse)
        write_rdf(self.make_table(), tmp_path / "RDF")
        assert (tmp_path / "RDF").read_text().startswith("#")

    @pytest.mark.parametrize("suffix, module", [(".gz", gzip), (".bz2", bz2), (".xz", lzma)])
    def test_compressed_suffix_is_written_compressed(self, tmp_path, suffix, module):
        table = self.make_table()
        write_pop(table, tmp_path / "POP")
        write_pop(table, tmp_path / f"POP{suffix}")
        with module.open(tmp_path / f"POP{suffix}") as stream:
            assert stream.read() == (tmp_path / "POP").read_bytes()

    def test_same_bytes_as_savetxt(self, tmp_path):
        """A table written as one string has the bytes of np.savetxt's rows,
        to a path and to a stream: ten pairs of four types, with negative,
        tiny, subnormal, huge and non-finite values."""
        rng = np.random.default_rng(7)
        labels = [(a, a) for a in range(1, 5)]
        labels += [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
        nbins = 9
        g = rng.standard_normal((len(labels), nbins)) * 10.0 ** rng.integers(-300, 300, (10, nbins))
        g[0, :6] = [-0.0, 5e-324, -1.7976931348623157e308, 9.9999995e-7, np.inf, np.nan]
        table = RdfTable(tuple(labels), np.arange(nbins) * 0.05, g, -g[::-1], 1000.0)
        for write, prefix, values in [(write_rdf, "g", table.g), (write_pop, "pop", table.pop)]:
            expected = io.StringIO()
            header = "r".rjust(13) + "".join(f"{prefix}({a},{b})".rjust(14) for a, b in labels)
            np.savetxt(expected, np.column_stack([table.bin_centers, values.T]),
                       fmt="%14.6E", delimiter="", header=header, comments="#")
            assert expected.getvalue().count("\n") == nbins + 1
            stream = io.StringIO()
            write(table, stream)
            assert stream.getvalue() == expected.getvalue()
            write(table, tmp_path / prefix)
            assert (tmp_path / prefix).read_bytes() == expected.getvalue().encode()

    def test_values_round_trip_through_loadtxt(self, tmp_path):
        table = self.make_table()
        out = tmp_path / "RDF"
        write_rdf(table, out)
        data = np.loadtxt(out)
        np.testing.assert_allclose(data[:, 0], table.bin_centers, atol=1e-6)
        np.testing.assert_allclose(data[:, 1:], table.g.T, atol=1e-6)
