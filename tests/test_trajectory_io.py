import io
import logging
import math
import re
import sys
import warnings

import numpy as np
import pytest

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

    def test_massive_types_and_their_site_rows(self):
        """A massless type in the middle is left out, and the types after it
        keep their FIELD index and their place in the frame."""
        text = (
            "t\nmolecules 3\n"
            "W\nnummols 4\natoms 3\nO 16.0 0.0\nH 1.0 0.0 2\nfinish\n"
            "P\nnummols 2\natoms 2\nX 0.0 0.0 2\nfinish\n"
            "C\nnummols 5\natoms 1\nC 12.0 0.0\nfinish\n"
        )
        topo = parse_field(text)
        assert topo.massive == ((0, slice(0, 12)), (2, slice(16, 21)))
        assert topo.molecules[1].site_masses == (0.0, 0.0)
        assert topo.total_sites == 21

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

    def test_values_round_trip_through_loadtxt(self, tmp_path):
        table = self.make_table()
        out = tmp_path / "RDF"
        write_rdf(table, out)
        data = np.loadtxt(out)
        np.testing.assert_allclose(data[:, 0], table.bin_centers, atol=1e-6)
        np.testing.assert_allclose(data[:, 1:], table.g.T, atol=1e-6)
