import gc
import itertools
import logging
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import molrdf
from molrdf import cli
from molrdf.cli import main, run_analysis
from molrdf.errors import InputError, NoFramesError
from molrdf.rdf_engine import merge
from molrdf.synthetic import SyntheticConfig, generate_dataset
from molrdf.trajectory_io import HistoryReader, parse_directives, parse_field


@pytest.fixture()
def dataset_dir(tmp_path):
    generate_dataset(SyntheticConfig(n_frames=40), tmp_path)
    return tmp_path


def run_cli(*args, **kwargs):
    """``python -m molrdf.cli`` in a fresh process, on this checkout's package."""
    src = str(Path(molrdf.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "molrdf.cli", *args],
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
        **kwargs,
    )


class TestRunAnalysis:
    def test_writes_both_outputs(self, dataset_dir):
        summary = run_analysis(dataset_dir)
        assert summary.frames_read == 40
        assert summary.frames_used == 40
        assert summary.n_types == 2
        assert summary.mean_volume == pytest.approx(27000.0)
        assert not summary.truncated
        assert summary.rdf_path.is_file() and summary.pop_path.is_file()

    def test_missing_input_names_the_file(self, dataset_dir):
        (dataset_dir / "FIELD").unlink()
        with pytest.raises(InputError, match="FIELD"):
            run_analysis(dataset_dir)

    def test_start_beyond_trajectory(self, dataset_dir):
        control = dataset_dir / "CONTROL"
        control.write_text(
            control.read_text().replace("polyana\n", "polyana\n  start 100\n", 1)
        )
        with pytest.raises(NoFramesError, match="no usable frames"):
            run_analysis(dataset_dir)

    def test_start_stop_window(self, dataset_dir):
        control = dataset_dir / "CONTROL"
        control.write_text(
            control.read_text().replace(
                "polyana\n", "polyana\n  start 11\n  stop 30\n", 1
            )
        )
        summary = run_analysis(dataset_dir)
        assert summary.frames_used == 20
        assert summary.frames_read == 30

    def test_cut_after_stop_is_not_read(self, dataset_dir, caplog):
        control = dataset_dir / "CONTROL"
        control.write_text(
            control.read_text().replace("polyana\n", "polyana\n  stop 30\n", 1)
        )
        history = dataset_dir / "HISTORY"
        lines = history.read_text().splitlines()
        frame_31 = [i for i, line in enumerate(lines) if line.startswith("timestep")][30]
        history.write_text("\n".join(lines[: frame_31 + 3]) + "\n")  # cut in the cell
        with HistoryReader(history) as reader:
            assert sum(1 for _ in reader) == 30
            assert reader.truncated
        with caplog.at_level(logging.WARNING, logger="molrdf.cli"):
            summary = run_analysis(dataset_dir)
        assert summary.frames_read == 30
        assert summary.frames_used == 30
        assert not summary.truncated
        assert "abnormally terminated" not in caplog.text

    def test_truncated_trajectory_warns_and_completes(self, dataset_dir, caplog):
        history = dataset_dir / "HISTORY"
        lines = history.read_text().splitlines()
        history.write_text("\n".join(lines[:-7]) + "\n")
        with caplog.at_level(logging.WARNING, logger="molrdf.cli"):
            summary = run_analysis(dataset_dir)
        assert summary.frames_read == 39
        assert summary.truncated
        assert "abnormally terminated" in caplog.text
        assert summary.rdf_path.is_file()

    def test_rerun_is_byte_identical(self, dataset_dir):
        run_analysis(dataset_dir)
        first = (dataset_dir / "RDF").read_bytes(), (dataset_dir / "POP").read_bytes()
        run_analysis(dataset_dir)
        assert ((dataset_dir / "RDF").read_bytes(), (dataset_dir / "POP").read_bytes()) == first

    def test_filename_overrides(self, dataset_dir):
        (dataset_dir / "HISTORY").rename(dataset_dir / "TRAJ")
        summary = run_analysis(dataset_dir, history="TRAJ", rdf_out="out.rdf")
        assert summary.rdf_path.name == "out.rdf"
        assert summary.rdf_path.is_file()


class TestAccumulateHistory:
    def test_split_trajectory_merges_to_the_whole_run(self, dataset_dir):
        """Frames 1-20 and 21-40 of one HISTORY, analysed apart, merge to
        the histogram of all 40; the second half walks frames 1-20 first.
        volume_sum is summed in another order, so it agrees to rounding."""
        directives = parse_directives((dataset_dir / "CONTROL").read_text())
        topology = parse_field((dataset_dir / "FIELD").read_text())
        history = dataset_dir / "HISTORY"
        whole, frames_read, truncated = cli.accumulate_history(history, topology, directives)
        assert (frames_read, truncated) == (40, False)
        halves = [
            cli.accumulate_history(history, topology, replace(directives, start=a, stop=b))
            for a, b in ((1, 20), (21, 40))
        ]
        assert [half[1:] for half in halves] == [(20, False), (40, False)]
        merged = merge(halves[0][0], halves[1][0])
        assert (merged.counts == whole.counts).all() and whole.counts.sum() > 0
        assert merged.frames_used == whole.frames_used == 40
        assert merged.volume_sum == pytest.approx(whole.volume_sum, rel=1e-12)


class TestMain:
    def test_zero_arguments_analyzes_cwd(self, dataset_dir, monkeypatch, capsys):
        monkeypatch.chdir(dataset_dir)
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "frames read:      40" in out
        assert "molecule types:   2" in out
        assert (dataset_dir / "RDF").is_file()

    def test_dir_flag(self, dataset_dir):
        assert main(["--dir", str(dataset_dir)]) == 0
        assert (dataset_dir / "POP").is_file()

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["--dir", str(tmp_path)]) == 1
        assert "CONTROL" in capsys.readouterr().err

    def test_empty_selection_exit_code(self, dataset_dir, capsys):
        control = dataset_dir / "CONTROL"
        control.write_text(
            control.read_text().replace("polyana\n", "polyana\n  start 999\n", 1)
        )
        assert main(["--dir", str(dataset_dir)]) == 2
        assert "no usable frames" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [0, -1])
    def test_no_molecule_types_exit_code(self, dataset_dir, capsys, count):
        field = dataset_dir / "FIELD"
        field.write_text(field.read_text().replace("MOLECULES 2", f"MOLECULES {count}"))
        assert main(["--dir", str(dataset_dir)]) == 1
        err = capsys.readouterr().err
        assert "error: FIELD line" in err and "MOLECULES must be >= 1" in err
        assert "Traceback" not in err
        assert not (dataset_dir / "RDF").exists()

    @pytest.mark.parametrize("history", ["full", "empty"])
    def test_all_massless_field_exit_code(self, dataset_dir, capsys, history):
        """Every site mass zeroed: rejected before HISTORY is read, so an
        empty HISTORY gives the same error, not "no usable frames"."""
        field = dataset_dir / "FIELD"
        text, n = re.subn(r"^(\S+\s+)\d+\.\d+(\s+\S+)$", r"\g<1>0.0\2", field.read_text(), flags=re.M)
        assert n == 16
        field.write_text(text)
        if history == "empty":
            (dataset_dir / "HISTORY").write_text("")
        assert main(["--dir", str(dataset_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "massless" in err
        assert "Traceback" not in err
        assert not (dataset_dir / "RDF").exists()

    @pytest.mark.parametrize("value", ["99999999999999999999", "-" + "9" * 400])
    @pytest.mark.parametrize("keyword", ["start", "stop"])
    def test_huge_start_or_stop_exit_code(self, dataset_dir, capsys, keyword, value):
        """Beyond what islice and math.isfinite take, in either direction."""
        control = dataset_dir / "CONTROL"
        control.write_text(
            control.read_text().replace("polyana\n", f"polyana\n  {keyword} {value}\n", 1)
        )
        assert main(["--dir", str(dataset_dir)]) == 1
        err = capsys.readouterr().err
        assert f"error: CONTROL line 6: '{keyword}' out of range" in err
        assert "Traceback" not in err
        assert not (dataset_dir / "RDF").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("rmax 1e400", "CONTROL line 6: 'rmax' must be finite, got '1e400'"),
            ("rmax inf", "CONTROL line 6: 'rmax' must be finite, got 'inf'"),
            ("dr nan", "CONTROL line 7: 'dr' must be finite, got 'nan'"),
            ("rmax 1e12", "too large a histogram to allocate"),
        ],
        ids=["rmax-overflows", "rmax-inf", "dr-nan", "rmax-huge"],
    )
    def test_unusable_rmax_or_dr_exit_code(self, dataset_dir, capsys, line, message):
        control = dataset_dir / "CONTROL"
        keyword = line.split()[0]
        lines = control.read_text().splitlines()
        lines = [f"  {line}" if s.split()[:1] == [keyword] else s for s in lines]
        control.write_text("\n".join(lines) + "\n")
        assert main(["--dir", str(dataset_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not (dataset_dir / "RDF").exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("polyana\n", "polyana\n  start 0\n", "CONTROL line 6: start must be >= 1, got 0"),
            ("rmax 12.5", "rmax 0.1", "CONTROL line 6: rmax (0.1) must exceed dr (0.1)"),
        ],
        ids=["start-0", "rmax-not-above-dr"],
    )
    def test_directive_out_of_range_names_its_line(self, dataset_dir, capsys, old, new, message):
        control = dataset_dir / "CONTROL"
        control.write_text(control.read_text().replace(old, new, 1))
        assert main(["--dir", str(dataset_dir)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not (dataset_dir / "RDF").exists()

    def test_non_finite_coordinate_exit_code(self, dataset_dir, capsys):
        history = dataset_dir / "HISTORY"
        lines = history.read_text().splitlines()
        third_step = [k for k, s in enumerate(lines) if s.startswith("timestep")][2]
        site_1 = third_step + 1 + 3 + 1  # timestep, cell, name record
        lines[site_1] = "nan 0.0 0.0"
        history.write_text("\n".join(lines) + "\n")
        assert main(["--dir", str(dataset_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: HISTORY: frame at step 3 has a non-finite coordinate")
        assert "Traceback" not in err
        assert not (dataset_dir / "RDF").exists()

    def test_unsupported_imcon_exit_code(self, dataset_dir, capsys):
        history = dataset_dir / "HISTORY"
        lines = history.read_text().splitlines()
        second_step = [k for k, s in enumerate(lines) if s.startswith("timestep")][1]
        tokens = lines[second_step].split()
        tokens[4] = "4"
        lines[second_step] = " ".join(tokens)
        history.write_text("\n".join(lines) + "\n")
        assert main(["--dir", str(dataset_dir)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: HISTORY: frame at step 2: unsupported periodic-boundary code "
            "imcon=4 (supported: [1, 2, 3, 6])\n"
        )
        assert not (dataset_dir / "RDF").exists()

    @pytest.mark.parametrize("row", [1, 3])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_row_exit_code(self, dataset_dir, capsys, bad, row):
        edit_history(dataset_dir, 2, row, lambda s: f"{bad} {s.split(maxsplit=1)[1]}")
        assert main(["--dir", str(dataset_dir)]) == 1
        assert capsys.readouterr().err == (
            "error: HISTORY: frame at step 2: cell matrix contains non-finite entries\n"
        )
        assert not (dataset_dir / "RDF").exists() and not (dataset_dir / "POP").exists()

    def test_malformed_timestep_exit_code(self, dataset_dir, capsys):
        history = dataset_dir / "HISTORY"
        lines = history.read_text().splitlines()
        tenth_step = [k for k, s in enumerate(lines) if s.startswith("timestep")][9]
        tokens = lines[tenth_step].split()
        tokens[4] = "x"
        lines[tenth_step] = " ".join(tokens)
        history.write_text("\n".join(lines) + "\n")
        assert main(["--dir", str(dataset_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: HISTORY: frame 10: timestep record needs integer ")
        assert "Traceback" not in err
        assert not (dataset_dir / "RDF").exists()

    def test_misspelt_timestep_keyword_exit_code(self, tmp_path, capsys):
        """Frame 10 of 50 reads ``timestap``: the 40 frames after it must not
        be dropped as if the file had been cut there."""
        generate_dataset(SyntheticConfig(n_frames=50), tmp_path)
        history = tmp_path / "HISTORY"
        lines = history.read_text().splitlines()
        tenth_step = [k for k, s in enumerate(lines) if s.startswith("timestep")][9]
        lines[tenth_step] = lines[tenth_step].replace("timestep", "timestap")
        history.write_text("\n".join(lines) + "\n")
        assert main(["--dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: HISTORY: frame 10: expected a timestep record with step, site "
            f"count, keytrj and imcon: {lines[tenth_step].strip()!r}\n"
        )
        assert not (tmp_path / "RDF").exists() and not (tmp_path / "POP").exists()

    def test_corrupt_coordinate_line_exit_code(self, tmp_path, capsys):
        """One coordinate of frame 10 of 50 is no number: the 40 frames after
        it must not be dropped as if the file had been cut there."""
        generate_dataset(SyntheticConfig(n_frames=50), tmp_path)
        history = tmp_path / "HISTORY"
        lines = history.read_text().splitlines()
        tenth_step = [k for k, s in enumerate(lines) if s.startswith("timestep")][9]
        site_2 = tenth_step + 1 + 3 + 3  # timestep, cell, first site
        x, _, z = lines[site_2].split()
        lines[site_2] = f"{x} x {z}"
        history.write_text("\n".join(lines) + "\n")
        assert main(["--dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: HISTORY: frame at step 10: a coordinate line does not start "
            "with three numbers\n"
        )
        assert not (tmp_path / "RDF").exists() and not (tmp_path / "POP").exists()

    @staticmethod
    def write_without_cells(history, frames, malformed=None):
        """Rewrite the given 1-based frames of a HISTORY to imcon 0, dropping
        their three cell rows, and give frame ``malformed`` a non-integer
        step."""
        lines = history.read_text().splitlines()
        steps = [k for k, s in enumerate(lines) if s.startswith("timestep")]
        for frame in sorted(frames, reverse=True):
            k = steps[frame - 1]
            tokens = lines[k].split()
            tokens[4] = "0"
            if frame == malformed:
                tokens[1] = "x"
            lines[k] = " ".join(tokens)
            del lines[k + 1 : k + 4]
        history.write_text("\n".join(lines) + "\n")

    def test_frame_without_periodic_cell_exit_code(self, tmp_path, capsys):
        """Frame 3 of 5 without a cell would add a zero volume to the mean."""
        generate_dataset(SyntheticConfig(n_frames=5), tmp_path)
        self.write_without_cells(tmp_path / "HISTORY", [3])
        assert main(["--dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: HISTORY: frame at step 3: imcon=0 gives no periodic cell, "
            "and g(r) needs one\n"
        )
        assert not (tmp_path / "RDF").exists() and not (tmp_path / "POP").exists()

    def test_trajectory_without_periodic_cell_stops_at_frame_1(self, tmp_path, capsys):
        """Every frame without a cell, and frame 2's record malformed too:
        the error names step 1, so reading stopped there."""
        generate_dataset(SyntheticConfig(n_frames=5), tmp_path)
        self.write_without_cells(tmp_path / "HISTORY", range(1, 6), malformed=2)
        assert main(["--dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: HISTORY: frame at step 1: imcon=0 gives no periodic cell")
        assert "Traceback" not in err
        assert not (tmp_path / "RDF").exists() and not (tmp_path / "POP").exists()

    def test_generate_subcommand(self, tmp_path, capsys):
        assert main(["generate", "--dir", str(tmp_path), "--frames", "5"]) == 0
        out = capsys.readouterr().out
        assert "bin 51" in out
        for name in ("CONTROL", "FIELD", "HISTORY"):
            assert (tmp_path / name).is_file()

    def test_generate_then_analyze_round_trip(self, tmp_path):
        assert main(["generate", "--dir", str(tmp_path), "--frames", "30"]) == 0
        assert main(["--dir", str(tmp_path)]) == 0
        rdf = np.loadtxt(tmp_path / "RDF")
        assert np.count_nonzero(rdf[:, 1:]) == 1
        assert rdf[50, 3] > 0

    def test_generate_rejects_oversized_molecules(self, tmp_path, capsys):
        code = main(["generate", "--dir", str(tmp_path), "--distance", "12", "--radius", "4"])
        assert code == 1
        assert "half the cell" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--radius", "--distance", "--cell"])
    def test_generate_rejects_a_non_positive_length(self, tmp_path, capsys, flag):
        assert main(["generate", "--dir", str(tmp_path / "out"), flag, "0"]) == 1
        assert capsys.readouterr().err == (
            "error: radius, distance and cell_length must be positive\n"
        )
        assert not (tmp_path / "out").exists()

    def test_bad_flag_exits_nonzero(self, capsys):
        assert main(["--no-such-flag"]) == 1

    def test_workers_flag_is_rejected(self, dataset_dir, capsys):
        assert main(["--dir", str(dataset_dir), "--workers", "2"]) == 1
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not (dataset_dir / "RDF").exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "CONTROL" not in capsys.readouterr().err

    def test_rdf_out_is_a_directory_exit_code(self, dataset_dir, capsys):
        assert main(["--dir", str(dataset_dir), "--rdf-out", "."]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 21] Is a directory: {str(dataset_dir)!r}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_pop_out_on_a_full_device_exit_code(self, dataset_dir, capsys):
        assert main(["--dir", str(dataset_dir), "--pop-out", "/dev/full"]) == 1
        err = capsys.readouterr().err
        assert err == "error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_stdout_on_a_full_device_exit_code(self, dataset_dir):
        with open("/dev/full", "w") as full:
            result = run_cli("--dir", str(dataset_dir), stdout=full, stderr=subprocess.PIPE, text=True)
        assert result.returncode == 1
        assert result.stderr == "error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "command",
        [["--dir", "{dir}"], ["generate", "--dir", "{dir}/g"]],
        ids=["analyze", "generate"],
    )
    def test_stdout_that_keeps_unwritten_bytes(self, dataset_dir, command):
        # A stdout whose failed flush keeps its bytes, to flush them again
        # when the interpreter exits: that second failure would print
        # "Exception ignored" and exit 120 unless main's failed write left
        # descriptor 1 on devnull.
        script = (
            "import os, sys\n"
            "from molrdf import cli\n"
            "class Out:\n"
            "    closed = False\n"
            "    def __init__(self): self.pending = []\n"
            "    def write(self, text): self.pending.append(text); return len(text)\n"
            "    def flush(self):\n"
            "        if self.pending:\n"
            "            os.write(1, ''.join(self.pending).encode())\n"
            "            self.pending.clear()\n"
            "    def fileno(self): return 1\n"
            "sys.stdout = Out()\n"
            f"sys.exit(cli.main({[a.format(dir=dataset_dir) for a in command]!r}))\n"
        )
        src = str(Path(molrdf.__file__).resolve().parent.parent)
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src},
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
        assert result.stderr == "error: [Errno 28] No space left on device\n"
        assert result.returncode == 1

    def test_stdout_without_a_descriptor_is_left_alone(self, monkeypatch):
        class Out:
            def write(self, text):
                raise OSError(28, "No space left on device")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Out())
        with pytest.raises(OSError) as excinfo:
            cli._print_flushed("summary")
        assert excinfo.value.errno == 28


class TestFrozenHeap:
    """main freezes the heap it starts with; run_analysis leaves the
    collector alone."""

    def test_main_freezes_the_heap(self, dataset_dir):
        assert gc.get_freeze_count() == 0
        assert main(["--dir", str(dataset_dir)]) == 0
        assert gc.get_freeze_count() > 0

    def test_run_analysis_does_not(self, dataset_dir):
        before = gc.get_freeze_count()
        run_analysis(dataset_dir)
        assert gc.get_freeze_count() == before

    def test_process_output_matches_an_in_process_run(self, tmp_path, capsys):
        """Nothing the process prints or writes is lost at its exit."""
        generate_dataset(SyntheticConfig(n_frames=20), tmp_path)
        result = run_cli("--dir", str(tmp_path), capture_output=True, text=True)
        assert result.returncode == 0 and result.stderr == ""
        outputs = [(tmp_path / name).read_bytes() for name in ("RDF", "POP")]
        assert main(["--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 4
        assert result.stdout == out
        assert outputs == [(tmp_path / name).read_bytes() for name in ("RDF", "POP")]


def outcome(directory, capsys, caplog):
    """Exit code, stdout, stderr, log messages, and the RDF and POP bytes (or
    None) of one ``main`` run on ``directory``; the outputs are removed."""
    caplog.clear()
    code = main(["--dir", str(directory)])
    captured = capsys.readouterr()
    outputs = []
    for name in ("RDF", "POP"):
        path = directory / name
        outputs.append(path.read_bytes() if path.exists() else None)
        path.unlink(missing_ok=True)
    return code, captured.out, captured.err, caplog.messages, outputs


class ConvertEveryFrame(HistoryReader):
    """The frame selection of a reader that converts every frame and drops
    those before ``start`` with islice: the reference for walked frames."""

    def __init__(self, source, expected_natoms=None, start=1):
        super().__init__(source, expected_natoms)
        self._first = start - 1

    def __iter__(self):
        return itertools.islice(super().__iter__(), self._first, None)


class TestFramesBeforeStart:
    """Frames before ``start`` are walked, not converted: RDF, POP, the
    summary, errors and warnings equal those of converting every frame."""

    @pytest.mark.parametrize(
        "start, stop, cut, code",
        [
            (1, None, None, 0),
            (2, None, None, 0),
            (13, 30, None, 0),
            (40, None, None, 0),
            (41, None, None, 2),
            (10, None, (5, 2), 2),  # a cut in the cell rows of a walked frame
            (10, None, (5, 9), 2),  # and in its site records
            (5, None, (5, 9), 2),  # in the first converted frame
            (3, 20, (5, 9), 0),  # in a converted frame after walked ones
        ],
    )
    def test_same_outcome_as_converting_every_frame(
        self, dataset_dir, capsys, caplog, monkeypatch, start, stop, cut, code
    ):
        control = dataset_dir / "CONTROL"
        selection = f"  start {start}\n" + (f"  stop {stop}\n" if stop else "")
        control.write_text(control.read_text().replace("polyana\n", "polyana\n" + selection, 1))
        if cut is not None:
            frame, line = cut
            history = dataset_dir / "HISTORY"
            lines = history.read_text().splitlines()
            step = [k for k, s in enumerate(lines) if s.startswith("timestep")][frame - 1]
            history.write_text("\n".join(lines[: step + line]) + "\n")

        walked = outcome(dataset_dir, capsys, caplog)
        monkeypatch.setattr(cli, "HistoryReader", ConvertEveryFrame)
        assert outcome(dataset_dir, capsys, caplog) == walked
        assert walked[0] == code
        assert any("abnormally terminated" in m for m in walked[3]) == (cut is not None)

    def test_corrupt_coordinate_before_start_is_not_reported(self, dataset_dir, capsys, caplog):
        """The corrupt coordinate line of test_corrupt_coordinate_line_exit_code,
        in frame 10 with the analysis starting at frame 11."""
        control = dataset_dir / "CONTROL"
        control.write_text(control.read_text().replace("polyana\n", "polyana\n  start 11\n", 1))
        clean = outcome(dataset_dir, capsys, caplog)
        history = dataset_dir / "HISTORY"
        lines = history.read_text().splitlines()
        tenth_step = [k for k, s in enumerate(lines) if s.startswith("timestep")][9]
        site_2 = tenth_step + 1 + 3 + 3
        x, _, z = lines[site_2].split()
        lines[site_2] = f"{x} x {z}"
        history.write_text("\n".join(lines) + "\n")
        assert outcome(dataset_dir, capsys, caplog) == clean
        assert clean[0] == 0 and "frames used:      30" in clean[1]


def edit_history(directory, frame, line, edit):
    """Apply ``edit`` to one line of a HISTORY: ``line`` counts from 1 after
    the timestep record of the 1-based ``frame``."""
    history = directory / "HISTORY"
    lines = history.read_text().splitlines()
    k = [k for k, s in enumerate(lines) if s.startswith("timestep")][frame - 1] + line
    lines[k] = edit(lines[k])
    history.write_text("\n".join(lines) + "\n")


def new_cell(directory, frame, edge):
    """Give ``frame`` a cubic cell of ``edge`` instead of the 30 A one."""
    for row in (1, 2, 3):
        edit_history(directory, frame, row, lambda s: s.replace("30.0", f"{edge:.1f}"))


def overflow(directory, frame, value="1.0e308"):
    """Move the first site of ``frame`` to ``value`` on each axis."""
    edit_history(directory, frame, 5, lambda s: f"{value} {value} {value}")


class TestFrameBlocks:
    """Consecutive frames that share a cell are unfolded in blocks: RDF, POP,
    the summary, the exit code, errors and warnings equal those of a run
    that takes one frame at a time.  The 40 frames of 16 sites make one
    block by default, and blocks of 5 frames with an 80-site cap."""

    @pytest.mark.parametrize("block_sites", [cli._BLOCK_SITES, 80])
    @pytest.mark.parametrize(
        "case, code",
        [
            ("cell changes", 0),
            ("start and stop", 0),
            ("cut last frame", 0),
            ("range warning", 0),
            ("corrupt coordinate", 1),
            ("range warning, corrupt coordinate", 1),
            ("overflow", 1),
            ("far from the cell", 1),
        ],
    )
    def test_same_outcome_as_one_frame_at_a_time(
        self, dataset_dir, capsys, caplog, monkeypatch, block_sites, case, code
    ):
        if case == "cell changes":
            for frame in (7, 8, 9, 12):
                new_cell(dataset_dir, frame, 31.0 if frame < 12 else 32.0)
        control = dataset_dir / "CONTROL"
        if case == "start and stop":
            selection = "polyana\n  start 13\n  stop 31\n"
            control.write_text(control.read_text().replace("polyana\n", selection))
        if case.startswith("range warning"):
            control.write_text(control.read_text().replace("rmax 12.5", "rmax 16.0"))
        if case == "cut last frame":
            history = dataset_dir / "HISTORY"
            history.write_text("\n".join(history.read_text().splitlines()[:-5]) + "\n")
        if case.endswith("corrupt coordinate"):
            edit_history(dataset_dir, 8, 5, lambda s: "0.0 x 0.0")
        if case == "overflow":
            overflow(dataset_dir, 8)
        if case == "far from the cell":
            overflow(dataset_dir, 8, "1.0e17")

        monkeypatch.setattr(cli, "_BLOCK_SITES", block_sites)
        blocked = outcome(dataset_dir, capsys, caplog)
        monkeypatch.setattr(cli, "_BLOCK_SITES", 1)
        assert outcome(dataset_dir, capsys, caplog) == blocked
        assert blocked[0] == code
        if code:
            assert "step 8" in blocked[2] and blocked[4] == [None, None]
        assert any("exceeds" in m for m in blocked[3]) == case.startswith("range warning")

    @pytest.mark.parametrize("block_sites, blocks", [(None, 2), (8, 300), (160, 30)])
    def test_calls_per_frame_and_per_block(self, tmp_path, monkeypatch, block_sites, blocks):
        """On 300 frames of 16 sites, accumulate_frame runs once per frame and
        centers_of_mass once per massive type per block: blocks of 256 + 44
        frames by default, of 10 frames with a 160-site cap, and of one frame
        when a frame exceeds the cap."""
        generate_dataset(SyntheticConfig(n_frames=300), tmp_path)
        if block_sites is not None:
            monkeypatch.setattr(cli, "_BLOCK_SITES", block_sites)
        calls = {"accumulate_frame": 0, "centers_of_mass": 0}

        def counted(name):
            fn = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        assert run_analysis(tmp_path).frames_used == 300
        assert calls == {"accumulate_frame": 300, "centers_of_mass": 2 * blocks}

    def test_overflowing_centre_of_mass_exit_code(self, tmp_path):
        """A site at 1e308 in frame 2 overflows its molecule's centre of mass:
        an error that names the step, with no numpy warning and no traceback."""
        generate_dataset(SyntheticConfig(n_frames=50), tmp_path)
        overflow(tmp_path, 2)
        result = run_cli("--dir", str(tmp_path), capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stderr == (
            "error: HISTORY: frame at step 2: a centre of mass is not finite; "
            "its coordinates are too large\n"
        )
        assert not (tmp_path / "RDF").exists() and not (tmp_path / "POP").exists()

    @pytest.mark.parametrize("value", ["1.0e17", "-1.0e200"])
    def test_centre_of_mass_far_from_the_cell_exit_code(self, dataset_dir, capsys, value):
        """A site at 1e17 or -1e200 leaves its molecule's centre of mass
        finite, but so far out that its reduced coordinates keep no bits
        below one cell, and every fold would give distance 0: an error that
        names the step, and no output."""
        overflow(dataset_dir, 2, value)
        assert main(["--dir", str(dataset_dir)]) == 1
        assert capsys.readouterr().err == (
            "error: HISTORY: frame at step 2: a centre of mass is more than "
            "3.14573e+07 A (2^20 cell heights) from the origin; its coordinates "
            "are too large\n"
        )
        assert not (dataset_dir / "RDF").exists() and not (dataset_dir / "POP").exists()

    @pytest.mark.parametrize(
        "value, where",
        [
            ("1.0e308", "not finite"),
            ("1.0e17", "more than 3.14573e+07 A (2^20 cell heights) from the origin"),
        ],
    )
    def test_bad_first_frame_is_an_error_without_a_range_warning(
        self, dataset_dir, value, where
    ):
        """rmax 16 exceeds the 15 A minimum-image radius of the 30 A cell,
        but a first frame whose centre of mass cannot be used stops the run
        before anything is warned: one error line, and nothing else."""
        control = dataset_dir / "CONTROL"
        control.write_text(control.read_text().replace("rmax 12.5", "rmax 16.0"))
        overflow(dataset_dir, 1, value)
        result = run_cli("--dir", str(dataset_dir), capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stderr == (
            f"error: HISTORY: frame at step 1: a centre of mass is {where}; "
            "its coordinates are too large\n"
        )

    def test_centre_of_mass_within_the_limit_is_analysed(self, dataset_dir, capsys):
        """A molecule a million A out, 33 333 cells of 30 A, lies within
        2^20 cell heights of the origin and is analysed."""
        overflow(dataset_dir, 2, "1.0e6")
        assert main(["--dir", str(dataset_dir)]) == 0
        assert "frames used:      40" in capsys.readouterr().out
