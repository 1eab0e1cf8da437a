import logging
import re

import numpy as np
import pytest

from molrdf.cli import main, run_analysis
from molrdf.errors import InputError, NoFramesError
from molrdf.synthetic import SyntheticConfig, generate_dataset
from molrdf.trajectory_io import HistoryReader


@pytest.fixture()
def dataset_dir(tmp_path):
    generate_dataset(SyntheticConfig(n_frames=40), tmp_path)
    return tmp_path


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

    def test_bad_flag_exits_nonzero(self, capsys):
        assert main(["--no-such-flag"]) == 1

    def test_workers_flag_is_rejected(self, dataset_dir, capsys):
        assert main(["--dir", str(dataset_dir), "--workers", "2"]) == 1
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not (dataset_dir / "RDF").exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "CONTROL" not in capsys.readouterr().err
