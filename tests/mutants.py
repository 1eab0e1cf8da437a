"""The mutation ledger: faults that the tests are known to catch, and a runner
that checks that they still do.

    python tests/mutants.py [name ...]

Each entry of LEDGER replaces ``old``, which occurs exactly once in ``file``,
by ``new``, and names the tests that are seen to fail on that mutant.  The
runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, checks that the entries' tests pass there, then applies one entry
at a time and runs ``pytest -x -q`` on its tests (all of tier-1 if it names
none) under TIMEOUT_S.  A mutant is killed when pytest fails or times out, a
mutant that loops forever included; it survives when pytest passes.  The
survivors are printed, and the exit code is 1 if there are any, 2 if the
tests fail on the unmutated copy or a run cannot tell (no tests collected).

pytest does not collect this file; ``tests/test_mutants.py`` checks in
tier-1 that every entry still applies.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 120.0
# What a run of pytest says of a mutant, by its exit code: 1 when a test
# failed, 2 when collection failed; None stands for a timeout.
VERDICTS = {None: "killed (timeout)", 0: "SURVIVED", 1: "killed", 2: "killed"}


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in ``file``
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root; () for all


ENGINE = "src/molrdf/rdf_engine.py"
READER = "src/molrdf/trajectory_io.py"
ENGINE_TESTS = "tests/test_rdf_engine.py"
KERNEL_TESTS = f"{ENGINE_TESTS}::TestKernelPasses"
ANCHORS = ("tests/test_lattice_anchors.py",)
REFERENCE_READER = ("tests/test_reader_reference.py",)
READER_TESTS = "tests/test_trajectory_io.py"

LEDGER = (
    Mutant("chunk-rows-held-into-the-next", ENGINE,
           "            del buf, ints, ai, aj, d, e, type_keys, f, r, y2, z2, key, i_arr, j_arr\n", "",
           (f"{ENGINE_TESTS}::TestKernelMemory::test_peak_is_bounded_by_the_chunk",)),
    Mutant("j-side-key-never-added", ENGINE,
           "            type_keys += ints[4 * k + 3 : 8 * k : 4]\n", "",
           (f"{ENGINE_TESTS}::TestAgainstNaiveReference",)),
    Mutant("diagonal-product-for-a-tilted-cell", ENGINE,
           "diagonal = _diagonal(m)", "diagonal = m.diagonal()", ANCHORS),
    Mutant("no-transpose-add", ENGINE,
           "    hist.counts += counts.transpose(1, 0, 2)\n", "", ANCHORS),
    Mutant("bin-half-point-0.4", ENGINE, "r += 0.5", "r += 0.4",
           (f"{KERNEL_TESTS}::test_bins_at_the_cutoff_and_half_points",)),
    Mutant("fold-always-rint", ENGINE,
           "fold = np.rint if rc < 0.4999 * min(cell.heights[:folded].tolist()) else nint",
           "fold = np.rint",
           (f"{KERNEL_TESTS}::test_fold_keeps_the_fortran_tie_rule_past_half_a_height",)),
    Mutant("cast-before-the-clamp", ENGINE, "            np.minimum(r, nbins, out=r)\n", "",
           (f"{ENGINE_TESTS}::TestOverflowBin",)),
    Mutant("molecule-meets-itself-in-its-column", ENGINE, "first[0] = s + 1", "first[0] = s",
           (f"{ENGINE_TESTS}::TestCandidatePairs::test_candidates_unique_ordered_and_complete",)),
    Mutant("volume-sum-k-times-volume", ENGINE,
           "    for _ in frames:\n        hist.volume_sum += cell.volume\n",
           "    hist.volume_sum += len(frames) * cell.volume\n",
           (f"{ENGINE_TESTS}::TestBlocks::test_block_equals_its_frames",)),
    Mutant("count-b-for-count-a", ENGINE,
           "hist.frames_used * count[a]", "hist.frames_used * count[b]", ANCHORS),
    Mutant("shell-volumes-off-by-half-a-bin", ENGINE,
           "centers = np.arange(nbins) * dr", "centers = (np.arange(nbins) + 0.5) * dr", ANCHORS),
    Mutant("run-left-never-set", READER, "self._run_left = k - 1", "pass", REFERENCE_READER),
    Mutant("zero-site-guard-dropped", READER,
           "if natoms and len(list(islice(self._lines, per_site - 2)))",
           "if len(list(islice(self._lines, per_site - 2)))", REFERENCE_READER),
    Mutant("step-order-warning-lt", READER,
           "frame.step <= self._step", "frame.step < self._step", REFERENCE_READER),
    Mutant("no-back-off-after-a-shortfall", READER,
           "size = cap if k == size else min(2 * k, cap)", "size = cap", REFERENCE_READER),
    Mutant("no-stop-cap-for-shorter-layouts", READER,
           "shortest = 4 + 2 * (self._expected_natoms or 0)", "shortest = size", REFERENCE_READER),
    Mutant("bulk-coordinate-slice-one-line-short", READER,
           "block[f + 5 : f + size : per_site]", "block[f + 5 : f + size - 1 : per_site]", REFERENCE_READER),
    *(Mutant(f"bulk-{name}-column-unchecked", READER,
             "columns[c].count(head[c]) == k for c in (0, 2, 3, 4)",
             f"columns[c].count(head[c]) == k for c in {tuple(c for c in (0, 2, 3, 4) if c != dropped)}",
             REFERENCE_READER)
      for name, dropped in (("keyword", 0), ("site-count", 2), ("keytrj", 3), ("imcon", 4))),
    Mutant("bulk-second-cell-row-unchecked", READER,
           ".count(rows[c - 1]) == k for c in (1, 2, 3)", ".count(rows[c - 1]) == k for c in (1, 3)",
           REFERENCE_READER),
    Mutant("used-prefix-one-site-short", READER,
           "max((i + 1 for i, mass in", "max((i for i, mass in",
           (f"{READER_TESTS}::TestParseField::test_used_sites_and_their_rows",
            "tests/test_golden.py::test_output_matches_golden")),
    Mutant("used-keeps-a-massless-type", READER, "            if mol.used_sites:\n", "            if True:\n",
           (f"{READER_TESTS}::TestParseField::test_used_sites_and_their_rows",
            "tests/test_golden.py::test_output_matches_golden")),
    Mutant("compressed-suffix-written-plain", READER,
           "opener = importlib.import_module(module).open if module else open", "opener = open",
           (f"{READER_TESTS}::TestWriters::test_compressed_suffix_is_written_compressed",)),
    Mutant("selection-skipped-in-bulk", READER,
           "list(lines if used is None else compress(lines, cycle(used)))", "list(lines)",
           (f"{READER_TESTS}::TestSiteSelection::test_equals_the_full_read_sliced",)),
    Mutant("frame-held-whole-for-a-bulk-read", READER,
           "            cap = cap if 2 * int(line.split()[2]) <= BLOCK_SITES else 1\n", "",
           (f"{READER_TESTS}::TestSiteSelection::test_equals_the_full_read_sliced",)),
    Mutant("non-finite-site-counted-among-converted-rows", READER,
           "site = 1 + next(islice(compress(range(first, natoms), repeat(1) if used is None else used), row, None))",
           "site = first + 1 + row",
           (f"{READER_TESTS}::TestSiteSelection::test_a_non_finite_coordinate_names_its_site_in_the_frame",
            "tests/test_cli.py::TestSitesNotRead::test_fault_in_a_massless_site_between_massive_ones")),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Apply ``mutant`` to the tree at ``root``."""
    path = root / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: its old text occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new))


def run_pytest(root: Path, tests, timeout: float) -> int | None:
    """pytest's exit code on ``tests`` in the tree at ``root``, or None if it
    ran past ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(command, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in LEDGER}
    if unknown:
        print("no such mutant:", ", ".join(sorted(unknown)), file=sys.stderr)
        return 2
    mutants = [m for m in LEDGER if not names or m.name in names]
    with tempfile.TemporaryDirectory() as scratch:
        clean = Path(scratch) / "clean"
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
                shutil.copytree(source, clean / name, ignore=ignore)
            else:
                shutil.copy2(source, clean / name)
        # The union of their tests; all of tier-1 if one names none.
        named = all(m.tests for m in mutants)
        tests = sorted({t for m in mutants for t in m.tests}) if named else []
        if run_pytest(clean, tests, TIMEOUT_S) != 0:
            print("the tests do not pass on the unmutated copy", file=sys.stderr)
            return 2
        survivors, unclear = [], []
        for mutant in mutants:
            tree = Path(scratch) / "mutant"
            shutil.copytree(clean, tree)
            apply(mutant, tree)
            start = time.perf_counter()
            code = run_pytest(tree, mutant.tests, TIMEOUT_S)
            shutil.rmtree(tree)
            print(f"{mutant.name}: {VERDICTS.get(code, f'unclear (pytest exit {code})')}"
                  f" in {time.perf_counter() - start:.1f} s", flush=True)
            if code == 0:
                survivors.append(mutant.name)
            elif code not in VERDICTS:
                unclear.append(mutant.name)
    print(f"{len(mutants) - len(survivors) - len(unclear)} of {len(mutants)} killed; "
          f"survivors: {', '.join(survivors) or 'none'}")
    if unclear:
        print("unclear:", ", ".join(unclear))
    return 1 if survivors else 2 if unclear else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
