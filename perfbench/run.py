"""End-to-end and per-layer benchmark for molrdf.

    python3 perfbench/run.py --workload liquid|chains|spike|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is run from ``src`` as
``python -m molrdf.cli`` would run it, one fresh process per analysis.  Each
run generates its inputs from the seed, builds the reference the outputs are
checked against, proves that the checker rejects corrupted outputs, makes
one untimed warm-up analysis, then repeats the analysis for S seconds.

With ``--trace 0`` every analysis is untraced and the end-to-end metrics are
medians over the timed analyses, with times converted to the machine's
reference speed by ``speed.SpeedProbe``.  With ``--trace 1`` untraced and
traced analyses alternate; the per-layer metrics are the medians over the traced
ones and ``trace.overhead_s`` compares the two.  Every analysis is checked;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import probe
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("liquid", "chains", "spike")
# One analysis must end within this, so a hung run cannot outlast the benchmark's limit.
ANALYSIS_TIMEOUT_S = 60.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "frames_per_s": "frames/s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "trajectory_io.parse_inputs_s": "s",
    "trajectory_io.read_s": "s",
    "trajectory_io.read_mb_per_s": "MB/s",
    "trajectory_io.frames_read": "count",
    "unfolding.frame_s": "s",
    "unfolding.molecules": "count",
    "unfolding.molecules_per_s": "1/s",
    "geometry.calls": "count",
    "rdf_engine.accumulate_s": "s",
    "rdf_engine.pairs": "count",
    "rdf_engine.pairs_per_s": "1/s",
    "rdf_engine.in_range_fraction": "ratio",
    "rdf_engine.finalize_s": "s",
    "trajectory_io.write_s": "s",
    "cli.run_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Analysis:
    """One molrdf process: its outcome and what was measured from outside.

    ``wall_s`` and ``setup_s`` are in seconds at reference speed; the raw
    wall-clock figures are kept beside them for the human-readable lines.
    """

    wall_s: float | None
    setup_s: float | None
    raw_wall_s: float
    raw_setup_s: float | None
    peak_rss_mb: float
    record: dict
    errors: list[str]
    outputs: tuple[bytes, bytes]


def analyse(work: Path, mode: str, truth: workloads.Truth, speeds: speed.SpeedProbe) -> Analysis:
    """Run molrdf once on ``work`` in a fresh process and check its exit and summary."""
    record_path = work / f"record-{mode}.json"
    stdout_path, stderr_path = work / "stdout.txt", work / "stderr.txt"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "probe.py"), str(record_path), mode,
           "--", "--dir", str(work)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(ANALYSIS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)

    errors = check.check_summary(truth, proc.returncode, stdout_path.read_text(),
                                 stderr_path.read_text())
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    first_frame = record.get("first_frame")
    setup_s = None if first_frame is None else first_frame - launched
    if not errors and not (setup_s and 0.0 < setup_s < ended - launched):
        errors.append(f"first-frame time not measured (record: {record.get('unmeasured')})")
    outputs = tuple((work / name).read_bytes() if (work / name).exists() else b""
                    for name in ("RDF", "POP"))
    peak_rss_kib = record.get("peak_rss_kib")
    if not errors and peak_rss_kib is None:
        errors.append("peak memory not measured (no VmHWM in /proc/self/status)")
    # Only analyses without errors are reported, so only they are converted.
    ref_wall_s = ref_setup_s = None
    if not errors:
        ref_wall_s = speeds.reference_seconds(launched, ended, (launched, ended))
        ref_setup_s = speeds.reference_seconds(launched, first_frame, (launched, ended))
    return Analysis(ref_wall_s, ref_setup_s, ended - launched, setup_s,
                    (peak_rss_kib or 0) / 1024.0, record, errors, outputs)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        with speed.SpeedProbe() as speeds:
            return _run_workload(name, seed, seconds, trace, work, speeds)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                  speeds: speed.SpeedProbe) -> dict:
    t0 = time.monotonic()
    truth = workloads.make(name, work, seed, ROOT)
    ref = None if truth.spike_distance is not None else check.reference_counts(truth)
    check.mutation_self_check(truth, ref)
    history_bytes = (work / "HISTORY").stat().st_size
    print(f"[{name}] seed {seed}: inputs and reference ready in {time.monotonic() - t0:.1f} s",
          flush=True)

    # Warm-up: compiles bytecode and fills the file cache; its output is
    # checked in full and every later output must repeat it byte for byte.
    warm = analyse(work, "plain", truth, speeds)
    errors = list(warm.errors)
    if not errors:
        errors += check.check_tables(truth, ref, warm.outputs[0].decode(), warm.outputs[1].decode())
    attempted, failed = 1, int(bool(errors))

    modes = ("plain", "trace") if trace else ("plain",)
    timed: dict[str, list[Analysis]] = {mode: [] for mode in modes}
    start = time.monotonic()
    while time.monotonic() - start < seconds and not errors:
        for mode in modes:
            result = analyse(work, mode, truth, speeds)
            attempted += 1
            if not result.errors and result.outputs != warm.outputs:
                result.errors.append("RDF/POP bytes differ from the first run")
            if result.errors:
                failed += 1
                errors += result.errors
            timed[mode].append(result)

    for line in errors[:10]:
        print(f"[{name}] ERROR: {line}", flush=True)
    plain = [a for a in timed["plain"] if not a.errors]
    metrics: dict[str, dict] = {}
    if not trace and plain:
        frames = truth.frames_written
        samples = {
            "wall_s": [a.wall_s for a in plain],
            "setup_s": [a.setup_s for a in plain],
            "frames_per_s": [frames / (a.wall_s - a.setup_s) for a in plain],
            "peak_rss_mb": [a.peak_rss_mb for a in plain],
        }
        for metric, values in samples.items():
            q1, q2, q3 = quartiles(values)
            unit = END_TO_END_UNITS[metric]
            print(f"[{name}] {metric:<14} median {q2:.6g} {unit}  quartiles {q1:.6g}..{q3:.6g}"
                  f"  n={len(values)}", flush=True)
            metrics[metric] = {"value": q2, "unit": unit}
        raw_wall = statistics.median(a.raw_wall_s for a in plain)
        raw_setup = statistics.median(a.raw_setup_s for a in plain)
        print(f"[{name}] wall clock, not converted: wall_s median {raw_wall:.6g} s,"
              f" setup_s median {raw_setup:.6g} s; speed factor (reference s per wall s)"
              f" median {statistics.median(a.wall_s / a.raw_wall_s for a in plain):.4g}",
              flush=True)
    traced = [a for a in timed.get("trace", []) if not a.errors]
    if trace and traced and plain:
        per_run = [probe.layer_metrics(a.record, history_bytes) for a in traced]
        for metric in LAYER_UNITS:
            if metric == "trace.overhead_s":
                traced_run = [r["cli.run_s"] for r in per_run]
                plain_run = [a.record["run_s"] for a in plain]
                value = None if None in traced_run + plain_run else (
                    statistics.median(traced_run) - statistics.median(plain_run))
            else:
                values = [r[metric] for r in per_run]
                value = None if None in values else statistics.median(values)
            shown = "unmeasured" if value is None else f"{value:.6g}"
            print(f"[{name}] {metric:<30} {shown} {LAYER_UNITS[metric]}", flush=True)
            metrics[metric] = {"value": value, "unit": LAYER_UNITS[metric]}
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "molrdf" / "cli.py").is_file():
        print(f"error: no molrdf source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # The analysed process inherits the pin, so it runs where the probe measures.
    speed.pin_to_one_cpu()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
