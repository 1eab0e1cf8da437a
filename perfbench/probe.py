"""Run the molrdf command line in this process, with timing hooks put on the
program's public entry points from outside.  The program's source is not
changed; its functions are rebound in its module namespaces at start-up.

    python3 perfbench/probe.py RECORD plain|trace -- [molrdf arguments]

``plain`` marks only the moment the first trajectory frame leaves the reader
and the duration of ``run_analysis`` (two hooks, no per-call cost worth
measuring).  ``trace`` records a span at every layer boundary and counts
calls into ``geometry``.  Either way the record is written to RECORD as JSON
when the run ends; the molrdf exit code is passed through.

Layers and their entry points:

- ``trajectory_io``: ``parse_directives`` and ``parse_field`` (span
  ``trajectory_io.parse_inputs``), each step of ``HistoryReader`` iteration
  (``trajectory_io.read``), ``write_rdf`` and ``write_pop``
  (``trajectory_io.write``).
- ``unfolding``: from a frame leaving the reader to that frame's
  ``accumulate_frame`` call (``unfolding.frame``); whatever the program does
  there, today ``cli._frame_coms``, is molecule mending and centres of mass.
- ``rdf_engine``: ``accumulate_frame`` and ``finalize``.
- ``cli``: ``run_analysis``, the root span.
- ``geometry``: calls into its public functions from other modules, counted.

An entry point that no longer exists is listed as unmeasured in the record.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from pathlib import Path


def _rebind(original, replacement) -> None:
    """Point every molrdf module name bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name == "molrdf" or name.startswith("molrdf."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _entry(module: str, name: str):
    return getattr(sys.modules.get(module), name, None)


class PlainHooks:
    """First-frame time and ``run_analysis`` duration, nothing else."""

    def __init__(self):
        self.first_frame = None  # time.monotonic(), comparable with the parent's clock
        self.run_s = None
        self.unmeasured = []

    def install(self) -> None:
        reader = _entry("molrdf.trajectory_io", "HistoryReader")
        if reader is not None:
            iterate = reader.__iter__

            def first_frame_iter(obj):
                for frame in iterate(obj):
                    if self.first_frame is None:
                        self.first_frame = time.monotonic()
                    yield frame

            reader.__iter__ = first_frame_iter
        else:
            self.unmeasured.append("trajectory_io.HistoryReader")

        run = _entry("molrdf.cli", "run_analysis")
        if run is None:
            self.unmeasured.append("cli.run_analysis")
            return

        def timed_run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return run(*args, **kwargs)
            finally:
                self.run_s = time.perf_counter() - t0

        _rebind(run, timed_run)

    def record(self) -> dict:
        return {"first_frame": self.first_frame, "run_s": self.run_s,
                "unmeasured": self.unmeasured}


class Tracer(PlainHooks):
    """Spans at every layer boundary plus exact counts, kept in memory."""

    def __init__(self):
        super().__init__()
        self.spans = []  # [name, start, end, parent index or None]
        self.stack = []
        self.counts = {"frames_read": 0, "molecules": 0, "pairs": 0,
                       "in_range_pairs": 0, "geometry_calls": 0}
        self.frame_left_reader = None

    def open(self, name: str, start: float | None = None) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter() if start is None else start, None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def spanned(self, name: str, fn, before=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def install(self) -> None:
        wraps = [
            ("molrdf.trajectory_io", "parse_directives", "trajectory_io.parse_inputs", None),
            ("molrdf.trajectory_io", "parse_field", "trajectory_io.parse_inputs", None),
            ("molrdf.trajectory_io", "write_rdf", "trajectory_io.write", None),
            ("molrdf.trajectory_io", "write_pop", "trajectory_io.write", None),
            ("molrdf.rdf_engine", "accumulate_frame", "rdf_engine.accumulate", self._on_accumulate),
            ("molrdf.rdf_engine", "finalize", "rdf_engine.finalize", self._on_finalize),
            ("molrdf.cli", "run_analysis", "cli.run", None),
        ]
        for module, name, span, before in wraps:
            fn = _entry(module, name)
            if fn is None:
                self.unmeasured.append(f"{module.split('.')[-1]}.{name}")
            else:
                _rebind(fn, self.spanned(span, fn, before))

        reader = _entry("molrdf.trajectory_io", "HistoryReader")
        if reader is None:
            self.unmeasured.append("trajectory_io.HistoryReader")
        else:
            reader.__iter__ = self._traced_iter(reader.__iter__)

        geometry = sys.modules.get("molrdf.geometry")
        if geometry is None:
            self.unmeasured.append("geometry")
            return
        for name, fn in list(vars(geometry).items()):
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == "molrdf.geometry"):
                _rebind(fn, self._counted(fn))

    def _traced_iter(self, iterate):
        end = object()

        def traced_iter(obj):
            frames = iterate(obj)
            while True:
                index = self.open("trajectory_io.read")
                try:
                    frame = next(frames, end)
                finally:
                    self.close(index)
                if frame is end:
                    return
                self.counts["frames_read"] += 1
                if self.first_frame is None:
                    self.first_frame = time.monotonic()
                self.frame_left_reader = self.spans[index][2]
                yield frame
                # A frame that never reached accumulate_frame was skipped by
                # frame selection; that time belongs to the caller.
                self.frame_left_reader = None

        return traced_iter

    def _on_accumulate(self, hist, types, coms, *args, **kwargs):
        if self.frame_left_reader is not None:
            self.close(self.open("unfolding.frame", start=self.frame_left_reader))
            self.frame_left_reader = None
        n = len(coms)
        self.counts["molecules"] += n
        self.counts["pairs"] += n * (n - 1) // 2

    def _on_finalize(self, hist, *args, **kwargs):
        counts = getattr(hist, "counts", None)
        if counts is None:
            self.unmeasured.append("rdf_engine.in_range_fraction")
        else:
            # Every unordered pair in a bin adds 2 to the ordered-pair counts.
            self.counts["in_range_pairs"] = int(counts.sum()) // 2

    def _counted(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") != "molrdf.geometry":
                counts["geometry_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def record(self) -> dict:
        out = super().record()
        out.update(spans=self.spans, counts=self.counts)
        return out


def layer_metrics(record: dict, history_bytes: int) -> dict[str, float | None]:
    """Per-layer metrics of one traced run from its spans and counts.

    Times are self times (a span's duration less its child spans), summed
    over the run, so the layer times and ``cli.self_s`` add up to
    ``cli.run_s`` exactly.  A metric whose entry point was not found is None.
    """
    spans = record["spans"]
    self_time = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            self_time[parent] -= end - start
    by_layer: dict[str, float] = {}
    for (name, *_), t in zip(spans, self_time):
        by_layer[name] = by_layer.get(name, 0.0) + t
    counts = record["counts"]
    missing = set(record["unmeasured"])

    def total(span, *entries):
        return None if missing & set(entries) else by_layer.get(span, 0.0)

    def rate(num, den):
        return None if num is None or not den else num / den

    read_s = total("trajectory_io.read", "trajectory_io.HistoryReader")
    unfold_s = total("unfolding.frame", "trajectory_io.HistoryReader", "rdf_engine.accumulate_frame")
    accumulate_s = total("rdf_engine.accumulate", "rdf_engine.accumulate_frame")
    pairs = None if accumulate_s is None else counts["pairs"]
    molecules = None if accumulate_s is None else counts["molecules"]
    in_range = None if missing & {"rdf_engine.finalize", "rdf_engine.in_range_fraction"} \
        else counts["in_range_pairs"]
    run_s = total("cli.run", "cli.run_analysis")
    if run_s is not None:
        run_s = sum(end - start for name, start, end, _ in spans if name == "cli.run")
    metrics = {
        "trajectory_io.parse_inputs_s": total(
            "trajectory_io.parse_inputs", "trajectory_io.parse_directives", "trajectory_io.parse_field"),
        "trajectory_io.read_s": read_s,
        "trajectory_io.read_mb_per_s": rate(history_bytes / 2**20, read_s),
        "trajectory_io.frames_read": None if read_s is None else counts["frames_read"],
        "unfolding.frame_s": unfold_s,
        "unfolding.molecules": molecules,
        "unfolding.molecules_per_s": rate(molecules, unfold_s),
        "geometry.calls": None if "geometry" in missing else counts["geometry_calls"],
        "rdf_engine.accumulate_s": accumulate_s,
        "rdf_engine.pairs": pairs,
        "rdf_engine.pairs_per_s": rate(pairs, accumulate_s),
        "rdf_engine.in_range_fraction": rate(in_range, pairs),
        "rdf_engine.finalize_s": total("rdf_engine.finalize", "rdf_engine.finalize"),
        "trajectory_io.write_s": total(
            "trajectory_io.write", "trajectory_io.write_rdf", "trajectory_io.write_pop"),
        "cli.run_s": run_s,
        "cli.self_s": total("cli.run", "cli.run_analysis"),
    }
    if metrics["cli.run_s"] is not None:
        layers = sum(t for name, t in by_layer.items() if name != "cli.run")
        if abs(layers + metrics["cli.self_s"] - metrics["cli.run_s"]) > 1e-9:
            raise RuntimeError("layer self times do not add up to cli.run_s")
    return metrics


def peak_rss_kib() -> int | None:
    """Peak resident memory of this process since it started the interpreter.

    Read here rather than from the parent's ``wait4``: the child's
    ``ru_maxrss`` also holds the benchmark's own memory, which the child
    shared between fork and exec.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main() -> int:
    # Below the benchmark's speed probe, which shares this CPU (speed.py): a
    # probe that this process preempted would read the CPU as slower than it is.
    os.nice(10)
    record_path = Path(sys.argv[1])
    mode = sys.argv[2]
    argv = sys.argv[4:] if sys.argv[3:4] == ["--"] else sys.argv[3:]
    from molrdf import cli

    hooks = Tracer() if mode == "trace" else PlainHooks()
    hooks.install()
    code = 1
    try:
        code = cli.main(argv)
    finally:
        record = hooks.record()
        record["peak_rss_kib"] = peak_rss_kib()
        record_path.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
