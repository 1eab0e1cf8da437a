"""Output checks for the benchmark, independent of the program's own code.

``liquid`` and ``chains`` are checked against a reference histogram built
here from the generator's true centres of mass: minimum image by folding
reduced coordinates with half-away-from-zero rounding, then binning with the
same rounding, then the g(r) and population normalisation.  ``spike`` is
checked against the exact properties of the two-molecule dataset.  Every
comparison is to the printed precision of the output (seven significant
digits), so one pair moved by one bin, or one frame dropped, is caught; the
mutation self-check below shows that it is.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from workloads import Truth

# A pair within this distance of a bin edge may land in either bin: the
# program works from positions rounded to 12 decimals in HISTORY.
EDGE_TOLERANCE = 1e-9
# Ambiguous pairs are resolved by trying every assignment; more than this
# many in one run is treated as a checker failure rather than searched.
MAX_AMBIGUOUS = 10


@dataclass
class Reference:
    """Reference pair counts for one workload."""

    counts: np.ndarray  # (n_types, n_types, n_bins) ordered-pair counts
    frame_counts: list[np.ndarray]  # the same, per frame
    ambiguous: list[tuple[int, int, int, int]]  # (type a, type b, lower bin, upper bin)


def half_away(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, np.floor(x + 0.5), np.ceil(x - 0.5))


def n_bins(truth: Truth) -> int:
    return int(half_away(np.array(truth.rmax / truth.dr))) + 1


def reference_counts(truth: Truth) -> Reference:
    nt = len(truth.types)
    nb = n_bins(truth)
    frame_counts = []
    ambiguous = []
    for types, coms, cell in zip(truth.frame_types, truth.frame_coms, truth.cells):
        s = coms @ np.linalg.inv(cell)
        flat = []
        for i in range(len(s) - 1):
            d = s[i + 1:] - s[i]
            d -= half_away(d)
            x = d @ cell
            q = np.sqrt(np.einsum("ij,ij->i", x, x)) / truth.dr
            lower = np.floor(q)
            near_edge = np.abs(q - lower - 0.5) * truth.dr < EDGE_TOLERANCE
            k = np.floor(q + 0.5).astype(np.int64)
            certain = (k < nb) & ~near_edge
            ti = types[i]
            tj = types[i + 1:]
            flat.append((ti * nt + tj[certain]) * nb + k[certain])
            flat.append((tj[certain] * nt + ti) * nb + k[certain])
            for j in np.flatnonzero(near_edge & (lower < nb)):
                ambiguous.append((int(ti), int(tj[j]), int(lower[j]), int(lower[j]) + 1))
        counts = np.bincount(np.concatenate(flat), minlength=nt * nt * nb)
        frame_counts.append(counts.reshape(nt, nt, nb))
    return Reference(sum(frame_counts), frame_counts, ambiguous)


def pair_labels(kept: list[int]) -> list[tuple[int, int]]:
    return [(t, t) for t in kept] + list(itertools.combinations(kept, 2))


def normalise(truth: Truth, counts: np.ndarray, frames: int, mean_volume: float):
    """g(r) and population columns, in output order, from ordered-pair counts."""
    nb = counts.shape[2]
    r = np.arange(nb) * truth.dr
    shell = 4.0 * np.pi / 3.0 * ((r + truth.dr / 2) ** 3 - np.maximum(r - truth.dr / 2, 0.0) ** 3)
    g, pop = [], []
    for a, b in pair_labels(truth.kept_types):
        per_molecule = counts[a, b] / (frames * truth.types[a].count)
        g.append(per_molecule / shell * mean_volume / truth.types[b].count)
        pop.append(np.cumsum(per_molecule))
    return r, np.array(g), np.array(pop)


def parse_table(text: str, prefix: str):
    """Column labels (1-based type pairs), r column and value columns of RDF/POP."""
    lines = text.splitlines()
    header = lines[0].split()
    if header[:2] != ["#", "r"]:
        raise ValueError(f"bad header {lines[0]!r}")
    labels = []
    for token in header[2:]:
        m = re.fullmatch(rf"{prefix}\((\d+),(\d+)\)", token)
        if not m:
            raise ValueError(f"bad column label {token!r}")
        labels.append((int(m[1]), int(m[2])))
    rows = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    return labels, rows[:, 0], rows[:, 1:].T


def within_print(printed: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """True where the printed value equals the exact one to within one unit
    of its seventh significant digit."""
    magnitude = np.abs(exact)
    unit = 10.0 ** (np.floor(np.log10(np.where(magnitude > 0, magnitude, 1.0))) - 6)
    return np.where(magnitude > 0, np.abs(printed - exact) <= 1.0001 * unit, printed == 0.0)


def _table_errors(truth, kind, labels, r, values, expected_r, expected) -> list[str]:
    errors = []
    want = [(a + 1, b + 1) for a, b in pair_labels(truth.kept_types)]
    if labels != want:
        return [f"{kind}: columns {labels}, expected {want}"]
    if values.shape != expected.shape:
        return [f"{kind}: shape {values.shape}, expected {expected.shape}"]
    if not within_print(r, expected_r).all():
        errors.append(f"{kind}: r column differs")
    bad = ~within_print(values, expected)
    for p, n in zip(*np.nonzero(bad)):
        if len(errors) >= 5:
            break
        errors.append(f"{kind} {labels[p]} bin {n + 1} (r={expected_r[n]:.3f}): "
                      f"{values[p, n]:.6E}, expected {expected[p, n]:.6E}")
    return errors


def check_histogram_tables(truth: Truth, ref: Reference, rdf_text: str, pop_text: str) -> list[str]:
    """Errors found comparing RDF/POP text with the reference; empty when correct.

    Each assignment of the near-edge pairs to one of their two bins is tried.
    """
    if len(ref.ambiguous) > MAX_AMBIGUOUS:
        raise RuntimeError(f"{len(ref.ambiguous)} pairs lie on a bin edge; cannot decide")
    try:
        g_labels, g_r, g = parse_table(rdf_text, "g")
        p_labels, p_r, pop = parse_table(pop_text, "pop")
    except (ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    nb = ref.counts.shape[2]
    first_errors = None
    for choice in itertools.product((0, 1), repeat=len(ref.ambiguous)):
        c = ref.counts.copy()
        for (a, b, *bins), pick in zip(ref.ambiguous, choice):
            if bins[pick] < nb:
                c[a, b, bins[pick]] += 1
                c[b, a, bins[pick]] += 1
        r, g_ref, pop_ref = normalise(truth, c, truth.frames_written, truth.mean_volume)
        errors = (_table_errors(truth, "RDF", g_labels, g_r, g, r, g_ref)
                  + _table_errors(truth, "POP", p_labels, p_r, pop, r, pop_ref))
        if not errors:
            return []
        first_errors = first_errors or errors
    return first_errors


def check_spike_tables(truth: Truth, rdf_text: str, pop_text: str) -> list[str]:
    """g(1,1) = g(2,2) = 0, one non-zero g(1,2) bin at the pegged distance with
    the value of one partner per frame, and pop(1,2) stepping from 0 to 1 there."""
    try:
        g_labels, r, g = parse_table(rdf_text, "g")
        p_labels, _, pop = parse_table(pop_text, "pop")
    except (ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    want = [(1, 1), (2, 2), (1, 2)]
    if g_labels != want or p_labels != want:
        return [f"columns {g_labels} / {p_labels}, expected {want}"]
    nb = n_bins(truth)
    if g.shape[1] != nb or pop.shape[1] != nb:
        return [f"{g.shape[1]} bins, expected {nb}"]
    errors = []
    if np.any(g[:2] != 0.0) or np.any(pop[:2] != 0.0):
        errors.append("like-pair columns are not all zero")
    k = int(half_away(np.array(truth.spike_distance / truth.dr)))
    dr = truth.dr
    shell = 4.0 * np.pi / 3.0 * ((k * dr + dr / 2) ** 3 - (k * dr - dr / 2) ** 3)
    expected_g = np.zeros(nb)
    expected_g[k] = truth.mean_volume / shell
    nonzero = np.flatnonzero(g[2])
    if nonzero.tolist() != [k]:
        errors.append(f"g(1,2) is non-zero in bins {(nonzero + 1).tolist()}, expected only {k + 1}")
    elif not within_print(g[2], expected_g).all():
        errors.append(f"g(1,2) spike is {g[2, k]:.6E}, expected {expected_g[k]:.6E}")
    expected_pop = (np.arange(nb) >= k).astype(float)
    if not within_print(pop[2], expected_pop).all() or pop[2, -1] != 1.0:
        errors.append("pop(1,2) does not step from 0 to exactly 1 at the pegged distance")
    return errors


def check_summary(truth: Truth, returncode: int, stdout: str, stderr: str) -> list[str]:
    """Exit code, printed summary and warnings of one run."""
    errors = []
    if returncode != 0:
        return [f"exit code {returncode}: {stderr.strip()[-300:]}"]
    fields = dict(re.findall(r"^([a-z ]+):\s+(\S+)", stdout, re.M))
    try:
        read = int(fields["frames read"])
        used = int(fields["frames used"])
        n_types = int(fields["molecule types"])
        volume = float(fields["mean cell volume"])
    except (KeyError, ValueError):
        return [f"unreadable summary: {stdout.strip()[-300:]!r}"]
    if read != truth.frames_written or used != truth.frames_written:
        errors.append(f"frames read/used {read}/{used}, expected {truth.frames_written}")
    if n_types != len(truth.types):
        errors.append(f"{n_types} molecule types, expected {len(truth.types)}")
    if abs(volume - truth.mean_volume) > 1.01e-6 + 1e-12 * truth.mean_volume:
        errors.append(f"mean cell volume {volume:.6f}, expected {truth.mean_volume:.6f}")
    warnings = [line for line in stderr.splitlines() if line.strip()]
    for text in truth.expected_warnings:
        if not any(text in line for line in warnings):
            errors.append(f"missing warning containing {text!r}")
    for line in warnings:
        if not any(text in line for text in truth.expected_warnings):
            errors.append(f"unexpected stderr line {line!r}")
    return errors


def check_tables(truth: Truth, ref: Reference | None, rdf_text: str, pop_text: str) -> list[str]:
    if truth.spike_distance is not None:
        return check_spike_tables(truth, rdf_text, pop_text)
    return check_histogram_tables(truth, ref, rdf_text, pop_text)


def format_table(r: np.ndarray, values: np.ndarray, labels, prefix: str) -> str:
    """RDF/POP text in the documented layout, for the mutation self-check."""
    head = "#" + f"{'r':>13}" + "".join(f"{prefix}({a + 1},{b + 1})".rjust(14) for a, b in labels)
    rows = [f"{x:14.6E}" + "".join(f"{v:14.6E}" for v in col) for x, col in zip(r, values.T)]
    return "\n".join([head] + rows) + "\n"


def mutation_self_check(truth: Truth, ref: Reference | None) -> None:
    """Raise unless the checker accepts a correct table and rejects two
    corrupted copies: one pair count moved by one bin, and one frame dropped."""
    labels = pair_labels(truth.kept_types)
    if truth.spike_distance is not None:
        nb = n_bins(truth)
        k = int(half_away(np.array(truth.spike_distance / truth.dr)))
        counts = np.zeros((2, 2, nb), dtype=np.int64)
        counts[0, 1, k] = counts[1, 0, k] = truth.frames_written
        variants = {"correct": (counts, truth.frames_written, truth.cells)}
        moved = counts.copy()
        moved[0, 1, k] -= 1
        moved[1, 0, k] -= 1
        moved[0, 1, k + 1] += 1
        moved[1, 0, k + 1] += 1
        variants["one pair moved by one bin"] = (moved, truth.frames_written, truth.cells)
    else:
        counts = ref.counts.copy()
        for a, b, lower, _ in ref.ambiguous:
            counts[a, b, lower] += 1
            counts[b, a, lower] += 1
        variants = {"correct": (counts, truth.frames_written, truth.cells)}
        # Move a certain pair across an edge no near-edge pair straddles, so
        # the corrupted table is not one of the accepted assignments.
        a = truth.kept_types[0]
        straddled = {lower for ta, tb, lower, _ in ref.ambiguous if ta == tb == a}
        k = next(int(k) for k in np.flatnonzero(ref.counts[a, a, :-1]) if k not in straddled)
        moved = counts.copy()
        moved[a, a, k] -= 2
        moved[a, a, k + 1] += 2
        variants["one pair moved by one bin"] = (moved, truth.frames_written, truth.cells)
        dropped = counts - ref.frame_counts[-1]
        variants["one frame dropped"] = (dropped, truth.frames_written - 1, truth.cells[:-1])
    for name, (c, frames, cells) in variants.items():
        volume = sum(abs(float(np.dot(m[0], np.cross(m[1], m[2])))) for m in cells) / len(cells)
        r, g, pop = normalise(truth, c, frames, volume)
        errors = check_tables(truth, ref, format_table(r, g, labels, "g"),
                              format_table(r, pop, labels, "pop"))
        if (name == "correct") == bool(errors):
            raise RuntimeError(f"checker self-check failed on the {name} table: {errors[:2]}")
