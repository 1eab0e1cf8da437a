"""Pair-distance histograms, their normalisation to g(r), and coordination counts.

Binning convention: distances go into bins of width dr centred on 0, dr,
2*dr, ..., so bin n (1-based) covers [(n-1)*dr - dr/2, (n-1)*dr + dr/2) and a
distance lands in bin 1 + NINT(r/dr).  The first bin is a half shell; shell
volumes clamp the inner radius at zero accordingly.  A pair is counted
whenever its bin exists (r below rmax + dr/2), so every recorded shell,
including the one centred on rmax, is fully populated; distances beyond that
are discarded.

Counting is over ordered pairs: each unordered molecule pair (i, j) of types
(a, b) increments both the (a, b) and the (b, a) cell, so a like pair adds 2
to its own histogram.  Dividing the per-frame average by the number of
molecules of the first type gives h(n), the mean count of second-type
neighbours in shell n around one first-type molecule; g(r) then divides out
the shell volume and the bulk number density of the second type, and the
cumulative sum of h(n) is the coordination population.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, NoFramesError
from .geometry import CellTensor, nint, to_reduced
from .trajectory_io import Topology

logger = logging.getLogger(__name__)

# Candidate pairs are handled in chunks of at most this many.  The size is set
# for cache, not only for memory: a chunk's scratch arrays (about 120 B per
# pair) then stay within a core's L2 cache between the kernel's passes,
# instead of every pass streaming the whole frame through memory.  It also
# bounds the rows the cell search lays out at once.
_CHUNK_PAIRS = 32_768

# Linked-cell search: every cell is at least rc / _CELL_REACH high across each
# pair of faces, so a molecule's partners lie within +-_CELL_REACH cells.
_CELL_REACH = 3
# Cells per axis are capped to keep cell keys small; wider cells only add
# candidates.
_MAX_CELLS = 1024
# The cell search keeps one table entry per cell, ghost cells included.  A
# grid whose table would outgrow both bounds is coarsened, so the table grows
# with the frame, not with the volume of the cell; a sparser grid would save
# few candidates, as every molecule gets one row per column anyway.
_CELLS_PER_MOLECULE = 8
_TABLE_CELLS = 1 << 16
# Costs of the column search beyond its candidate pairs, in units of the
# time all pairs spend on one pair: the setup of a frame's search, a row, and
# an entry of the cell table.
_SEARCH_SETUP = 8192
_ROW_COST = 2
_ENTRY_COST = 0.25
# Relative padding of the search radius, so rounding cannot lose a pair.
_PAD = 1e-9

SMOOTH_KERNEL = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0


def n_bins(rmax: float, dr: float) -> int:
    return int(1 + nint(rmax / dr))


@dataclass(eq=False)
class PairHistogram:
    """Accumulated pair counts plus the bookkeeping needed to normalise them."""

    counts: np.ndarray  # (n_types, n_types, n_bins) int64, ordered pairs
    dr: float
    rmax: float
    frames_used: int = 0
    volume_sum: float = 0.0
    range_warned: bool = False

    @classmethod
    def create(cls, n_types: int, rmax: float, dr: float) -> "PairHistogram":
        if n_types < 1:
            raise ValueError("need at least one molecule type")
        try:
            counts = np.zeros((n_types, n_types, n_bins(rmax, dr)), dtype=np.int64)
        except (OverflowError, ValueError, MemoryError):
            raise InputError(
                f"rmax {rmax:g} and dr {dr:g} give {rmax / dr:.3g} bins per pair of "
                f"{n_types} molecule types: too large a histogram to allocate"
            ) from None
        return cls(counts, dr, rmax)

    @property
    def n_types(self) -> int:
        return self.counts.shape[0]


@functools.lru_cache(maxsize=8)
def _all_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All i < j index pairs of n molecules in one read-only chunk.

    Cached because the molecule count rarely changes from frame to frame.
    """
    i = np.arange(n - 1)
    ((i, j),) = _expand_rows(i, i + 1, n - 1 - i)
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


def _pair_strips(n: int):
    """All i < j index pairs, row i holding j = i + 1 .. n - 1, in chunks of
    bounded size; as one cached chunk when they fit in one."""
    if n < 2:
        return
    if n * (n - 1) // 2 <= _CHUNK_PAIRS:
        yield _all_pairs(n)
        return
    i = np.arange(n - 1)
    yield from _expand_rows(i, i + 1, n - 1 - i)


@functools.lru_cache(maxsize=32)
def _stencil(shape: tuple, widths: tuple | None, reach: float) -> np.ndarray:
    """Half stencil of a grid with ``shape`` cells, as columns along z: one
    row (dx, dy, lo, hi) per xy offset, whose cell offsets dz = lo..hi are
    visited.  The own column (0, 0) comes first, with lo 1, and hi 0 when
    no cell of it but the own is in reach; the half plane dx > 0 or
    dx = 0 < dy follows, each column with lo = -hi.

    Offsets lie within +-_CELL_REACH and fit in the grid; for an orthogonal
    cell whose cells have edges ``widths``, the nearest corners of the two
    cells must also lie within ``reach``, which keeps dz by |dz| alone.
    Cached because the cell, and with it the stencil, rarely changes from
    frame to frame; the returned array is read-only.
    """
    rx, ry, rz = (min(_CELL_REACH, n - 1) for n in shape)
    dx, dy = np.mgrid[0 : rx + 1, -ry : ry + 1].reshape(2, -1)
    half = (dx > 0) | (dy >= 0)
    dx, dy = dx[half], dy[half]
    if widths is None:
        hi = np.full(len(dx), rz)
    else:
        wx, wy, wz = widths
        gx = np.maximum(np.abs(dx) - 1, 0) * wx
        gy = np.maximum(np.abs(dy) - 1, 0) * wy
        gz = np.maximum(np.arange(rz + 1) - 1, 0) * wz
        # A column's dz in reach run from 0 up: their count less one is hi.
        hi = ((gx**2 + gy**2)[:, None] + gz**2 <= reach**2).sum(axis=1) - 1
    lo = -hi
    lo[0] = 1
    columns = np.stack([dx, dy, lo, hi], axis=1)[hi >= 0]
    columns.flags.writeable = False
    return columns


class _CellGrid(NamedTuple):
    """Linked cells over a frame: cell index = floor((s - lo) * scale)."""

    shape: np.ndarray  # cells along each axis
    columns: np.ndarray  # half stencil of cell offsets to visit, see _stencil
    lo: np.ndarray  # reduced coordinates of the grid's corner
    scale: np.ndarray  # cells per unit of reduced coordinate
    periodic: np.ndarray  # axes along which the grid wraps


def _cell_grid(pos: np.ndarray, cell: CellTensor, rc: float) -> _CellGrid | None:
    """Lay linked cells for pairs closer than ``rc`` over the frame, or
    return None where the cell search cannot be used.

    ``pos`` are reduced coordinates, unwrapped or not.  Cells too thin to
    hold 2 * _CELL_REACH + 1 cells along a periodic axis get no grid: this
    keeps the single-image semantics of the minimum-image fold when rmax
    exceeds ``cell.min_image_cutoff``.
    """
    if len(pos) < 2:
        return None
    periodic = cell.periodic
    reach = rc * (1.0 + _PAD)
    # Reduced extent to cover: the cell along periodic axes, the frame's own
    # span along the slab normal, which is never wrapped.
    lo = np.zeros(3)
    extent = np.ones(3)
    if not periodic.all():
        lo[~periodic] = pos[:, ~periodic].min(axis=0)
        extent[~periodic] = pos[:, ~periodic].max(axis=0) - lo[~periodic]
    shape = np.floor(extent * cell.heights * _CELL_REACH / reach)
    shape = np.clip(shape, 1, _MAX_CELLS)
    thinnest = np.where(periodic, 2 * _CELL_REACH + 1, 1)
    if (shape < thinnest).any():
        return None
    entries = shape.prod() * (1.0 + 2 * _CELL_REACH * periodic[2] / shape[2])
    budget = max(_CELLS_PER_MOLECULE * len(pos), _TABLE_CELLS)
    if entries > budget:
        shape = np.maximum(np.floor(shape * (budget / entries) ** (1 / 3)), thinnest)
    shape = shape.astype(np.int64)
    m = cell.matrix
    orthogonal = not (m[0, 1] or m[0, 2] or m[1, 0] or m[1, 2] or m[2, 0] or m[2, 1])
    widths = tuple(extent * cell.heights / shape) if orthogonal else None
    columns = _stencil(tuple(shape.tolist()), widths, reach)
    scale = shape / np.where(extent > 0.0, extent, 1.0)
    return _CellGrid(shape, columns, lo, scale, periodic)


def _search_pays(n: int, columns: int, work: float = 0.0) -> bool:
    """Whether a column search over n molecules and ``columns`` stencil
    columns beats testing all pairs: its setup, one row per molecule and
    column, and ``work`` pair tests' worth of candidates and table entries
    must cost less than the n (n - 1) / 2 pairs."""
    return _SEARCH_SETUP + _ROW_COST * n * columns + work <= n * (n - 1) / 2


def _cell_search_pays(n: int, grid: _CellGrid) -> bool:
    """Whether the column search over ``grid`` is expected to beat testing
    all pairs.

    Molecules spread evenly over the cells meet (2H + 1) / n_cells of all
    pairs through a stencil of H offsets; the cell table holds an entry per
    cell, ghost cells included.
    """
    nx, ny, nz = grid.shape.tolist()
    lo, hi = grid.columns[:, 2:].T
    candidates = n * (n - 1) / 2 * (2 * int((hi - lo + 1).sum()) + 1) / (nx * ny * nz)
    entries = nx * ny * (nz + 2 * _CELL_REACH * bool(grid.periodic[2]))
    return _search_pays(n, len(grid.columns), candidates + _ENTRY_COST * entries)


def _cell_pairs(pos: np.ndarray, grid: _CellGrid):
    """Candidate pairs of a linked-cell grid, in cell-sorted order.

    Returns ``(slots, chunks)``: slot k of the sorted order holds molecule
    ``slots[k]``, and ``chunks`` yields index arrays (i, j) of slots, in
    chunks of bounded size, that hold every pair of neighbouring molecules
    once.

    Molecules are sorted by cell, z fastest, so the cells of a column are
    one run of slots.  Along a periodic z every column gets _CELL_REACH ghost
    cells at each end, copies of the cells that wrap there, so the cells in
    reach of any cell are one run too; the slab normal is never wrapped and
    its runs are clipped instead.  Each molecule meets, in its own column,
    the slots after its own up to the top of its run, and the whole run of
    every other column of the half stencil: one row per column.
    """
    shape, periodic, columns = grid.shape, grid.periodic, grid.columns
    nx, ny, nz = shape.tolist()
    cells = np.floor((pos - grid.lo) * grid.scale).astype(np.int64)
    cells[:, periodic] %= shape[periodic]
    np.minimum(cells, shape - 1, out=cells)  # a point on the slab's top face
    ghost = _CELL_REACH if periodic[2] else 0
    height = nz + 2 * ghost  # cells per column, ghosts included
    cells[:, 2] += ghost
    n = len(pos)
    key = (cells[:, 0] * ny + cells[:, 1]) * height + cells[:, 2]
    slots = np.arange(n)
    if ghost:
        # The bottom cells are copied above the top and the top cells below
        # the bottom; every copy stands for its molecule through ``slots``.
        up = np.flatnonzero(cells[:, 2] < 2 * ghost)
        down = np.flatnonzero(cells[:, 2] >= nz)
        key = np.concatenate([key, key[up] + nz, key[down] - nz])
        slots = np.concatenate([slots, up, down])
    order = np.argsort(key, kind="stable")
    slots = slots[order]
    # Cell c holds slots table[c] to table[c + 1].
    table = np.zeros(nx * ny * height + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=nx * ny * height), out=table[1:])
    # A run's table entries, first and end, as a term per axis looked up by
    # the molecule's own cell along that axis; x and y always wrap.
    dx, dy, lo, hi = columns.T
    x_term = (np.arange(nx)[:, None] + dx) % nx * (ny * height)
    y_term = (np.arange(ny)[:, None] + dy) % ny * height
    z = np.arange(height)[:, None]
    z_first = np.clip(z + lo, 0, height - 1)
    z_end = np.clip(z + hi, 0, height - 1) + 1
    real = np.flatnonzero(order < n)  # the slots that are not copies
    where = cells[slots[real]]
    per_block = max(1, _CHUNK_PAIRS // len(columns))

    def chunks():
        for p0 in range(0, n, per_block):
            s = real[p0 : p0 + per_block]
            cx, cy, cz = where[p0 : p0 + per_block].T
            base = x_term[cx] + y_term[cy]
            first = table[base + z_first[cz]]
            first[:, 0] = s + 1
            sizes = table[base + z_end[cz]] - first
            yield from _expand_rows(np.repeat(s, len(columns)), first.ravel(), sizes.ravel())

    return slots, chunks()


def _expand_rows(owners, starts, sizes):
    """Pairs (owner, start + k) for k < size of every row, in chunks of
    about _CHUNK_PAIRS pairs."""
    ends = np.cumsum(sizes)
    r0 = 0
    while r0 < len(sizes):
        base = ends[r0] - sizes[r0]
        r1 = max(r0 + 1, int(np.searchsorted(ends, base + _CHUNK_PAIRS, side="right")))
        size = sizes[r0:r1]
        total = int(ends[r1 - 1] - base)
        if total:
            i = np.repeat(owners[r0:r1], size)
            shift = starts[r0:r1] - (ends[r0:r1] - size - base)
            yield i, np.repeat(shift, size) + np.arange(total)
        r0 = r1


def _candidate_pairs(pos: np.ndarray, cell: CellTensor, rc: float):
    """Every pair closer than ``rc``, among others, as ``(slots, chunks)``:
    ``chunks`` yields index arrays (i, j) into the order ``slots`` of the
    molecules, or into the molecules themselves when ``slots`` is None."""
    n = len(pos)
    # Every grid's stencil holds at least its own column and the four of
    # the adjacent cells in x and y, so too few molecules for those never
    # pay for a grid.
    if _search_pays(n, 5):
        grid = _cell_grid(pos, cell, rc)
        if grid is not None and _cell_search_pays(n, grid):
            return _cell_pairs(pos, grid)
    return None, _pair_strips(n)


def accumulate_frame(
    hist: PairHistogram,
    types: np.ndarray,
    coms: np.ndarray,
    cell: CellTensor,
) -> None:
    """Add one frame's centre-of-mass pair distances to the histogram.

    ``types`` holds the 0-based type index of each molecule and ``coms`` the
    matching positions.  Distances use the minimum-image convention along the
    periodic directions of the cell.  Candidate pairs come from a linked-cell
    search where that pays, from all pairs otherwise; every candidate's
    distance is computed the same way, so the choice never moves a count.
    """
    coms = np.asarray(coms, dtype=float)
    types = np.asarray(types, dtype=np.int64)
    if coms.ndim != 2 or coms.shape[1] != 3 or len(types) != len(coms):
        raise ValueError("types and coms must be matching (n,) and (n, 3) arrays")
    if not np.isfinite(coms).all():
        # A NaN distance passes no bin test, so the pair would vanish unseen.
        raise ValueError("coms must be finite")
    if types.size and (types.min() < 0 or types.max() >= hist.n_types):
        raise ValueError("type index out of range for this histogram")

    if not hist.range_warned:
        cutoff = cell.min_image_cutoff
        if hist.rmax > cutoff + 1e-9:
            hist.range_warned = True
            logger.warning(
                "rmax %.4f exceeds the safe minimum-image radius %.4f of the "
                "cell; g(r) is unreliable beyond that distance",
                hist.rmax,
                cutoff,
            )

    pos = to_reduced(coms, cell)
    # The periodic axes lead: all three, or the first two of a slab.
    folded = int(cell.periodic.sum())
    m = cell.matrix

    nbins = hist.counts.shape[2]
    dr = hist.dr
    # A pair gets a bin exactly when r / dr < nbins - 1/2.
    rc = (nbins - 0.5) * dr
    # Only pairs within this r^2 can get a bin; the margin is far wider than
    # any rounding, so the prefilter drops no pair the bin test would keep.
    r2_max = (rc * (1.0 + 1e-6)) ** 2
    slots, chunks = _candidate_pairs(pos, cell, rc)
    if slots is not None:
        # Into the search's own order once, so chunks index it directly.
        pos = pos[slots]
        types = types[slots]
    # One row per axis, so every gather and pass below is over 1-D arrays.
    axes = np.ascontiguousarray(pos.T)
    # Histogram key of a pair (i, j): key_i[i] + key_j[j] + bin.  A pair may
    # come as (i, j) or as (j, i): the fold, the cell product and r^2 are
    # exactly odd or even in d, and the counts are symmetrised below.
    key_j = types * nbins
    key_i = key_j * hist.n_types
    flat = np.zeros(hist.counts.size, dtype=np.int64)
    buf = np.empty((2, 0))  # displacements, and scratch, reused across chunks
    for i_arr, j_arr in chunks:
        k = len(i_arr)
        if buf.shape[1] < 3 * k:
            buf = np.empty((2, 3 * k))
        d = buf[0, : 3 * k].reshape(3, k)
        for row, axis in zip(d, axes):
            np.subtract(axis[j_arr], axis[i_arr], out=row)
        f = d[:folded]
        f -= nint(f, out=buf[1, : folded * k].reshape(folded, k))
        # The transpose of d.T @ m, with the same sums.
        d = np.matmul(m.T, d, out=buf[1, : 3 * k].reshape(3, k))
        # Same sums in the same order as np.linalg.norm(d, axis=0), so the
        # same bits, without its slow length-3 reduction per pair.
        x, y, z = d
        r2 = x * x
        sq = y * y
        r2 += sq
        np.multiply(z, z, out=sq)
        r2 += sq
        near = np.flatnonzero(r2 <= r2_max)
        r = np.sqrt(r2[near])
        r /= dr
        # Acceptance is by bin, not by raw distance: a pair counts whenever
        # its bin exists, so the shell around rmax itself fills completely
        # instead of being cut in half at the boundary.  For r >= 0,
        # truncating r / dr + 1/2 is nint(r / dr).
        r += 0.5
        idx = r.astype(np.int64)
        keep = idx < nbins
        near = near[keep]
        key = key_i[i_arr[near]]
        key += key_j[j_arr[near]]
        key += idx[keep]
        binned = np.bincount(key)
        flat[: binned.size] += binned
    counts = flat.reshape(hist.counts.shape)
    hist.counts += counts
    hist.counts += counts.transpose(1, 0, 2)

    hist.frames_used += 1
    hist.volume_sum += cell.volume


def merge(a: PairHistogram, b: PairHistogram) -> PairHistogram:
    """Combine two partial histograms (same geometry) into a new one."""
    if a.counts.shape != b.counts.shape or a.dr != b.dr or a.rmax != b.rmax:
        raise ValueError("histograms were built with different binning")
    return PairHistogram(
        a.counts + b.counts,
        a.dr,
        a.rmax,
        a.frames_used + b.frames_used,
        a.volume_sum + b.volume_sum,
        a.range_warned or b.range_warned,
    )


def smooth_curve(y: np.ndarray) -> np.ndarray:
    """Five-point least-squares quadratic smoothing of the interior points.

    The two points at each end pass through unchanged, as do curves shorter
    than the window.  Exact for data that is quadratic in the bin index.
    """
    y = np.asarray(y, dtype=float)
    out = y.copy()
    if y.shape[-1] >= 5:
        # The kernel reversed, as np.convolve applies it: the same sums in
        # the same order as the convolution, so the same bits.
        out[..., 2:-2] = sliding_window_view(y, 5, axis=-1) @ SMOOTH_KERNEL[::-1]
    return out


@dataclass(frozen=True, eq=False)
class RdfTable:
    """Normalised results ready for writing.

    ``pair_labels`` carries 1-based type numbers in output order: like pairs
    first, then unlike pairs lexicographically.  Row p of ``g`` and ``pop``
    belongs to ``pair_labels[p]``; for a pair (a, b), pop is the average
    number of type-b molecules within r of one type-a molecule.
    """

    pair_labels: tuple[tuple[int, int], ...]
    bin_centers: np.ndarray  # (n_bins,)
    g: np.ndarray  # (n_pairs, n_bins)
    pop: np.ndarray  # (n_pairs, n_bins)
    mean_volume: float
    frames_used: int


def shell_volumes(nbins: int, dr: float) -> np.ndarray:
    centers = np.arange(nbins) * dr
    outer = centers + dr / 2.0
    inner = np.maximum(centers - dr / 2.0, 0.0)
    return (4.0 * np.pi / 3.0) * (outer**3 - inner**3)


def finalize(hist: PairHistogram, topology: Topology, smooth: bool = False) -> RdfTable:
    """Turn raw counts into g(r) and coordination populations.

    Molecule types whose sites carry no mass have no centre of mass; they are
    dropped from the output with a warning.  Type numbering in the labels
    stays as declared, so dropping a type leaves a gap rather than renumbering
    the survivors.
    """
    if hist.frames_used == 0:
        raise NoFramesError("no frames were accumulated")
    if topology.n_types != hist.n_types:
        raise ValueError("topology does not match histogram type count")
    mean_volume = hist.volume_sum / hist.frames_used
    if mean_volume <= 0.0:
        raise InputError(
            "mean cell volume is not positive; g(r) needs a periodic cell"
        )

    kept = [t for t, _ in topology.massive]
    for t, mol in enumerate(topology.molecules):
        if t not in kept:
            logger.warning(
                "molecule type %d (%s) carries no mass and is excluded from "
                "the distribution functions",
                t + 1,
                mol.name,
            )
    if not kept:
        raise InputError("every molecule type is massless; nothing to analyse")

    labels = [(t, t) for t in kept]
    labels += [(a, b) for k, a in enumerate(kept) for b in kept[k + 1 :]]

    nbins = hist.counts.shape[2]
    centers = np.arange(nbins) * hist.dr
    vshell = shell_volumes(nbins, hist.dr)

    g = np.empty((len(labels), nbins))
    pop = np.empty_like(g)
    for p, (a, b) in enumerate(labels):
        n_a = topology.molecules[a].count
        n_b = topology.molecules[b].count
        h_mean = hist.counts[a, b] / (hist.frames_used * n_a)
        rho_b = n_b / mean_volume
        g[p] = h_mean / (vshell * rho_b)
        pop[p] = np.cumsum(h_mean)

    if smooth:
        g = smooth_curve(g)

    return RdfTable(
        pair_labels=tuple((a + 1, b + 1) for a, b in labels),
        bin_centers=centers,
        g=g,
        pop=pop,
        mean_volume=mean_volume,
        frames_used=hist.frames_used,
    )
