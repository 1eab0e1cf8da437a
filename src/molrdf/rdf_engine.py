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
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, NoFramesError
from .geometry import CellTensor, nint, to_reduced
from .trajectory_io import Topology

logger = logging.getLogger(__name__)

# Candidate pairs are handled in chunks of about this many, one row of
# candidates at the least.  The size bounds the kernel's scratch, about 57 B
# per pair of the largest chunk (1.9 MB per thread at this size), whatever
# the number of molecules.
_CHUNK_PAIRS = 32_768

# Linked-cell search: cells are at least rc / _CELL_REACH wide across x and
# y, so a molecule's partners lie in the columns along z within +-_CELL_REACH
# of its own, and at least rc / _Z_CELLS high along z, so a molecule's own z
# window, rc either side, reaches at most _Z_CELLS cells beyond its own.
_CELL_REACH = 3
_Z_CELLS = 8
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
_SEARCH_SETUP = 16384
_ROW_COST = 2
_ENTRY_COST = 0.125
# Relative padding of the search radius, so rounding cannot lose a pair.
_PAD = 1e-9
# A centre of mass may lie at most this many of its cell's smallest heights
# from the origin along each axis: its reduced coordinates then stay below
# 2^21, and keep 31 of their 52 bits below one cell for the fold.
_FAR_HEIGHTS = 2.0**20


class CentreOfMassError(ValueError):
    """A centre of mass that is not finite, or too far out to fold."""


def _grown(size: int, k: int) -> int:
    """Room for k pairs in a buffer that held ``size``: at least twice
    ``size`` up to _CHUNK_PAIRS, so that chunks growing a little at a time
    regrow it once, not each time."""
    return max(k, min(2 * size, _CHUNK_PAIRS))


class _Scratch(threading.local):
    """One thread's buffers for the pair kernel, kept from chunk to chunk and
    from frame to frame: a warm frame allocates no chunk-sized array beyond
    each chunk's pair indices and its list of pairs in range.  Each buffer
    grows to the largest chunk that the thread has met and never shrinks.
    Per thread, as histograms may be accumulated in threads at once."""

    buf = np.empty(0)
    ints = buf.view(np.int64)
    mask = np.empty(0, dtype=bool)
    iota = np.arange(0)

    def rows(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Room for six rows of k pairs, as one flat float64 buffer and its
        int64 view, and a bool row."""
        if len(self.mask) < k:
            size = _grown(len(self.mask), k)
            self.buf = np.empty(6 * size)
            self.ints = self.buf.view(np.int64)
            self.mask = np.empty(size, dtype=bool)
        return self.buf, self.ints, self.mask

    def arange(self, k: int) -> np.ndarray:
        """0, 1, ..., k - 1, read-only."""
        if len(self.iota) < k:
            self.iota = np.arange(_grown(len(self.iota), k))
            self.iota.flags.writeable = False
        return self.iota[:k]


_SCRATCH = _Scratch()

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
def _stencil(widths: tuple, reach: float) -> np.ndarray:
    """Half stencil of columns along z, as rows of xy cell offsets (dx, dy)
    within +-_CELL_REACH: the own column (0, 0) first, then the half plane
    dx > 0 or dx = 0 < dy, less the columns whose nearest corner lies beyond
    ``reach`` for cells ``widths`` wide in x and y (zero widths keep all).
    Cached, as the cell rarely changes from frame to frame; read-only.
    """
    dx, dy = np.mgrid[0 : _CELL_REACH + 1, -_CELL_REACH : _CELL_REACH + 1].reshape(2, -1)
    gx = np.maximum(dx - 1, 0) * widths[0]
    gy = np.maximum(np.abs(dy) - 1, 0) * widths[1]
    columns = np.stack([dx, dy], axis=1)[((dx > 0) | (dy >= 0)) & (gx**2 + gy**2 <= reach**2)]
    columns.flags.writeable = False
    return columns


class _CellGrid(NamedTuple):
    """Linked cells over a frame: cell index = floor((s - lo) * scale)."""

    shape: np.ndarray  # cells along each axis
    columns: np.ndarray  # half stencil of xy cell offsets, see _stencil
    lo: np.ndarray  # reduced coordinates of the grid's corner
    scale: np.ndarray  # cells per unit of reduced coordinate
    periodic: np.ndarray  # axes along which the grid wraps
    widths: np.ndarray  # x and y cell widths in z cell heights; 0 if not orthogonal
    reach: float  # the search radius in z cell heights


def _cell_grid(pos: np.ndarray, cell: CellTensor, rc: float) -> _CellGrid | None:
    """Lay linked cells for pairs closer than ``rc`` over the frame, or
    return None where the cell search cannot be used.

    ``pos`` are reduced coordinates, unwrapped or not.  Cells too thin to
    hold 2 * _CELL_REACH + 1 cells rc / _CELL_REACH high along a periodic
    axis get no grid: this keeps the single-image semantics of the
    minimum-image fold when rmax exceeds ``cell.min_image_cutoff``.
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
    # A slab thinner than a z cell, a flat one too, is one z cell high.
    extent = np.maximum(extent, reach / (_Z_CELLS * cell.heights))
    if (np.floor(cell.heights[periodic] * _CELL_REACH / reach) < 2 * _CELL_REACH + 1).any():
        return None
    split = np.array([_CELL_REACH, _CELL_REACH, _Z_CELLS])
    shape = np.clip(np.floor(extent * cell.heights * split / reach), 1, _MAX_CELLS)
    # A window spans at most 2 * _Z_CELLS + 1 cells; a periodic z keeps as
    # many, so that no window meets a molecule twice, through a ghost copy.
    thinnest = np.where(periodic, 2 * split + 1, 1)
    entries = shape.prod() * (1.0 + 2 * _Z_CELLS * periodic[2] / shape[2])
    budget = max(_CELLS_PER_MOLECULE * len(pos), _TABLE_CELLS)
    if entries > budget:
        shape = np.maximum(np.floor(shape * (budget / entries) ** (1 / 3)), thinnest)
    shape = shape.astype(np.int64)
    edges = extent * cell.heights / shape
    m = cell.matrix
    orthogonal = not (m[0, 1] or m[0, 2] or m[1, 0] or m[1, 2] or m[2, 0] or m[2, 1])
    widths = edges[:2] if orthogonal else np.zeros(2)
    columns = _stencil(tuple(widths.tolist()), reach)
    z_edge = edges[2]
    return _CellGrid(shape, columns, lo, shape / extent, periodic, widths / z_edge, reach / z_edge)


def _search_pays(n: int, columns: int, work: float = 0.0) -> bool:
    """Whether a column search over n molecules and ``columns`` stencil
    columns beats testing all pairs: its setup, one row per molecule and
    column, and ``work`` pair tests' worth of candidates and table entries
    must cost less than the n (n - 1) / 2 pairs."""
    return _SEARCH_SETUP + _ROW_COST * n * columns + work <= n * (n - 1) / 2


def _cell_search_pays(n: int, grid: _CellGrid) -> bool:
    """Whether the column search over ``grid`` is expected to beat testing
    all pairs.

    Molecules spread evenly over the cells meet, in each column, the cells
    of a window 2h + 1 cells long on average, h as seen from the middle of
    their own cell, and half of that in their own column; the cell table
    holds an entry per cell, ghost cells included.
    """
    nx, ny, nz = grid.shape.tolist()
    gaps = np.maximum(np.abs(grid.columns) - 0.5, 0.0) * grid.widths
    h2 = grid.reach**2 - (gaps**2).sum(axis=1)
    cells = np.where(h2 >= 0.0, 2.0 * np.sqrt(np.maximum(h2, 0.0)) + 1.0, 0.0)
    candidates = n * (n - 1) / 2 * (2.0 * cells.sum() - cells[0]) / (nx * ny * nz)
    entries = nx * ny * (nz + 2 * _Z_CELLS * bool(grid.periodic[2]))
    return _search_pays(n, len(grid.columns), candidates + _ENTRY_COST * entries)


def _cell_pairs(pos: np.ndarray, grid: _CellGrid):
    """Candidate pairs of a linked-cell grid, in cell-sorted order.

    Returns ``(slots, chunks)``: slot k of the sorted order holds molecule
    ``slots[k]``, and ``chunks`` yields index arrays (i, j) of slots, in
    chunks of bounded size, that hold every pair of neighbouring molecules
    once.

    Molecules are sorted by cell, z fastest, so the cells of a column are
    one run of slots.  Each molecule gets one row per column of the half
    stencil: the molecules of the cells that its own z window meets there,
    z +- sqrt(rc^2 - g^2) for the xy gap g between the molecule and the
    column (taken as 0 in a non-orthogonal cell); in its own column, only
    the slots after its own.  Along a periodic z every column gets _Z_CELLS
    ghost cells at each end, copies of the cells that wrap there, so a window
    is one run of slots across the boundary too; the slab normal is never
    wrapped and its windows are clipped instead.
    """
    shape, periodic, columns = grid.shape, grid.periodic, grid.columns
    nx, ny, nz = shape.tolist()
    place = (pos - grid.lo) * grid.scale
    cells = np.floor(place)
    if not periodic[2]:
        np.minimum(cells[:, 2], nz - 1, out=cells[:, 2])  # a point on the slab's top face
    place -= cells  # where each molecule sits in its cell, 0 to 1
    cells = cells.astype(np.int64) % shape
    ghost = _Z_CELLS if periodic[2] else 0
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
    # A row's column in the table, as a term per axis looked up by the
    # molecule's own cell; x and y always wrap.  Rows are (column, molecule),
    # so that every pass runs along molecules.
    dx, dy = columns.T
    x_term = (np.arange(nx) + dx[:, None]) % nx * (ny * height)
    y_term = (np.arange(ny) + dy[:, None]) % ny * height
    offsets = np.arange(-_CELL_REACH, _CELL_REACH + 1)[:, None] + 0.5
    real = np.flatnonzero(order < n)  # the slots that are not copies
    where, place = (np.ascontiguousarray(a[slots[real]].T) for a in (cells, place))
    z = where[2] + place[2]
    bottom = np.maximum(where[2] - _Z_CELLS, 0)
    top = np.minimum(where[2] + _Z_CELLS, height - 1)
    # Rows for _CHUNK_PAIRS / 8 (column, molecule) pairs at a time, about
    # 4000: a block's row arrays are then 32 KiB, which the heap reuses from
    # block to block, and its candidates about one chunk (a liquid's rows
    # hold 8 to 9 each).  Row arrays for a whole frame took three times as
    # long per row, faulting in fresh pages.
    per_block = max(1, _CHUNK_PAIRS // (8 * len(columns)))

    def chunks():
        for p0 in range(0, n, per_block):
            block = slice(p0, p0 + per_block)
            s = real[block]
            # Squared x and y gaps to the cells -3..3 away, in z cells.
            gaps = np.maximum(np.abs(offsets - place[:2, None, block]) - 0.5, 0.0)
            gaps *= grid.widths[:, None, None]
            gaps *= gaps
            h2 = grid.reach**2 - gaps[0, dx + _CELL_REACH]
            h2 -= gaps[1, dy + _CELL_REACH]
            # Half the window in z cells.  A column beyond reach gets -1/2:
            # z +- 1/2 then bound an empty window (the own cell below z = 1/2).
            h = np.sqrt(h2, out=np.full_like(h2, -0.5), where=h2 >= 0.0)
            base = x_term[:, where[0, block]]
            base += y_term[:, where[1, block]]
            # Its first and last cells: truncation floors, as z - h < 0 only
            # where the clip to the bottom applies.
            first = np.subtract(z[block], h).astype(np.int64)
            np.maximum(first, bottom[block], out=first)
            end = np.add(z[block], h, out=h).astype(np.int64)
            np.minimum(end, top[block], out=end)
            first += base
            end += base
            first = table[first]
            first[0] = s + 1
            sizes = table[1:][end]
            sizes -= first
            yield from _expand_rows(np.tile(s, len(columns)), first.ravel(), sizes.ravel())

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
            j = np.repeat(shift, size)
            j += _SCRATCH.arange(total)
            yield i, j
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

    CentreOfMassError is raised, before anything is counted or warned, for a
    centre of mass that is not finite (a NaN distance passes no bin test) or
    more than 2^20 of the cell's smallest heights from the origin along an
    axis (the fold would give it distance 0 to every molecule).
    """
    coms = np.asarray(coms, dtype=float)
    types = np.asarray(types, dtype=np.int64)
    if coms.ndim != 2 or coms.shape[1] != 3 or len(types) != len(coms):
        raise ValueError("types and coms must be matching (n,) and (n, 3) arrays")
    limit = _FAR_HEIGHTS * min(cell.heights.tolist())
    if not (np.abs(coms).max(initial=0.0) <= limit):  # NaN and inf fail too
        where = (f"more than {limit:.6g} A (2^20 cell heights) from the origin"
                 if np.isfinite(coms).all() else "not finite")
        raise CentreOfMassError(f"a centre of mass is {where}")
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
    folded = cell.n_periodic
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
    # One row per axis: a chunk's three rows of d are one gather.
    axes = np.ascontiguousarray(pos.T)
    # Histogram key of a pair (i, j): key_i[i] + key_j[j] + bin, with one
    # overflow bin past the last per pair of types, for the pairs that the
    # prefilter keeps but that get no bin.  A pair may come as (i, j) or as
    # (j, i): the fold, the cell product and r^2 are exactly odd or even in
    # d, and the counts are symmetrised below.
    key_j = types * (nbins + 1)
    key_i = key_j * hist.n_types
    flat = np.zeros(hist.n_types**2 * (nbins + 1), dtype=np.int64)
    for i_arr, j_arr in chunks:
        k = len(i_arr)
        # This thread's scratch: d in the first (3, k) block, then the
        # squares, r^2 and r; the fold in the second, then the cell product,
        # then the bins and keys as integers.
        buf, ints, mask = _SCRATCH.rows(k)
        d = buf[: 3 * k].reshape(3, k)
        e = buf[3 * k : 6 * k].reshape(3, k)
        # Every index is in range; mode="clip" lets take write straight into
        # ``out``, where the default mode writes through a buffer.
        axes.take(j_arr, axis=1, out=d, mode="clip")
        d -= axes.take(i_arr, axis=1, out=e, mode="clip")
        f = d[:folded]
        f -= nint(f, out=e[:folded])
        # The transpose of d.T @ m, with the same sums.
        np.matmul(m.T, d, out=e)
        # Same sums in the same order as np.linalg.norm(d, axis=0), so the
        # same bits, without its slow length-3 reduction per pair.
        r2, y2, z2 = np.multiply(e, e, out=d)
        r2 += y2
        r2 += z2
        near = np.less_equal(r2, r2_max, out=mask[:k]).nonzero()[0]
        n_near = len(near)
        r = r2.take(near, out=y2[:n_near], mode="clip")
        np.sqrt(r, out=r)
        r /= dr
        # Acceptance is by bin, not by raw distance: a pair counts whenever
        # its bin exists, so the shell around rmax itself fills completely
        # instead of being cut in half at the boundary.  For r >= 0,
        # truncating r / dr + 1/2 is nint(r / dr).  A pair past the last
        # bin goes to the overflow bin.
        r += 0.5
        idx = ints[3 * k : 3 * k + n_near]
        key = ints[4 * k : 4 * k + n_near]
        tmp = ints[5 * k : 5 * k + n_near]
        np.copyto(idx, r, casting="unsafe")
        np.minimum(idx, nbins, out=idx)
        key_i.take(i_arr.take(near, out=tmp, mode="clip"), out=key, mode="clip")
        key += idx
        key_j.take(j_arr.take(near, out=tmp, mode="clip"), out=idx, mode="clip")
        key += idx
        binned = np.bincount(key)
        flat[: binned.size] += binned
    # The overflow bins are dropped here.
    counts = flat.reshape(hist.n_types, hist.n_types, nbins + 1)[..., :nbins]
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
    a, b = np.array(labels).T
    count = np.array([mol.count for mol in topology.molecules])

    nbins = hist.counts.shape[2]
    h_mean = hist.counts[a, b] / (hist.frames_used * count[a])[:, None]
    g = h_mean / (shell_volumes(nbins, hist.dr) * (count[b] / mean_volume)[:, None])
    pop = np.cumsum(h_mean, axis=1)

    if smooth:
        g = smooth_curve(g)

    return RdfTable(
        pair_labels=tuple((a + 1, b + 1) for a, b in labels),
        bin_centers=np.arange(nbins) * hist.dr,
        g=g,
        pop=pop,
        mean_volume=mean_volume,
    )
