"""Make molecules whole across periodic boundaries and take their centres of mass.

Trajectory positions are wrapped into the cell site by site, so a molecule
straddling a boundary appears torn apart.  All copies of a molecule type share
one site layout, so they are mended together, in one in-order pass over the
site axis of a ``(count, n_sites, 3)`` array: each bond between consecutive
sites is folded to its minimum image in reduced coordinates, and every site
is moved by the whole lattice vectors folded out of the bonds before it.  The
first site stays put, so a molecule that needed no fold keeps its input
positions exactly.  There is no repeat sweep: after the pass every bond is
already its minimum image.

Limit: a bond whose true length exceeds half the cell cannot be recovered
from wrapped positions, because the minimum image of any bond is at most half
a cell long.  Such a bond is folded to the wrong image and the molecule's
centre of mass comes out wrong, without notice.  The molecule as a whole may
span more than half the cell, as long as every bond between consecutive
sites (in FIELD order) stays below half.
"""

from __future__ import annotations

import numpy as np

from .geometry import CellTensor, nint, to_reduced


def unfold(positions: np.ndarray, cell: CellTensor) -> np.ndarray:
    """Return the copies of one molecule type with all their sites on one image.

    ``positions`` is ``(count, n_sites, 3)`` in Angstrom, one row per copy,
    sites in declaration order.  In the result every site differs from its
    input by a whole lattice vector, and every bond between consecutive
    sites is its minimum image.  When nothing needs a fold (always so for
    single-site molecules) the input array itself comes back.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 3 or positions.shape[2] != 3:
        raise ValueError(f"positions must be (count, n_sites, 3), got {positions.shape}")
    folds = nint(np.diff(to_reduced(positions, cell), axis=1))
    folds *= cell.periodic
    if not folds.any():
        return positions
    whole = positions.copy()
    whole[:, 1:] -= np.cumsum(folds, axis=1) @ cell.matrix
    return whole


def centers_of_mass(
    positions: np.ndarray, masses: np.ndarray, cell: CellTensor
) -> np.ndarray | None:
    """Centres of mass ``(count, 3)`` of the whole copies of one molecule type.

    ``positions`` is ``(count, n_sites, 3)`` as for :func:`unfold` and
    ``masses`` holds one non-negative mass per site.  Returns None when the
    type carries no mass.  Massless sites still link the chain while the
    molecule is mended but carry no weight here.  The copies may come from
    several frames that share ``cell``, stacked along the first axis: each
    copy's row has the bits that a call on its own frame gives.
    """
    masses = np.asarray(masses, dtype=float)
    if masses.min(initial=0.0) < 0.0:
        raise ValueError("site masses must be non-negative")
    total = masses.sum()
    if total <= 0.0:
        return None
    return (masses @ unfold(positions, cell)) / total
