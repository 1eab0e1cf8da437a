"""
Cell-tensor algebra for the periodic-boundary conventions of DL_POLY-style
simulation cells.

Rows of the cell matrix are the lattice vectors (``C[0] = a``, ``C[1] = b``,
``C[2] = c``) and positions are row vectors, so

- Cartesian from reduced: ``r = s @ C``
- reduced from Cartesian: ``s = r @ inv(C)``

Supported periodic-image convention codes (``imcon``):

====== ====================================================
1      cubic cell
2      orthorhombic cell
3      parallelepiped (triclinic) cell
6      slab: periodic along the first two lattice vectors only
====== ====================================================

:func:`nint` rounds halves away from zero (the Fortran NINT convention),
as ``trunc(x + copysign(0.5, x))``, so a reduced displacement component of
exactly +0.5 folds to -0.5 and -0.5 to +0.5.  Unfolding and the bin count
call it, as does the pair kernel's fold where rmax reaches near half a cell
height; short of that, the kernel folds with ``np.rint``, which gives the
same counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError

#: Relative tolerance used to check that cells declared cubic/orthorhombic
#: really are diagonal.
_SHAPE_TOL = 1e-6

#: The supported imcon codes, each with its periodic lattice directions.
_PERIODIC_AXES = {
    1: (True, True, True),
    2: (True, True, True),
    3: (True, True, True),
    6: (True, True, False),
}


def nint(x, out=None):
    """Nearest integer with halves rounded away from zero (Fortran NINT):
    trunc(x + copysign(0.5, x)), elementwise.

    As floats, so reduced coordinates can subtract it without casting;
    written into ``out`` if given, which must not overlap x.
    """
    x = np.asarray(x, dtype=float)
    out = np.copysign(0.5, x, out=np.empty_like(x) if out is None else out)
    out += x
    return np.trunc(out, out=out)


@dataclass(frozen=True, eq=False)
class CellTensor:
    """A 3x3 lattice matrix (rows are lattice vectors) plus its imcon code.

    The inverse and the volume are computed once at construction; a singular
    matrix, or one whose volume overflows, is rejected.  ``matrix`` and
    ``inverse`` are read-only, because one cell serves every frame that
    shares it; values derived from them are computed once per cell, on first
    use, and kept on the cell.
    """

    matrix: np.ndarray
    imcon: int
    inverse: np.ndarray = field(init=False)
    volume: float = field(init=False)  # |det(C)| in cubic Angstrom

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        if matrix.shape != (3, 3):
            raise InputError(f"cell matrix must be 3x3, got shape {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise InputError("cell matrix contains non-finite entries")
        if self.imcon not in _PERIODIC_AXES:
            raise InputError(
                f"unsupported periodic-boundary code imcon={self.imcon} "
                f"(supported: {sorted(_PERIODIC_AXES)})"
            )
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

        # A cell of huge rows overflows its volume; the check rejects it.
        with np.errstate(over="ignore"):
            det = float(np.linalg.det(matrix))
        if det == 0.0:
            raise InputError("singular cell tensor for a periodic cell")
        if not math.isfinite(det):
            raise InputError("cell volume overflows; the cell rows are too large")
        object.__setattr__(self, "volume", abs(det))
        inverse = np.linalg.inv(matrix)
        inverse.flags.writeable = False
        object.__setattr__(self, "inverse", inverse)

        scale = max(np.abs(matrix).max(), 1.0)
        off_diagonal = matrix[~np.eye(3, dtype=bool)]
        if self.imcon in (1, 2) and np.abs(off_diagonal).max() > _SHAPE_TOL * scale:
            raise InputError(f"imcon={self.imcon} requires a diagonal cell matrix")
        if self.imcon == 1:
            diag = np.diag(matrix)
            if np.abs(diag - diag[0]).max() > _SHAPE_TOL * scale:
                raise InputError("imcon=1 requires a cubic cell (equal diagonal)")

    @classmethod
    def cubic(cls, length: float) -> "CellTensor":
        return cls(np.diag([length, length, length]), imcon=1)

    @classmethod
    def orthorhombic(cls, lx: float, ly: float, lz: float) -> "CellTensor":
        return cls(np.diag([lx, ly, lz]), imcon=2)

    @cached_property
    def periodic(self) -> np.ndarray:
        """Boolean mask of the periodic lattice directions; read-only."""
        periodic = np.array(_PERIODIC_AXES[self.imcon])
        periodic.flags.writeable = False
        return periodic

    @cached_property
    def n_periodic(self) -> int:
        """The number of periodic lattice directions, which come first."""
        return sum(_PERIODIC_AXES[self.imcon])

    @cached_property
    def heights(self) -> np.ndarray:
        """Distance between the two faces of the cell spanned by the other two
        lattice vectors, one per lattice vector: ``1 / |inv(C)[:, k]|``.

        A displacement of Cartesian length r changes reduced coordinate k by at
        most ``r / h_k``.  Computed once per cell; the array is read-only.
        """
        heights = 1.0 / np.linalg.norm(self.inverse, axis=0)
        heights.flags.writeable = False
        return heights

    @cached_property
    def min_image_cutoff(self) -> float:
        """Largest pair distance for which the minimum-image fold is unbiased.

        Half the smallest perpendicular width of the cell over its periodic
        directions: the inscribed-sphere radius for fully periodic cells, the
        inscribed-circle radius of the (a, b) parallelogram for slabs.
        Computed once per cell.
        """
        if self.imcon == 6:
            a, b, _ = self.matrix
            area = np.linalg.norm(np.cross(a, b))
            return 0.5 * min(area / np.linalg.norm(a), area / np.linalg.norm(b))
        return 0.5 * float(self.heights.min())


def to_reduced(r: np.ndarray, cell: CellTensor) -> np.ndarray:
    """Convert Cartesian positions to reduced (fractional) coordinates.

    Parameters
    ----------
    r : np.ndarray, shape (3,) or (N, 3)
        Cartesian positions in Angstrom.
    cell : CellTensor
        The cell whose inverse maps the positions.

    Returns
    -------
    np.ndarray
        Reduced coordinates ``s = r @ inv(C)``; unbounded (unfolded values
        may lie outside [0, 1)).
    """
    return np.asarray(r, dtype=float) @ cell.inverse

