"""Uniform cell-centered rectangular mesh and zero-flux finite-volume operators.

Fields are plain float64 arrays of shape ``grid.shape`` (one value per cell).
Every transport operator below is assembled in flux form with a vanishing
flux on boundary faces, so its domain integral telescopes to zero exactly.
Ghost values are mirror reflections, which makes the discrete normal
derivative vanish at every boundary face. The operators act on the trailing
``grid.dim`` axes; leading axes pass through, so a stacked ``(k, *shape)``
input gives row by row the single-field results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform 1D/2D cell-centered mesh with zero-flux faces.

    ``cells`` and ``lengths`` are per-axis tuples; at least 3 cells per axis.
    """

    cells: tuple[int, ...]
    lengths: tuple[float, ...]
    spacing: tuple[float, ...] = field(init=False)
    n_cells: int = field(init=False, repr=False)
    cell_volume: float = field(init=False, repr=False)
    measure: float = field(init=False, repr=False)  # domain measure |Omega|

    def __post_init__(self):
        if len(self.cells) not in (1, 2):
            raise ValueError("grid dimension must be 1 or 2")
        if len(self.lengths) != len(self.cells):
            raise ValueError("cells and lengths must have matching dimension")
        if any(n < 3 for n in self.cells):
            raise ValueError("need at least 3 cells per axis")
        if any(L <= 0 for L in self.lengths):
            raise ValueError("domain lengths must be positive")
        spacing = tuple(L / n for L, n in zip(self.lengths, self.cells))
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "n_cells", math.prod(self.cells))
        object.__setattr__(self, "cell_volume", math.prod(spacing))
        object.__setattr__(self, "measure", math.prod(self.lengths))

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    def axis_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def coordinate_arrays(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays broadcast to the grid shape."""
        axes = [self.axis_centers(a) for a in range(self.dim)]
        if self.dim == 1:
            return (axes[0],)
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def field(self, values) -> np.ndarray:
        """Build a cell field from a scalar or array; rejects non-finite data."""
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 0:
            arr = np.full(self.shape, float(arr))
        if arr.shape != self.shape:
            raise ValueError(f"field shape {arr.shape} does not match grid {self.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("field contains non-finite values")
        return arr.copy()


def integrate(grid: Grid, f: np.ndarray) -> float:
    """Discrete integral over the domain: sum of cell values times cell volume."""
    return float(np.sum(f) * grid.cell_volume)


# Index tuples per axis, keyed by the number of grid axes after it, so the
# operators act on trailing axes (leading batch axes pass through).
def _along(sl: slice) -> tuple[tuple, tuple]:
    return (Ellipsis, sl), (Ellipsis, sl, slice(None))


_HI, _LO = _along(slice(1, None)), _along(slice(None, -1))
_MID, _FIRST, _LAST = _along(slice(1, -1)), _along(slice(None, 1)), _along(slice(-1, None))


def _face_diffs(f: np.ndarray, back: int, inv_h: float) -> np.ndarray:
    """Interior-face differences (f_right - f_left)/h along one axis."""
    out = f[_HI[back]] - f[_LO[back]]
    out *= inv_h
    return out


def _cell_pairs(faces: np.ndarray, back: int, op) -> np.ndarray:
    """Per cell, op(right face value, left face value); boundary faces hold zero.

    With ``np.subtract`` this is the zero-boundary-flux cell difference, with
    ``np.add`` the sum of the two face values.
    """
    shape = list(faces.shape)
    shape[-1 - back] += 1
    out = np.empty(shape)
    op(faces[_HI[back]], faces[_LO[back]], out=out[_MID[back]])
    op(faces[_FIRST[back]], 0.0, out=out[_FIRST[back]])
    op(0.0, faces[_LAST[back]], out=out[_LAST[back]])
    return out


def _cell_means(faces: np.ndarray, back: int) -> np.ndarray:
    """Per cell, the mean of its two face values; boundary faces hold zero."""
    out = _cell_pairs(faces, back, np.add)
    out *= 0.5
    return out


def _axes(grid: Grid):
    """(back, 1/h) per axis, ``back`` counting the grid axes after it."""
    return ((grid.dim - 1 - axis, 1.0 / h) for axis, h in enumerate(grid.spacing))


def _flux_divergence(grid: Grid, face_flux) -> np.ndarray:
    """Sum over axes of the cell difference of ``face_flux(back, inv_h)``, over h."""
    out = None
    for back, inv_h in _axes(grid):
        term = _cell_pairs(face_flux(back, inv_h), back, np.subtract)
        term *= inv_h
        out = term if out is None else np.add(out, term, out=out)
    return out


def laplacian_neumann(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Second-order Laplacian with mirrored ghosts (zero-flux faces).

    Flux form: boundary face gradients are exactly zero, so
    ``integrate(grid, laplacian_neumann(grid, f)) == 0`` to rounding.
    """
    return _flux_divergence(grid, lambda back, inv_h: _face_diffs(f, back, inv_h))


def taxis_divergence(grid: Grid, c: np.ndarray, s: np.ndarray, coeff) -> np.ndarray:
    """Finite-volume divergence of the taxis flux coeff*c*grad(s), coeff >= 0.

    Face velocities are central-differenced; the advected value c is taken
    from the upwind cell, which preserves c >= 0 under the advective CFL
    bound. Boundary faces carry zero flux. For stacked ``(k, *shape)`` inputs
    ``coeff`` may be a ``(k, 1, ...)`` column of per-row coefficients.
    """
    def flux(back, inv_h):
        v = _face_diffs(s, back, inv_h)
        v *= coeff
        return np.multiply(v, np.where(v > 0, c[_LO[back]], c[_HI[back]]), out=v)

    return _flux_divergence(grid, flux)


def gradient_sq(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Cellwise |grad f|^2: per axis, the mean of the two squared face differences.

    Boundary faces contribute zero (mirror ghosts), so a constant field maps
    to the zero field exactly.
    """
    return sum(_cell_means(_face_diffs(f, back, inv_h) ** 2, back) for back, inv_h in _axes(grid))


def gradient_components(grid: Grid, f: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cellwise gradient vector: per axis, the mean of the two face differences."""
    return tuple(_cell_means(_face_diffs(f, back, inv_h), back) for back, inv_h in _axes(grid))


def max_face_speed(grid: Grid, s: np.ndarray, coeff) -> tuple[np.ndarray, ...]:
    """Per-axis maximum of |coeff * face gradient of s| (advective CFL input).

    Per axis, an array of the row maxima over the leading axes of ``s``
    (0-d for one field); ``coeff`` as in ``taxis_divergence``.
    """
    grid_axes, lead = tuple(range(-grid.dim, 0)), np.shape(s)[: -grid.dim]
    return tuple(
        (coeff * np.abs(_face_diffs(s, back, inv_h)).max(grid_axes, keepdims=True)).reshape(lead)
        for back, inv_h in _axes(grid)
    )
