"""Uniform cell-centered rectangular mesh and zero-flux finite-volume operators.

Fields are plain float64 arrays of shape ``grid.shape`` (one value per cell).
Every transport operator below is assembled in flux form with a vanishing
flux on boundary faces, so its domain integral telescopes to zero exactly.
Ghost values are mirror reflections, which makes the discrete normal
derivative vanish at every boundary face.
"""

from __future__ import annotations

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

    def __post_init__(self):
        if len(self.cells) not in (1, 2):
            raise ValueError("grid dimension must be 1 or 2")
        if len(self.lengths) != len(self.cells):
            raise ValueError("cells and lengths must have matching dimension")
        if any(n < 3 for n in self.cells):
            raise ValueError("need at least 3 cells per axis")
        if any(L <= 0 for L in self.lengths):
            raise ValueError("domain lengths must be positive")
        object.__setattr__(
            self, "spacing", tuple(L / n for L, n in zip(self.lengths, self.cells))
        )

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cells))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def measure(self) -> float:
        """Domain measure |Omega|."""
        return float(np.prod(self.lengths))

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


def _face_diffs(grid: Grid, f: np.ndarray, axis: int) -> np.ndarray:
    """Interior-face differences (f_right - f_left)/h along one axis."""
    lo = _axis_slice(f, axis, slice(None, -1))
    hi = _axis_slice(f, axis, slice(1, None))
    return (hi - lo) * (1.0 / grid.spacing[axis])


def laplacian_neumann(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Second-order Laplacian with mirrored ghosts (zero-flux faces).

    Flux form: boundary face gradients are exactly zero, so
    ``integrate(grid, laplacian_neumann(grid, f)) == 0`` to rounding.
    """
    out = np.zeros_like(f, dtype=float)
    if not f.any():
        return out
    for axis in range(grid.dim):
        h = grid.spacing[axis]
        flux = _pad_faces(_face_diffs(grid, f, axis), axis)
        lo = _axis_slice(flux, axis, slice(None, -1))
        hi = _axis_slice(flux, axis, slice(1, None))
        out += (hi - lo) * (1.0 / h)
    return out


def _pad_faces(interior_flux: np.ndarray, axis: int) -> np.ndarray:
    """Prepend/append zero boundary-face values along one axis."""
    shape = list(interior_flux.shape)
    shape[axis] += 2
    out = np.zeros(shape)
    _axis_slice(out, axis, slice(1, -1))[...] = interior_flux
    return out


def taxis_divergence(grid: Grid, c: np.ndarray, s: np.ndarray, coeff: float) -> np.ndarray:
    """Finite-volume divergence of the taxis flux coeff*c*grad(s).

    Face velocities are central-differenced; the advected value c is taken
    from the upwind cell, which preserves c >= 0 under the advective CFL
    bound. Boundary faces carry zero flux.
    """
    if coeff < 0:
        raise ValueError("taxis coefficient must be nonnegative")
    if np.min(c) < 0:
        raise ValueError("advected field must be nonnegative")
    out = np.zeros_like(c, dtype=float)
    if coeff == 0.0 or not c.any():
        return out
    for axis in range(grid.dim):
        h = grid.spacing[axis]
        v = coeff * _face_diffs(grid, s, axis)
        left = _axis_slice(c, axis, slice(None, -1))
        right = _axis_slice(c, axis, slice(1, None))
        c_face = np.where(v > 0, left, right)
        flux = _pad_faces(v * c_face, axis)
        lo = _axis_slice(flux, axis, slice(None, -1))
        hi = _axis_slice(flux, axis, slice(1, None))
        out += (hi - lo) * (1.0 / h)
    return out


def _axis_slice(f: np.ndarray, axis: int, sl: slice) -> np.ndarray:
    idx = [slice(None)] * f.ndim
    idx[axis] = sl
    return f[tuple(idx)]


def gradient_sq(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Cellwise |grad f|^2: per axis, the mean of the two squared face differences.

    Boundary faces contribute zero (mirror ghosts), so a constant field maps
    to the zero field exactly.
    """
    out = np.zeros_like(f, dtype=float)
    for axis in range(grid.dim):
        g = _pad_faces(_face_diffs(grid, f, axis), axis)
        left = _axis_slice(g, axis, slice(None, -1))
        right = _axis_slice(g, axis, slice(1, None))
        out += 0.5 * (left**2 + right**2)
    return out


def gradient_components(grid: Grid, f: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cellwise gradient vector: per axis, the mean of the two face differences."""
    comps = []
    for axis in range(grid.dim):
        g = _pad_faces(_face_diffs(grid, f, axis), axis)
        left = _axis_slice(g, axis, slice(None, -1))
        right = _axis_slice(g, axis, slice(1, None))
        comps.append(0.5 * (left + right))
    return tuple(comps)


def max_face_speed(grid: Grid, s: np.ndarray, coeff: float) -> tuple[float, ...]:
    """Per-axis maximum of |coeff * face gradient of s| (advective CFL input)."""
    speeds = []
    for axis in range(grid.dim):
        g = _face_diffs(grid, s, axis)
        speeds.append(float(coeff * np.max(np.abs(g))) if g.size else 0.0)
    return tuple(speeds)
