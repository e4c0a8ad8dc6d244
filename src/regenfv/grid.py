"""Zero-flux finite-volume operators on the uniform cell-centered mesh.

This module holds the operators only; the mesh itself, ``Grid``, lives in
``regenfv.config``, so that parsing a configuration loads neither this module
nor numpy. Fields are plain float64 arrays of shape ``grid.shape`` (one value
per cell). Every transport operator below is assembled in flux form with a
vanishing flux on boundary faces, so its domain integral telescopes to zero
exactly. Ghost values are mirror reflections, which makes the discrete normal
derivative vanish at every boundary face. The operators act on the trailing
``grid.dim`` axes; leading axes pass through, so a stacked ``(k, *shape)``
input gives row by row the single-field results.

The face helpers work on the grid's N cells in C order, one flat trailing
axis. An axis whose neighbouring cells lie s flat cells apart (its stride:
(ny, 1) in 2D, (1,) in 1D) has a face array of N + s faces, face k lying
between flat cells k - s and k; its first and last s faces are the boundary
faces. So each helper makes one contiguous ``[s:]``/``[:-s]`` pass over the
flat axis, also along the last axis of a 2D grid, where rows of ny cells are
short. That pass also crosses from the end of one grid row to the start of
the next, at faces ny, 2 ny, ..., (nx - 1) ny. Such a face stands for the
boundary faces of both rows, so each helper that writes faces resets it to
+0.0, the value of every other boundary face: what it computed there pairs
cells that are not neighbours, and an upwind flux of +0.0 speed times a -0.0
density would leave -0.0, whose sign a cell's divergence would then carry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from .config import Grid


def integrate(grid: Grid, f: np.ndarray) -> float:
    """Discrete integral over the domain: sum of cell values times cell volume."""
    return float(np.sum(f) * grid.cell_volume)


def _axes(grid: Grid) -> tuple[tuple[int, Optional[slice], float], ...]:
    """(s, cross, 1/h) per axis: its stride s in flat cells, the slice of its
    row-crossing faces (None where no face crosses) and 1/h."""
    if grid.dim == 1:
        return ((1, None, 1.0 / grid.spacing[0]),)
    ny = grid.cells[1]
    return ((ny, None, 1.0 / grid.spacing[0]), (1, slice(ny, grid.n_cells, ny), 1.0 / grid.spacing[1]))


def _flat(grid: Grid, f: np.ndarray) -> np.ndarray:
    """f with its grid axes merged into one flat axis of N cells."""
    return f.reshape(*f.shape[:f.ndim - grid.dim], grid.n_cells)


def _cells(grid: Grid, f: np.ndarray) -> np.ndarray:
    """The inverse of ``_flat``: the flat cell axis split into the grid axes."""
    return f.reshape(*f.shape[:-1], *grid.shape)


def _face_diffs(f: np.ndarray, s: int, cross: Optional[slice], inv_h: float, out=None) -> np.ndarray:
    """Face differences (f_k - f_(k-s))/h along one axis, as a face array;
    ``out`` may be a face array whose boundary faces are zero."""
    if out is None:
        out = np.zeros((*f.shape[:-1], f.shape[-1] + s))
    inner = np.subtract(f[..., s:], f[..., :-s], out=out[..., s:-s])
    inner *= inv_h
    if cross is not None:
        out[..., cross] = 0.0
    return out


def _upwind_flux(v: np.ndarray, c: np.ndarray, s: int, cross: Optional[slice], out: np.ndarray) -> np.ndarray:
    """Into the face array ``out``, the flux v * c with c taken from the cell
    upwind of the face velocity v (a face array)."""
    inner = v[..., s:-s]
    np.multiply(inner, np.where(inner > 0, c[..., :-s], c[..., s:]), out=out[..., s:-s])
    if cross is not None:
        out[..., cross] = 0.0
    return out


def _cell_means(faces: np.ndarray, s: int) -> np.ndarray:
    """Per cell, the mean of its two values in the face array ``faces``."""
    out = np.add(faces[..., s:], faces[..., :-s])
    out *= 0.5
    return out


def _flux_divergence(axis_faces) -> np.ndarray:
    """Sum over axes of the cell differences of face arrays, over h; with zero
    boundary faces, the zero-flux divergence. ``axis_faces`` yields
    (face array, s, 1/h) per axis."""
    out = None
    for faces, s, inv_h in axis_faces:
        term = np.subtract(faces[..., s:], faces[..., :-s])
        term *= inv_h
        out = term if out is None else np.add(out, term, out=out)
    return out


def laplacian_neumann(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Second-order Laplacian with mirrored ghosts (zero-flux faces).

    Flux form: boundary face gradients are exactly zero, so
    ``integrate(grid, laplacian_neumann(grid, f)) == 0`` to rounding.
    """
    flat = _flat(grid, f)
    return _cells(grid, _flux_divergence((_face_diffs(flat, s, cross, inv_h), s, inv_h)
                                         for s, cross, inv_h in _axes(grid)))


def gradient_sq(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Cellwise |grad f|^2: per axis, the mean of the two squared face differences.

    Boundary faces contribute zero (mirror ghosts), so a constant field maps
    to the zero field exactly.
    """
    flat = _flat(grid, f)
    return _cells(grid, sum(_cell_means(_face_diffs(flat, s, cross, inv_h) ** 2, s)
                            for s, cross, inv_h in _axes(grid)))


def gradient_components(grid: Grid, f: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cellwise gradient vector: per axis, the mean of the two face differences."""
    flat = _flat(grid, f)
    return tuple(_cells(grid, _cell_means(_face_diffs(flat, s, cross, inv_h), s))
                 for s, cross, inv_h in _axes(grid))
