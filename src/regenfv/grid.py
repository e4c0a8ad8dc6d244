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
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import Grid


def integrate(grid: Grid, f: np.ndarray) -> float:
    """Discrete integral over the domain: sum of cell values times cell volume."""
    return float(np.sum(f) * grid.cell_volume)


# Index tuples per axis, keyed by the number of grid axes after it, so the
# operators act on trailing axes (leading batch axes pass through).
def _along(sl: slice) -> tuple[tuple, tuple]:
    return (Ellipsis, sl), (Ellipsis, sl, slice(None))


_HI, _LO, _MID = _along(slice(1, None)), _along(slice(None, -1)), _along(slice(1, -1))


# A face array holds along its axis all n + 1 faces of the n cells. Its two
# boundary faces stay zero: zero flux, and zero gradient between mirrored ghosts.
def _face_diffs(f: np.ndarray, back: int, inv_h: float, out=None) -> np.ndarray:
    """Face differences (f_right - f_left)/h along one axis, as a face array;
    ``out`` may be a face array whose boundary faces are zero."""
    if out is None:
        shape = list(f.shape)
        shape[-1 - back] += 1
        out = np.zeros(shape)
    inner = np.subtract(f[_HI[back]], f[_LO[back]], out=out[_MID[back]])
    inner *= inv_h
    return out


def _upwind_flux(v: np.ndarray, c: np.ndarray, back: int, out: np.ndarray) -> np.ndarray:
    """Into the face array ``out``, the flux v * c with c taken from the cell
    upwind of the face velocity v (a face array)."""
    inner = v[_MID[back]]
    np.multiply(inner, np.where(inner > 0, c[_LO[back]], c[_HI[back]]), out=out[_MID[back]])
    return out


def _cell_means(faces: np.ndarray, back: int) -> np.ndarray:
    """Per cell, the mean of its two values in the face array ``faces``."""
    out = np.add(faces[_HI[back]], faces[_LO[back]])
    out *= 0.5
    return out


def _axes(grid: Grid):
    """(back, 1/h) per axis, ``back`` counting the grid axes after it."""
    return ((grid.dim - 1 - axis, 1.0 / h) for axis, h in enumerate(grid.spacing))


def _flux_divergence(axis_faces) -> np.ndarray:
    """Sum over axes of the cell differences of face arrays, over h; with zero
    boundary faces, the zero-flux divergence. ``axis_faces`` yields
    (face array, back, 1/h) per axis."""
    out = None
    for faces, back, inv_h in axis_faces:
        term = np.subtract(faces[_HI[back]], faces[_LO[back]])
        term *= inv_h
        out = term if out is None else np.add(out, term, out=out)
    return out


def laplacian_neumann(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Second-order Laplacian with mirrored ghosts (zero-flux faces).

    Flux form: boundary face gradients are exactly zero, so
    ``integrate(grid, laplacian_neumann(grid, f)) == 0`` to rounding.
    """
    return _flux_divergence((_face_diffs(f, back, inv_h), back, inv_h) for back, inv_h in _axes(grid))


def gradient_sq(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Cellwise |grad f|^2: per axis, the mean of the two squared face differences.

    Boundary faces contribute zero (mirror ghosts), so a constant field maps
    to the zero field exactly.
    """
    return sum(_cell_means(_face_diffs(f, back, inv_h) ** 2, back) for back, inv_h in _axes(grid))


def gradient_components(grid: Grid, f: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cellwise gradient vector: per axis, the mean of the two face differences."""
    return tuple(_cell_means(_face_diffs(f, back, inv_h), back) for back, inv_h in _axes(grid))

