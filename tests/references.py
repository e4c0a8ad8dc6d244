"""What the tests measure the library against: the single-field taxis
divergence, written axis by axis without the library's face helpers, the
reference that the fused step must match bit for bit, the stability bound
and capped dt of one state, taken through the step core's own
``_faces_and_bounds`` and ``_capped_dt``, and the text reader of one
``snap_<index>.csv``, against which ``trajectory.npy`` is checked."""

import numpy as np

from regenfv import stepping
from regenfv.config import Grid


def taxis_divergence(grid: Grid, c: np.ndarray, s: np.ndarray, coeff) -> np.ndarray:
    """Finite-volume divergence of the taxis flux coeff*c*grad(s), coeff >= 0.

    Face velocities are central-differenced; the advected value c is taken
    from the upwind cell, which preserves c >= 0 under the advective CFL
    bound. Boundary faces carry zero flux. For stacked ``(k, *shape)`` inputs
    ``coeff`` may be a ``(k, 1, ...)`` column of per-row coefficients.
    Written axis by axis: the axis is moved last, its n - 1 interior face
    fluxes are padded with a zero flux at either end, and the cell
    differences are moved back.
    """
    out = None
    for axis, h in enumerate(grid.spacing, start=-grid.dim):  # the grid axes trail any stacked ones
        inv_h = 1.0 / h
        cl, sl = np.moveaxis(c, axis, -1), np.moveaxis(s, axis, -1)
        v = (sl[..., 1:] - sl[..., :-1]) * inv_h * coeff
        flux = v * np.where(v > 0, cl[..., :-1], cl[..., 1:])
        padded = np.pad(flux, [(0, 0)] * (flux.ndim - 1) + [(1, 1)])
        term = np.moveaxis(np.diff(padded) * inv_h, -1, axis)
        out = term if out is None else out + term
    return out


def stability_bound(state, p):
    """Raw stability bound of one state: min of the diffusion (2D only), advection and reaction limits."""
    return stepping._faces_and_bounds(state.u.reshape(1, 4, -1), stepping._batch((p,), state.grid))[1][0]


def stable_dt(state, p, ctrl):
    """Largest admissible dt: cfl_safety times the stability bound, capped by
    dt_max; raises StabilityError when that is not finite and positive."""
    return stepping._capped_dt(stability_bound(state, p), ctrl, state.t)


def snapshot_state(path, grid: Grid) -> np.ndarray:
    """The ``(4, *grid.shape)`` state of one ``snap_<index>.csv``, read with
    ``np.loadtxt`` as ``weakcheck`` read it before ``trajectory.npy``. The
    file must hold one row per cell of ``grid`` with its cell centers, which
    ``repr`` text gives back exactly."""
    data = np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))
    assert data.shape == (grid.n_cells, grid.dim + 4), (path, data.shape)
    assert np.array_equal(data[:, :grid.dim], np.column_stack([c.ravel() for c in grid.coordinate_arrays()]))
    return np.ascontiguousarray(data[:, grid.dim:].T).reshape(4, *grid.shape)
