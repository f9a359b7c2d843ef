"""Small shared numerical helpers."""

from __future__ import annotations

import numpy as np


def grid_points(axes) -> np.ndarray:
    """Stacked points (prod of axis sizes, d) of a tensor grid, "ij" order."""
    if len(axes) == 1:
        return axes[0][:, None]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def hermitian_deviation(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - np.conj(np.swapaxes(m, -1, -2)))))


def loglog_fit(x, y):
    """Least-squares slope of log y vs log x.

    Returns (slope, intercept, stderr) where stderr is the standard error
    of the slope estimate.
    """
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    if lx.size < 2:
        raise ValueError("need at least two points for a fit")
    n = lx.size
    mx = lx.mean()
    sxx = np.sum((lx - mx) ** 2)
    slope = np.sum((lx - mx) * (ly - ly.mean())) / sxx
    intercept = ly.mean() - slope * mx
    resid = ly - (intercept + slope * lx)
    if n > 2:
        stderr = float(np.sqrt(np.sum(resid**2) / (n - 2) / sxx))
    else:
        stderr = 0.0
    return float(slope), float(intercept), stderr


def central_time_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Central differences along axis 0, second-order one-sided at the ends."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dt)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dt)
    return out


def grid_derivative(values: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Central differences on a uniform grid along ``axis``."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    if v.shape[0] < 3:
        raise ValueError("need at least three grid points")
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)
