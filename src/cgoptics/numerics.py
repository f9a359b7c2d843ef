"""Small shared numerical helpers."""

from __future__ import annotations

import numpy as np


def grid_points(axes) -> np.ndarray:
    """Stacked points (prod of axis sizes, d) of a tensor grid, "ij" order."""
    if len(axes) == 1:
        return axes[0][:, None]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


class SingularStackError(np.linalg.LinAlgError):
    """``solve_stacked`` met an exactly singular system; ``first`` is the
    index of the first one in the stack."""

    def __init__(self, first: int):
        super().__init__(f"singular system at stack index {first}")
        self.first = first


def solve_stacked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b for real systems a (m, d, d) and right-hand sides
    b (m, d), real or complex.

    For d = 2 the solution is the adjugate over the determinant, a few
    array operations for the whole stack where ``np.linalg.solve`` makes one
    LAPACK call per system; it agrees with that solve to rounding times the
    condition number.  Other d use ``np.linalg.solve``.  An exactly zero
    determinant (for d != 2, a zero LU pivot) raises SingularStackError.
    """
    if a.shape[-1] != 2:
        try:
            return np.linalg.solve(a, b[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # the same LU as the solve: a zero pivot is a zero determinant
            raise SingularStackError(int(np.argmax(np.linalg.det(a) == 0))) from None
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    det = a00 * a11 - a01 * a10
    if not np.all(det):
        raise SingularStackError(int(np.argmax(det == 0)))
    x = np.empty(b.shape, dtype=np.result_type(a, b))
    # a is real: a complex right-hand side solves as its real and imaginary parts
    parts = [(x, b)] if np.isrealobj(x) else [(x.real, b.real), (x.imag, b.imag)]
    for xp, bp in parts:
        b0, b1 = bp[..., 0], bp[..., 1]
        xp[..., 0] = (a11 * b0 - a01 * b1) / det
        xp[..., 1] = (a00 * b1 - a10 * b0) / det
    return x


def _fold_columns(op, x: np.ndarray) -> np.ndarray:
    """The binary ufunc op folded over the columns of x (its last axis),
    left to right: whole-column array operations where numpy's reduction
    over a short last axis runs one inner loop per row."""
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        op(out, x[..., j], out=out)
    return out


def row_sumsq(x: np.ndarray) -> np.ndarray:
    """Sum of |x|^2 over the last axis, ``np.sum((x.conj() * x).real,
    axis=-1)`` bit for bit: below 8 columns numpy's row loop adds them in
    order, as the fold does."""
    sq = x * x if np.isrealobj(x) else (x.conj() * x).real
    if sq.shape[-1] >= 8:
        return np.add.reduce(sq, axis=-1)
    return _fold_columns(np.add, sq)


def row_norm(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=-1)`` bit for bit, by columns (``row_sumsq``)."""
    return np.sqrt(row_sumsq(x))


def row_max(x: np.ndarray) -> np.ndarray:
    """``np.max(x, axis=-1)`` for real x, by columns.  A NaN propagates as
    in np.max, though not always with np.max's sign and payload."""
    return _fold_columns(np.maximum, x)


def row_all(x: np.ndarray) -> np.ndarray:
    """``np.all(x, axis=-1)`` for boolean x, by columns."""
    return _fold_columns(np.logical_and, x)


def row_any(x: np.ndarray) -> np.ndarray:
    """``np.any(x, axis=-1)`` for boolean x, by columns."""
    return _fold_columns(np.logical_or, x)


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

