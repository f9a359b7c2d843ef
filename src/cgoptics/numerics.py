"""Small shared numerical helpers."""

from __future__ import annotations

import math

import numpy as np

# Floats per (points, P) coefficient array in one block of CubicPoints
# (128 KiB): the four gathers and the sum of a block stay in cache, and its
# temporaries are small enough to reuse freed memory instead of fresh pages.
# On 8,245 points x 24 columns one pass over all points took 1.3-2.5 times
# as long; blocks of 2^15 and 2^16 floats lost most of the gain there.
CUBIC_BLOCK_VALUES = 1 << 14

# Values per array in one block of time steps whose RK4 step maps are formed
# at once (64 KiB complex).  Such blocks are served from freed heap memory;
# whole-path or 250-step blocks left the beam2d benchmark's peak RSS 0.5 MB
# above the per-step loop's, through the larger freed mappings.
STEP_BLOCK_VALUES = 1 << 12


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


def not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients c (4, n - 1, ...) of the not-a-knot cubic spline through
    y (n, ...) at increasing knots x (n,): on [x_i, x_i+1] the spline is
    sum_k c[k, i] (r - x_i)^(3 - k).

    It mirrors ``scipy.interpolate.CubicSpline(x, y, axis=0).c`` step by
    step and matches it bit for bit for n >= 4: the same slope and
    right-hand-side formulas on y's dtype, the knot slopes by ``_gtsv`` (a
    complex right-hand side solves as its real view, as the complex solve
    does on a real matrix), then the Hermite coefficients.  As in
    CubicSpline, n = 2 gives the line and n = 3 the parabola through the
    data, here in closed form, equal to CubicSpline's to rounding.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    y = y.astype(complex if np.iscomplexobj(y) else float, copy=False)
    n = x.size
    dx = np.diff(x)
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    if n == 2:
        s = np.stack([slope[0], slope[0]])
    elif n == 3:
        # the parabola's slopes, from its second divided difference
        curv = (slope[1] - slope[0]) / (x[2] - x[0])
        s = np.stack([slope[0] - dx[0] * curv, slope[0] + dx[0] * curv, slope[1] + dx[1] * curv])
    else:
        # the tridiagonal system of the knot slopes: sub-, main and super-diagonal
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        lower = np.r_[dx[1:], d1]
        diag = np.r_[dx[1], 2 * (dx[:-1] + dx[1:]), dx[-2]]
        upper = np.r_[d0, dx[:-1]]
        b = np.empty_like(y)
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        b[0] = ((dxr[0] + 2 * d0) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d0
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d1 + dxr[-1]) * dxr[-2] * slope[-1]) / d1
        flat = b.reshape(n, -1)
        s = _gtsv(lower, diag, upper, flat.view(float) if np.iscomplexobj(flat) else flat)
        s = s.view(y.dtype).reshape(y.shape)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


def _gtsv(lower, diag, upper, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system (sub-, main, super-diagonal) for the
    columns of b (n, K) as LAPACK ``gtsv`` does: elimination with partial
    pivoting, which may fill a second super-diagonal, then back
    substitution.  The pivots depend on the matrix alone, so each step is
    one array operation over the columns."""
    dl, d, du = (list(map(float, a)) for a in (lower, diag, upper))
    b = b.copy()
    n = len(d)
    for k in range(n - 1):
        if dl[k] == 0.0:
            continue
        if abs(d[k]) >= abs(dl[k]):
            mult = dl[k] / d[k]
            d[k + 1] = d[k + 1] - mult * du[k]
            b[k + 1] = b[k + 1] - mult * b[k]
            if k < n - 2:
                dl[k] = 0.0
        else:
            mult = d[k] / dl[k]
            d[k] = dl[k]
            temp = d[k + 1]
            d[k + 1] = du[k] - mult * temp
            if k < n - 2:
                dl[k] = du[k + 1]          # the fill-in super-diagonal
                du[k + 1] = -mult * dl[k]
            du[k] = temp
            b[k], b[k + 1] = b[k + 1], b[k] - mult * b[k + 1]
    if 0.0 in d:
        raise np.linalg.LinAlgError("singular tridiagonal system")
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for k in range(n - 3, -1, -1):
        b[k] = (b[k] - du[k] * b[k + 1] - dl[k] * b[k + 2]) / d[k]
    return b


class CubicPoints:
    """Points (m,) located on the pieces of the knots x (n,) of piecewise
    cubics by one interval search, to evaluate any number of cubics there:
    ``values(cols)`` and ``jets(cols)`` take each power's coefficients of
    the points' pieces from the columns of ``cubic_columns`` and sum them.

    The search puts a point in the piece [x_i, x_i+1) that holds it, the
    last piece for x_n - 1, and the end pieces for points beyond the knots,
    as scipy PPoly's search does.  With s = r - x_i and c_p the coefficient
    of s^p, a value sums ((c0 + s c1) + (s s) c2) + ((s s) s) c3 in PPoly's
    order, so values equal PPoly's bit for bit (where PPoly's sum, started
    at +0, makes an exact zero +0, this one may give -0); a derivative sums
    (c1 + (2 s) c2) + (3 (s s)) c3, where PPoly multiplies c3 (s s) by 3
    last: equal to rounding.  A NaN point gives NaN.
    """

    def __init__(self, x: np.ndarray, points: np.ndarray):
        x = np.asarray(x, dtype=float)
        points = np.asarray(points, dtype=float).ravel()
        self.m = points.size
        self.piece = np.searchsorted(x[1:-1], points, side="right")
        self.offset = points - x[self.piece]

    def _blocks(self, cols: np.ndarray):
        """(points slice, the points' coefficients (b, P) of s^0 .. s^3,
        their offsets s (b, 1)) per block of CUBIC_BLOCK_VALUES: one gather
        of the pieces' rows per power from the power-major columns."""
        per_power = cols.reshape(4, -1, cols.shape[-1])
        step = max(1, CUBIC_BLOCK_VALUES // max(1, cols.shape[-1]))
        for start in range(0, self.m, step):
            b = slice(start, start + step)
            piece = self.piece[b]
            yield b, [c.take(piece, axis=0) for c in per_power], self.offset[b, None]

    @staticmethod
    def _value_sum(s, c0, c1, c2, c3) -> np.ndarray:
        # ((c0 + s c1) + (s s) c2) + ((s s) s) c3, in place on the gathered
        # copies, which saves a temporary per operation
        ss = s * s
        c1 *= s
        c0 += c1
        c2 *= ss
        c0 += c2
        c3 *= ss * s
        c0 += c3
        return c0

    def values(self, cols: np.ndarray) -> np.ndarray:
        """The cubics of the columns cols (4 (n - 1), P) at the points, (m, P)."""
        out = np.empty((self.m, cols.shape[-1]))
        for b, c, s in self._blocks(cols):
            out[b] = self._value_sum(s, *c)
        return out

    def jets(self, cols: np.ndarray):
        """Values and r-derivatives (m, P) each of the cubics of cols at the points."""
        values = np.empty((self.m, cols.shape[-1]))
        derivs = np.empty_like(values)
        for b, (c0, c1, c2, c3), s in self._blocks(cols):
            derivs[b] = (c1 + (s * 2) * c2) + ((s * s) * 3) * c3
            values[b] = self._value_sum(s, c0, c1, c2, c3)
        return values, derivs


def cubic_columns(c: np.ndarray) -> np.ndarray:
    """Coefficients c (4, n - 1, ...) as the float columns (4 (n - 1), P)
    that ``CubicPoints`` evaluates, power-major: row p (n - 1) + i holds the
    coefficient of s^p on piece i, p = 0..3 ascending, then
    ``float_columns``."""
    return float_columns([c[::-1].reshape((-1,) + c.shape[2:])])


def float_columns(arrays) -> np.ndarray:
    """Arrays (n, ...) side by side as float columns (n, P): trailing axes
    flattened, a complex array as its interleaved real and imaginary parts."""
    n = arrays[0].shape[0]
    cols = []
    for a in arrays:
        flat = np.ascontiguousarray(a).reshape(n, -1)
        cols.append(flat.view(float) if np.iscomplexobj(flat) else flat.astype(float, copy=False))
    return cols[0] if len(cols) == 1 else np.concatenate(cols, axis=1)


def split_columns(out: np.ndarray, like) -> list[np.ndarray]:
    """The inverse of ``float_columns``: float columns out (m, P) back into
    one (m,) + a.shape[1:] array per array a of ``like``, complex where a is."""
    parts, j = [], 0
    for a in like:
        width = math.prod(a.shape[1:]) * (2 if np.iscomplexobj(a) else 1)
        block = out[:, j : j + width]
        j += width
        if np.iscomplexobj(a):
            block = np.ascontiguousarray(block).view(complex)
        parts.append(block.reshape((out.shape[0],) + a.shape[1:]))
    return parts


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


def rk4_step_maps(m_nodes: np.ndarray, dt: float) -> np.ndarray:
    """The RK4 step map of the linear ODE y' = M(t) y for every step at once.

    ``m_nodes`` (n_t, ..., n, n) holds M at the nodes; step k takes M at
    node k, the average of nodes k and k + 1 at its midpoint, and M at node
    k + 1, as an RK4 loop over the same node values does.  Returns S_k
    (n_t - 1, ..., n, n) with y_{k+1} = S_k y_k, which is that RK4 step
    exactly, up to rounding, since every stage is linear in y.
    """
    m0, m1 = m_nodes[:-1], m_nodes[1:]
    mid = m0 + m1
    mid *= 0.5
    # the stage maps, k_i = T_i y: T_1 = M_0, T_2 = M_h (I + dt/2 T_1),
    # T_3 = M_h (I + dt/2 T_2), T_4 = M_1 (I + dt T_3), formed in place
    t2 = mid @ m0
    t2 *= 0.5 * dt
    t2 += mid
    t3 = mid @ t2
    t3 *= 0.5 * dt
    t3 += mid
    maps = m1 @ t3
    maps *= dt
    maps += m1
    maps += m0
    t2 += t3
    t2 *= 2.0
    maps += t2
    maps *= dt / 6.0
    maps += np.eye(m_nodes.shape[-1])
    return maps


def step_blocks(n_steps: int, values_per_step: int) -> list[tuple[int, int]]:
    """Bounds (k0, k1) of consecutive blocks of the steps 0 .. n_steps - 1,
    each of at least one step and of at most STEP_BLOCK_VALUES values of an
    array with ``values_per_step`` values per step."""
    size = max(1, STEP_BLOCK_VALUES // values_per_step)
    return [(k0, min(k0 + size, n_steps)) for k0 in range(0, n_steps, size)]
