"""Hamiltonian ray tracing, reference-manifold flow-out, frames, and tube charts.

The beam skeleton for one wave component is a bundle of rays seeded on the
initial manifold sample points, an orthonormal frame spanning the normal
directions of the swept manifold at each time, and the tubular chart

    x(t, r, s) = x(t, r) + sum_j e_j(t, r) s_j.

The module also pulls the mode Hamiltonian back to chart coordinates.  The
pullback includes the moving-chart term -<(rho, sigma), J^{-1} dX/dt>, i.e.
it is the cotangent lift of the time-dependent chart map; with that term the
first derivatives of the pulled-back Hamiltonian vanish along rays, which is
what the phase construction relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ConfigError,
    DomainExitError,
    EmbeddingFailureError,
    FrameDriftError,
    OutOfChartError,
    SingularJacobianError,
)
from .numerics import (
    CubicPoints,
    SingularStackError,
    central_time_derivative,
    cubic_columns,
    float_columns,
    not_a_knot,
    rk4_step_maps,
    row_all,
    row_any,
    row_max,
    row_norm,
    row_sumsq,
    solve_stacked,
    split_columns,
    step_blocks,
)
from .systems import ClusterTemplate, SystemSpec

FRAME_TOL = 1e-6       # orthonormality drift that triggers FrameDriftError
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
JACOBIAN_COND_MAX = 1e8
# chords of RayBundle.near_tube: its distance test costs m x TUBE_CHORDS, and
# a chord over q cubic pieces widens the sagitta term q^2-fold
TUBE_CHORDS = 8
# time nodes x rays allowed in one beam build, checked before the rays are
# traced.  On a 2-core x86-64 VM the full acoustics3_beam build (2,001 x 33
# = 66,033 nodes) peaks 117 MB above the imports and takes 4-8 s; at dt / 2
# (132,033 nodes) 232 MB and 8 s: about 1.8 kB per node, so a build at the
# cap needs ~0.9 GB and about a minute.
RAY_NODES_MAX = 5e5
PHASE_REAL_TOL = 1e-10     # |Im psi|, |Im dpsi| allowed on the initial manifold
AMPLITUDE_POL_TOL = 1e-8   # relative polarization residual of the initial amplitude
EMBED_FACTOR = 0.25        # closest ray spacing allowed, relative to the initial one


@dataclass(frozen=True)
class WaveComponent:
    """Initial data for one polarized wave component.

    ``points`` are the samples of the initial manifold (a single row for a
    point source).  ``psi``/``dpsi``/``d2psi`` evaluate the complex initial
    phase jet at arbitrary x (vectorized over a leading axis), ``amplitude``
    the initial vector amplitude.
    """

    mode: int
    points: np.ndarray                      # (n_r, d)
    psi: Callable[[np.ndarray], np.ndarray]
    dpsi: Callable[[np.ndarray], np.ndarray]
    d2psi: Callable[[np.ndarray], np.ndarray]
    amplitude: Callable[[np.ndarray], np.ndarray]
    r: np.ndarray | None = None             # (n_r,) parameter values, None if a point
    label: str = "component"

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if self.r is not None:
            object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
            if self.r.size != pts.shape[0]:
                raise ConfigError("component r grid must match the rows of points")
            if pts.shape[0] < 5:
                raise ConfigError("parametrized components need at least 5 samples")
        elif pts.shape[0] != 1:
            raise ConfigError("point components must have exactly one sample")

    @property
    def n_r(self) -> int:
        return self.points.shape[0]

    @property
    def d1(self) -> int:
        return 0 if self.r is None else 1


@dataclass(frozen=True)
class InitialData:
    """Oscillatory Cauchy data: a list of disjoint polarized components."""

    components: tuple[WaveComponent, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))


def validate_component(spec: SystemSpec, comp: WaveComponent) -> ClusterTemplate:
    """Check the structural requirements on one component's initial data.

    The initial phase must be real with real gradient on the manifold
    samples, the imaginary Hessian must be positive definite transversally
    (checked later, at frame construction), and the amplitude must be
    polarized in the eigenspace of the component's mode.  Returns the
    cluster template at the first sample, which the checks used.
    """
    pts = comp.points
    psi = np.asarray(comp.psi(pts))
    if np.max(np.abs(psi.imag)) > PHASE_REAL_TOL:
        raise ConfigError(
            f"{comp.label}: Im(psi) must vanish on the initial manifold samples"
        )
    dpsi = np.asarray(comp.dpsi(pts))
    if np.max(np.abs(dpsi.imag)) > PHASE_REAL_TOL:
        raise ConfigError(
            f"{comp.label}: d(psi) must be real on the initial manifold samples"
        )
    amp = np.atleast_2d(np.asarray(comp.amplitude(pts), dtype=complex))
    xi = np.atleast_2d(dpsi.real).reshape(comp.n_r, spec.d)
    template = ClusterTemplate(spec, 0.0, pts[0], xi[0])
    if comp.mode >= template.n_modes:
        raise ConfigError(
            f"{comp.label}: mode index {comp.mode} out of range "
            f"({template.n_modes} clusters)"
        )
    _, projs = template.modes(0.0, pts, xi)
    res = np.linalg.norm(
        np.einsum("mab,mb->ma", projs[:, comp.mode], amp) - amp, axis=-1
    )
    scale = np.maximum(1.0, np.linalg.norm(amp, axis=-1))
    bad = np.nonzero(res > AMPLITUDE_POL_TOL * scale)[0]
    if bad.size:
        raise ConfigError(
            f"{comp.label}: amplitude not polarized in mode {comp.mode} "
            f"(residual {res[bad[0]]:.3e})"
        )
    return template


@dataclass
class RayBundle:
    """Rays, frames and chart data for one wave component.

    Array layout: time index first, ray index second.  ``r`` is None for a
    point source (d1 = 0).  Treated as immutable after construction.  It
    owns the beam's one chart: every r-derivative is the r-spline's
    (``r_derivative``), ``jacobian_inv`` inverts the node Jacobians, and
    every build stage takes its modes from ``template``, the cluster
    template the rays were traced with.
    """

    spec_name: str
    mode: int
    t: np.ndarray                    # (n_t,)
    r: np.ndarray | None             # (n_r,)
    x: np.ndarray                    # (n_t, n_r, d)
    xi: np.ndarray                   # (n_t, n_r, d)
    v: np.ndarray                    # (n_t, n_r, d)
    tangents: np.ndarray | None = None       # (n_t, n_r, d, d1)
    frames: np.ndarray | None = None         # (n_t, n_r, d, d2)
    frame_rate: np.ndarray | None = None     # (n_t, n_r, d, d2)
    frame_r_grad: np.ndarray | None = None   # (n_t, n_r, d, d2, d1)
    jacobian_inv: np.ndarray | None = None   # (n_t, n_r, d, d)
    chart_radius: float = 1.0
    frame_drift: float = 0.0
    template: ClusterTemplate | None = field(default=None, repr=False, compare=False)
    _r_basis: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)
    _r_dbasis: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)
    _r_columns: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.r is not None:
            # a not-a-knot cubic spline is linear in its data: the cardinal
            # coefficients (4, n_r - 1, n_r) turn per-ray values into spline
            # coefficients with one product; their node derivatives
            # (n_r, n_r), summed in PPoly's order, give r_derivative's with
            # another: node i < n_r - 1 starts piece i (s = 0), the last
            # node ends the last piece
            c = self._r_basis = not_a_knot(self.r, np.eye(self.r.size))
            i = np.minimum(np.arange(self.r.size), self.r.size - 2)
            s = (self.r - self.r[i])[:, None]
            self._r_dbasis = (c[2, i] + c[1, i] * s * 2) + c[0, i] * (s * s) * 3
            self._r_columns = cubic_columns(c)

    @property
    def n_t(self) -> int:
        return self.t.shape[0]

    @property
    def n_r(self) -> int:
        return self.x.shape[1]

    @property
    def d(self) -> int:
        return self.x.shape[2]

    @property
    def d1(self) -> int:
        return 0 if self.r is None else 1

    @property
    def d2(self) -> int:
        return self.d - self.d1

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    def locate_time(self, t: float):
        """Bracketing node indices and interpolation weight for a time; a time
        within 1e-9 dt of a node gives that node alone, (k, k, 0.0)."""
        tt = float(t)
        if tt < self.t[0] - 1e-12 or tt > self.t[-1] + 1e-12:
            raise OutOfChartError(f"time {t} outside the traced interval")
        pos = (tt - self.t[0]) / self.dt
        k0 = int(np.clip(np.floor(pos), 0, self.n_t - 1))
        w = pos - k0
        if w < 1e-9 or k0 >= self.n_t - 1:
            return k0, k0, 0.0
        if w > 1.0 - 1e-9:
            return k0 + 1, k0 + 1, 0.0
        return k0, k0 + 1, float(w)

    def node_jacobians(self, ks=slice(None)) -> np.ndarray:
        """Chart Jacobians [dx/dr | e] on the rays at time nodes ks, (m, n_r, d, d)."""
        if self.d1 == 0:
            return self.frames[ks]
        return np.concatenate([self.tangents[ks], self.frames[ks]], axis=-1)

    def chart_points(self, k: int, i, s: np.ndarray) -> np.ndarray:
        """Map transverse offsets s (m, d2) from ray i at node k to space
        points (m, d); for an index array i, from each of its rays, stacked
        ray by ray (len(i) m, d)."""
        s = np.atleast_2d(np.asarray(s, dtype=float))
        if np.ndim(i) == 0:
            return self.x[k, i][None, :] + s @ self.frames[k, i].T
        X = self.x[k, i][:, None, :] + s @ np.swapaxes(self.frames[k, i], -1, -2)
        return X.reshape(-1, self.d)

    # -- continuous-r chart helpers ------------------------------------------

    def r_spline(self, *values: np.ndarray) -> RSpline:
        """Not-a-knot cubic splines over r of per-ray arrays (n_r, ...), stacked."""
        cols = [self._r_columns @ np.reshape(v, (self.n_r, -1)) for v in values]
        return RSpline(values, float_columns(cols))

    def r_values(self, r: np.ndarray, *values: np.ndarray) -> list[np.ndarray]:
        """Per-ray arrays (n_r, ...) at continuous r (m,), cubic in r: their
        stacked r-splines at one interval search.  A point beam's one ray
        is broadcast."""
        if self.d1 == 0:
            m = r.shape[0]
            return [np.broadcast_to(v[0], (m,) + v.shape[1:]).copy() for v in values]
        return self.r_spline(*values).at(CubicPoints(self.r, r))

    def r_derivative(self, values: np.ndarray) -> np.ndarray:
        """d/dr at the ray nodes of the r-spline of values (m, n_r, ...),
        for every node k at once; the derivative basis is scipy PPoly's bit
        for bit.  It differentiates values - values[:, :1], the same spline
        less a constant, so that data constant in r give exactly 0 where the
        basis rows sum to rounding only."""
        values = values - values[:, :1]
        return np.moveaxis(np.tensordot(self._r_dbasis, values, axes=(1, 1)), 0, 1)

    def chart_columns(self, k: int) -> np.ndarray:
        """The stacked chart columns [x | e] (n_r, d, 1 + d2) at node k."""
        return np.concatenate([self.x[k][:, :, None], self.frames[k]], axis=2)

    def chart_spline(self, k: int) -> RSpline:
        """r-spline of the stacked columns [x | e] at node k."""
        return self.r_spline(self.chart_columns(k))

    def tube_box(self, k: int):
        """Axis-aligned box (lo, hi) at time node k holding every point that
        ``invert(k, X)`` calls inside, and a line beam's chords for
        ``near_tube`` (None for a point beam).

        A line beam charts X = x(r) + e(r) s, |s| <= R (the chart radius).
        Over an r-span of length H, x(r) lies within sag_x = H^2/8 max||x''||
        of the chord c through the span's end rays (x'' is largest at a
        cubic piece's end) and e(r) within sag_e = H^2/8 max||e''||_F of the
        line between its end values.  So a tube point with r in a chord's
        span lies within the reach R (max end ||e||_2 + sag_e) + sag_x of
        the chord, and projects on c^ = c/|c| within [-cap, |c| + cap] of
        the chord's start, cap = sag_x + R (tilt + sag_e), tilt the larger
        end value of ||e^T c^||_2.  Per chord: its start a (from ray 0), c,
        |c|^2, the reach, and the projection's window in units of |c|.  A
        point beam charts s = e^T (X - x), |s| <= R (1 + 1e-9), so
        |X - x| <= ||e^-T||_2 R (1 + 1e-9).  Each reach and cap is padded
        far above the inside test's tolerances (1e-9 in r and |s|).
        """
        xk = self.x[k]
        if self.d1 == 0:
            # ||e^-1||_2 <= sqrt(||e^-1||_1 ||e^-1||_inf), with no LAPACK call
            e_inv = np.abs(self.jacobian_inv[k, 0])
            reach = np.sqrt(e_inv.sum(0).max() * e_inv.sum(1).max())
            reach *= self.chart_radius * (1 + 1e-9)
            reach += 1e-6 * (1.0 + np.max(np.abs(xk)) + reach)
            return xk[0] - reach, xk[0] + reach, None
        # the spline coefficients (4, n_r - 1, d, 1 + d2)
        c = np.tensordot(self._r_basis, self.chart_columns(k), axes=(2, 0))
        h = np.diff(self.r)
        # second derivatives at both ends of each piece
        ends = np.stack([2 * c[1], 6 * c[0] * h[:, None, None] + 2 * c[1]])
        ddx = np.max(np.linalg.norm(ends[..., 0], axis=-1), axis=0)
        dde = np.max(np.linalg.norm(ends[..., 1:], axis=(-2, -1)), axis=0)
        step = -(-(self.n_r - 1) // TUBE_CHORDS)
        # sorted and distinct: the last ray is a multiple of step or not
        nodes = np.arange(0, self.n_r, step)
        if nodes[-1] != self.n_r - 1:
            nodes = np.r_[nodes, self.n_r - 1]
        H = np.diff(self.r[nodes])
        sag_x = H**2 / 8 * np.maximum.reduceat(ddx, nodes[:-1])
        sag_e = H**2 / 8 * np.maximum.reduceat(dde, nodes[:-1])
        e = self.frames[k, nodes]
        e_node = np.linalg.norm(e, ord=2, axis=(1, 2))
        e_max = np.maximum(e_node[:-1], e_node[1:]) + sag_e
        reach = self.chart_radius * e_max + sag_x
        a = xk[nodes] - xk[0]                          # chord ends, from ray 0
        chord = np.diff(a, axis=0)
        chord2 = np.sum(chord * chord, axis=-1)
        length = np.sqrt(chord2)
        pad = 1e-6 * (1.0 + np.max(np.abs(xk)) + np.max(reach) + np.max(length / H))
        reach = reach + pad
        # ||e^T c^||_2 at both ends of each chord
        unit = (chord / length[:, None])[:, None, :]
        tilt = np.maximum(row_norm((unit @ e[:-1])[:, 0]), row_norm((unit @ e[1:])[:, 0]))
        cap = (sag_x + self.chart_radius * (1 + 1e-9) * (tilt + sag_e) + pad) * length
        lo, hi = xk.min(axis=0) - reach.max(), xk.max(axis=0) + reach.max()
        return lo, hi, (a[:-1], chord, chord2, reach, -cap, chord2 + cap)

    def near_tube(self, k: int, X: np.ndarray) -> np.ndarray:
        """Conservative tube test at time node k for stacked points (m, d).

        True for every point that ``invert(k, X)`` calls inside, and for
        some points near the tube that it does not: a point is rejected
        outside ``tube_box``, and a line beam's point unless, for some
        chord, it lies within the chord's reach and its projection on the
        chord within the chord's window, the chord's span and a cap.  So
        the tube is cut at each chord's span, not capped by a half-disc at
        its ends.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        lo, hi, chords = self.tube_box(k)
        # column by column: comparing (m, d) with (d,) loops over d per row
        box = np.ones(X.shape[0], dtype=bool)
        for j in range(self.d):
            box &= (X[:, j] >= lo[j]) & (X[:, j] <= hi[j])
        if chords is None:
            return box
        a, chord, chord2, reach, w_lo, w_hi = chords
        idx = np.nonzero(box)[0]
        P = X[idx] - self.x[k, 0]
        # squared distance to each clamped chord, |P - a - u chord|^2
        proj = P @ chord.T - np.sum(a * chord, axis=-1)
        u = np.clip(proj / chord2, 0.0, 1.0)
        dist2 = (
            row_sumsq(P)[:, None] - 2.0 * (P @ a.T) + np.sum(a * a, axis=-1)
            - u * (2.0 * proj - u * chord2)
        )
        near = np.zeros(X.shape[0], dtype=bool)
        near[idx] = row_any((dist2 <= reach**2) & (proj >= w_lo) & (proj <= w_hi))
        return near

    def invert(self, k: int, X: np.ndarray):
        """Invert the chart at time node k for stacked points (m, d).

        Returns (r (m,), s (m, d2), inside (m,)); a point that cannot be
        charted is masked out by ``inside``.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        m = X.shape[0]
        if self.d1 == 0:
            e = self.frames[k, 0]
            s = (X - self.x[k, 0][None, :]) @ e
            r = np.zeros(m)
            return r, s, self.in_chart(r, s)

        chart = self.chart_spline(k)
        # initial guess from the nearest ray node: the distances |X - x(r_i)|
        # ray-major (n_r, m), so every operation runs along the points, with
        # the squares summed in row_norm's order; the first ray at the
        # smallest distance, as argmin takes it
        xk = self.x[k]
        dist = (X[:, 0] - xk[:, 0, None]) ** 2
        for j in range(1, self.d):
            dist += (X[:, j] - xk[:, j, None]) ** 2
        np.sqrt(dist, out=dist)
        idx = np.argmax(dist == dist.min(axis=0), axis=0)
        r = self.r[idx].astype(float)
        s = np.einsum("md,mdj->mj", X - self.x[k][idx], self.frames[k][idx])
        r_lo, r_hi = float(self.r[0]), float(self.r[-1])
        slack = 0.5 * (self.r[-1] - self.r[0])

        tol = NEWTON_TOL * (1.0 + row_norm(X))
        active = np.ones(m, dtype=bool)
        converged = np.zeros(m, dtype=bool)
        for _ in range(NEWTON_MAX_ITER):
            if not np.any(active):
                break
            ra, sa = r[active], s[active]
            (xe,), (dxe,) = chart.jets(CubicPoints(self.r, ra))
            xa, J = chart_jacobian(xe, dxe, sa)
            F = xa - X[active]
            try:
                dy = solve_stacked(J, F)
            except SingularStackError as exc:
                raise SingularJacobianError(
                    f"chart Jacobian is singular {self._place(k, X[active][exc.first])}"
                ) from exc
            r2 = np.clip(ra - dy[:, 0], r_lo - slack, r_hi + slack)
            s2 = sa - dy[:, 1:]
            step = row_max(np.abs(dy))
            r[active], s[active] = r2, s2
            done = step < tol[active]
            # The clipped Newton map is deterministic: an iterate it leaves
            # bitwise unchanged would repeat to the last iteration unconverged.
            stuck = ~done & (r2 == ra) & row_all(s2 == sa)
            act_idx = np.nonzero(active)[0]
            converged[act_idx[done]] = True
            active[act_idx[done | stuck]] = False
        return r, s, converged & self.in_chart(r, s)

    def in_chart(self, r: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Whether chart coordinates (r (m,), s (m, d2)) lie in the tube: r in
        the ray range and |s| <= chart_radius, each to 1e-9."""
        inside = row_norm(s) <= self.chart_radius * (1 + 1e-9)
        if self.d1:
            inside &= (r >= self.r[0] - 1e-9) & (r <= self.r[-1] + 1e-9)
        return inside

    def _place(self, k: int, x: np.ndarray) -> str:
        """'at node k = .. (t = ..), first at X = (..)' for read-path errors."""
        point = ", ".join(f"{v:.6g}" for v in x)
        return f"at node k = {k} (t = {self.t[k]:.6g}), first at X = ({point})"

    def interp_over_r(self, k: int, values: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Interpolate per-ray values (n_r, ...) at continuous r (cubic): the
        one-array view of ``r_values``."""
        return self.r_values(r, values)[0]


@dataclass(frozen=True, eq=False)
class RSpline:
    """Not-a-knot r-splines of per-ray arrays, stacked: ``columns`` holds
    their coefficients as the power-major float columns (4 (n_r - 1), P) of
    ``numerics.cubic_columns``, so that one gather per power and one cubic
    sum evaluate every array at a ``numerics.CubicPoints``."""

    arrays: tuple[np.ndarray, ...] = field(repr=False)
    columns: np.ndarray = field(repr=False)

    def at(self, points: CubicPoints) -> list[np.ndarray]:
        """Each array's spline at the m points, (m, ...) per array."""
        return split_columns(points.values(self.columns), self.arrays)

    def jets(self, points: CubicPoints) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Each array's spline and its r-derivative at the m points."""
        values, derivs = points.jets(self.columns)
        return split_columns(values, self.arrays), split_columns(derivs, self.arrays)


def chart_jacobian(xe: np.ndarray, dxe: np.ndarray, s: np.ndarray):
    """Chart point x(r, s) (m, d) and Jacobian [dx/dr | e] (m, d, d) from
    [x | e] (m, d, 1 + d2) and its r-derivative at the points' r."""
    e = xe[:, :, 1:]
    x = xe[:, :, 0] + np.einsum("mdj,mj->md", e, s)
    tang = dxe[:, :, 0] + np.einsum("mdj,mj->md", dxe[:, :, 1:], s)
    return x, np.concatenate([tang[:, :, None], e], axis=2)


def _symbol_directions(spec, t, X, Xi):
    """The derivatives (m, 2d, N, N) of the symbols at stacked points along
    (xi, x): A_j, then sum_j xi_j dA_j/dx_k.  Each A_j is evaluated once;
    ``_symbol`` sums the symbol from the first d."""
    d = spec.d
    xi = Xi.astype(complex)     # cast once; each product would cast it again
    dA = np.zeros((X.shape[0], 2 * d, spec.N, spec.N), dtype=complex)
    for j in range(d):
        dA[:, j] = spec.coeff_A(t, X, j)
    for k in range(d):
        dak = dA[:, d + k]
        for j in range(d):
            dak += np.asarray(spec.coeff_dxA(t, X, j, k)) * xi[:, j, None, None]
    return dA


def _symbol(A, Xi):
    """The symbols sum_j A_j xi_j (..., N, N) from the A_j (..., d, N, N) at
    the covectors Xi (..., d)."""
    xi = Xi.astype(complex)
    symbol = np.zeros(A.shape[:-3] + A.shape[-2:], dtype=complex)
    for j in range(Xi.shape[-1]):
        symbol += A[..., j, :, :] * xi[..., j, None, None]
    return symbol


def _grad_lambda_batch(spec, template, l, t, X, Xi):
    """(d_xi lambda, d_x lambda) for stacked points: the first-order shifts
    of cluster l along ``_symbol_directions``, from one gated ``eigh`` of
    the symbol per point (``ClusterTemplate.eigenvalue_rates``)."""
    dA = _symbol_directions(spec, t, X, Xi)
    rates = template.eigenvalue_rates(t, X, Xi, _symbol(dA[:, : spec.d], Xi), dA)[:, l]
    return rates[:, : spec.d], rates[:, spec.d :]


# the signs that turn the rates [d_xi lambda | d_x lambda] into Hamilton's
# right-hand side [dx/dt; dxi/dt]
_HAMILTON_SIGNS = np.array([1.0, -1.0])[:, None, None]


class _StageLog:
    """The stages of the general ray loop that its gates have not yet seen:
    for each, the time, the phase-space points Y = [X; Xi] (2, n_r, d),
    the ``_symbol_directions`` there, whose first d are the A_j, for N > 1
    the symbols' eigenvalues (n_r, N), and where there are two clusters or
    more their eigenvectors (n_r, N, N).  ``check`` runs the gates of
    ``_grad_lambda_batch`` over them at once, and with eigenvectors the
    turn gate between consecutive stages (``ClusterTemplate.check_stages``),
    for which it keeps the last stage it passed."""

    def __init__(self, template: ClusterTemplate):
        self.template = template
        self.stages = []
        self.eigenvalues = []
        self.vectors = [] if template.n_modes > 1 else None

    def check(self):
        """Gate every logged stage and empty the log; the error is the one
        that gating each stage as it ran would have raised first."""
        if not self.stages:
            return
        stages, w, v = self.stages, self.eigenvalues, self.vectors
        self.stages, self.eigenvalues = [], []
        if v is not None:
            self.vectors = []
        t, Y, dA = zip(*stages)
        X, Xi = np.stack(Y, axis=1)
        A = np.stack(dA)[:, :, : X.shape[-1]]
        self.template.check_stages(
            np.array(t), X, Xi, _symbol(A, Xi), np.stack(w) if w else None,
            np.stack(v) if v else None,
        )
        if v:   # the next block's first stage is turned against this one
            self.stages, self.eigenvalues, self.vectors = stages[-1:], w[-1:], v[-1:]


def _stage_rates(spec, template, l, t, Y, log: _StageLog):
    """Hamilton's right-hand side [d_xi lambda; -d_x lambda] (2, n_r, d) of
    cluster l at the phase-space points Y = [X; Xi] (2, n_r, d): the kernel
    of ``_grad_lambda_batch`` without its gates, which run later over what
    ``log`` keeps.  The symbol is formed only for the eigendecomposition,
    where N > 1."""
    X, Xi = Y[0], Y[1]
    d = spec.d
    dA = _symbol_directions(spec, t, X, Xi)
    log.stages.append((t, Y, dA))
    if spec.N == 1:
        rates = dA.real[:, :, 0, 0]
    else:
        w, v = template.decompose(_symbol(dA[:, :d], Xi))
        log.eigenvalues.append(w)
        if log.vectors is not None:
            log.vectors.append(v)
        rates = template.rates_along(v, dA)[:, l]
    return rates.reshape(-1, 2, d).swapaxes(0, 1) * _HAMILTON_SIGNS


def _trace_bundle(spec, l, X0, Xi0, T, dt, template=None):
    """RK4 on Hamilton's equations for all seed points simultaneously, with
    the cluster template at the first seed (built here if not given).

    The general path steps one phase-space state Y = [X; Xi] (2, n_r, d);
    each stage is one ungated kernel call (``_stage_rates``), and every
    combination of stages is elementwise.  The spectral gates (finiteness
    and Hermiticity of the symbols, the cluster gaps and, with two clusters
    or more, the turn of each cluster projector from one stage to the
    next, which catches clusters that cross between two stages) run once
    per block of steps (``numerics.step_blocks``) over every stage of the
    block (``_StageLog``), and once more before any error leaves the loop,
    so the first error is the one that gating each stage as it ran would
    have raised, at the same t, x and xi.  The domain is checked at every
    step.

    A spec that declares ``constant_coefficients`` gets straight rays: its
    symbol does not depend on x, so d_x lambda = 0, xi stays at Xi0 and the
    velocity d_xi lambda(Xi0) is the same at every RK4 stage.  One gated
    kernel call at (X0, Xi0) gives that (v, 0).  Every step of the RK4
    recurrence then adds the same increment, and the nodes are its running
    sum (``np.cumsum`` adds in sequence), bit-identical to the general
    path's nodes.  The domain is checked at every node at once, and the
    first exit raises the error the general path raises at that step.
    """
    n_r, d = X0.shape[0], spec.d
    n_steps = max(1.0, np.round(T / dt))    # a float: T / dt may overflow an int
    if not (n_steps + 1) * n_r <= RAY_NODES_MAX:
        raise ConfigError(
            f"the ray build needs {n_steps + 1:.4g} time nodes x {n_r} rays, above "
            f"the limit of {RAY_NODES_MAX:.0e} ray nodes; raise dt"
        )
    n_steps = int(n_steps)
    dt = T / n_steps
    template = template or ClusterTemplate(spec, 0.0, X0[0], Xi0[0])
    t_nodes = np.linspace(0.0, T, n_steps + 1)

    def exit_error(tn):
        return DomainExitError(f"a ray left the domain of determinacy at t={tn:.4f}")

    if spec.constant_coefficients:
        v0, dx0 = _grad_lambda_batch(spec, template, l, 0.0, X0, Xi0)
        if np.any(dx0):
            raise ConfigError(
                f"system {spec.name!r} declares constant coefficients, but "
                f"d_x lambda = {dx0[np.nonzero(dx0)][0]:.3e} at t = 0"
            )

        def running_sum(start, rate):
            inc = dt / 6 * (rate + 2 * rate + 2 * rate + rate)
            steps = np.broadcast_to(inc, (n_steps,) + inc.shape)
            return np.cumsum(np.concatenate([start[None], steps]), axis=0)

        xs, xis = running_sum(X0, v0), running_sum(Xi0, -dx0)
        exits = ~spec.domain.contains(t_nodes[1:, None], xs[1:]).all(axis=1)
        if exits.any():
            raise exit_error(t_nodes[1 + np.argmax(exits)])
        return t_nodes, xs, xis, np.broadcast_to(v0, xs.shape).copy()

    ys = np.empty((2, n_steps + 1, n_r, d))     # the nodes [xs; xis]
    vs = np.empty((n_steps + 1, n_r, d))
    ys[0, 0], ys[1, 0] = X0, Xi0
    log = _StageLog(template)

    def stage(t, Y):
        return _stage_rates(spec, template, l, t, Y, log)

    # the log holds each stage's Y, dA, eigenvalues and eigenvectors until
    # its block is gated
    per_step = 4 * n_r * (2 * d + 4 * d * spec.N**2 + spec.N)
    if log.vectors is not None:
        per_step += 4 * n_r * 2 * spec.N**2
    try:
        for k0, k1 in step_blocks(n_steps, per_step):
            for k in range(k0, k1):
                t0 = t_nodes[k]
                Y = ys[:, k]
                K1 = stage(t0, Y)
                vs[k] = K1[0]
                K2 = stage(t0 + dt / 2, Y + dt / 2 * K1)
                K3 = stage(t0 + dt / 2, Y + dt / 2 * K2)
                K4 = stage(t0 + dt, Y + dt * K3)
                ys[:, k + 1] = Y + dt / 6 * (K1 + 2 * K2 + 2 * K3 + K4)
                tn = t_nodes[k + 1]
                if not spec.domain.contains(tn, ys[0, k + 1]).all():
                    raise exit_error(tn)
            log.check()
        vs[-1] = stage(T, ys[:, -1])[0]
        log.check()
    except Exception:
        log.check()     # a gate of an earlier stage comes first
        raise
    return t_nodes, ys[0], ys[1], vs


def flow_out(spec: SystemSpec, comp: WaveComponent, T: float, dt: float) -> RayBundle:
    """Flow the initial manifold out along mode rays; check it stays embedded:
    neighbouring rays must stay at least EMBED_FACTOR times the smallest
    initial spacing apart."""
    template = validate_component(spec, comp)
    X0 = comp.points
    Xi0 = np.asarray(comp.dpsi(X0)).real.reshape(comp.n_r, spec.d)
    t, xs, xis, vs = _trace_bundle(spec, comp.mode, X0, Xi0, T, dt, template)
    if comp.n_r > 1:
        diffs = np.linalg.norm(np.diff(xs, axis=1), axis=-1)
        floor = EMBED_FACTOR * float(np.min(diffs[0]))
        if np.min(diffs) < floor:
            k_bad = int(np.argmin(np.min(diffs, axis=1)))
            raise EmbeddingFailureError(
                f"rays approach each other at t={t[k_bad]:.4f}; "
                "the flow-out stopped being an embedding (caustic onset)"
            )
    return RayBundle(
        spec_name=spec.name,
        mode=comp.mode,
        t=t,
        r=None if comp.r is None else comp.r.copy(),
        x=xs,
        xi=xis,
        v=vs,
        template=template,
    )


def _default_initial_frames(tangents0: np.ndarray, n_r: int, d: int) -> np.ndarray:
    """Orthonormal bases of the normal spaces at t=0, sign-aligned along r."""
    d1 = tangents0.shape[-1]
    d2 = d - d1
    frames = np.empty((n_r, d, d2))
    prev = None
    for i in range(n_r):
        # the null space of the tangents' transpose, as scipy's null_space
        # takes it: the right singular vectors past the numerical rank
        a = tangents0[i].T
        _, sv, vt = np.linalg.svd(a)
        rank = np.sum(sv > np.amax(sv, initial=0.0) * np.finfo(float).eps * max(a.shape))
        base = vt[rank:].T
        if base.shape[1] != d2:
            raise EmbeddingFailureError("degenerate tangent space at t=0")
        if prev is not None:
            # align with the neighbour to avoid sign/ordering flips along r
            overlap = prev.T @ base
            u, _, vt = np.linalg.svd(overlap)
            base = base @ (u @ vt).T
        frames[i] = base
        prev = base
    return frames


def evolve_frame(bundle: RayBundle) -> RayBundle:
    """Transport orthonormal normal frames along the rays.

    Solves de/dt = [dGamma/dt, Gamma] e with Gamma the orthogonal projector
    onto the normal space of the time slice of the swept manifold.  The
    equation is linear, so each RK4 step (the generator at the node, the
    averaged midpoint and the next node) is a matrix; the matrices are
    formed for a block of steps at once (``numerics.rk4_step_maps`` over
    ``numerics.step_blocks``), and a step is one matrix product.  The
    generator is antisymmetric, so orthonormality is preserved up to the
    integrator error; drift beyond FRAME_TOL raises FrameDriftError.  The
    tangents d_r x and the frames' d_r e are r-spline derivatives
    (``RayBundle.r_derivative``), and the node Jacobians [d_r x | e] are
    inverted once, into ``jacobian_inv``.
    """
    n_t, n_r, d = bundle.x.shape
    dt = bundle.dt

    if bundle.d1 == 0:
        bundle.tangents = None
        bundle.frames = np.broadcast_to(np.eye(d), (n_t, n_r, d, d)).copy()
        bundle.frame_rate = np.zeros_like(bundle.frames)
        bundle.frame_r_grad = None
        bundle.jacobian_inv = bundle.frames      # the identity is its own inverse
        bundle.frame_drift = 0.0
        return bundle

    bundle.tangents = tangents = bundle.r_derivative(bundle.x)[..., None]  # (.., d, 1)

    # normal projectors Gamma(t, r) and their time derivative
    q = tangents[..., 0]
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    gammas = np.broadcast_to(np.eye(d), (n_t, n_r, d, d)) - np.einsum(
        "kri,krj->krij", q, q
    )
    dgammas = central_time_derivative(gammas, dt)
    gen = np.einsum("krij,krjl->kril", dgammas, gammas) - np.einsum(
        "krij,krjl->kril", gammas, dgammas
    )

    frames0 = _default_initial_frames(tangents[0], n_r, d)
    d2 = frames0.shape[-1]
    frames = np.empty((n_t, n_r, d, d2))
    frames[0] = frames0
    for k0, k1 in step_blocks(n_t - 1, n_r * d * d):
        maps = rk4_step_maps(gen[k0 : k1 + 1], dt)
        for k in range(k0, k1):
            np.matmul(maps[k - k0], frames[k], out=frames[k + 1])

    gram = np.einsum("krdi,krdj->krij", frames, frames)
    node_drift = np.max(np.abs(gram - np.eye(d2)), axis=(2, 3))
    drift = float(np.max(node_drift))
    if drift > FRAME_TOL:
        k, i = np.unravel_index(np.argmax(node_drift), node_drift.shape)
        raise FrameDriftError(
            f"frame orthonormality drift {drift:.3e} at (node, ray) = ({k}, {i}) "
            f"exceeds {FRAME_TOL}; reduce dt"
        )
    bundle.frames = frames
    bundle.frame_rate = np.einsum("krij,krjl->kril", gen, frames)
    bundle.frame_r_grad = bundle.r_derivative(frames)[..., None]
    bundle.frame_drift = drift

    # chart Jacobian conditioning along the manifold
    jac = bundle.node_jacobians()
    ks = [0, n_t // 2, n_t - 1]
    bad = np.argwhere(np.linalg.cond(jac[ks]) > JACOBIAN_COND_MAX)
    if bad.size:
        raise EmbeddingFailureError(
            f"chart Jacobian ill-conditioned at node ({ks[bad[0, 0]]}, {bad[0, 1]})"
        )
    bundle.jacobian_inv = np.linalg.inv(jac)
    return bundle


@dataclass(frozen=True)
class SymbolJet:
    """Second-order jets of the pulled-back Hamiltonian in chart coordinates
    at every path node.

    Variables are ordered (s, rho, sigma); ``grad`` has shape (n_t, n_r, M)
    and ``hess`` (n_t, n_r, M, M) with M = d2 + d1 + d2.  The block
    properties slice the last axes.  ``hess_xi`` is the mode's eigenvalue
    Hessian in xi on the rays, from which the momentum block is formed.
    """

    d1: int
    d2: int
    grad: np.ndarray
    hess: np.ndarray
    hess_xi: np.ndarray          # (n_t, n_r, d, d)

    @property
    def _sl(self):
        d1, d2 = self.d1, self.d2
        return slice(0, d2), slice(d2, d2 + d1), slice(d2 + d1, 2 * d2 + d1)

    def _block(self, a, b):
        sl = self._sl
        return self.hess[..., sl[a], sl[b]]

    @property
    def ss(self):
        return self._block(0, 0)

    @property
    def s_rho(self):
        return self._block(0, 1)

    @property
    def s_sigma(self):
        return self._block(0, 2)

    @property
    def rho_rho(self):
        return self._block(1, 1)

    @property
    def rho_sigma(self):
        return self._block(1, 2)

    @property
    def sigma_sigma(self):
        return self._block(2, 2)


def pullback_jet_path(spec: SystemSpec, l: int, bundle: RayBundle) -> SymbolJet:
    """Second-order chart jets of the mode Hamiltonian at every path node.

    The pulled-back Hamiltonian is
    Lambda(s, p) = lambda(t, X, Xi) - <Xi, dX/dt>, with X = x + e s,
    p = (rho, sigma) and Xi = J(s)^-T p for the chart Jacobian
    J(s) = [d_r x + (d_r e) s | e].  Everything is exact and comes from
    one ``ClusterTemplate.path_jet`` call at the ray nodes, the 2-jet of
    lambda in (xi, x) along S_xi_j = A_j, S_x_k = sum_j xi_j d_k A_j,
    S_x_k xi_j = d_k A_j, S_x_k x_l = sum_j xi_j d_kl A_j and S_xi xi = 0.
    Its xi-block is ``hess_xi``, and the momentum block of the Hessian is
    J^-1 hess_xi J^-T.  The gradient follows by the chain rule:

        dLambda/dp   = J^-1 (d_xi lambda - dX/dt),
        dLambda/ds_a = d_x lambda . e_a - (dLambda/drho) (d_r e_a . Xi)
                       - Xi . (de/dt)_a,

    and the s rows of the Hessian from the chart derivatives X_a = e_a,
    Xi_p = J^-T, Xi_a = -J^-T J_a^T Xi, Xi_ab = -J^-T (J_a^T Xi_b + J_b^T
    Xi_a) and Xi_ap = -J^-T J_a^T Xi_p, where J_a = [d_r e_a | 0] (zero for
    point beams).  The kernel runs in blocks of ceil(n_t / n_r) time nodes
    times every ray, so one call holds about n_t nodes, as a single ray's
    path would.

    A spec that declares ``constant_coefficients`` has straight rays: xi is
    Xi0 at every node and the symbol does not depend on (t, x), so the
    lambda jet at node 0 is every node's, bit for bit.  The kernel then
    runs once, on the n_r rays at node 0, and the chain rule, which stays
    per node, takes its jet along the time axis.
    """
    d1, d2 = bundle.d1, bundle.d2
    n_t, n_r = bundle.n_t, bundle.n_r
    ray_jet = None
    if spec.constant_coefficients:
        ray_jet = _lambda_jet(spec, bundle.template, l, bundle.t[0], bundle.x[0], bundle.xi[0])
    block = -(-n_t // n_r)
    parts = [
        _hamiltonian_jet_block(spec, l, bundle, slice(k0, k0 + block), ray_jet)
        for k0 in range(0, n_t, block)
    ]
    grad, hess, hess_xi = (np.concatenate(p) for p in zip(*parts))
    return SymbolJet(d1=d1, d2=d2, grad=grad, hess=hess, hess_xi=hess_xi)


def _lambda_jet(spec, template, l, t, X, Xi):
    """(gradient (m, 2d), Hessian (m, 2d, 2d)) of cluster l's eigenvalue in
    (xi, x) at stacked points, from one ``ClusterTemplate.path_jet`` call
    along ``_symbol_directions`` with S_x_k xi_j = dA_j/dx_k, S_x_k x_l =
    sum_j xi_j d^2A_j/dx_k dx_l and S_xi xi = 0."""
    d = spec.d
    dS = _symbol_directions(spec, t, X, Xi)
    symbol = _symbol(dS[:, :d], Xi)
    d2S = np.zeros((X.shape[0], 2 * d, 2 * d, spec.N, spec.N), dtype=complex)
    for k in range(d):
        for j in range(d):
            d2S[:, d + k, j] = d2S[:, j, d + k] = spec.coeff_dxA(t, X, j, k)
            for i in range(d):
                d2S[:, d + k, d + i] += np.asarray(spec.coeff_d2xA(t, X, j, k, i)) * Xi[:, j, None, None]
    return template.path_jet(t, X, Xi, symbol, dS, d2S, l)


def _hamiltonian_jet_block(spec, l, bundle: RayBundle, ks: slice, ray_jet=None):
    """(grad (n_k, n_r, M), hess (n_k, n_r, M, M), Hess_xi(lambda)
    (n_k, n_r, d, d)) of ``pullback_jet_path`` at the time nodes ks, from
    the lambda jet ``ray_jet`` of every ray where it holds at every node."""
    d, d1, d2 = bundle.d, bundle.d1, bundle.d2
    t, x, xi = bundle.t[ks], bundle.x[ks], bundle.xi[ks]
    e, e_rate = bundle.frames[ks], bundle.frame_rate[ks]  # (n_k, n_r, d, d2)
    n_k, n_r = x.shape[:2]
    j_inv = bundle.jacobian_inv[ks]
    if ray_jet is None:
        T = np.broadcast_to(t[:, None], (n_k, n_r)).reshape(-1)
        g, h = _lambda_jet(spec, bundle.template, l, T, x.reshape(-1, d), xi.reshape(-1, d))
        g, h = g.reshape(n_k, n_r, 2 * d), h.reshape(n_k, n_r, 2 * d, 2 * d)
    else:
        # materialized: the products below and the concatenation of the
        # blocks then see the layout of the per-node jet
        g, h = (np.broadcast_to(a, (n_k,) + a.shape).copy() for a in ray_jet)
    hess_xi = h[..., :d, :d]

    # the derivatives Xi_u along u = (s, p), (n_k, n_r, d, M); Xi_s is 0
    # where J does not depend on s, on point beams
    xi_p = np.swapaxes(j_inv, -1, -2)
    xi_s = np.zeros_like(e)
    grad_p = (j_inv @ (g[..., :d] - bundle.v[ks])[..., None])[..., 0]
    grad_s = np.einsum("krd,krda->kra", g[..., d:], e) - np.einsum("krd,krda->kra", xi, e_rate)
    if d1:
        de_dr = bundle.frame_r_grad[ks][..., 0]           # (n_k, n_r, d, d2)
        c = np.einsum("krda,krd->kra", de_dr, xi)         # J_a^T Xi, its r row
        xi_s = -xi_p[..., :1] * c[:, :, None, :]
        grad_s -= grad_p[..., :1] * c
    xi_u = np.concatenate([xi_s, xi_p], axis=-1)
    y = np.concatenate([xi_u, np.concatenate([e, np.zeros_like(xi_p)], axis=-1)], axis=-2)
    # the s rows: Y_s^T H Y - T[a, u] - (T[b, a] on the s-s block), with Y
    # the (xi, x) of every direction and T[a, u] = Xi_u . (de/dt)_a +
    # (dLambda/drho) (d_r e_a . Xi_u), the Xi_au . (d_xi lambda - dX/dt)
    # and Xi_u . d_a dX/dt terms
    rows = np.swapaxes(y[..., :d2], -1, -2) @ h @ y
    t_au = np.swapaxes(e_rate, -1, -2) @ xi_u
    if d1:
        t_au += grad_p[..., :1, None] * (np.swapaxes(de_dr, -1, -2) @ xi_u)
    rows -= t_au
    rows[..., :d2] -= np.swapaxes(t_au[..., :d2], -1, -2)

    M = 2 * d2 + d1
    hess = np.empty((n_k, n_r, M, M))
    hess[..., :d2, :] = rows
    hess[..., d2:, :d2] = np.swapaxes(hess[..., :d2, d2:], -1, -2)
    hess[..., d2:, d2:] = j_inv @ hess_xi @ np.swapaxes(j_inv, -1, -2)
    hess = 0.5 * (hess + np.swapaxes(hess, -1, -2))
    return np.concatenate([grad_s, grad_p], axis=-1), hess, hess_xi
