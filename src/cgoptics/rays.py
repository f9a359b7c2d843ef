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
from scipy.interpolate import CubicSpline, PPoly
from scipy.linalg import null_space

from .errors import (
    ConfigError,
    DomainExitError,
    EmbeddingFailureError,
    FrameDriftError,
    OutOfChartError,
    SingularJacobianError,
)
from .numerics import central_time_derivative, grid_derivative
from .systems import ClusterTemplate, SystemSpec

FRAME_TOL = 1e-6       # orthonormality drift that triggers FrameDriftError
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
JACOBIAN_COND_MAX = 1e8


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


def validate_component(
    spec: SystemSpec,
    comp: WaveComponent,
    real_tol: float = 1e-10,
    pol_tol: float = 1e-8,
) -> None:
    """Check the structural requirements on one component's initial data.

    The initial phase must be real with real gradient on the manifold
    samples, the imaginary Hessian must be positive definite transversally
    (checked later, at frame construction), and the amplitude must be
    polarized in the eigenspace of the component's mode.
    """
    pts = comp.points
    psi = np.asarray(comp.psi(pts))
    if np.max(np.abs(psi.imag)) > real_tol:
        raise ConfigError(
            f"{comp.label}: Im(psi) must vanish on the initial manifold samples"
        )
    dpsi = np.asarray(comp.dpsi(pts))
    if np.max(np.abs(dpsi.imag)) > real_tol:
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
    bad = np.nonzero(res > pol_tol * scale)[0]
    if bad.size:
        raise ConfigError(
            f"{comp.label}: amplitude not polarized in mode {comp.mode} "
            f"(residual {res[bad[0]]:.3e})"
        )


@dataclass(frozen=True)
class RayPath:
    """One Hamiltonian trajectory: positions, covectors, group velocities."""

    t: np.ndarray
    x: np.ndarray
    xi: np.ndarray
    v: np.ndarray   # group velocity d lambda / d xi along the path


@dataclass
class RayBundle:
    """Rays, frames and chart data for one wave component.

    Array layout: time index first, ray index second.  ``r`` is None for a
    point source (d1 = 0).  Treated as immutable after construction.
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
    chart_radius: float = 1.0
    frame_drift: float = 0.0
    _r_basis: np.ndarray | None = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self.r is not None:
            # a not-a-knot cubic spline is linear in its data: the cardinal
            # coefficients (4, n_r - 1, n_r) turn per-ray values into spline
            # coefficients with one tensordot
            self._r_basis = CubicSpline(self.r, np.eye(self.r.size)).c

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

    def ray(self, i: int) -> RayPath:
        return RayPath(t=self.t, x=self.x[:, i], xi=self.xi[:, i], v=self.v[:, i])

    def locate_time(self, t: float):
        """Bracketing node indices and interpolation weight for a time."""
        tt = float(t)
        if tt < self.t[0] - 1e-12 or tt > self.t[-1] + 1e-12:
            raise OutOfChartError(f"time {t} outside the traced interval")
        pos = (tt - self.t[0]) / self.dt
        k0 = int(np.clip(np.floor(pos), 0, self.n_t - 1))
        w = pos - k0
        if w < 1e-9 or k0 >= self.n_t - 1:
            return k0, k0, 0.0
        return k0, k0 + 1, float(w)

    def node_jacobians(self, ks=slice(None)) -> np.ndarray:
        """Chart Jacobians [dx/dr | e] on the rays at time nodes ks, (m, n_r, d, d)."""
        if self.d1 == 0:
            return self.frames[ks]
        return np.concatenate([self.tangents[ks], self.frames[ks]], axis=-1)

    def chart_points(self, k: int, i: int, s: np.ndarray) -> np.ndarray:
        """Map transverse offsets (m, d2) at node (k, i) to space points (m, d)."""
        s = np.atleast_2d(np.asarray(s, dtype=float))
        return self.x[k, i][None, :] + s @ self.frames[k, i].T

    # -- continuous-r chart helpers ------------------------------------------

    def r_spline(self, values: np.ndarray) -> PPoly:
        """Not-a-knot cubic spline over r of per-ray values (n_r, ...)."""
        c = np.tensordot(self._r_basis, values, axes=(2, 0))
        return PPoly.construct_fast(c, self.r)

    def r_derivative(self, values: np.ndarray) -> np.ndarray:
        """d/dr at the ray nodes of the r-spline of values (m, n_r, ...).

        Equals ``r_spline(values[k])(r, 1)`` for every node k, batched.
        """
        dbasis = PPoly.construct_fast(self._r_basis, self.r)(self.r, 1)   # (n_r, n_r)
        return np.moveaxis(np.tensordot(dbasis, values, axes=(1, 1)), 0, 1)

    def chart_spline(self, k: int) -> PPoly:
        """r-spline of the stacked columns [x | e] (n_r, d, 1 + d2) at node k."""
        return self.r_spline(
            np.concatenate([self.x[k][:, :, None], self.frames[k]], axis=2)
        )

    def chart_map(self, k: int, r, s) -> np.ndarray:
        """Evaluate x(t_k, r, s) for stacked (r, s)."""
        s = np.atleast_2d(np.asarray(s, dtype=float))
        if self.d1 == 0:
            return self.chart_points(k, 0, s)
        r = np.atleast_1d(np.asarray(r, dtype=float))
        xe = self.chart_spline(k)(r)
        return xe[:, :, 0] + np.einsum("mdj,mj->md", xe[:, :, 1:], s)

    def invert(self, k: int, X: np.ndarray, strict: bool = False):
        """Invert the chart at time node k for stacked points (m, d).

        Returns (r (m,), s (m, d2), inside (m,)).  With ``strict`` a point
        that cannot be charted raises OutOfChartError instead of being
        masked out.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        m = X.shape[0]
        if self.d1 == 0:
            e = self.frames[k, 0]
            s = (X - self.x[k, 0][None, :]) @ e
            inside = np.linalg.norm(s, axis=-1) <= self.chart_radius * (1 + 1e-9)
            r = np.zeros(m)
            if strict and not np.all(inside):
                raise OutOfChartError("point outside the chart tube")
            return r, s, inside

        sp = self.chart_spline(k)
        # initial guess from the nearest ray node
        dists = np.linalg.norm(X[:, None, :] - self.x[k][None, :, :], axis=-1)
        idx = np.argmin(dists, axis=1)
        r = self.r[idx].astype(float)
        s = np.einsum("md,mdj->mj", X - self.x[k][idx], self.frames[k][idx])
        r_lo, r_hi = float(self.r[0]), float(self.r[-1])
        slack = 0.5 * (self.r[-1] - self.r[0])

        active = np.ones(m, dtype=bool)
        converged = np.zeros(m, dtype=bool)
        for _ in range(NEWTON_MAX_ITER):
            if not np.any(active):
                break
            ra, sa = r[active], s[active]
            xa, J = chart_jacobian(sp, ra, sa)
            F = xa - X[active]
            try:
                dy = np.linalg.solve(J, F[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError as exc:
                raise SingularJacobianError("chart Jacobian is singular") from exc
            r2 = np.clip(ra - dy[:, 0], r_lo - slack, r_hi + slack)
            s2 = sa - dy[:, 1:]
            step = np.max(np.abs(dy), axis=1)
            r[active], s[active] = r2, s2
            done = step < NEWTON_TOL * (1.0 + np.linalg.norm(X[active], axis=-1))
            # The clipped Newton map is deterministic: an iterate it leaves
            # bitwise unchanged would repeat to the last iteration unconverged.
            stuck = ~done & (r2 == ra) & np.all(s2 == sa, axis=1)
            act_idx = np.nonzero(active)[0]
            converged[act_idx[done]] = True
            active[act_idx[done | stuck]] = False
        inside = (
            converged
            & (r >= r_lo - 1e-9)
            & (r <= r_hi + 1e-9)
            & (np.linalg.norm(s, axis=-1) <= self.chart_radius * (1 + 1e-9))
        )
        if strict and not np.all(inside):
            raise OutOfChartError("chart inversion failed or point outside tube")
        return r, s, inside

    def interp_over_r(self, k: int, values: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Interpolate per-ray values (n_r, ...) at continuous r (cubic)."""
        if self.d1 == 0:
            return np.broadcast_to(values[0], (r.shape[0],) + values.shape[1:]).copy()
        return self.r_spline(values)(r)


def chart_jacobian(sp: PPoly, r: np.ndarray, s: np.ndarray):
    """Chart point x(r, s) (m, d) and Jacobian [dx/dr | e] (m, d, d) from the
    [x | e] r-spline of ``RayBundle.chart_spline``."""
    xe, dxe = sp(r), sp(r, 1)
    e = xe[:, :, 1:]
    x = xe[:, :, 0] + np.einsum("mdj,mj->md", e, s)
    tang = dxe[:, :, 0] + np.einsum("mdj,mj->md", dxe[:, :, 1:], s)
    return x, np.concatenate([tang[:, :, None], e], axis=2)


def _grad_lambda_batch(spec, template, l, t, X, Xi):
    """(d_xi lambda, d_x lambda) for stacked points: tr(P A_j)/m and
    tr(P sum_j dA_j/dx_k xi_j)/m."""
    m = X.shape[0]
    _, projs = template.modes(t, X, Xi)
    proj = projs[:, l]
    mult = template.mults[l]
    dxi = np.zeros((m, spec.d))
    for j in range(spec.d):
        aj = np.asarray(spec.coeff_A(t, X, j))
        dxi[:, j] = np.einsum("mik,mki->m", proj, aj).real / mult
    dx = np.zeros((m, spec.d))
    for k in range(spec.d):
        dak = np.zeros((m, spec.N, spec.N), dtype=complex)
        for j in range(spec.d):
            dak += np.asarray(spec.coeff_dxA(t, X, j, k)) * Xi[:, j][:, None, None]
        dx[:, k] = np.einsum("mik,mki->m", proj, dak).real / mult
    return dxi, dx


def _trace_bundle(spec, l, X0, Xi0, T, dt):
    """RK4 on Hamilton's equations for all seed points simultaneously."""
    n_steps = max(1, int(round(T / dt)))
    dt = T / n_steps
    n_r = X0.shape[0]
    template = ClusterTemplate(spec, 0.0, X0[0], Xi0[0])

    t_nodes = np.linspace(0.0, T, n_steps + 1)
    xs = np.empty((n_steps + 1, n_r, spec.d))
    xis = np.empty_like(xs)
    vs = np.empty_like(xs)
    xs[0], xis[0] = X0, Xi0

    def rhs(t, X, Xi):
        dxi, dx = _grad_lambda_batch(spec, template, l, t, X, Xi)
        return dxi, -dx

    for k in range(n_steps):
        t0 = t_nodes[k]
        X, Xi = xs[k], xis[k]
        k1x, k1xi = rhs(t0, X, Xi)
        vs[k] = k1x
        k2x, k2xi = rhs(t0 + dt / 2, X + dt / 2 * k1x, Xi + dt / 2 * k1xi)
        k3x, k3xi = rhs(t0 + dt / 2, X + dt / 2 * k2x, Xi + dt / 2 * k2xi)
        k4x, k4xi = rhs(t0 + dt, X + dt * k3x, Xi + dt * k3xi)
        xs[k + 1] = X + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        xis[k + 1] = Xi + dt / 6 * (k1xi + 2 * k2xi + 2 * k3xi + k4xi)
        tn = t_nodes[k + 1]
        if not np.all(spec.domain.contains(tn, xs[k + 1])):
            raise DomainExitError(
                f"a ray left the domain of determinacy at t={tn:.4f}"
            )
    vs[-1] = rhs(T, xs[-1], xis[-1])[0]
    return t_nodes, xs, xis, vs


def trace_ray(spec: SystemSpec, l: int, x0, xi0, T: float, dt: float) -> RayPath:
    """Trace a single Hamiltonian ray for mode ``l``."""
    x0 = np.asarray(x0, dtype=float).reshape(1, spec.d)
    xi0 = np.asarray(xi0, dtype=float).reshape(1, spec.d)
    if not np.any(xi0):
        raise ValueError("xi0 must be nonzero")
    t, xs, xis, vs = _trace_bundle(spec, l, x0, xi0, T, dt)
    return RayPath(t=t, x=xs[:, 0], xi=xis[:, 0], v=vs[:, 0])


def flow_out(
    spec: SystemSpec,
    comp: WaveComponent,
    T: float,
    dt: float,
    embed_factor: float = 0.25,
) -> RayBundle:
    """Flow the initial manifold out along mode rays; check it stays embedded."""
    validate_component(spec, comp)
    X0 = comp.points
    Xi0 = np.asarray(comp.dpsi(X0)).real.reshape(comp.n_r, spec.d)
    t, xs, xis, vs = _trace_bundle(spec, comp.mode, X0, Xi0, T, dt)
    if comp.n_r > 1:
        diffs = np.linalg.norm(np.diff(xs, axis=1), axis=-1)
        floor = embed_factor * float(np.min(diffs[0]))
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
    )


def _default_initial_frames(tangents0: np.ndarray, n_r: int, d: int) -> np.ndarray:
    """Orthonormal bases of the normal spaces at t=0, sign-aligned along r."""
    d1 = tangents0.shape[-1]
    d2 = d - d1
    frames = np.empty((n_r, d, d2))
    prev = None
    for i in range(n_r):
        base = null_space(tangents0[i].T)
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
    generator is antisymmetric, so orthonormality is preserved up to the
    integrator error; drift beyond FRAME_TOL raises FrameDriftError.
    """
    n_t, n_r, d = bundle.x.shape
    d1 = bundle.d1
    dt = bundle.dt

    if d1 == 0:
        bundle.tangents = None
        bundle.frames = np.broadcast_to(np.eye(d), (n_t, n_r, d, d)).copy()
        bundle.frame_rate = np.zeros_like(bundle.frames)
        bundle.frame_r_grad = None
        bundle.frame_drift = 0.0
        return bundle

    dr = float(bundle.r[1] - bundle.r[0])
    tangents = grid_derivative(bundle.x, dr, axis=1)[..., None]  # (n_t,n_r,d,1)
    bundle.tangents = tangents

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
    for k in range(n_t - 1):
        g0, g1 = gen[k], gen[k + 1]
        gh = 0.5 * (g0 + g1)
        e = frames[k]
        k1 = np.einsum("rij,rjl->ril", g0, e)
        k2 = np.einsum("rij,rjl->ril", gh, e + 0.5 * dt * k1)
        k3 = np.einsum("rij,rjl->ril", gh, e + 0.5 * dt * k2)
        k4 = np.einsum("rij,rjl->ril", g1, e + dt * k3)
        frames[k + 1] = e + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

    gram = np.einsum("krdi,krdj->krij", frames, frames)
    drift = float(np.max(np.abs(gram - np.eye(d2))))
    if drift > FRAME_TOL:
        raise FrameDriftError(
            f"frame orthonormality drift {drift:.3e} exceeds {FRAME_TOL}; reduce dt"
        )
    bundle.frames = frames
    bundle.frame_rate = np.einsum("krij,krjl->kril", gen, frames)
    bundle.frame_r_grad = grid_derivative(frames, dr, axis=1)[..., None]
    bundle.frame_drift = drift

    # chart Jacobian conditioning along the manifold
    ks = [0, n_t // 2, n_t - 1]
    bad = np.argwhere(np.linalg.cond(bundle.node_jacobians(ks)) > JACOBIAN_COND_MAX)
    if bad.size:
        raise EmbeddingFailureError(
            f"chart Jacobian ill-conditioned at node ({ks[bad[0, 0]]}, {bad[0, 1]})"
        )
    return bundle


def chart_map(bundle: RayBundle, t: float, r, s) -> np.ndarray:
    """Map chart coordinates to space at an arbitrary traced time."""
    k0, k1, w = bundle.locate_time(t)
    x0 = bundle.chart_map(k0, r, s)
    if k1 == k0:
        return x0
    return (1 - w) * x0 + w * bundle.chart_map(k1, r, s)


def chart_invert(bundle: RayBundle, t: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Invert the chart at one point; raises OutOfChartError when outside."""
    k0, _, _ = bundle.locate_time(t)
    r, s, inside = bundle.invert(k0, np.atleast_2d(x), strict=True)
    return (r[0] if bundle.d1 else None), s[0]


@dataclass(frozen=True)
class SymbolJet:
    """Second-order jet of the pulled-back Hamiltonian in chart coordinates.

    Variables are ordered (s, rho, sigma); ``grad`` has shape (M,) and
    ``hess`` (M, M) with M = d2 + d1 + d2.
    """

    d1: int
    d2: int
    grad: np.ndarray
    hess: np.ndarray

    @property
    def _sl(self):
        d1, d2 = self.d1, self.d2
        return slice(0, d2), slice(d2, d2 + d1), slice(d2 + d1, 2 * d2 + d1)

    @property
    def grad_s(self):
        return self.grad[self._sl[0]]

    @property
    def grad_rho(self):
        return self.grad[self._sl[1]]

    @property
    def grad_sigma(self):
        return self.grad[self._sl[2]]

    def _block(self, a, b):
        sl = self._sl
        return self.hess[sl[a], sl[b]]

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


def _stencil(M: int):
    """Offsets and assembly metadata for gradient and Hessian differences."""
    pts = [np.zeros(M)]
    for i in range(M):
        for sgn in (+1, -1):
            o = np.zeros(M)
            o[i] = sgn
            pts.append(o)
    pairs = []
    for i in range(M):
        for j in range(i + 1, M):
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                o = np.zeros(M)
                o[i], o[j] = si, sj
                pts.append(o)
            pairs.append((i, j))
    return np.array(pts), pairs


def pullback_jet_path(
    spec: SystemSpec,
    l: int,
    bundle: RayBundle,
    i: int,
    rel_step: float = 1e-4,
) -> list[SymbolJet]:
    """Second-order chart jets of the mode Hamiltonian along ray ``i``.

    Evaluates the pulled-back Hamiltonian
    Lambda = lambda(t, x(t,r,s), J^{-T}(rho, sigma)) - <xi, dX/dt>
    on a finite-difference stencil at every time node at once.
    """
    d, d1, d2 = bundle.d, bundle.d1, bundle.d2
    M = 2 * d2 + d1
    n_t = bundle.n_t
    template = ClusterTemplate(spec, bundle.t[0], bundle.x[0, i], bundle.xi[0, i])

    offsets, pairs = _stencil(M)
    n_pts = offsets.shape[0]
    scale_s = rel_step * max(1.0, bundle.chart_radius)
    xi_norm = float(np.mean(np.linalg.norm(bundle.xi[:, i], axis=-1)))
    scale_p = rel_step * max(1.0, xi_norm)
    h = np.concatenate(
        [np.full(d2, scale_s), np.full(d1 + d2, scale_p)]
    )
    du = offsets * h[None, :]
    s_off = du[:, :d2]
    p_off = du[:, d2:]

    e = bundle.frames[:, i]                 # (n_t, d, d2)
    x0 = bundle.x[:, i]
    v0 = bundle.v[:, i]
    if d1:
        tang = bundle.tangents[:, i]        # (n_t, d, 1)
        de_dr = bundle.frame_r_grad[:, i]   # (n_t, d, d2, 1)
        de_dt = bundle.frame_rate[:, i]
        j0 = np.concatenate([tang, e], axis=2)
    else:
        de_dt = bundle.frame_rate[:, i]
        j0 = e
    p0 = np.einsum("kdj,kd->kj", j0, bundle.xi[:, i])

    # chart data at every (node, stencil point)
    X = x0[:, None, :] + np.einsum("kdj,pj->kpd", e, s_off)
    dXdt = v0[:, None, :] + np.einsum("kdj,pj->kpd", de_dt, s_off)
    if d1:
        tang_s = tang[:, None, :, :] + np.einsum("kdjl,pj->kpdl", de_dr, s_off)
        J = np.concatenate(
            [tang_s, np.broadcast_to(e[:, None], (n_t, n_pts, d, d2))], axis=3
        )
    else:
        J = np.broadcast_to(e[:, None], (n_t, n_pts, d, d2)).copy()
    P = p0[:, None, :] + p_off[None, :, :]
    Xi = np.linalg.solve(np.swapaxes(J, -1, -2), P[..., None])[..., 0]

    flat = (n_t * n_pts, d)
    lam = template.eigenvalues(
        np.broadcast_to(bundle.t[:, None], (n_t, n_pts)).reshape(-1),
        X.reshape(flat),
        Xi.reshape(flat),
    )[:, l].reshape(n_t, n_pts)
    lam = lam - np.einsum("kpd,kpd->kp", Xi, dXdt)

    jets = []
    grad = np.empty((n_t, M))
    hess = np.empty((n_t, M, M))
    f0 = lam[:, 0]
    for a in range(M):
        fp = lam[:, 1 + 2 * a]
        fm = lam[:, 2 + 2 * a]
        grad[:, a] = (fp - fm) / (2 * h[a])
        hess[:, a, a] = (fp - 2 * f0 + fm) / (h[a] ** 2)
    base = 1 + 2 * M
    for idx, (a, b) in enumerate(pairs):
        fpp = lam[:, base + 4 * idx]
        fpm = lam[:, base + 4 * idx + 1]
        fmp = lam[:, base + 4 * idx + 2]
        fmm = lam[:, base + 4 * idx + 3]
        val = (fpp - fpm - fmp + fmm) / (4 * h[a] * h[b])
        hess[:, a, b] = val
        hess[:, b, a] = val
    for k in range(n_t):
        jets.append(SymbolJet(d1=d1, d2=d2, grad=grad[k], hess=hess[k]))
    return jets


def pullback_symbol_derivs(
    spec: SystemSpec,
    l: int,
    bundle: RayBundle,
    k: int,
    i: int,
    rel_step: float = 1e-4,
) -> SymbolJet:
    """Chart jet of the mode Hamiltonian at a single node (convenience API)."""
    return pullback_jet_path(spec, l, bundle, i, rel_step=rel_step)[k]


def ray_stationarity_defect(jets: list[SymbolJet]) -> float:
    """Max |dLambda/d(rho,sigma)| along a ray; vanishes on exact ray data."""
    worst = 0.0
    for jet in jets:
        if jet.grad_rho.size:
            worst = max(worst, float(np.max(np.abs(jet.grad_rho))))
        worst = max(worst, float(np.max(np.abs(jet.grad_sigma))))
    return worst
