"""Polarized amplitude transport on the beam, its tube extension, and the corrector.

The leading amplitude a(t, r) lives on the beam manifold, polarized in the
range of the mode projector.  It solves the constrained transport equation

    da/dt = -pi (L0 pi + B) a - i g a + (I - pi) (dpi/dt) a,

where (L0 pi) applies the principal part L0 = d_t + sum_j A_j d_{x_j} to the
projector field pi(t, x, d_x Re(phi)) near the ray, and the localization shift

    g(t, r) = (1/2) sum_ij  d2(Im phi)/dx_i dx_j * d2(lambda)/dxi_i dxi_j

is the Gouy phase rate produced by the transverse localization.  Off the
manifold the amplitude is extended to second order by the projector-jet
polynomial M(t, r, s) a(t, r), and the first corrector solves the algebraic
complement-space equation with the extended symbol.

L0 is needed only on the rays, where the chain rule gives it from the beam
arrays (``_l0_on_rays``), for the projector and for the extended amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import PolarizationDriftError, SeparationFailureError
from .extension import ComplexCovector, extended_modes
from .numerics import central_time_derivative
from .phase import PhaseJet, phase_gradient_at
from .rays import RayBundle
from .systems import ClusterTemplate, SystemSpec, eigen_decompose

TRANSPORT_POL_TOL = 1e-8
TRANSPORT_POL_FIX = 1e-6
POL_DRIFT_MAX = 1e-6


# ---------------------------------------------------------------------------
# projector fields along the beam
# ---------------------------------------------------------------------------

def _phase_gradient_on_ray(jet: PhaseJet, bundle: RayBundle, k: int, i: int, s: np.ndarray):
    """Complex spatial phase gradient at chart offsets s from ray i (no inversion)."""
    s = np.atleast_2d(np.asarray(s, dtype=float))
    r = np.full(s.shape[0], bundle.r[i] if bundle.d1 else 0.0)
    return phase_gradient_at(jet, bundle, k, r, s)[1]


def _l0_on_rays(spec, bundle: RayBundle, ks, df_dt, grad_f):
    """L0 f on the rays at time nodes ks, by the chain rule.

    ``df_dt`` (m, n_r, N, M) is the derivative of f along the rays and
    ``grad_f`` (m, n_r, d, N, M) its chart derivatives, d_r first for line
    beams, then d_s.  Returns Df/Dt + sum_j (A_j - v_j I) (grad f . J^-1)_j.
    """
    jinv = np.linalg.inv(bundle.node_jacobians(ks))
    grad_x = np.einsum("krcj,krc...->krj...", jinv, grad_f)
    t, x, v = bundle.t[ks, None], bundle.x[ks], bundle.v[ks]
    out = np.array(df_dt, dtype=complex)
    for j in range(bundle.d):
        g = grad_x[:, :, j]
        out += np.asarray(spec.coeff_A(t, x, j)) @ g - v[:, :, j, None, None] * g
    return out


def _symbol_s_derivative(spec, bundle: RayBundle, jet: PhaseJet) -> np.ndarray:
    """d_s of the symbol A(t, x, d_x Re(phi)) along the chart s-curves on
    the rays, (n_t, n_r, d2, N, N).

    dA_s = sum_j A_j (d_s xi)_j + sum_jk (d_{x_k} A_j) e_k xi_j, with the
    real phase Hessian's s-columns d_s xi = J^-T [d_r sigma - (d_r e)^T xi ;
    Re Phi] (line beams; e Re Phi for point beams).
    """
    e, xi = bundle.frames, bundle.xi                  # (n_t, n_r, d, d2), (n_t, n_r, d)
    rhs = jet.curvature.real
    if bundle.d1:
        top = bundle.r_derivative(jet.sigma) - np.einsum(
            "krdb,krd->krb", bundle.r_derivative(e), xi
        )
        rhs = np.concatenate([top[:, :, None, :], rhs], axis=2)
    dxi = np.linalg.solve(np.swapaxes(bundle.node_jacobians(), -1, -2), rhs)
    t, x = bundle.t[:, None], bundle.x
    da = np.zeros(x.shape[:2] + (bundle.d2, spec.N, spec.N), dtype=complex)
    for j in range(spec.d):
        da += np.asarray(spec.coeff_A(t, x, j))[:, :, None] * dxi[:, :, j, :, None, None]
        for k in range(spec.d):
            shift = e[:, :, k, :] * xi[:, :, j, None]          # (n_t, n_r, d2)
            da += np.asarray(spec.coeff_dxA(t, x, j, k))[:, :, None] * shift[..., None, None]
    return da


def _hessian_lambda_path(template, l, bundle):
    """Eigenvalue Hessians d2 lambda / dxi2 at every path node, batched."""
    n_t, n_r, d = bundle.x.shape
    T = np.broadcast_to(bundle.t[:, None], (n_t, n_r)).reshape(-1)
    hess = template.modes(T, bundle.x.reshape(-1, d), bundle.xi.reshape(-1, d), order=1)[3]
    return hess[:, l].reshape(n_t, n_r, d, d)


def gouy_shift(
    spec: SystemSpec, l: int, bundle: RayBundle, jet: PhaseJet, k: int, i: int
) -> float:
    """Localization phase-shift rate at one node."""
    return float(gouy_path(spec, l, bundle, jet)[k, i])


def gouy_path(spec, l, bundle, jet) -> np.ndarray:
    """g(t, r) on the whole grid: (1/2) trace(d2_x chi . d2_xi lambda)."""
    template = ClusterTemplate(spec, bundle.t[0], bundle.x[0, 0], bundle.xi[0, 0])
    hess_lam = _hessian_lambda_path(template, l, bundle)
    jinv = np.linalg.inv(bundle.node_jacobians())
    s_rows = jinv[:, :, bundle.d1 :, :]                     # (n_t, n_r, d2, d)
    chi_xx = np.einsum(
        "krid,krij,krje->krde", s_rows, jet.curvature.imag, s_rows
    )
    return 0.5 * np.einsum("krde,krde->kr", chi_xx, hess_lam)


# ---------------------------------------------------------------------------
# projector jets and the amplitude extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectorJet:
    """s-jet at a node of the extended projector along the complex phase gradient."""

    value: np.ndarray       # (N, N) real-gradient projector on the ray
    ds: np.ndarray          # (d2, N, N)
    dss: np.ndarray         # (d2, d2, N, N)

    @property
    def quad(self) -> np.ndarray:
        """Quadratic extension coefficients pi_i pi_j + pi_j pi_i + pi_ij."""
        cross = np.einsum("iab,jbc->ijac", self.ds, self.ds)
        return cross + np.swapaxes(cross, 0, 1) + self.dss


def _extended_projector_at(spec, l, bundle, jet, k, i, s_batch):
    """Extended projector at chart offsets from ray i at node k, one batch."""
    s_batch = np.atleast_2d(np.asarray(s_batch, dtype=float))
    X = bundle.chart_points(k, i, s_batch)
    zeta = ComplexCovector.from_complex(_phase_gradient_on_ray(jet, bundle, k, i, s_batch))
    return extended_modes(spec, bundle.t[k], X, zeta)[l].projector


def projector_jet(
    spec: SystemSpec,
    l: int,
    bundle: RayBundle,
    jet: PhaseJet,
    k: int,
    i: int,
    step_rel: tuple[float, float] = (1e-4, 1e-3),
) -> ProjectorJet:
    """First and second s-derivatives of the extended projector at a node.

    First differences use step_rel[0] * chart_radius; second differences use
    the wider step_rel[1] * chart_radius (double differences amplify the
    eigensolver rounding otherwise).
    """
    d2 = bundle.d2
    n = spec.N
    h1 = step_rel[0] * bundle.chart_radius
    h2 = step_rel[1] * bundle.chart_radius

    pts = [np.zeros(d2)]
    for a in range(d2):
        for sgn in (+1, -1):
            o = np.zeros(d2)
            o[a] = sgn * h1
            pts.append(o)
    for a in range(d2):
        for sgn in (+1, -1):
            o = np.zeros(d2)
            o[a] = sgn * h2
            pts.append(o)
    pairs = []
    for a in range(d2):
        for b in range(a + 1, d2):
            for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                o = np.zeros(d2)
                o[a], o[b] = sa * h2, sb * h2
                pts.append(o)
            pairs.append((a, b))
    vals = _extended_projector_at(spec, l, bundle, jet, k, i, np.array(pts))

    center = vals[0]
    ds = np.empty((d2, n, n), dtype=complex)
    dss = np.empty((d2, d2, n, n), dtype=complex)
    for a in range(d2):
        ds[a] = (vals[1 + 2 * a] - vals[2 + 2 * a]) / (2 * h1)
    base2 = 1 + 2 * d2
    for a in range(d2):
        pp = vals[base2 + 2 * a]
        mm = vals[base2 + 2 * a + 1]
        dss[a, a] = (pp - 2 * center + mm) / (h2 * h2)
    base3 = base2 + 2 * d2
    for idx, (a, b) in enumerate(pairs):
        quad = vals[base3 + 4 * idx : base3 + 4 * idx + 4]
        val = (quad[0] - quad[1] - quad[2] + quad[3]) / (4 * h2 * h2)
        dss[a, b] = val
        dss[b, a] = val
    return ProjectorJet(value=center, ds=ds, dss=dss)


def extend_amplitude(pjet: ProjectorJet, a: np.ndarray, s) -> np.ndarray:
    """Second-order tube extension M(t, r, s) a(t, r) at offsets s (m, d2)."""
    s = np.atleast_2d(np.asarray(s, dtype=float))
    lin = np.einsum("iab,b->ia", pjet.ds, a)
    quad = np.einsum("ijab,b->ija", pjet.quad, a)
    return (
        a[None, :]
        + np.einsum("mi,ia->ma", s, lin)
        + 0.5 * np.einsum("mi,mj,ija->ma", s, s, quad)
    )


def natural_extension(spec, l, bundle, jet, k, i, a, s) -> np.ndarray:
    """Alternative tube extension built from xi-derivatives of the projector.

    pi a + i (d_xi pi) pi a chi_x - (1/2)(d_xi pi d_xi pi sym + d2_xi pi) pi a
    chi_x chi_x, with everything evaluated at the real phase gradient; agrees
    with the polynomial extension modulo O(|s|^3).
    """
    s = np.atleast_2d(np.asarray(s, dtype=float))
    X = bundle.chart_points(k, i, s)
    grads = _phase_gradient_on_ray(jet, bundle, k, i, s)
    xi, chi_x = grads.real, grads.imag
    t = bundle.t[k]
    template = ClusterTemplate(spec, t, X[0], xi[0])
    _, projs, _, _, dpi, d2pi = template.modes(t, X, xi, order=2)
    pa = np.einsum("mab,b->ma", projs[:, l], a)
    dpi = dpi[:, l]
    first = 1j * np.einsum("mi,miab,mb->ma", chi_x, dpi, pa)
    cross = np.einsum("miab,mjbc->mijac", dpi, dpi)
    quad = cross + np.swapaxes(cross, 1, 2) + d2pi[:, l]
    second = -0.5 * np.einsum("mi,mj,mijab,mb->ma", chi_x, chi_x, quad, pa)
    return pa + first + second


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

@dataclass
class TransportResult:
    """Amplitude path on the beam with transport diagnostics."""

    a: np.ndarray             # (n_t, n_r, N)
    gouy: np.ndarray          # (n_t, n_r)
    pi: np.ndarray            # (n_t, n_r, N, N) real-gradient projectors on R
    step_drift_max: float     # largest per-step polarization projection
    pol_residual_max: float   # max |(I-pi) a| on the stored path


def _projector_l0(spec, l, bundle, jet, template):
    """pi, dpi/dt along the rays and L0 pi at every node, (n_t, n_r, N, N) each;
    pi and d_s pi come from one kernel call, d_r pi from the r-spline."""
    _, projs, dprojs = template.projector_derivatives(
        bundle.t[:, None], bundle.x, bundle.xi, _symbol_s_derivative(spec, bundle, jet)
    )
    pi = projs[:, :, l]
    dpi_dt = central_time_derivative(pi, bundle.dt)
    grad = dprojs[:, :, l]                                  # d_s pi (n_t, n_r, d2, N, N)
    if bundle.d1:
        grad = np.concatenate([bundle.r_derivative(pi)[:, :, None], grad], axis=2)
    return pi, dpi_dt, _l0_on_rays(spec, bundle, slice(None), dpi_dt, grad)


def _transport_generator(spec, l, bundle, jet):
    """Generator M(t, r) of the transport ODE at every node."""
    n_t, n_r, _ = bundle.x.shape
    n = spec.N
    template = ClusterTemplate(spec, bundle.t[0], bundle.x[0, 0], bundle.xi[0, 0])
    gouy = gouy_path(spec, l, bundle, jet)
    bmat = np.broadcast_to(spec.coeff_B(bundle.t[:, None], bundle.x), (n_t, n_r, n, n))
    if n == 1:
        # single-component systems have linear symbols: pi = 1, L0 pi = 0
        pi = template.modes(bundle.t[:, None], bundle.x, bundle.xi)[1][:, :, l]
        gen = -bmat - 1j * gouy[..., None, None]
        return pi, gouy, gen

    pi, dpi_dt, l0pi = _projector_l0(spec, l, bundle, jet, template)
    gen = (
        -np.einsum("krab,krbc->krac", pi, l0pi + bmat)
        - 1j * gouy[..., None, None] * np.broadcast_to(np.eye(n), (n_t, n_r, n, n))
        + np.einsum("krab,krbc->krac", np.eye(n) - pi, dpi_dt)
    )
    return pi, gouy, gen


def solve_transport(
    spec: SystemSpec,
    l: int,
    bundle: RayBundle,
    jet: PhaseJet,
    a0: np.ndarray,
) -> TransportResult:
    """Integrate the polarized transport equation along every ray.

    ``a0`` has shape (n_r, N) and must be polarized in mode ``l`` at t=0 to
    1e-8 (amplitudes within 1e-6 are projected and renormalized, worse ones
    are rejected).
    """
    n_t, n_r, _ = bundle.x.shape
    n = spec.N
    a0 = np.asarray(a0, dtype=complex).reshape(n_r, n)
    pi, gouy, gen = _transport_generator(spec, l, bundle, jet)

    res0 = a0 - np.einsum("rab,rb->ra", pi[0], a0)
    worst0 = float(np.max(np.linalg.norm(res0, axis=-1)))
    scale0 = max(1.0, float(np.max(np.linalg.norm(a0, axis=-1))))
    if worst0 > TRANSPORT_POL_FIX * scale0:
        raise PolarizationDriftError(
            f"initial amplitude polarization residual {worst0:.3e} too large"
        )
    if worst0 > TRANSPORT_POL_TOL * scale0:
        proj = np.einsum("rab,rb->ra", pi[0], a0)
        norms = np.linalg.norm(a0, axis=-1, keepdims=True)
        pnorms = np.linalg.norm(proj, axis=-1, keepdims=True)
        a0 = proj * (norms / np.where(pnorms > 0, pnorms, 1.0))

    dt = bundle.dt
    a = np.empty((n_t, n_r, n), dtype=complex)
    a[0] = a0
    drift_max = 0.0
    for k in range(n_t - 1):
        g0, g1 = gen[k], gen[k + 1]
        gh = 0.5 * (g0 + g1)
        cur = a[k]
        k1 = np.einsum("rab,rb->ra", g0, cur)
        k2 = np.einsum("rab,rb->ra", gh, cur + 0.5 * dt * k1)
        k3 = np.einsum("rab,rb->ra", gh, cur + 0.5 * dt * k2)
        k4 = np.einsum("rab,rb->ra", g1, cur + dt * k3)
        nxt = cur + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        projected = np.einsum("rab,rb->ra", pi[k + 1], nxt)
        drift = float(np.max(np.linalg.norm(nxt - projected, axis=-1)))
        drift_max = max(drift_max, drift)
        if drift > POL_DRIFT_MAX:
            raise PolarizationDriftError(
                f"transport left the polarization space by {drift:.3e} at "
                f"step {k + 1}"
            )
        a[k + 1] = projected
    resid = a - np.einsum("krab,krb->kra", pi, a)
    return TransportResult(
        a=a,
        gouy=gouy,
        pi=pi,
        step_drift_max=drift_max,
        pol_residual_max=float(np.max(np.linalg.norm(resid, axis=-1))),
    )


# ---------------------------------------------------------------------------
# extension field and corrector
# ---------------------------------------------------------------------------

class ExtensionField:
    """Coefficients of the extended leading amplitude a0(t, x) = M(t, r, s) a(t, r).

    ``lin_a`` (n_t, n_r, d2, N) holds pi_i a, which is also d_s a0 on the ray,
    and ``quad_a`` (n_t, n_r, d2, d2, N) the quadratic coefficients applied to
    a.  Both are computed on a strided time grid and interpolated; they are
    smooth along the beam, while every node costs a stencil of chart-offset
    phase gradients and one batched kernel call.  ``BeamSolution.evaluate``
    is the evaluator of the field off the ray.
    """

    def __init__(self, spec, l, bundle, jet, a_path, stride: int | None = None):
        self.a = np.asarray(a_path, dtype=complex)
        n_t, n_r, n = self.a.shape
        d2 = bundle.d2
        if spec.N == 1:
            self.lin_a = np.zeros((n_t, n_r, d2, 1), dtype=complex)
            self.quad_a = np.zeros((n_t, n_r, d2, d2, 1), dtype=complex)
            return
        if stride is None:
            stride = max(1, n_t // 120)
        ks = sorted(set(range(0, n_t, stride)) | {n_t - 1})
        lin_c = np.empty((len(ks), n_r, d2, n), dtype=complex)
        quad_c = np.empty((len(ks), n_r, d2, d2, n), dtype=complex)
        for ci, k in enumerate(ks):
            for i in range(n_r):
                pj = projector_jet(spec, l, bundle, jet, k, i)
                lin_c[ci, i] = np.einsum("iab,b->ia", pj.ds, self.a[k, i])
                quad_c[ci, i] = np.einsum("ijab,b->ija", pj.quad, self.a[k, i])
        if len(ks) > 3:
            t_c = bundle.t[ks]
            self.lin_a = CubicSpline(t_c, lin_c, axis=0)(bundle.t)
            self.quad_a = CubicSpline(t_c, quad_c, axis=0)(bundle.t)
        else:
            self.lin_a = np.repeat(lin_c[:1], n_t, axis=0)
            self.quad_a = np.repeat(quad_c[:1], n_t, axis=0)


def _residual_on_rays(spec, bundle: RayBundle, ext: ExtensionField, ks) -> np.ndarray:
    """(L0 a0 + B a0) on the rays at time nodes ks, (m, n_r, N).

    On the ray a0 = a, d_r a0 is the r-spline derivative of a and d_s a0 is
    ``ext.lin_a``.
    """
    a = ext.a[ks]
    da_dt = central_time_derivative(ext.a, bundle.dt)[ks]
    grad = ext.lin_a[ks]                                    # (m, n_r, d2, N)
    if bundle.d1:
        grad = np.concatenate([bundle.r_derivative(a)[:, :, None], grad], axis=2)
    l0 = _l0_on_rays(spec, bundle, ks, da_dt[..., None], grad[..., None])[..., 0]
    bmat = np.asarray(spec.coeff_B(bundle.t[ks, None], bundle.x[ks]))
    return l0 + np.einsum("krab,krb->kra", bmat, a)


def _complement_solve(spec, l, bundle: RayBundle, ks, rays, resid, min_separation):
    """a1 = -sum_{l' != l} P_l' w / (i (lambda_l' - lambda_l)) at the nodes
    (ks x rays), w the complement part of ``resid`` (len(ks), len(rays), N)."""
    sel = np.ix_(ks, rays)
    template = ClusterTemplate(spec, bundle.t[0], bundle.x[0, 0], bundle.xi[0, 0])
    vals, projs = template.modes(bundle.t[ks, None], bundle.x[sel], bundle.xi[sel])
    w = resid - np.einsum("krab,krb->kra", projs[:, :, l], resid)
    floor = max(0.0 if min_separation is None else min_separation / 10.0, 1e-12)
    a1 = np.zeros_like(resid)
    for lp in range(template.n_modes):
        if lp == l:
            continue
        gap = vals[:, :, lp] - vals[:, :, l]
        bad = np.argwhere(np.abs(gap) <= floor)
        if bad.size:
            kk, ii = bad[0]
            raise SeparationFailureError(
                f"competing mode {lp} too close ({gap[kk, ii]:.3e}) for the "
                f"corrector solve at time node {ks[kk]}, ray {rays[ii]}"
            )
        a1 -= np.einsum("krab,krb->kra", projs[:, :, lp], w) / (1j * gap[..., None])
    return a1


def transport_residual(spec, l, bundle, jet, ext: ExtensionField, k: int, i: int):
    """(L0 a0 + B a0) at a node, by the chain rule on the ray.

    Returns (full residual vector, mode decomposition at the node).  The
    projection pi(...) of this vector is the transport-equation check; the
    complement part feeds the corrector.
    """
    resid = _residual_on_rays(spec, bundle, ext, [k])[0, i]
    return resid, eigen_decompose(spec, bundle.t[k], bundle.x[k, i], bundle.xi[k, i])


def compute_corrector(
    spec: SystemSpec,
    l: int,
    bundle: RayBundle,
    jet: PhaseJet,
    ext: ExtensionField,
    k: int,
    i: int,
    min_separation: float | None = None,
) -> np.ndarray:
    """First corrector a1(t, r) at one node: the complement-space solve.

    a1 = -S^+ w with w the complement part of (L0 a0 + B a0) on the beam and
    S = sum_{l' != l} i (lambda_l' - lambda_l) pi_l'; the pseudo-inverse
    rejects denominators below ``min_separation``.  A one-node view of
    ``corrector_path``.
    """
    if spec.N == 1:
        return np.zeros(1, dtype=complex)
    resid = _residual_on_rays(spec, bundle, ext, [k])[:, [i]]
    return _complement_solve(spec, l, bundle, [k], [i], resid, min_separation)[0, 0]


def corrector_path(
    spec, l, bundle, jet, ext: ExtensionField,
    stride: int | None = None,
    min_separation: float | None = None,
) -> np.ndarray:
    """Corrector on the full grid, computed strided in t and interpolated."""
    n_t, n_r, _ = ext.a.shape
    if spec.N == 1:
        return np.zeros((n_t, n_r, 1), dtype=complex)
    if stride is None:
        stride = max(1, n_t // 100)
    # keep away from the path ends where one-sided time differences are used
    ks = sorted(set(range(1, n_t - 1, stride)) | {1, n_t - 2})
    resid = _residual_on_rays(spec, bundle, ext, ks)
    vals = _complement_solve(spec, l, bundle, ks, range(n_r), resid, min_separation)
    if len(ks) > 3:
        sp = CubicSpline(bundle.t[ks], vals, axis=0, extrapolate=True)
        return sp(bundle.t)
    return np.repeat(vals[:1], n_t, axis=0)
