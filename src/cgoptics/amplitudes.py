"""Polarized amplitude transport on the beam, its tube extension, and the corrector.

The leading amplitude a(t, r) lives on the beam manifold, polarized in the
range of the mode projector.  It solves the constrained transport equation

    da/dt = -pi (L0 pi + B) a - i g a + (I - pi) (dpi/dt) a,

where (L0 pi) applies the principal part L0 = d_t + sum_j A_j d_{x_j} to the
projector field pi(t, x, d_x Re(phi)) near the ray, and the localization shift

    g(t, r) = (1/2) sum_ij  d2(Im phi)/dx_i dx_j * d2(lambda)/dxi_i dxi_j

is the Gouy phase rate produced by the transverse localization.  Off the
manifold the amplitude is extended to second order by the projector-jet
polynomial M(t, r, s) a(t, r), whose s-jet of the extended projector is exact
(resolvent formulas along the symbol path), and the first corrector solves
the algebraic complement-space equation with the extended symbol.

L0 is needed only on the rays, where the chain rule gives it from the beam
arrays (``_l0_on_rays``), for the projector and for the extended amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PolarizationDriftError, SeparationFailureError
from .numerics import (
    CubicPoints,
    central_time_derivative,
    cubic_columns,
    not_a_knot,
    rk4_step_maps,
    split_columns,
    step_blocks,
)
from .phase import PhaseJet
from .rays import RayBundle
from .systems import SystemSpec

TRANSPORT_POL_TOL = 1e-8
TRANSPORT_POL_FIX = 1e-6
POL_DRIFT_MAX = 1e-6


# ---------------------------------------------------------------------------
# projector fields along the beam
# ---------------------------------------------------------------------------

def _l0_on_rays(spec, bundle: RayBundle, ks, df_dt, grad_f):
    """L0 f on the rays at time nodes ks, by the chain rule.

    ``df_dt`` (m, n_r, N, M) is the derivative of f along the rays and
    ``grad_f`` (m, n_r, d, N, M) its chart derivatives, d_r first for line
    beams, then d_s.  Returns Df/Dt + sum_j (A_j - v_j I) (grad f . J^-1)_j.
    """
    grad_x = np.einsum("krcj,krc...->krj...", bundle.jacobian_inv[ks], grad_f)
    t, x, v = bundle.t[ks, None], bundle.x[ks], bundle.v[ks]
    out = np.array(df_dt, dtype=complex)
    for j in range(bundle.d):
        g = grad_x[:, :, j]
        out += np.asarray(spec.coeff_A(t, x, j)) @ g - v[:, :, j, None, None] * g
    return out


def gouy_path(bundle, jet) -> np.ndarray:
    """g(t, r) on the whole grid: (1/2) trace(d2_x chi . d2_xi lambda), with
    d2_xi lambda the phase jet's ``hess_xi``."""
    s_rows = bundle.jacobian_inv[:, :, bundle.d1 :, :]      # (n_t, n_r, d2, d)
    chi_xx = np.einsum(
        "krid,krij,krje->krde", s_rows, jet.curvature.imag, s_rows
    )
    return 0.5 * np.einsum("krde,krde->kr", chi_xx, jet.hess_xi)


# ---------------------------------------------------------------------------
# projector jets and the amplitude extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectorJet:
    """s-jet at a node of the extended projector along the complex phase
    gradient; stacked jets carry leading axes."""

    value: np.ndarray       # (..., N, N) real-gradient projector on the ray
    ds: np.ndarray          # (..., d2, N, N)
    dss: np.ndarray         # (..., d2, d2, N, N)

    @property
    def quad(self) -> np.ndarray:
        """Quadratic extension coefficients pi_i pi_j + pi_j pi_i + pi_ij."""
        cross = np.einsum("...iab,...jbc->...ijac", self.ds, self.ds)
        return cross + np.swapaxes(cross, -4, -3) + self.dss


def _frame_dxA(spec, t, X, e) -> np.ndarray:
    """F_ja = sum_k (d A_j / d x_k) e_ka at points X (..., d) with frames e
    (..., d, d2): the A_j's x-derivatives along the frame, (..., d, d2, N, N)."""
    return np.stack([
        sum(np.asarray(spec.coeff_dxA(t, X, j, k))[..., None, :, :] * e[..., k, :, None, None]
            for k in range(spec.d))
        for j in range(spec.d)], axis=-4)


def _symbol_s_jet(spec, bundle: RayBundle, jet: PhaseJet, ks, curv, second=True):
    """s-derivatives at s = 0 of S(s) = sum_j A_j(X(s)) zeta_j(s) on the rays at
    time nodes ks, for the phase with curvature ``curv``: zeta (m, n_r, d), S_a
    (m, n_r, d2, N, N) and, if ``second``, S_ab.  X(s) = x + e s, and zeta(s)
    solves J(s)^T zeta = d_(r,s) phi as in ``phase_gradient_at``, with J(s) =
    [d_r x + (d_r e) s | e] (a point beam's J is its identity frame), the
    bundle's tangents, frame r-derivatives and node Jacobian inverse, and
    the jet's d_r phi0 and d_r sigma.  As
    J_a^T z = (d_r e_a) . z sits in the r row, J^T zeta_a = d_a d_(r,s) phi -
    J_a^T zeta and J^T zeta_ab = d_ab d_(r,s) phi - J_a^T zeta_b - J_b^T zeta_a.
    With F of ``_frame_dxA``, S_a = sum_j A_j zeta_a,j + F_ja zeta_j and S_ab =
    sum_j A_j zeta_ab,j + F_ja zeta_b,j + F_jb zeta_a,j + (d_b F_ja) zeta_j,
    where d_b F_ja = sum_kl (d_kl A_j) e_ka e_lb from ``coeff_d2xA`` (the
    frame is constant in s).
    """
    t, x, e = bundle.t[ks, None], bundle.x[ks], bundle.frames[ks]
    zeta, zeta_s = jet.sigma[ks], curv                     # zeta_s[..., j, a] = d_a zeta_j
    if bundle.d1:
        de_dr = bundle.frame_r_grad[ks][..., 0]                # (m, n_r, d, d2)
        jt_inv = np.swapaxes(bundle.jacobian_inv[ks], -1, -2)
        dphi0 = np.broadcast_to(jet.dphi0_dr, zeta.shape[:2])
        zeta = np.einsum("krij,krj->kri", jt_inv, np.concatenate([dphi0[..., None], zeta], -1))
        top = jet.dsigma_dr[ks] - np.einsum("krda,krd->kra", de_dr, zeta)
        zeta_s = jt_inv @ np.concatenate([top[:, :, None], curv], axis=2)
    a = [np.asarray(spec.coeff_A(t, x, j))[:, :, None] for j in range(spec.d)]
    f = _frame_dxA(spec, t, x, e)
    ds = np.einsum("krjaxy,krj->kraxy", f, zeta)
    ds = ds + sum(aj * zeta_s[:, :, j, :, None, None] for j, aj in enumerate(a))
    if not second:
        return zeta, ds
    df = np.stack([                                         # (m, n_r, d2 [b], d, d2 [a], N, N)
        sum(np.asarray(spec.coeff_d2xA(t, x, j, k, i))[:, :, None, None]
            * (e[:, :, k, None, :] * e[:, :, i, :, None])[..., None, None]
            for k in range(spec.d) for i in range(spec.d))
        for j in range(spec.d)], axis=3)
    half = np.einsum("krjaxy,krjb->krabxy", f, zeta_s)     # S_ab = half + its transpose
    half = half + 0.5 * np.einsum("krbjaxy,krj->krabxy", df, zeta)
    if bundle.d1:                                            # a point beam's zeta_ab is 0
        cross = np.einsum("krda,krdb->krab", de_dr, zeta_s)
        top = bundle.r_derivative(curv) - cross - np.swapaxes(cross, -1, -2)
        zeta_ss = top[..., None] * jt_inv[:, :, None, None, :, 0]
        half += 0.5 * sum(aj[:, :, None] * zeta_ss[..., j, None, None] for j, aj in enumerate(a))
    return zeta, ds, half + np.swapaxes(half, 2, 3)


def _projector_jets(spec, l, bundle, jet, ks) -> ProjectorJet:
    """Projector jets on every ray at time nodes ks, (len(ks), n_r), from one kernel call: as
    Im zeta = 0 on the ray, the s-jet of Pi(s) = T2[pi](X(s), zeta(s)) is the holomorphic
    projector's 2-jet along ``_symbol_s_jet``'s path, exact by ``projector_derivatives``."""
    zeta, ds, dss = _symbol_s_jet(spec, bundle, jet, ks, jet.curvature[ks])
    pj = bundle.template.projector_derivatives(bundle.t[ks, None], bundle.x[ks], zeta, ds, l, dss)
    return ProjectorJet(*pj)


def projector_jet(spec, l: int, bundle: RayBundle, jet: PhaseJet, k: int, i: int) -> ProjectorJet:
    """The s-jet of the extended projector at node (k, i); a one-node view
    of ``_projector_jets``."""
    pj = _projector_jets(spec, l, bundle, jet, [k])
    return ProjectorJet(value=pj.value[0, i], ds=pj.ds[0, i], dss=pj.dss[0, i])


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

@dataclass
class TransportResult:
    """Amplitude path on the beam with transport diagnostics."""

    a: np.ndarray             # (n_t, n_r, N)
    gouy: np.ndarray          # (n_t, n_r)
    step_drift_max: float     # largest per-step polarization projection
    pol_residual_max: float   # max |(I-pi) a| on the stored path


def _projector_l0(spec, l, bundle, jet, k0: int, k1: int):
    """pi, dpi/dt along the rays and L0 pi at the time nodes k0 .. k1,
    (k1 + 1 - k0, n_r, N, N) each.  pi and d_s pi come from one kernel call
    on those nodes and a one-node halo on either side for the central dpi/dt
    (the one-sided formulas apply only at the path's ends), d_r pi from the
    r-spline.  On the straight rays of constant coefficients the symbol at
    node 0 is every node's, so the decomposition runs on the n_r rays there,
    against the per-node directions d_s S."""
    lo, hi = max(k0 - 1, 0), min(k1 + 1, bundle.n_t - 1)
    win, inner = slice(lo, hi + 1), slice(k0 - lo, k1 + 1 - lo)
    ds_symbol = _symbol_s_jet(spec, bundle, jet, win, jet.curvature[win].real, second=False)[1]
    if spec.constant_coefficients:
        points = bundle.t[0], bundle.x[0], bundle.xi[0]
    else:
        points = bundle.t[win, None], bundle.x[win], bundle.xi[win]
    pi, grad = bundle.template.projector_derivatives(*points, ds_symbol, l)  # grad: d_s pi
    dpi_dt = central_time_derivative(pi, bundle.dt)[inner]
    pi, grad = pi[inner], grad[inner]
    if bundle.d1:
        grad = np.concatenate([bundle.r_derivative(pi)[:, :, None], grad], axis=2)
    return pi, dpi_dt, _l0_on_rays(spec, bundle, slice(k0, k1 + 1), dpi_dt, grad)


def _transport_generator(spec, l, bundle, jet, gouy, k0: int, k1: int):
    """pi and the generator M(t, r) of the transport ODE at the time nodes
    k0 .. k1, from the Gouy rate ``gouy`` on the whole grid."""
    ks = slice(k0, k1 + 1)
    shape = (k1 + 1 - k0, bundle.n_r, spec.N, spec.N)
    bmat = np.broadcast_to(spec.coeff_B(bundle.t[ks, None], bundle.x[ks]), shape)
    if spec.N == 1:
        # single-component systems have linear symbols: pi = 1, L0 pi = 0
        pi = bundle.template.modes(bundle.t[ks, None], bundle.x[ks], bundle.xi[ks])[1][:, :, l]
        return pi, -bmat - 1j * gouy[ks, :, None, None]

    eye = np.eye(spec.N)
    pi, dpi_dt, l0pi = _projector_l0(spec, l, bundle, jet, k0, k1)
    gen = (
        -np.einsum("krab,krbc->krac", pi, l0pi + bmat)
        - 1j * gouy[ks, :, None, None] * np.broadcast_to(eye, shape)
        + np.einsum("krab,krbc->krac", eye - pi, dpi_dt)
    )
    return pi, gen


def _polarized_start(pi0: np.ndarray, a0: np.ndarray) -> np.ndarray:
    """a0 (n_r, N) checked against the projectors pi0 at t = 0: rejected if
    its polarization residual exceeds ``TRANSPORT_POL_FIX``, projected and
    renormalized if it exceeds ``TRANSPORT_POL_TOL`` (both relative to
    max(1, |a0|))."""
    res0 = a0 - np.einsum("rab,rb->ra", pi0, a0)
    worst0 = float(np.max(np.linalg.norm(res0, axis=-1)))
    scale0 = max(1.0, float(np.max(np.linalg.norm(a0, axis=-1))))
    if worst0 > TRANSPORT_POL_FIX * scale0:
        raise PolarizationDriftError(
            f"initial amplitude polarization residual {worst0:.3e} too large"
        )
    if worst0 > TRANSPORT_POL_TOL * scale0:
        proj = np.einsum("rab,rb->ra", pi0, a0)
        norms = np.linalg.norm(a0, axis=-1, keepdims=True)
        pnorms = np.linalg.norm(proj, axis=-1, keepdims=True)
        a0 = proj * (norms / np.where(pnorms > 0, pnorms, 1.0))
    return a0


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

    The transport equation is linear, so one RK4 step (the generator at the
    node, the averaged midpoint and the next node) is a matrix S_k, and a
    step reprojects: a_{k+1} = pi_{k+1} S_k a_k.  The path is walked in
    blocks of steps (``numerics.step_blocks``), and each block forms pi and
    the generator at its own nodes only, so neither exists for the whole
    path; every node's values are those of a whole-path evaluation.  The
    maps pi_{k+1} S_k are formed for the block at once; for N = 1, pi = 1
    and a is a0 times their cumulative product, with no loop over steps,
    and for N > 1 one matrix-vector product per step remains.  The drift
    |(I - pi_{k+1}) S_k a_k| of every step of a block is then taken in one
    batch; above ``POL_DRIFT_MAX`` it raises ``PolarizationDriftError`` at
    the first such step, with overflow after it kept silent.  The
    polarization residual |(I - pi) a| is read from each block's pi.
    """
    n_t, n_r, _ = bundle.x.shape
    n = spec.N
    a0 = np.asarray(a0, dtype=complex).reshape(n_r, n)
    gouy = gouy_path(bundle, jet)
    a = np.empty((n_t, n_r, n), dtype=complex)
    drift_max = 0.0
    pol_residuals = []
    for k0, k1 in step_blocks(n_t - 1, n_r * n * n):
        pi, gen = _transport_generator(spec, l, bundle, jet, gouy, k0, k1)
        if k0 == 0:
            a[0] = _polarized_start(pi[0], a0)
        with np.errstate(all="ignore"):
            maps = rk4_step_maps(gen, bundle.dt)
            kept = pi[1:] @ maps                          # pi_{k+1} S_k
            maps -= kept                                  # (I - pi_{k+1}) S_k
            if n == 1:
                a[k0 + 1 : k1 + 1] = a[k0] * np.cumprod(kept[..., 0], axis=0)
            else:
                for k in range(k0, k1):
                    np.matmul(kept[k - k0], a[k, :, :, None], out=a[k + 1, :, :, None])
            drift = np.linalg.norm((maps @ a[k0:k1, :, :, None])[..., 0], axis=-1).max(axis=1)
            bad = np.flatnonzero(~(drift <= POL_DRIFT_MAX))
            if bad.size:
                k = k0 + int(bad[0])
                raise PolarizationDriftError(
                    f"transport left the polarization space by {drift[bad[0]]:.3e} at "
                    f"step {k + 1}"
                )
            drift_max = max(drift_max, float(drift.max()))
        block = a[k0 : k1 + 1]
        resid = block - np.einsum("krab,krb->kra", pi, block)
        pol_residuals.append(np.max(np.linalg.norm(resid, axis=-1)))
    return TransportResult(
        a=a,
        gouy=gouy,
        step_drift_max=drift_max,
        pol_residual_max=float(np.max(pol_residuals)),
    )


# ---------------------------------------------------------------------------
# extension field and corrector
# ---------------------------------------------------------------------------

class ExtensionField:
    """Coefficients of the extended leading amplitude a0(t, x) = M(t, r, s) a(t, r).

    ``lin_a`` (n_t, n_r, d2, N) holds pi_i a, which is also d_s a0 on the ray,
    and ``quad_a`` (n_t, n_r, d2, d2, N) the quadratic coefficients applied to
    a.  Both come from the exact projector jets of every ray at the nodes of
    a strided time grid, in one batched kernel call, and are interpolated
    along the beam, where they are smooth.  ``BeamSolution.evaluate`` is the
    evaluator of the field off the ray.
    """

    def __init__(self, spec, l, bundle, jet, a_path, stride: int | None = None):
        self.a = a = np.asarray(a_path, dtype=complex)
        n_t, n_r, _ = a.shape
        if spec.N == 1:
            self.lin_a = np.zeros((n_t, n_r, bundle.d2, 1), dtype=complex)
            self.quad_a = np.zeros((n_t, n_r, bundle.d2, bundle.d2, 1), dtype=complex)
            return
        if stride is None:
            stride = max(1, n_t // 120)
        ks = sorted(set(range(0, n_t, stride)) | {n_t - 1})
        pj = _projector_jets(spec, l, bundle, jet, ks)
        self.lin_a = _strided_path(bundle.t, ks, np.einsum("kriab,krb->kria", pj.ds, a[ks]))
        self.quad_a = _strided_path(bundle.t, ks, np.einsum("krijab,krb->krija", pj.quad, a[ks]))


def _strided_path(t, ks, values) -> np.ndarray:
    """Values (len(ks), ...) at the time nodes ks on every node of t: the
    not-a-knot cubic through all of them (a line or parabola through 2 or 3)."""
    if len(ks) == 1:
        return np.repeat(values, t.size, axis=0)
    cols = cubic_columns(not_a_knot(t[ks], values))
    return split_columns(CubicPoints(t[ks], t).values(cols), [values])[0]


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
    vals, projs = bundle.template.modes(bundle.t[ks, None], bundle.x[sel], bundle.xi[sel])
    w = resid - np.einsum("krab,krb->kra", projs[:, :, l], resid)
    floor = max(0.0 if min_separation is None else min_separation / 10.0, 1e-12)
    a1 = np.zeros_like(resid)
    for lp in range(bundle.template.n_modes):
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
    return _strided_path(bundle.t, ks, vals)
