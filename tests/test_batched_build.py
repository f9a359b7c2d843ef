"""The whole-bundle phase jet and the stacked extension field.

``build_phase_jet`` integrates the Riccati equation for every ray at once,
from one blocked Hamiltonian-jet pass over all rays; its oracle builds the
coefficients node by node and integrates each ray alone with
``solve_riccati``, and both must agree bit for bit.  The per-ray RK4 loop on
the Riccati equation, which ``solve_riccati`` replaced by step maps of the
linear (Q, P) form, stays here as a second oracle: the curvature must stay
within that scheme change's O(dt^4) truncation of it.  The per-ray
finite-difference Hamiltonian jet, which the exact jet replaced, must agree
with the exact jet within the stencil's truncation
(``test_hamiltonian_jet.JET_TOL``).

``ExtensionField`` takes the projector's s-jet on every ray at all strided
nodes from the resolvent formulas, in one kernel call.  Its oracle is the
per-(node, ray) finite-difference stencil of the extended projector it
replaced: central differences of ``extended_modes`` at chart offsets,
first differences with step 1e-4 and second differences with step 1e-3
times the chart radius.  The two agree within that stencil's truncation.
"""

import functools

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from cgoptics.amplitudes import ExtensionField, solve_transport
from cgoptics.extension import ComplexCovector, extended_modes
from cgoptics.phase import build_phase_jet, initial_curvature, phase_gradient_at, solve_riccati
from cgoptics.rays import evolve_frame, flow_out, pullback_jet_path
from cgoptics.scenarios import (
    _component_from_config,
    bundled_scenario,
    scenario_system,
)
from cgoptics.systems import ClusterTemplate, builtin_system

from test_hamiltonian_jet import JET_TOL, cluster_eigenvalues
from test_l0_chain_rule import CASES as L0_CASES
from test_rays import wave2x2_component

SQRT1_2 = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# oracle: the per-ray phase jet
# ---------------------------------------------------------------------------

def _stencil_per_ray(M):
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


def _pullback_jet_ray(spec, l, bundle, i, rel_step=1e-4):
    # grad (n_t, M) and hess (n_t, M, M) along ray i
    d, d1, d2 = bundle.d, bundle.d1, bundle.d2
    M = 2 * d2 + d1
    n_t = bundle.n_t
    template = ClusterTemplate(spec, bundle.t[0], bundle.x[0, i], bundle.xi[0, i])
    offsets, pairs = _stencil_per_ray(M)
    n_pts = offsets.shape[0]
    scale_s = rel_step * max(1.0, bundle.chart_radius)
    xi_norm = float(np.mean(np.linalg.norm(bundle.xi[:, i], axis=-1)))
    scale_p = rel_step * max(1.0, xi_norm)
    h = np.concatenate([np.full(d2, scale_s), np.full(d1 + d2, scale_p)])
    du = offsets * h[None, :]
    s_off = du[:, :d2]
    p_off = du[:, d2:]
    e = bundle.frames[:, i]
    de_dt = bundle.frame_rate[:, i]
    if d1:
        tang = bundle.tangents[:, i]
        de_dr = bundle.frame_r_grad[:, i]
        j0 = np.concatenate([tang, e], axis=2)
    else:
        j0 = e
    p0 = np.einsum("kdj,kd->kj", j0, bundle.xi[:, i])
    X = bundle.x[:, i][:, None, :] + np.einsum("kdj,pj->kpd", e, s_off)
    dXdt = bundle.v[:, i][:, None, :] + np.einsum("kdj,pj->kpd", de_dt, s_off)
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
    lam = cluster_eigenvalues(
        template,
        np.broadcast_to(bundle.t[:, None], (n_t, n_pts)).reshape(-1),
        X.reshape(flat),
        Xi.reshape(flat),
    )[:, l].reshape(n_t, n_pts)
    lam = lam - np.einsum("kpd,kpd->kp", Xi, dXdt)
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
        fpp, fpm, fmp, fmm = (lam[:, base + 4 * idx + q] for q in range(4))
        val = (fpp - fpm - fmp + fmm) / (4 * h[a] * h[b])
        hess[:, a, b] = val
        hess[:, b, a] = val
    return grad, hess


def _coefficients_node(hess, d1, d2, w):
    s, rho, sig = slice(0, d2), slice(d2, d2 + d1), slice(d2 + d1, 2 * d2 + d1)
    lam_ss, lam_s_sigma, lam_sigma_sigma = hess[s, s], hess[s, sig], hess[sig, sig]
    if d1 == 0 or w is None:
        a = lam_ss.copy()
        b = lam_s_sigma.T.copy()
        c = lam_sigma_sigma.copy()
    else:
        lam_s_rho, lam_rho_rho, lam_rho_sigma = hess[s, rho], hess[rho, rho], hess[rho, sig]
        a = lam_ss + lam_s_rho @ w.T + w @ lam_s_rho.T + w @ lam_rho_rho @ w.T
        b = lam_s_sigma.T + lam_rho_sigma.T @ w.T
        c = lam_sigma_sigma.copy()
    return 0.5 * (a + a.T), b, 0.5 * (c + c.T)


def _solve_riccati_ray(coeffs, phi0, dt):
    a_path, b_path, c_path = coeffs
    out = np.empty((a_path.shape[0],) + phi0.shape, dtype=complex)
    out[0] = phi0

    def rhs(a, b, c, phi):
        return -(a + phi @ b + b.T @ phi + phi @ c @ phi)

    for k in range(a_path.shape[0] - 1):
        a0, b0, c0 = a_path[k], b_path[k], c_path[k]
        a1, b1, c1 = a_path[k + 1], b_path[k + 1], c_path[k + 1]
        ah, bh, ch = 0.5 * (a0 + a1), 0.5 * (b0 + b1), 0.5 * (c0 + c1)
        phi = out[k]
        k1 = rhs(a0, b0, c0, phi)
        k2 = rhs(ah, bh, ch, phi + 0.5 * dt * k1)
        k3 = rhs(ah, bh, ch, phi + 0.5 * dt * k2)
        k4 = rhs(a1, b1, c1, phi + dt * k3)
        nxt = phi + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = 0.5 * (nxt + nxt.T)
    return out


def _phase_jet_per_ray(bundle, comp, hess):
    # (curvature, riccati_min_imag, loop curvature) from one Riccati
    # integration per ray of the coefficients of the jet Hessians
    # hess (n_t, n_r, M, M), by solve_riccati and by the per-step RK4 loop
    n_t, n_r, d1, d2 = bundle.n_t, bundle.n_r, bundle.d1, bundle.d2
    sigma = np.einsum("krdj,krd->krj", bundle.frames, bundle.xi)
    if d1:
        dsigma_dr = bundle.r_derivative(sigma)[..., None]
    phi0_all = initial_curvature(bundle, comp)
    curvature = np.empty((n_t, n_r, d2, d2), dtype=complex)
    loop = np.empty_like(curvature)
    min_imag = np.inf
    for i in range(n_r):
        paths = [np.empty((n_t, d2, d2)) for _ in range(3)]
        for k in range(n_t):
            w = dsigma_dr[k, i] if d1 else None
            for path, m in zip(paths, _coefficients_node(hess[k, i], d1, d2, w)):
                path[k] = m
        curvature[:, i] = solve_riccati(paths, phi0_all[i], bundle.dt)
        loop[:, i] = _solve_riccati_ray(paths, phi0_all[i], bundle.dt)
        min_imag = min(min_imag, float(np.min(np.linalg.eigvalsh(curvature[:, i].imag))))
    return curvature, min_imag, loop


# ---------------------------------------------------------------------------
# oracle: the per-(node, ray) extension field
# ---------------------------------------------------------------------------

def _extended_projector_ray(spec, l, bundle, jet, k, i, s_batch):
    X = bundle.chart_points(k, i, s_batch)
    r = np.full(s_batch.shape[0], bundle.r[i] if bundle.d1 else 0.0)
    zeta = ComplexCovector.from_complex(phase_gradient_at(jet, bundle, k, r, s_batch)[1])
    return extended_modes(spec, bundle.t[k], X, zeta)[l].projector


def _projector_jet_node(spec, l, bundle, jet, k, i, step_rel=(1e-4, 1e-3)):
    # (ds, quad) at one node from its own stencil and kernel call
    d2, n = bundle.d2, spec.N
    h1 = step_rel[0] * bundle.chart_radius
    h2 = step_rel[1] * bundle.chart_radius
    pts = [np.zeros(d2)]
    for h in (h1, h2):
        for a in range(d2):
            for sgn in (+1, -1):
                o = np.zeros(d2)
                o[a] = sgn * h
                pts.append(o)
    pairs = []
    for a in range(d2):
        for b in range(a + 1, d2):
            for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                o = np.zeros(d2)
                o[a], o[b] = sa * h2, sb * h2
                pts.append(o)
            pairs.append((a, b))
    vals = _extended_projector_ray(spec, l, bundle, jet, k, i, np.array(pts))
    center = vals[0]
    ds = np.empty((d2, n, n), dtype=complex)
    dss = np.empty((d2, d2, n, n), dtype=complex)
    for a in range(d2):
        ds[a] = (vals[1 + 2 * a] - vals[2 + 2 * a]) / (2 * h1)
    base2 = 1 + 2 * d2
    for a in range(d2):
        dss[a, a] = (vals[base2 + 2 * a] - 2 * center + vals[base2 + 2 * a + 1]) / (h2 * h2)
    base3 = base2 + 2 * d2
    for idx, (a, b) in enumerate(pairs):
        quad = vals[base3 + 4 * idx : base3 + 4 * idx + 4]
        val = (quad[0] - quad[1] - quad[2] + quad[3]) / (4 * h2 * h2)
        dss[a, b] = val
        dss[b, a] = val
    cross = np.einsum("iab,jbc->ijac", ds, ds)
    return ds, cross + np.swapaxes(cross, 0, 1) + dss


def _extension_per_node(spec, l, bundle, jet, a_path, stride):
    # (lin_a, quad_a) from one projector jet per strided (node, ray)
    n_t, n_r, n = a_path.shape
    d2 = bundle.d2
    ks = sorted(set(range(0, n_t, stride)) | {n_t - 1})
    lin_c = np.empty((len(ks), n_r, d2, n), dtype=complex)
    quad_c = np.empty((len(ks), n_r, d2, d2, n), dtype=complex)
    for ci, k in enumerate(ks):
        for i in range(n_r):
            ds, quad = _projector_jet_node(spec, l, bundle, jet, k, i)
            lin_c[ci, i] = np.einsum("iab,b->ia", ds, a_path[k, i])
            quad_c[ci, i] = np.einsum("ijab,b->ija", quad, a_path[k, i])
    t_c = bundle.t[ks]
    return CubicSpline(t_c, lin_c, axis=0)(bundle.t), CubicSpline(t_c, quad_c, axis=0)(bundle.t)


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

def _acoustics3(component, dt, chart_radius):
    spec = scenario_system(bundled_scenario("acoustics3_beam"))
    comp = _component_from_config(component, spec.d, spec.N)
    return spec, comp, spec.domain.final_time, dt, chart_radius


def _acoustics3_line(xi0):
    cfg = bundled_scenario("acoustics3_beam").components[0]
    cfg["n_r"] = 9
    cfg["phase"]["grad"] = [xi0, 0.0]
    return _acoustics3(cfg, 0.004, 0.9)


def _acoustics3_point():
    cfg = {
        "mode": 2,
        "origin": [0.0, 0.0],
        "phase": {"grad": [1.0, 0.0], "hess_im": [[1.0, 0.0], [0.0, 1.0]]},
        "amplitude": {"re": [SQRT1_2, SQRT1_2, 0.0]},
    }
    return _acoustics3(cfg, 0.004, 0.9)


def _l0_case(name):
    make_spec, make_comp, T, dt, chart_radius = L0_CASES[name][:5]
    return make_spec(), make_comp(), T, dt, chart_radius


# (spec, component, T, dt, chart radius)
CASES = {
    "acoustics3_line_xi1.0": lambda: _acoustics3_line(1.0),
    "acoustics3_line_xi1.1": lambda: _acoustics3_line(1.1),
    "wave2x2_point": lambda: (builtin_system("wave2x2"), wave2x2_component(), 0.5, 0.004, 1.0),
    "acoustics3_point_d2": _acoustics3_point,
}
# the extension field also runs on a curved line, whose frames rotate along
# r, and on 2x2 point beams with a coupling B and with x-dependent A_j
EXT_CASES = {
    **CASES,
    "curved_line": functools.partial(_l0_case, "curved_line"),
    "coupled_wave_point": functools.partial(_l0_case, "coupled_wave_point"),
    "xdep_point": functools.partial(_l0_case, "xdep_point_dxA"),
}


@functools.lru_cache(maxsize=None)
def _built(name):
    spec, comp, T, dt, chart_radius = EXT_CASES[name]()
    bundle = flow_out(spec, comp, T=T, dt=dt)
    evolve_frame(bundle)
    bundle.chart_radius = chart_radius
    jet = build_phase_jet(spec, comp.mode, bundle, comp)
    return spec, comp, bundle, jet


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return _built(request.param)


@pytest.fixture(scope="module", params=sorted(EXT_CASES))
def ext_case(request):
    return (request.param,) + _built(request.param)


# Relative bound on the curvature against the per-step RK4 loop.  Measured
# at dt = 0.004: at most 3.2e-12 on the acoustics3 lines and on the d2 = 2
# point, and 0.0 on wave2x2_point, whose Hamiltonian Hessian is below 1e-33.
RICCATI_LOOP_TOL = 1e-11


def test_phase_jet_matches_per_ray_build_bitwise(case):
    spec, comp, bundle, jet = case
    hess = pullback_jet_path(spec, comp.mode, bundle).hess
    curvature, min_imag, loop = _phase_jet_per_ray(bundle, comp, hess)
    assert np.array_equal(jet.curvature, curvature)
    assert jet.riccati_min_imag == min_imag
    assert min_imag > 0
    assert np.max(np.abs(jet.curvature - loop)) <= RICCATI_LOOP_TOL * np.max(np.abs(loop))


def test_per_ray_fd_jet_matches_exact_jet(case):
    spec, comp, bundle, jet = case
    exact = pullback_jet_path(spec, comp.mode, bundle)
    for i in range(bundle.n_r):
        grad, hess = _pullback_jet_ray(spec, comp.mode, bundle, i)
        assert np.max(np.abs(exact.grad[:, i] - grad)) <= JET_TOL
        assert np.max(np.abs(exact.hess[:, i] - hess)) <= JET_TOL


# |a| <= 0.76, so LIN_TOL bounds the ds error and QUAD_TOL the dss error.
# Measured largest |exact - FD| over the cases: 3.3e-9 on lin_a and 5.3e-7
# on quad_a (acoustics3), the stencil's truncation: halving both steps
# shrinks both 4x.  On the curved line (2.3e-10, 7.3e-8) the stencil's
# rounding takes over the quad_a error at smaller steps.
LIN_TOL, QUAD_TOL = 1e-8, 1e-6


def test_extension_field_matches_per_node_loop_bitwise(ext_case):
    # bounded, not bitwise: the name is kept so the test IDs stay stable
    name, spec, comp, bundle, jet = ext_case
    a0 = np.asarray(comp.amplitude(comp.points), dtype=complex)
    a_path = solve_transport(spec, comp.mode, bundle, jet, a0).a
    ext = ExtensionField(spec, comp.mode, bundle, jet, a_path, stride=25)
    lin_a, quad_a = _extension_per_node(spec, comp.mode, bundle, jet, a_path, 25)
    assert np.max(np.abs(ext.lin_a - lin_a)) <= LIN_TOL
    assert np.max(np.abs(ext.quad_a - quad_a)) <= QUAD_TOL
    if name not in ("wave2x2_point", "coupled_wave_point"):
        # the projector really varies along s
        assert np.max(np.abs(lin_a)) > 1e-2
