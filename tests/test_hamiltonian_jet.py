"""The exact pulled-back Hamiltonian jet against the eigenvalue stencil.

The oracle is the finite-difference construction the exact jet replaced:
the pulled-back Hamiltonian Lambda = lambda(t, X, J^-T p) - <J^-T p, dX/dt>
evaluated at the 1 + 2M + 2M(M-1) points of ``stencil(M)`` around every
node (M = 2 d2 + d1), with the s-step 1e-4 max(1, chart radius) and each
ray's momentum step 1e-4 max(1, mean |xi|), and its gradient and Hessian
taken as central first and second differences of the cluster eigenvalues.
The two differ by the stencil's truncation, and by its rounding, which the
second differences amplify by 1/h^2.

A second oracle is the offset construction that the exact s rows replaced:
central differences in s of the exact chart gradient, from one kernel call
at the 1 + 2 d2 offsets 0, +-h e_a of every node.  Its s rows converge to
the exact ones at O(h^2).
"""

import functools

import numpy as np
import pytest

from cgoptics.rays import _grad_lambda_batch, evolve_frame, flow_out, pullback_jet_path
from cgoptics.scenarios import build_scenario_beams, bundled_scenario, scenario_system
from cgoptics.systems import ClusterTemplate, builtin_system, symbol_many

from test_l0_chain_rule import _curved_line_component, _xdep_spec
from test_rays import gaussian_point_component, wave2x2_component

def cluster_eigenvalues(template, t, X, Xi):
    """Cluster eigenvalues (..., n_modes) at stacked points: ``eigvalsh`` of
    the symmetrized symbol, averaged over each cluster."""
    m = symbol_many(template.spec, t, X, Xi)
    w = np.linalg.eigvalsh(0.5 * (m + np.conj(np.swapaxes(m, -1, -2))))
    return np.stack([w[..., s].mean(axis=-1) for s in template.slices], axis=-1)


def stencil(M: int) -> np.ndarray:
    """Unit offsets (P, M) of the central-difference stencil: the centre,
    then +e_a, -e_a for each a, then the four corners (++, +-, -+, --) of
    each pair a < b."""
    pts = [np.zeros(M)]
    for a in range(M):
        for sgn in (1, -1):
            o = np.zeros(M)
            o[a] = sgn
            pts.append(o)
    for a in range(M):
        for b in range(a + 1, M):
            for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                o = np.zeros(M)
                o[a], o[b] = sa, sb
                pts.append(o)
    return np.array(pts)


def stencil_derivatives(f, h):
    """Gradient (M, ...) and Hessian (M, M, ...) by central differences.

    ``f`` (P, ...) holds values at the ``stencil(M)`` offsets scaled by the
    steps ``h`` (M, ...).
    """
    M = len(h)
    f0 = f[0]
    grad = np.stack([(f[1 + 2 * a] - f[2 + 2 * a]) / (2 * h[a]) for a in range(M)])
    hess = np.empty((M, M) + f0.shape, dtype=f.dtype)
    for a in range(M):
        hess[a, a] = (f[1 + 2 * a] - 2 * f0 + f[2 + 2 * a]) / (h[a] * h[a])
    p = 1 + 2 * M
    for a in range(M):
        for b in range(a + 1, M):
            fpp, fpm, fmp, fmm = f[p:p + 4]
            hess[a, b] = hess[b, a] = (fpp - fpm - fmp + fmm) / (4 * h[a] * h[b])
            p += 4
    return grad, hess


def _pulled_back_hamiltonian(template, l, bundle, ks, s_off, p_off):
    # Lambda at the stencil points (n_k, n_r, P) around every ray at nodes ks
    d, d1, d2 = bundle.d, bundle.d1, bundle.d2
    e = bundle.frames[ks]
    n_k, n_r = e.shape[:2]
    n_pts = s_off.shape[1]
    j0 = bundle.node_jacobians(ks)
    p0 = np.einsum("krdj,krd->krj", j0, bundle.xi[ks])
    X = bundle.x[ks][:, :, None, :] + np.einsum("krdj,rpj->krpd", e, s_off)
    dXdt = bundle.v[ks][:, :, None, :] + np.einsum(
        "krdj,rpj->krpd", bundle.frame_rate[ks], s_off
    )
    e_pts = np.broadcast_to(e[:, :, None], (n_k, n_r, n_pts, d, d2))
    if d1:
        tang_s = bundle.tangents[ks][:, :, None] + np.einsum(
            "krdjl,rpj->krpdl", bundle.frame_r_grad[ks], s_off
        )
        J = np.concatenate([tang_s, e_pts], axis=4)
    else:
        J = e_pts.copy()
    P = p0[:, :, None, :] + p_off[None]
    Xi = np.linalg.solve(np.swapaxes(J, -1, -2), P[..., None])[..., 0]
    lam = cluster_eigenvalues(
        template,
        np.broadcast_to(bundle.t[ks, None, None], (n_k, n_r, n_pts)).reshape(-1),
        X.reshape(-1, d),
        Xi.reshape(-1, d),
    )[:, l].reshape(n_k, n_r, n_pts)
    return lam - np.einsum("krpd,krpd->krp", Xi, dXdt)


def fd_pullback_jet(spec, l, bundle, rel_step=1e-4):
    """(grad (n_t, n_r, M), hess (n_t, n_r, M, M)) from the eigenvalue stencil."""
    d1, d2 = bundle.d1, bundle.d2
    M = 2 * d2 + d1
    n_t, n_r = bundle.n_t, bundle.n_r
    template = ClusterTemplate(spec, bundle.t[0], bundle.x[0, 0], bundle.xi[0, 0])
    scale_s = rel_step * max(1.0, bundle.chart_radius)
    norms = np.ascontiguousarray(np.linalg.norm(bundle.xi, axis=-1).T).mean(axis=1)
    h = np.array([[scale_s] * d2 + [rel_step * max(1.0, float(n))] * (d1 + d2) for n in norms])
    du = stencil(M)[None] * h[:, None, :]
    block = -(-n_t // n_r)
    lam = np.concatenate([
        _pulled_back_hamiltonian(
            template, l, bundle, slice(k0, k0 + block), du[..., :d2], du[..., d2:]
        )
        for k0 in range(0, n_t, block)
    ])
    grad, hess = stencil_derivatives(np.moveaxis(lam, -1, 0), h.T)
    return np.moveaxis(grad, 0, -1), np.moveaxis(hess, (0, 1), (-2, -1))


def offset_s_rows(spec, l, bundle, h):
    """The s rows (n_t, n_r, d2, M) of the pulled-back Hamiltonian's
    Hessian as central differences, step h, of its exact chart gradient
    dLambda/dp = J(s)^-1 (d_xi lambda - dX/dt), dLambda/ds_a = d_x lambda .
    e_a - (dLambda/drho) (d_r e_a . Xi) - Xi . (de/dt)_a, evaluated with
    ``_grad_lambda_batch`` at X = x + e s and Xi = J(s)^-T p for s = +-h e_a."""
    d, d1, d2 = bundle.d, bundle.d1, bundle.d2
    s_off = np.concatenate([np.diag(np.full(d2, h)), np.diag(np.full(d2, -h))])
    e, e_rate = bundle.frames, bundle.frame_rate
    n_t, n_r = bundle.n_t, bundle.n_r
    p0 = np.einsum("krdj,krd->krj", bundle.node_jacobians(), bundle.xi)
    X = bundle.x[:, :, None] + np.einsum("krdj,pj->krpd", e, s_off)
    dXdt = bundle.v[:, :, None] + np.einsum("krdj,pj->krpd", e_rate, s_off)
    J = np.broadcast_to(e[:, :, None], (n_t, n_r, 2 * d2, d, d2))
    if d1:
        de_dr = bundle.frame_r_grad[..., 0]
        tang = bundle.tangents[:, :, None] + np.einsum("krdj,pj->krpd", de_dr, s_off)[..., None]
        J = np.concatenate([tang, J], axis=-1)
    Xi = np.linalg.solve(np.swapaxes(J, -1, -2), p0[:, :, None, :, None])[..., 0]
    T = np.broadcast_to(bundle.t[:, None, None], X.shape[:3]).reshape(-1)
    rates = _grad_lambda_batch(spec, bundle.template, l, T, X.reshape(-1, d), Xi.reshape(-1, d))
    dxi_lam, dx_lam = (g.reshape(X.shape) for g in rates)
    grad_p = np.linalg.solve(J, (dxi_lam - dXdt)[..., None])[..., 0]
    grad_s = np.einsum("krpd,krda->krpa", dx_lam, e) - np.einsum("krpd,krda->krpa", Xi, e_rate)
    if d1:
        grad_s -= grad_p[..., :1] * np.einsum("krpd,krda->krpa", Xi, de_dr)
    grad = np.concatenate([grad_s, grad_p], axis=-1)
    return (grad[:, :, :d2] - grad[:, :, d2:]) / (2 * h)


def _bundled(name, dt=None):
    cfg = bundled_scenario(name)
    if dt is not None:
        cfg.dt = dt
    spec = scenario_system(cfg)
    return spec, build_scenario_beams(cfg)[2][0].bundle


def _curved_line():
    spec = builtin_system("acoustics3")
    comp = _curved_line_component()
    bundle = flow_out(spec, comp, T=0.25, dt=5e-4)
    evolve_frame(bundle)
    bundle.chart_radius = 0.2
    return spec, bundle


# (case, Hessian bound).  Measured |H_exact - H_FD|: variable_advection
# 5.3e-9 (|H| <= 0.3), acoustics3_beam 6.1e-9 (sigma-sigma block only),
# wave2x2_beam 5e-34, advection_cubic_phase 0: the stencil's truncation.
# On the curved line the stencil's rounding dominates: 9.3e-8 at the
# default step, 2.5e-8 at twice it, 3.6e-7 at half of it.  The gradients
# agree to 6.1e-9, and on the curved line to 1.0e-9, shrinking 4x per
# halved step.
JET_TOL = 2e-8
CASES = {
    "variable_advection": (functools.partial(_bundled, "variable_advection"), JET_TOL),
    "acoustics3_beam": (functools.partial(_bundled, "acoustics3_beam", dt=0.004), JET_TOL),
    "wave2x2_beam": (functools.partial(_bundled, "wave2x2_beam"), JET_TOL),
    "advection_cubic_phase": (functools.partial(_bundled, "advection_cubic_phase"), JET_TOL),
    "curved_line": (_curved_line, 3e-7),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    make, hess_tol = CASES[request.param]
    spec, bundle = make()
    exact = pullback_jet_path(spec, bundle.mode, bundle)
    grad, hess = fd_pullback_jet(spec, bundle.mode, bundle)
    return request.param, spec, bundle, exact, grad, hess, hess_tol


def test_exact_jet_matches_fd_stencil(case):
    name, spec, bundle, exact, grad, hess, hess_tol = case
    assert np.max(np.abs(exact.hess - hess)) <= hess_tol
    assert np.max(np.abs(exact.grad - grad)) <= JET_TOL
    assert np.array_equal(exact.hess, np.swapaxes(exact.hess, -1, -2))
    if name == "curved_line":
        # the (dLambda/drho)(d_r e . Xi) and Xi . de/dt terms of dLambda/ds
        # are live: dropping either moves the Hessian by about 1e-2
        xi_e_rate = np.einsum("krda,krd->kra", bundle.frame_rate, bundle.xi)
        assert np.max(np.abs(bundle.frame_r_grad)) > 1e-2
        assert np.max(np.abs(xi_e_rate)) > 1e-2


def test_hess_xi_is_the_kernel_eigenvalue_hessian(case):
    # the momentum block is J^-1 Hess_xi(lambda) J^-T, and hess_xi is the
    # order-1 kernel Hessian at the ray nodes, which the Gouy rate reads
    name, spec, bundle, exact, *_ = case
    n_t, n_r, d = bundle.x.shape
    template = ClusterTemplate(spec, bundle.t[0], bundle.x[0, 0], bundle.xi[0, 0])
    T = np.broadcast_to(bundle.t[:, None], (n_t, n_r)).reshape(-1)
    want = template.modes(
        T, bundle.x.reshape(-1, d), bundle.xi.reshape(-1, d), order=1
    )[3][:, bundle.mode]
    assert np.array_equal(exact.hess_xi, want.reshape(n_t, n_r, d, d))


def _point_beam(spec, comp, T, dt, radius):
    bundle = flow_out(spec, comp, T=T, dt=dt)
    evolve_frame(bundle)
    bundle.chart_radius = radius
    return spec, bundle


# (case, steps h, h/2, h/4 of the offset oracle): the steps keep the
# oracle's truncation far above its rounding, eps |grad| / h
CONVERGENCE_CASES = {
    "variable_advection": (
        lambda: _point_beam(builtin_system("variable_advection"), gaussian_point_component(),
                            0.4, 5e-4, 3.0),
        4e-3,
    ),
    "xdep_point": (
        lambda: _point_beam(_xdep_spec(), wave2x2_component(mode=1), 0.5, 1e-3, 1.0),
        4e-3,
    ),
    "curved_line": (_curved_line, 4e-2),
}


@pytest.mark.parametrize("name", sorted(CONVERGENCE_CASES))
def test_offset_s_rows_converge_to_exact_at_second_order(name):
    make, h = CONVERGENCE_CASES[name]
    spec, bundle = make()
    exact = pullback_jet_path(spec, bundle.mode, bundle).hess[..., : bundle.d2, :]
    errs = [
        float(np.max(np.abs(offset_s_rows(spec, bundle.mode, bundle, h / 2**q) - exact)))
        for q in range(3)
    ]
    # the s rows really vary, and each halving takes off 4x (measured
    # 3.99996-4.00001 on all three)
    assert np.max(np.abs(exact)) > 1e-2
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.9 <= coarse / fine <= 4.1, errs


@pytest.mark.parametrize("name", ["acoustics3_line", "curved_line", "variable_advection"])
def test_pullback_jet_decomposes_each_node_once(name, monkeypatch):
    # one gated eigh per ray node: the rows reaching ClusterTemplate._eigh
    # are exactly n_t n_r; on the straight rays of constant coefficients
    # (both acoustics3 lines), one call of n_r rows
    if name == "acoustics3_line":
        spec, bundle = _bundled("acoustics3_beam", dt=0.004)
    elif name == "curved_line":
        spec, bundle = _curved_line()
    else:
        spec, bundle = CONVERGENCE_CASES[name][0]()
    rows = []
    eigh = ClusterTemplate._eigh

    def counting(self, t, X, Xi, m):
        rows.append(int(np.prod(m.shape[:-2])))
        return eigh(self, t, X, Xi, m)

    monkeypatch.setattr(ClusterTemplate, "_eigh", counting)
    pullback_jet_path(spec, bundle.mode, bundle)
    if spec.constant_coefficients:
        assert rows == [bundle.n_r]
    else:
        assert sum(rows) == bundle.n_t * bundle.n_r
