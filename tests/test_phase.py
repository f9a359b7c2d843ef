import numpy as np
import pytest

from cgoptics.errors import ConfigError, PositivityLossError
from cgoptics.phase import (
    _coefficients_from_jet,
    build_phase_jet,
    eval_phase,
    solve_riccati,
)
from cgoptics.rays import evolve_frame, flow_out, pullback_jet_path
from cgoptics.systems import builtin_system

from oracles import chart_map
from test_l0_chain_rule import _curved_line_component
from test_rays import acoustics_line_component, gaussian_point_component


def mobius_constant_riccati(a, b, c, phi0, t):
    """Closed-form solution of dPhi/dt = -(A + Phi B + B^T Phi + Phi C Phi)
    for constant coefficient matrices, via the linear fundamental system
    d/dt (U, V) = ((-B^T, -A), (C, B)) (U, V), Phi = U V^{-1}."""
    d2 = phi0.shape[0]
    m = np.zeros((2 * d2, 2 * d2), dtype=complex)
    m[:d2, :d2] = -b.T
    m[:d2, d2:] = -a
    m[d2:, :d2] = c
    m[d2:, d2:] = b
    from scipy.linalg import expm

    prop = expm(t * m)
    u = prop[:d2, :d2] @ phi0 + prop[:d2, d2:]
    v = prop[d2:, :d2] @ phi0 + prop[d2:, d2:]
    return u @ np.linalg.inv(v)


@pytest.fixture(scope="module")
def advection_beam():
    spec = builtin_system("advection")
    bundle = flow_out(spec, gaussian_point_component(), T=0.5, dt=5e-4)
    evolve_frame(bundle)
    bundle.chart_radius = 3.0
    jet = build_phase_jet(spec, 0, bundle, gaussian_point_component())
    return spec, bundle, jet


@pytest.fixture(scope="module")
def acoustics_beam():
    spec = builtin_system("acoustics3")
    comp = acoustics_line_component()
    bundle = flow_out(spec, comp, T=1.0, dt=1e-3)
    evolve_frame(bundle)
    bundle.chart_radius = 0.4
    jet = build_phase_jet(spec, 2, bundle, comp)
    return spec, bundle, jet


def _riccati_coefficients(spec, l, bundle, k, i):
    # the point-source coefficients (no dsigma/dr term) at node (k, i)
    return [m[k, i] for m in _coefficients_from_jet(pullback_jet_path(spec, l, bundle))]


def test_riccati_coefficients_advection_zero(advection_beam):
    spec, bundle, _ = advection_beam
    a, b, c = _riccati_coefficients(spec, 0, bundle, bundle.n_t // 2, 0)
    assert np.max(np.abs(a)) <= 1e-6
    assert np.max(np.abs(b)) <= 1e-6
    assert np.max(np.abs(c)) <= 1e-6


def test_riccati_coefficients_acoustics_line(acoustics_beam):
    spec, bundle, _ = acoustics_beam
    a, b, c = _riccati_coefficients(spec, 2, bundle, bundle.n_t // 2, bundle.n_r // 2)
    assert a.shape == (1, 1)
    assert abs(a[0, 0]) <= 1e-5
    assert abs(b[0, 0]) <= 1e-5
    assert c[0, 0] == pytest.approx(1.0, abs=1e-5)


def test_riccati_coefficients_variable_advection_vs_analytic():
    spec = builtin_system("variable_advection")
    bundle = flow_out(spec, gaussian_point_component(), T=0.4, dt=5e-4)
    evolve_frame(bundle)
    bundle.chart_radius = 3.0
    k = bundle.n_t // 2
    a, b, c = _riccati_coefficients(spec, 0, bundle, k, 0)
    x = bundle.x[k, 0, 0]
    xi = bundle.xi[k, 0, 0]
    assert a[0, 0] == pytest.approx(-0.3 * np.sin(x) * xi, rel=1e-3, abs=1e-5)
    assert b[0, 0] == pytest.approx(0.3 * np.cos(x), rel=1e-4)
    assert abs(c[0, 0]) <= 1e-6


def test_solve_riccati_constant_solution():
    n_t, d2 = 101, 2
    zeros = np.zeros((n_t, d2, d2))
    phi0 = 1j * np.eye(d2)
    phi = solve_riccati((zeros, zeros, zeros), phi0, dt=0.01)
    np.testing.assert_allclose(phi, np.broadcast_to(phi0, phi.shape), atol=1e-14)


def test_solve_riccati_scalar_closed_form():
    # A = B = 0, C = 1, Phi(0) = i  =>  Phi(t) = i/(1+it); Phi(1) = 0.5 + 0.5i
    n_t = 2001
    dt = 1.0 / (n_t - 1)
    t = np.linspace(0.0, 1.0, n_t)
    zeros = np.zeros((n_t, 1, 1))
    c = np.ones((n_t, 1, 1))
    phi = solve_riccati((zeros, zeros, c), 1j * np.eye(1), dt=dt)
    expected = 1j / (1.0 + 1j * t)
    np.testing.assert_allclose(phi[:, 0, 0], expected, atol=1e-10)
    assert phi[-1, 0, 0] == pytest.approx(0.5 + 0.5j, abs=1e-10)


def test_solve_riccati_matrix_decoupled_closed_form():
    n_t = 2001
    dt = 1.0 / (n_t - 1)
    t = np.linspace(0.0, 1.0, n_t)
    zeros = np.zeros((n_t, 2, 2))
    c = np.broadcast_to(np.eye(2), (n_t, 2, 2)).copy()
    phi = solve_riccati((zeros, zeros, c), 1j * np.eye(2), dt=dt)
    expected = 1j / (1.0 + 1j * t)
    for k in (0, n_t // 2, n_t - 1):
        np.testing.assert_allclose(
            phi[k], expected[k] * np.eye(2), atol=1e-10
        )


def test_solve_riccati_against_mobius_oracle_random_constant():
    rng = np.random.default_rng(17)
    d2 = 2
    a = rng.standard_normal((d2, d2))
    a = 0.2 * (a + a.T)
    b = 0.2 * rng.standard_normal((d2, d2))
    c = rng.standard_normal((d2, d2))
    c = 0.2 * (c + c.T)
    phi0 = 1j * np.eye(d2) + 0.1 * np.diag([1.0, -0.5])
    n_t = 2001
    dt = 0.5 / (n_t - 1)
    paths = tuple(np.broadcast_to(m, (n_t, d2, d2)).copy() for m in (a, b, c))
    phi = solve_riccati(paths, phi0, dt=dt)
    oracle = mobius_constant_riccati(a, b, c, phi0, 0.5)
    np.testing.assert_allclose(phi[-1], oracle, atol=1e-9)


def test_solve_riccati_positivity_loss_detected():
    # negative initial imaginary part must be rejected immediately
    n_t = 11
    zeros = np.zeros((n_t, 1, 1))
    with pytest.raises(PositivityLossError):
        solve_riccati((zeros, zeros, zeros), -1j * np.eye(1), dt=0.01)


def test_phase_jet_initial_condition(acoustics_beam):
    spec, bundle, jet = acoustics_beam
    # t = 0 restriction equals the second-order jet of psi on the manifold
    np.testing.assert_allclose(jet.axis_value, bundle.r, atol=1e-12)
    np.testing.assert_allclose(jet.sigma[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(
        jet.curvature[0], 1j * np.ones((bundle.n_r, 1, 1)), atol=1e-12
    )


def test_phase_jet_acoustics_closed_form(acoustics_beam):
    spec, bundle, jet = acoustics_beam
    t = bundle.t
    expected = (t + 1j) / (1.0 + t**2)
    for i in range(bundle.n_r):
        np.testing.assert_allclose(jet.curvature[:, i, 0, 0], expected, atol=1e-6)
    assert jet.riccati_min_imag > 0.0
    # Im phi_ss(t) = 1/(1+t^2)
    np.testing.assert_allclose(
        jet.curvature[:, 0, 0, 0].imag, 1.0 / (1.0 + t**2), atol=1e-6
    )


def test_eval_phase_advection_closed_form(advection_beam):
    spec, bundle, jet = advection_beam
    # phi(t, x) = (x - t) + i (x - t)^2 / 2
    pv = eval_phase(jet, bundle, 0.5, np.array([[0.7]]))
    assert pv.inside[0]
    assert pv.phi[0] == pytest.approx(0.2 + 0.02j, abs=1e-10)
    assert pv.dx[0, 0] == pytest.approx(1.0 + 0.2j, abs=1e-10)
    assert pv.dt[0] == pytest.approx(-(1.0 + 0.2j), abs=1e-10)


def test_eval_phase_on_manifold_real(acoustics_beam):
    spec, bundle, jet = acoustics_beam
    k = bundle.n_t // 2
    X = bundle.x[k]
    pv = eval_phase(jet, bundle, bundle.t[k], X)
    assert np.all(pv.inside)
    np.testing.assert_allclose(pv.phi.imag, 0.0, atol=1e-12)
    np.testing.assert_allclose(pv.dx.imag, 0.0, atol=1e-10)
    np.testing.assert_allclose(pv.dx.real, bundle.xi[k], atol=1e-8)


def test_eval_phase_gradient_fd_self_consistency(acoustics_beam):
    spec, bundle, jet = acoustics_beam
    k = bundle.n_t // 3
    t = bundle.t[k]
    base = bundle.x[k, bundle.n_r // 2] + np.array([0.03, 0.12])
    h = 1e-6
    pv = eval_phase(jet, bundle, t, base[None, :])
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        pp = eval_phase(jet, bundle, t, (base + e)[None, :])
        pm = eval_phase(jet, bundle, t, (base - e)[None, :])
        fd = (pp.phi[0] - pm.phi[0]) / (2 * h)
        assert abs(fd - pv.dx[0, j]) <= 1e-6
    dtn = bundle.dt
    pp = eval_phase(jet, bundle, bundle.t[k + 1], base[None, :])
    pm = eval_phase(jet, bundle, bundle.t[k - 1], base[None, :])
    fd_t = (pp.phi[0] - pm.phi[0]) / (2 * dtn)
    assert abs(fd_t - pv.dt[0]) <= 1e-6


def test_chi_quadratic_lower_bound(acoustics_beam):
    # Im phi >= c |s|^2 with c = half the minimal eigenvalue of Im Phi
    spec, bundle, jet = acoustics_beam
    c = 0.5 * jet.riccati_min_imag
    rng = np.random.default_rng(2)
    k = bundle.n_t // 2
    s = rng.uniform(-0.35, 0.35, (100, 1))
    r = rng.uniform(-0.3, 0.3, 100) + 0.0
    X = chart_map(bundle, k, r + 0.0, s)
    pv = eval_phase(jet, bundle, bundle.t[k], X)
    ok = pv.inside
    assert np.all(pv.phi.imag[ok] >= c * np.linalg.norm(pv.s[ok], axis=1) ** 2 - 1e-12)


def _curved_line(slope=1.0):
    # 9 rays over [-0.4, 0.4]: the rays fan out enough that the two r-spline
    # derivatives of the consistency check disagree beyond 1e-5 (with 17
    # rays they agree to 2.5e-6)
    return _curved_line_component(r_vals=np.linspace(-0.4, 0.4, 9), slope=slope)


def _curved_bundle(comp):
    spec = builtin_system("acoustics3")
    bundle = flow_out(spec, comp, T=0.25, dt=1e-3)
    evolve_frame(bundle)
    bundle.chart_radius = 0.2
    return spec, bundle


def test_rho_consistency_allows_grid_truncation_on_curved_manifold():
    comp = _curved_line()
    spec, bundle = _curved_bundle(comp)
    jet = build_phase_jet(spec, 2, bundle, comp)
    # the two spline derivatives really disagree beyond the fixed 1e-5 part,
    # and within the 0.36 |D3| / dr the allowance's docstring derives
    dev = np.max(np.abs(jet.rho[..., 0] - jet.dphi0_dr))
    assert dev > 1e-5
    d3x = np.max(np.linalg.norm(np.diff(bundle.x, 3, axis=1), axis=-1))
    d3phi0 = np.max(np.abs(np.diff(jet.axis_value, 3)))
    xi_max = np.max(np.linalg.norm(bundle.xi, axis=-1))
    assert dev <= 0.36 * (xi_max * d3x + d3phi0) / (bundle.r[1] - bundle.r[0])


def test_phase_jet_keeps_its_r_derivatives():
    # d_r sigma and d_r phi0 are formed once, in build_phase_jet; the
    # projector s-jet reads them at strided nodes, where they must be what
    # r_derivative gives for those nodes alone
    comp = _curved_line()
    spec, bundle = _curved_bundle(comp)
    jet = build_phase_jet(spec, 2, bundle, comp)
    np.testing.assert_array_equal(jet.dphi0_dr, bundle.r_derivative(jet.axis_value[None])[0])
    np.testing.assert_array_equal(jet.dsigma_dr, bundle.r_derivative(jet.sigma))
    ks = sorted(set(range(0, bundle.n_t, 7)) | {bundle.n_t - 1})
    np.testing.assert_array_equal(jet.dsigma_dr[ks], bundle.r_derivative(jet.sigma[ks]))


def test_rho_consistency_rejects_inconsistent_phase():
    comp = _curved_line(slope=1.01)
    spec, bundle = _curved_bundle(comp)
    with pytest.raises(ConfigError, match="inconsistent"):
        build_phase_jet(spec, 2, bundle, comp)
