import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import CubicSpline

from cgoptics.errors import EmbeddingFailureError
from cgoptics.numerics import CubicPoints, grid_points, solve_stacked
from cgoptics.rays import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    RayBundle,
    WaveComponent,
    _trace_bundle,
    chart_jacobian,
    evolve_frame,
    flow_out,
    pullback_jet_path,
)
from cgoptics.scenarios import build_scenario_beams, bundled_scenario
from cgoptics.systems import builtin_system

from oracles import chart_map


def gaussian_point_component(mode=0, x0=0.0, xi0=1.0):
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    d = x0.size

    def psi(x):
        dx = np.asarray(x) - x0
        return dx @ xi0 + 0.5j * np.sum(dx * dx, axis=-1)

    def dpsi(x):
        dx = np.asarray(x) - x0
        return xi0 + 1j * dx

    def d2psi(x):
        x = np.asarray(x)
        return np.broadcast_to(1j * np.eye(d), x.shape[:-1] + (d, d))

    def amplitude(x):
        x = np.asarray(x)
        return np.ones(x.shape[:-1] + (1,), dtype=complex)

    return WaveComponent(
        mode=mode, points=x0[None, :], psi=psi, dpsi=dpsi, d2psi=d2psi,
        amplitude=amplitude, label="test-point",
    )


def wave2x2_component(mode=1, x0=0.0):
    # right-mover of the 2x2 wave system, polarized along (1, 1)/sqrt(2)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    vec = np.array([1.0, 1.0]) / np.sqrt(2.0)

    def psi(x):
        dx = np.asarray(x)[..., 0] - x0[0]
        return dx + 0.5j * dx**2

    def dpsi(x):
        dx = np.asarray(x)[..., 0] - x0[0]
        return (1.0 + 1j * dx)[..., None]

    def d2psi(x):
        x = np.asarray(x)
        return np.broadcast_to(1j * np.eye(1), x.shape[:-1] + (1, 1))

    def amplitude(x):
        x = np.asarray(x)
        return np.broadcast_to(vec.astype(complex), x.shape[:-1] + (2,))

    return WaveComponent(
        mode=mode, points=x0[None, :], psi=psi, dpsi=dpsi, d2psi=d2psi,
        amplitude=amplitude, label="wave2x2-beam",
    )


def acoustics_line_component(r_vals=None, mode=2):
    # initial manifold: segment of the x1 axis; psi = x1 + i x2^2 / 2
    if r_vals is None:
        r_vals = np.linspace(-0.4, 0.4, 17)
    pts = np.stack([r_vals, np.zeros_like(r_vals)], axis=-1)
    vplus = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)

    def psi(x):
        x = np.asarray(x)
        return x[..., 0] + 0.5j * x[..., 1] ** 2

    def dpsi(x):
        x = np.asarray(x)
        out = np.zeros(x.shape[:-1] + (2,), dtype=complex)
        out[..., 0] = 1.0
        out[..., 1] = 1j * x[..., 1]
        return out

    def d2psi(x):
        x = np.asarray(x)
        h = np.array([[0.0, 0.0], [0.0, 1j]])
        return np.broadcast_to(h, x.shape[:-1] + (2, 2))

    def amplitude(x):
        x = np.asarray(x)
        return np.broadcast_to(vplus.astype(complex), x.shape[:-1] + (3,))

    return WaveComponent(
        mode=mode, points=pts, r=r_vals, psi=psi, dpsi=dpsi, d2psi=d2psi,
        amplitude=amplitude, label="acoustics-line",
    )


def test_trace_ray_constant_advection():
    spec = builtin_system("advection")
    t, x, xi, v = _trace_bundle(
        spec, 0, np.array([[0.0]]), np.array([[1.0]]), T=1.0 * 0.4, dt=1e-3
    )
    np.testing.assert_allclose(x[:, 0, 0], t, atol=1e-12)
    np.testing.assert_allclose(xi[:, 0, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(v[:, 0, 0], 1.0, atol=1e-12)


def test_trace_ray_acoustics_straight():
    spec = builtin_system("acoustics3")
    t, x, xi, _ = _trace_bundle(
        spec, 2, np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]), T=0.5, dt=1e-3
    )
    np.testing.assert_allclose(x[:, 0, 0], t, atol=1e-10)
    np.testing.assert_allclose(x[:, 0, 1], 0.0, atol=1e-12)
    np.testing.assert_allclose(xi[:, 0], np.broadcast_to([1.0, 0.0], xi[:, 0].shape), atol=1e-10)


def test_trace_ray_variable_advection_step_halving():
    spec = builtin_system("variable_advection", final_time=1.0, radius=5.5, speed=1.3)
    T = 1.0
    x0, xi0 = np.array([[0.0]]), np.array([[1.0]])
    _, x_coarse, xi_coarse, _ = _trace_bundle(spec, 0, x0, xi0, T=T, dt=T / 2000)
    _, x_fine, xi_fine, _ = _trace_bundle(spec, 0, x0, xi0, T=T, dt=T / 32000)
    assert abs(x_coarse[-1, 0, 0] - x_fine[-1, 0, 0]) <= 1e-8
    assert abs(xi_coarse[-1, 0, 0] - xi_fine[-1, 0, 0]) <= 1e-8


def test_flow_out_point_single_ray():
    spec = builtin_system("advection")
    comp = gaussian_point_component()
    bundle = flow_out(spec, comp, T=0.4, dt=1e-3)
    assert bundle.n_r == 1
    assert bundle.d1 == 0
    np.testing.assert_allclose(bundle.x[:, 0, 0], bundle.t, atol=1e-12)


def test_flow_out_advection_segment_translates():
    # d=1 segment manifold: psi real quadratic, zero imaginary part on it
    spec = builtin_system("advection")
    r_vals = np.linspace(-0.2, 0.2, 9)

    def psi(x):
        return np.asarray(x)[..., 0] + 0j

    def dpsi(x):
        x = np.asarray(x)
        return np.ones(x.shape[:-1] + (1,), dtype=complex)

    def d2psi(x):
        x = np.asarray(x)
        return np.zeros(x.shape[:-1] + (1, 1), dtype=complex)

    def amplitude(x):
        x = np.asarray(x)
        return np.ones(x.shape[:-1] + (1,), dtype=complex)

    comp = WaveComponent(
        mode=0, points=r_vals[:, None], r=r_vals, psi=psi, dpsi=dpsi,
        d2psi=d2psi, amplitude=amplitude,
    )
    bundle = flow_out(spec, comp, T=0.3, dt=1e-3)
    for k in range(bundle.n_t):
        np.testing.assert_allclose(
            bundle.x[k, :, 0], r_vals + bundle.t[k], atol=1e-12
        )


def test_flow_out_acoustics_curved_arc_embedding():
    # converging arc beam: rays run inward, distances shrink but stay positive
    spec = builtin_system("acoustics3", radius=3.0, final_time=1.0)
    r_vals = np.linspace(-0.5, 0.5, 11)
    pts = np.stack([np.cos(r_vals), np.sin(r_vals)], axis=-1)

    def psi(x):
        x = np.asarray(x)
        rad = np.linalg.norm(x, axis=-1)
        return -rad + 0.5j * (rad - 1.0) ** 2

    def dpsi(x):
        x = np.asarray(x)
        rad = np.linalg.norm(x, axis=-1, keepdims=True)
        xhat = x / rad
        return (-1.0 + 1j * (rad - 1.0)) * xhat

    def d2psi(x):
        x = np.asarray(x)
        rad = np.linalg.norm(x, axis=-1, keepdims=True)[..., None]
        xhat = (x / rad[..., 0])[..., None]
        outer = xhat @ np.swapaxes(xhat, -1, -2)
        eye = np.broadcast_to(np.eye(2), outer.shape)
        return -(eye - outer) / rad + 1j * (outer + (rad - 1.0) * (eye - outer) / rad)

    def amplitude(x):
        x = np.asarray(x)
        xi = np.asarray(dpsi(x)).real
        xin = np.linalg.norm(xi, axis=-1, keepdims=True)
        xh = xi / xin
        amp = np.zeros(x.shape[:-1] + (3,), dtype=complex)
        amp[..., 0] = 1.0 / np.sqrt(2.0)
        amp[..., 1] = xh[..., 0] / np.sqrt(2.0)
        amp[..., 2] = xh[..., 1] / np.sqrt(2.0)
        return amp

    comp = WaveComponent(
        mode=2, points=pts, r=r_vals, psi=psi, dpsi=dpsi, d2psi=d2psi,
        amplitude=amplitude, label="arc",
    )
    bundle = flow_out(spec, comp, T=0.5, dt=1e-3)
    # rays march inward: x(t) = (1 - t) * direction
    rad_t = np.linalg.norm(bundle.x, axis=-1)
    expected = np.broadcast_to((1.0 - bundle.t)[:, None], rad_t.shape)
    np.testing.assert_allclose(rad_t, expected, atol=1e-8)
    with pytest.raises(EmbeddingFailureError):
        flow_out(spec, comp, T=1.2, dt=1e-3)


def test_evolve_frame_degenerate_identity():
    spec = builtin_system("advection")
    bundle = flow_out(spec, gaussian_point_component(), T=0.4, dt=1e-3)
    evolve_frame(bundle)
    np.testing.assert_allclose(bundle.frames[:, 0], 1.0, atol=0)
    assert bundle.frame_drift == 0.0


def _rotating_tangent_bundle(n_t):
    t = np.linspace(0.0, 1.0, n_t)
    n_r = 9
    r = np.linspace(-0.2, 0.2, n_r)
    theta = 0.7 * np.sin(2.0 * np.pi * t)
    q = np.stack([np.cos(theta), np.sin(theta)], axis=-1)  # (n_t, 2)
    x = q[:, None, :] * r[None, :, None]
    bundle = RayBundle(
        spec_name="synthetic", mode=0, t=t, r=r, x=x,
        xi=np.zeros_like(x), v=np.zeros_like(x),
    )
    evolve_frame(bundle)
    normal = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    e = bundle.frames[:, n_r // 2, :, 0]
    sign = np.sign(np.sum(e[0] * normal[0]))
    err = float(np.max(np.abs(e - sign * normal)))
    gram = np.einsum("krdi,krdj->krij", bundle.frames, bundle.frames)
    drift = float(np.max(np.abs(gram - 1.0)))
    return err, drift


def test_evolve_frame_rotating_tangent_oracle():
    # synthetic bundle in d=2 whose time-slice tangent rotates; the evolved
    # normal stays orthonormal to 1e-8 and tracks the analytic rotating
    # normal at second order in dt (the generator uses FD of Gamma).
    err, drift = _rotating_tangent_bundle(2001)
    assert drift <= 1e-8
    assert err <= 1e-5
    err4, drift4 = _rotating_tangent_bundle(8001)
    assert drift4 <= 1e-8
    assert err4 <= err / 10.0  # second-order convergence (16x expected)


def test_frames_independent_of_r_refinement():
    spec = builtin_system("acoustics3")
    coarse = flow_out(spec, acoustics_line_component(np.linspace(-0.4, 0.4, 9)), T=0.8, dt=1e-3)
    fine = flow_out(spec, acoustics_line_component(np.linspace(-0.4, 0.4, 17)), T=0.8, dt=1e-3)
    evolve_frame(coarse)
    evolve_frame(fine)
    # shared r points: fine grid contains the coarse one
    np.testing.assert_allclose(coarse.frames, fine.frames[:, ::2], atol=1e-6)


def test_chart_roundtrip_degenerate():
    spec = builtin_system("advection")
    bundle = flow_out(spec, gaussian_point_component(), T=0.5, dt=1e-3)
    evolve_frame(bundle)
    bundle.chart_radius = 3.0
    k = bundle.n_t // 2  # t = 0.25... pick exact node for t=0.5?
    # spec example: ray at t=0.5, x=0.7 has s = 0.2
    k = bundle.n_t - 1
    assert bundle.t[k] == pytest.approx(0.5)
    _, s, inside = bundle.invert(k, [[0.7]])
    assert inside[0]
    assert s[0, 0] == pytest.approx(0.2, abs=1e-12)


def test_chart_roundtrip_parametrized():
    spec = builtin_system("acoustics3")
    bundle = flow_out(spec, acoustics_line_component(), T=0.8, dt=2e-3)
    evolve_frame(bundle)
    bundle.chart_radius = 0.4
    rng = np.random.default_rng(5)
    k = bundle.n_t // 3
    r_true = rng.uniform(-0.35, 0.35, 40) + bundle.t[k]
    s_true = rng.uniform(-0.3, 0.3, (40, 1))
    X = chart_map(bundle, k, r_true - bundle.t[k] + 0.0, s_true)
    # note: for this beam r labels the seed point, x1 = r + t
    r_fit, s_fit, inside = bundle.invert(k, X)
    assert np.all(inside)
    X_round = chart_map(bundle, k, r_fit, s_fit)
    assert np.max(np.abs(X_round - X)) <= 1e-10
    np.testing.assert_allclose(s_fit, s_true, atol=1e-10)


def test_chart_map_on_manifold():
    spec = builtin_system("acoustics3")
    bundle = flow_out(spec, acoustics_line_component(), T=0.8, dt=2e-3)
    evolve_frame(bundle)
    k = 100
    X = chart_map(bundle, k, bundle.r, np.zeros((bundle.n_r, 1)))
    np.testing.assert_allclose(X, bundle.x[k], atol=1e-12)


def test_locate_time_maps_node_times_to_their_node():
    # the time grid of _trace_bundle; on (0.3, 24) the node time t[15] lies
    # 1.8e-15 below node 15 in units of dt
    for T, n in [(0.3, 24), (0.5, 50), (1.0, 250), (1.0, 2000), (0.5, 2000)]:
        t = np.linspace(0.0, T, n + 1)
        zeros = np.zeros((n + 1, 1, 1))
        bundle = RayBundle(spec_name="grid", mode=0, t=t, r=None, x=zeros, xi=zeros, v=zeros)
        for k in range(n + 1):
            assert bundle.locate_time(t[k]) == (k, k, 0.0), (T, n, k)


def test_pullback_jet_advection_all_zero():
    spec = builtin_system("advection")
    bundle = flow_out(spec, gaussian_point_component(), T=0.4, dt=1e-3)
    evolve_frame(bundle)
    bundle.chart_radius = 3.0
    jets = pullback_jet_path(spec, 0, bundle)
    k = bundle.n_t // 2
    assert np.max(np.abs(jets.grad[k, 0])) <= 1e-10
    assert np.max(np.abs(jets.hess[k, 0])) <= 1e-6


def test_pullback_jet_acoustics_line():
    spec = builtin_system("acoustics3")
    bundle = flow_out(spec, acoustics_line_component(), T=0.8, dt=2e-3)
    evolve_frame(bundle)
    bundle.chart_radius = 0.4
    jets = pullback_jet_path(spec, 2, bundle)
    k, i = bundle.n_t // 2, bundle.n_r // 2
    # stationarity along the ray: dLambda/d(rho, sigma) vanishes on ray data
    assert np.max(np.abs(jets.grad[:, i, bundle.d2 :])) <= 1e-5
    # transverse curvature of |xi| in the normal frame: 1/|xi| = 1
    assert jets.sigma_sigma[k, i, 0, 0] == pytest.approx(1.0, abs=1e-5)
    assert np.max(np.abs(jets.ss[k, i])) <= 1e-5
    assert np.max(np.abs(jets.s_sigma[k, i])) <= 1e-5


def test_pullback_jet_variable_advection_analytic():
    spec = builtin_system("variable_advection")
    comp = gaussian_point_component()
    bundle = flow_out(spec, comp, T=0.4, dt=5e-4)
    evolve_frame(bundle)
    bundle.chart_radius = 3.0
    k = bundle.n_t // 2
    jets = pullback_jet_path(spec, 0, bundle)
    x = bundle.x[k, 0, 0]
    xi = bundle.xi[k, 0, 0]
    # Lambda(s, sigma) = sigma [c(x+s) - c(x)] in the moving chart
    # variables (s, sigma): grad[..., 0] is d_s, grad[..., 1] is d_sigma
    assert jets.grad[k, 0, 1] == pytest.approx(0.0, abs=1e-6)
    assert jets.grad[k, 0, 0] == pytest.approx(0.3 * np.cos(x) * xi, rel=1e-4)
    assert jets.ss[k, 0, 0, 0] == pytest.approx(-0.3 * np.sin(x) * xi, rel=1e-3, abs=1e-5)
    assert jets.s_sigma[k, 0, 0, 0] == pytest.approx(0.3 * np.cos(x), rel=1e-4)
    assert jets.sigma_sigma[k, 0, 0, 0] == pytest.approx(0.0, abs=1e-6)


def _synthetic_chart(curved: bool) -> RayBundle:
    # d = 2, n_t = 26, n_r = 11: a segment translating along x1, or an arc
    # that contracts and rotates (curved rays' tube, curved time slices)
    t = np.linspace(0.0, 0.5, 26)[:, None]
    r = np.linspace(-0.5, 0.5, 11)
    if curved:
        ang = r[None, :] + 0.6 * t
        x = (1.0 - 0.8 * t)[..., None] * np.stack([np.cos(ang), np.sin(ang)], -1)
    else:
        x = np.stack(np.broadcast_arrays(t, r[None, :]), axis=-1)
    bundle = RayBundle(
        spec_name="synthetic", mode=0, t=t[:, 0], r=r, x=x,
        xi=np.zeros_like(x), v=np.zeros_like(x),
    )
    evolve_frame(bundle)
    bundle.chart_radius = 0.3
    return bundle


def _chart_jacobian_at(bundle, k, r, s):
    """Chart point and Jacobian [dx/dr | e] at node k and (r, s), from the
    [x | e] r-spline and its derivative at one interval search."""
    (xe,), (dxe,) = bundle.chart_spline(k).jets(CubicPoints(bundle.r, r))
    return chart_jacobian(xe, dxe, s)


def _invert_reference(bundle, k, X):
    # the clipped Newton loop run until convergence or NEWTON_MAX_ITER, with
    # invert's stacked solve: the test is of the retirement, not of the solve
    idx = np.argmin(np.linalg.norm(X[:, None] - bundle.x[k][None], axis=-1), axis=1)
    r = bundle.r[idx].astype(float)
    s = np.einsum("md,mdj->mj", X - bundle.x[k][idx], bundle.frames[k][idx])
    r_lo, r_hi = float(bundle.r[0]), float(bundle.r[-1])
    slack = 0.5 * (r_hi - r_lo)
    active = np.ones(X.shape[0], dtype=bool)
    converged = np.zeros(X.shape[0], dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        if not np.any(active):
            break
        xa, J = _chart_jacobian_at(bundle, k, r[active], s[active])
        dy = solve_stacked(J, xa - X[active])
        r[active] = np.clip(r[active] - dy[:, 0], r_lo - slack, r_hi + slack)
        s[active] = s[active] - dy[:, 1:]
        tol = NEWTON_TOL * (1.0 + np.linalg.norm(X[active], axis=-1))
        done = np.nonzero(active)[0][np.max(np.abs(dy), axis=1) < tol]
        converged[done] = True
        active[done] = False
    inside = (
        converged
        & (r >= r_lo - 1e-9)
        & (r <= r_hi + 1e-9)
        & (np.linalg.norm(s, axis=-1) <= bundle.chart_radius * (1 + 1e-9))
    )
    return r, s, inside


_unit = st.floats(-1.0, 1.0, allow_subnormal=False)


@settings(max_examples=40, deadline=None)
@given(
    curved=st.booleans(),
    k=st.integers(0, 25),
    near=arrays(float, (24, 2), elements=_unit),
    far=arrays(float, (24, 2), elements=_unit),
)
def test_invert_matches_full_newton_loop_bitwise(curved, k, near, far):
    # retiring iterates that stopped moving must not change any output bit,
    # for points in the tube, beyond its r ends, and far outside it
    bundle = _synthetic_chart(curved)
    X = np.concatenate([chart_map(bundle, k, 0.8 * near[:, 0], 0.5 * near[:, 1:]), 4.0 * far])
    r, s, inside = bundle.invert(k, X)
    r_ref, s_ref, inside_ref = _invert_reference(bundle, k, X)
    np.testing.assert_array_equal(r, r_ref)
    np.testing.assert_array_equal(s, s_ref)
    np.testing.assert_array_equal(inside, inside_ref)


def test_invert_on_a_field_grid_matches_point_major_guess_bitwise():
    # invert forms its nearest-ray guess ray-major; on the 101^2 field grid
    # of the reduced acoustics3_beam (n_r 9, dt 0.004) at its six comparison
    # nodes, r, s and inside equal the point-major reference's as uint64
    cfg = bundled_scenario("acoustics3_beam")
    cfg.components[0]["n_r"] = 9
    cfg.dt = 0.004
    cfg.ext_stride = cfg.corrector_stride = 25
    spec, _, beams = build_scenario_beams(cfg)
    bundle = beams[0].bundle
    dom = spec.domain
    X = grid_points([np.linspace(c - dom.radius, c + dom.radius, 101) for c in dom.center])
    for k in np.linspace(0, bundle.n_t - 1, 6).astype(int):
        r, s, inside = bundle.invert(k, X)
        r_ref, s_ref, inside_ref = _invert_reference(bundle, k, X)
        assert inside.any() and not inside.all()
        np.testing.assert_array_equal(r.view(np.uint64), r_ref.view(np.uint64))
        np.testing.assert_array_equal(s.view(np.uint64), s_ref.view(np.uint64))
        np.testing.assert_array_equal(inside, inside_ref)


@settings(max_examples=40, deadline=None)
@given(
    values=arrays(float, (11, 3), elements=st.floats(-10.0, 10.0, allow_subnormal=False)),
    r_eval=arrays(float, (20,), elements=st.floats(-0.6, 0.6, allow_subnormal=False)),
)
def test_r_spline_basis_matches_cubic_spline(values, r_eval):
    bundle = _synthetic_chart(curved=False)
    got = bundle.r_spline(values)
    ref = CubicSpline(bundle.r, values, axis=0)
    for nu, (value,) in enumerate(got.jets(CubicPoints(bundle.r, r_eval))):
        want = ref(r_eval, nu)
        err = np.max(np.abs(value - want))
        assert err <= 1e-12 * max(np.max(np.abs(want)), np.max(np.abs(values)))


@settings(max_examples=60, deadline=None)
@given(
    n_r=st.integers(5, 33),
    const=arrays(float, (3, 1, 2), elements=st.floats(-10.0, 10.0, allow_subnormal=False)),
    slope=arrays(float, (3, 1, 2), elements=st.floats(-10.0, 10.0, allow_subnormal=False)),
)
def test_r_derivative_is_exact_on_constants_and_affine_data(n_r, const, slope):
    # constant data (frames constant along r) differentiate to exactly 0;
    # affine data to the slope, up to the rounding of the differences
    r = np.linspace(-0.4, 0.4, n_r)
    x = np.zeros((1, n_r, 2))
    bundle = RayBundle(spec_name="synthetic", mode=0, t=np.zeros(1), r=r, x=x, xi=x, v=x)
    ones = np.ones((1, n_r, 1))
    np.testing.assert_array_equal(bundle.r_derivative(const * ones), np.zeros((3, n_r, 2)))
    got = bundle.r_derivative(const + slope * r[None, :, None])
    scale = 1.0 + np.max(np.abs(const)) + np.max(np.abs(slope))
    assert np.max(np.abs(got - slope)) <= 1e-13 * scale
