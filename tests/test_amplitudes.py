import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from cgoptics.amplitudes import (
    ExtensionField,
    compute_corrector,
    corrector_path,
    gouy_path,
    projector_jet,
    solve_transport,
    _residual_on_rays,
    _transport_generator,
)
from cgoptics.numerics import loglog_fit
from cgoptics.phase import build_phase_jet
from cgoptics.rays import evolve_frame, flow_out
from cgoptics.systems import builtin_system, eigen_decompose, load_system

from oracles import extend_amplitude
from test_batched_build import _extended_projector_ray
from test_rays import (
    acoustics_line_component,
    gaussian_point_component,
    wave2x2_component,
)


def build_beam(spec, comp, T, dt, chart_radius):
    bundle = flow_out(spec, comp, T=T, dt=dt)
    evolve_frame(bundle)
    bundle.chart_radius = chart_radius
    jet = build_phase_jet(spec, comp.mode, bundle, comp)
    return bundle, jet


@pytest.fixture(scope="module")
def acoustics_beam():
    spec = builtin_system("acoustics3")
    comp = acoustics_line_component()
    bundle, jet = build_beam(spec, comp, T=1.0, dt=1e-3, chart_radius=0.4)
    return spec, comp, bundle, jet


@pytest.fixture(scope="module")
def acoustics_transport(acoustics_beam):
    spec, comp, bundle, jet = acoustics_beam
    a0 = np.asarray(comp.amplitude(comp.points), dtype=complex)
    return solve_transport(spec, comp.mode, bundle, jet, a0)


def test_transport_advection_constant():
    spec = builtin_system("advection")
    comp = gaussian_point_component()
    bundle, jet = build_beam(spec, comp, T=0.5, dt=5e-4, chart_radius=3.0)
    res = solve_transport(spec, 0, bundle, jet, np.array([[1.0 + 0j]]))
    np.testing.assert_allclose(res.a[:, 0, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(res.gouy, 0.0, atol=1e-10)


def test_transport_advection_with_damping_matrix():
    b = 0.7
    spec = load_system(
        {
            "name": "damped_advection",
            "d": 1,
            "N": 1,
            "A": [[[1.0]]],
            "B": [[b]],
            "domain": {"center": [0], "radius": 5, "final_time": 0.5, "speed": 1},
        }
    )
    comp = gaussian_point_component()
    bundle, jet = build_beam(spec, comp, T=0.5, dt=5e-4, chart_radius=3.0)
    res = solve_transport(spec, 0, bundle, jet, np.array([[1.0 + 0j]]))
    np.testing.assert_allclose(
        res.a[:, 0, 0], np.exp(-b * bundle.t), atol=1e-10
    )


def test_transport_acoustics_closed_form(acoustics_beam, acoustics_transport):
    spec, comp, bundle, jet = acoustics_beam
    res = acoustics_transport
    t = bundle.t
    i = bundle.n_r // 2
    amp0 = np.linalg.norm(res.a[0, i])
    ratio = np.linalg.norm(res.a[:, i], axis=-1) / amp0
    np.testing.assert_allclose(ratio, (1.0 + t**2) ** (-0.25), atol=1e-8)
    # Gouy phase: arg a(t) = -arctan(t)/2 (no other phase source here)
    phase = np.angle(res.a[:, i, 0] / res.a[0, i, 0])
    np.testing.assert_allclose(phase, -0.5 * np.arctan(t), atol=1e-8)


def test_transport_matches_refined_step_oracle(acoustics_beam, acoustics_transport):
    # integrate the same generator with 16 substeps per interval (cubic
    # coefficient interpolation); final amplitudes agree to 1e-6
    spec, comp, bundle, jet = acoustics_beam
    res = acoustics_transport
    gen = _transport_generator(spec, comp.mode, bundle, jet, res.gouy, 0, bundle.n_t - 1)[1]
    i = bundle.n_r // 2
    sp = CubicSpline(bundle.t, gen[:, i], axis=0)
    a = res.a[0, i].copy()
    n_sub = 16
    h = bundle.dt / n_sub
    tt = bundle.t[0]
    for _ in range((bundle.n_t - 1) * n_sub):
        k1 = sp(tt) @ a
        k2 = sp(tt + h / 2) @ (a + h / 2 * k1)
        k3 = sp(tt + h / 2) @ (a + h / 2 * k2)
        k4 = sp(tt + h) @ (a + h * k3)
        a = a + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        tt += h
    assert np.linalg.norm(res.a[-1, i] - a) <= 1e-6
    assert abs(np.linalg.norm(res.a[-1, i]) - np.linalg.norm(a)) <= 1e-6
    assert abs(np.angle(res.a[-1, i, 0] / a[0])) <= 1e-6


def test_polarization_conserved(acoustics_beam, acoustics_transport):
    res = acoustics_transport
    assert res.pol_residual_max <= 1e-6
    assert res.step_drift_max <= 1e-9


def test_gouy_shift_acoustics(acoustics_beam):
    spec, comp, bundle, jet = acoustics_beam
    k = bundle.n_t // 2
    i = bundle.n_r // 2
    t = bundle.t[k]
    g = gouy_path(bundle, jet)[k, i]
    assert g == pytest.approx(0.5 / (1.0 + t * t), abs=1e-6)


def test_gouy_shift_scales_with_curvature(acoustics_beam):
    # doubling Im Phi doubles the shift (it is linear in d2 chi)
    spec, comp, bundle, jet = acoustics_beam
    import copy

    jet2 = copy.copy(jet)
    jet2.curvature = jet.curvature.real + 2j * jet.curvature.imag
    g2 = gouy_path(bundle, jet2)[400, 3]
    g1 = gouy_path(bundle, jet)[400, 3]
    assert g2 == pytest.approx(2.0 * g1, rel=1e-10)


def test_projector_jet_scalar_system_trivial():
    spec = builtin_system("advection")
    comp = gaussian_point_component()
    bundle, jet = build_beam(spec, comp, T=0.4, dt=1e-3, chart_radius=3.0)
    pj = projector_jet(spec, 0, bundle, jet, bundle.n_t // 2, 0)
    # measured: all three exact (a single cluster has no resolvent weights)
    np.testing.assert_allclose(pj.value, 1.0, atol=1e-14)
    np.testing.assert_allclose(pj.ds, 0.0, atol=1e-15)
    np.testing.assert_allclose(pj.dss, 0.0, atol=1e-15)


def test_projector_jet_wave2x2_constant_projector():
    # the 2x2 wave projectors do not depend on xi (for xi > 0), so the whole
    # jet is constant; the exact derivatives vanish to rounding (measured:
    # value 1.1e-16 off, ds 1.1e-17, dss 2.2e-17)
    spec = builtin_system("wave2x2")
    comp = wave2x2_component()
    bundle, jet = build_beam(spec, comp, T=0.5, dt=1e-3, chart_radius=3.0)
    pj = projector_jet(spec, 1, bundle, jet, bundle.n_t // 2, 0)
    plus = 0.5 * np.array([[1, 1], [1, 1]])
    np.testing.assert_allclose(pj.value, plus, atol=1e-15)
    np.testing.assert_allclose(pj.ds, 0.0, atol=1e-15)
    np.testing.assert_allclose(pj.dss, 0.0, atol=1e-15)


def test_projector_jet_acoustics_identities(acoustics_beam):
    # pi pi_i pi = 0 and pi (pi_i pi_j + pi_j pi_i + pi_ij) pi = 0, to
    # rounding (measured: 0 and 7.8e-17, with |quad| up to 1.28)
    spec, comp, bundle, jet = acoustics_beam
    for k, i in [(250, 4), (500, 8), (750, 12)]:
        pj = projector_jet(spec, comp.mode, bundle, jet, k, i)
        p = pj.value
        for a in range(bundle.d2):
            first = p @ pj.ds[a] @ p
            assert np.max(np.abs(first)) <= 1e-14
            for b in range(bundle.d2):
                second = p @ pj.quad[a, b] @ p
                assert np.max(np.abs(second)) <= 1e-14


def test_projector_jet_fd_oracle_acoustics(acoustics_beam):
    # first derivative against an independent coarse FD of the extended
    # projector evaluated through the public extension API
    spec, comp, bundle, jet = acoustics_beam
    k, i = 333, 6
    h = 1e-3 * bundle.chart_radius
    vals = _extended_projector_ray(spec, comp.mode, bundle, jet, k, i, np.array([[h], [-h]]))
    fd = (vals[0] - vals[1]) / (2 * h)
    pj = projector_jet(spec, comp.mode, bundle, jet, k, i)
    assert np.max(np.abs(pj.ds[0] - fd)) <= 1e-6


def test_extend_amplitude_center_and_order(acoustics_beam, acoustics_transport):
    spec, comp, bundle, jet = acoustics_beam
    res = acoustics_transport
    k, i = 500, 8
    pj = projector_jet(spec, comp.mode, bundle, jet, k, i)
    a = res.a[k, i]
    assert np.allclose(extend_amplitude(pj, a, np.zeros((1, 1)))[0], a)
    # (I - pi_tilde) a0 = O(|s|^3)
    svals = np.logspace(-2.0, -0.8, 6)
    norms = []
    for sv in svals:
        s = np.array([[sv]])
        a0 = extend_amplitude(pj, a, s)[0]
        ptil = _extended_projector_ray(spec, comp.mode, bundle, jet, k, i, s)[0]
        norms.append(float(np.linalg.norm(a0 - ptil @ a0)))
    slope, _, _ = loglog_fit(svals, norms)
    assert slope >= 2.8


def test_projector_velocity_identity():
    # pi A_k pi = (d lambda / d xi_k) pi at random points
    rng = np.random.default_rng(21)
    for name in ("wave2x2", "acoustics3", "variable_advection"):
        spec = builtin_system(name)
        for _ in range(10):
            t = rng.uniform(0, spec.domain.final_time)
            x = spec.domain.center + rng.uniform(-0.5, 0.5, spec.d)
            xi = rng.standard_normal(spec.d)
            xi /= np.linalg.norm(xi)
            dec = eigen_decompose(spec, t, x, xi, order=1)
            for l, mode in enumerate(dec.modes):
                p = mode.projector
                for kdir in range(spec.d):
                    ak = np.asarray(spec.coeff_A(t, x, kdir)).reshape(spec.N, spec.N)
                    lhs = p @ ak @ p
                    np.testing.assert_allclose(
                        lhs, mode.grad[kdir] * p, atol=1e-8
                    )


def test_corrector_scalar_system_zero():
    spec = builtin_system("advection")
    comp = gaussian_point_component()
    bundle, jet = build_beam(spec, comp, T=0.4, dt=1e-3, chart_radius=3.0)
    res = solve_transport(spec, 0, bundle, jet, np.array([[1.0 + 0j]]))
    ext = ExtensionField(spec, 0, bundle, jet, res.a)
    a1 = compute_corrector(spec, 0, bundle, jet, ext, 200, 0)
    np.testing.assert_allclose(a1, 0.0, atol=1e-14)


@pytest.fixture(scope="module")
def damped_wave_beam():
    # wave2x2 with a coupling B: nontrivial transport and corrector
    spec = load_system(
        {
            "name": "wave2x2_coupled",
            "d": 1,
            "N": 2,
            "A": [[[0.0, 1.0], [1.0, 0.0]]],
            "B": [[0.1, 0.3], [-0.3, 0.2]],
            "domain": {"center": [0], "radius": 5, "final_time": 0.5, "speed": 1},
        }
    )
    comp = wave2x2_component(mode=1)
    bundle, jet = build_beam(spec, comp, T=0.5, dt=5e-4, chart_radius=3.0)
    res = solve_transport(spec, 1, bundle, jet, comp.amplitude(comp.points))
    ext = ExtensionField(spec, 1, bundle, jet, res.a)
    return spec, comp, bundle, jet, res, ext


def test_transport_equation_residual_on_beam(damped_wave_beam):
    # necessary condition: pi (L0 a0 + B a0) = 0 on the beam (to FD accuracy);
    # the localization shift is generated by the complex part of the
    # projector jet, so no explicit Gouy term appears here
    spec, comp, bundle, jet, res, ext = damped_wave_beam
    for k in (100, 400, 800):
        resid = _residual_on_rays(spec, bundle, ext, [k])[0, 0]
        dec = eigen_decompose(spec, bundle.t[k], bundle.x[k, 0], bundle.xi[k, 0])
        proj = dec.modes[comp.mode].projector
        assert np.linalg.norm(proj @ resid) <= 1e-5


def test_transport_equation_residual_acoustics(acoustics_beam, acoustics_transport):
    # same check on a beam with a genuinely nonzero localization shift
    spec, comp, bundle, jet = acoustics_beam
    res = acoustics_transport
    ext = ExtensionField(spec, comp.mode, bundle, jet, res.a)
    for k in (250, 750):
        resid = _residual_on_rays(spec, bundle, ext, [k])[0, 8]
        dec = eigen_decompose(spec, bundle.t[k], bundle.x[k, 8], bundle.xi[k, 8])
        proj = dec.modes[comp.mode].projector
        assert res.gouy[k, 8] > 0.1  # the shift really is active here
        assert np.linalg.norm(proj @ resid) <= 1e-5


def test_corrector_solves_complement_equation(damped_wave_beam):
    spec, comp, bundle, jet, res, ext = damped_wave_beam
    for k in (150, 500, 850):
        a1 = compute_corrector(spec, comp.mode, bundle, jet, ext, k, 0)
        resid = _residual_on_rays(spec, bundle, ext, [k])[0, 0]
        dec = eigen_decompose(spec, bundle.t[k], bundle.x[k, 0], bundle.xi[k, 0])
        lam = dec.modes[comp.mode].eigenvalue
        pi = dec.modes[comp.mode].projector
        w = resid - pi @ resid
        smat = np.zeros((2, 2), dtype=complex)
        for lp, mode in enumerate(dec.modes):
            if lp == comp.mode:
                continue
            smat += 1j * (mode.eigenvalue - lam) * mode.projector
        assert np.linalg.norm(smat @ a1 + w) <= 1e-8
        assert np.linalg.norm(pi @ a1) <= 1e-12


@pytest.mark.parametrize("stride", [500, 1000])
def test_short_strided_paths_pass_through_every_computed_node(
    acoustics_beam, acoustics_transport, stride
):
    # strides leaving 3 or 2 computed nodes: the extension and corrector
    # paths must interpolate all of them, not hold the first node's values
    spec, comp, bundle, jet = acoustics_beam
    a = acoustics_transport.a
    n_t = bundle.n_t
    ext = ExtensionField(spec, comp.mode, bundle, jet, a, stride=stride)
    cor = corrector_path(spec, comp.mode, bundle, jet, ext, stride=stride)
    ext_ks = sorted(set(range(0, n_t, stride)) | {n_t - 1})
    cor_ks = sorted(set(range(1, n_t - 1, stride)) | {1, n_t - 2})
    assert len(ext_ks) == len(cor_ks) == 1 + 1000 // stride
    for i in (4, 8):
        for k in ext_ks:
            pj = projector_jet(spec, comp.mode, bundle, jet, k, i)
            lin = np.einsum("iab,b->ia", pj.ds, a[k, i])
            quad = np.einsum("ijab,b->ija", pj.quad, a[k, i])
            assert np.max(np.abs(ext.lin_a[k, i] - lin)) <= 1e-12
            assert np.max(np.abs(ext.quad_a[k, i] - quad)) <= 1e-12
        for k in cor_ks:
            direct = compute_corrector(spec, comp.mode, bundle, jet, ext, k, i)
            assert np.max(np.abs(cor[k, i] - direct)) <= 1e-12


def test_corrector_path_interpolation_consistent(damped_wave_beam):
    spec, comp, bundle, jet, res, ext = damped_wave_beam
    path = corrector_path(spec, comp.mode, bundle, jet, ext, stride=25)
    k = 475
    direct = compute_corrector(spec, comp.mode, bundle, jet, ext, k, 0)
    assert np.linalg.norm(path[k, 0] - direct) <= 1e-7
