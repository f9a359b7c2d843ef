"""The chain-rule L0 on the rays against chart-inverting finite differences.

The oracles are the finite-difference constructions the chain rule replaced:
central differences, in t at fixed x and in each x_j, of the projector field
pi(t, x, d_x Re(phi)(t, x)) and of the evaluated extended amplitude a0(t, x),
each evaluation inverting the chart.  Both stay centered, so the compared
nodes are interior.  On line beams the end rays are left out: there the
oracle's x-steps leave the r range, where the inversion clips r and the
field stops varying along r.
"""

import functools

import numpy as np
import pytest

from cgoptics.amplitudes import (
    ExtensionField,
    _projector_l0,
    solve_transport,
    transport_residual,
)
from cgoptics.phase import build_phase_jet, eval_phase_at_node
from cgoptics.rays import WaveComponent, evolve_frame, flow_out
from cgoptics.systems import ClusterTemplate, Domain, SystemSpec, builtin_system, load_system

from test_rays import acoustics_line_component, wave2x2_component

H_X = 1e-5


def _beam(spec, comp, T, dt, chart_radius):
    bundle = flow_out(spec, comp, T=T, dt=dt)
    evolve_frame(bundle)
    bundle.chart_radius = chart_radius
    jet = build_phase_jet(spec, comp.mode, bundle, comp)
    a = solve_transport(spec, comp.mode, bundle, jet, comp.amplitude(comp.points)).a
    ext = ExtensionField(spec, comp.mode, bundle, jet, a)
    return bundle, jet, ext


def _fd_l0(spec, bundle, k, field):
    """Central differences of field(k, X) at the ray points of node k."""
    X = bundle.x[k]
    acc = (field(k + 1, X) - field(k - 1, X)) / (bundle.t[k + 1] - bundle.t[k - 1])
    acc = acc.astype(complex)
    for j in range(bundle.d):
        ej = np.zeros(bundle.d)
        ej[j] = H_X
        diff = (field(k, X + ej) - field(k, X - ej)) / (2 * H_X)
        acc = acc + np.asarray(spec.coeff_A(bundle.t[k], X, j)) @ diff
    return acc


def _fd_l0_pi(spec, l, bundle, jet, k):
    template = ClusterTemplate(spec, bundle.t[0], bundle.x[0, 0], bundle.xi[0, 0])

    def field(kk, X):
        pv = eval_phase_at_node(jet, bundle, kk, X)
        return template.modes(bundle.t[kk], X, pv.dx.real)[1][:, l]

    return _fd_l0(spec, bundle, k, field)


def _fd_residual(spec, bundle, ext, k):
    """FD of the evaluated a0 field, plus B a0, at the ray points of node k."""

    def field(kk, X):
        r, s, _ = bundle.invert(kk, X)
        r = np.clip(r, bundle.r[0], bundle.r[-1]) if bundle.d1 else r
        a = bundle.interp_over_r(kk, ext.a[kk], r)
        lin = bundle.interp_over_r(kk, ext.lin_a[kk], r)
        quad = bundle.interp_over_r(kk, ext.quad_a[kk], r)
        vals = (
            a
            + np.einsum("mi,mia->ma", s, lin)
            + 0.5 * np.einsum("mi,mj,mija->ma", s, s, quad)
        )
        return vals[..., None]

    bmat = np.asarray(spec.coeff_B(bundle.t[k], bundle.x[k]))
    return _fd_l0(spec, bundle, k, field)[..., 0] + np.einsum("rab,rb->ra", bmat, ext.a[k])


def _curved_line_component(kappa=0.5):
    # psi = x1 + kappa x1 x2 + i x2^2 / 2 on the x1 axis: xi = (1, kappa r)
    # turns along r, so the rays fan out and the frames rotate along r
    r_vals = np.linspace(-0.2, 0.2, 33)
    pts = np.stack([r_vals, np.zeros_like(r_vals)], axis=-1)
    hess = np.array([[0.0, kappa], [kappa, 1j]])

    def psi(x):
        x = np.asarray(x)
        return x[..., 0] + kappa * x[..., 0] * x[..., 1] + 0.5j * x[..., 1] ** 2

    def dpsi(x):
        x = np.asarray(x)
        return np.stack(
            [1.0 + kappa * x[..., 1] + 0j, kappa * x[..., 0] + 1j * x[..., 1]], axis=-1
        )

    def amplitude(x):
        xi = np.asarray(dpsi(x)).real
        xh = xi / np.linalg.norm(xi, axis=-1, keepdims=True)
        vec = np.concatenate([np.ones(xh.shape[:-1] + (1,)), xh], axis=-1)
        return (vec / np.sqrt(2.0)).astype(complex)

    return WaveComponent(
        mode=2, points=pts, r=r_vals, psi=psi, dpsi=dpsi,
        d2psi=lambda x: np.broadcast_to(hess, np.shape(x)[:-1] + (2, 2)),
        amplitude=amplitude, label="curved-line",
    )


def _a_of_x(x):
    return 0.3 * np.sin(np.asarray(x, dtype=float)[..., 0])


def _xdep_A(t, x, j):
    a = _a_of_x(x)[..., None, None]
    return a * np.array([[1.0, 0.0], [0.0, -1.0]]) + np.array([[0.0, 1.0], [1.0, 0.0]]) + 0j


def _xdep_dxA(t, x, j, k):
    da = (0.3 * np.cos(np.asarray(x, dtype=float)[..., 0]))[..., None, None]
    return da * np.array([[1.0, 0.0], [0.0, -1.0]]) + 0j


def _xdep_spec(with_dxA: bool) -> SystemSpec:
    return SystemSpec(
        name="xdep2x2",
        d=1,
        N=2,
        coeff_A=_xdep_A,
        coeff_B=lambda t, x: np.zeros(np.shape(x)[:-1] + (2, 2), dtype=complex),
        domain=Domain(center=[0.0], radius=5.0, final_time=0.5, speed=1.1),
        coeff_dxA=_xdep_dxA if with_dxA else None,
    )


def _coupled_wave_spec():
    return load_system(
        {
            "name": "wave2x2_coupled",
            "d": 1,
            "N": 2,
            "A": [[[0.0, 1.0], [1.0, 0.0]]],
            "B": [[0.1, 0.3], [-0.3, 0.2]],
            "domain": {"center": [0], "radius": 5, "final_time": 0.5, "speed": 1},
        }
    )


# (spec factory, component factory, T, dt, chart radius, bound, relative)
CASES = {
    "acoustics_line": (
        functools.partial(builtin_system, "acoustics3"), acoustics_line_component,
        0.5, 1e-3, 0.4, 1e-9, False,
    ),
    # On the curved beam the two constructions differ by discretization
    # errors well above 1e-9 (measured: 7e-7 for L0 pi, 1.6e-6 for the
    # residual, against values of 0.25 and 0.36).  The oracle's centered
    # time difference at fixed x has an O(dt^2) truncation (halving dt
    # shrinks the L0 pi difference 2.7x); its field takes the covector from
    # the phase jet and d_r x from the chart spline, while the chain rule
    # uses the traced xi and the bundle's node Jacobian; both differ at
    # O(dr^2) once the rays fan out.
    "curved_line": (
        functools.partial(builtin_system, "acoustics3"), _curved_line_component,
        0.25, 5e-4, 0.2, 3e-6, False,
    ),
    "coupled_wave_point": (
        _coupled_wave_spec, functools.partial(wave2x2_component, mode=1),
        0.5, 1e-3, 3.0, 1e-9, False,
    ),
    "xdep_point_dxA": (
        functools.partial(_xdep_spec, True), functools.partial(wave2x2_component, mode=1),
        0.5, 1e-3, 1.0, 1e-6, True,
    ),
    "xdep_point_default_dxA": (
        functools.partial(_xdep_spec, False), functools.partial(wave2x2_component, mode=1),
        0.5, 1e-3, 1.0, 1e-6, True,
    ),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    make_spec, make_comp, T, dt, radius, bound, relative = CASES[request.param]
    spec, comp = make_spec(), make_comp()
    bundle, jet, ext = _beam(spec, comp, T, dt, radius)
    return request.param, spec, comp, bundle, jet, ext, bound, relative


def _check(bundle, got, want, bound, relative):
    rays = slice(1, -1) if bundle.d1 else slice(None)
    got, want = got[:, rays], want[:, rays]
    err = float(np.max(np.abs(got - want)))
    scale = float(np.max(np.abs(want))) if relative else 1.0
    assert err <= bound * scale, (err, scale)


def test_l0_pi_matches_fd_oracle(case):
    name, spec, comp, bundle, jet, ext, bound, relative = case
    template = ClusterTemplate(spec, bundle.t[0], bundle.x[0, 0], bundle.xi[0, 0])
    _, _, l0pi = _projector_l0(spec, comp.mode, bundle, jet, template)
    ks = (1, bundle.n_t // 3, bundle.n_t // 2, bundle.n_t - 2)
    want = np.stack([_fd_l0_pi(spec, comp.mode, bundle, jet, k) for k in ks])
    _check(bundle, l0pi[list(ks)], want, bound, relative)
    if name == "curved_line":
        # the frames rotate along r, and L0 pi is really exercised
        assert np.max(np.abs(bundle.frame_r_grad)) > 1e-2
        assert np.max(np.abs(want)) > 1e-2


def test_transport_residual_matches_fd_oracle(case):
    name, spec, comp, bundle, jet, ext, bound, relative = case
    ks = (1, bundle.n_t // 3, bundle.n_t - 2)
    got = np.stack(
        [
            [transport_residual(spec, comp.mode, bundle, jet, ext, k, i)[0]
             for i in range(bundle.n_r)]
            for k in ks
        ]
    )
    want = np.stack([_fd_residual(spec, bundle, ext, k) for k in ks])
    _check(bundle, got, want, bound, relative)


def test_x_dependent_symbol_term_is_needed():
    # without the d_x A term in d_s A, L0 pi misses the x-dependence of the
    # symbol; the default coeff_dxA of SystemSpec supplies it
    spec = _xdep_spec(False)
    comp = wave2x2_component(mode=1)
    bundle, jet, _ = _beam(spec, comp, 0.5, 1e-3, 1.0)
    template = ClusterTemplate(spec, bundle.t[0], bundle.x[0, 0], bundle.xi[0, 0])
    with_term = _projector_l0(spec, 1, bundle, jet, template)[2]
    flat = SystemSpec(
        name="xdep2x2_no_dxA", d=1, N=2, coeff_A=_xdep_A, coeff_B=spec.coeff_B,
        domain=spec.domain,
        coeff_dxA=lambda t, x, j, k: np.zeros(np.shape(x)[:-1] + (2, 2)),
    )
    without = _projector_l0(flat, 1, bundle, jet, template)[2]
    assert np.max(np.abs(with_term - without)) > 1e-2
