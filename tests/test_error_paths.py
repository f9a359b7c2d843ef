import functools
import re

import numpy as np
import pytest

from cgoptics.beams import BeamParams, build_beam
from cgoptics.errors import (
    BlowUpError,
    DomainExitError,
    FrameDriftError,
    GapCollapseError,
    GridMismatchError,
    NumericsError,
    OutOfChartError,
    PolarizationDriftError,
    PositivityLossError,
    SingularJacobianError,
)
from cgoptics.fields import initial_mismatch
from cgoptics.phase import build_phase_jet, solve_riccati
from cgoptics.rays import InitialData, _trace_bundle, evolve_frame, flow_out
from cgoptics.amplitudes import solve_transport
from cgoptics import rays
from cgoptics.systems import ClusterTemplate, Domain, SystemSpec, builtin_system

from oracles import assert_exact_derivatives
from test_rays import _synthetic_chart, gaussian_point_component, wave2x2_component


def _crossing_A(t, x, j):
    # eigenvalues +-x1 merge at x1 = 0
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = x[..., 0]
    out[..., 1, 1] = -x[..., 0]
    return out


def _crossing_dxA(t, x, j, k):
    # d/dx1 diag(x1, -x1)
    return np.broadcast_to(np.diag([1.0, -1.0]) + 0j, np.shape(x)[:-1] + (2, 2))


def _zero_dx(n):
    """The x-derivatives, of any order, of coefficients constant in x
    (N = n): zeros."""
    return lambda t, x, j, *idx: np.zeros(np.shape(x)[:-1] + (n, n), dtype=complex)


def _zero_B2(t, x):
    x = np.asarray(x, dtype=float)
    return np.zeros(x.shape[:-1] + (2, 2), dtype=complex)


def _crossing_spec():
    return SystemSpec(
        name="crossing", d=1, N=2, coeff_A=_crossing_A, coeff_B=_zero_B2,
        domain=Domain(center=[0.0], radius=3.0, final_time=0.5, speed=4.0),
        coeff_dxA=_crossing_dxA, coeff_d2xA=_zero_dx(2),
    )


def test_gap_collapse_when_modes_merge():
    spec = _crossing_spec()
    template = ClusterTemplate(spec, 0.0, [1.0], [1.0])
    assert template.mults == [1, 1]
    with pytest.raises(GapCollapseError):
        template.modes(0.0, np.array([[0.0]]), np.array([[1.0]]))


def test_gap_collapse_names_the_first_failing_point():
    # the modes merge at x1 = 0, the third of four points; the error names
    # that point, its time, covector, gap and cluster pair
    spec = _crossing_spec()
    template = ClusterTemplate(spec, 0.0, [1.0], [1.0])
    X = np.array([[1.0], [0.5], [0.0], [-0.0]])
    Xi = np.array([[1.0], [1.0], [2.0], [1.0]])
    t = np.array([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(GapCollapseError) as info:
        template.modes(t, X, Xi)
    msg = str(info.value)
    assert "t=0.3, x=[0.], xi=[2.]" in msg, msg
    assert "gap 0.000e+00 between clusters 0 and 1 of 'crossing'" in msg, msg


def _nan_beyond(n, edge):
    """A = I (N x N), NaN for x1 > edge."""
    def coeff_A(t, x, j):
        x = np.asarray(x, dtype=float)
        a = np.where(x[..., 0] > edge, np.nan, 1.0)[..., None, None] * np.eye(n)
        return a + 0j

    return coeff_A


def _piecewise_constant_dx(coeff_A):
    """The x-derivatives, of any order, of a coefficient that is constant in
    x away from its jumps: 0 where it is finite, NaN where it is NaN."""
    return lambda t, x, j, *idx: 0.0 * np.asarray(coeff_A(t, x, j))


def _nan_spec(n):
    coeff_A = _nan_beyond(n, 0.5)
    return SystemSpec(
        name="nan-beyond", d=1, N=n, coeff_A=coeff_A,
        coeff_B=lambda t, x: np.zeros(np.shape(x)[:-1] + (n, n), dtype=complex),
        domain=Domain(center=[0.0], radius=3.0, final_time=1.0, speed=1.0),
        coeff_dxA=_piecewise_constant_dx(coeff_A), coeff_d2xA=_piecewise_constant_dx(coeff_A),
    )


def test_hand_written_derivatives_are_exact():
    # below x1 = 0.5, where the NaN coefficients are finite
    X = np.linspace(-0.9, 0.45, 7)[:, None]
    for spec in (_crossing_spec(), _nan_spec(1), _nan_spec(2)):
        assert_exact_derivatives(spec, X)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2])
def test_non_finite_symbol_names_the_system_and_point(n):
    # NaN passes a comparison with the Hermiticity bound; the symbol gate
    # rejects it first, so the ray that reaches x1 = 0.5 at t = 0.5 raises
    # there, and not the domain exit its NaN position would later raise
    spec = _nan_spec(n)
    with pytest.raises(NumericsError) as info:
        _trace_bundle(spec, 0, np.array([[0.0]]), np.array([[1.0]]), T=0.8, dt=1e-3)
    assert re.fullmatch(
        r"symbol of 'nan-beyond' is not finite at t=0\.50*\d*, x=\[0\.50*\d*\], xi=\[1\.\]",
        str(info.value),
    ), str(info.value)
    # every caller of the gate: the first non-finite of three points
    template = ClusterTemplate(spec, 0.0, [0.0], [1.0])
    with pytest.raises(NumericsError, match=r"not finite at t=0\.1, x=\[0\.7\], xi=\[2\.\]$"):
        template.modes(0.1, np.array([[0.2], [0.7], [0.9]]), np.array([[1.0], [2.0], [1.0]]))


def test_ray_domain_exit():
    spec = builtin_system("advection")
    with pytest.raises(DomainExitError):
        _trace_bundle(spec, 0, np.array([[4.8]]), np.array([[1.0]]), T=0.4, dt=1e-3)


def test_riccati_blowup_guard():
    n_t = 2001
    dt = 1.0 / (n_t - 1)
    zeros = np.zeros((n_t, 1, 1))
    b = np.full((n_t, 1, 1), -30.0)  # dPhi/dt = +60 Phi: growth e^{60 t}
    with pytest.raises(BlowUpError):
        solve_riccati((zeros, b, zeros), 1j * np.eye(1), dt=dt)


def _stacked_riccati(bad_ray, n_r=4, d2=1, n_t=2001, **bad):
    # zero coefficients and Phi(0) = i I on every ray but ``bad_ray``, whose
    # coefficient paths take the constant matrices in ``bad``
    coeffs = [np.zeros((n_t, n_r, d2, d2)) for _ in range(3)]
    for m, name in zip(coeffs, "abc"):
        if name in bad:
            m[:, bad_ray] = bad[name]
    return coeffs, np.broadcast_to(1j * np.eye(d2), (n_r, d2, d2)), 1.0 / (n_t - 1)


def _failing_step(exc_info):
    return int(re.search(r"at step (\d+) \(t = ", str(exc_info.value)).group(1))


def test_riccati_symmetry_drift_names_ray_and_step():
    # a non-symmetric A makes the flow leave the symmetric matrices at once
    coeffs, phi0, dt = _stacked_riccati(2, d2=2, a=[[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(BlowUpError, match=r"symmetry drift .* on ray 2 at step 1 \(t = 0\.0005\)"):
        solve_riccati(coeffs, phi0, dt)


def test_riccati_asymmetric_c_is_rejected_as_asymmetric_a_is():
    coeffs, phi0, dt = _stacked_riccati(2, d2=2, c=[[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(
        BlowUpError, match=r"symmetry drift .* coefficient C on ray 2 at step 1 \(t = 0\.0005\)"
    ):
        solve_riccati(coeffs, phi0, dt)


def test_riccati_blowup_names_ray_and_step():
    coeffs, phi0, dt = _stacked_riccati(1, b=-30.0)  # ray 1: growth e^{60 t}
    with pytest.raises(BlowUpError, match=r"blow-up threshold on ray 1 at step") as stacked:
        solve_riccati(coeffs, phi0, dt)
    # the same step as ray 1 integrated alone
    with pytest.raises(BlowUpError, match=r"on ray 0 at step") as alone:
        solve_riccati([m[:, 1] for m in coeffs], phi0[1], dt)
    step = _failing_step(stacked)
    assert step == _failing_step(alone)
    # |Phi| = e^{60 t} first exceeds 1e8 at t = ln(1e8) / 60 = 0.307
    assert abs(step * dt - np.log(1e8) / 60.0) <= 2 * dt


def test_riccati_positivity_loss_names_ray_and_step():
    coeffs, phi0, dt = _stacked_riccati(3, b=30.0)  # ray 3: Im(Phi) = e^{-60 t}
    with pytest.raises(PositivityLossError, match=r"on ray 3 at step") as exc:
        solve_riccati(coeffs, phi0, dt)
    # e^{-60 t} first drops below 1e-12 at t = ln(1e12) / 60 = 0.461
    assert abs(_failing_step(exc) * dt - np.log(1e12) / 60.0) <= 2 * dt


def test_chart_invert_outside_tube_raises():
    spec = builtin_system("advection")
    bundle = flow_out(spec, gaussian_point_component(), T=0.4, dt=1e-3)
    evolve_frame(bundle)
    bundle.chart_radius = 0.5
    _, _, inside = bundle.invert(bundle.locate_time(0.2)[0], [[2.0]])
    assert not inside[0]
    with pytest.raises(OutOfChartError):
        bundle.locate_time(9.0)


def test_transport_rejects_unpolarized_data():
    spec = builtin_system("wave2x2")
    comp = wave2x2_component(mode=1)
    bundle = flow_out(spec, comp, T=0.3, dt=1e-3)
    evolve_frame(bundle)
    bundle.chart_radius = 3.0
    jet = build_phase_jet(spec, 1, bundle, comp)
    with pytest.raises(PolarizationDriftError):
        solve_transport(spec, 1, bundle, jet, np.array([[1.0, 0.0]], dtype=complex))


def test_transport_projects_slightly_unpolarized_data():
    spec = builtin_system("wave2x2")
    comp = wave2x2_component(mode=1)
    bundle = flow_out(spec, comp, T=0.3, dt=1e-3)
    evolve_frame(bundle)
    bundle.chart_radius = 3.0
    jet = build_phase_jet(spec, 1, bundle, comp)
    vec = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    bad = vec + 5e-7 * np.array([1.0, -1.0])
    res = solve_transport(spec, 1, bundle, jet, bad[None, :])
    # projected and renormalized to the original magnitude
    assert np.linalg.norm(res.a[0, 0]) == pytest.approx(np.linalg.norm(bad), rel=1e-12)
    plus = 0.5 * np.array([[1, 1], [1, 1]])
    assert np.linalg.norm(res.a[0, 0] - plus @ res.a[0, 0]) <= 1e-13


def test_singular_chart_jacobian_names_node_time_and_first_point():
    bundle = _synthetic_chart(curved=False)
    k = 5
    # zero frames on the rays with r >= 0.2: at those ray nodes the chart
    # Jacobian [dx/dr | e] has a zero column
    bundle.frames = bundle.frames.copy()
    bundle.frames[k, 7:] = 0.0
    X = bundle.x[k, [2, 5, 8, 9]]
    x_first = ", ".join(f"{v:.6g}" for v in bundle.x[k, 8])
    with pytest.raises(
        SingularJacobianError,
        match=rf"singular at node k = 5 \(t = 0\.1\), first at X = \({x_first}\)",
    ):
        bundle.invert(k, X)


def test_frame_drift_names_worst_node_and_ray(monkeypatch):
    bundle = _synthetic_chart(curved=True)
    gram = np.einsum("krdi,krdj->krij", bundle.frames, bundle.frames)
    node_drift = np.max(np.abs(gram - np.eye(bundle.d2)), axis=(2, 3))
    assert np.max(node_drift) > 0
    k, i = np.unravel_index(np.argmax(node_drift), node_drift.shape)
    monkeypatch.setattr(rays, "FRAME_TOL", 0.0)
    with pytest.raises(FrameDriftError, match=rf"at \(node, ray\) = \({k}, {i}\)"):
        _synthetic_chart(curved=True)


def test_initial_mismatch_rejects_initial_data_of_another_size():
    # the beam carries N = 1 vectors, the initial data N = 2
    spec = builtin_system("advection")
    beam = build_beam(spec, gaussian_point_component(), BeamParams(dt=5e-3, chart_radius=1.0))
    initial = InitialData(components=(wave2x2_component(),))
    with pytest.raises(GridMismatchError, match="initial data and field grids differ"):
        initial_mismatch(initial, [beam], [0.1], (np.linspace(-5.0, 5.0, 201),))
