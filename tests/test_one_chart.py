"""One chart per beam: the bundle's chart data are the [x | e] r-spline's.

``evolve_frame`` takes the tangents d_r x and the frames' d_r e from
``RayBundle.r_derivative``, so the node Jacobians [d_r x | e] that the
Riccati coefficients, L0 on the rays, the Gouy rate and the projector s-jet
read are those of the chart spline that ``invert`` and the phase evaluator
differentiate.  The property test draws bent, tilted line manifolds whose
rays fan out, and compares the two at every time node.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cgoptics.numerics import CubicPoints
from cgoptics.rays import WaveComponent, evolve_frame, flow_out
from cgoptics.systems import builtin_system

from test_rays import _chart_jacobian_at


def _bent_line_component(angle, bend, kappa, n_r):
    """An acoustics3 line component on the parabola q = x2 - bend x1^2 = 0,
    tilted by ``angle``, with phase psi = x1 + kappa x1 q + i q^2 / 2 in the
    untilted frame: Im psi and Im dpsi vanish on the curve, and xi turns
    along it with kappa, so the rays fan out and the frames rotate along r."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    r = np.linspace(-0.4, 0.4, n_r)

    def local(x):
        y = np.asarray(x, dtype=float) @ rot           # rot^T x, row-wise
        return y[..., 0], y[..., 1] - bend * y[..., 0] ** 2

    def psi(x):
        y1, q = local(x)
        return y1 + kappa * y1 * q + 0.5j * q**2

    def dpsi(x):
        y1, q = local(x)
        g = np.stack(
            [1.0 + kappa * q - 2.0 * kappa * bend * y1**2 - 2j * bend * y1 * q,
             kappa * y1 + 1j * q], axis=-1)
        return g @ rot.T

    def d2psi(x):
        y1, q = local(x)
        h = np.empty(np.shape(y1) + (2, 2), dtype=complex)
        h[..., 0, 0] = -6.0 * kappa * bend * y1 - 2j * bend * q + 4j * bend**2 * y1**2
        h[..., 0, 1] = h[..., 1, 0] = kappa - 2j * bend * y1
        h[..., 1, 1] = 1j
        return rot @ h @ rot.T

    def amplitude(x):
        xi = np.asarray(dpsi(x)).real
        xh = xi / np.linalg.norm(xi, axis=-1, keepdims=True)
        vec = np.concatenate([np.ones(xh.shape[:-1] + (1,)), xh], axis=-1)
        return (vec / np.sqrt(2.0)).astype(complex)

    pts = np.stack([r, bend * r**2], axis=-1) @ rot.T
    return WaveComponent(
        mode=2, points=pts, r=r, psi=psi, dpsi=dpsi, d2psi=d2psi,
        amplitude=amplitude, label="bent-line",
    )


@settings(max_examples=25, deadline=None)
@given(
    angle=st.floats(0.0, 2.0 * np.pi),
    bend=st.floats(-1.0, 1.0),
    kappa=st.floats(-0.5, 0.5),
    n_r=st.integers(7, 17),
)
def test_node_jacobians_are_the_chart_splines(angle, bend, kappa, n_r):
    spec = builtin_system("acoustics3")
    bundle = flow_out(spec, _bent_line_component(angle, bend, kappa, n_r), T=0.25, dt=1e-2)
    evolve_frame(bundle)
    dr = bundle.r[1] - bundle.r[0]
    s0 = np.zeros((bundle.n_r, bundle.d2))
    jac = bundle.node_jacobians()
    nodes = CubicPoints(bundle.r, bundle.r)
    for k in range(bundle.n_t):
        want = _chart_jacobian_at(bundle, k, bundle.r, s0)[1]
        assert np.max(np.abs(jac[k] - want)) <= 1e-13 * np.max(np.abs(want))
        # d_r e from the spline's derivative; its rounding scales as |e| / dr
        de_dr = bundle.chart_spline(k).jets(nodes)[1][0][:, :, 1:]
        assert np.max(np.abs(bundle.frame_r_grad[k, ..., 0] - de_dr)) <= 1e-13 / dr
    np.testing.assert_array_equal(bundle.jacobian_inv, np.linalg.inv(jac))
