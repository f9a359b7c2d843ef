"""The ray kernel: d_xi lambda and d_x lambda from one gated eigendecomposition.

``rays._grad_lambda_batch`` takes both derivatives as the first-order
cluster shifts sum_{a in c} (V* dA V)_aa / m_c along the stacked
perturbations [A_1..A_d, sum_j xi_j dA_j/dx_1..d].  The projector formula
it replaced, tr(P_c dA) / m_c, stays here as the oracle, over random
Hermitian systems whose coefficients vary in x and t.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cgoptics.errors import GapCollapseError, NonHermitianError
from cgoptics.rays import _grad_lambda_batch
from cgoptics.systems import ClusterTemplate, Domain, SystemSpec


def _projector_kernel(spec, template, l, t, X, Xi):
    """The kernel as it was: tr(P A_j)/m and tr(P sum_j dA_j/dx_k xi_j)/m
    with the cluster projector P of ``ClusterTemplate.modes``."""
    m = X.shape[0]
    _, projs = template.modes(t, X, Xi)
    proj = projs[:, l]
    mult = template.mults[l]
    dxi = np.zeros((m, spec.d))
    for j in range(spec.d):
        aj = np.asarray(spec.coeff_A(t, X, j))
        dxi[:, j] = np.einsum("mik,mki->m", proj, aj).real / mult
    dx = np.zeros((m, spec.d))
    for k in range(spec.d):
        dak = np.zeros((m, spec.N, spec.N), dtype=complex)
        for j in range(spec.d):
            dak += np.asarray(spec.coeff_dxA(t, X, j, k)) * Xi[:, j][:, None, None]
        dx[:, k] = np.einsum("mik,mki->m", proj, dak).real / mult
    return dxi, dx


def _hermitian(rng, shape, n):
    g = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
    return 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))


def _affine_system(base, slope, rate, name="affine"):
    """A_j(t, x) = base_j + sum_k x_k slope_jk + t rate_j, with the exact
    coeff_dxA = slope_jk."""
    d, n = base.shape[0], base.shape[-1]

    def coeff_A(t, x, j):
        x = np.asarray(x, dtype=float)
        tt = np.asarray(t, dtype=float)[..., None, None]
        return base[j] + np.einsum("...k,kab->...ab", x, slope[j]) + tt * rate[j]

    def coeff_B(t, x):
        return np.zeros(np.shape(x)[:-1] + (n, n), dtype=complex)

    def coeff_dxA(t, x, j, k):
        return np.broadcast_to(slope[j, k], np.shape(x)[:-1] + (n, n))

    return SystemSpec(
        name=name, d=d, N=n, coeff_A=coeff_A, coeff_B=coeff_B,
        domain=Domain(center=np.zeros(d), radius=2.0, final_time=0.1, speed=10.0),
        coeff_dxA=coeff_dxA,
    )


@st.composite
def variable_systems(draw):
    """Random affine Hermitian systems (N in 2..4, d in 1..3), plus
    kron(I2, .) systems whose two clusters both have multiplicity 2, with
    points (X, Xi) around the origin."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    double = draw(st.booleans())
    n = 2 if double else draw(st.integers(2, 4))
    base = _hermitian(rng, (d,), n)
    slope = 0.2 * _hermitian(rng, (d, d), n)
    rate = 0.2 * _hermitian(rng, (d,), n)
    if double:
        base, slope, rate = (np.kron(np.eye(2), m) for m in (base, slope, rate))
    X = rng.uniform(-0.3, 0.3, (6, d))
    Xi = rng.standard_normal((6, d))
    Xi /= np.linalg.norm(Xi, axis=-1, keepdims=True)
    return _affine_system(base, slope, rate), X, Xi, rng, double


@settings(max_examples=40, deadline=None)
@given(variable_systems())
def test_kernel_matches_projector_oracle(case):
    spec, X, Xi, rng, double = case
    t = 0.05
    template = ClusterTemplate(spec, t, X[0], Xi[0])
    try:
        template.modes(t, X, Xi)
    except GapCollapseError:
        assume(False)     # the clusters of X[0] do not persist over the points
    if double:
        assert template.mults == [2, 2]
    scale = max(
        1.0,
        max(np.max(np.abs(spec.coeff_A(t, X, j))) for j in range(spec.d)),
        max(np.max(np.abs(spec.coeff_dxA(t, X, j, k)))
            for j in range(spec.d) for k in range(spec.d)),
    )
    for l in range(template.n_modes):
        got = _grad_lambda_batch(spec, template, l, t, X, Xi)
        want = _projector_kernel(spec, template, l, t, X, Xi)
        for g, w in zip(got, want):
            assert g.shape == w.shape == X.shape
            assert np.max(np.abs(g - w)) <= 1e-14 * scale

    # a non-Hermitian A_0 fails the symbol gate of the kernel
    def broken_A(tt, x, j, coeff_A=spec.coeff_A):
        a = np.array(coeff_A(tt, x, j))
        if j == 0:
            a[..., 0, -1] += 1e-3
        return a

    broken = SystemSpec(
        name="broken", d=spec.d, N=spec.N, coeff_A=broken_A, coeff_B=spec.coeff_B,
        domain=spec.domain, coeff_dxA=spec.coeff_dxA,
    )
    with pytest.raises(NonHermitianError, match="'broken'"):
        _grad_lambda_batch(broken, ClusterTemplate(broken, t, X[0], Xi[0]), 0, t, X, Xi)

    # two simple eigenvalues forced together at the last point fail the gap gate
    n = spec.N
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    mu = np.arange(n, dtype=float)
    nu = np.zeros(n)
    nu[n // 2] = -1.0                  # at x_0 = 1 eigenvalue n // 2 meets n // 2 - 1
    base = np.broadcast_to(q @ np.diag(mu) @ q.conj().T, (spec.d, n, n))
    slope = np.zeros((spec.d, spec.d, n, n), dtype=complex)
    slope[:, 0] = q @ np.diag(nu) @ q.conj().T
    crossing = _affine_system(base, slope, np.zeros_like(base), name="crossing")
    Y = np.zeros((2, spec.d))
    Y[1, 0] = 1.0
    Eta = np.zeros((2, spec.d))
    Eta[:, 0] = 1.0
    simple = ClusterTemplate(crossing, 0.0, Y[0], Eta[0])
    assert simple.n_modes == n
    with pytest.raises(GapCollapseError):
        _grad_lambda_batch(crossing, simple, 0, 0.0, Y, Eta)


@pytest.mark.parametrize("l", [0, 1])
def test_kernel_d_xi_equals_the_gradient_of_modes(l):
    rng = np.random.default_rng(3)
    spec = _affine_system(
        _hermitian(rng, (2,), 3), 0.2 * _hermitian(rng, (2, 2), 3),
        0.2 * _hermitian(rng, (2,), 3),
    )
    X = rng.uniform(-0.3, 0.3, (5, 2))
    Xi = rng.standard_normal((5, 2))
    template = ClusterTemplate(spec, 0.02, X[0], Xi[0])
    grad = template.modes(0.02, X, Xi, order=1)[2][:, l]
    dxi, _ = _grad_lambda_batch(spec, template, l, 0.02, X, Xi)
    assert np.array_equal(dxi, grad)
