"""The ray kernel: d_xi lambda and d_x lambda from one gated eigendecomposition.

``rays._grad_lambda_batch`` takes both derivatives as the first-order
cluster shifts sum_{a in c} (V* dA V)_aa / m_c along the stacked
perturbations [A_1..A_d, sum_j xi_j dA_j/dx_1..d].  The projector formula
it replaced, tr(P_c dA) / m_c, stays here as the oracle, over random
Hermitian systems whose coefficients vary in x and t, on each of the
template's three routes: N = 1 (no ``eigh``), real symmetric symbols (real
``eigh``) and every other Hermitian symbol (complex ``eigh``).
"""

import contextlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cgoptics.errors import GapCollapseError, NonHermitianError
from cgoptics.rays import _grad_lambda_batch
from cgoptics.systems import ClusterTemplate, Domain, SystemSpec, symbol_many

from oracles import assert_exact_derivatives


@contextlib.contextmanager
def eigh_dtypes():
    """The dtypes of the arrays that ``np.linalg.eigh`` receives inside the
    block: the route the template took."""
    seen = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return eigh(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", recording)
        yield seen


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


def _hermitian(rng, shape, n, real=False):
    """Random Hermitian matrices, real symmetric (float) if ``real``."""
    g = rng.standard_normal(shape + (n, n))
    if not real:
        g = g + 1j * rng.standard_normal(shape + (n, n))
    return 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))


def _affine_system(base, slope, rate, name="affine"):
    """A_j(t, x) = base_j + sum_k x_k slope_jk + t rate_j, with the exact
    coeff_dxA = slope_jk and coeff_d2xA = 0."""
    d, n = base.shape[0], base.shape[-1]

    def coeff_A(t, x, j):
        x = np.asarray(x, dtype=float)
        tt = np.asarray(t, dtype=float)[..., None, None]
        return base[j] + np.einsum("...k,kab->...ab", x, slope[j]) + tt * rate[j]

    def coeff_B(t, x):
        return np.zeros(np.shape(x)[:-1] + (n, n), dtype=complex)

    def coeff_dxA(t, x, j, k):
        return np.broadcast_to(slope[j, k], np.shape(x)[:-1] + (n, n))

    def coeff_d2xA(t, x, j, k, l):
        return np.zeros(np.shape(x)[:-1] + (n, n), dtype=slope.dtype)

    return SystemSpec(
        name=name, d=d, N=n, coeff_A=coeff_A, coeff_B=coeff_B,
        domain=Domain(center=np.zeros(d), radius=2.0, final_time=0.1, speed=10.0),
        coeff_dxA=coeff_dxA, coeff_d2xA=coeff_d2xA,
    )


ROUTE_DTYPES = {"scalar": [], "real": [np.dtype(float)], "complex": [np.dtype(complex)]}


@st.composite
def variable_systems(draw):
    """Random affine Hermitian systems (d in 1..3) for each route of the
    template, with points (X, Xi) around the origin: N = 1; real symmetric
    base, slope and rate (N in 2..4); complex Hermitian ones (N in 2..4);
    and for the last two also kron(I2, .) systems whose two clusters both
    have multiplicity 2."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    route = draw(st.sampled_from(sorted(ROUTE_DTYPES)))
    double = route != "scalar" and draw(st.booleans())
    n = 1 if route == "scalar" else 2 if double else draw(st.integers(2, 4))
    real = route != "complex"
    base = _hermitian(rng, (d,), n, real)
    slope = 0.2 * _hermitian(rng, (d, d), n, real)
    rate = 0.2 * _hermitian(rng, (d,), n, real)
    if double:
        base, slope, rate = (np.kron(np.eye(2), m) for m in (base, slope, rate))
    X = rng.uniform(-0.3, 0.3, (6, d))
    Xi = rng.standard_normal((6, d))
    Xi /= np.linalg.norm(Xi, axis=-1, keepdims=True)
    return _affine_system(base, slope, rate), X, Xi, rng, double, route


@settings(max_examples=20, deadline=None)
@given(variable_systems())
def test_affine_systems_have_exact_derivatives(case):
    spec, X = case[:2]
    assert_exact_derivatives(spec, X, t=0.05)


@settings(max_examples=60, deadline=None)
@given(variable_systems())
def test_kernel_matches_projector_oracle(case):
    spec, X, Xi, rng, double, route = case
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
        with eigh_dtypes() as seen:
            got = _grad_lambda_batch(spec, template, l, t, X, Xi)
        assert seen == ROUTE_DTYPES[route]
        want = _projector_kernel(spec, template, l, t, X, Xi)
        for g, w in zip(got, want):
            assert g.shape == w.shape == X.shape
            assert np.max(np.abs(g - w)) <= 1e-14 * scale

    # a non-Hermitian A_0 fails the symbol gate of the kernel (for N = 1 an
    # imaginary part is the only way to break it)
    def broken_A(tt, x, j, coeff_A=spec.coeff_A):
        a = np.asarray(coeff_A(tt, x, j))
        if j == 0:
            corner = np.zeros((spec.N, spec.N))
            corner[0, -1] = 1e-3
            a = a + (1j * corner if spec.N == 1 else corner)
        return a

    broken = SystemSpec(
        name="broken", d=spec.d, N=spec.N, coeff_A=broken_A, coeff_B=spec.coeff_B,
        domain=spec.domain, coeff_dxA=spec.coeff_dxA, coeff_d2xA=spec.coeff_d2xA,
    )
    with pytest.raises(NonHermitianError, match="'broken'"):
        _grad_lambda_batch(broken, ClusterTemplate(broken, t, X[0], Xi[0]), 0, t, X, Xi)

    # two simple eigenvalues forced together at the last point fail the gap
    # gate, on the system's own route
    n = spec.N
    if n == 1:
        return
    g = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g if route == "real" else g + 1j * rng.standard_normal((n, n)))
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
    with eigh_dtypes() as seen, pytest.raises(GapCollapseError):
        _grad_lambda_batch(crossing, simple, 0, 0.0, Y, Eta)
    assert seen == ROUTE_DTYPES[route]


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


def _perturbations(spec, t, X, Xi):
    """[A_1..A_d, sum_j xi_j dA_j/dx_1..d] (m, 2 d, N, N), complex."""
    d = spec.d
    a = [np.asarray(spec.coeff_A(t, X, j), dtype=complex) for j in range(d)]
    dx = [sum(spec.coeff_dxA(t, X, j, k) * Xi[:, j, None, None] for j in range(d))
          for k in range(d)]
    return np.stack(a + dx, axis=1).astype(complex)


def _complex_rates(spec, t, X, Xi):
    """Re (V* dA V)_aa, (m, 2 d, N), by the complex formula: complex ``eigh``
    of the symbol's Hermitian part and two complex products."""
    m = symbol_many(spec, t, X, Xi)
    w, v = np.linalg.eigh(0.5 * (m + np.conj(np.swapaxes(m, -1, -2))))
    vb = v[:, None]
    at = np.conj(np.swapaxes(vb, -1, -2)) @ _perturbations(spec, t, X, Xi) @ vb
    return w, np.diagonal(at, axis1=-2, axis2=-1).real


@pytest.mark.parametrize("d", [1, 2, 3])
def test_scalar_route_equals_the_one_by_one_eigh_formula(d):
    # N = 1: no eigh, and every rate, value, projector and Hessian equals
    # what eigh of the 1 x 1 symbol and V* dA V give, exactly
    rng = np.random.default_rng(40 + d)
    spec = _affine_system(
        rng.standard_normal((d, 1, 1)), 0.2 * rng.standard_normal((d, d, 1, 1)),
        0.2 * rng.standard_normal((d, 1, 1)),
    )
    t = 0.05
    X = rng.uniform(-0.3, 0.3, (50, d))
    Xi = rng.standard_normal((50, d))
    template = ClusterTemplate(spec, t, X[0], Xi[0])
    with eigh_dtypes() as seen:
        got = np.concatenate(_grad_lambda_batch(spec, template, 0, t, X, Xi), axis=-1)
        vals, projs, grad, hess = template.modes(t, X, Xi, order=1)
    assert seen == []
    w, want = _complex_rates(spec, t, X, Xi)
    assert np.all(got == want[..., 0])
    assert np.all(vals == w) and np.all(grad[:, 0] == want[:, :d, 0])
    assert np.all(projs == 1) and np.all(hess == 0)


def _pencil(rng, n, double):
    """Real symmetric A_1, A_2 with a symbol whose eigenvalues are well
    apart at xi = (1, 0), except, if ``double``, a pair that meets there."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mu = np.array([-1.0, 1.0, 1.0]) if double else np.linspace(-1.0, 1.0, n)
    return np.stack([q @ np.diag(mu) @ q.T, 0.3 * _hermitian(rng, (), n, real=True)])


@pytest.mark.parametrize("n, double", [(2, False), (3, False), (3, True)])
def test_real_route_matches_complex_route(n, double):
    # the real route's modes(order=2), projector_derivatives (real and
    # complex paths) and rates against the complex route on the same
    # symbols, which an eigh fed a complex copy of the real matrix forces
    rng = np.random.default_rng(17 * n + double)
    base = _pencil(rng, n, double)
    spec = _affine_system(base, 0.1 * _hermitian(rng, (2, 2), n, real=True),
                          np.zeros_like(base))
    t = 0.0
    X = rng.uniform(-0.02, 0.02, (8, 2))
    Xi = np.stack([np.ones(8), rng.uniform(-1e-3, 1e-3, 8)], axis=-1)
    template = ClusterTemplate(spec, t, np.zeros(2), np.array([1.0, 0.0]))
    assert template.mults == ([1, 2] if double else [1] * n)
    ds = rng.standard_normal((8, 2, n, n))
    ds = ds + np.swapaxes(ds, -1, -2)
    dss = rng.standard_normal((8, 2, 2, n, n))
    dss = dss + np.swapaxes(dss, -1, -2)
    paths = [(ds, dss), (ds + 0.3j * ds[:, ::-1], dss - 0.2j * dss)]
    dA = _perturbations(spec, t, X, Xi)
    m = symbol_many(spec, t, X, Xi)

    def run():
        out = list(template.modes(t, X, Xi, order=2))
        for l in range(template.n_modes):
            for path, path2 in paths:
                out += template.projector_derivatives(t, X, Xi, path, l, path2)
        return out + [template.eigenvalue_rates(t, X, Xi, m, dA)]

    with eigh_dtypes() as seen:
        real = run()
    assert set(seen) == {np.dtype(float)}
    eigh = np.linalg.eigh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", lambda a: eigh(a.astype(complex)))
        cplx = run()
    for got, want in zip(real, cplx):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("corner", [1j, 1.0 + 1e-300j])
def test_complex_symbols_keep_the_complex_route(corner):
    # A = [[0, i], [-i, 0]], and a real symbol whose off-diagonal carries
    # 1e-300j: both take the complex eigh and give the complex formula
    a = np.array([[[0.0, corner], [np.conj(corner), 0.0]]])
    spec = _affine_system(a, np.zeros((1, 1, 2, 2), complex), np.zeros_like(a))
    X = np.array([[0.1], [-0.2], [0.0]])
    Xi = np.array([[1.0], [-0.7], [2.5]])
    template = ClusterTemplate(spec, 0.0, X[0], Xi[0])
    with eigh_dtypes() as seen:
        dxi = np.stack([_grad_lambda_batch(spec, template, l, 0.0, X, Xi)[0][:, 0]
                        for l in range(2)], axis=-1)
        vals = template.modes(0.0, X, Xi)[0]
    assert seen == [np.dtype(complex)] * 3
    w, want = _complex_rates(spec, 0.0, X, Xi)
    assert np.array_equal(vals, w) and np.array_equal(dxi, want[:, 0])
    # the eigenvalues are -|xi|, |xi|, so d_xi lambda = -+sign(xi)
    np.testing.assert_allclose(dxi, np.sign(Xi) * [-1.0, 1.0], rtol=0, atol=1e-15)
