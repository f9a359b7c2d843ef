import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cgoptics.errors import ConfigError, GapCollapseError, NonHermitianError
from cgoptics.systems import (
    ClusterTemplate,
    builtin_system,
    check_assumptions,
    eigen_decompose,
    load_system,
    symbol_many,
)

from oracles import assert_exact_derivatives, contour_projector

RNG = np.random.default_rng(20240811)

BUILTINS = ["advection", "wave2x2", "acoustics3", "variable_advection"]


def sample_point(spec, rng):
    t = rng.uniform(0.0, spec.domain.final_time)
    rad = spec.domain.cross_section_radius(t)
    x = spec.domain.center + rng.uniform(-0.5, 0.5, spec.d) * rad
    xi = rng.standard_normal(spec.d)
    while np.linalg.norm(xi) < 0.3:
        xi = rng.standard_normal(spec.d)
    return t, x, xi


def test_coeff_d2xA_variable_advection_is_the_derivative_of_coeff_dxA():
    spec = builtin_system("variable_advection")
    x = np.linspace(-2.0, 2.0, 9)[:, None]
    h = 1e-4
    fd = (spec.coeff_dxA(0.1, x + h, 0, 0) - spec.coeff_dxA(0.1, x - h, 0, 0)) / (2 * h)
    exact = spec.coeff_d2xA(0.1, x, 0, 0, 0)
    assert exact.shape == (9, 1, 1)
    np.testing.assert_allclose(exact[:, 0, 0], -0.3 * np.sin(x[:, 0]), rtol=0, atol=1e-15)
    assert np.max(np.abs(exact - fd)) <= 1e-9


def test_coeff_d2xA_zero_for_constant_systems():
    table = load_system({
        "name": "table", "d": 2, "N": 2,
        "A": [[[1, 0], [0, -1]], [[0, 1], [1, 0]]],
        "domain": {"center": [0, 0], "radius": 2, "final_time": 0.5, "speed": 1},
    })
    x = RNG.uniform(-0.5, 0.5, (4, 3, 2))
    for spec in [builtin_system(n) for n in ("advection", "wave2x2", "acoustics3")] + [table]:
        x_d = x[..., : spec.d]
        for j in range(spec.d):
            for k in range(spec.d):
                for l in range(spec.d):
                    d2a = np.asarray(spec.coeff_d2xA(0.2, x_d, j, k, l))
                    assert d2a.shape == (4, 3, spec.N, spec.N)
                    assert not d2a.any()


def test_exact_derivatives_of_builtins_and_tables():
    table = load_system({
        "name": "table", "d": 2, "N": 2,
        "A": [[[1, 0], [0, -1]], [[0, 1], [1, 0]]],
        "domain": {"center": [0, 0], "radius": 2, "final_time": 0.5, "speed": 1},
    })
    for spec in [builtin_system(n) for n in BUILTINS] + [table]:
        X = spec.domain.center + RNG.uniform(-1.0, 1.0, (7, spec.d))
        assert_exact_derivatives(spec, X)


def test_eval_symbol_advection_scalar():
    spec = builtin_system("advection")
    m = symbol_many(spec, 0.0, [0.0], [2.0])
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(2.0)


def test_eval_symbol_wave2x2_scaling():
    spec = builtin_system("wave2x2")
    m = symbol_many(spec, 0.1, [0.2], [3.0])
    np.testing.assert_allclose(m, [[0, 3], [3, 0]], atol=1e-14)


def test_eval_symbol_acoustics3_unit_direction():
    spec = builtin_system("acoustics3")
    m = symbol_many(spec, 0.0, [0.0, 0.0], [1.0, 0.0])
    expected = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    np.testing.assert_allclose(m, expected, atol=1e-14)


def test_eigen_wave2x2_modes():
    spec = builtin_system("wave2x2")
    dec = eigen_decompose(spec, 0.0, [0.0], [1.0])
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)
    plus = 0.5 * np.array([[1, 1], [1, 1]])
    minus = 0.5 * np.array([[1, -1], [-1, 1]])
    np.testing.assert_allclose(dec.modes[1].projector, plus, atol=1e-12)
    np.testing.assert_allclose(dec.modes[0].projector, minus, atol=1e-12)


def test_eigen_acoustics3_modes_and_hessian():
    spec = builtin_system("acoustics3")
    dec = eigen_decompose(spec, 0.0, [0.0, 0.0], [0.0, 1.0], order=2)
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-12)
    # analytic transverse Hessian of |xi|: (I - unit unit^T)/|xi|
    np.testing.assert_allclose(
        dec.modes[2].hessian, [[1.0, 0.0], [0.0, 0.0]], atol=1e-6
    )
    np.testing.assert_allclose(dec.modes[2].grad, [0.0, 1.0], atol=1e-12)


def _random_hermitian_pencil(rng, n, d):
    mats = []
    for _ in range(d):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(0.5 * (g + g.conj().T))
    return mats


def test_eigen_derivatives_match_fd_oracle():
    # random 4x4 Hermitian pencil in d=2; oracle: brute-force differences of
    # the sorted eigenvalues themselves.
    n, d = 4, 2
    rng = np.random.default_rng(7)
    mats = _random_hermitian_pencil(rng, n, d)
    spec = load_system(
        {
            "name": "pencil4",
            "d": d,
            "N": n,
            "A": [m.tolist() for m in mats],
            "domain": {"center": [0, 0], "radius": 2, "final_time": 0.1, "speed": 10},
        }
    )
    # complexify: load_system keeps complex values
    xi = np.array([0.9, -0.4])
    dec = eigen_decompose(spec, 0.0, [0.0, 0.0], xi, order=2)

    def lam(xi2):
        m = sum(mats[j] * xi2[j] for j in range(d))
        return np.linalg.eigvalsh(m)

    h = 1e-5
    for l, mode in enumerate(dec.modes):
        for j in range(d):
            ej = np.zeros(d)
            ej[j] = h
            fd = (lam(xi + ej)[l] - lam(xi - ej)[l]) / (2 * h)
            assert mode.grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)
        for j in range(d):
            for k in range(d):
                ej = np.zeros(d)
                ej[j] = 1.0
                ek = np.zeros(d)
                ek[k] = 1.0
                hh = 1e-3
                fd2 = (
                    lam(xi + hh * (ej + ek))[l]
                    - lam(xi + hh * (ej - ek))[l]
                    - lam(xi + hh * (ek - ej))[l]
                    + lam(xi - hh * (ej + ek))[l]
                ) / (4 * hh * hh)
                assert mode.hessian[j, k] == pytest.approx(fd2, rel=1e-4, abs=1e-5)


@pytest.mark.parametrize("name", BUILTINS)
def test_projector_algebra_random_points(name):
    spec = builtin_system(name)
    rng = np.random.default_rng(hash(name) % 2**32)
    eye = np.eye(spec.N)
    for _ in range(200):
        t, x, xi = sample_point(spec, rng)
        dec = eigen_decompose(spec, t, x, xi)
        total = sum(m.projector for m in dec.modes)
        np.testing.assert_allclose(total, eye, atol=1e-10)
        recon = sum(m.eigenvalue * m.projector for m in dec.modes)
        np.testing.assert_allclose(recon, symbol_many(spec, t, x, xi), atol=1e-9)
        for i, mi in enumerate(dec.modes):
            for j, mj in enumerate(dec.modes):
                prod = mi.projector @ mj.projector
                target = mi.projector if i == j else np.zeros_like(prod)
                np.testing.assert_allclose(prod, target, atol=1e-9)


@pytest.mark.parametrize("name", BUILTINS)
def test_homogeneity(name):
    spec = builtin_system(name)
    rng = np.random.default_rng(abs(hash(name + "h")) % 2**32)
    for _ in range(20):
        t, x, xi = sample_point(spec, rng)
        dec1 = eigen_decompose(spec, t, x, xi)
        dec3 = eigen_decompose(spec, t, x, 3.0 * xi)
        np.testing.assert_allclose(dec3.eigenvalues, 3.0 * dec1.eigenvalues, atol=1e-9)
        for m1, m3 in zip(dec1.modes, dec3.modes):
            np.testing.assert_allclose(m3.projector, m1.projector, atol=1e-9)


@pytest.mark.parametrize("name", BUILTINS)
def test_euler_identity(name):
    spec = builtin_system(name)
    rng = np.random.default_rng(abs(hash(name + "e")) % 2**32)
    for _ in range(20):
        t, x, xi = sample_point(spec, rng)
        dec = eigen_decompose(spec, t, x, xi, order=1)
        for m in dec.modes:
            assert np.dot(xi, m.grad) == pytest.approx(m.eigenvalue, abs=1e-8)


def test_contour_projector_wave2x2():
    spec = builtin_system("wave2x2")
    p = contour_projector(spec, 0.0, [0.0], [1.0], l=1)
    np.testing.assert_allclose(p, 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-10)


def test_contour_projector_acoustics_static_mode():
    spec = builtin_system("acoustics3")
    p = contour_projector(spec, 0.0, [0.0, 0.0], [1.0, 0.0], l=1)
    dec = eigen_decompose(spec, 0.0, [0.0, 0.0], [1.0, 0.0])
    np.testing.assert_allclose(p, dec.modes[1].projector, atol=1e-8)
    np.testing.assert_allclose(
        p, np.array([[0, 0, 0], [0, 0, 0], [0, 0, 1]], dtype=complex), atol=1e-8
    )


def test_contour_projector_quadrature_self_convergence():
    rng = np.random.default_rng(12)
    mats = _random_hermitian_pencil(rng, 3, 1)
    spec = load_system(
        {
            "name": "pencil3",
            "d": 1,
            "N": 3,
            "A": [mats[0].tolist()],
            "domain": {"center": [0], "radius": 2, "final_time": 0.1, "speed": 10},
        }
    )
    p16 = contour_projector(spec, 0.0, [0.0], [1.0], l=0, n_quad=16)
    p64 = contour_projector(spec, 0.0, [0.0], [1.0], l=0, n_quad=64)
    assert np.max(np.abs(p16 - p64)) <= 1e-10


@pytest.mark.parametrize("name", BUILTINS)
def test_contour_matches_eigen_projector(name):
    spec = builtin_system(name)
    rng = np.random.default_rng(abs(hash(name + "c")) % 2**32)
    for _ in range(50):
        t, x, xi = sample_point(spec, rng)
        dec = eigen_decompose(spec, t, x, xi)
        l = rng.integers(0, dec.n_modes)
        p = contour_projector(spec, t, x, xi, l=int(l))
        np.testing.assert_allclose(p, dec.modes[l].projector, atol=1e-8)


def test_check_assumptions_pass_builtins():
    for name in BUILTINS:
        report = check_assumptions(builtin_system(name))
        assert report.passed, f"{name}: {report.to_dict()}"
    acoustics = check_assumptions(builtin_system("acoustics3"))
    assert acoustics.min_spectral_gap == pytest.approx(1.0, abs=1e-9)


def test_check_assumptions_flags_non_hermitian():
    spec = load_system(
        {
            "name": "broken",
            "d": 1,
            "N": 2,
            "A": [[[0, 1], [0, 0]]],
            "domain": {"center": [0], "radius": 2, "final_time": 0.5, "speed": 2},
        }
    )
    report = check_assumptions(spec)
    assert not report.hermitian_ok
    assert not report.passed


def test_cluster_template_batches_match_pointwise():
    spec = builtin_system("acoustics3")
    template = ClusterTemplate(spec, 0.0, [0.0, 0.0], [1.0, 0.0])
    rng = np.random.default_rng(3)
    X = rng.uniform(-0.5, 0.5, (10, 2))
    Xi = rng.standard_normal((10, 2))
    Xi /= np.linalg.norm(Xi, axis=-1, keepdims=True)
    vals, projs = template.modes(0.0, X, Xi)
    for i in range(10):
        dec = eigen_decompose(spec, 0.0, X[i], Xi[i])
        np.testing.assert_allclose(vals[i], dec.eigenvalues, atol=1e-12)
        for l in range(3):
            np.testing.assert_allclose(projs[i, l], dec.modes[l].projector, atol=1e-10)


def test_domain_validation():
    with pytest.raises(ConfigError):
        builtin_system("advection", final_time=10.0)
    with pytest.raises(ConfigError):
        load_system({"d": 1, "N": 1})


def _pencil_system(mats, name="pencil"):
    d = len(mats)
    return load_system(
        {
            "name": name,
            "d": d,
            "N": mats[0].shape[0],
            "A": [np.asarray(m).tolist() for m in mats],
            "domain": {"center": [0.0] * d, "radius": 2.0, "final_time": 0.1, "speed": 10.0},
        }
    )


@st.composite
def hermitian_pencils(draw):
    """Random constant Hermitian systems (N in 2..4, d in 1..3), plus
    kron(I2, .) systems whose eigenvalues are all double."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        mats = _random_hermitian_pencil(rng, draw(st.integers(2, 4)), d)
    else:
        mats = [np.kron(np.eye(2), m) for m in _random_hermitian_pencil(rng, 2, d)]
    xi = rng.standard_normal(d)
    return mats, xi / np.linalg.norm(xi), rng


def _jets(spec, xi, template=None):
    template = template or ClusterTemplate(spec, 0.0, np.zeros(spec.d), xi)
    return template, template.modes(0.0, np.zeros((1, spec.d)), xi[None, :], order=2)


@settings(max_examples=40, deadline=None)
@given(hermitian_pencils())
def test_kernel_jets_property(case):
    mats, xi, rng = case
    spec = _pencil_system(mats)
    n, d = spec.N, spec.d
    w = np.linalg.eigvalsh(sum(m * x for m, x in zip(mats, xi)))
    template, (vals, projs, grad, hess, dp, d2p) = _jets(spec, xi)
    # well-separated clusters, so that the difference oracle below is sharp
    cluster_vals = vals[0]
    spread = max(1.0, float(np.max(np.abs(w))))
    assume(template.n_modes == 1 or np.min(np.diff(cluster_vals)) > 0.1 * spread)
    if n == 4 and template.n_modes == 2:
        assert template.mults == [2, 2]

    eye = np.eye(n)
    p, dp, d2p = projs[0], dp[0], d2p[0]
    scale1 = max(1.0, float(np.max(np.abs(dp))))
    scale2 = max(1.0, float(np.max(np.abs(d2p))))
    np.testing.assert_allclose(p.sum(axis=0), eye, atol=1e-10)
    for c in range(template.n_modes):
        np.testing.assert_allclose(p[c] @ p[c], p[c], atol=1e-10)
        np.testing.assert_allclose(
            contour_projector(spec, 0.0, np.zeros(d), xi, l=c), p[c], atol=1e-8
        )
    assert np.max(np.abs(dp.sum(axis=0))) <= 1e-12 * scale1
    assert np.max(np.abs(d2p.sum(axis=0))) <= 1e-12 * scale2
    assert np.array_equal(hess, np.swapaxes(hess, -1, -2))

    # second derivatives against a central difference of the first
    h = 1e-6
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        _, plus = _jets(spec, xi + e, template)
        _, minus = _jets(spec, xi - e, template)
        fd_p = (plus[4][0] - minus[4][0]) / (2 * h)
        fd_l = (plus[2][0] - minus[2][0]) / (2 * h)
        assert np.max(np.abs(d2p[:, :, k] - fd_p)) <= 1e-6 * scale2
        assert np.max(np.abs(hess[0][:, :, k] - fd_l)) <= 1e-6 * scale2

    # two eigenvalues forced together at a cluster boundary
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    mu = np.sort(rng.standard_normal(n))
    mu[n // 2] = mu[n // 2 - 1]
    crossing = _pencil_system([mats[0], q @ np.diag(mu) @ q.conj().T])
    boundary = ClusterTemplate(crossing, 0.0, [0.0, 0.0], [1.0, 0.0])
    if boundary.n_modes == n or n // 2 in [s.stop for s in boundary.slices]:
        with pytest.raises(GapCollapseError):
            boundary.modes(0.0, np.zeros((2, 2)), np.eye(2), order=2)

    # a non-Hermitian coefficient fails the symbol check at every order
    broken = [m.copy() for m in mats]
    broken[0][0, -1] += 1e-3
    spec_b = _pencil_system(broken)
    for order in (0, 2):
        with pytest.raises(NonHermitianError):
            ClusterTemplate(spec_b, 0.0, np.zeros(d), xi).modes(
                0.0, np.zeros((1, d)), xi[None, :], order=order
            )
