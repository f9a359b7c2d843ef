import numpy as np
import pytest

from cgoptics.extension import (
    ComplexCovector,
    eikonal_defect,
    extended_modes,
    mode_separation,
    taylor_extend,
)
from cgoptics.numerics import loglog_fit
from cgoptics.phase import build_phase_jet, eval_phase
from cgoptics.rays import evolve_frame, flow_out
from cgoptics.systems import builtin_system, eigen_decompose, load_system

from test_rays import (
    acoustics_line_component,
    gaussian_point_component,
    wave2x2_component,
)


def test_extend_scalar_real_restriction():
    rng = np.random.default_rng(0)
    g = rng.standard_normal(3)
    h = rng.standard_normal((3, 3))
    h = h + h.T
    assert complex(taylor_extend([1.7, g, h], np.zeros(3), order=2)) == pytest.approx(1.7)


def test_extend_scalar_linear_symbol_exact():
    # advection: lambda = c xi is linear, so the extension is c (xi + i eta)
    c = 1.0
    for eta in (0.3, -0.7, 2.0):
        val = complex(
            taylor_extend([c * 2.0, np.array([c]), np.zeros((1, 1))], np.array([eta]), order=2)
        )
        assert val == pytest.approx(c * (2.0 + 1j * eta))


def test_extend_scalar_norm_symbol_arithmetic():
    # f = |xi| in 2D at xi = (1, 0): grad = (1, 0), hess = diag(0, 1)
    grad = np.array([1.0, 0.0])
    hess = np.array([[0.0, 0.0], [0.0, 1.0]])
    # eta = (0.1, 0.1): 1 + 0.1i - 0.5*0.01 = 0.995 + 0.1i
    val = complex(taylor_extend([1.0, grad, hess], np.array([0.1, 0.1]), order=2))
    assert val == pytest.approx(0.995 + 0.1j, abs=1e-15)
    # eta = (0, 0.1): no gradient contribution
    val = complex(taylor_extend([1.0, grad, hess], np.array([0.0, 0.1]), order=2))
    assert val == pytest.approx(0.995 + 0.0j, abs=1e-15)


def test_extended_mode_real_restriction_bit_identical():
    spec = builtin_system("acoustics3")
    dec = eigen_decompose(spec, 0.0, [0.1, -0.2], [0.8, 0.5], order=2)
    zeta = ComplexCovector(xi=[[0.8, 0.5]], eta=[[0.0, 0.0]])
    mods = extended_modes(spec, 0.0, [[0.1, -0.2]], zeta)
    for l in range(3):
        ext = mods[l]
        assert ext.eigenvalue[0] == dec.modes[l].eigenvalue + 0j
        assert np.array_equal(ext.projector[0], dec.modes[l].projector.astype(complex))


def test_extended_projectors_resolve_identity_exactly():
    spec = builtin_system("acoustics3")
    rng = np.random.default_rng(4)
    for _ in range(10):
        xi = rng.standard_normal(2)
        xi /= np.linalg.norm(xi)
        eta = rng.standard_normal(2)  # arbitrary size: identity is exact
        zeta = ComplexCovector(xi=[xi], eta=[eta])
        mods = extended_modes(spec, 0.0, [[0.0, 0.0]], zeta)
        total = sum(m.projector[0] for m in mods)
        np.testing.assert_allclose(total, np.eye(3), atol=5e-14)


def test_extended_modes_batch_matches_pointwise():
    spec = builtin_system("acoustics3")
    rng = np.random.default_rng(9)
    X = rng.uniform(-0.5, 0.5, (6, 2))
    zeta = ComplexCovector(xi=rng.standard_normal((6, 2)), eta=0.3 * rng.standard_normal((6, 2)))
    t = np.linspace(0.0, 0.5, 6)
    batch = extended_modes(spec, t, X, zeta)
    for p in range(6):
        one = slice(p, p + 1)
        single = extended_modes(
            spec, t[p], X[one], ComplexCovector(xi=zeta.xi[one], eta=zeta.eta[one])
        )
        for mb, ms in zip(batch, single):
            assert mb.eigenvalue[p] == pytest.approx(ms.eigenvalue[0], abs=1e-13)
            np.testing.assert_allclose(mb.projector[p], ms.projector[0], atol=1e-13)


def test_extended_modes_rejects_unbatched_points():
    spec = builtin_system("acoustics3")
    zeta = ComplexCovector(xi=[0.8, 0.5], eta=[0.0, 0.0])
    with pytest.raises(ValueError, match=r"\(m, d\) batches"):
        extended_modes(spec, 0.0, [0.1, -0.2], zeta)


def _remainder_slope(norms, etas):
    slope, _, _ = loglog_fit(etas, norms)
    return slope


def test_extended_projector_idempotence_third_order():
    spec = builtin_system("acoustics3")
    xi = np.array([1.0, 0.0])
    etas = np.logspace(-3, -1, 6)
    direction = np.array([0.6, 0.8])
    norms = []
    for m in etas:
        zeta = ComplexCovector(xi=[xi], eta=[m * direction])
        mods = extended_modes(spec, 0.0, [[0.0, 0.0]], zeta)
        worst = 0.0
        for a in range(3):
            for b in range(3):
                prod = mods[a].projector @ mods[b].projector
                target = mods[a].projector if a == b else 0.0
                worst = max(worst, float(np.max(np.abs(prod - target))))
        norms.append(worst)
    assert _remainder_slope(norms, etas) >= 2.8


def test_extended_eigen_relation_third_order():
    # Atilde pitilde_l - lamtilde_l pitilde_l = O(|eta|^3)
    spec = builtin_system("acoustics3")
    xi = np.array([0.6, 0.8])
    etas = np.logspace(-3, -1, 6)
    direction = np.array([-0.8, 0.6])
    norms = []
    for m in etas:
        # the symbol is linear in the covector: its extension is sum_j A_j zeta_j
        zeta_c = xi + 1j * m * direction
        asym = sum(spec.coeff_A(0.0, np.array([0.2, 0.1]), j) * zeta_c[j] for j in range(spec.d))
        zeta = ComplexCovector(xi=[xi], eta=[m * direction])
        mods = extended_modes(spec, 0.0, [[0.2, 0.1]], zeta)
        worst = 0.0
        for mod in mods:
            res = asym @ mod.projector - mod.eigenvalue * mod.projector
            worst = max(worst, float(np.max(np.abs(res))))
        norms.append(worst)
    assert _remainder_slope(norms, etas) >= 2.8


def _random_matrix_symbol(rng, d, n, n_terms=3):
    """Random smooth matrix symbol with analytic jets: sum of k-linear terms."""
    coeffs = rng.standard_normal((n_terms, d, n, n)) / 3.0
    freqs = rng.uniform(0.5, 1.5, (n_terms, d))

    def jets(xi):
        val = np.zeros((n, n))
        grad = np.zeros((d, n, n))
        hess = np.zeros((d, d, n, n))
        for c, f in zip(coeffs, freqs):
            phase = np.dot(f, xi)
            base = sum(c[j] * xi[j] for j in range(d))
            val = val + np.sin(phase) * base
            for a in range(d):
                grad[a] += f[a] * np.cos(phase) * base + np.sin(phase) * c[a]
                for b in range(d):
                    hess[a, b] += (
                        -f[a] * f[b] * np.sin(phase) * base
                        + f[a] * np.cos(phase) * c[b]
                        + f[b] * np.cos(phase) * c[a]
                    )
        return val, grad, hess

    return jets


@pytest.mark.parametrize("order,min_slope", [(1, 1.8), (2, 2.8)])
def test_product_extension_remainder_order(order, min_slope):
    # extension of a product vs product of extensions: O(|eta|^{n+1})
    rng = np.random.default_rng(99)
    d, n = 2, 3
    f1 = _random_matrix_symbol(rng, d, n)
    f2 = _random_matrix_symbol(rng, d, n)
    xi = np.array([0.9, -0.3])
    v1, g1, h1 = f1(xi)
    v2, g2, h2 = f2(xi)
    # Leibniz jets of the (non-commutative) product
    v3 = v1 @ v2
    g3 = np.einsum("aij,jk->aik", g1, v2) + np.einsum("ij,ajk->aik", v1, g2)
    h3 = (
        np.einsum("abij,jk->abik", h1, v2)
        + np.einsum("aij,bjk->abik", g1, g2)
        + np.einsum("bij,ajk->abik", g1, g2)
        + np.einsum("ij,abjk->abik", v1, h2)
    )
    direction = np.array([0.28, -0.96])
    etas = np.logspace(-3, -0.5, 7)
    norms = []
    for m in etas:
        eta = m * direction
        e1 = taylor_extend([v1, g1, h1], eta, order=order)
        e2 = taylor_extend([v2, g2, h2], eta, order=order)
        e3 = taylor_extend([v3, g3, h3], eta, order=order)
        norms.append(float(np.max(np.abs(e1 @ e2 - e3))))
    assert _remainder_slope(norms, etas) >= min_slope


def test_extended_algebra_random_hermitian_systems():
    # resolution exact; idempotence and eigen-relation remainders O(|eta|^3)
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 3))
        mats = []
        for _ in range(d):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mats.append((0.5 * (g + g.conj().T)).tolist())
        spec = load_system(
            {
                "name": f"rand{trial}",
                "d": d,
                "N": n,
                "A": mats,
                "domain": {
                    "center": [0.0] * d,
                    "radius": 2.0,
                    "final_time": 0.1,
                    "speed": 10.0,
                },
            }
        )
        xi = rng.standard_normal(d)
        xi /= np.linalg.norm(xi)
        try:
            eigen_decompose(spec, 0.0, np.zeros(d), xi, order=2)
        except Exception:
            continue  # rare near-degenerate draw
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        etas = np.logspace(-3, -1, 5)
        worst_resolution = 0.0
        norms = []
        for m in etas:
            zeta = ComplexCovector(xi=[xi], eta=[m * direction])
            mods = extended_modes(spec, 0.0, np.zeros((1, d)), zeta)
            total = sum(mod.projector for mod in mods)
            worst_resolution = max(
                worst_resolution, float(np.max(np.abs(total - np.eye(n))))
            )
            worst = 0.0
            for a in range(len(mods)):
                for b in range(len(mods)):
                    prod = mods[a].projector @ mods[b].projector
                    target = mods[a].projector if a == b else 0.0
                    worst = max(worst, float(np.max(np.abs(prod - target))))
            norms.append(worst)
        assert worst_resolution <= 1e-12
        if min(norms) > 1e-12:  # slope fit meaningless at rounding floor
            assert _remainder_slope(norms, etas) >= 2.8


def test_eikonal_defect_plane_wave_zero():
    spec = builtin_system("advection")
    # exact plane wave phi = xi x - lambda(xi) t
    xi = 2.0
    defect = eikonal_defect(
        spec, 0, dt_phi=-xi, dx_phi=np.array([xi + 0j]), t=0.2, x=[0.1]
    )
    assert abs(defect) <= 1e-14


def test_eikonal_defect_advection_gaussian_zero():
    spec = builtin_system("advection")
    # phi = (x - t) + i (x - t)^2 / 2: D = dtphi + c dxphi = 0 identically
    for t, x in [(0.0, 0.3), (0.4, -0.2), (0.2, 1.5)]:
        u = x - t
        dx_phi = np.array([1.0 + 1j * u])
        dt_phi = -(1.0 + 1j * u)
        defect = eikonal_defect(spec, 0, dt_phi, dx_phi, t, [x])
        assert abs(defect) <= 1e-14


@pytest.fixture(scope="module")
def acoustics_beam():
    spec = builtin_system("acoustics3")
    comp = acoustics_line_component()
    bundle = flow_out(spec, comp, T=1.0, dt=1e-3)
    evolve_frame(bundle)
    bundle.chart_radius = 0.4
    jet = build_phase_jet(spec, 2, bundle, comp)
    return spec, bundle, jet


def test_eikonal_defect_beam_cubic_order(acoustics_beam):
    spec, bundle, jet = acoustics_beam
    k = bundle.n_t // 2
    i = bundle.n_r // 2
    t = bundle.t[k]
    svals = np.logspace(-1.7, -0.7, 6)
    defects = []
    for sv in svals:
        X = bundle.chart_points(k, i, np.array([[sv]]))
        pv = eval_phase(jet, bundle, t, X)
        assert pv.inside[0]
        d = eikonal_defect(spec, 2, pv.dt[0], pv.dx[0], t, X[0])
        defects.append(abs(d))
    slope, _, _ = loglog_fit(svals, defects)
    assert slope >= 2.8


def test_mode_separation_advection_empty():
    spec = builtin_system("advection")
    bundle = flow_out(spec, gaussian_point_component(), T=0.4, dt=1e-3)
    evolve_frame(bundle)
    bundle.chart_radius = 3.0
    jet = build_phase_jet(spec, 0, bundle, gaussian_point_component())
    assert mode_separation(spec, bundle, jet, 0) == {}


def test_mode_separation_wave2x2():
    spec = builtin_system("wave2x2")
    comp = wave2x2_component(mode=1)
    bundle = flow_out(spec, comp, T=0.5, dt=1e-3)
    evolve_frame(bundle)
    bundle.chart_radius = 3.0
    jet = build_phase_jet(spec, 1, bundle, comp)
    bounds = mode_separation(spec, bundle, jet, 1, s_radius=0.1)
    assert set(bounds) == {0}
    assert bounds[0].bound >= 1.9


def test_mode_separation_acoustics(acoustics_beam):
    spec, bundle, jet = acoustics_beam
    bounds = mode_separation(spec, bundle, jet, 2, s_radius=0.1, t_stride=200)
    assert set(bounds) == {0, 1}
    # static mode lambda = 0: |dt phi| stays near 1
    assert bounds[1].bound >= 0.9
    # opposite acoustic branch: separation about 2
    assert bounds[0].bound >= 1.8
