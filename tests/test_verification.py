import numpy as np
import pytest

from cgoptics.beams import BeamParams, build_beam
from cgoptics.errors import (
    CFLViolationError,
    ConfigError,
    DegenerateFitError,
    GridMismatchError,
    NumericsError,
    ResolutionError,
)
from cgoptics.fields import eval_initial_data
from cgoptics.rays import InitialData
from cgoptics.systems import builtin_system
from cgoptics.verification import (
    energy_growth_check,
    l2_error_curve,
    rate_fit,
    reference_solve,
    residual_sup,
)

from test_rays import gaussian_point_component, wave2x2_component


@pytest.fixture(scope="module")
def advection_beam():
    spec = builtin_system("advection")
    comp = gaussian_point_component()
    beam = build_beam(spec, comp, BeamParams(dt=2.5e-4, chart_radius=3.8))
    return spec, comp, beam


def test_residual_exact_construction(advection_beam):
    spec, comp, beam = advection_beam
    for eps in (0.1, 0.05, 0.025, 0.0125):
        assert residual_sup(spec, [beam], [eps])[0] <= 1e-8


def test_residual_variable_advection_finite_and_decaying():
    spec = builtin_system("variable_advection")
    comp = gaussian_point_component()
    beam = build_beam(spec, comp, BeamParams(dt=2.5e-4, chart_radius=3.5))
    vals = residual_sup(spec, [beam], [0.1, 0.05, 0.025, 0.0125])
    assert all(np.isfinite(vals))
    assert vals[0] > 1e-4  # genuinely nonzero
    fit = rate_fit([0.1, 0.05, 0.025, 0.0125], vals)
    assert fit.slope >= 0.45
    assert fit.stderr <= 0.1


def _advection_reference(eps, T, dx_factor=40):
    spec = builtin_system("advection")
    comp = gaussian_point_component()
    initial = InitialData(components=(comp,))
    lo, hi = -6.5, 6.5
    dx = eps / dx_factor
    n = int(np.ceil((hi - lo) / dx)) + 1
    x = np.linspace(lo, hi, n)
    h = eval_initial_data(initial, eps, (x,))
    times = [0.0, T / 2, T]
    ref = reference_solve(spec, x, h.values, T, times, eps=eps, dpsi_max=8.0)
    return spec, comp, initial, x, h, times, ref


def test_reference_advection_matches_translation():
    eps = 0.05
    T = 0.04
    spec, comp, initial, x, h, times, ref = _advection_reference(eps, T)

    def exact(t):
        dx = x - t
        psi = dx + 0.5j * dx**2
        return np.exp(1j * psi / eps)[:, None]

    err = max(
        float(np.max(np.abs(ref.values[i] - exact(t))))
        for i, t in enumerate(times)
    )
    assert err <= 1e-4


def test_reference_wave2x2_mover_split():
    # polarized right-mover data stays in the plus eigenspace exactly
    spec = builtin_system("wave2x2")
    comp = wave2x2_component()
    initial = InitialData(components=(comp,))
    eps = 0.05
    x = np.linspace(-6.5, 6.5, int(13.0 / (eps / 40)) + 1)
    h = eval_initial_data(initial, eps, (x,))
    ref = reference_solve(spec, x, h.values, 0.3, [0.3], eps=eps, dpsi_max=8.0)
    u = ref.values[0]
    plus = 0.5 * np.array([[1, 1], [1, 1]])
    proj = u @ plus.T
    energy = np.sum(np.abs(u) ** 2)
    frac = np.sum(np.abs(proj) ** 2) / energy
    assert frac == pytest.approx(1.0, abs=1e-6)


def test_reference_self_convergence_second_order():
    eps = 0.1
    T = 0.2
    spec, comp, initial, x, h, times, ref = _advection_reference(eps, T, dx_factor=20)

    def exact(t):
        dx_ = x - t
        return np.exp(1j * (dx_ + 0.5j * dx_**2) / eps)[:, None]

    err1 = float(np.max(np.abs(ref.values[-1] - exact(T))))
    x2 = np.linspace(x[0], x[-1], 2 * x.size - 1)
    h2 = eval_initial_data(initial, eps, (x2,))
    ref2 = reference_solve(spec, x2, h2.values, T, times)

    def exact2(t):
        dx_ = x2 - t
        return np.exp(1j * (dx_ + 0.5j * dx_**2) / eps)[:, None]

    err2 = float(np.max(np.abs(ref2.values[-1] - exact2(T))))
    order = np.log2(err1 / err2)
    assert 1.8 <= order <= 2.2


def test_reference_resolution_guard():
    spec = builtin_system("advection")
    x = np.linspace(-1, 1, 41)
    u0 = np.ones((41, 1), dtype=complex)
    with pytest.raises(ResolutionError):
        reference_solve(spec, x, u0, 0.1, [0.1], eps=0.01, dpsi_max=1.0)


def test_energy_inequality_variable_advection():
    spec = builtin_system("variable_advection")
    comp = gaussian_point_component()
    initial = InitialData(components=(comp,))
    eps = 0.05
    dx = eps / 40
    lo = -6.5
    hi = 6.5
    x = np.linspace(lo, hi, int((hi - lo) / dx) + 1)
    h = eval_initial_data(initial, eps, (x,))
    times = [0.0, 0.125, 0.25, 0.375, 0.5]
    ref = reference_solve(spec, x, h.values, 0.5, times, eps=eps, dpsi_max=8.0)
    report = energy_growth_check(spec, ref, spec.domain)
    assert report["max_ratio"] <= 1.05
    assert report["K"] == pytest.approx(0.3, abs=1e-6)


def test_l2_error_curve_basics():
    spec = builtin_system("advection")
    x = np.linspace(-5.0, 5.0, 2001)
    u = [np.ones((x.size, 1), dtype=complex)]
    v = [np.ones((x.size, 1), dtype=complex)]
    errs = l2_error_curve(x, u, v, [0.0], spec.domain)
    assert errs[0] == 0.0
    delta = 0.01
    v2 = [u[0] + delta]
    errs2 = l2_error_curve(x, u, v2, [0.2], spec.domain)
    length = 2 * spec.domain.cross_section_radius(0.2)
    # node masking quantizes the boundary to one grid cell
    assert errs2[0] == pytest.approx(delta * np.sqrt(length), rel=1e-3)
    with pytest.raises(GridMismatchError):
        l2_error_curve(x, u, [np.ones((5, 1))], [0.0], spec.domain)


def test_rate_fit_synthetic_powers():
    eps = [0.1, 0.05, 0.025, 0.0125]
    errs = [3.0 * np.sqrt(e) for e in eps]
    fit = rate_fit(eps, errs)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.stderr <= 1e-12
    errs_lin = [2.0 * e for e in eps]
    fit2 = rate_fit(eps, errs_lin)
    assert fit2.slope == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_guards():
    with pytest.raises(DegenerateFitError):
        rate_fit([0.1, 0.05, 0.025, 0.0125], [1e-3, 1e-3, 1e-16, 1e-3])
    with pytest.raises(ConfigError):
        rate_fit([0.1, 0.05, 0.025], [1, 1, 1])
    with pytest.raises(ConfigError):
        rate_fit([0.1, 0.2, 0.05, 0.025], [1, 1, 1, 1])


def test_residual_cutoff_region_superdecay(advection_beam):
    # contributions supported where the cutoff varies decay faster than any
    # tested power of eps (the imaginary phase is bounded below there)
    spec = builtin_system("variable_advection")
    comp = gaussian_point_component()
    beam = build_beam(spec, comp, BeamParams(dt=2.5e-4, chart_radius=3.5))
    from cgoptics.verification import residual_samples

    eps_list = [0.1, 0.05, 0.025, 0.0125]
    vals = []
    # sample only the cutoff variation ring: |s| in [radius/2, radius]
    for samples in residual_samples(spec, beam, eps_list, n_t_samples=5, n_s=80,
                                    margin=1.0):
        vals.append(float(np.max(samples[np.isfinite(samples)])))
    # full-tube residual is O(sqrt(eps)); now isolate the ring by comparing
    # a ring-only evaluation through the cutoff weight
    bundle = beam.bundle
    k = bundle.n_t // 2
    ring = np.linspace(0.55 * beam.cutoff.radius, 0.95 * beam.cutoff.radius, 40)
    ring_vals = []
    for eps in eps_list:
        X = bundle.chart_points(k, 0, ring[:, None])
        phi = beam.evaluate(k, X).full("phi")
        gp = beam.evaluate(k + 1, X).g(eps)
        gm = beam.evaluate(k - 1, X).g(eps)
        dtg = (gp - gm) / (2 * bundle.dt)
        ring_vals.append(float(np.max(np.abs(dtg) * np.exp(-phi.imag / eps)[:, None])))
    # each eps halving shrinks the ring contribution by far more than 2^3;
    # values that underflow the exact floor count as (super)decayed
    for prev, nxt in zip(ring_vals, ring_vals[1:]):
        assert nxt <= max(prev * 0.125, 1e-14)


@pytest.mark.parametrize("cfl", [0.0, -0.5, 1.5, 5.0, float("nan")])
def test_reference_rejects_unstable_cfl(cfl):
    spec = builtin_system("advection")
    x = np.linspace(-1, 1, 201)
    u0 = np.ones((201, 1), dtype=complex)
    with pytest.raises(CFLViolationError, match="cfl"):
        reference_solve(spec, x, u0, 0.1, [0.1], cfl=cfl)


def test_reference_non_finite_state_names_output_time():
    spec = builtin_system("advection")
    x = np.linspace(-1, 1, 201)
    u0 = np.ones((201, 1), dtype=complex)
    u0[100] = np.nan
    with pytest.raises(NumericsError, match="t = 0.05"):
        reference_solve(spec, x, u0, 0.1, [0.0, 0.05, 0.1])
