"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""

import time

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from cgoptics.amplitudes import _transport_generator
from cgoptics.cli import run_sweep
from cgoptics.extension import ComplexCovector, eikonal_defect, extended_modes
from cgoptics.numerics import loglog_fit
from cgoptics.phase import eval_phase
from cgoptics.scenarios import (
    BUNDLED_SCENARIOS,
    build_scenario_beams,
    bundled_scenario,
)
from cgoptics.systems import eigen_decompose, load_system


def record(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# -- shared builds (session scope keeps the suite under the time budgets) ----

@pytest.fixture(scope="module")
def advection_exact_sweep():
    t0 = time.perf_counter()
    result = run_sweep(bundled_scenario("advection_exact"))
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cubic_phase_sweep():
    t0 = time.perf_counter()
    result = run_sweep(bundled_scenario("advection_cubic_phase"))
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def variable_advection_sweep():
    t0 = time.perf_counter()
    result = run_sweep(bundled_scenario("variable_advection"))
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def all_beams():
    out = {}
    for name in BUNDLED_SCENARIOS:
        spec, initial, beams = build_scenario_beams(bundled_scenario(name))
        out[name] = (spec, initial, beams)
    return out


def test_criterion_1_exactness_baseline(advection_exact_sweep):
    result, elapsed = advection_exact_sweep
    ok = (
        max(result.residual_sup) <= 1e-8
        and result.checks.get("l2_vs_reference", False)
        and result.eps == [0.1, 0.05, 0.025, 0.0125]
        and elapsed < 120.0
    )
    record(
        1,
        ok,
        f"advection_exact: sup residual {max(result.residual_sup):.2e} <= 1e-8, "
        f"L2 within 2x reference error, runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_2_initial_mismatch_rate(cubic_phase_sweep):
    result, elapsed = cubic_phase_sweep
    fit = result.fits["mismatch"]
    ok = (
        not fit["exact"]
        and fit["slope"] >= 0.45
        and fit["stderr"] <= 0.1
        and len(result.eps) == 4
        and elapsed < 120.0
    )
    record(
        2,
        ok,
        f"advection_cubic_phase: mismatch slope {fit['slope']:.3f} >= 0.45 "
        f"(stderr {fit['stderr']:.4f} <= 0.1), runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_3_residual_rate(variable_advection_sweep):
    result, elapsed = variable_advection_sweep
    fit = result.fits["residual"]
    ok = (
        not fit["exact"]
        and fit["slope"] >= 0.45
        and fit["stderr"] <= 0.1
        and elapsed < 300.0
    )
    record(
        3,
        ok,
        f"variable_advection: residual slope {fit['slope']:.3f} >= 0.45 "
        f"(stderr {fit['stderr']:.4f} <= 0.1), runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_4_l2_convergence_rate(variable_advection_sweep):
    result, elapsed = variable_advection_sweep
    fit = result.fits["l2"]
    ok = (
        not fit["exact"]
        and fit["slope"] >= 0.45
        and fit["stderr"] <= 0.1
        and elapsed < 600.0
    )
    record(
        4,
        ok,
        f"variable_advection: sup_t L2 error slope {fit['slope']:.3f} >= 0.45 "
        f"(reference dx = eps/40), runtime {elapsed:.1f}s < 600s",
    )


def test_criterion_5_riccati_positivity_and_closed_form(all_beams):
    spec, initial, beams = all_beams["acoustics3_beam"]
    beam = beams[0]
    jet, bundle = beam.jet, beam.bundle
    t = bundle.t
    min_imag = min(
        float(np.min(np.linalg.eigvalsh(jet.curvature[:, i].imag)))
        for i in range(bundle.n_r)
    )
    expected = (t + 1j) / (1.0 + t**2)
    worst = max(
        float(np.max(np.abs(jet.curvature[:, i, 0, 0] - expected)))
        for i in range(bundle.n_r)
    )
    ok = min_imag > 0.0 and worst <= 1e-6
    record(
        5,
        ok,
        f"acoustics3_beam: min eig Im(Phi) = {min_imag:.4f} > 0 on [0,1], "
        f"|Phi - (t+i)/(1+t^2)| <= {worst:.2e} (tol 1e-6)",
    )


def _defect_slope(spec, beam, s_range):
    bundle, jet = beam.bundle, beam.jet
    k = bundle.n_t // 2
    i = bundle.n_r // 2
    t = bundle.t[k]
    svals = np.logspace(np.log10(s_range[0]), np.log10(s_range[1]), 6)
    defects = []
    for sv in svals:
        s = np.zeros((1, bundle.d2))
        s[0, 0] = sv
        X = bundle.chart_points(k, i, s)
        pv = eval_phase(jet, bundle, t, X)
        d = eikonal_defect(spec, beam.mode, pv.dt[0], pv.dx[0], t, X[0])
        defects.append(abs(d))
    slope, _, _ = loglog_fit(svals, defects)
    return slope


def test_criterion_6_eikonal_defect_order(all_beams):
    spec_a, _, beams_a = all_beams["acoustics3_beam"]
    slope_a = _defect_slope(spec_a, beams_a[0], (0.02, 0.2))
    spec_v, _, beams_v = all_beams["variable_advection"]
    slope_v = _defect_slope(spec_v, beams_v[0], (0.03, 0.3))
    ok = slope_a >= 2.8 and slope_v >= 2.8
    record(
        6,
        ok,
        f"eikonal defect slopes: acoustics3_beam {slope_a:.2f}, "
        f"variable_advection {slope_v:.2f} (both >= 2.8)",
    )


def test_criterion_7_extended_projector_algebra():
    rng = np.random.default_rng(2024)
    worst_resolution = 0.0
    slopes = []
    trials = 0
    while trials < 20:
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 3))
        mats = []
        for _ in range(d):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mats.append((0.5 * (g + g.conj().T)).tolist())
        spec = load_system(
            {
                "name": f"accept7_{trials}",
                "d": d,
                "N": n,
                "A": mats,
                "domain": {
                    "center": [0.0] * d,
                    "radius": 2.0,
                    "final_time": 0.5,
                    "speed": 1.0,
                },
            }
        )
        xi = rng.standard_normal(d)
        xi /= np.linalg.norm(xi)
        try:
            dec = eigen_decompose(spec, 0.0, np.zeros(d), xi, order=2)
        except Exception:
            continue
        if dec.gap < 0.05:
            continue  # redraw near-degenerate spectra; the order statement
            # concerns well-separated clusters
        trials += 1
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        etas = np.logspace(-3, -1, 5)
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
        if min(norms) > 1e-12:
            slopes.append(loglog_fit(etas, norms)[0])
    ok = worst_resolution <= 1e-12 and all(s >= 2.8 for s in slopes) and slopes
    record(
        7,
        bool(ok),
        f"extended projectors: resolution exact to {worst_resolution:.1e} "
        f"(machine precision), remainder slopes min {min(slopes):.2f} >= 2.8 "
        f"over {len(slopes)} random systems",
    )


def test_criterion_8_frame_orthonormality(all_beams):
    worst = 0.0
    for name, (spec, initial, beams) in all_beams.items():
        for beam in beams:
            frames = beam.bundle.frames
            d2 = beam.bundle.d2
            gram = np.einsum("krdi,krdj->krij", frames, frames)
            worst = max(worst, float(np.max(np.abs(gram - np.eye(d2)))))
    ok = worst <= 1e-8
    record(8, ok, f"max |E(t) - I| over all bundled scenarios: {worst:.2e} <= 1e-8")


def test_criterion_9_polarization_and_gouy(all_beams):
    pol = max(
        all_beams[name][2][0].diagnostics["polarization_residual"]
        for name in ("wave2x2_beam", "acoustics3_beam")
    )

    spec, initial, beams = all_beams["acoustics3_beam"]
    beam = beams[0]
    bundle = beam.bundle
    i = bundle.n_r // 2
    T = bundle.t[-1]
    measured = float(np.angle(beam.transport.a[-1, i, 0] / beam.transport.a[0, i, 0]))

    # dt/16 oracle for the same generator, with and without the Gouy term
    gouy = beam.transport.gouy
    gen = _transport_generator(spec, beam.mode, bundle, beam.jet, gouy, 0, bundle.n_t - 1)[1]
    eye = np.eye(spec.N)
    gen_nogouy = gen[:, i] + 1j * gouy[:, i, None, None] * eye

    def integrate(gen_path):
        sp = CubicSpline(bundle.t, gen_path, axis=0)
        a = beam.transport.a[0, i].copy()
        h = bundle.dt / 16.0
        tt = bundle.t[0]
        for _ in range((bundle.n_t - 1) * 16):
            k1 = sp(tt) @ a
            k2 = sp(tt + h / 2) @ (a + h / 2 * k1)
            k3 = sp(tt + h / 2) @ (a + h / 2 * k2)
            k4 = sp(tt + h) @ (a + h * k3)
            a = a + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            tt += h
        return a

    oracle = integrate(gen[:, i])
    oracle_err = float(np.linalg.norm(beam.transport.a[-1, i] - oracle))
    transport_phase = float(
        np.angle(integrate(gen_nogouy)[0] / beam.transport.a[0, i, 0])
    )
    gouy_dev = abs(measured - (-0.5 * np.arctan(T) + transport_phase))
    ok = pol <= 1e-6 and gouy_dev <= 1e-4 and oracle_err <= 1e-6
    record(
        9,
        ok,
        f"polarization residual {pol:.2e} <= 1e-6; Gouy phase deviation "
        f"{gouy_dev:.2e} <= 1e-4 (arg a(1) = {measured:.6f} vs -arctan(1)/2 = "
        f"{-0.5 * np.arctan(T):.6f}); dt/16 oracle gap {oracle_err:.2e}",
    )


def test_criterion_10_localization_estimate_bounds():
    rng = np.random.default_rng(77)
    slack = 1e-12

    # pointwise bound: eps^-k |f| e^{-chi/eps} <= (k/e)^k |f| / chi^k
    n = 1000
    f = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2, n)
    chi = 10.0 ** rng.uniform(-2, 0.5, n)
    eps = 10.0 ** rng.uniform(-4, 0, n)
    worst_margin_1 = np.inf
    for k in (1, 2, 3):
        lhs = eps ** (-k) * np.abs(f) * np.exp(-chi / eps)
        rhs = (k / np.e) ** k * np.abs(f) / chi**k
        worst_margin_1 = min(worst_margin_1, float(np.min(rhs * (1 + slack) - lhs)))

    # Taylor-remainder bound with chi >= c s^2:
    # |f - T_{<k} f| e^{-chi/eps} <= eps^{k/2} sup|f^(k)| max_v |v|^k e^{-c v^2}
    s = np.linspace(-1.0, 1.0, 101)
    worst_margin_2 = np.inf
    for _ in range(1000):
        a = rng.standard_normal(4)
        amp = rng.standard_normal()
        om = rng.uniform(0.5, 3.0)
        c = 10.0 ** rng.uniform(-1, 1)
        beta = 10.0 ** rng.uniform(-2, 1)
        eps_i = 10.0 ** rng.uniform(-3, -0.5)

        fval = a[0] + a[1] * s + a[2] * s**2 + a[3] * s**3 + amp * np.sin(om * s)
        chi_s = c * s**2 + beta * s**4
        # sup of |f'| and |f'''| on [-1, 1] by triangle inequality
        d1 = np.abs(a[1]) + 2 * np.abs(a[2]) + 3 * np.abs(a[3]) + np.abs(amp) * om
        d3 = 6 * np.abs(a[3]) + np.abs(amp) * om**3
        taylor = {
            1: a[0],
            3: (a[0] + (a[1] + amp * om) * s + a[2] * s**2),
        }
        sup_deriv = {1: d1, 3: d3}
        for k in (1, 3):
            lhs = np.abs(fval - taylor[k]) * np.exp(-chi_s / eps_i)
            c_alpha = (k / (2 * c * np.e)) ** (k / 2.0)
            rhs = eps_i ** (k / 2.0) * sup_deriv[k] * c_alpha
            worst_margin_2 = min(
                worst_margin_2, float(np.min(rhs * (1 + slack) - lhs))
            )
    ok = worst_margin_1 >= 0.0 and worst_margin_2 >= 0.0
    record(
        10,
        ok,
        f"localization bounds hold with margins >= 0 on 1000 instances "
        f"(pointwise {worst_margin_1:.2e}, Taylor-remainder {worst_margin_2:.2e})",
    )
