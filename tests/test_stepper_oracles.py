"""The batched steppers against the per-step RK4 loops they replaced.

``solve_riccati`` steps the linear form [Q; P] of the Riccati equation
with RK4 step maps formed in batches, and ``solve_transport`` applies the
RK4 step maps of its generator.  The loops, which stepped RK4 on the
Riccati equation and on the amplitude one node at a time, stay here as
oracles.  Transport is the same RK4 up to rounding.  The Riccati solution
differs from RK4 on the Riccati equation by O(dt^4) truncation: to rounding
on the bundled scenarios, and falling 16-fold per halving of dt on smooth
time-varying coefficients.  A failure names the same class, ray and step.
"""

import re
import warnings

import numpy as np
import pytest

from cgoptics import amplitudes, numerics, phase
from cgoptics.amplitudes import (
    POL_DRIFT_MAX,
    TRANSPORT_POL_FIX,
    TRANSPORT_POL_TOL,
    _l0_on_rays,
    _symbol_s_jet,
    _transport_generator,
    gouy_path,
    solve_transport,
)
from cgoptics.errors import BlowUpError, PolarizationDriftError, PositivityLossError
from cgoptics.numerics import central_time_derivative, rk4_step_maps, step_blocks
from cgoptics.phase import RICCATI_BLOWUP, SYMMETRY_DRIFT_TOL, solve_riccati
from cgoptics.scenarios import BUNDLED_SCENARIOS, build_scenario_beams, bundled_scenario

EPS = np.finfo(float).eps


def _riccati_oracle(coeffs, phi0, dt, positivity_tol=1e-12):
    """The per-step loop of ``solve_riccati`` as it was (stacked rays)."""
    tr = lambda m: np.swapaxes(m, -1, -2)
    a_path, b_path, c_path = coeffs
    n_t = a_path.shape[0]
    out = np.empty((n_t,) + phi0.shape, dtype=complex)
    out[0] = phi0

    def rhs(a, b, c, phi):
        return -(a + phi @ b + tr(b) @ phi + phi @ c @ phi)

    def where(k, bad):
        i = int(np.flatnonzero(bad)[0])
        return i, f"ray {i} at step {k + 1} (t = {(k + 1) * dt:.4f})"

    for k in range(n_t - 1):
        a0, b0, c0 = a_path[k], b_path[k], c_path[k]
        a1, b1, c1 = a_path[k + 1], b_path[k + 1], c_path[k + 1]
        ah, bh, ch = 0.5 * (a0 + a1), 0.5 * (b0 + b1), 0.5 * (c0 + c1)
        phi = out[k]
        k1 = rhs(a0, b0, c0, phi)
        k2 = rhs(ah, bh, ch, phi + 0.5 * dt * k1)
        k3 = rhs(ah, bh, ch, phi + 0.5 * dt * k2)
        k4 = rhs(a1, b1, c1, phi + dt * k3)
        nxt = phi + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        drift = np.max(np.abs(nxt - tr(nxt)), axis=(1, 2))
        bad = drift > SYMMETRY_DRIFT_TOL * np.maximum(1.0, np.max(np.abs(nxt), axis=(1, 2)))
        if bad.any():
            i, place = where(k, bad)
            raise BlowUpError(f"Riccati symmetry drift {drift[i]:.2e} on {place}")
        nxt = 0.5 * (nxt + tr(nxt))
        size = np.max(np.abs(nxt), axis=(1, 2))
        if np.any(size > RICCATI_BLOWUP):
            i, place = where(k, size > RICCATI_BLOWUP)
            raise BlowUpError(
                f"curvature matrix norm {size[i]:.2e} exceeded the blow-up "
                f"threshold on {place}"
            )
        min_im = np.min(np.linalg.eigvalsh(nxt.imag), axis=-1)
        if np.any(min_im <= positivity_tol):
            i, place = where(k, min_im <= positivity_tol)
            raise PositivityLossError(
                f"Im(Phi) lost positive definiteness on {place} "
                f"(min eigenvalue {min_im[i]:.3e})"
            )
        out[k + 1] = nxt
    return out


def _transport_oracle(spec, l, bundle, jet, a0):
    """``solve_transport`` as it was: the midpoint generator formed per step."""
    n_t, n_r, _ = bundle.x.shape
    n = spec.N
    a0 = np.asarray(a0, dtype=complex).reshape(n_r, n)
    pi, gen = _transport_generator(spec, l, bundle, jet, gouy_path(bundle, jet), 0, n_t - 1)
    res0 = a0 - np.einsum("rab,rb->ra", pi[0], a0)
    worst0 = float(np.max(np.linalg.norm(res0, axis=-1)))
    scale0 = max(1.0, float(np.max(np.linalg.norm(a0, axis=-1))))
    assert worst0 <= TRANSPORT_POL_FIX * scale0
    if worst0 > TRANSPORT_POL_TOL * scale0:
        proj = np.einsum("rab,rb->ra", pi[0], a0)
        norms = np.linalg.norm(a0, axis=-1, keepdims=True)
        pnorms = np.linalg.norm(proj, axis=-1, keepdims=True)
        a0 = proj * (norms / np.where(pnorms > 0, pnorms, 1.0))
    dt = bundle.dt
    a = np.empty((n_t, n_r, n), dtype=complex)
    a[0] = a0
    drift_max = 0.0
    for k in range(n_t - 1):
        g0, g1 = gen[k], gen[k + 1]
        gh = 0.5 * (g0 + g1)
        cur = a[k]
        k1 = np.einsum("rab,rb->ra", g0, cur)
        k2 = np.einsum("rab,rb->ra", gh, cur + 0.5 * dt * k1)
        k3 = np.einsum("rab,rb->ra", gh, cur + 0.5 * dt * k2)
        k4 = np.einsum("rab,rb->ra", g1, cur + dt * k3)
        nxt = cur + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        projected = np.einsum("rab,rb->ra", pi[k + 1], nxt)
        drift = float(np.max(np.linalg.norm(nxt - projected, axis=-1)))
        drift_max = max(drift_max, drift)
        if drift > POL_DRIFT_MAX:
            raise PolarizationDriftError(
                f"transport left the polarization space by {drift:.3e} at "
                f"step {k + 1}"
            )
        a[k + 1] = projected
    return a, drift_max


def _scenario(name):
    cfg = bundled_scenario(name)
    if name == "acoustics3_beam":
        cfg.components[0]["n_r"] = 9     # the full 33-ray build takes seconds
    return cfg


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_steppers_match_per_step_loops_on_bundled_scenarios(name, monkeypatch):
    riccati_calls = []
    riccati = phase._solve_riccati

    def recorded(coeffs, phi0, dt):
        out, min_imag = riccati(coeffs, phi0, dt)
        riccati_calls.append((coeffs, phi0, dt, out))
        return out, min_imag

    monkeypatch.setattr(phase, "_solve_riccati", recorded)
    spec, _, beams = build_scenario_beams(_scenario(name))
    assert len(riccati_calls) == len(beams)
    for beam, (coeffs, phi0, dt, out) in zip(beams, riccati_calls):
        assert out is beam.jet.curvature
        # taken from the positivity check, equal to the whole path's eigvalsh
        assert beam.jet.riccati_min_imag == float(np.min(np.linalg.eigvalsh(out.imag)))
        want = _riccati_oracle(coeffs, phi0, dt, phase.POSITIVITY_TOL)
        assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))

        comp = beam.component
        a0 = comp.amplitude(comp.points)
        got = solve_transport(spec, comp.mode, beam.bundle, beam.jet, a0)
        want, drift_max = _transport_oracle(spec, comp.mode, beam.bundle, beam.jet, a0)
        assert np.max(np.abs(got.a - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(beam.transport.a, got.a)
        assert abs(got.step_drift_max - drift_max) <= 8 * EPS * np.max(np.abs(want))


def _stacked(bad, n_t=2001):
    # zero coefficients and Phi(0) = i I on four rays; ``bad`` maps a ray to
    # the constant A and B / I its coefficient paths take from a node on
    coeffs = [np.zeros((n_t, 4, 2, 2)) for _ in range(3)]
    for ray, (a, b, start) in bad.items():
        coeffs[0][start:, ray] = a
        coeffs[1][start:, ray] = b * np.eye(2)
    return coeffs, np.broadcast_to(1j * np.eye(2), (4, 2, 2)), 1.0 / (n_t - 1)


ASYM = [[0.0, 1.0], [0.0, 0.0]]     # makes the flow leave the symmetric matrices


@pytest.mark.parametrize(
    "bad",
    [
        # one failure alone: blow-up (t = 0.31), positivity (t = 0.46), drift
        {1: (0.0, -30.0, 0)},
        {3: (0.0, 30.0, 0)},
        {2: (ASYM, 0.0, 0)},
        # positivity lost (t = 0.23) before another ray blows up (t = 0.31)
        {0: (0.0, 60.0, 0), 2: (0.0, -30.0, 0)},
        # a blow-up (t = 0.31) before another ray loses positivity (t = 0.46)
        {3: (0.0, 30.0, 0), 1: (0.0, -30.0, 0)},
        # positivity lost (t = 0.23) before another ray drifts (t = 0.4)
        {1: (0.0, 60.0, 0), 2: (ASYM, 0.0, 800)},
        # a drift (t = 0.1) before another ray loses positivity (t = 0.23)
        {1: (0.0, 60.0, 0), 0: (ASYM, 0.0, 200)},
    ],
)
def test_riccati_guards_fail_where_the_per_step_loop_fails(bad):
    coeffs, phi0, dt = _stacked(bad)
    with pytest.raises((BlowUpError, PositivityLossError)) as want:
        _riccati_oracle(coeffs, phi0, dt)
    with pytest.raises(type(want.value)) as got:
        solve_riccati(coeffs, phi0, dt)
    place = lambda exc: re.search(r" on (ray \d+ at step \d+ \(t = [\d.]+\))", str(exc.value)).group(1)
    assert place(got) == place(want)
    if "symmetry drift" in str(want.value):
        # the loop saw Phi drift; the gate sees the asymmetric A it came from
        assert "symmetry drift" in str(got.value) and "coefficient A" in str(got.value)
    else:
        assert str(got.value) == str(want.value)


def test_riccati_without_failures_matches_per_step_loop():
    rng = np.random.default_rng(5)
    n_t, n_r, d2 = 501, 3, 2
    coeffs = [0.1 * rng.standard_normal((n_t, n_r, d2, d2)) for _ in range(3)]
    coeffs[0] = 0.5 * (coeffs[0] + np.swapaxes(coeffs[0], -1, -2))
    coeffs[2] = 0.5 * (coeffs[2] + np.swapaxes(coeffs[2], -1, -2))
    phi0 = np.broadcast_to(0.2 + 1j * np.eye(d2), (n_r, d2, d2))
    dt = 1.0 / (n_t - 1)
    want = _riccati_oracle(coeffs, phi0, dt)
    # The coefficients are white noise in t, so their piecewise-linear
    # path has slopes near 70 and the two RK4 schemes part by about 1.6e-12
    # at the first step already; the paths part by at most 1.08e-10 (relative).
    # That is truncation: against the same path stepped 32 times finer, the
    # loop is off by 1.2e-10 and the linear form by 3.9e-11.
    assert np.max(np.abs(solve_riccati(coeffs, phi0, dt) - want)) <= 3e-10 * np.max(np.abs(want))


def _smooth_coeffs(d2, n_t, seed=3):
    # A, B, C = a0 + a1 sin 2t + a2 cos 3t on two rays over t in [0, 1], with
    # A and C symmetric and B not
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n_t)[:, None, None, None]
    out = []
    for name in "ABC":
        m0, m1, m2 = 0.5 * rng.standard_normal((3, 2, d2, d2))
        m = m0 + np.sin(2 * t) * m1 + np.cos(3 * t) * m2
        out.append(m if name == "B" else 0.5 * (m + np.swapaxes(m, -1, -2)))
    return out


@pytest.mark.parametrize("d2", [1, 2])
def test_linear_form_parts_from_the_loop_at_fourth_order(d2):
    phi0 = np.broadcast_to(0.1 + 1j * np.eye(d2), (2, d2, d2))
    diffs = []
    for n_t in (81, 161, 321, 641):
        coeffs, dt = _smooth_coeffs(d2, n_t), 1.0 / (n_t - 1)
        phi = solve_riccati(coeffs, phi0, dt)
        assert np.array_equal(phi, np.swapaxes(phi, -1, -2))
        diffs.append(np.max(np.abs(phi[-1] - _riccati_oracle(coeffs, phi0, dt)[-1])))
    ratios = np.array(diffs[:-1]) / np.array(diffs[1:])
    assert np.all(np.abs(ratios - 16.0) <= 2.0), ratios


@pytest.mark.parametrize("d2", [1, 2])
def test_riccati_singular_q_is_a_blowup(d2):
    # C = i I and Phi(0) = i I / (2 dt) on ray 1: with dt a power of two the
    # step maps are exactly I + dt M, so Phi(1) = i I / dt and
    # S_11 + S_12 Phi(1) = I + dt (i I)(i I) / dt vanishes exactly
    n_t, n_r, dt = 9, 3, 0.25
    coeffs = [np.zeros((n_t, n_r, d2, d2), dtype=complex) for _ in range(3)]
    coeffs[2][:, 1] = 1j * np.eye(d2)
    phi0 = np.repeat(1j * np.eye(d2)[None], n_r, axis=0)
    phi0[1] *= 0.5 / dt
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError, match=r"threshold on ray 1 at step 2 \(t = 0\.5000\)"):
            solve_riccati(coeffs, phi0, dt)


def test_transport_n1_is_a_cumulative_product():
    spec, _, beams = build_scenario_beams(_scenario("variable_advection"))
    beam = beams[0]
    comp, bundle, res = beam.component, beam.bundle, beam.transport
    assert spec.N == 1
    assert res.step_drift_max == 0.0
    gen = _transport_generator(spec, comp.mode, bundle, beam.jet, res.gouy, 0, bundle.n_t - 1)[1]
    want = res.a[0] * np.cumprod(rk4_step_maps(gen, bundle.dt)[..., 0], axis=0)
    np.testing.assert_allclose(res.a[1:], want, rtol=1e-12, atol=0.0)


def test_transport_drift_fails_where_the_per_step_loop_fails(monkeypatch):
    # from node 700 on, the generator pushes the amplitude out of the mode
    # space at a rate that grows until one step's drift crosses POL_DRIFT_MAX
    spec, _, beams = build_scenario_beams(_scenario("wave2x2_beam"))
    beam = beams[0]
    comp = beam.component
    generator = _transport_generator

    def leaky(spec, l, bundle, jet, gouy, k0, k1):
        pi, gen = generator(spec, l, bundle, jet, gouy, k0, k1)
        gen = gen.copy()
        start = max(k0, 700)
        rate = 1e-4 * np.arange(start - 700, k1 + 1 - 700)[:, None, None, None]
        gen[start - k0 :] += rate * (np.eye(spec.N) - pi[start - k0 :]) @ np.diag([1.0, -1.0])
        return pi, gen

    monkeypatch.setattr(amplitudes, "_transport_generator", leaky)
    monkeypatch.setitem(globals(), "_transport_generator", leaky)
    a0 = comp.amplitude(comp.points)
    with pytest.raises(PolarizationDriftError) as want:
        _transport_oracle(spec, comp.mode, beam.bundle, beam.jet, a0)
    with pytest.raises(PolarizationDriftError) as got:
        solve_transport(spec, comp.mode, beam.bundle, beam.jet, a0)
    step = lambda exc: int(re.search(r"at step (\d+)$", str(exc.value)).group(1))
    assert step(got) == step(want) > 701


def _whole_path_generator(spec, l, bundle, jet):
    """pi and the transport generator on the whole path at once, (n_t, n_r,
    N, N) each, as ``solve_transport`` formed them before it walked the
    path in blocks."""
    n_t, n_r, _ = bundle.x.shape
    n = spec.N
    gouy = gouy_path(bundle, jet)
    bmat = np.broadcast_to(spec.coeff_B(bundle.t[:, None], bundle.x), (n_t, n_r, n, n))
    if n == 1:
        pi = bundle.template.modes(bundle.t[:, None], bundle.x, bundle.xi)[1][:, :, l]
        return pi, -bmat - 1j * gouy[..., None, None]
    ds_symbol = _symbol_s_jet(spec, bundle, jet, slice(None), jet.curvature.real, second=False)[1]
    pi, grad = bundle.template.projector_derivatives(
        bundle.t[:, None], bundle.x, bundle.xi, ds_symbol, l
    )
    dpi_dt = central_time_derivative(pi, bundle.dt)
    if bundle.d1:
        grad = np.concatenate([bundle.r_derivative(pi)[:, :, None], grad], axis=2)
    l0pi = _l0_on_rays(spec, bundle, slice(None), dpi_dt, grad)
    gen = (
        -np.einsum("krab,krbc->krac", pi, l0pi + bmat)
        - 1j * gouy[..., None, None] * np.broadcast_to(np.eye(n), (n_t, n_r, n, n))
        + np.einsum("krab,krbc->krac", np.eye(n) - pi, dpi_dt)
    )
    return pi, gen


def _whole_path_transport(spec, l, bundle, jet, a0):
    """``solve_transport``'s steps on the whole-path pi and generator: (a,
    step drift max, polarization residual max)."""
    n_t, n_r, _ = bundle.x.shape
    n = spec.N
    pi, gen = _whole_path_generator(spec, l, bundle, jet)
    a = np.empty((n_t, n_r, n), dtype=complex)
    a[0] = np.asarray(a0, dtype=complex).reshape(n_r, n)
    # polarized to TRANSPORT_POL_TOL, so solve_transport does not project it
    res0 = np.linalg.norm(a[0] - np.einsum("rab,rb->ra", pi[0], a[0]), axis=-1)
    assert np.max(res0) <= TRANSPORT_POL_TOL * max(1.0, np.max(np.linalg.norm(a[0], axis=-1)))
    drift_max = 0.0
    with np.errstate(all="ignore"):
        for k0, k1 in step_blocks(n_t - 1, n_r * n * n):
            maps = rk4_step_maps(gen[k0 : k1 + 1], bundle.dt)
            kept = pi[k0 + 1 : k1 + 1] @ maps
            maps -= kept
            if n == 1:
                a[k0 + 1 : k1 + 1] = a[k0] * np.cumprod(kept[..., 0], axis=0)
            else:
                for k in range(k0, k1):
                    np.matmul(kept[k - k0], a[k, :, :, None], out=a[k + 1, :, :, None])
            drift = np.linalg.norm((maps @ a[k0:k1, :, :, None])[..., 0], axis=-1).max(axis=1)
            assert np.all(drift <= POL_DRIFT_MAX)
            drift_max = max(drift_max, float(drift.max()))
    resid = a - np.einsum("krab,krb->kra", pi, a)
    return a, drift_max, float(np.max(np.linalg.norm(resid, axis=-1)))


@pytest.fixture(scope="module")
def transport_beams():
    return {
        name: build_scenario_beams(_scenario(name))
        for name in ("acoustics3_beam", "wave2x2_beam", "variable_advection")
    }


# steps per block on the bundled paths of 2,000 steps: more than the path,
# exactly the path, a divisor of it, and neither
@pytest.mark.parametrize("steps", [2048, 2000, 250, 300, 7])
@pytest.mark.parametrize("name", ["acoustics3_beam", "wave2x2_beam", "variable_advection"])
def test_blocked_transport_matches_the_whole_path_bitwise(transport_beams, name, steps,
                                                          monkeypatch):
    spec, _, beams = transport_beams[name]
    beam = beams[0]
    comp, bundle = beam.component, beam.bundle
    a0 = np.asarray(comp.amplitude(comp.points), dtype=complex)
    want_pi, want_gen = _whole_path_generator(spec, comp.mode, bundle, beam.jet)
    want = _whole_path_transport(spec, comp.mode, bundle, beam.jet, a0)

    monkeypatch.setattr(numerics, "STEP_BLOCK_VALUES", steps * bundle.n_r * spec.N**2)
    blocks = []
    generator = _transport_generator

    def recorded(*args):
        pi, gen = generator(*args)
        blocks.append((args[-2], args[-1], pi, gen))
        return pi, gen

    monkeypatch.setattr(amplitudes, "_transport_generator", recorded)
    got = solve_transport(spec, comp.mode, bundle, beam.jet, a0)
    assert len(blocks) == -(-(bundle.n_t - 1) // steps)
    for k0, k1, pi, gen in blocks:
        assert pi.shape[0] == gen.shape[0] == k1 + 1 - k0
        assert np.array_equal(pi.view(np.uint64), want_pi[k0 : k1 + 1].view(np.uint64))
        assert np.array_equal(gen.view(np.uint64), want_gen[k0 : k1 + 1].view(np.uint64))
    assert np.array_equal(got.a.view(np.uint64), want[0].view(np.uint64))
    assert got.step_drift_max == want[1]
    assert got.pol_residual_max == want[2]
    assert np.array_equal(got.a, beam.transport.a)
