"""One eps-free beam evaluation serves every eps.

``BeamSolution.evaluate(k, X)`` charts the points and evaluates the phase
jet, amplitude splines, corrector and cutoff once; ``BeamValues.g(eps)``
combines the prefactor for one eps.  ``residual_samples``, ``residual_sup``
and ``initial_mismatch`` take the whole eps list.  The per-eps evaluation
and measurements they replaced stay here as oracles, and both must agree
bit for bit; the residual for the whole list must equal the residual for
each eps alone bit for bit.  The per-eps stencil residual stays as an
oracle too: the chart-coordinate residual differs from it by the two
stencils' truncations only (``test_chart_residual``).
"""

import json
from dataclasses import fields

import numpy as np
import pytest

from cgoptics.beams import BeamParams, BeamSolution, build_beam
from cgoptics.cli import (
    _comparison_times,
    _max_dpsi,
    _mismatch_axes,
    _reference_grid,
    _sweep_entry,
    main,
)
from cgoptics.fields import assemble_field, eval_initial_data, initial_mismatch
from cgoptics.numerics import grid_points
from cgoptics.phase import PhaseValues, eval_phase_at_node
from cgoptics.rays import InitialData
from cgoptics.scenarios import build_scenario_beams, bundled_scenario
from cgoptics.systems import builtin_system
from cgoptics.verification import l2_error_curve, reference_solve, residual_samples, residual_sup

from test_chart_residual import assert_within_truncations
from test_rays import acoustics_line_component, gaussian_point_component, wave2x2_component

EPS = (0.1, 0.05, 0.025, 0.0125)


def _scatter(idx, m, values):
    out = np.zeros((m,) + values.shape[1:], dtype=values.dtype)
    out[idx] = values
    return out


def _evaluate_per_eps(beam, k, X, eps):
    # the per-eps evaluation: returns (g, phase values at every point)
    bundle = beam.bundle
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m = X.shape[0]
    near = bundle.near_tube(k, X)
    if near.all():
        pv = eval_phase_at_node(beam.jet, bundle, k, X)
    else:
        near = np.nonzero(near)[0]
        pn = eval_phase_at_node(beam.jet, bundle, k, X[near])
        pv = PhaseValues(**{
            f.name: _scatter(near, m, getattr(pn, f.name)) for f in fields(PhaseValues)
        })
    idx = np.nonzero(pv.inside)[0]
    r, s = pv.r[idx], pv.s[idx]
    if bundle.d1:
        r = np.clip(r, bundle.r[0], bundle.r[-1])
    a = bundle.interp_over_r(k, beam.transport.a[k], r)
    lin = bundle.interp_over_r(k, beam.ext.lin_a[k], r)
    quad = bundle.interp_over_r(k, beam.ext.quad_a[k], r)
    g = (
        a
        + np.einsum("mi,mia->ma", s, lin)
        + 0.5 * np.einsum("mi,mj,mija->ma", s, s, quad)
    )
    g = g + eps * bundle.interp_over_r(k, beam.corrector[k], r)
    g = g * beam.cutoff(np.linalg.norm(s, axis=-1))[:, None]
    return _scatter(idx, m, g), pv


def _residual_samples_per_eps(spec, beam, eps, h_x, n_t_samples=9, n_s=160, margin=1.05,
                              r_trim=2):
    # the stencil residual for one eps: central differences in x with step
    # h_x, at fixed x over the nodes k +- 1
    bundle = beam.bundle
    n_t, d, d2, dt = bundle.n_t, bundle.d, bundle.d2, bundle.dt
    ks = np.unique(np.linspace(2, n_t - 3, n_t_samples).astype(int))
    smax = margin * beam.cutoff.radius
    if d2 == 1:
        s_grid = np.linspace(-smax, smax, n_s)[:, None]
    else:
        side = max(9, int(np.sqrt(n_s)))
        s_grid = grid_points([np.linspace(-smax, smax, side)] * d2)
        s_grid = s_grid[np.linalg.norm(s_grid, axis=-1) <= smax]
    if bundle.d1 and bundle.n_r > 2 * r_trim:
        rays = range(r_trim, bundle.n_r - r_trim)
    else:
        rays = range(bundle.n_r)
    out = []
    steps = np.zeros((1 + 2 * d, d))
    steps[1::2] = h_x * np.eye(d)
    steps[2::2] = -h_x * np.eye(d)
    for k in ks:
        X = np.concatenate([bundle.chart_points(k, i, s_grid) for i in rays])
        m = X.shape[0]
        g, pv = _evaluate_per_eps(beam, k, (X[None] + steps[:, None]).reshape(-1, d), eps)
        g = g.reshape(1 + 2 * d, m, -1)
        g0 = g[0]
        inside, phi, dt_phi, dx_phi = pv.inside[:m], pv.phi[:m], pv.dt[:m], pv.dx[:m]
        gp, _ = _evaluate_per_eps(beam, k + 1, X, eps)
        gm, _ = _evaluate_per_eps(beam, k - 1, X, eps)
        bvec = (gp - gm) / (2.0 * dt)
        sym = np.zeros((m, spec.N, spec.N), dtype=complex)
        for j in range(d):
            aj = np.asarray(spec.coeff_A(bundle.t[k], X, j))
            dg = (g[1 + 2 * j] - g[2 + 2 * j]) / (2.0 * h_x)
            bvec = bvec + np.einsum("mab,mb->ma", aj, dg)
            sym = sym + aj * dx_phi[:, j][:, None, None]
        bmat = np.asarray(spec.coeff_B(bundle.t[k], X))
        bvec = bvec + np.einsum("mab,mb->ma", bmat, g0)
        osc = 1j / eps * (dt_phi[:, None] * g0 + np.einsum("mab,mb->ma", sym, g0))
        total = np.where(inside[:, None], bvec + osc, 0.0)
        weight = np.where(inside, np.exp(-phi.imag / eps), 0.0)
        out.append(np.linalg.norm(total, axis=-1) * weight)
    return np.concatenate(out)


def _initial_mismatch_per_eps(initial, beams, eps, axes):
    # the per-eps assemble_field at t = 0 against the exact data
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    pts = grid_points(axes)
    shape = tuple(ax.size for ax in axes)
    n_comp = beams[0].spec.N
    total = np.zeros((pts.shape[0], n_comp), dtype=complex)
    for beam in beams:
        k0, k1, w = beam.bundle.locate_time(0.0)
        assert k1 == k0
        g, pv = _evaluate_per_eps(beam, k0, pts, eps)
        active = np.linalg.norm(g, axis=-1) > 0.0
        total[active] += g[active] * np.exp(1j * pv.phi[active] / eps)[:, None]
    exact = eval_initial_data(initial, eps, axes)
    diff = np.linalg.norm(exact.values - total.reshape(shape + (n_comp,)), axis=-1)
    return float(np.max(diff))


@pytest.fixture(scope="module", params=["acoustics3_line", "wave2x2_point", "variable_advection"])
def case(request):
    if request.param == "acoustics3_line":
        spec = builtin_system("acoustics3")
        comp = acoustics_line_component(np.linspace(-0.4, 0.4, 9))
        params = BeamParams(dt=4e-3, chart_radius=0.4, ext_stride=25, corrector_stride=25)
    elif request.param == "wave2x2_point":
        spec = builtin_system("wave2x2")
        comp = wave2x2_component()
        params = BeamParams(dt=4e-3, chart_radius=1.0)
    else:
        spec = builtin_system("variable_advection")
        comp = gaussian_point_component()
        params = BeamParams(dt=1e-3, chart_radius=3.5)
    return spec, comp, build_beam(spec, comp, params)


def test_evaluate_combines_per_eps_bitwise(case):
    _, _, beam = case
    dom = beam.spec.domain
    X = grid_points([np.linspace(c - dom.radius, c + dom.radius, 41) for c in dom.center])
    for k in (0, beam.bundle.n_t // 2):
        vals = beam.evaluate(k, X)
        for eps in EPS:
            g, pv = _evaluate_per_eps(beam, k, X, eps)
            np.testing.assert_array_equal(vals.g(eps), g)
            for f in fields(PhaseValues):
                np.testing.assert_array_equal(vals.full(f.name), getattr(pv, f.name))


def test_residuals_for_all_eps_match_per_eps_bitwise(case):
    spec, _, beam = case
    got = residual_samples(spec, beam, EPS)
    assert len(got) == len(EPS)
    for eps, samples in zip(EPS, got):
        alone = residual_samples(spec, beam, [eps])[0]
        np.testing.assert_array_equal(samples.view(np.uint64), alone.view(np.uint64))
        want = _residual_samples_per_eps(spec, beam, eps, h_x=beam.bundle.dt)
        assert_within_truncations(spec, beam, eps, samples, want)
    assert residual_sup(spec, [beam], EPS) == [float(np.max(v)) for v in got]


def test_mismatches_for_all_eps_match_per_eps_bitwise(case):
    spec, comp, beam = case
    initial = InitialData(components=(comp,))
    axes = _mismatch_axes(spec, 81 if spec.d > 1 else 2001)
    got = initial_mismatch(initial, [beam], EPS, axes)
    want = [_initial_mismatch_per_eps(initial, [beam], eps, axes) for eps in EPS]
    assert min(want) > 0
    assert got == want


def test_cli_threads_match_serial_2d(tmp_path):
    # the 2-D sweep shares its residual and mismatch work across eps before
    # the worker pool; the report must not depend on the pool
    cfg = bundled_scenario("acoustics3_beam").to_dict()
    cfg["components"][0]["n_r"] = 9
    cfg["dt"] = 0.02
    cfg["ext_stride"] = cfg["corrector_stride"] = 5
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    reports = []
    for name, extra in (("serial", []), ("pool", ["--threads", "2"])):
        out = tmp_path / name
        assert main(["sweep", "--config", str(path), "--out", str(out)] + extra) in (0, 1)
        report = json.loads((out / "report.json").read_text())
        report.pop("timestamp")
        report.pop("runtimes")
        reports.append(report)
    assert reports[0] == reports[1]


def test_sweep_entry_evaluates_the_start_grid_once(monkeypatch):
    # the t = 0 grid serves the mismatch, the solve's initial data and the
    # first comparison time: one evaluation per comparison time, and the
    # entry equals the one made of separate measurements
    cfg = bundled_scenario("variable_advection")
    spec, initial, beams = build_scenario_beams(cfg)
    eps = 0.1
    grid = _reference_grid(spec, cfg, eps)
    times = _comparison_times(spec, cfg, beams[0].bundle.n_t)
    assert times[0] == 0.0 and len(times) == 6
    calls = []
    evaluate = BeamSolution.evaluate

    def counting(self, k, X):
        calls.append(k)
        return evaluate(self, k, X)

    monkeypatch.setattr(BeamSolution, "evaluate", counting)
    entry = _sweep_entry(spec, initial, beams, cfg, eps, grid)
    monkeypatch.undo()
    assert len(calls) == len(times)
    assert calls.count(0) == 1

    ref = reference_solve(
        spec, grid, eval_initial_data(initial, eps, (grid,)).values,
        spec.domain.final_time, times, cfl=float(cfg.reference.get("cfl", 0.8)),
        eps=eps, dpsi_max=_max_dpsi(initial, spec, grid),
    )
    v_series = [assemble_field(beams, eps, (grid,), t).values for t in times]
    errs = l2_error_curve(grid, ref.values, v_series, times, spec.domain)
    assert entry["initial_mismatch"] == initial_mismatch(initial, beams, [eps], (grid,))[0]
    assert entry["l2_sup"] == float(np.max(errs))
    assert entry["l2_curve"] == {f"{t:.6g}": float(e) for t, e in zip(times, errs)}
