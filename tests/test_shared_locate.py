"""One eps-free beam evaluation serves every eps.

``BeamSolution.evaluate(k, X)`` charts the points and evaluates the phase,
amplitude splines, corrector and cutoff once; ``BeamValues.g(eps)``
combines the prefactor for one eps.  ``residual_samples``, ``residual_sup``
and ``initial_mismatch`` take the whole eps list.  The per-eps evaluation
and measurements they replaced stay here as oracles, and both must agree
bit for bit; the residual for the whole list must equal the residual for
each eps alone bit for bit.  The per-eps stencil residual stays as an
oracle too: the chart-coordinate residual differs from it by the two
stencils' truncations only (``test_chart_residual``).
"""

import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

from cgoptics.beams import BeamParams, BeamSolution, build_beam
from cgoptics.cli import (
    REFERENCE_CFL,
    _comparison_times,
    _max_dpsi,
    _mismatch_axes,
    _reference_grid,
    _sweep_entry,
)
from cgoptics.fields import InitialGrid, assemble_field, eval_initial_data, initial_mismatch
from cgoptics.numerics import grid_points
from cgoptics.phase import PhaseValues, eval_phase_at_node
from cgoptics.rays import InitialData, WaveComponent
from cgoptics.scenarios import (
    _component_from_config,
    build_scenario_beams,
    bundled_scenario,
    scenario_system,
)
from cgoptics.systems import builtin_system, load_system
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
            for name in ("phi", "r", "s", "inside"):
                np.testing.assert_array_equal(vals.full(name), getattr(pv, name))


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


def _quartic_component(x0, c):
    # psi = (x - x0) + i ((x - x0)^2 / 2 - c (x - x0)^4): the beam reads only
    # the jet at x0, while Im psi turns negative for |x - x0| > (2 c)^-1/2,
    # so the data grow away from the tube
    x0 = np.array([float(x0)])

    def psi(x):
        dx = np.asarray(x)[..., 0] - x0[0]
        return dx + 1j * (0.5 * dx**2 - c * dx**4)

    def dpsi(x):
        dx = np.asarray(x)[..., 0] - x0[0]
        return (1.0 + 1j * (dx - 4 * c * dx**3))[..., None]

    def d2psi(x):
        dx = np.asarray(x)[..., 0] - x0[0]
        return (1j * (1.0 - 12 * c * dx**2))[..., None, None]

    def amplitude(x):
        return np.ones(np.shape(x)[:-1] + (1,), dtype=complex)

    return WaveComponent(
        mode=0, points=x0[None, :], psi=psi, dpsi=dpsi, d2psi=d2psi,
        amplitude=amplitude, label="quartic",
    )


def _full_grid_argmax(grid, eps):
    # the row of the largest |h - v| over the whole grid
    h, v = grid.data(eps).values, grid.field(eps).values
    return int(np.argmax(np.linalg.norm((h - v).reshape(-1, h.shape[-1]), axis=-1)))


def _outside_rows(grid):
    # the grid rows outside every beam's tube
    return np.setdiff1d(np.arange(grid.shape[0]), grid._tube)


def test_mismatch_maximum_outside_a_narrow_tube_matches_per_eps_bitwise(monkeypatch):
    # a 2-D point beam whose tube holds few grid rows: the largest |h - v|
    # lies outside it, and only the outside rows whose bound reaches the
    # tube rows' maximum get the exact |h|
    spec = scenario_system(bundled_scenario("acoustics3_beam"))
    comp = _component_from_config({
        "mode": 2,
        "origin": [0.0, 0.0],
        "phase": {"grad": [1.0, 0.0], "hess_im": [[1.0, 0.0], [0.0, 1.0]]},
        "amplitude": {"re": [0.5**0.5, 0.5**0.5, 0.0]},
    }, spec.d, spec.N)
    beam = build_beam(spec, comp, BeamParams(dt=0.02, chart_radius=0.05))
    initial = InitialData(components=(comp,))
    axes = _mismatch_axes(spec, 81)
    grid = InitialGrid(initial, [beam], axes)
    exact_rows = []
    data_at = InitialGrid._data_at

    def recording(self, rows, eps):
        exact_rows.append(rows)
        return data_at(self, rows, eps)

    monkeypatch.setattr(InitialGrid, "_data_at", recording)
    for eps in EPS:
        exact_rows.clear()
        assert grid.mismatch(eps) == _initial_mismatch_per_eps(initial, [beam], eps, axes)
        assert _full_grid_argmax(grid, eps) not in grid._tube
        # the tube rows keep their data; only a part of the outside rows
        # evaluates the initial data again
        (again,) = exact_rows
        assert 0 < again.size < _outside_rows(grid).size
        assert np.all(np.isin(again, _outside_rows(grid)))


@pytest.mark.parametrize("order", [1, -1])
def test_mismatch_of_two_disjoint_components_matches_per_eps_bitwise(order):
    # at the outside rows the bound sums both components' moduli: one
    # component decays there, the other grows above the tube rows'
    # maximum, in either order
    spec = builtin_system("advection")
    comps = (_quartic_component(-1.0, 0.0), _quartic_component(1.0, 0.014))[::order]
    beams = [build_beam(spec, c, BeamParams(dt=5e-3, chart_radius=0.3)) for c in comps]
    initial = InitialData(components=comps)
    axes = _mismatch_axes(spec, 2001)
    grid = InitialGrid(initial, beams, axes)
    assert isinstance(grid._tube, np.ndarray)
    got = initial_mismatch(initial, beams, EPS, axes)
    assert got == [_initial_mismatch_per_eps(initial, beams, eps, axes) for eps in EPS]
    for eps in EPS:
        assert _full_grid_argmax(grid, eps) not in grid._tube


def _acoustics3d_point_beam(dt):
    # 3-D acoustics as a table system: (p, u), A_j = e_0 e_j^T + e_j e_0^T,
    # eigenvalues -|xi|, 0, 0, |xi|; a point beam on the +|xi| cluster
    a = np.zeros((3, 4, 4))
    for j in range(3):
        a[j, 0, j + 1] = a[j, j + 1, 0] = 1.0
    spec = load_system({
        "name": "acoustics3d", "d": 3, "N": 4, "A": a.tolist(),
        "domain": {"center": [0.0] * 3, "radius": 3.0, "final_time": 1.0, "speed": 1.0},
    })
    comp = _component_from_config({
        "mode": 2,
        "origin": [0.0] * 3,
        "phase": {"grad": [1.0, 0.0, 0.0], "hess_im": np.eye(3).tolist()},
        "amplitude": {"re": [0.5**0.5, 0.5**0.5, 0.0, 0.0]},
    }, spec.d, spec.N)
    return spec, comp, build_beam(spec, comp, BeamParams(dt=dt, chart_radius=0.9))


def test_mismatch_of_a_3d_point_beam_matches_per_eps_bitwise(monkeypatch):
    # the beam is evaluated only at grid rows in its tube box, fewer than an
    # eighth of the 41^3 grid's
    spec, comp, beam = _acoustics3d_point_beam(0.02)
    initial = InitialData(components=(comp,))
    axes = _mismatch_axes(spec, 41)
    evaluated = []
    evaluate = BeamSolution.evaluate

    def recording(self, k, X):
        evaluated.append(X)
        return evaluate(self, k, X)

    monkeypatch.setattr(BeamSolution, "evaluate", recording)
    got = initial_mismatch(initial, [beam], EPS, axes)
    monkeypatch.undo()
    X = np.concatenate(evaluated)
    lo, hi, _ = beam.bundle.tube_box(0)
    assert np.all((X >= lo) & (X <= hi))
    assert 0 < X.shape[0] < 41**3 / 8
    assert got == [_initial_mismatch_per_eps(initial, [beam], eps, axes) for eps in EPS]


def _outcome(measure):
    # (the warning message under error::RuntimeWarning or None, the value
    # with warnings ignored)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            measure()
            message = None
        except RuntimeWarning as exc:
            message = str(exc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return message, measure()


def test_mismatch_with_an_overflowing_bound_matches_per_eps():
    # Im psi reaches -18.75 on the grid: at eps <= 0.025 the bound's
    # exponential overflows at outside rows, so those rows get the exact
    # |h|, which overflows as the whole-grid measurement does
    spec = builtin_system("advection")
    comp = _quartic_component(0.0, 0.05)
    beam = build_beam(spec, comp, BeamParams(dt=5e-3, chart_radius=0.5))
    initial = InitialData(components=(comp,))
    axes = _mismatch_axes(spec, 2001)
    grid = InitialGrid(initial, [beam], axes)
    im = comp.psi(axes[0][_outside_rows(grid), None]).imag
    warned = 0
    for eps in EPS:
        got = _outcome(lambda: grid.mismatch(eps))
        want = _outcome(lambda: _initial_mismatch_per_eps(initial, [beam], eps, axes))
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])
        warned += got[0] is not None
    assert np.any(-im / EPS[-1] > np.log(np.finfo(float).max))
    assert warned and warned < len(EPS)


BLOCK_CASES = {
    "one block", "ragged last block", "tube across a block edge", "block without tube",
    "tile across a block edge", "ragged last tile", "tile without outside rows",
}


def _blocked_grids(monkeypatch, initial, beams, axes, sizes):
    """``InitialGrid`` for each (block, tile) size: its mismatches and
    warnings under error::RuntimeWarning equal the whole-grid oracle's, its
    field equals ``assemble_field``'s bit for bit.  Returns the block and
    tile cases met and the oracle's warning per eps (None without one)."""
    n = int(np.prod([ax.size for ax in axes]))
    want = [_outcome(lambda: _initial_mismatch_per_eps(initial, beams, eps, axes)) for eps in EPS]
    fields_want = [assemble_field(beams, eps, axes, 0.0).values for eps in EPS]
    met = set()
    for block, tile in sizes:
        monkeypatch.setattr("cgoptics.fields.GRID_BLOCK_ROWS", block)
        monkeypatch.setattr("cgoptics.fields.TILE", tile)
        grid = InitialGrid(initial, beams, axes)
        for eps, (message, value), field in zip(EPS, want, fields_want):
            got = _outcome(lambda: grid.mismatch(eps))
            assert got[0] == message
            assert np.float64(got[1]).view(np.uint64) == np.float64(value).view(np.uint64)
            np.testing.assert_array_equal(grid.field(eps).values, field)
        in_tube = np.isin(np.arange(n), grid._tube)
        edges = np.arange(block, n, block)
        cases = {
            "one block": block >= n,
            "ragged last block": n % block != 0,
            "tube across a block edge": bool(np.any(in_tube[edges - 1] & in_tube[edges])),
            "block without tube": not all(in_tube[r0 : r0 + block].any() for r0 in range(0, n, block)),
            "tile across a block edge": bool(np.any(edges % tile)),
            "ragged last tile": n % tile != 0,
            "tile without outside rows": any(
                in_tube[r0 : r0 + tile].all() for r0 in range(0, n, tile)
            ),
        }
        met |= {name for name, holds in cases.items() if holds}
    return met, [message for message, _ in want]


def test_blocked_mismatch_matches_the_whole_grid_bitwise(case, monkeypatch):
    spec, comp, beam = case
    initial = InitialData(components=(comp,))
    axes = _mismatch_axes(spec, 81 if spec.d > 1 else 2001)
    sizes = ((10_000, 512), (1000, 64), (64, 7), (29, 5), (1000, 10_000))
    met, _ = _blocked_grids(monkeypatch, initial, [beam], axes, sizes)
    assert met == BLOCK_CASES


def test_blocked_mismatch_with_an_overflowing_bound_matches_the_whole_grid(monkeypatch):
    # tiles whose bound overflows get the exact |h|, with the oracle's warning
    spec = builtin_system("advection")
    comp = _quartic_component(0.0, 0.05)
    beam = build_beam(spec, comp, BeamParams(dt=5e-3, chart_radius=0.5))
    initial = InitialData(components=(comp,))
    axes = _mismatch_axes(spec, 2001)
    sizes = ((4096, 512), (1000, 64), (64, 3), (1000, 4096))
    met, warned = _blocked_grids(monkeypatch, initial, [beam], axes, sizes)
    assert met == BLOCK_CASES
    assert any(warned) and not all(warned)


def test_mismatch_peak_memory_is_below_half_the_whole_grid_peak():
    # the 321^2 grid of a 2-D sweep, where whole-grid points, beam values
    # and initial terms take a warm initial_mismatch to a tracemalloc peak
    # of +20.8 MB; the blocks, the tube rows' values and the per-tile bound
    # take 4.9 MB (8.0 MB with one bound per outside row)
    cfg = bundled_scenario("acoustics3_beam")
    cfg.components[0]["n_r"] = 9
    cfg.dt = 0.02
    spec, initial, beams = build_scenario_beams(cfg)
    axes = _mismatch_axes(spec, 321)
    want = initial_mismatch(initial, beams, EPS, axes)     # fills the beam's lazy caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = initial_mismatch(initial, beams, EPS, axes)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 6.1e6


def test_sweep_entry_evaluates_the_start_grid_once(monkeypatch):
    # the t = 0 grid serves the mismatch, the solve's initial data and the
    # first comparison time: one evaluation per comparison time, and the
    # entry equals the one made of separate measurements
    cfg = bundled_scenario("variable_advection")
    spec, initial, beams = build_scenario_beams(cfg)
    eps = 0.1
    grid = _reference_grid(spec, eps)
    times = _comparison_times(spec, beams[0].bundle.n_t)
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
        spec.domain.final_time, times, cfl=REFERENCE_CFL,
        eps=eps, dpsi_max=_max_dpsi(initial, spec, grid),
    )
    v_series = [assemble_field(beams, eps, (grid,), t).values for t in times]
    errs = l2_error_curve(grid, ref.values, v_series, times, spec.domain)
    assert entry["initial_mismatch"] == initial_mismatch(initial, beams, [eps], (grid,))[0]
    assert entry["l2_sup"] == float(np.max(errs))
    assert entry["l2_curve"] == {f"{t:.6g}": float(e) for t, e in zip(times, errs)}
