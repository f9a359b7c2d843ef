"""Beam evaluation restricted to the tube.

``RayBundle.near_tube`` must keep every point the chart inversion calls
inside.  ``BeamSolution.evaluate`` charts only the points it keeps and
computes amplitudes only at charted points; the evaluate-then-zero
evaluation it replaced stays here as the oracle, and both must agree bit
for bit.  The stencil residual, one ``evaluate`` call per stencil point
set (the node's points, their 2d neighbours X +- h_x e_j and the points at
nodes k +- 1), stays as the oracle of ``residual_samples``, which differs
from it by the two stencils' truncations only (``test_chart_residual``).
"""

import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cgoptics.beams import BeamParams, build_beam
from cgoptics.fields import _beam_values, _superpose, assemble_field
from cgoptics.numerics import grid_points
from cgoptics.phase import eval_phase_at_node
from cgoptics.rays import RayBundle, evolve_frame, flow_out
from cgoptics.systems import builtin_system
from cgoptics.verification import residual_samples

from oracles import chart_map
from test_chart_residual import assert_within_truncations
from test_l0_chain_rule import _curved_line_component
from test_rays import _synthetic_chart, acoustics_line_component, wave2x2_component

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@functools.lru_cache(maxsize=None)
def _chart(name):
    if name == "curved_line":
        bundle = flow_out(builtin_system("acoustics3"), _curved_line_component(), T=0.25, dt=5e-4)
        evolve_frame(bundle)
        bundle.chart_radius = 0.2
        return bundle
    bundle = _synthetic_chart(curved=name.startswith("curved"))
    if name.endswith("sheared"):
        # frames that tilt against the chords and are not unit: the tube's
        # end faces lean out over the end rays, as the cap must allow
        tangent = bundle.tangents[..., 0] / np.linalg.norm(bundle.tangents[..., 0], axis=-1)[..., None]
        bundle.frames = bundle.frames + 0.7 * tangent[..., None]
    return bundle


_unit = st.floats(-1.0, 1.0, allow_subnormal=False)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(
        ["straight", "curved", "curved_line", "straight_sheared", "curved_sheared"]
    ),
    k_frac=st.floats(0.0, 1.0),
    inner=arrays(float, (24, 2), elements=_unit),
    ring=arrays(float, (12, 2), elements=_unit),
    ends=arrays(float, (12, 2), elements=_unit),
    faces=arrays(float, (12, 2), elements=_unit),
    far=arrays(float, (24, 2), elements=_unit),
)
def test_near_tube_keeps_every_charted_point(name, k_frac, inner, ring, ends, faces, far):
    bundle = _chart(name)
    k = int(round(k_frac * (bundle.n_t - 1)))
    R = bundle.chart_radius
    r_lo, r_hi = float(bundle.r[0]), float(bundle.r[-1])
    mid, half = 0.5 * (r_lo + r_hi), 0.5 * (r_hi - r_lo)
    # in the tube, with its rim |s| = R on both sides; the ring out to 1.2 R;
    # up to 0.3 of the r range beyond either end; on both end faces
    # r = r_lo, r_hi, rims included; and far outside
    s_in = R * inner[:, 1:]
    s_in[::4] = np.where(s_in[::4] < 0, -R, R)
    s_ring = R * np.sign(ring[:, 1:]) * (1.0 + 0.2 * np.abs(ring[:, 1:]))
    r_end = mid + np.sign(ends[:, 0]) * half * (1.0 + 0.3 * np.abs(ends[:, 0]))
    r_face = np.where(faces[:, 0] < 0, r_lo, r_hi)
    s_face = R * faces[:, 1:]
    s_face[::3] = np.where(s_face[::3] < 0, -R, R)
    extent = np.max(np.abs(bundle.x[k])) + R
    X = np.concatenate([
        chart_map(bundle, k, mid + half * inner[:, 0], s_in),
        chart_map(bundle, k, mid + half * ring[:, 0], s_ring),
        chart_map(bundle, k, r_end, R * ends[:, 1:]),
        chart_map(bundle, k, r_face, s_face),
        2.0 * extent * far,
    ])
    near = bundle.near_tube(k, X)
    _, _, inside = bundle.invert(k, X)
    assert inside[:24].any()
    assert not np.any(inside & ~near)
    # the bound rejects points clear of every ray segment's tube
    seg = np.max(np.linalg.norm(np.diff(bundle.x[k], axis=0), axis=-1))
    gap = np.min(np.linalg.norm(X[:, None] - bundle.x[k][None], axis=-1), axis=1)
    assert not np.any(near & (gap > 1.5 * R + seg))


def test_near_tube_cuts_the_straight_tube_at_its_end_faces():
    # the straight chart: rays x = (t, r), frames e = (+-1, 0), no sagitta.
    # A kept point lies at most the pad (1e-6 (1 + max|x| + reach + |c|/H),
    # below 4e-6 here) beyond an end face x2 = r_lo, r_hi; every tube point
    # is kept.  Clamped chords alone kept half-discs of radius R beyond them
    bundle = _chart("straight")
    R = bundle.chart_radius
    r_lo, r_hi = float(bundle.r[0]), float(bundle.r[-1])
    for k in (0, bundle.n_t // 2, bundle.n_t - 1):
        s = np.linspace(-1.2 * R, 1.2 * R, 49)
        r = np.concatenate([np.linspace(r_lo - R, r_hi + R, 161),
                            r_lo + np.geomspace(1e-7, 1e-3, 9) * [[-1], [1]],
                            r_hi + np.geomspace(1e-7, 1e-3, 9) * [[-1], [1]]], axis=None)
        S, Rr = np.meshgrid(s, r)
        X = np.stack([bundle.x[k, 0, 0] + S.ravel(), Rr.ravel()], axis=-1)
        near = bundle.near_tube(k, X)
        beyond = np.maximum(r_lo - X[:, 1], X[:, 1] - r_hi)
        assert np.max(beyond[near]) <= 4e-6
        in_tube = (beyond <= 0) & (np.abs(X[:, 0] - bundle.x[k, 0, 0]) <= R)
        assert np.all(near[in_tube])
        assert np.any(near & (beyond > 0)) and np.any(~near & (beyond > 0) & (beyond < 1e-5))


def _point_chart(d, sheared):
    # a point beam's chart in d dimensions, the point moving along x1: the
    # identity frame evolve_frame sets, or a sheared and scaled frame with
    # its inverse, where ||e^-T||_2 > 1
    t = np.linspace(0.0, 0.5, 6)
    x = np.zeros((t.size, 1, d))
    x[:, 0, 0] = t
    bundle = RayBundle(
        spec_name="synthetic", mode=0, t=t, r=None, x=x, xi=np.zeros_like(x), v=np.zeros_like(x),
    )
    evolve_frame(bundle)
    if sheared:
        e = np.diag(np.linspace(1.0, 0.5, d)) + np.triu(np.full((d, d), 0.7), 1)
        bundle.frames = np.broadcast_to(e, bundle.frames.shape).copy()
        bundle.jacobian_inv = np.linalg.inv(bundle.frames)
    bundle.chart_radius = 0.3
    return bundle


def _in_box(X, lo, hi):
    return np.all((X >= lo) & (X <= hi), axis=1)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(
        ["straight", "curved", "curved_line", "point2", "point3", "point3_sheared"]
    ),
    k_frac=st.floats(0.0, 1.0),
    inner=arrays(float, (24, 3), elements=_unit),
    ring=arrays(float, (12, 3), elements=_unit),
    far=arrays(float, (24, 3), elements=_unit),
)
def test_tube_box_holds_every_charted_point(name, k_frac, inner, ring, far):
    # the box InitialGrid evaluates a beam in: every point invert calls
    # inside lies in it, for line charts and for point beams in d = 2, 3
    if name.startswith("point"):
        bundle = _point_chart(int(name[5]), name.endswith("sheared"))
    else:
        bundle = _chart(name)
    k = int(round(k_frac * (bundle.n_t - 1)))
    d, R = bundle.d, bundle.chart_radius
    inner, ring, far = inner[:, :d], ring[:, :d], far[:, :d]
    if bundle.d1:
        mid, half = 0.5 * (bundle.r[0] + bundle.r[-1]), 0.5 * (bundle.r[-1] - bundle.r[0])
        s_in = R * inner[:, 1:]
        s_in[::4] = np.where(s_in[::4] < 0, -R, R)
        X = np.concatenate([
            chart_map(bundle, k, mid + half * inner[:, 0], s_in),
            chart_map(bundle, k, mid + 1.3 * half * ring[:, 0], R * ring[:, 1:]),
        ])
    else:
        # s in the cube of side 2R, on the rim |s| = R, and out to 1.2 R
        unit = ring / np.maximum(np.linalg.norm(ring, axis=1, keepdims=True), 1e-3)
        s = np.concatenate([R * inner, R * unit, R * (1.0 + 0.2 * np.abs(ring[:, :1])) * unit])
        X = bundle.x[k, 0] + s @ bundle.jacobian_inv[k, 0]
    X = np.concatenate([X, 2.0 * (np.max(np.abs(bundle.x[k])) + R) * far])
    lo, hi, _ = bundle.tube_box(k)
    _, _, inside = bundle.invert(k, X)
    assert inside.any()
    assert not np.any(inside & ~_in_box(X, lo, hi))
    # near_tube keeps every charted point and no point outside the box; a
    # point beam's test is the box
    near = bundle.near_tube(k, X)
    assert not np.any(inside & ~near)
    if bundle.d1:
        assert not np.any(near & ~_in_box(X, lo, hi))
    else:
        np.testing.assert_array_equal(near, _in_box(X, lo, hi))
    if name in ("point2", "point3"):
        # the identity frame's box is the cube around the ball |X - x| <= R
        np.testing.assert_allclose(hi - bundle.x[k, 0], R, rtol=1e-5)
        np.testing.assert_allclose(bundle.x[k, 0] - lo, R, rtol=1e-5)


def _evaluate_then_zero(beam, k, X, eps):
    # the evaluation the tube-restricted evaluate replaced: chart and
    # evaluate every point, then zero the points outside the tube
    bundle = beam.bundle
    X = np.atleast_2d(np.asarray(X, dtype=float))
    pv = eval_phase_at_node(beam.jet, bundle, k, X)
    r_eval = np.clip(pv.r, bundle.r[0], bundle.r[-1]) if bundle.d1 else pv.r
    a = bundle.interp_over_r(k, beam.transport.a[k], r_eval)
    lin = bundle.interp_over_r(k, beam.ext.lin_a[k], r_eval)
    quad = bundle.interp_over_r(k, beam.ext.quad_a[k], r_eval)
    s = pv.s
    g = (
        a
        + np.einsum("mi,mia->ma", s, lin)
        + 0.5 * np.einsum("mi,mj,mija->ma", s, s, quad)
    )
    g = g + eps * bundle.interp_over_r(k, beam.corrector[k], r_eval)
    g = g * beam.cutoff(np.linalg.norm(s, axis=-1))[:, None]
    g = np.where(pv.inside[:, None], g, 0.0)
    return g, pv


@pytest.fixture(scope="module", params=["acoustics3_line", "wave2x2_point"])
def beam(request):
    if request.param == "acoustics3_line":
        spec = builtin_system("acoustics3")
        comp = acoustics_line_component(np.linspace(-0.4, 0.4, 9))
        params = BeamParams(dt=4e-3, chart_radius=0.4, ext_stride=25, corrector_stride=25)
    else:
        spec = builtin_system("wave2x2")
        comp = wave2x2_component()
        params = BeamParams(dt=4e-3, chart_radius=1.0)
    return spec, build_beam(spec, comp, params)


def _probe_points(beam, k):
    # a grid over the domain, plus points around the end rays, where a line
    # beam's tube slides along its own axis from node to node
    bundle = beam.bundle
    dom = beam.spec.domain
    axes = [np.linspace(c - dom.radius, c + dom.radius, 61) for c in dom.center]
    pts = [grid_points(axes)]
    if bundle.d1:
        s = np.linspace(-1.1, 1.1, 23)[:, None] * bundle.chart_radius
        for i in (0, -1):
            for shift in np.linspace(-0.05, 0.05, 5):
                pts.append(bundle.chart_points(k, i, s) + shift * bundle.tangents[k, i, :, 0])
    return np.concatenate(pts)


@pytest.mark.parametrize("eps", [0.1, 0.0125])
def test_evaluate_matches_evaluate_then_zero(beam, eps):
    _, beam = beam
    n_t = beam.bundle.n_t
    for k in (0, n_t // 3, n_t - 1):
        X = _probe_points(beam, k)
        vals = beam.evaluate(k, X)
        g = vals.g(eps)
        g_ref, pv_ref = _evaluate_then_zero(beam, k, X, eps)
        np.testing.assert_array_equal(vals.full("inside"), pv_ref.inside)
        assert vals.full("inside").any() and not vals.full("inside").all()
        np.testing.assert_array_equal(g, g_ref)
        ins = vals.full("inside")
        for name in ("phi", "r", "s"):
            np.testing.assert_array_equal(vals.full(name)[ins], getattr(pv_ref, name)[ins])


def test_off_node_field_matches_a_per_point_oracle_bitwise(beam):
    # between two nodes a row inside the tube at one node only reads the
    # other node's phase at clamped r: fields._beam_values charts the points
    # near either node's tube at both.  The oracle charts every point at both
    # nodes.  Points across the rims and, for the line beam, the end faces,
    # which the tube crosses between the nodes
    _, beam = beam
    bundle = beam.bundle
    k0 = bundle.n_t // 3
    t = bundle.t[k0] + 0.37 * bundle.dt
    assert bundle.locate_time(t)[:2] == (k0, k0 + 1)
    R = bundle.chart_radius
    rims = np.outer([-1, 1], 1 + np.linspace(-0.02, 0.02, 21)).ravel()
    s = R * np.concatenate([np.linspace(-1.1, 1.1, 23), rims])
    X = [_probe_points(beam, k0)] + [bundle.chart_points(k0, i, s[:, None]) for i in range(bundle.n_r)]
    if bundle.d1:
        for i in (0, -1):
            for shift in np.linspace(-0.02, 0.02, 21):
                X.append(bundle.chart_points(k0, i, s[:, None]) + shift * bundle.tangents[k0, i, :, 0])
    X = np.concatenate(X)
    eps = 0.0125
    total = np.zeros((X.shape[0], beam.spec.N), dtype=complex)
    _superpose(_beam_values([beam], X, t), eps, t, total)
    g0, pv0 = _evaluate_then_zero(beam, k0, X, eps)
    g1, pv1 = _evaluate_then_zero(beam, k0 + 1, X, eps)
    assert np.any(pv0.inside & ~pv1.inside) and np.any(pv1.inside & ~pv0.inside)
    w = bundle.locate_time(t)[2]
    g = (1 - w) * g0 + w * g1
    phi = (1 - w) * pv0.phi + w * pv1.phi
    want = np.zeros_like(total)
    active = np.linalg.norm(g, axis=-1) > 0.0
    want[active] += g[active] * np.exp(1j * phi[active] / eps)[:, None]
    if bundle.d1:
        # across the end faces the cutoff, a function of |s|, is not 0 (a
        # point beam's rims lie beyond its cutoff radius)
        assert np.any(want[pv0.inside ^ pv1.inside] != 0)
    np.testing.assert_array_equal(total, want)


def test_field2d_inverts_the_chart_only_inside_the_tube(monkeypatch):
    # the field2d benchmark beam (seed 100) at each comparison time: invert
    # receives exactly the points it calls inside the tube
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    field2d = workloads.WORKLOADS["field2d"]
    state = field2d.build(field2d.make_config(workloads.params_for_seed("field2d", field2d.lattice, 100)))
    calls = []
    invert = RayBundle.invert

    def counted(self, k, X):
        out = invert(self, k, X)
        calls.append((X.shape[0], int(np.count_nonzero(out[2]))))
        return out

    monkeypatch.setattr(RayBundle, "invert", counted)
    for t in state["times"]:
        calls.clear()
        assemble_field(state["beams"], state["eps"][0], state["axes"], t)
        assert len(calls) == 1 and calls[0][1] > 0
        assert calls[0][0] == calls[0][1], (t, calls)


@pytest.mark.parametrize("beam", ["acoustics3_line"], indirect=True)
def test_evaluate_far_points_charts_nothing(beam, monkeypatch):
    # a block with no point near the tube gets the zero-row values of a
    # block with near points, and no chart inversion
    _, beam = beam
    k = beam.bundle.n_t // 3
    charted = beam.evaluate(k, _probe_points(beam, k))
    dom = beam.spec.domain
    X = dom.center + 3 * dom.radius * np.array([[1.0, 0.0], [-0.6, 0.8], [0.0, -1.0]])
    assert not beam.bundle.near_tube(k, X).any()

    def no_invert(*args):
        raise AssertionError("invert called on a block with no near point")

    monkeypatch.setattr(RayBundle, "invert", no_invert)
    vals = beam.evaluate(k, X)
    assert vals.m == 3
    for name in ("near", "idx"):
        assert getattr(vals, name).dtype == np.intp and getattr(vals, name).shape == (0,)
    for name in ("phi", "r", "s", "inside", "base", "corr", "cut"):
        got, want = getattr(vals, name), getattr(charted, name)
        assert got.dtype == want.dtype and got.shape == (0,) + want.shape[1:], name
    g = vals.g(0.1)
    assert g.dtype == charted.g(0.1).dtype and g.shape == (3, beam.spec.N) and not g.any()
    for name in ("phi", "r", "s", "inside"):
        full = vals.full(name)
        assert full.dtype == charted.full(name).dtype and full.shape[0] == 3 and not full.any()


def _assemble_evaluate_then_zero(beam, eps, axes, t):
    # assemble_field of one beam on the evaluate-then-zero evaluation
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    pts = grid_points(axes)
    k0, k1, w = beam.bundle.locate_time(t)
    g, pv = _evaluate_then_zero(beam, k0, pts, eps)
    phi = pv.phi
    if k1 != k0:
        g1, pv1 = _evaluate_then_zero(beam, k1, pts, eps)
        g = (1 - w) * g + w * g1
        phi = (1 - w) * phi + w * pv1.phi
    total = np.zeros(g.shape, dtype=complex)
    active = np.linalg.norm(g, axis=-1) > 0.0
    total[active] += g[active] * np.exp(1j * phi[active] / eps)[:, None]
    return total.reshape(tuple(ax.size for ax in axes) + g.shape[-1:])


def test_assemble_field_matches_evaluate_then_zero(beam):
    _, beam = beam
    bundle = beam.bundle
    dom = beam.spec.domain
    axes = [np.linspace(c - dom.radius, c + dom.radius, 81) for c in dom.center]
    t = bundle.t[bundle.n_t // 2] + 0.37 * bundle.dt
    k0, k1, _ = bundle.locate_time(t)
    assert k1 == k0 + 1
    got = assemble_field([beam], 0.0125, axes, t).values
    want = _assemble_evaluate_then_zero(beam, 0.0125, axes, t)
    assert np.any(got != 0)
    np.testing.assert_array_equal(got, want)


def _residual_samples_separate(spec, beam, eps, h_x, n_t_samples=9, n_s=160, margin=1.05,
                               r_trim=2):
    # the stencil residual with one evaluate call per stencil point set:
    # central differences in x with step h_x, at fixed x over the nodes k +- 1
    bundle = beam.bundle
    d, d2, dt = bundle.d, bundle.d2, bundle.dt
    ks = np.unique(np.linspace(2, bundle.n_t - 3, n_t_samples).astype(int))
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
    for k in ks:
        X = np.concatenate([bundle.chart_points(k, i, s_grid) for i in rays])
        vals = beam.evaluate(k, X)
        # evaluate reads the phase alone; its gradient at the same points
        pv = eval_phase_at_node(beam.jet, bundle, k, X)
        g0 = vals.g(eps)
        gp = beam.evaluate(k + 1, X).g(eps)
        gm = beam.evaluate(k - 1, X).g(eps)
        bvec = (gp - gm) / (2.0 * dt)
        for j in range(d):
            ej = np.zeros(d)
            ej[j] = h_x
            fp = beam.evaluate(k, X + ej).g(eps)
            fm = beam.evaluate(k, X - ej).g(eps)
            aj = np.asarray(spec.coeff_A(bundle.t[k], X, j))
            bvec = bvec + np.einsum("mab,mb->ma", aj, (fp - fm) / (2.0 * h_x))
        bmat = np.asarray(spec.coeff_B(bundle.t[k], X))
        bvec = bvec + np.einsum("mab,mb->ma", bmat, g0)
        sym = np.zeros((X.shape[0], spec.N, spec.N), dtype=complex)
        for j in range(d):
            aj = np.asarray(spec.coeff_A(bundle.t[k], X, j))
            sym = sym + aj * pv.dx[:, j][:, None, None]
        osc = 1j / eps * (pv.dt[:, None] * g0 + np.einsum("mab,mb->ma", sym, g0))
        total = np.where(vals.full("inside")[:, None], bvec + osc, 0.0)
        weight = np.where(vals.full("inside"), np.exp(-vals.full("phi").imag / eps), 0.0)
        out.append(np.linalg.norm(total, axis=-1) * weight)
    return np.concatenate(out)


def test_stacked_residual_stencil_matches_separate_calls(beam):
    spec, beam = beam
    got = residual_samples(spec, beam, [0.025])[0]
    want = _residual_samples_separate(spec, beam, 0.025, h_x=beam.bundle.dt)
    assert_within_truncations(spec, beam, 0.025, got, want)
