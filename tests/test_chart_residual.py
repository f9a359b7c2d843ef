"""The residual at chart coordinates against the stencils it replaced.

``residual_samples`` evaluates each sampled node once, at the chart points
(r_i, s) of the ray knots.  ``prefactor_jet`` gives the prefactor's exact
x-gradient, J^-T times its (r, s)-gradient, and its time derivative at
fixed x by the chain rule: a central difference at fixed (r, s) less
d_x g . dX/dt.  The oracles are the stencils this replaced: central
differences of ``BeamSolution.evaluate`` in x with step h_x, and at fixed x
over the nodes k +- 1.  Each converges onto the exact value at second
order, and the whole residual agrees with the stencil residual (kept in
``test_tube`` and ``test_shared_locate``, with an h_x argument) to within
the sum of the two truncations, ``truncation_bound``.
"""

import dataclasses
import functools

import numpy as np
import pytest

from cgoptics.beams import BeamParams, build_beam
from cgoptics.numerics import grid_points
from cgoptics.phase import eval_phase_at_offsets
from cgoptics.systems import builtin_system
from cgoptics.verification import prefactor_jet, residual_samples

from test_l0_chain_rule import _curved_line_component
from test_rays import acoustics_line_component, gaussian_point_component

EPS = 0.025
BEAMS = ["acoustics3_line", "variable_advection", "curved_line"]


@functools.lru_cache(maxsize=None)
def _beam(name, refine=1):
    """(spec, beam) at the base dt divided by ``refine``; explicit strides
    scale with it, so the strided nodes keep their times."""
    if name == "acoustics3_line":
        spec = builtin_system("acoustics3")
        comp = acoustics_line_component(np.linspace(-0.4, 0.4, 9))
        params = BeamParams(
            dt=4e-3 / refine, chart_radius=0.4,
            ext_stride=25 * refine, corrector_stride=25 * refine,
        )
    elif name == "variable_advection":
        spec = builtin_system("variable_advection")
        comp = gaussian_point_component()
        params = BeamParams(dt=1e-3 / refine, chart_radius=3.5)
    else:
        # the rays fan out and the frames turn along r
        spec = builtin_system("acoustics3")
        spec = dataclasses.replace(
            spec, domain=dataclasses.replace(spec.domain, final_time=0.25)
        )
        comp = _curved_line_component(r_vals=np.linspace(-0.2, 0.2, 9))
        params = BeamParams(dt=2.5e-3 / refine, chart_radius=0.2, ext_stride=1, corrector_stride=1)
    return spec, build_beam(spec, comp, params)


def sample_grid(beam, n_t_samples=9, n_s=160, margin=1.05, r_trim=2):
    """The nodes, rays and offsets ``residual_samples`` samples."""
    bundle = beam.bundle
    ks = np.unique(np.linspace(2, bundle.n_t - 3, n_t_samples).astype(int))
    smax = margin * beam.cutoff.radius
    if bundle.d2 == 1:
        s = np.linspace(-smax, smax, n_s)[:, None]
    else:
        side = max(9, int(np.sqrt(n_s)))
        s = grid_points([np.linspace(-smax, smax, side)] * bundle.d2)
        s = s[np.linalg.norm(s, axis=-1) <= smax]
    if bundle.d1 and bundle.n_r > 2 * r_trim:
        rays = np.arange(r_trim, bundle.n_r - r_trim)
    else:
        rays = np.arange(bundle.n_r)
    return ks, rays, s


def exact_jets(beam, k, rays, s, eps):
    """Chart points X and the exact (g, d_x g, d_t g) there."""
    X, pv = eval_phase_at_offsets(beam.jet, beam.bundle, k, rays, s)
    return X, prefactor_jet(beam, k, rays, s, pv).at(eps)


def x_stencil(beam, k, X, eps, h):
    """Central differences of the evaluated prefactor in each x_j, (m, d, N)."""
    g = lambda points: beam.evaluate(k, points).g(eps)
    steps = h * np.eye(beam.bundle.d)
    return np.stack([(g(X + e) - g(X - e)) / (2 * h) for e in steps], axis=1)


def t_stencil(beam, k, X, eps):
    """The central difference of the evaluated prefactor at fixed x over k +- 1."""
    return (beam.evaluate(k + 1, X).g(eps) - beam.evaluate(k - 1, X).g(eps)) / (2 * beam.bundle.dt)


def truncation_bound(spec, beam, eps, h_x):
    """The largest sum over the residual's samples of the two stencils'
    truncations, sum_j ||A_j||_2 |D_hx g - d_j g| + |D_t g - d_t g|: a bound
    on |L_stencil - L_exact| at every sample (the weight is at most 1)."""
    bundle = beam.bundle
    ks, rays, s = sample_grid(beam)
    worst = 0.0
    for k in ks:
        X, (_, dx, dt) = exact_jets(beam, k, rays, s, eps)
        err_x = np.linalg.norm(x_stencil(beam, k, X, eps, h_x) - dx, axis=-1)
        norm_a = np.stack([
            np.linalg.norm(np.asarray(spec.coeff_A(bundle.t[k], X, j)), ord=2, axis=(-2, -1))
            for j in range(bundle.d)
        ], axis=-1)
        err_t = np.linalg.norm(t_stencil(beam, k, X, eps) - dt, axis=-1)
        worst = max(worst, float(np.max(np.sum(norm_a * err_x, axis=-1) + err_t)))
    return worst


def assert_within_truncations(spec, beam, eps, got, want):
    """``got`` agrees with the stencil residual ``want`` (h_x = dt) to within
    the truncation bound, plus 1e-9 of the largest sample for the chart
    inversion the stencil makes."""
    assert np.max(want) > 0
    bound = truncation_bound(spec, beam, eps, beam.bundle.dt)
    assert np.max(np.abs(got - want)) <= bound + 1e-9 * np.max(want)


@pytest.mark.parametrize("name", BEAMS)
def test_exact_x_gradient_against_x_stencil(name):
    # (a) the error of the central x-difference falls by 4 per halving
    _, beam = _beam(name)
    ks, rays, s = sample_grid(beam)
    h0 = beam.bundle.dt
    errs = np.zeros(3)
    for k in ks:
        X, (_, dx, _) = exact_jets(beam, k, rays, s, EPS)
        for i, h in enumerate((h0, h0 / 2, h0 / 4)):
            errs[i] = max(errs[i], np.max(np.abs(x_stencil(beam, k, X, EPS, h) - dx)))
    assert errs[0] > 0
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.0 <= coarse / fine <= 5.0


@pytest.mark.parametrize("name", BEAMS)
def test_chain_rule_time_derivative_against_fixed_x_stencil(name):
    # (b) the chain rule and the fixed-x difference differ by O(dt^2)
    _, coarse = _beam(name)
    _, fine = _beam(name, refine=2)
    assert fine.cutoff.radius == coarse.cutoff.radius
    ks, rays, s = sample_grid(coarse)
    diff, scale = [0.0, 0.0], 0.0
    for k in ks:
        for i, (beam, kk) in enumerate(((coarse, k), (fine, 2 * k))):
            X, (_, _, dt) = exact_jets(beam, kk, rays, s, EPS)
            diff[i] = max(diff[i], float(np.max(np.abs(t_stencil(beam, kk, X, EPS) - dt))))
            scale = max(scale, float(np.max(np.abs(dt))))
    if name == "acoustics3_line":
        # the rays run along the line, whose data do not vary along it: fixed
        # x and fixed (r, s) see the same values, and both agree to rounding
        assert max(diff) <= 1e-10 * scale
    else:
        assert 3.0 <= diff[0] / diff[1] <= 5.0


@pytest.mark.parametrize("name", BEAMS)
def test_residual_against_stencil_within_truncations(name):
    # (c) the whole residual against the stencil residual at h_x = dt
    from test_tube import _residual_samples_separate

    spec, beam = _beam(name)
    got = residual_samples(spec, beam, [EPS])[0]
    want = _residual_samples_separate(spec, beam, EPS, h_x=beam.bundle.dt)
    assert_within_truncations(spec, beam, EPS, got, want)
