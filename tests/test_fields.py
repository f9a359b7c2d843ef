import warnings

import numpy as np
import pytest

from cgoptics.beams import BeamParams, build_beam
from cgoptics.errors import TubeOverlapError
from cgoptics.fields import (
    Cutoff,
    assemble_field,
    eval_initial_data,
    initial_mismatch,
)
from cgoptics.rays import InitialData
from cgoptics.systems import builtin_system

from test_rays import gaussian_point_component


@pytest.fixture(scope="module")
def advection_setup():
    spec = builtin_system("advection")
    comp = gaussian_point_component()
    params = BeamParams(dt=2.5e-4, chart_radius=3.8)
    beam = build_beam(spec, comp, params)
    return spec, comp, beam


def test_cutoff_plateau_profile():
    cut = Cutoff(radius=2.0)
    s = np.array([0.0, 0.5, 1.0, 1.2, 1.9, 2.0, 2.5])
    vals = cut(s)
    assert vals[0] == 1.0
    assert vals[1] == 1.0
    assert vals[2] == 1.0          # plateau extends to radius/2
    assert 0.0 < vals[3] < 1.0
    assert 0.0 < vals[4] < 0.05
    assert vals[5] == 0.0
    assert vals[6] == 0.0


def test_cutoff_smooth_monotone():
    cut = Cutoff(radius=1.0)
    s = np.linspace(0, 1.2, 400)
    v = cut(s)
    assert np.all(np.diff(v) <= 1e-12)
    assert np.all(v >= 0) and np.all(v <= 1)


def test_cutoff_derivative_matches_central_differences():
    cut = Cutoff(radius=2.0)
    s = np.linspace(-2.3, 2.3, 461)
    exact = cut.derivative(s)
    np.testing.assert_array_equal(cut.derivative(-s), -exact)
    # the error of the central difference falls by 4 per halving: O(h^2)
    errs = [
        np.max(np.abs((cut(s + h) - cut(s - h)) / (2 * h) - exact))
        for h in (4e-3, 2e-3, 1e-3)
    ]
    assert errs[-1] < 1e-5 * np.max(np.abs(exact))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.0 <= coarse / fine <= 5.0


def test_cutoff_derivative_zero_where_flat_and_quiet_at_the_ends():
    R = 2.0
    cut = Cutoff(radius=R)
    ends = np.array([0.5 * R, R])
    near = np.concatenate([
        ends, np.nextafter(ends, 0.0), np.nextafter(ends, np.inf),
        ends * (1 - 1e-9), ends * (1 + 1e-9), ends * (1 - 1e-3), ends * (1 + 1e-3),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = cut.derivative(np.concatenate([near, -near]))
        assert np.all(np.isfinite(values))
        flat = np.linspace(0.0, 0.5 * R, 101)
        outside = np.concatenate([np.linspace(R, 3 * R, 101), [np.inf]])
        for s in (flat, outside):
            assert np.all(cut.derivative(s) == 0.0)
            assert np.all(cut.derivative(-s) == 0.0)
    # the derivative is negative on the ramp (R/2, R)
    inner = np.linspace(0.5 * R, R, 52)[1:-1]
    assert np.all(cut.derivative(inner) < 0)


def test_eval_initial_data_advection_values():
    comp = gaussian_point_component()
    initial = InitialData(components=(comp,))
    grid = np.array([0.0, 0.5])
    fg = eval_initial_data(initial, 0.1, (grid,))
    # psi = x + i x^2/2, h = 1: at x=0 -> 1; at x=0.5 -> e^{5i} e^{-1.25}
    assert fg.values[0, 0] == pytest.approx(1.0)
    expected = np.exp(5j) * np.exp(-1.25)
    assert fg.values[1, 0] == pytest.approx(expected, abs=1e-14)


def test_initial_envelope_width_scaling():
    comp = gaussian_point_component()
    initial = InitialData(components=(comp,))
    eps = 0.04
    grid = np.array([0.0, np.sqrt(eps)])
    fg = eval_initial_data(initial, eps, (grid,))
    ratio = abs(fg.values[1, 0]) / abs(fg.values[0, 0])
    assert ratio == pytest.approx(np.exp(-0.5), abs=1e-12)


def test_assemble_on_ray_value(advection_setup):
    spec, comp, beam = advection_setup
    eps = 0.05
    t = 0.25
    grid = np.array([0.15, 0.25, 0.35])
    fg = assemble_field([beam], eps, (grid,), t)
    # node on the ray: amplitude 1, cutoff 1, phase phi(t, x=t) = 0
    assert fg.values[1, 0] == pytest.approx(1.0, abs=1e-10)
    # off-ray: |v| = e^{-(x-t)^2/(2 eps)}
    expected = np.exp(-0.01 / (2 * eps))
    assert abs(fg.values[2, 0]) == pytest.approx(expected, abs=1e-10)


def test_exponential_suppression_far_from_ray(advection_setup):
    spec, comp, beam = advection_setup
    eps = 0.05
    # chi/eps = 25 at s = sqrt(2*25*eps) = sqrt(2.5)
    s = np.sqrt(2 * 25 * eps)
    grid = np.array([s])
    fg = assemble_field([beam], eps, (grid,), 0.0)
    assert abs(fg.values[0, 0]) <= np.exp(-25) * 1.0001


def test_two_disjoint_beams_superpose():
    spec = builtin_system("advection")
    comp_a = gaussian_point_component(x0=-2.5)
    comp_b = gaussian_point_component(x0=2.5)
    params = BeamParams(dt=5e-4, chart_radius=1.0)
    beam_a = build_beam(spec, comp_a, params)
    beam_b = build_beam(spec, comp_b, params)
    grid = np.linspace(-4.0, 4.0, 801)
    eps = 0.05
    both = assemble_field([beam_a, beam_b], eps, (grid,), 0.2)
    only_a = assemble_field([beam_a], eps, (grid,), 0.2)
    only_b = assemble_field([beam_b], eps, (grid,), 0.2)
    np.testing.assert_array_equal(both.values, only_a.values + only_b.values)


def test_tube_overlap_detected():
    spec = builtin_system("advection")
    comp_a = gaussian_point_component(x0=-0.5)
    comp_b = gaussian_point_component(x0=0.5)
    params = BeamParams(dt=5e-4, chart_radius=2.0)
    beam_a = build_beam(spec, comp_a, params)
    beam_b = build_beam(spec, comp_b, params)
    grid = np.linspace(-1.0, 1.0, 101)
    with pytest.raises(TubeOverlapError):
        assemble_field([beam_a, beam_b], 0.05, (grid,), 0.0)


def test_mismatch_quadratic_phase_negligible(advection_setup):
    spec, comp, beam = advection_setup
    initial = InitialData(components=(comp,))
    grid = np.linspace(-6.0, 6.0, 4801)
    m = initial_mismatch(initial, [beam], [0.1], (grid,))[0]
    assert m <= 1e-10


def test_grid_refinement_does_not_move_sup(advection_setup):
    # field evaluation is pointwise; with the peak node shared by both grids
    # the sup is unchanged under refinement
    spec, comp, beam = advection_setup
    eps = 0.05
    t = 0.25
    coarse = np.linspace(t - 2.0, t + 2.0, 401)
    fine = np.linspace(t - 2.0, t + 2.0, 801)
    sup_c = np.max(np.abs(assemble_field([beam], eps, (coarse,), t).values))
    sup_f = np.max(np.abs(assemble_field([beam], eps, (fine,), t).values))
    assert abs(sup_c - sup_f) <= 1e-8
