"""The stacked chart solve, the column-wise short-axis reductions and the
cubic-spline helpers of ``cgoptics.numerics`` against the numpy and scipy
calls they replace."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import CubicSpline, PPoly

import cgoptics
from cgoptics.numerics import (
    CUBIC_BLOCK_VALUES,
    CubicPoints,
    SingularStackError,
    cubic_columns,
    not_a_knot,
    row_all,
    row_any,
    row_max,
    row_norm,
    row_sumsq,
    solve_stacked,
)

from test_rays import _chart_jacobian_at, _synthetic_chart

# closed-form 2x2 against LAPACK, relative to |x| per system: both are within
# a few ulp times cond(J) of the exact solution, and these Jacobians have
# cond(J) < 4 (measured: 4.7e-16 real, 4.5e-16 complex)
SOLVE_REL = 1e-15


def _curved_jacobians():
    # [dx/dr | e] at every node of the curved synthetic chart, on the rays
    # and at offsets across the tube
    bundle = _synthetic_chart(curved=True)
    s = np.linspace(-bundle.chart_radius, bundle.chart_radius, 7)
    r = np.repeat(np.linspace(bundle.r[0], bundle.r[-1], 23), s.size)
    s = np.tile(s, 23)[:, None]
    return np.concatenate(
        [_chart_jacobian_at(bundle, k, r, s)[1] for k in range(bundle.n_t)]
    )


def _rel_err(x, ref):
    return np.max(np.linalg.norm(x - ref, axis=-1) / np.linalg.norm(ref, axis=-1))


@pytest.mark.parametrize("transpose", [False, True])
def test_solve_stacked_matches_lapack_on_chart_jacobians(transpose):
    J = _curved_jacobians()
    if transpose:
        # phase_gradient_at solves J^T d_x phi = d_(r,s) phi
        J = np.swapaxes(J, -1, -2)
    rng = np.random.default_rng(7)
    b = rng.standard_normal((J.shape[0], 2))
    bc = b + 1j * rng.standard_normal(b.shape)
    assert np.max(np.linalg.cond(J)) < 4.0
    x = solve_stacked(J, b)
    assert x.dtype == float
    assert _rel_err(x, np.linalg.solve(J, b[..., None])[..., 0]) <= SOLVE_REL
    xc = solve_stacked(J, bc)
    assert xc.dtype == complex
    assert _rel_err(xc, np.linalg.solve(J.astype(complex), bc[..., None])[..., 0]) <= SOLVE_REL
    # a complex right-hand side solves as its real and imaginary parts
    np.testing.assert_array_equal(xc.real, solve_stacked(J, bc.real))
    np.testing.assert_array_equal(xc.imag, solve_stacked(J, bc.imag))


def test_solve_stacked_3x3_falls_back_to_lapack():
    # the 2x2 chart Jacobians bordered by a third row and column
    J2 = _curved_jacobians()
    J = np.zeros((J2.shape[0], 3, 3))
    J[:, :2, :2] = J2
    J[:, 2, :2] = 0.3 * J2[:, 0]
    J[:, :2, 2] = -0.2
    J[:, 2, 2] = 1.5
    rng = np.random.default_rng(8)
    b = rng.standard_normal((J.shape[0], 3))
    bc = b + 1j * rng.standard_normal(b.shape)
    np.testing.assert_array_equal(solve_stacked(J, b), np.linalg.solve(J, b[..., None])[..., 0])
    np.testing.assert_array_equal(
        solve_stacked(J, bc), np.linalg.solve(J.astype(complex), bc[..., None])[..., 0]
    )


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("rhs", [float, complex])
def test_solve_stacked_raises_on_exactly_singular_systems(d, rhs):
    J = np.tile(np.eye(d), (6, 1, 1))
    J[3, :, 0] = 0.0                    # a zero column
    J[5, 1] = 2.0 * J[5, 0]             # proportional rows
    b = np.ones((6, d), dtype=rhs)
    with pytest.raises(SingularStackError, match="stack index 3") as info:
        solve_stacked(J, b)
    assert info.value.first == 3
    assert isinstance(info.value, np.linalg.LinAlgError)


_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)
_reals = st.integers(1, 9).flatmap(
    lambda w: arrays(float, st.tuples(st.integers(0, 6), st.just(w)), elements=_floats)
)
_complexes = st.integers(1, 9).flatmap(
    lambda w: arrays(
        complex,
        st.tuples(st.integers(0, 6), st.just(w)),
        elements=st.complex_numbers(allow_nan=True, allow_infinity=True),
    )
)


def _bits_equal(got, want):
    # every bit, signed zeros included, except a NaN's sign and payload:
    # np.max returns the input NaN on one column but a new one on several,
    # row_max the NaN it meets, and no caller reads them
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(x=st.one_of(_reals, _complexes), lead=st.booleans())
def test_row_reductions_match_numpy_bitwise(x, lead):
    # widths 1-9 cover the column path and the >= 8 fallback of row_sumsq;
    # lead adds an axis, as invert's (points, rays, d) distances have
    if lead:
        x = np.stack([x, x[::-1]])
    with np.errstate(invalid="ignore", over="ignore"):
        _bits_equal(row_norm(x), np.linalg.norm(x, axis=-1))
        _bits_equal(row_sumsq(x), np.sum((x.conj() * x).real, axis=-1))
    mask = x.real > 0.5
    np.testing.assert_array_equal(row_all(mask), np.all(mask, axis=-1))
    np.testing.assert_array_equal(row_any(mask), np.any(mask, axis=-1))
    # NaN compares False: a NaN entry falsifies all(x == x) and any(x != x) holds
    same = x == x
    np.testing.assert_array_equal(row_all(same), np.all(same, axis=-1))
    np.testing.assert_array_equal(row_any(~same), np.any(~same, axis=-1))
    if np.isrealobj(x):
        _bits_equal(row_max(x), np.max(x, axis=-1))
        _bits_equal(row_max(np.abs(x)), np.max(np.abs(x), axis=-1))


@pytest.mark.parametrize("width", range(1, 10))
def test_row_reductions_keep_numpys_summation_order(width):
    # magnitudes spread over 1e-8..1e8 make every reordering of the sum of
    # squares visible in its last bits; NaN in about one entry in twenty
    # must propagate through row_max as through np.max
    rng = np.random.default_rng(width)
    x = rng.standard_normal((4000, width)) * 10.0 ** rng.integers(-4, 5, (4000, width))
    x[rng.random(x.shape) < 0.05] = np.nan
    z = x + 1j * rng.standard_normal(x.shape)
    for v in (x, z, x[:, None, :]):
        _bits_equal(row_norm(v), np.linalg.norm(v, axis=-1))
        _bits_equal(row_sumsq(v), np.sum((v.conj() * v).real, axis=-1))
    _bits_equal(row_max(x), np.max(x, axis=-1))
    _bits_equal(row_max(np.abs(x)), np.max(np.abs(x), axis=-1))
    big = np.abs(x) > 1.0
    np.testing.assert_array_equal(row_all(big), np.all(big, axis=-1))
    np.testing.assert_array_equal(row_any(big), np.any(big, axis=-1))


# -- the not-a-knot spline and its evaluator --------------------------------

@st.composite
def _spline_data(draw, n_min=4, n_max=40):
    """Random increasing knots and real or complex data (n, ...) on them."""
    n = draw(st.integers(n_min, n_max))
    gaps = draw(arrays(float, n - 1, elements=st.floats(0.01, 1.0)))
    x = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    shape = (n,) + draw(st.lists(st.integers(1, 3), max_size=2).map(tuple))
    values = st.floats(-10.0, 10.0, allow_subnormal=False)
    y = draw(arrays(float, shape, elements=values))
    if draw(st.booleans()):
        y = y + 1j * draw(arrays(float, shape, elements=values))
    return x, y


@settings(max_examples=150, deadline=None)
@given(data=_spline_data())
def test_not_a_knot_matches_cubic_spline_bitwise(data):
    x, y = data
    c = not_a_knot(x, y)
    want = CubicSpline(x, y, axis=0).c
    assert c.dtype == want.dtype
    np.testing.assert_array_equal(c, want)


@settings(max_examples=60, deadline=None)
@given(data=_spline_data(n_min=2, n_max=3))
def test_not_a_knot_line_and_parabola_match_cubic_spline(data):
    # two and three knots: the line and the parabola through the data, in
    # closed form where CubicSpline solves a system
    x, y = data
    want = CubicSpline(x, y, axis=0).c
    scale = max(1.0, np.max(np.abs(want)))
    np.testing.assert_allclose(not_a_knot(x, y), want, rtol=0, atol=1e-14 * scale)


@settings(max_examples=100, deadline=None)
@given(data=_spline_data(), u=arrays(float, 30, elements=st.floats(-0.3, 1.3)))
def test_cubic_points_match_ppoly(data, u):
    # values bit for bit and d/dr to rounding, at points inside the knots,
    # on them, beyond both ends (PPoly's extrapolation) and at NaN
    x, y = data
    c = CubicSpline(x, y, axis=0).c
    r = np.concatenate([x[0] + u * (x[-1] - x[0]), x, [np.nan]])
    ref = PPoly(c, x)
    value, deriv = CubicPoints(x, r).jets(cubic_columns(c))
    as_y = lambda a: np.ascontiguousarray(a).view(y.dtype).reshape(r.shape + y.shape[1:])
    np.testing.assert_array_equal(as_y(CubicPoints(x, r).values(cubic_columns(c))), ref(r))
    np.testing.assert_array_equal(as_y(value), ref(r))
    want = ref(r, 1)
    assert np.all(np.isnan(as_y(deriv)[-1]))
    err = np.max(np.abs(as_y(deriv)[:-1] - want[:-1]))
    assert err <= 1e-14 * max(1.0, np.max(np.abs(want[:-1])))


def test_cubic_points_on_no_points_and_one_piece():
    # no points: (0, P) values and derivatives; two knots: the one piece
    # of the line through the data, every point on it, as in PPoly
    rng = np.random.default_rng(7)
    x = np.array([-0.3, 0.1, 0.4, 1.2])
    cols = cubic_columns(CubicSpline(x, rng.standard_normal((4, 3)), axis=0).c)
    none = CubicPoints(x, np.empty(0))
    assert none.values(cols).shape == (0, 3)
    assert [a.shape for a in none.jets(cols)] == [(0, 3), (0, 3)]
    x = np.array([0.2, 1.0])
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    c = CubicSpline(x, y, axis=0).c
    r = np.array([-0.5, 0.2, 0.6, 1.0, 1.7, np.nan])
    points = CubicPoints(x, r)
    np.testing.assert_array_equal(points.piece, 0)
    ref = PPoly(c, x)
    as_y = lambda a: a.view(complex)
    value, deriv = points.jets(cubic_columns(c))
    np.testing.assert_array_equal(as_y(points.values(cubic_columns(c))), ref(r))
    np.testing.assert_array_equal(as_y(value), ref(r))
    want = ref(r, 1)
    assert np.all(np.isnan(as_y(deriv)[-1]))
    err = np.max(np.abs(as_y(deriv)[:-1] - want[:-1]))
    assert err <= 1e-14 * max(1.0, np.max(np.abs(want[:-1])))


def _cli_env():
    src = os.path.dirname(os.path.dirname(cgoptics.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize("m, width", [(2500, 24), (50000, 1)])
def test_cubic_points_blocks_equal_one_pass_bitwise(m, width):
    # over several blocks of CUBIC_BLOCK_VALUES (4 of up to 682 points at
    # 24 columns, 4 of up to 16,384 at one), with points beyond both ends:
    # values and derivatives equal, as uint64, the sums over all points at once
    rng = np.random.default_rng(11)
    x = np.sort(rng.uniform(0.0, 2.0, 17))
    cols = rng.standard_normal((4 * 16, width))
    r = rng.uniform(-0.2, 2.2, m)
    assert m * width > 3 * CUBIC_BLOCK_VALUES
    points = CubicPoints(x, r)
    c0, c1, c2, c3 = (c[points.piece] for c in cols.reshape(4, -1, width))
    s = points.offset[:, None]
    want = ((c0 + s * c1) + (s * s) * c2) + ((s * s) * s) * c3
    want_d = (c1 + (s * 2) * c2) + ((s * s) * 3) * c3
    value, deriv = points.jets(cols)
    for got, ref in [(points.values(cols), want), (value, want), (deriv, want_d)]:
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: this process already holds scipy through the oracles
    code = (
        "import sys, cgoptics.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=_cli_env()
    ).stdout
    assert out.strip() == "[]"


def test_sweep_runs_with_scipy_unimportable(tmp_path):
    # sys.modules["scipy"] = None makes every scipy import raise, so a lazy
    # import inside a function fails the sweep where the module check above
    # sees nothing
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "from cgoptics.cli import main; "
        "sys.exit(main(['sweep', '--scenario', 'variable_advection', "
        f"'--eps-list', '0.2,0.1,0.05,0.025', '--out', {str(tmp_path)!r}]))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_cli_env()
    )
    assert run.returncode == 0, run.stdout + run.stderr
