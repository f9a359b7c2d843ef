"""The Lax-Wendroff step of reference_solve and its live window.

The solve's first oracle is the per-step stencil of central and second
differences of u, then the Lax-Wendroff update as one einsum per coefficient
term (with the B terms only where B or its x-derivative is nonzero), then the
outflow extrapolation of the two end nodes.  Its second is the full-grid
loop the window replaced, every step one matvec of the three-point CSR
operator over all nodes; the stencil step equals that matvec bit for bit
where the blocks are real, as for every bundled system.  The step sizes are
chosen as in reference_solve, so all sides take the same steps.
"""

import numpy as np
import pytest
import scipy.sparse

from cgoptics.systems import Domain, SystemSpec, builtin_system, load_system
from cgoptics.verification import (
    WINDOW_STEPS,
    _stencil_step,
    l2_error_curve,
    reference_solve,
)

from oracles import assert_exact_derivatives

EPS = 0.1


def _coefficients(spec, x, cfl):
    # A, B, A_x and B_x on the grid and the step cap, as reference_solve takes them
    a = np.asarray(spec.coeff_A(0.0, x[:, None], 0))
    bmat = np.asarray(spec.coeff_B(0.0, x[:, None]))
    da = np.asarray(spec.coeff_dxA(0.0, x[:, None], 0, 0))
    if np.max(np.abs(bmat)) > 0:
        h = 1e-6
        db = (
            np.asarray(spec.coeff_B(0.0, x[:, None] + h))
            - np.asarray(spec.coeff_B(0.0, x[:, None] - h))
        ) / (2 * h)
    else:
        db = np.zeros_like(bmat)
    speed = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))))))
    return a, bmat, da, db, cfl * float(x[1] - x[0]) / speed


def _oracle_solve(spec, x, u0, T, output_times, cfl=0.8):
    u = np.asarray(u0, dtype=complex).reshape(x.size, spec.N)
    dx = float(x[1] - x[0])
    a, bmat, da, db, dt_max = _coefficients(spec, x, cfl)

    aa = a @ a
    first_order = a
    second_order_d0 = a @ da + a @ bmat + bmat @ a
    second_order_id = a @ db + bmat @ bmat
    have_b = np.max(np.abs(bmat)) > 0 or np.max(np.abs(db)) > 0

    def step(u, ddt):
        d0 = np.zeros_like(u)
        dd = np.zeros_like(u)
        d0[1:-1] = (u[2:] - u[:-2]) / (2 * dx)
        dd[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / (dx * dx)
        rhs = -np.einsum("xab,xb->xa", first_order, d0)
        if have_b:
            rhs -= np.einsum("xab,xb->xa", bmat, u)
        curv = np.einsum("xab,xb->xa", aa, dd) + np.einsum(
            "xab,xb->xa", second_order_d0, d0
        )
        if have_b:
            curv += np.einsum("xab,xb->xa", second_order_id, u)
        out = u + ddt * rhs + 0.5 * ddt * ddt * curv
        out[0] = 2 * out[1] - out[2]
        out[-1] = 2 * out[-2] - out[-3]
        return out

    values = []
    t_now = 0.0
    n_steps = 0
    for t_out in sorted(set(float(t) for t in output_times)):
        if t_out <= t_now + 1e-14:
            values.append(u.copy())
            continue
        span = t_out - t_now
        n = max(1, int(np.ceil(span / dt_max - 1e-12)))
        for _ in range(n):
            u = step(u, span / n)
        n_steps += n
        t_now = t_out
        values.append(u.copy())
    return values, n_steps, have_b


def _domain():
    return Domain(center=[0.0], radius=2.0, final_time=0.3, speed=1.5)


def _b_const_spec():
    return load_system(
        {
            "name": "wave2x2_damped",
            "d": 1,
            "N": 2,
            "A": [[[0.5, 1.0], [1.0, -0.5]]],
            "B": [[0.3, 0.2], [-0.1, 0.4]],
            "domain": {"center": [0.0], "radius": 2.0, "final_time": 0.3, "speed": 1.5},
        }
    )


_B_XDEP_A = np.array([[1.0, 0.4], [0.4, -0.7]])


def _b_xdep_spec():
    # x-dependent A and B: every term of the update, B_x included, is live
    def coeff_A(t, x, j):
        s = 1.0 + 0.3 * np.sin(np.asarray(x, dtype=float)[..., 0])
        return s[..., None, None] * _B_XDEP_A

    def coeff_dxA(t, x, j, k):
        return (0.3 * np.cos(np.asarray(x, dtype=float)[..., 0]))[..., None, None] * _B_XDEP_A

    def coeff_d2xA(t, x, j, k, l):
        return (-0.3 * np.sin(np.asarray(x, dtype=float)[..., 0]))[..., None, None] * _B_XDEP_A

    def coeff_B(t, x):
        c = np.cos(np.asarray(x, dtype=float)[..., 0])
        return c[..., None, None] * np.array([[0.2, -0.3], [0.1, 0.25]]) + 0j

    return SystemSpec(
        name="xdep2x2_damped", d=1, N=2, coeff_A=coeff_A, coeff_B=coeff_B,
        domain=_domain(), coeff_dxA=coeff_dxA, coeff_d2xA=coeff_d2xA,
    )


def test_x_dependent_derivatives_are_exact():
    assert_exact_derivatives(_b_xdep_spec(), np.linspace(-1.5, 1.5, 7)[:, None])


CASES = {
    "variable_advection": lambda: builtin_system("variable_advection"),
    "wave2x2": lambda: builtin_system("wave2x2"),
    "b_const_2x2": _b_const_spec,
    "b_xdep_2x2": _b_xdep_spec,
}


def _initial_data(x, n):
    envelope = np.exp(1j * x / EPS - 0.5 * x**2)
    pol = np.linspace(1.0, 0.5, n) + 0.25j * np.arange(n)
    return envelope[:, None] * pol[None, :]


@pytest.mark.parametrize("name", sorted(CASES))
def test_operator_matches_einsum_stencil(name):
    spec = CASES[name]()
    x = np.linspace(-3.0, 3.0, int(6.0 / (EPS / 20)) + 1)
    u0 = _initial_data(x, spec.N)
    times = [0.0, 0.1, 0.2, 0.3]
    ref = reference_solve(spec, x, u0, 0.3, times)
    want, n_steps, have_b = _oracle_solve(spec, x, u0, 0.3, times)
    assert have_b == name.startswith("b_")
    assert ref.n_steps == n_steps
    assert ref.times == times
    for got, exp in zip(ref.values, want):
        # every node, the two extrapolated end nodes included
        assert got.shape == exp.shape == (x.size, spec.N)
        assert np.max(np.abs(got - exp)) <= 1e-12 * np.max(np.abs(exp))
    # the solution moved, so the comparison is not between two copies of u0
    assert np.max(np.abs(ref.values[-1] - u0)) > 0.1 * np.max(np.abs(u0))


def _three_point_csr(lower, diag, upper) -> scipy.sparse.csr_matrix:
    """CSR map u'_i = lower_i u_{i-1} + diag_i u_i + upper_i u_{i+1}.

    The blocks are (n_x, N, N) arrays; only the interior nodes get rows (3N
    entries each), so the rows of the two end nodes are empty.
    """
    n_x, n, _ = diag.shape
    m = n_x - 2
    data = np.empty((m, n, 3, n), dtype=complex)
    for j, block in enumerate((lower, diag, upper)):
        data[:, :, j] = block[1:-1]
    # column indices fit int32 for any grid whose state fits in memory
    indices = np.empty((m, n, 3 * n), dtype=np.int32)
    indices[...] = (n * np.arange(m, dtype=np.int32))[:, None, None] + np.arange(
        3 * n, dtype=np.int32
    )
    indptr = np.zeros(n_x * n + 1, dtype=np.int64)
    indptr[n + 1:] = 3 * n * np.minimum(np.arange(1, (n_x - 1) * n + 1), m * n)
    return scipy.sparse.csr_matrix(
        (data.reshape(-1), indices.reshape(-1), indptr), shape=(n_x * n, n_x * n)
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stencil_step_matches_csr_matvec_bitwise(n):
    # zeros of both signs in both parts of the random blocks and states, so
    # that products and sums hit exact zeros, whose sign depends on the
    # order of the terms and on the zeroed start of each row
    rng = np.random.default_rng(n)

    def draw(shape, real=False):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        parts = z.view(float)
        pick = rng.random(parts.shape)
        parts[pick < 0.3] = 0.0
        parts[pick > 0.7] = -0.0
        if real:
            z.imag = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
        return z

    def step_and_matvec(blocks, u):
        # the (n_x, N, N) blocks as the step takes them: (N, N, n_x - 2)
        inner = [np.moveaxis(b[1:-1], 0, -1) for b in blocks]
        got = _stencil_step(*inner, np.ascontiguousarray(u.T))
        assert got.shape == u.T.shape
        want = _three_point_csr(*blocks) @ u.reshape(-1)
        # sum over each row of |block entry| |u entry|
        scale = (_three_point_csr(*map(np.abs, blocks)) @ np.abs(u).reshape(-1)).real
        return np.ascontiguousarray(got.T).reshape(-1), want, scale

    # bit for bit, the sign of every zero included: a 3-node window (one
    # interior node) with complex blocks; a long window with real blocks,
    # those of every real-coefficient system; and a zero state with negative
    # real parts, whose products -0 + 0j sum to +0 only from a zeroed start
    exact = [
        ([draw((3, n, n)) for _ in range(3)], draw((3, n))),
        ([draw((400, n, n), real=True) for _ in range(3)], draw((400, n))),
        ([np.abs(draw((40, n, n))) + 0j for _ in range(3)], np.full((40, n), complex(-0.0, 0.0))),
    ]
    for blocks, u in exact:
        got, want, _ = step_and_matvec(blocks, u)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    # a long window with complex blocks: numpy's vectorised complex product
    # may fuse a multiply-add, so the two agree to the rounding of 3N terms
    got, want, scale = step_and_matvec([draw((200, n, n)) for _ in range(3)], draw((200, n)))
    assert np.all(np.abs(got - want) <= 6 * n * np.finfo(float).eps * scale)


def _full_grid_solve(spec, x, u0, output_times, cfl=0.8):
    # the loop the window replaced: every step one CSR matvec over all nodes
    u = np.asarray(u0, dtype=complex).reshape(x.size, spec.N)
    dx = float(x[1] - x[0])
    a, bmat, da, db, dt_max = _coefficients(spec, x, cfl)
    eye = np.eye(spec.N)
    aa = a @ a
    first = a @ da + a @ bmat + bmat @ a
    zeroth = a @ db + bmat @ bmat
    values = []
    t_now = 0.0
    for t_out in sorted(set(float(t) for t in output_times)):
        if t_out <= t_now + 1e-14:
            values.append(u.copy())
            continue
        span = t_out - t_now
        n = max(1, int(np.ceil(span / dt_max - 1e-12)))
        ddt = span / n
        c1 = (-ddt * a + 0.5 * ddt * ddt * first) / (2 * dx)
        c2 = 0.5 * ddt * ddt * aa / (dx * dx)
        diag = eye - ddt * bmat + 0.5 * ddt * ddt * zeroth - 2 * c2
        op = _three_point_csr(c2 - c1, diag, c2 + c1)
        for _ in range(n):
            u = (op @ u.reshape(-1)).reshape(u.shape)
            u[0] = 2 * u[1] - u[2]
            u[-1] = 2 * u[-2] - u[-3]
        t_now = t_out
        values.append(u.copy())
    return values


NARROW_EPS = 0.005


def _narrow_data(x, n, center=0.0):
    # width sqrt(eps): below 1e-100 of the peak beyond |x - center| ~ 1.5
    # and exactly 0 (underflow) beyond ~ 2.7
    y = x - center
    envelope = np.exp(1j * y / NARROW_EPS - 0.5 * y**2 / NARROW_EPS)
    pol = np.linspace(1.0, 0.5, n) + 0.25j * np.arange(n)
    return envelope[:, None] * pol[None, :]


def _window_case(name):
    """(spec, x, u0, output times) of one window case."""
    if name in CASES:
        # a broad packet: live on the whole grid, so the window is the grid
        spec = CASES[name]()
        x = np.linspace(-3.0, 3.0, int(6.0 / (EPS / 20)) + 1)
        return spec, x, _initial_data(x, spec.N), [0.0, 0.1, 0.2, 0.3]
    spec = CASES["b_xdep_2x2" if name == "narrow_2x2" else "variable_advection"]()
    x = np.linspace(-3.0, 3.0, int(6.0 / (NARROW_EPS / 20)) + 1)
    times = [0.0, 0.1, 0.2, 0.3]
    if name == "zero":
        return spec, x, np.zeros((x.size, spec.N), dtype=complex), times
    # "grid_end": the packet leaves through the right end before t = 0.3
    center = 2.7 if name == "grid_end" else 0.0
    return spec, x, _narrow_data(x, spec.N, center), times


WINDOW_CASES = sorted(CASES) + ["narrow", "narrow_2x2", "grid_end", "zero"]


@pytest.mark.parametrize("name", WINDOW_CASES)
def test_window_matches_full_grid_loop(name):
    spec, x, u0, times = _window_case(name)
    ref = reference_solve(spec, x, u0, times[-1], times)
    want = _full_grid_solve(spec, x, u0, times)
    full_updates = x.size * ref.n_steps * spec.N
    assert len(ref.values) == len(want) == len(times)
    # the flush moves the state by under 1e-90 of its peak; where that tips a
    # rounding of a small tail value, the two sides also differ by the
    # rounding of that value, at most one unit in the last place per step
    ulps = ref.n_steps * np.finfo(float).eps
    for got, exp in zip(ref.values, want):
        assert got.shape == exp.shape == (x.size, spec.N)
        bound = 1e-90 * np.max(np.abs(exp)) + ulps * np.abs(exp)
        assert np.all(np.abs(got - exp) <= bound)
    # the flush is far below what an error curve resolves
    fixed = [u0] * len(times)
    np.testing.assert_array_equal(
        l2_error_curve(x, ref.values, fixed, times, _domain()),
        l2_error_curve(x, want, fixed, times, _domain()),
    )
    if name in CASES:
        # a window that covers the grid is the full-grid loop, bit for bit
        assert ref.cell_updates == full_updates
        for got, exp in zip(ref.values, want):
            np.testing.assert_array_equal(got, exp)
    elif name == "zero":
        assert ref.cell_updates == 0
        assert not any(np.any(v) for v in ref.values)
    else:
        assert 0 < ref.cell_updates < 0.75 * full_updates
    if name == "grid_end":
        # the packet crosses the right end, so the extrapolation rows matter
        assert np.abs(want[2][-1]).max() > 1e-3 * np.abs(want[2]).max()


def test_window_padding_is_exact_on_compact_data():
    # data that is exactly 0 outside a range, over two intervals of one
    # chunk each: the tails stay far above the flush level, so only the
    # padding separates the window from the full grid, and the results must
    # agree bit for bit
    spec = CASES["b_xdep_2x2"]()
    x = np.linspace(-3.0, 3.0, int(6.0 / (NARROW_EPS / 20)) + 1)
    u0 = np.where(np.abs(x) < 0.2, np.cos(2.5 * np.pi * x) ** 2, 0.0)[:, None] * [1.0, 0.5j]
    dt_max = _coefficients(spec, x, 0.8)[-1]
    times = [k * 0.45 * WINDOW_STEPS * dt_max for k in range(3)]
    ref = reference_solve(spec, x, u0, times[-1], times)
    want = _full_grid_solve(spec, x, u0, times)
    assert ref.n_steps <= 2 * WINDOW_STEPS
    assert ref.cell_updates < 0.5 * x.size * ref.n_steps * spec.N
    for got, exp in zip(ref.values, want):
        np.testing.assert_array_equal(got, exp)
    assert np.max(np.abs(want[-1] - u0)) > 0.1


def test_reference_solve_leaves_its_input_unchanged():
    spec = CASES["b_xdep_2x2"]()
    x = np.linspace(-3.0, 3.0, int(6.0 / (NARROW_EPS / 20)) + 1)
    u0 = _narrow_data(x, spec.N)
    assert u0.dtype == complex and u0.shape == (x.size, spec.N)
    kept = u0.copy()
    ref = reference_solve(spec, x, u0, 0.2, [0.0, 0.1, 0.2])
    # the window flushed the tails, but not in u0
    assert ref.cell_updates < x.size * ref.n_steps * spec.N
    np.testing.assert_array_equal(u0, kept)
    np.testing.assert_array_equal(ref.values[0], kept)
