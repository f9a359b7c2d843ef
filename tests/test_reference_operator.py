"""The sparse Lax-Wendroff operator of reference_solve against the stencil.

The oracle is the per-step stencil the operator replaced: central and second
differences of u, then the Lax-Wendroff update as one einsum per coefficient
term (with the B terms only where B or its x-derivative is nonzero), then the
outflow extrapolation of the two end nodes.  The step sizes are chosen as in
reference_solve, so both sides take the same steps.
"""

import numpy as np
import pytest

from cgoptics.systems import Domain, SystemSpec, builtin_system, load_system
from cgoptics.verification import reference_solve

EPS = 0.1


def _oracle_solve(spec, x, u0, T, output_times, cfl=0.8):
    u = np.asarray(u0, dtype=complex).reshape(x.size, spec.N)
    dx = float(x[1] - x[0])
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
    dt_max = cfl * dx / speed

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


def _b_xdep_spec():
    # x-dependent A and B: every term of the update, B_x included, is live
    def coeff_A(t, x, j):
        s = 1.0 + 0.3 * np.sin(np.asarray(x, dtype=float)[..., 0])
        return s[..., None, None] * np.array([[1.0, 0.4], [0.4, -0.7]])

    def coeff_B(t, x):
        c = np.cos(np.asarray(x, dtype=float)[..., 0])
        return c[..., None, None] * np.array([[0.2, -0.3], [0.1, 0.25]]) + 0j

    return SystemSpec(
        name="xdep2x2_damped", d=1, N=2, coeff_A=coeff_A, coeff_B=coeff_B,
        domain=_domain(),
    )


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
