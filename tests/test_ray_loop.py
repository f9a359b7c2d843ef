"""The general ray loop against its stage-by-stage oracle.

``rays._trace_bundle`` steps one phase-space state and gates the stages of
a block of steps at once; ``oracles.trace_stagewise`` gates every stage
as it runs, on separate x and xi arrays.  They must give the same rays bit
for bit, and the same first error: type and message.  Every test here
turns a RuntimeWarning into an error.
"""

import numpy as np
import pytest

from cgoptics.errors import (
    DomainExitError,
    GapCollapseError,
    NonHermitianError,
    NumericsError,
)
from cgoptics.rays import _trace_bundle
from cgoptics.scenarios import bundled_scenario, scenario_beam_params, scenario_system
from cgoptics.systems import ClusterTemplate, Domain, SystemSpec, _check_hermitian

from oracles import trace_stagewise
from test_error_paths import _crossing_A, _nan_beyond
from test_ray_kernel import _affine_system, _hermitian

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _assert_same_rays(got, want):
    for key, a, b in zip(("t", "x", "xi", "v"), got, want):
        assert a.shape == b.shape and np.array_equal(a, b), key


def _same_error(spec, l, X0, Xi0, T, dt):
    """The error of the oracle and of the loop: the same type and message."""
    raised = []
    for trace in (trace_stagewise, _trace_bundle):
        with pytest.raises(NumericsError) as info:
            trace(spec, l, X0, Xi0, T, dt)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    return raised[0]


@pytest.mark.parametrize("origin", [-0.2, 0.2])
@pytest.mark.parametrize("xi0", [0.9, 1.1])
def test_variable_advection_matches_the_oracle(origin, xi0):
    # the corners of the sweep1d benchmark's lattice
    cfg = bundled_scenario("variable_advection")
    spec = scenario_system(cfg)
    dt = scenario_beam_params(cfg, spec).dt
    X0, Xi0 = np.array([[origin]]), np.array([[xi0]])
    T = spec.domain.final_time
    _assert_same_rays(_trace_bundle(spec, 0, X0, Xi0, T, dt),
                      trace_stagewise(spec, 0, X0, Xi0, T, dt))


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_variable_2d_system_matches_the_oracle(real):
    # N = 3 simple clusters on the real eigh route and on the complex one,
    # over more steps than one gate block holds
    rng = np.random.default_rng(5)
    spec = _affine_system(
        _hermitian(rng, (2,), 3, real), 0.2 * _hermitian(rng, (2, 2), 3, real),
        0.2 * _hermitian(rng, (2,), 3, real),
    )
    X0 = rng.uniform(-0.3, 0.3, (5, 2))
    Xi0 = rng.standard_normal((5, 2))
    Xi0 /= np.linalg.norm(Xi0, axis=-1, keepdims=True)
    for l in range(3):
        _assert_same_rays(_trace_bundle(spec, l, X0, Xi0, 0.1, 1e-3),
                          trace_stagewise(spec, l, X0, Xi0, 0.1, 1e-3))


def _system(name, coeff_A, n, d=1, radius=3.0, speed=1.0, final_time=1.0):
    def coeff_B(t, x):
        return np.zeros(np.shape(x)[:-1] + (n, n), dtype=complex)

    return SystemSpec(
        name=name, d=d, N=n, coeff_A=coeff_A, coeff_B=coeff_B,
        domain=Domain(center=np.zeros(d), radius=radius, final_time=final_time, speed=speed),
    )


def _tangent_A(t, x, j):
    # diag(1 + x1^2, 1 - x1^2): the two eigenvalues touch at x1 = 0
    x = np.asarray(x, dtype=float)
    return np.eye(2) + _crossing_A(t, x**2, j)


def test_gap_collapse_mid_trace():
    # the lower mode moves right at 1 - x1^2 from x1 = -0.3 and meets the
    # upper one at x1 = 0, past the first gate blocks
    spec = _system("tangent", _tangent_A, 2, speed=4.0, final_time=0.5)
    kind, msg = _same_error(spec, 0, np.array([[-0.3], [-0.5]]), np.array([[1.0], [1.0]]),
                            0.5, 1e-3)
    assert kind is GapCollapseError and "'tangent'" in msg, msg


def _cornered(n):
    """A Hermitian A, plus a non-Hermitian corner for x1 > 0.2 (an imaginary
    part for N = 1)."""
    base = np.array([[1.0]]) if n == 1 else np.array([[1.0, 0.5], [0.5, -1.0]])
    corner = np.zeros((n, n), dtype=complex)
    corner[0, -1] = 1e-3j if n == 1 else 1e-3

    def coeff_A(t, x, j):
        x = np.asarray(x, dtype=float)
        return base + (x[..., 0] > 0.2)[..., None, None] * corner

    return coeff_A


@pytest.mark.parametrize("n", [1, 2])
def test_non_hermitian_corner_mid_trace(n):
    spec = _system("cornered", _cornered(n), n)
    kind, msg = _same_error(spec, n - 1, np.array([[0.0], [0.1]]), np.array([[1.0], [1.0]]),
                            0.8, 1e-3)
    assert kind is NonHermitianError and "'cornered'" in msg, msg


@pytest.mark.parametrize("n", [1, 2])
def test_non_finite_coefficient_mid_trace(n):
    # both rays move right at speed 1; the second reaches x1 = 0.5 first
    spec = _system("nan-beyond", _nan_beyond(n, 0.5), n)
    kind, msg = _same_error(spec, 0, np.array([[0.0], [0.1]]), np.array([[1.0], [1.0]]),
                            0.8, 1e-3)
    assert kind is NumericsError, msg
    assert msg.startswith("symbol of 'nan-beyond' is not finite at t=0.4"), msg


def test_domain_exit_before_a_later_gate_failure():
    # the ray leaves the cone |x| <= 1 - t at t = 0.5, before it reaches the
    # non-finite coefficients beyond x1 = 0.52
    spec = _system("nan-beyond", _nan_beyond(1, 0.52), 1, radius=1.0, final_time=0.9)
    kind, msg = _same_error(spec, 0, np.array([[0.0]]), np.array([[1.0]]), 0.9, 1e-3)
    assert kind is DomainExitError and "t=0.5000" in msg, msg


def _stagewise_gates(template, t, X, Xi, m, w):
    """The gates of ``ClusterTemplate._eigh`` stage by stage: the symbol gate
    and then, for the stages with eigenvalues, the gap gate."""
    for s in range(len(m)):
        _check_hermitian(template.spec, t[s], m[s], m[s].swapaxes(-1, -2).conj(), X[s], Xi[s])
        if s < len(w):
            template._check_gaps(t[s], X[s], Xi[s], w[s])


def test_stacked_gates_raise_what_the_stagewise_gates_raise():
    # 4 stages of 3 points of a two-cluster system, the last without
    # eigenvalues (a stage whose eigh raised); each trial plants up to three
    # failures, each a gap collapse, a non-Hermitian corner or a NaN
    spec = _system("planted", _tangent_A, 2)
    template = ClusterTemplate(spec, 0.0, [0.5], [1.0])
    rng = np.random.default_rng(0)
    kinds = set()
    for _ in range(300):
        t = np.arange(4) * 0.1
        X = rng.uniform(-1.0, 1.0, (4, 3, 1))
        Xi = rng.uniform(0.5, 2.0, (4, 3, 1))
        m = np.zeros((4, 3, 2, 2), dtype=complex)
        m[..., 0, 0], m[..., 1, 1] = -Xi[..., 0], Xi[..., 0]
        for _ in range(rng.integers(0, 4)):
            s, i = rng.integers(0, 4), rng.integers(0, 3)
            kind = rng.integers(0, 3)
            if kind == 0:
                m[s, i] = np.diag([1.0, 1.0])
            elif kind == 1:
                m[s, i, 0, 1] += 1e-3
            else:
                m[s, i, 1, 0] = np.nan
        w = np.linalg.eigvalsh(np.nan_to_num(0.5 * (m + m.swapaxes(-1, -2).conj())))[:3]
        raised = []
        for gates in (template.check_stages, lambda *a: _stagewise_gates(template, *a)):
            try:
                gates(t, X, Xi, m, w)
                raised.append(None)
            except NumericsError as exc:
                raised.append((type(exc), str(exc)))
        assert raised[0] == raised[1]
        kinds.add(raised[0] and raised[0][0])
    assert kinds == {None, GapCollapseError, NonHermitianError, NumericsError}
