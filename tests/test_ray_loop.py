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
from cgoptics.rays import _StageLog, _stage_rates, _trace_bundle
from cgoptics.scenarios import bundled_scenario, scenario_beam_params, scenario_system
from cgoptics.systems import ClusterTemplate, Domain, SystemSpec, _check_hermitian

from oracles import assert_exact_derivatives, trace_stagewise
from test_error_paths import (
    _crossing_A, _crossing_dxA, _nan_beyond, _piecewise_constant_dx, _zero_dx,
)
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


def _system(name, coeff_A, n, coeff_dxA, coeff_d2xA, radius=3.0, speed=1.0, final_time=1.0):
    def coeff_B(t, x):
        return np.zeros(np.shape(x)[:-1] + (n, n), dtype=complex)

    return SystemSpec(
        name=name, d=1, N=n, coeff_A=coeff_A, coeff_B=coeff_B,
        domain=Domain(center=np.zeros(1), radius=radius, final_time=final_time, speed=speed),
        coeff_dxA=coeff_dxA, coeff_d2xA=coeff_d2xA,
    )


def _flat_system(name, coeff_A, n, **domain):
    """A d = 1 system whose coefficient is constant in x away from its jumps."""
    dx = _piecewise_constant_dx(coeff_A)
    return _system(name, coeff_A, n, dx, dx, **domain)


def _tangent_A(t, x, j):
    # diag(1 + x1^2, 1 - x1^2): the two eigenvalues touch at x1 = 0
    x = np.asarray(x, dtype=float)
    return np.eye(2) + _crossing_A(t, x**2, j)


def _tangent_system(name, **domain):
    # d/dx1 = diag(2 x1, -2 x1), d^2/dx1^2 = diag(2, -2)
    return _system(
        name, _tangent_A, 2,
        lambda t, x, j, k: _crossing_A(t, 2.0 * np.asarray(x, dtype=float), j),
        lambda t, x, j, k, l: _crossing_A(t, np.full(np.shape(x), 2.0), j),
        **domain,
    )


def test_hand_written_derivatives_are_exact():
    # below x1 = 0.2, where the cornered coefficients jump
    X = np.linspace(-0.9, 0.15, 7)[:, None]
    specs = [
        _tangent_system("tangent"), _crossing_system(), _single_system(),
        _flat_system("advection", lambda t, x, j: np.ones(np.shape(x)[:-1] + (1, 1)), 1),
        _flat_system("cornered", _cornered(1), 1), _flat_system("cornered", _cornered(2), 2),
        _flat_system("nan-beyond", _nan_beyond(2, 0.5), 2),
    ]
    for spec in specs:
        assert_exact_derivatives(spec, X)


def test_gap_collapse_mid_trace():
    # the lower mode moves right at 1 - x1^2 from x1 = -0.3 and meets the
    # upper one at x1 = 0, past the first gate blocks
    spec = _tangent_system("tangent", speed=4.0, final_time=0.5)
    kind, msg = _same_error(spec, 0, np.array([[-0.3], [-0.5]]), np.array([[1.0], [1.0]]),
                            0.5, 1e-3)
    assert kind is GapCollapseError and "'tangent'" in msg, msg


def _crossing_plus_I(t, x, j):
    # diag(1 + x1, 1 - x1): the two eigenvalues cross at x1 = 0
    return np.eye(2) + _crossing_A(t, x, j)


def _crossing_system(**domain):
    return _system("crossing", _crossing_plus_I, 2, _crossing_dxA, _zero_dx(2), **domain)


def test_crossing_between_stages_mid_trace():
    # the lower mode moves right at 1 + x1 from x1 = -0.3 and crosses the
    # upper one at x1 = 0; no stage lands within GAP_MIN of the crossing,
    # so only the turn of the cluster projectors between two stages shows it
    spec = _crossing_system(speed=4.0, final_time=0.5)
    kind, msg = _same_error(spec, 0, np.array([[-0.3]]), np.array([[1.0]]), 0.5, 1e-3)
    assert kind is GapCollapseError, msg
    assert msg.startswith("clusters 0 and 1 of 'crossing' crossed between the stages at t=0.35"), msg
    assert msg.count("t=") == 2 and msg.count("xi=") == 2, msg


def test_turn_gate_spans_gate_blocks():
    # the log keeps the last stage it passed, so a swap between the last
    # stage of one block and the first of the next is caught
    spec = _crossing_system()
    log = _StageLog(ClusterTemplate(spec, 0.0, [-0.5], [1.0]))
    for t, x in ((0.0, -0.02), (0.1, -0.01)):
        _stage_rates(spec, log.template, 0, t, np.array([[[x]], [[1.0]]]), log)
    log.check()
    _stage_rates(spec, log.template, 0, 0.2, np.array([[[0.01]], [[1.0]]]), log)
    with pytest.raises(GapCollapseError, match=r"stages at t=0.1, x=\[-0.01\].* at t=0.2, x=\[0.01\]"):
        log.check()


def _single_system():
    # (1 + x1) I: one cluster of multiplicity 2
    return _system(
        "single", lambda t, x, j: np.eye(2) * (1.0 + x[..., 0, None, None]), 2,
        lambda t, x, j, k: np.broadcast_to(np.eye(2), np.shape(x)[:-1] + (2, 2)), _zero_dx(2),
    )


def test_turn_gate_only_where_clusters_can_cross():
    # N = 1 and a single cluster log no eigenvectors
    single = _single_system()
    crossing = _crossing_system()
    advection = _flat_system("advection", lambda t, x, j: np.ones(np.shape(x)[:-1] + (1, 1)), 1)
    for spec, logs in ((single, False), (advection, False), (crossing, True)):
        log = _StageLog(ClusterTemplate(spec, 0.0, [-0.5], [1.0]))
        assert (log.vectors is not None) == logs, spec.name


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
    spec = _flat_system("cornered", _cornered(n), n)
    kind, msg = _same_error(spec, n - 1, np.array([[0.0], [0.1]]), np.array([[1.0], [1.0]]),
                            0.8, 1e-3)
    assert kind is NonHermitianError and "'cornered'" in msg, msg


@pytest.mark.parametrize("n", [1, 2])
def test_non_finite_coefficient_mid_trace(n):
    # both rays move right at speed 1; the second reaches x1 = 0.5 first
    spec = _flat_system("nan-beyond", _nan_beyond(n, 0.5), n)
    kind, msg = _same_error(spec, 0, np.array([[0.0], [0.1]]), np.array([[1.0], [1.0]]),
                            0.8, 1e-3)
    assert kind is NumericsError, msg
    assert msg.startswith("symbol of 'nan-beyond' is not finite at t=0.4"), msg


def test_domain_exit_before_a_later_gate_failure():
    # the ray leaves the cone |x| <= 1 - t at t = 0.5, before it reaches the
    # non-finite coefficients beyond x1 = 0.52
    spec = _flat_system("nan-beyond", _nan_beyond(1, 0.52), 1, radius=1.0, final_time=0.9)
    kind, msg = _same_error(spec, 0, np.array([[0.0]]), np.array([[1.0]]), 0.9, 1e-3)
    assert kind is DomainExitError and "t=0.5000" in msg, msg


def _stagewise_gates(template, t, X, Xi, m, w, v=None):
    """The gates of ``ClusterTemplate._eigh`` stage by stage: the symbol gate
    and then, for the stages with eigenvalues, the gap gate, and given
    eigenvectors the turn gate against the stage before."""
    for s in range(len(m)):
        _check_hermitian(template.spec, t[s], m[s], m[s].swapaxes(-1, -2).conj(), X[s], Xi[s])
        if s < len(w):
            template._check_gaps(t[s], X[s], Xi[s], w[s])
        if v is not None and 0 < s < len(v):
            pair = slice(s - 1, s + 1)
            template._check_turns(t[pair], X[pair], Xi[pair], v[pair])


def test_stacked_gates_raise_what_the_stagewise_gates_raise():
    # 4 stages of 3 points of a two-cluster system, the last without
    # eigenvalues (a stage whose eigh raised); each trial plants up to three
    # failures, each a gap collapse, a non-Hermitian corner or a NaN
    spec = _tangent_system("planted")
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


def test_stacked_turn_gates_raise_what_the_stagewise_gates_raise():
    # as above, with the eigenvectors of the first 3 stages: each trial
    # plants up to three failures, each a gap collapse, a NaN or a swap of
    # one point's eigenvectors from its stage on (a crossing)
    spec = _tangent_system("planted")
    template = ClusterTemplate(spec, 0.0, [0.5], [1.0])
    rng = np.random.default_rng(1)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    kinds = set()
    for _ in range(300):
        t = np.arange(4) * 0.1
        X = rng.uniform(-1.0, 1.0, (4, 3, 1))
        Xi = rng.uniform(0.5, 2.0, (4, 3, 1))
        m = np.zeros((4, 3, 2, 2), dtype=complex)
        m[..., 0, 0], m[..., 1, 1] = -Xi[..., 0], Xi[..., 0]
        v = np.broadcast_to(np.eye(2), (3, 3, 2, 2)).copy()
        for _ in range(rng.integers(0, 4)):
            s, i = rng.integers(0, 4), rng.integers(0, 3)
            kind = rng.integers(0, 3)
            if kind == 0:
                m[s, i] = np.diag([1.0, 1.0])
            elif kind == 1:
                m[s, i, 1, 0] = np.nan
            else:
                v[s:, i] = v[s:, i] @ swap
        w = np.linalg.eigvalsh(np.nan_to_num(0.5 * (m + m.swapaxes(-1, -2).conj())))[:3]
        raised = []
        for gates in (template.check_stages, lambda *a: _stagewise_gates(template, *a)):
            try:
                gates(t, X, Xi, m, w, v)
                raised.append(None)
            except NumericsError as exc:
                raised.append((type(exc), str(exc)))
        assert raised[0] == raised[1]
        kinds.add(raised[0] and raised[0][1].split()[0])
    assert kinds == {None, "gap", "clusters", "symbol"}
