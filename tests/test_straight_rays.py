"""Straight rays for systems that declare constant coefficients.

Every case is traced twice: as declared, and through
``dataclasses.replace(spec, constant_coefficients=False)``, the general
RK4 path that calls the spectral kernel at every stage and gates every
stage.  The general path is the oracle, and the two must agree bit for
bit.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cgoptics import rays
from cgoptics.beams import BeamParams, build_beam
from cgoptics.errors import (
    ConfigError,
    DomainExitError,
    GapCollapseError,
    NonHermitianError,
    NumericsError,
)
from cgoptics.rays import WaveComponent, _trace_bundle, flow_out
from cgoptics.scenarios import (
    bundled_scenario,
    scenario_beam_params,
    scenario_initial_data,
    scenario_system,
)
from cgoptics.systems import builtin_system, load_system

from test_ray_kernel import _hermitian
from test_rays import acoustics_line_component

RAY_FIELDS = ("t", "x", "xi", "v")


def _general(spec):
    assert spec.constant_coefficients
    return replace(spec, constant_coefficients=False)


def _assert_same_rays(straight, general):
    for key, a, b in zip(RAY_FIELDS, straight, general):
        assert np.array_equal(a, b), key


def _flow_out_rays(spec, comp, T, dt):
    bundle = flow_out(spec, comp, T=T, dt=dt)
    return tuple(getattr(bundle, key) for key in RAY_FIELDS)


def test_declared_flags():
    for name in ("advection", "wave2x2", "acoustics3"):
        assert builtin_system(name).constant_coefficients, name
    assert not builtin_system("variable_advection").constant_coefficients
    table = load_system({
        "name": "table", "d": 1, "N": 1, "A": [[[1.0]]],
        "domain": {"center": [0], "radius": 5, "final_time": 0.5, "speed": 1},
    })
    assert table.constant_coefficients


def test_straight_path_makes_one_kernel_call(monkeypatch):
    # the straight path calls the gated kernel once; the general path calls
    # the per-stage kernel at each of the 4 RK4 stages of each step, and
    # once more at the last node
    calls = []

    def counting(name, points):
        kernel = getattr(rays, name)

        def counted(*args):
            calls.append(points(args).shape[0])
            return kernel(*args)

        monkeypatch.setattr(rays, name, counted)

    counting("_grad_lambda_batch", lambda args: args[4])
    counting("_stage_rates", lambda args: args[4][0])
    spec = builtin_system("acoustics3")
    X0 = np.array([[0.0, 0.0], [0.1, 0.0]])
    Xi0 = np.array([[1.0, 0.0], [1.0, 0.0]])
    _trace_bundle(spec, 2, X0, Xi0, T=0.5, dt=1e-2)
    assert calls == [2]
    calls.clear()
    _trace_bundle(_general(spec), 2, X0, Xi0, T=0.5, dt=1e-2)
    assert calls == [2] * (4 * 50 + 1)


def test_acoustics3_line_beam_matches_general_path():
    spec = builtin_system("acoustics3")
    comp = acoustics_line_component(np.linspace(-0.4, 0.4, 9))
    _assert_same_rays(
        _flow_out_rays(spec, comp, 1.0, 4e-3),
        _flow_out_rays(_general(spec), comp, 1.0, 4e-3),
    )


@pytest.mark.parametrize("name", ["wave2x2_beam", "advection_exact"])
def test_bundled_scenario_matches_general_path(name):
    cfg = bundled_scenario(name)
    spec = scenario_system(cfg)
    comps = scenario_initial_data(cfg, spec).components
    dt = scenario_beam_params(cfg, spec).dt
    for comp in comps:
        _assert_same_rays(
            _flow_out_rays(spec, comp, spec.domain.final_time, dt),
            _flow_out_rays(_general(spec), comp, spec.domain.final_time, dt),
        )


def test_table_system_with_nonzero_b_matches_general_path():
    spec = load_system({
        "name": "table2", "d": 2, "N": 2,
        "A": [[[1.0, 0.5], [0.5, -1.0]], [[0.0, 1.0], [1.0, 0.0]]],
        "B": [[0.3, -0.1], [0.2, 0.5]],
        "domain": {"center": [0, 0], "radius": 4, "final_time": 1, "speed": 1.5},
    })
    rng = np.random.default_rng(11)
    X0 = rng.uniform(-0.5, 0.5, (5, 2))
    Xi0 = rng.standard_normal((5, 2))
    Xi0 /= np.linalg.norm(Xi0, axis=-1, keepdims=True)
    for l in (0, 1):
        _assert_same_rays(
            _trace_bundle(spec, l, X0, Xi0, T=1.0, dt=5e-3),
            _trace_bundle(_general(spec), l, X0, Xi0, T=1.0, dt=5e-3),
        )


def test_domain_exit_names_the_same_time():
    spec = builtin_system("advection")
    X0, Xi0 = np.array([[4.6]]), np.array([[1.0]])
    messages = []
    for s in (spec, _general(spec)):
        with pytest.raises(DomainExitError) as info:
            _trace_bundle(s, 0, X0, Xi0, T=0.5, dt=1e-3)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "t=0.2000" in messages[0]


def test_false_declaration_fails_loudly():
    spec = replace(builtin_system("variable_advection"), constant_coefficients=True)
    with pytest.raises(ConfigError, match="variable_advection"):
        _trace_bundle(spec, 0, np.array([[0.0]]), np.array([[1.0]]), T=0.5, dt=1e-2)


# ---------------------------------------------------------------------------
# whole beams on random table systems: per-ray spectral data on straight
# rays against the general rays and the per-node kernel
# ---------------------------------------------------------------------------

def _line_or_point(spec, xi0, mode, line, rng):
    """A component of ``mode`` seeded at xi0: on a line beam (d = 2) a
    segment through 0 along tau, with psi = xi0.x + kappa (tau.x)(nu.x) +
    i (nu.x)^2 / 2, so that xi = xi0 + kappa r nu turns along r; at a point
    beam x0 = 0, psi = xi0.x + i |x|^2 / 2.  The amplitude is the mode's
    eigenvector at each point's xi."""
    d = spec.d
    if line:
        angle = rng.uniform(0.0, 2.0 * np.pi)
        tau = np.array([np.cos(angle), np.sin(angle)])
        nu = np.array([-tau[1], tau[0]])
        kappa = rng.uniform(-0.5, 0.5)
        r = np.linspace(-0.3, 0.3, 7)
        points = r[:, None] * tau
        hess = kappa * (np.outer(tau, nu) + np.outer(nu, tau)) + 1j * np.outer(nu, nu)
    else:
        r, points, hess = None, np.zeros((1, d)), 1j * np.eye(d)

    def psi(x):
        x = np.asarray(x)
        return x @ xi0 + 0.5 * np.einsum("...i,ij,...j->...", x, hess, x)

    def dpsi(x):
        return xi0 + np.asarray(x) @ hess

    def d2psi(x):
        return np.broadcast_to(hess, np.shape(x)[:-1] + (d, d))

    def amplitude(x):
        xi = dpsi(x).real
        symbol = sum(np.asarray(spec.coeff_A(0.0, x, j)) * xi[..., j, None, None]
                     for j in range(d))
        vec = np.linalg.eigh(symbol)[1][..., mode]
        lead = np.take_along_axis(vec, np.argmax(np.abs(vec), axis=-1)[..., None], axis=-1)
        return vec * (np.abs(lead) / lead)

    return WaveComponent(mode=mode, points=points, r=r, psi=psi, dpsi=dpsi,
                         d2psi=d2psi, amplitude=amplitude, label="table-beam")


@st.composite
def table_beams(draw):
    """(spec, components): a random constant-coefficient table system,
    real-symmetric or complex-Hermitian, N in {1, 2, 3}, d in {1, 2}, with
    a point or line beam of each of its modes, every mode gapped by at
    least 0.1 |xi| on the seeds."""
    n = draw(st.sampled_from([1, 2, 3]))
    d = draw(st.sampled_from([1, 2]))
    real = n == 1 or draw(st.booleans())
    line = d == 2 and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = load_system({
        "name": "table", "d": d, "N": n,
        "A": _hermitian(rng, (d,), n, real).tolist(),
        "B": (0.2 * rng.standard_normal((n, n))).tolist(),
        "domain": {"center": [0.0] * d, "radius": 10.0, "final_time": 0.1, "speed": 1.0},
    })
    xi0 = rng.standard_normal(d)
    xi0 /= np.linalg.norm(xi0)
    comps = [_line_or_point(spec, xi0, mode, line, rng) for mode in range(n)]
    xi = comps[0].dpsi(comps[0].points).real
    w = np.linalg.eigvalsh(sum(np.asarray(spec.coeff_A(0.0, xi, j)) * xi[:, j, None, None]
                               for j in range(d)))
    gaps = np.diff(w, axis=-1) / np.linalg.norm(xi, axis=-1)[:, None]
    assume(n == 1 or gaps.min() > 0.1)
    return spec, comps


def _built(spec, comp):
    """Every array of a beam's rays, jet, transport, extension and
    corrector, and its diagnostics; or the error's type and message."""
    try:
        beam = build_beam(spec, comp, BeamParams(dt=0.01, chart_radius=0.3))
    except NumericsError as exc:
        return type(exc), str(exc)
    arrays = {f"bundle.{key}": getattr(beam.bundle, key) for key in RAY_FIELDS + ("frames",)}
    for part in ("jet", "transport"):
        for f in fields(getattr(beam, part)):
            arrays[f"{part}.{f.name}"] = getattr(getattr(beam, part), f.name)
    arrays.update({f"ext.{key}": value for key, value in vars(beam.ext).items()})
    arrays["corrector"] = beam.corrector
    return arrays, beam.diagnostics


@settings(max_examples=30, deadline=None)
@given(table_beams())
def test_table_beams_match_general_path(case):
    # the straight rays with the spectral kernel once per ray, against the
    # general rays with the kernel at every node: the same bits
    spec, comps = case
    for comp in comps:
        straight, general = _built(spec, comp), _built(_general(spec), comp)
        if isinstance(straight[0], type):
            assert straight == general
            continue
        assert straight[1] == general[1]
        assert straight[0].keys() == general[0].keys()
        for key, a in straight[0].items():
            b = general[0][key]
            assert (a is None and b is None) or np.array_equal(a, b), key


@pytest.mark.parametrize("kind", ["gap_collapse", "non_hermitian"])
def test_table_errors_match_general_path(kind):
    # A = (diag(1, 0), diag(0, 1)) has the eigenvalues xi_1 and xi_2, and the
    # line beam on the x2 axis has xi = (1, r), r in [0.5, 1.5]: they meet
    # at r = 1.  A corner 1e-3 of the second table makes the symbol
    # non-Hermitian instead.
    a2 = [[0.0, 1e-3], [0.0, 1.0]] if kind == "non_hermitian" else [[0.0, 0.0], [0.0, 1.0]]
    spec = load_system({
        "name": kind, "d": 2, "N": 2, "A": [[[1.0, 0.0], [0.0, 0.0]], a2],
        "domain": {"center": [0.0, 0.0], "radius": 10.0, "final_time": 0.1, "speed": 1.0},
    })
    r = np.linspace(0.5, 1.5, 5)
    hess = np.array([[1j, 0.0], [0.0, 1.0]])      # psi = x1 + i x1^2 / 2 + x2^2 / 2
    comp = WaveComponent(
        mode=0, points=np.stack([np.zeros_like(r), r], axis=-1), r=r,
        psi=lambda x: np.asarray(x)[..., 0] + 0.5 * np.einsum("...i,ij,...j->...", x, hess, x),
        dpsi=lambda x: np.array([1.0, 0.0]) + np.asarray(x) @ hess,
        d2psi=lambda x: np.broadcast_to(hess, np.shape(x)[:-1] + (2, 2)),
        amplitude=lambda x: np.broadcast_to(np.array([0.0, 1.0], dtype=complex),
                                            np.shape(x)[:-1] + (2,)),
    )
    straight, general = _built(spec, comp), _built(_general(spec), comp)
    want = GapCollapseError if kind == "gap_collapse" else NonHermitianError
    assert straight[0] is want and straight == general, straight
