"""Straight rays for systems that declare constant coefficients.

Every case is traced twice: as declared, and through
``dataclasses.replace(spec, constant_coefficients=False)``, the general
RK4 path that calls the spectral kernel at every stage and gates every
stage.  The general path is the oracle, and the two must agree bit for
bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from cgoptics import rays
from cgoptics.errors import ConfigError, DomainExitError
from cgoptics.rays import _trace_bundle, flow_out
from cgoptics.scenarios import (
    bundled_scenario,
    scenario_beam_params,
    scenario_initial_data,
    scenario_system,
)
from cgoptics.systems import builtin_system, load_system

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
