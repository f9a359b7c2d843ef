import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cgoptics.cli import main, run_check, run_sweep
from cgoptics.errors import ConfigError
from cgoptics.scenarios import (
    BUNDLED_SCENARIOS,
    ScenarioConfig,
    build_scenario_beams,
    bundled_scenario,
    scenario_initial_data,
    scenario_system,
)


def fast_config(tmp_path, name="advection_exact", **overrides):
    cfg = bundled_scenario(name).to_dict()
    cfg["dt"] = 1e-3
    cfg.update(overrides)
    path = tmp_path / "scenario.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def test_bundled_names():
    assert set(BUNDLED_SCENARIOS) == {
        "advection_exact",
        "advection_cubic_phase",
        "wave2x2_beam",
        "acoustics3_beam",
        "variable_advection",
    }


def test_scenario_roundtrip():
    for name in BUNDLED_SCENARIOS:
        cfg = bundled_scenario(name)
        again = ScenarioConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()


def test_scenario_config_rejects_unknown_and_missing():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"name": "x", "bogus": 1})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"name": "x"})


def test_run_check_builtin_passes():
    report = run_check(bundled_scenario("acoustics3_beam"))
    assert report["passed"]
    assert report["min_spectral_gap"] == pytest.approx(1.0, abs=1e-9)


def test_cli_check_pass_and_fail(tmp_path):
    out = tmp_path / "out"
    rc = main(["check", "--scenario", "advection_exact", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"]

    bad = {
        "name": "broken",
        "system": {
            "name": "bad",
            "d": 1,
            "N": 2,
            "A": [[[0, 1], [0, 0]]],
            "domain": {"center": [0], "radius": 2, "final_time": 0.5, "speed": 2},
        },
        "components": [
            {
                "mode": 0,
                "origin": [0.0],
                "phase": {"grad": [1.0], "hess_im": [[1.0]]},
                "amplitude": {"re": [1.0, 0.0]},
            }
        ],
        "eps_list": [0.1, 0.05, 0.025, 0.0125],
        "chart_radius": 1.0,
    }
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    rc = main(["check", "--config", str(bad_path), "--out", str(out)])
    assert rc == 1


def test_cli_missing_system_name_is_config_error(tmp_path):
    cfg = {
        "name": "nameless",
        "system": {"d": 1, "N": 1},
        "components": [],
        "eps_list": [0.1, 0.05, 0.025, 0.0125],
        "chart_radius": 1.0,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["check", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cli_trace_and_beam_outputs(tmp_path):
    cfg_path = fast_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["trace", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    rays = (out / "rays.csv").read_text().splitlines()
    assert rays[0].startswith("t,r,x0,xi0")
    assert len(rays) == 1 + 501

    rc = main(["beam", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert (out / "phase.csv").exists()
    assert (out / "amplitude.csv").exists()
    assert (out / "report.json").exists()


def test_cli_verify_outputs(tmp_path):
    cfg_path = fast_config(tmp_path, eps_list=[0.1])
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["residual_sup"] <= 1e-8
    assert (out / "field_t0.csv").exists()
    assert (out / "field_t0.json").exists()
    meta = json.loads((out / "field_t0.json").read_text())
    assert meta["eps"] == 0.1
    assert meta["n_components"] == 1


def test_cli_sweep_cubic_phase_deterministic(tmp_path):
    cfg_path = fast_config(tmp_path, name="advection_cubic_phase")
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    rc1 = main(["sweep", "--config", str(cfg_path), "--out", str(out1)])
    rc2 = main(["sweep", "--config", str(cfg_path), "--out", str(out2)])
    assert rc1 == 0 and rc2 == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    for r in (r1, r2):
        r.pop("timestamp")
        r.pop("runtimes")
    assert r1 == r2
    # sweep csv written with one row per eps
    rows = (out1 / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 4


def test_cli_eps_list_override(tmp_path):
    cfg_path = fast_config(tmp_path, name="advection_cubic_phase")
    out = tmp_path / "out"
    rc = main(
        [
            "sweep",
            "--config",
            str(cfg_path),
            "--out",
            str(out),
            "--eps-list",
            "0.2,0.1,0.05,0.025",
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["eps"] == [0.2, 0.1, 0.05, 0.025]


def test_cli_threads_flag_is_rejected_by_argparse(tmp_path, capsys):
    argv = ["sweep", "--scenario", "advection_exact", "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --threads 2" in err
    assert "Traceback" not in err


def test_run_sweep_rejects_threads_other_than_one():
    with pytest.raises(ConfigError, match="threads"):
        run_sweep(bundled_scenario("advection_exact"), threads=2)


def test_cli_sweep_with_more_comparison_times_than_path_nodes(tmp_path):
    # dt = 0.05 gives an 11-node path: 20 requested times name some node
    # twice, and the sweep compares at the 11 distinct ones
    reference = {**bundled_scenario("variable_advection").reference, "n_times": 20}
    path = fast_config(tmp_path, name="variable_advection", dt=0.05, reference=reference)
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) in (0, 1)
    report = json.loads((out / "report.json").read_text())
    assert [len(curve) for curve in report["l2_curves"].values()] == [11] * 4


def test_build_scenario_beams_structure():
    cfg = bundled_scenario("wave2x2_beam")
    cfg.dt = 1e-3
    spec, initial, beams = build_scenario_beams(cfg)
    assert spec.N == 2
    assert len(beams) == 1
    assert beams[0].cutoff.radius <= cfg.chart_radius
    assert beams[0].diagnostics["polarization_residual"] <= 1e-6


@pytest.mark.parametrize("name", ["acoustics3_beam", "advection_cubic_phase"])
def test_phase_without_cubic_term_is_bitwise_the_full_polynomial(name):
    # psi skips a zero cubic term; every bit must stay, the signs of zeros too
    cfg = bundled_scenario(name)
    spec = scenario_system(cfg)
    comp = scenario_initial_data(cfg, spec).components[0]
    raw = cfg.components[0]["phase"]
    origin, grad = np.asarray(cfg.components[0]["origin"]), np.asarray(raw["grad"])
    hess = np.asarray(raw.get("hess_re", 0.0)) + 1j * np.asarray(raw["hess_im"])
    hess = np.broadcast_to(hess, (spec.d, spec.d))
    cubic = np.asarray(raw.get("cubic", np.zeros(spec.d)))
    axes = [np.linspace(c - 2.0, c + 2.0, 41) for c in origin]
    X = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, spec.d)
    dx = X - origin
    want = (
        float(raw.get("constant", 0.0)) + dx @ grad
        + 0.5 * np.einsum("...i,ij,...j->...", dx, hess, dx)
        + np.einsum("j,...j->...", cubic, dx**3)
    )
    got = comp.psi(X)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_cli_component_missing_r_range_is_config_error(tmp_path, capsys):
    cfg = bundled_scenario("acoustics3_beam").to_dict()
    del cfg["components"][0]["r_range"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["trace", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "'r_range'" in capsys.readouterr().err


def test_short_form_rejects_keys_outside_overrides(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"scenario": "wave2x2_beam", "dt": 0.01}))
    with pytest.raises(ConfigError, match=r"\['dt'\].*overrides"):
        ScenarioConfig.load_json(path)
    path.write_text(
        json.dumps({"scenario": "wave2x2_beam", "overrides": {"dt": 0.01}})
    )
    assert ScenarioConfig.load_json(path).dt == 0.01


def test_cli_check_missing_r_range_is_config_error(tmp_path):
    cfg = bundled_scenario("acoustics3_beam").to_dict()
    del cfg["components"][0]["r_range"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["check", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cli_check_rejects_unpolarized_amplitude(tmp_path):
    cfg = bundled_scenario("acoustics3_beam").to_dict()
    cfg["components"][0]["amplitude"]["re"] = [1.0, 0.0, 0.0]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    rc = main(["check", "--config", str(path), "--out", str(out)])
    assert rc == 1
    report = json.loads((out / "report.json").read_text())
    assert report["initial_data_ok"] is False
    assert "not polarized" in report["initial_data_error"]


@pytest.mark.parametrize(
    "field,value",
    [
        ("eps_list", ["a"]),
        ("eps_list", []),
        ("eps_list", 0.1),
        ("eps_list", [0.1, -0.05]),
        ("chart_radius", "1"),
        ("chart_radius", 0.0),
        ("dt", "0.01"),
        ("dt", -1e-3),
        ("ext_stride", 2.5),
        ("corrector_stride", 0),
        ("ext_stride", True),
    ],
)
def test_cli_config_field_types_are_config_errors(tmp_path, field, value):
    cfg = bundled_scenario("advection_exact").to_dict()
    cfg[field] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=field):
        ScenarioConfig.load_json(path)
    rc = main(["check", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--dt", "abc"],
        ["--dt=-0.001"],
        ["--dt", "0"],
        ["--eps-list=-0.1"],
        ["--eps-list", "0"],
        ["--eps-list", "0.1,x"],
    ],
)
def test_cli_bad_overrides_are_config_errors(tmp_path, capsys, flags):
    argv = ["verify", "--scenario", "advection_exact", "--out", str(tmp_path / "o")]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "reference,match",
    [
        ({"cfl": 5}, "cfl"),
        ({"cfl": 0}, "cfl"),
        ({"cfl": -0.5}, "cfl"),
        ({"cfl": "0.8"}, "cfl"),
        ({"dx_factor": "x"}, "dx_factor"),
        ({"dx_factor": 0}, "dx_factor"),
        ({"margin": -0.1}, "margin"),
        ({"n_times": 1}, "n_times"),
        ({"n_times": 6.0}, "n_times"),
        ({"n_times": True}, "n_times"),
        ({"dx": 40}, "unknown reference fields"),
        ([40, 0.8], "mapping"),
    ],
)
def test_cli_bad_reference_settings_are_config_errors(tmp_path, capsys, reference, match):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"scenario": "advection_exact", "overrides": {"reference": reference}}
    ))
    with pytest.raises(ConfigError, match=match):
        ScenarioConfig.load_json(path)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_cli_unforeseen_exception_exits_3_in_one_line(tmp_path, capsys, monkeypatch):
    import cgoptics.cli as cli

    def broken(cfg, threads=1):
        raise ZeroDivisionError("float division by zero\nsecond line")

    monkeypatch.setattr(cli, "run_sweep", broken)
    argv = ["sweep", "--scenario", "advection_exact", "--out", str(tmp_path / "o")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "ZeroDivisionError" in err
    assert "Traceback" not in err


def test_cli_reference_grid_over_cost_cap_is_config_error(tmp_path, capsys):
    # at eps = 1e-7 the reference grid would take ~5e9 nodes and ~3e8 steps;
    # the cost estimate rejects it before anything is allocated
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"scenario": "variable_advection", "overrides": {"eps_list": [1e-7]}}
    ))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "cell updates" in err
    assert "Traceback" not in err


def test_cli_ray_build_over_node_cap_is_config_error(tmp_path, capsys):
    # dt = 1e-9 would trace 1e9 time nodes x 33 rays; the node count is
    # checked before the rays are traced
    argv = ["trace", "--scenario", "acoustics3_beam", "--dt", "1e-9", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "1e+09 time nodes x 33 rays" in err
    assert "ray nodes" in err
    assert "Traceback" not in err


# values of the wrong type, missing or out of range; none large enough to
# allocate much (1e308 fails every size check before anything is allocated)
def _malformed(change):
    cfg = bundled_scenario("advection_exact").to_dict()
    return change(cfg) or cfg


@pytest.mark.parametrize(
    "cfg,match",
    [
        (None, "JSON object"),
        (_malformed(lambda c: c.update(components=5)), "'components'"),
        (_malformed(lambda c: c["components"][0].update(phase="x")), "'phase'"),
        (_malformed(lambda c: c["components"][0].update(origin=[])), "'origin'"),
        (_malformed(lambda c: c["system"].update(domain=5)), "'domain'"),
        (_malformed(lambda c: c["system"].update(domain={"radius": 4.0, "size": 1})), "'size'"),
    ],
    ids=["null", "components", "phase", "origin", "domain", "domain-key"],
)
def test_cli_malformed_config_names_the_key(tmp_path, capsys, cfg, match):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["check", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and match in err
    assert "internal error" not in err and "Traceback" not in err


_BAD_VALUES = (
    None, True, -1, 0, 0.5, 1e308, float("nan"), float("-inf"), "x", "", [], {},
    [1.0, 2.0], {"a": 1},
)


def _key_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, child in items:
        out.append(path + (key,))
        out.extend(_key_paths(child, path + (key,)))
    return out


def _table_system_config():
    """A scenario on a custom table system, the branch of load_system that
    no bundled scenario takes."""
    cfg = bundled_scenario("wave2x2_beam").to_dict()
    cfg["system"] = {
        "name": "table", "d": 1, "N": 2,
        "A": [[[0.0, 1.0], [1.0, 0.0]]], "B": [[0.0, 0.0], [0.0, 0.0]],
        "domain": {"center": [0.0], "radius": 5.0, "final_time": 0.5, "speed": 1.0},
    }
    return cfg


@st.composite
def malformed_configs(draw):
    name = draw(st.sampled_from(sorted(BUNDLED_SCENARIOS) + ["table"]))
    cfg = _table_system_config() if name == "table" else bundled_scenario(name).to_dict()
    for _ in range(draw(st.integers(1, 3))):
        paths = _key_paths(cfg)
        if not paths or draw(st.integers(0, 19)) == 0:
            return draw(st.sampled_from(_BAD_VALUES))
        *parent, key = draw(st.sampled_from(paths))
        owner = cfg
        for step in parent:
            owner = owner[step]
        if draw(st.booleans()):
            del owner[key]
        else:
            owner[key] = draw(st.sampled_from(_BAD_VALUES))
    return cfg


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(malformed_configs())
def test_cli_check_exit_contract_on_malformed_configs(cfg):
    # any config file: exit 0 (pass), 1 (check failed) or 2 (config error),
    # with one line on stderr and never a traceback; a malformed config is
    # never a run-time failure (exit 3)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["check", "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def _table_malformed(change):
    cfg = _table_system_config()
    change(cfg["system"])
    return cfg


@pytest.mark.parametrize(
    "cfg,match",
    [
        (_table_malformed(lambda s: s.update(A=[[[0, 1, 2], [1, 0, 3]]])), "'A[0]'"),
        (_table_malformed(lambda s: s.update(d="one")), "'d'"),
        (_table_malformed(lambda s: s["A"][0][0].__setitem__(0, "x")), "'A[0]'"),
        (_table_malformed(lambda s: s.update(B=[[0, 1]])), "'B'"),
        (_table_malformed(lambda s: s["domain"].update(radius="far")), "'radius'"),
        (_table_malformed(lambda s: s["A"][0][1].__setitem__(1, float("nan"))), "'A[0]'"),
        (_table_malformed(lambda s: s["A"][0][0].__setitem__(1, float("inf"))), "'A[0]'"),
        (_table_malformed(lambda s: s["A"][0][0].__setitem__(0, 1e308)), "'A[0]'"),
        (_table_malformed(lambda s: s.update(A=5)), "'A'"),
        (_table_malformed(lambda s: s.update(domain=[])), "'domain'"),
    ],
    ids=["A-size", "d", "A-entry", "B-size", "radius", "A-nan", "A-inf", "A-huge", "A-list",
         "domain"],
)
def test_cli_malformed_table_system_names_the_field(tmp_path, capsys, cfg, match):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["check", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1 and match in err, err
