import json

import pytest

from cgoptics.cli import main, run_check
from cgoptics.errors import ConfigError
from cgoptics.scenarios import (
    BUNDLED_SCENARIOS,
    ScenarioConfig,
    build_scenario_beams,
    bundled_scenario,
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


def test_cli_threads_match_serial(tmp_path):
    cfg_path = fast_config(tmp_path, name="advection_cubic_phase")
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert (
        main(
            ["sweep", "--config", str(cfg_path), "--out", str(out2), "--threads", "3"]
        )
        == 0
    )
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    for r in (r1, r2):
        r.pop("timestamp")
        r.pop("runtimes")
    assert r1 == r2


def test_build_scenario_beams_structure():
    cfg = bundled_scenario("wave2x2_beam")
    cfg.dt = 1e-3
    spec, initial, beams = build_scenario_beams(cfg)
    assert spec.N == 2
    assert len(beams) == 1
    assert beams[0].cutoff.radius <= cfg.chart_radius
    assert beams[0].diagnostics["polarization_residual"] <= 1e-6


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
