"""What the benchmark harness in perfbench/ needs from the package.

perfbench/spans.py patches named functions and methods of the package and
reads the bound arguments of some of them; perfbench/workloads.py calls
``cli.run_sweep(cfg, threads=1)`` and replaces ``cli.build_scenario_beams``.
A deleted or renamed name breaks every traced benchmark run, so these tests
run the harness's own tracer on a small build.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from cgoptics import cli, scenarios
from cgoptics.scenarios import ScenarioConfig, bundled_scenario

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# counter kind -> the bound arguments spans._count reads
COUNTER_ARGUMENTS = {
    "evaluate": {"X"},
    "invert": {"X"},
    "eval_phase_at_node": {"X"},
    "cluster_modes": {"Xi"},
    "mode_separation": {"s_radius", "bundle", "shrink"},
    "assemble_field": {"axes"},
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(mod_name, attr):
    owner = importlib.import_module(f"cgoptics.{mod_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_span_targets_exist_with_the_arguments_their_counters_read():
    spans = _load_spans()
    for mod_name, attr, _, counter in spans.TARGETS:
        params = set(inspect.signature(_target(mod_name, attr)).parameters)
        missing = COUNTER_ARGUMENTS.get(counter, set()) - params
        assert not missing, (attr, missing)


def test_workload_entry_points():
    cfg = bundled_scenario("wave2x2_beam")
    inspect.signature(cli.run_sweep).bind(cfg, threads=1)
    assert cli.build_scenario_beams is scenarios.build_scenario_beams


def test_tracer_runs_a_small_traced_build():
    spans = _load_spans()
    cfg = bundled_scenario("wave2x2_beam")
    cfg = ScenarioConfig.from_dict({**cfg.to_dict(), "dt": 2e-3})
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, _, built = tracer.op(scenarios.build_scenario_beams, cfg)
    finally:
        tracer.uninstall()
    assert built[0].spec.N == 2
    metrics = spans.layer_metrics(tracer, 1)
    for span in ("beams.build_beam", "rays.flow_out", "phase.build_phase_jet",
                 "extension.mode_separation", "amplitudes.extension_field"):
        assert metrics[f"{span}_s"] > 0.0, span
    assert metrics["rays.ray_nodes"] == built[0].bundle.n_t * built[0].bundle.n_r
    assert "extension.separation_shrinks" in tracer.counts
    assert metrics["systems.cluster_modes_calls"] > 0
    # uninstall restores every patched name
    assert scenarios.build_scenario_beams is cli.build_scenario_beams
    assert not hasattr(scenarios.build_scenario_beams, "__wrapped__")
