"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection;
the smoke runs take about two minutes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def test_seed_gives_same_config_bytes():
    for w in workloads.WORKLOADS.values():
        seen = set()
        for seed in range(20):
            a = w.make_config(workloads.params_for_seed(w.name, w.lattice, seed))
            b = w.make_config(workloads.params_for_seed(w.name, w.lattice, seed))
            blob = json.dumps(a.to_dict(), sort_keys=True)
            assert blob == json.dumps(b.to_dict(), sort_keys=True)
            seen.add(blob)
        assert len(seen) > 1, f"{w.name}: every seed gives the same config"


def test_every_lattice_point_has_reference_outputs():
    reference = workloads.load_reference()
    for w in workloads.WORKLOADS.values():
        keys = {workloads.params_key(p) for p in workloads.lattice_points(w.lattice)}
        assert keys == set(reference[w.name])


def test_metric_names_match_pattern_and_emitters():
    e2e = [m["name"] for m in BENCH["end_to_end"]]
    layer = [m["name"] for m in BENCH["per_layer"]]
    for name in e2e + layer + [w["name"] for w in BENCH["workloads"]]:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    assert set(layer) == set(spans.layer_metrics(spans.Tracer(), 1)) | {"trace.overhead_s"}


def test_self_time_of_synthetic_span_tree():
    # root [0, 100] > a [10, 40] > c [20, 30]; root > b [50, 90];
    # d [60, 80] and e [70, 85] overlap under b, so they cover [60, 85].
    tree = [
        [0, 0, 100, -1],
        [1, 10, 40, 0],
        [2, 20, 30, 1],
        [3, 50, 90, 0],
        [4, 60, 80, 3],
        [4, 70, 85, 3],
    ]
    assert spans.self_times(tree) == [100 - 30 - 40, 30 - 10, 10, 40 - 25, 20, 15]
    # a span nested in one of its own name counts once in the inclusive time
    nested = [[0, 0, 10, -1], [1, 1, 9, 0], [1, 2, 5, 1]]
    totals = spans.span_totals(["root", "x"], nested)
    assert totals["x"] == pytest.approx((8e-9, 8e-9))
    assert totals["root"] == pytest.approx((10e-9, 2e-9))


def test_percentile_interpolates():
    assert run.percentile([3, 1, 2], 50) == 2
    assert run.percentile(list(range(11)), 90) == pytest.approx(9.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, float)
        if not trace:
            assert value > 0, m["name"]
