"""The benchmark workloads: seeded configurations, operations and checks.

Each workload turns a seed into a ``ScenarioConfig`` by drawing its free
parameters from a fixed lattice inside the ranges below.  Every lattice
point has reference outputs in ``reference.json`` (written by ``record.py``
on the commit that defined the benchmark), so every seed can be checked.

* ``sweep1d`` -- ``run_sweep`` of the bundled ``variable_advection``
  scenario.  Most of its time is the Lax-Wendroff reference solve; N = 1, so
  the spectral and amplitude layers do no work.
* ``beam2d`` -- ``run_sweep`` of the bundled ``acoustics3_beam`` scenario on
  a reduced ray grid: the 2-D vector build path (eigendecompositions,
  transport, extension field, corrector) and no reference solve.
* ``field2d`` -- the ``beam2d`` beam built once per set-up, then repeated
  ``assemble_field`` calls on a fixed grid at the
  six comparison times and four eps: the read side (chart inversion,
  phase-jet evaluation, r-interpolation).
"""

from __future__ import annotations

import itertools
import json
import random
import time
from pathlib import Path

import numpy as np

from cgoptics import cli, fields, scenarios

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Drift allowed against the recorded outputs: relative on error values and
# field norms, absolute on fitted slopes, intercepts and their stderr.
VALUE_RTOL = 1e-3
FIT_ATOL = 1e-3

XI0 = (0.9, 0.95, 1.0, 1.05, 1.1)
N_COMPARISON_TIMES = 6
FIELD_GRID_N = 101


class BuildTimer:
    """Times the beam build inside ``run_sweep`` with a single timer.

    ``run_sweep`` calls ``cli.build_scenario_beams``; the timer looks up
    ``scenarios.build_scenario_beams`` at call time, so a traced run still
    goes through the span wrapper installed there.
    """

    def __init__(self):
        self.last = 0.0

    def __call__(self, cfg):
        t0 = time.perf_counter()
        try:
            return scenarios.build_scenario_beams(cfg)
        finally:
            self.last = time.perf_counter() - t0


def params_for_seed(name: str, lattice: dict, seed: int) -> dict:
    rng = random.Random(f"cgoptics-bench/{name}/{seed}")
    return {key: rng.choice(lattice[key]) for key in sorted(lattice)}


def params_key(params: dict) -> str:
    return json.dumps(params, sort_keys=True)


def lattice_points(lattice: dict):
    keys = sorted(lattice)
    for values in itertools.product(*(lattice[k] for k in keys)):
        yield dict(zip(keys, values))


def _close(value, ref, tol_abs: float, tol_rel: float) -> bool:
    if isinstance(ref, str) or ref is None or isinstance(ref, bool):
        return value == ref
    return abs(float(value) - float(ref)) <= tol_abs + tol_rel * abs(float(ref))


def compare_sweep(summary: dict, ref: dict) -> list[str]:
    """Differences between a sweep summary and its recorded reference."""
    bad = []
    if summary["eps"] != ref["eps"]:
        bad.append(f"eps list {summary['eps']} != {ref['eps']}")
    for key in ("residual_sup", "initial_mismatch", "l2_sup"):
        got, want = summary[key], ref[key]
        if (got is None) != (want is None) or (
            want is not None and not all(
                _close(g, w, 0.0, VALUE_RTOL) for g, w in zip(got, want)
            )
        ):
            bad.append(f"{key} {got} != {want}")
    for series, want in ref["fits"].items():
        got = summary["fits"].get(series, {})
        for key, w in want.items():
            if not _close(got.get(key), w, FIT_ATOL, 0.0):
                bad.append(f"fit {series}.{key} {got.get(key)} != {w}")
    return bad


class SweepWorkload:
    """One operation = one cold ``run_sweep`` (build plus verification)."""

    def __init__(self, name, scenario, lattice, apply, shrink, min_ops=1):
        self.name = name
        self.min_ops = min_ops
        self.scenario = scenario
        self.lattice = lattice
        self._apply = apply
        self._shrink = shrink

    def make_config(self, params: dict, smoke: bool = False):
        cfg = scenarios.bundled_scenario(self.scenario)
        self._apply(cfg, params)
        if smoke:
            self._shrink(cfg)
        return cfg

    def setup(self, cfg, reference):
        timer = BuildTimer()
        cli.build_scenario_beams = timer
        return {"cfg": cfg, "reference": reference, "timer": timer}

    def run_op(self, state, index):
        result = cli.run_sweep(state["cfg"], threads=1)
        return result, state["timer"].last

    @staticmethod
    def verify_best(ops) -> float:
        """The fastest sweep's time after the build (residual, mismatch, L2)."""
        return min(o["s"] - (o["build_s"] or 0.0) for o in ops)

    def check(self, state, index, result) -> list[str]:
        if not result.passed:
            return [f"sweep checks failed: {result.checks}"]
        if state["reference"] is None:
            return []
        return compare_sweep(sweep_summary(result), state["reference"])

    def record(self, cfg) -> dict:
        return sweep_summary(cli.run_sweep(cfg, threads=1))


def sweep_summary(result) -> dict:
    fits = {
        series: {k: fit[k] for k in ("slope", "intercept", "stderr")}
        for series, fit in result.fits.items()
    }
    return {
        "eps": list(result.eps),
        "residual_sup": list(result.residual_sup),
        "initial_mismatch": list(result.initial_mismatch),
        "l2_sup": None if result.l2_sup is None else list(result.l2_sup),
        "fits": fits,
        "passed": result.passed,
    }


def comparison_times(spec, n_t: int) -> list[float]:
    """The node-aligned comparison times used by ``cgoptics verify``."""
    T = spec.domain.final_time
    idx = np.linspace(0, n_t - 1, N_COMPARISON_TIMES).astype(int)
    return [float(i) * T / (n_t - 1) for i in idx]


def field_norm(grid) -> float:
    """L2 norm of a field on its tensor grid (uniform cell area)."""
    cell = np.prod([ax[1] - ax[0] for ax in grid.axes])
    return float(np.sqrt(np.sum(np.abs(grid.values) ** 2) * cell))


class FieldWorkload:
    """One operation = one ``assemble_field`` on a built, warmed beam.

    Set-up builds the beam and runs a first pass over the comparison times,
    which fills the lazy chart and jet caches.  Operations cycle through the
    (time, eps) pairs.  A run makes at least ``min_ops`` operations, whole
    passes over the pairs, so that at least ten samples lie beyond p90 and
    each pair's fastest time is taken over eight samples spread over the run.
    """

    pass_len = N_COMPARISON_TIMES * len(scenarios.EPS_DEFAULT)
    min_ops = 8 * pass_len

    def __init__(self, name, base: SweepWorkload):
        self.name = name
        self.base = base
        self.lattice = base.lattice

    def make_config(self, params: dict, smoke: bool = False):
        return self.base.make_config(params, smoke=smoke)

    def build(self, cfg):
        t0 = time.perf_counter()
        spec, _, beams = scenarios.build_scenario_beams(cfg)
        build_s = time.perf_counter() - t0
        axes = tuple(
            np.linspace(c - spec.domain.radius, c + spec.domain.radius, FIELD_GRID_N)
            for c in spec.domain.center
        )
        times = comparison_times(spec, beams[0].bundle.n_t)
        pairs = [(ti, ei) for ti in range(len(times)) for ei in range(len(cfg.eps_list))]
        return {"beams": beams, "axes": axes, "times": times,
                "eps": list(cfg.eps_list), "pairs": pairs, "build_s": build_s}

    def setup(self, cfg, reference):
        state = self.build(cfg)
        for t in state["times"]:
            fields.assemble_field(state["beams"], state["eps"][0], state["axes"], t)
        state["reference"] = reference
        return state

    def _pair(self, state, index):
        ti, ei = state["pairs"][index % len(state["pairs"])]
        return ti, ei, state["times"][ti], state["eps"][ei]

    def run_op(self, state, index):
        _, _, t, eps = self._pair(state, index)
        return fields.assemble_field(state["beams"], eps, state["axes"], t), None

    def verify_best(self, ops) -> float:
        """One pass over every (time, eps) field, each at its fastest time."""
        best = {}
        for o in ops:
            key = o["index"] % self.pass_len
            best[key] = min(o["s"], best.get(key, o["s"]))
        return sum(best.values())

    def check(self, state, index, grid) -> list[str]:
        if not np.all(np.isfinite(grid.values)):
            return ["field has non-finite values"]
        if state["reference"] is None:
            return []
        ti, ei, t, eps = self._pair(state, index)
        want = state["reference"]["norms"][ti][ei]
        got = field_norm(grid)
        if not _close(got, want, 0.0, VALUE_RTOL):
            return [f"field norm at t={t}, eps={eps}: {got} != {want}"]
        return []

    def record(self, cfg) -> dict:
        state = self.build(cfg)
        norms = [
            [field_norm(fields.assemble_field(state["beams"], eps, state["axes"], t))
             for eps in state["eps"]]
            for t in state["times"]
        ]
        return {"norms": norms}


def _sweep1d_apply(cfg, p):
    comp = cfg.components[0]
    comp["origin"] = [p["origin"]]
    comp["phase"]["grad"] = [p["xi0"]]


def _sweep1d_shrink(cfg):
    cfg.eps_list = [0.2, 0.1, 0.05, 0.025]


def _beam2d_apply(cfg, p):
    # Reduced from n_r = 33, n_t = 2001 and the default strides so two sweeps
    # fit a run; the beam is not rotated, which would break its polarization.
    comp = cfg.components[0]
    comp["n_r"] = 9
    comp["phase"]["grad"] = [p["xi0"], 0.0]
    comp["amplitude"]["envelope_width"] = p["width"]
    cfg.dt = 0.004
    cfg.ext_stride = cfg.corrector_stride = 25


def _beam2d_shrink(cfg):
    cfg.dt = 0.02


SWEEP1D = SweepWorkload(
    "sweep1d", "variable_advection",
    {"origin": (-0.2, -0.1, 0.0, 0.1, 0.2), "xi0": XI0},
    _sweep1d_apply, _sweep1d_shrink, min_ops=3,
)
BEAM2D = SweepWorkload(
    "beam2d", "acoustics3_beam",
    {"xi0": XI0, "width": (0.16, 0.18, 0.2)},
    _beam2d_apply, _beam2d_shrink, min_ops=2,
)
FIELD2D = FieldWorkload("field2d", BEAM2D)

WORKLOADS = {w.name: w for w in (SWEEP1D, BEAM2D, FIELD2D)}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
