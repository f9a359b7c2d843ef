"""Command-line front end: check, trace, beam, verify, and sweep stages.

Exit codes: 0 success, 1 an acceptance threshold failed, 2 configuration
error, 3 numerical failure (caustic, positivity loss, and friends).
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .errors import CGOError, ConfigError, NumericsError
from .fields import InitialGrid, assemble_field, eval_initial_data, initial_mismatch, \
    write_csv, write_field_csv, write_field_meta
from .numerics import linspace_nodes
from .rays import validate_component
from .scenarios import (
    BUNDLED_SCENARIOS,
    THRESHOLDS,
    ScenarioConfig,
    build_scenario_beams,
    bundled_scenario,
    scenario_initial_data,
    scenario_system,
)
from .systems import check_assumptions
from .verification import (
    SweepResult,
    check_fit_eps,
    l2_error_curve,
    reference_solve,
    residual_sup,
)


def _load_config(args) -> ScenarioConfig:
    if args.scenario:
        cfg = bundled_scenario(args.scenario)
    elif args.config:
        cfg = ScenarioConfig.load_json(args.config)
    else:
        raise ConfigError("provide --scenario NAME or --config PATH")
    overrides = {}
    try:
        if args.eps_list is not None:
            overrides["eps_list"] = [float(v) for v in args.eps_list.split(",") if v]
        if args.dt is not None:
            overrides["dt"] = float(args.dt)
    except ValueError as exc:
        raise ConfigError(f"--eps-list and --dt take numbers ({exc})") from None
    if overrides:
        # through from_dict, so the overrides get the config's own checks
        cfg = ScenarioConfig.from_dict({**cfg.to_dict(), **overrides})
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_check(cfg: ScenarioConfig) -> dict:
    """Validate the structural assumptions of the configured system."""
    spec = scenario_system(cfg)
    report = check_assumptions(spec)
    # a config that does not parse is a config error (exit 2); data that
    # parses but violates the structural requirements fails the check
    initial = scenario_initial_data(cfg, spec)
    try:
        for comp in initial.components:
            validate_component(spec, comp)
        data_ok = True
        data_msg = ""
    except CGOError as exc:
        data_ok = False
        data_msg = str(exc)
    out = report.to_dict()
    out["initial_data_ok"] = data_ok
    if not data_ok:
        out["initial_data_error"] = data_msg
    out["passed"] = bool(report.passed and data_ok)
    return out


# Lax-Wendroff cell updates (nodes x steps x N) allowed for one reference
# solve, checked before the grid is allocated.  The largest bundled solve,
# the Richardson fine solve of advection_exact at eps = 0.0125, makes about
# 2.9e8; 1e10 is a few minutes of solving.
REFERENCE_COST_MAX = 1e10
# The d = 1 reference grid: step eps / REFERENCE_DX_FACTOR over the domain
# widened by the largest speed times final_time plus REFERENCE_MARGIN on
# each side; its steps are capped at REFERENCE_CFL times the stable one.
REFERENCE_DX_FACTOR = 40
REFERENCE_MARGIN = 0.2
REFERENCE_CFL = 0.8
N_COMPARISON_TIMES = 6      # node-aligned times of the L2 error and the field files


def _reference_grid(spec, eps: float):
    dom = spec.domain
    x_probe = np.linspace(
        dom.center[0] - dom.radius, dom.center[0] + dom.radius, 501
    )
    a_vals = np.asarray(spec.coeff_A(0.0, x_probe[:, None], 0))
    speed = float(np.max(np.abs(np.linalg.eigvalsh(
        0.5 * (a_vals + np.conj(np.swapaxes(a_vals, -1, -2)))
    ))))
    lo = dom.center[0] - dom.radius - speed * dom.final_time - REFERENCE_MARGIN
    hi = dom.center[0] + dom.radius + speed * dom.final_time + REFERENCE_MARGIN
    dx = eps / REFERENCE_DX_FACTOR
    nodes = float(np.ceil((hi - lo) / dx)) + 1
    steps = float(np.ceil(dom.final_time * speed / (REFERENCE_CFL * dx)))
    cost = nodes * steps * spec.N
    if not cost <= REFERENCE_COST_MAX:
        raise ConfigError(
            f"the reference solve at eps = {eps:g} needs about {cost:.2e} cell "
            f"updates ({nodes:.3g} nodes x {steps:.3g} steps x N = {spec.N}), "
            f"above the limit of {REFERENCE_COST_MAX:.0e}; raise eps"
        )
    return np.linspace(lo, hi, int(nodes))


def _comparison_times(spec, n_t_path: int):
    T = spec.domain.final_time
    # distinct nodes: more comparison times than path nodes would repeat one
    idx = linspace_nodes(0, n_t_path - 1, N_COMPARISON_TIMES)
    return [float(i) * T / (n_t_path - 1) for i in idx]


def _max_dpsi(initial, spec, x):
    worst = 0.0
    for comp in initial.components:
        grads = np.asarray(comp.dpsi(x[:, None]))
        worst = max(worst, float(np.max(np.abs(grads))))
    return worst


def _mismatch_axes(spec, n: int):
    """Axes of the n^d grid over the domain box, where d >= 2 mismatches are measured."""
    return tuple(
        np.linspace(
            spec.domain.center[j] - spec.domain.radius,
            spec.domain.center[j] + spec.domain.radius,
            n,
        )
        for j in range(spec.d)
    )


def _sweep_entry(spec, initial, beams, cfg, eps, grid):
    """The d = 1 measurements for one frequency on its reference grid:
    initial mismatch and L2 error."""
    t0 = time.perf_counter()
    entry = {}
    # the t = 0 grid serves the mismatch, the solve's initial data and the
    # first comparison time; it is dropped before the solve
    start = InitialGrid(initial, beams, (grid,))
    entry["initial_mismatch"] = start.mismatch(eps)
    v_start = start.field(eps).values
    h_eps = start.data(eps)
    del start

    times = _comparison_times(spec, beams[0].bundle.n_t)
    ref = reference_solve(
        spec,
        grid,
        h_eps.values,
        spec.domain.final_time,
        times,
        cfl=REFERENCE_CFL,
        eps=eps,
        dpsi_max=_max_dpsi(initial, spec, grid),
    )
    v_series = [
        v_start if t == 0.0 else assemble_field(beams, eps, (grid,), t).values
        for t in times
    ]
    errs = l2_error_curve(grid, ref.values, v_series, times, spec.domain)
    entry["l2_sup"] = float(np.max(errs))
    entry["l2_curve"] = {f"{t:.6g}": float(e) for t, e in zip(times, errs)}

    if "l2_factor" in cfg.thresholds:
        # Richardson estimate of the reference discretization error
        fine = np.linspace(grid[0], grid[-1], 2 * grid.size - 1)
        h_fine = eval_initial_data(initial, eps, (fine,))
        ref_fine = reference_solve(
            spec, fine, h_fine.values, spec.domain.final_time, times,
            cfl=REFERENCE_CFL,
        )
        rich = l2_error_curve(
            grid,
            ref.values,
            [v[::2] for v in ref_fine.values],
            times,
            spec.domain,
        )
        entry["ref_error_estimate"] = float(np.max(rich) * 4.0 / 3.0)
    entry["runtime"] = time.perf_counter() - t0
    return entry


def run_sweep(cfg: ScenarioConfig, threads: int = 1) -> SweepResult:
    """Build the beams once and measure errors for every frequency.

    The residuals, and in d >= 2 the initial mismatches, are measured for
    all eps at once; their time is split evenly over the eps entries.  In
    d = 1 the reference grid depends on eps, so the mismatch and the L2
    error run per eps.  ``threads`` must be 1: the sweep runs serially.
    """
    if threads != 1:
        raise ConfigError(f"run_sweep runs serially (threads = 1), got threads = {threads!r}")
    eps_list = sorted((float(e) for e in cfg.eps_list), reverse=True)
    check_fit_eps(eps_list)
    # d = 1: the reference grids depend on eps; reject a costly one before
    # the build, and form them after it, so that their memory does not
    # overlap it
    spec = scenario_system(cfg)
    for e in eps_list if spec.d == 1 else ():
        _reference_grid(spec, e)
    spec, initial, beams = build_scenario_beams(cfg)
    grids = [_reference_grid(spec, e) for e in eps_list] if spec.d == 1 else None

    t0 = time.perf_counter()
    residuals = residual_sup(spec, beams, eps_list)
    if grids is None:
        mismatches = initial_mismatch(initial, beams, eps_list, _mismatch_axes(spec, 321))
        entries = [
            {"initial_mismatch": mism, "l2_sup": None, "l2_curve": None, "runtime": 0.0}
            for mism in mismatches
        ]
    shared = (time.perf_counter() - t0) / len(eps_list)

    if grids is not None:
        entries = [
            _sweep_entry(spec, initial, beams, cfg, eps, grid)
            for eps, grid in zip(eps_list, grids)
        ]
    for entry, res in zip(entries, residuals):
        entry["residual_sup"] = res
        entry["runtime"] += shared

    has_l2 = entries[0]["l2_sup"] is not None
    result = SweepResult(
        scenario=cfg.name,
        eps=eps_list,
        residual_sup=[e["residual_sup"] for e in entries],
        initial_mismatch=[e["initial_mismatch"] for e in entries],
        l2_sup=[e["l2_sup"] for e in entries] if has_l2 else None,
        l2_curves={
            f"{eps:.6g}": e["l2_curve"] for eps, e in zip(eps_list, entries) if e["l2_curve"]
        },
        runtimes=[e["runtime"] for e in entries],
    )
    result.compute_fits()
    _apply_thresholds(result, cfg, beams, entries)
    return result


def _apply_thresholds(result: SweepResult, cfg: ScenarioConfig, beams, entries):
    # every name in THRESHOLDS, None where the scenario sets none
    th = dict.fromkeys(THRESHOLDS) | cfg.thresholds
    checks = result.checks
    if th["residual_max"] is not None:
        checks["residual_max"] = max(result.residual_sup) <= th["residual_max"]
    if th["mismatch_max"] is not None:
        checks["mismatch_max"] = max(result.initial_mismatch) <= th["mismatch_max"]
    stderr_max = np.inf if th["stderr_max"] is None else th["stderr_max"]

    def slope_check(fit, minimum):
        if fit["exact"]:
            return True
        return fit["slope"] >= minimum and fit["stderr"] <= stderr_max

    if th["residual_slope_min"] is not None:
        checks["residual_slope"] = slope_check(
            result.fits["residual"], th["residual_slope_min"]
        )
    if th["mismatch_slope_min"] is not None:
        checks["mismatch_slope"] = slope_check(
            result.fits["mismatch"], th["mismatch_slope_min"]
        )
    if th["l2_slope_min"] is not None and result.l2_sup is not None:
        checks["l2_slope"] = slope_check(result.fits["l2"], th["l2_slope_min"])
    if th["l2_factor"] is not None and result.l2_sup is not None:
        ok = True
        for e, entry in enumerate(entries):
            est = entry.get("ref_error_estimate")
            if est is not None:
                ok = ok and entry["l2_sup"] <= th["l2_factor"] * est
        checks["l2_vs_reference"] = ok
    if th["polarization_max"] is not None:
        checks["polarization"] = all(
            b.diagnostics["polarization_residual"] <= th["polarization_max"]
            for b in beams
        )
    if th["riccati_min_imag_min"] is not None:
        checks["riccati_positivity"] = all(
            b.diagnostics["riccati_min_imag"] > th["riccati_min_imag_min"]
            for b in beams
        )


def _node_table(bundle, *columns):
    """Rows (t, r, columns...) for every (node, ray), node by node; each
    column block is (n_t, n_r, c).  Point beams read r = 0."""
    shape = (bundle.n_t, bundle.n_r, 1)
    t = np.broadcast_to(bundle.t[:, None, None], shape)
    r = np.broadcast_to((bundle.r if bundle.d1 else np.zeros(1))[None, :, None], shape)
    table = np.concatenate([t, r, *columns], axis=-1)
    return table.reshape(bundle.n_t * bundle.n_r, -1)


def _write_rays_csv(bundle, path):
    d, d2 = bundle.d, bundle.d2
    header = ["t", "r"] + [f"x{j}" for j in range(d)] + [f"xi{j}" for j in range(d)]
    for i in range(d2):
        header += [f"e{i}_{j}" for j in range(d)]
    frames = np.swapaxes(bundle.frames, -1, -2).reshape(bundle.n_t, bundle.n_r, d2 * d)
    write_csv(path, header, _node_table(bundle, bundle.x, bundle.xi, frames))


def _write_phase_csv(jet, bundle, path):
    d2 = bundle.d2
    header = ["t", "r", "phi0"] + [f"sigma{j}" for j in range(d2)]
    header += [f"re_phi_{i}{j}" for i in range(d2) for j in range(d2)]
    header += [f"im_phi_{i}{j}" for i in range(d2) for j in range(d2)]
    phi0 = np.broadcast_to(jet.axis_value[None, :, None], (bundle.n_t, bundle.n_r, 1))
    curv = jet.curvature.reshape(bundle.n_t, bundle.n_r, d2 * d2)
    write_csv(path, header, _node_table(bundle, phi0, jet.sigma, curv.real, curv.imag))


def _write_amplitude_csv(beam, path):
    bundle = beam.bundle
    n = beam.spec.N
    header = ["t", "r"]
    for c in range(n):
        header += [f"re_a{c}", f"im_a{c}"]
    header += ["abs_a", "arg_a0", "gouy"]
    a = beam.transport.a
    re_im = np.stack([a.real, a.imag], axis=-1).reshape(bundle.n_t, bundle.n_r, 2 * n)
    # |a| summed as np.linalg.norm sums one vector: the real parts' dot
    # product plus the imaginary parts'
    norm = np.sqrt(np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag))
    arg = np.where(np.abs(a[..., 0]) > 0, np.angle(a[..., 0]), 0.0)
    extra = np.stack([norm, arg, beam.transport.gouy], axis=-1)
    write_csv(path, header, _node_table(bundle, re_im, extra))


def cmd_check(args) -> int:
    cfg = _load_config(args)
    report = run_check(cfg)
    out = _out_dir(args)
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[check] {cfg.name}: {'pass' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


def cmd_trace(args) -> int:
    cfg = _load_config(args)
    spec, initial, beams = build_scenario_beams(cfg)
    out = _out_dir(args)
    for idx, beam in enumerate(beams):
        suffix = "" if len(beams) == 1 else f"_{idx}"
        _write_rays_csv(beam.bundle, out / f"rays{suffix}.csv")
    print(f"[trace] wrote rays for {len(beams)} component(s) to {out}")
    return 0


def cmd_beam(args) -> int:
    cfg = _load_config(args)
    spec, initial, beams = build_scenario_beams(cfg)
    out = _out_dir(args)
    for idx, beam in enumerate(beams):
        suffix = "" if len(beams) == 1 else f"_{idx}"
        _write_rays_csv(beam.bundle, out / f"rays{suffix}.csv")
        _write_phase_csv(beam.jet, beam.bundle, out / f"phase{suffix}.csv")
        _write_amplitude_csv(beam, out / f"amplitude{suffix}.csv")
    diag = {f"component_{i}": b.diagnostics for i, b in enumerate(beams)}
    with open(out / "report.json", "w") as fh:
        json.dump(diag, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    print(f"[beam] wrote beam data for {len(beams)} component(s) to {out}")
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    spec, initial, beams = build_scenario_beams(cfg)
    out = _out_dir(args)
    eps = float(cfg.eps_list[0])
    res = residual_sup(spec, beams, [eps])[0]
    times = _comparison_times(spec, beams[0].bundle.n_t)
    if spec.d == 1:
        axes = (_reference_grid(spec, eps),)
    else:
        axes = _mismatch_axes(spec, 201)
    start = InitialGrid(initial, beams, axes)
    mism = start.mismatch(eps)
    for ti, t in enumerate(times):
        fg = start.field(eps) if t == 0.0 else assemble_field(beams, eps, axes, t)
        write_field_csv(fg, out / f"field_t{ti}.csv")
        write_field_meta(
            fg, out / f"field_t{ti}.json",
            components=[c.get("label", "") for c in cfg.components],
        )
    report = {
        "scenario": cfg.name,
        "eps": eps,
        "residual_sup": res,
        "initial_mismatch": mism,
        "diagnostics": {f"component_{i}": b.diagnostics for i, b in enumerate(beams)},
    }
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    print(f"[verify] eps={eps}: residual={res:.3e} mismatch={mism:.3e}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    result = run_sweep(cfg)
    out = _out_dir(args)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    result.write_json(out / "report.json", extra={"timestamp": stamp})
    result.write_csv(out / "sweep.csv")
    for series, fit in result.fits.items():
        slope = fit["slope"]
        slope_txt = slope if isinstance(slope, str) else f"{slope:.3f}"
        print(f"[sweep] {cfg.name} {series}: slope={slope_txt}")
    for name, ok in result.checks.items():
        print(f"[sweep] check {name}: {'pass' if ok else 'FAIL'}")
    return 0 if result.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cgoptics",
        description="Gaussian-beam construction and verification for symmetric "
        "hyperbolic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("check", cmd_check),
        ("trace", cmd_trace),
        ("beam", cmd_beam),
        ("verify", cmd_verify),
        ("sweep", cmd_sweep),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a scenario JSON file")
        p.add_argument(
            "--scenario",
            help=f"bundled scenario name ({', '.join(BUNDLED_SCENARIOS)})",
        )
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--eps-list", help="comma-separated frequency parameters")
        p.add_argument("--dt", help="ray time step override")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CGOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # an unforeseen failure is still a run-time failure (exit 3): one
        # line on stderr, the traceback only to a configured debug log
        logging.getLogger(__name__).debug("unforeseen failure", exc_info=True)
        detail = " ".join(str(exc).split())
        print(f"internal error ({type(exc).__name__}): {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
