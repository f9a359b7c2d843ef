"""Command-line front end: check, trace, beam, verify, and sweep stages.

Exit codes: 0 success, 1 an acceptance threshold failed, 2 configuration
error, 3 numerical failure (caustic, positivity loss, and friends).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import CGOError, ConfigError, NumericsError
from .fields import assemble_field, eval_initial_data, initial_mismatch, \
    write_field_csv, write_field_meta
from .phase import phase_csv_rows
from .rays import validate_component
from .scenarios import (
    BUNDLED_SCENARIOS,
    ScenarioConfig,
    build_scenario_beams,
    bundled_scenario,
    scenario_initial_data,
    scenario_system,
)
from .systems import check_assumptions
from .verification import (
    SweepResult,
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


def _reference_grid(spec, cfg: ScenarioConfig, eps: float):
    ref_cfg = cfg.reference
    dom = spec.domain
    margin = float(ref_cfg.get("margin", 0.2))
    x_probe = np.linspace(
        dom.center[0] - dom.radius, dom.center[0] + dom.radius, 501
    )
    a_vals = np.asarray(spec.coeff_A(0.0, x_probe[:, None], 0))
    speed = float(np.max(np.abs(np.linalg.eigvalsh(
        0.5 * (a_vals + np.conj(np.swapaxes(a_vals, -1, -2)))
    ))))
    lo = dom.center[0] - dom.radius - speed * dom.final_time - margin
    hi = dom.center[0] + dom.radius + speed * dom.final_time + margin
    dx = eps / float(ref_cfg.get("dx_factor", 40))
    n = int(np.ceil((hi - lo) / dx)) + 1
    return np.linspace(lo, hi, n)


def _comparison_times(spec, cfg: ScenarioConfig, n_t_path: int):
    n_times = int(cfg.reference.get("n_times", 6))
    T = spec.domain.final_time
    idx = np.linspace(0, n_t_path - 1, n_times).astype(int)
    return [float(i) * T / (n_t_path - 1) for i in idx]


def _max_dpsi(initial, spec, x):
    worst = 0.0
    for comp in initial.components:
        grads = np.asarray(comp.dpsi(x[:, None]))
        worst = max(worst, float(np.max(np.abs(grads))))
    return worst


def _sweep_entry(spec, initial, beams, cfg, eps):
    """All error measurements for one frequency."""
    t0 = time.perf_counter()
    entry = {}
    entry["residual_sup"] = residual_sup(spec, beams, eps)

    grid = _reference_grid(spec, cfg, eps) if spec.d == 1 else None
    if grid is None:
        # mismatch measured on a tube-adapted grid in higher dimension
        axes = tuple(
            np.linspace(
                spec.domain.center[j] - spec.domain.radius,
                spec.domain.center[j] + spec.domain.radius,
                321,
            )
            for j in range(spec.d)
        )
        entry["initial_mismatch"] = initial_mismatch(initial, beams, eps, axes)
        entry["l2_sup"] = None
        entry["l2_curve"] = None
        entry["runtime"] = time.perf_counter() - t0
        return entry

    entry["initial_mismatch"] = initial_mismatch(initial, beams, eps, (grid,))

    times = _comparison_times(spec, cfg, beams[0].bundle.n_t)
    h_eps = eval_initial_data(initial, eps, (grid,))
    ref = reference_solve(
        spec,
        grid,
        h_eps.values,
        spec.domain.final_time,
        times,
        cfl=float(cfg.reference.get("cfl", 0.8)),
        eps=eps,
        dpsi_max=_max_dpsi(initial, spec, grid),
    )
    v_series = [
        assemble_field(beams, eps, (grid,), t).values for t in times
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
            cfl=float(cfg.reference.get("cfl", 0.8)),
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
    """Build the beams once and measure errors for every frequency."""
    eps_list = sorted((float(e) for e in cfg.eps_list), reverse=True)
    spec, initial, beams = build_scenario_beams(cfg)

    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            entries = list(
                pool.map(lambda e: _sweep_entry(spec, initial, beams, cfg, e), eps_list)
            )
    else:
        entries = [_sweep_entry(spec, initial, beams, cfg, e) for e in eps_list]

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
    th = cfg.thresholds
    checks = result.checks
    if "residual_max" in th:
        checks["residual_max"] = max(result.residual_sup) <= th["residual_max"]
    if "mismatch_max" in th:
        checks["mismatch_max"] = max(result.initial_mismatch) <= th["mismatch_max"]
    stderr_max = th.get("stderr_max", np.inf)

    def slope_check(fit, minimum):
        if fit["exact"]:
            return True
        return fit["slope"] >= minimum and fit["stderr"] <= stderr_max

    if "residual_slope_min" in th:
        checks["residual_slope"] = slope_check(
            result.fits["residual"], th["residual_slope_min"]
        )
    if "mismatch_slope_min" in th:
        checks["mismatch_slope"] = slope_check(
            result.fits["mismatch"], th["mismatch_slope_min"]
        )
    if "l2_slope_min" in th and result.l2_sup is not None:
        checks["l2_slope"] = slope_check(result.fits["l2"], th["l2_slope_min"])
    if "l2_factor" in th and result.l2_sup is not None:
        ok = True
        for e, entry in enumerate(entries):
            est = entry.get("ref_error_estimate")
            if est is not None:
                ok = ok and entry["l2_sup"] <= th["l2_factor"] * est
        checks["l2_vs_reference"] = ok
    if "polarization_max" in th:
        checks["polarization"] = all(
            b.diagnostics["polarization_residual"] <= th["polarization_max"]
            for b in beams
        )
    if "riccati_min_imag_min" in th:
        checks["riccati_positivity"] = all(
            b.diagnostics["riccati_min_imag"] > th["riccati_min_imag_min"]
            for b in beams
        )


def _write_rays_csv(bundle, path):
    with open(path, "w") as fh:
        d, d2 = bundle.d, bundle.d2
        header = ["t", "r"] + [f"x{j}" for j in range(d)] + [f"xi{j}" for j in range(d)]
        for i in range(d2):
            header += [f"e{i}_{j}" for j in range(d)]
        fh.write(",".join(header) + "\n")
        r_vals = bundle.r if bundle.d1 else np.zeros(1)
        for k in range(bundle.n_t):
            for i in range(bundle.n_r):
                row = [bundle.t[k], float(r_vals[i])]
                row += list(bundle.x[k, i]) + list(bundle.xi[k, i])
                for j2 in range(d2):
                    row += list(bundle.frames[k, i, :, j2])
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _write_phase_csv(jet, bundle, path):
    d2 = bundle.d2
    header = ["t", "r", "phi0"] + [f"sigma{j}" for j in range(d2)]
    header += [f"re_phi_{i}{j}" for i in range(d2) for j in range(d2)]
    header += [f"im_phi_{i}{j}" for i in range(d2) for j in range(d2)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in phase_csv_rows(jet, bundle):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _write_amplitude_csv(beam, path):
    bundle = beam.bundle
    n = beam.spec.N
    header = ["t", "r"]
    for c in range(n):
        header += [f"re_a{c}", f"im_a{c}"]
    header += ["abs_a", "arg_a0", "gouy"]
    r_vals = bundle.r if bundle.d1 else np.zeros(1)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(bundle.n_t):
            for i in range(bundle.n_r):
                a = beam.transport.a[k, i]
                row = [bundle.t[k], float(r_vals[i])]
                for c in range(n):
                    row += [a[c].real, a[c].imag]
                row += [
                    float(np.linalg.norm(a)),
                    float(np.angle(a[0])) if abs(a[0]) > 0 else 0.0,
                    float(beam.transport.gouy[k, i]),
                ]
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


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
    res = residual_sup(spec, beams, eps)
    times = _comparison_times(spec, cfg, beams[0].bundle.n_t)
    if spec.d == 1:
        grid = _reference_grid(spec, cfg, eps)
        axes = (grid,)
    else:
        axes = tuple(
            np.linspace(
                spec.domain.center[j] - spec.domain.radius,
                spec.domain.center[j] + spec.domain.radius,
                201,
            )
            for j in range(spec.d)
        )
    mism = initial_mismatch(initial, beams, eps, axes)
    for ti, t in enumerate(times):
        fg = assemble_field(beams, eps, axes, t)
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
    result = run_sweep(cfg, threads=args.threads)
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
        p.add_argument("--threads", type=int, default=1, help="sweep worker pool size")
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


if __name__ == "__main__":
    sys.exit(main())
