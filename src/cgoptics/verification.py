"""Verification: PDE residual of the beam field, reference solver, rate fits.

The residual evaluation never differences across the 1/eps oscillation: the
phase gradient comes from the jets, and only the smooth prefactor (cutoff
times amplitude) is differenced.  The reference solver is a one-dimensional
variable-coefficient Lax-Wendroff scheme on an enlarged interval with
outflow extrapolation, so the domain of determinacy is causally insulated
from the boundary treatment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CFLViolationError,
    ConfigError,
    DegenerateFitError,
    GridMismatchError,
    ResolutionError,
)
from .numerics import grid_points, loglog_fit

EXACT_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# residual of the asymptotic solution
# ---------------------------------------------------------------------------

def residual_samples(spec, beam, eps: float, n_t_samples: int = 9,
                     n_s: int = 160, margin: float = 1.05, r_trim: int = 2):
    """|L v^eps| at points spanning the beam tube (plus a margin ring).

    Returns (values, points_per_node metadata) for one beam.  Time nodes are
    interior so the smooth-prefactor time differences stay centered; for
    parametrized beams the outermost rays are skipped (the charted amplitude
    stops at the r-grid edge).
    """
    bundle = beam.bundle
    n_t = bundle.n_t
    d = bundle.d
    d2 = bundle.d2
    dt = bundle.dt
    h_x = dt

    ks = np.unique(np.linspace(2, n_t - 3, n_t_samples).astype(int))
    smax = margin * beam.cutoff.radius
    if d2 == 1:
        s_grid = np.linspace(-smax, smax, n_s)[:, None]
    else:
        side = max(9, int(np.sqrt(n_s)))
        s_grid = grid_points([np.linspace(-smax, smax, side)] * d2)
        s_grid = s_grid[np.linalg.norm(s_grid, axis=-1) <= smax]

    if bundle.d1 and bundle.n_r > 2 * r_trim:
        rays = range(r_trim, bundle.n_r - r_trim)
    else:
        rays = range(bundle.n_r)

    out = []
    for k in ks:
        X = np.concatenate([bundle.chart_points(k, i, s_grid) for i in rays])
        g0, pv = beam.evaluate(k, X, eps)
        gp, _ = beam.evaluate(k + 1, X, eps)
        gm, _ = beam.evaluate(k - 1, X, eps)
        bvec = (gp - gm) / (2.0 * dt)
        for j in range(d):
            ej = np.zeros(d)
            ej[j] = h_x
            fp, _ = beam.evaluate(k, X + ej, eps)
            fm, _ = beam.evaluate(k, X - ej, eps)
            aj = np.asarray(spec.coeff_A(bundle.t[k], X, j))
            bvec = bvec + np.einsum("mab,mb->ma", aj, (fp - fm) / (2.0 * h_x))
        bmat = np.asarray(spec.coeff_B(bundle.t[k], X))
        bvec = bvec + np.einsum("mab,mb->ma", bmat, g0)
        # oscillatory term: (i/eps) (dt_phi I + A(dx_phi)) g
        sym = np.zeros((X.shape[0], spec.N, spec.N), dtype=complex)
        for j in range(d):
            aj = np.asarray(spec.coeff_A(bundle.t[k], X, j))
            sym = sym + aj * pv.dx[:, j][:, None, None]
        osc = 1j / eps * (pv.dt[:, None] * g0 + np.einsum("mab,mb->ma", sym, g0))
        total = np.where(pv.inside[:, None], bvec + osc, 0.0)
        weight = np.where(pv.inside, np.exp(-pv.phi.imag / eps), 0.0)
        out.append(np.linalg.norm(total, axis=-1) * weight)
    return np.concatenate(out)


def residual_sup(spec, beams, eps: float, **kwargs) -> float:
    """Sup over tube samples of |L v^eps| across all beams."""
    worst = 0.0
    for beam in beams:
        vals = residual_samples(spec, beam, eps, **kwargs)
        worst = max(worst, float(np.max(vals)))
    return worst


# ---------------------------------------------------------------------------
# reference solver (d = 1)
# ---------------------------------------------------------------------------

@dataclass
class ReferenceSolution:
    """Time series of a reference finite-difference solve."""

    x: np.ndarray
    times: list[float]
    values: list[np.ndarray]          # (n_x, N) complex per time
    dx: float
    n_steps: int


def reference_solve(
    spec,
    x: np.ndarray,
    u0: np.ndarray,
    T: float,
    output_times,
    cfl: float = 0.8,
    eps: float | None = None,
    dpsi_max: float | None = None,
    dt: float | None = None,
) -> ReferenceSolution:
    """Variable-coefficient Lax-Wendroff solve of u_t + A(x) u_x + B(x) u = 0.

    Steps are capped by cfl * dx / max|lambda| and shortened to hit every
    output time exactly.  With ``eps`` and ``dpsi_max`` given, the grid must
    resolve the oscillation: dx <= eps * 2 pi / (10 * dpsi_max).
    """
    if spec.d != 1:
        raise ConfigError("the reference solver covers one space dimension only")
    if not spec.time_independent:
        raise ConfigError("the reference solver assumes time-independent coefficients")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u0, dtype=complex).reshape(x.size, spec.N)
    dx = float(x[1] - x[0])
    if eps is not None and dpsi_max is not None:
        dx_max = eps * 2.0 * np.pi / (10.0 * dpsi_max)
        if dx > dx_max:
            raise ResolutionError(
                f"dx = {dx:.3e} does not resolve the oscillation (need <= {dx_max:.3e})"
            )

    a = np.asarray(spec.coeff_A(0.0, x[:, None], 0))
    bmat = np.asarray(spec.coeff_B(0.0, x[:, None]))
    da = np.asarray(spec.coeff_dxA(0.0, x[:, None], 0, 0))
    if np.max(np.abs(bmat)) > 0:
        h = 1e-6
        db = (
            np.asarray(spec.coeff_B(0.0, x[:, None] + h))
            - np.asarray(spec.coeff_B(0.0, x[:, None] - h))
        ) / (2 * h)
    else:
        db = np.zeros_like(bmat)

    speed = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))))))
    dt_max = cfl * dx / speed
    if dt is not None:
        if dt > dt_max:
            raise CFLViolationError(
                f"requested dt = {dt:.3e} violates the CFL limit {dt_max:.3e}"
            )
        dt_max = dt

    # precompute the update matrices (time-independent coefficients)
    aa = a @ a
    first_order = a
    second_order_d0 = a @ da + a @ bmat + bmat @ a   # multiplies D0 u
    second_order_id = a @ db + bmat @ bmat           # multiplies u
    have_b = np.max(np.abs(bmat)) > 0 or np.max(np.abs(db)) > 0

    def step(u, ddt):
        d0 = np.zeros_like(u)
        dd = np.zeros_like(u)
        d0[1:-1] = (u[2:] - u[:-2]) / (2 * dx)
        dd[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / (dx * dx)
        rhs = -np.einsum("xab,xb->xa", first_order, d0)
        if have_b:
            rhs -= np.einsum("xab,xb->xa", bmat, u)
        curv = np.einsum("xab,xb->xa", aa, dd) + np.einsum(
            "xab,xb->xa", second_order_d0, d0
        )
        if have_b:
            curv += np.einsum("xab,xb->xa", second_order_id, u)
        out = u + ddt * rhs + 0.5 * ddt * ddt * curv
        out[0] = 2 * out[1] - out[2]
        out[-1] = 2 * out[-2] - out[-3]
        return out

    times = sorted(set(float(t) for t in output_times))
    if times and (times[0] < 0 or times[-1] > T + 1e-12):
        raise ConfigError("output times must lie in [0, T]")
    values = []
    recorded = []
    t_now = 0.0
    n_steps = 0
    for t_out in times:
        if t_out <= t_now + 1e-14:
            values.append(u.copy())
            recorded.append(t_now)
            continue
        span = t_out - t_now
        n = max(1, int(np.ceil(span / dt_max - 1e-12)))
        ddt = span / n
        for _ in range(n):
            u = step(u, ddt)
        n_steps += n
        t_now = t_out
        values.append(u.copy())
        recorded.append(t_now)
    return ReferenceSolution(x=x, times=recorded, values=values, dx=dx, n_steps=n_steps)


def energy_growth_check(spec, ref: ReferenceSolution, domain) -> dict:
    """Discrete energy inequality ||u(t)|| <= e^{tK} ||u(0)|| on the cone.

    K is assembled from sup|B| and sup|dA/dx| over the grid.
    """
    x = ref.x
    a_vals = np.asarray(spec.coeff_A(0.0, x[:, None], 0))
    da = np.asarray(spec.coeff_dxA(0.0, x[:, None], 0, 0))
    bmat = np.asarray(spec.coeff_B(0.0, x[:, None]))
    knorm = float(
        np.max(np.linalg.norm(bmat, ord=2, axis=(1, 2)))
        + np.max(np.linalg.norm(da, ord=2, axis=(1, 2)))
    )
    norms = []
    for t, u in zip(ref.times, ref.values):
        mask = np.abs(x - domain.center[0]) <= domain.cross_section_radius(t)
        norms.append(
            float(np.sqrt(np.trapezoid(np.sum(np.abs(u[mask]) ** 2, axis=-1), x[mask])))
        )
    base = norms[0]
    worst = 0.0
    for t, n in zip(ref.times, norms):
        bound = np.exp(knorm * t) * base
        worst = max(worst, n / bound if bound > 0 else 0.0)
    return {"max_ratio": worst, "K": knorm, "norms": norms}


# ---------------------------------------------------------------------------
# error curves and rate fits
# ---------------------------------------------------------------------------

def l2_error_curve(x, u_values, v_values, times, domain) -> np.ndarray:
    """Per-time L2 norms of u - v restricted to the domain cross-sections."""
    x = np.asarray(x, dtype=float)
    if len(u_values) != len(v_values) or len(u_values) != len(times):
        raise GridMismatchError("series lengths differ")
    out = np.empty(len(times))
    for idx, (t, u, v) in enumerate(zip(times, u_values, v_values)):
        u = np.asarray(u)
        v = np.asarray(v)
        if u.shape != v.shape or u.shape[0] != x.size:
            raise GridMismatchError("field shapes differ from the grid")
        mask = np.abs(x - domain.center[0]) <= domain.cross_section_radius(t)
        diff = np.sum(np.abs(u[mask] - v[mask]) ** 2, axis=-1)
        out[idx] = np.sqrt(np.trapezoid(diff, x[mask]))
    return out


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    stderr: float


def rate_fit(eps_list, errors) -> RateFit:
    """Log-log least-squares rate; raises DegenerateFitError on exact data."""
    eps_arr = np.asarray(eps_list, dtype=float)
    err_arr = np.asarray(errors, dtype=float)
    if eps_arr.size < 4:
        raise ConfigError("rate fits need at least four epsilon values")
    if np.any(np.diff(eps_arr) >= 0):
        raise ConfigError("epsilon list must be strictly decreasing")
    if np.any(err_arr <= EXACT_FLOOR):
        raise DegenerateFitError(
            "errors at or below the exact floor; report 'exact' instead of a slope"
        )
    slope, intercept, stderr = loglog_fit(eps_arr, err_arr)
    return RateFit(slope=slope, intercept=intercept, stderr=stderr)


def fit_or_exact(eps_list, errors) -> dict:
    """Rate fit as a JSON-friendly record, collapsing exact series."""
    try:
        fit = rate_fit(eps_list, errors)
        return {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "stderr": fit.stderr,
            "exact": False,
        }
    except DegenerateFitError:
        return {"slope": "exact", "intercept": None, "stderr": None, "exact": True}


@dataclass
class SweepResult:
    """Errors and fitted rates across a decreasing list of frequencies."""

    scenario: str
    eps: list[float]
    residual_sup: list[float]
    initial_mismatch: list[float]
    l2_sup: list[float] | None
    l2_curves: dict = field(default_factory=dict)
    runtimes: list[float] = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.eps) >= 2 and any(np.diff(self.eps) >= 0):
            raise ConfigError("epsilon list must be strictly decreasing")

    @property
    def passed(self) -> bool:
        return all(self.checks.values()) if self.checks else True

    def compute_fits(self) -> None:
        self.fits["residual"] = fit_or_exact(self.eps, self.residual_sup)
        self.fits["mismatch"] = fit_or_exact(self.eps, self.initial_mismatch)
        if self.l2_sup is not None:
            self.fits["l2"] = fit_or_exact(self.eps, self.l2_sup)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "eps": list(self.eps),
            "residual_sup": list(self.residual_sup),
            "initial_mismatch": list(self.initial_mismatch),
            "l2_sup": None if self.l2_sup is None else list(self.l2_sup),
            "l2_curves": self.l2_curves,
            "runtimes": list(self.runtimes),
            "fits": self.fits,
            "checks": self.checks,
            "passed": self.passed,
        }

    def write_json(self, path, extra: dict | None = None) -> None:
        payload = self.to_dict()
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            header = "eps,residual_sup,initial_mismatch,l2_sup,runtime_s\n"
            fh.write(header)
            for i, e in enumerate(self.eps):
                l2 = "" if self.l2_sup is None else f"{self.l2_sup[i]:.17g}"
                rt = f"{self.runtimes[i]:.6g}" if i < len(self.runtimes) else ""
                fh.write(
                    f"{e:.17g},{self.residual_sup[i]:.17g},"
                    f"{self.initial_mismatch[i]:.17g},{l2},{rt}\n"
                )
