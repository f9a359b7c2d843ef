"""Verification: PDE residual of the beam field, reference solver, rate fits.

The residual evaluation never differences across the 1/eps oscillation: it
samples the beam at chart coordinates, where the phase gradient comes from
the jets and the smooth prefactor (cutoff times amplitude) has exact
x-derivatives through the chart Jacobian; the prefactor is differenced only
in time, at fixed chart coordinates, with the chart velocity's chain-rule
term taking it to fixed x.  The reference solver is a one-dimensional
variable-coefficient Lax-Wendroff scheme on an enlarged interval with
outflow extrapolation, so the domain of determinacy is causally insulated
from the boundary treatment.  Its steps advance only the window where the
solution lives: each chunk of steps is one three-point stencil step per time
step, a few whole-array products and sums, on the live nodes padded by the
chunk length, with the negligible tails set to 0.
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
    NumericsError,
    ResolutionError,
)
from .numerics import grid_points, loglog_fit, row_norm, solve_stacked
from .phase import eval_phase_at_offsets

EXACT_FLOOR = 1e-14
MIN_FIT_EPS = 4         # eps values a rate fit needs


# ---------------------------------------------------------------------------
# residual of the asymptotic solution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrefactorJet:
    """The prefactor g = cut(|s|) (base + eps a1) of one beam at m chart
    points of one time node, with base = a0 + s.lin + 1/2 s s quad: its
    eps-free parts, their exact x-gradients (m, d, .) and their time
    derivatives at fixed (r, s) (m, N); ``xdot`` (m, d) is the chart
    velocity dX/dt at fixed (r, s)."""

    cut: np.ndarray
    cut_dx: np.ndarray
    base: np.ndarray
    base_dx: np.ndarray
    base_dt: np.ndarray
    corr: np.ndarray
    corr_dx: np.ndarray
    corr_dt: np.ndarray
    xdot: np.ndarray

    def at(self, eps: float):
        """(g (m, N), d_x g (m, d, N), d_t g at fixed x (m, N)) for one eps."""
        h = self.base + eps * self.corr
        g = self.cut[:, None] * h
        dx = self.cut_dx[:, :, None] * h[:, None] + self.cut[:, None, None] * (
            self.base_dx + eps * self.corr_dx
        )
        dt = self.cut[:, None] * (self.base_dt + eps * self.corr_dt) - np.einsum(
            "md,mda->ma", self.xdot, dx
        )
        return g, dx, dt


def prefactor_jet(beam, k: int, rays: np.ndarray, s: np.ndarray, pv) -> PrefactorJet:
    """The prefactor jet at the chart points (r_i, s) of the rays ``rays``
    and the offsets s (p, d2), stacked ray by ray as
    ``eval_phase_at_offsets`` stacks them; ``pv`` are its phase values there.

    Every part is read at the ray knots: the (r, s)-gradient of base is
    d_s base = lin + quad s (quad symmetrized) and d_r base from the
    r-spline derivatives of a0, lin and quad (``RayBundle.r_derivative``),
    d_s cut from ``Cutoff.derivative``; then d_x = J^-T d_(r,s) with the
    phase's chart Jacobian J (a point beam's J is the identity).  The time
    derivatives at fixed (r, s) are central differences of the knot data at
    nodes k +- 1, and d_t g at fixed x = that - d_x g . dX/dt.
    """
    bundle = beam.bundle
    d, d1, d2, dt = bundle.d, bundle.d1, bundle.d2, bundle.dt
    a0, lin, quad, a1 = beam.transport.a, beam.ext.lin_a, beam.ext.quad_a, beam.corrector
    n = a0.shape[-1]
    p = s.shape[0]
    m = rays.size * p

    def base(a, l, q):
        # a + s.l + 1/2 s s q from per-ray data, at every (ray, offset), (m, N)
        out = (
            a[:, None]
            + np.einsum("pi,ria->rpa", s, l)
            + 0.5 * np.einsum("pi,pj,rija->rpa", s, s, q)
        )
        return out.reshape(m, n)

    def at_offsets(values):
        # per-ray values repeated over the offsets, (m, ...)
        return np.repeat(values, p, axis=0)

    snorm = row_norm(s)
    unit = np.divide(s, snorm[:, None], out=np.zeros_like(s), where=snorm[:, None] > 0)
    cut_dx = np.zeros((m, d))
    cut_dx[:, d1:] = np.tile(beam.cutoff.derivative(snorm)[:, None] * unit, (rays.size, 1))
    base_dx = np.zeros((m, d, n), dtype=complex)
    corr_dx = np.zeros((m, d, n), dtype=complex)
    q = quad[k, rays]
    ds_base = lin[k, rays][:, None] + 0.5 * np.einsum("pj,rija->rpia", s, q + np.swapaxes(q, 1, 2))
    base_dx[:, d1:] = ds_base.reshape(m, d2, n)
    if d1:
        dr = [bundle.r_derivative(v[k][None])[0][rays] for v in (a0, lin, quad, a1)]
        base_dx[:, 0] = base(*dr[:3])
        corr_dx[:, 0] = at_offsets(dr[3])
        # d_x = J^-T d_(r,s): one stacked solve for every right-hand side
        rhs = np.concatenate(
            [cut_dx[:, None], np.swapaxes(base_dx, 1, 2), np.swapaxes(corr_dx, 1, 2)], axis=1
        )
        sol = solve_stacked(np.swapaxes(pv.jac, -1, -2)[:, None], rhs)
        cut_dx = sol[:, 0].real
        base_dx = np.swapaxes(sol[:, 1 : 1 + n], 1, 2)
        corr_dx = np.swapaxes(sol[:, 1 + n :], 1, 2)
    node = lambda kk: base(a0[kk, rays], lin[kk, rays], quad[kk, rays])
    return PrefactorJet(
        cut=np.tile(beam.cutoff(snorm), rays.size),
        cut_dx=cut_dx,
        base=node(k),
        base_dx=base_dx,
        base_dt=(node(k + 1) - node(k - 1)) / (2.0 * dt),
        corr=at_offsets(a1[k, rays]),
        corr_dx=corr_dx,
        corr_dt=at_offsets(a1[k + 1, rays] - a1[k - 1, rays]) / (2.0 * dt),
        xdot=pv.xdot,
    )


def residual_samples(spec, beam, eps_list, n_t_samples: int = 9,
                     n_s: int = 160, margin: float = 1.05, r_trim: int = 2):
    """|L v^eps| at points spanning the beam tube (plus a margin ring).

    Returns one array of samples per eps in ``eps_list``, for one beam.  The
    samples sit at the chart points (r_i, s) of the ray knots r_i and the
    offsets s, where the beam holds every value it needs: one
    ``eval_phase_at_offsets`` call gives a node's phase, and
    ``prefactor_jet`` the prefactor with its exact x-gradient and its time
    derivative at fixed x.  Time nodes are interior so the time differences
    stay centered; for parametrized beams the outermost rays are skipped
    (the charted amplitude stops at the r-grid edge).  Each node is
    evaluated once for every eps; only the prefactor combination, the
    products with the coefficients and the exponential weight run per eps.
    """
    bundle = beam.bundle
    n_t = bundle.n_t
    d = bundle.d
    d2 = bundle.d2

    ks = np.unique(np.linspace(2, n_t - 3, n_t_samples).astype(int))
    smax = margin * beam.cutoff.radius
    if d2 == 1:
        s_grid = np.linspace(-smax, smax, n_s)[:, None]
    else:
        side = max(9, int(np.sqrt(n_s)))
        s_grid = grid_points([np.linspace(-smax, smax, side)] * d2)
        s_grid = s_grid[np.linalg.norm(s_grid, axis=-1) <= smax]

    if bundle.d1 and bundle.n_r > 2 * r_trim:
        rays = np.arange(r_trim, bundle.n_r - r_trim)
    else:
        rays = np.arange(bundle.n_r)

    out = [[] for _ in eps_list]
    for k in ks:
        X, pv = eval_phase_at_offsets(beam.jet, bundle, k, rays, s_grid)
        pre = prefactor_jet(beam, k, rays, s_grid, pv)
        t = bundle.t[k]
        a = [np.asarray(spec.coeff_A(t, X, j)) for j in range(d)]
        # L v e^{-i phi/eps} = d_t g + sum_j A_j d_j g + B g
        #                      + (i/eps) (d_t phi I + A(d_x phi)) g
        sym = pv.dt[:, None, None] * np.eye(spec.N)
        for j in range(d):
            sym = sym + a[j] * pv.dx[:, j][:, None, None]
        bmat = np.asarray(spec.coeff_B(t, X))
        a_cols = np.concatenate(a, axis=-1)               # (m, N, d N)
        for e, eps in enumerate(eps_list):
            g, dx_g, dt_g = pre.at(eps)
            total = (
                dt_g
                + np.einsum("mab,mb->ma", a_cols, dx_g.reshape(g.shape[0], -1))
                + np.einsum("mab,mb->ma", bmat + (1j / eps) * sym, g)
            )
            total = np.where(pv.inside[:, None], total, 0.0)
            weight = np.where(pv.inside, np.exp(-pv.phi.imag / eps), 0.0)
            out[e].append(row_norm(total) * weight)
    return [np.concatenate(o) for o in out]


def residual_sup(spec, beams, eps_list) -> list[float]:
    """Sup over tube samples of |L v^eps| across all beams, one value per eps."""
    worst = [0.0] * len(eps_list)
    for beam in beams:
        for e, vals in enumerate(residual_samples(spec, beam, eps_list)):
            worst[e] = max(worst[e], float(np.max(vals)))
    return worst


# ---------------------------------------------------------------------------
# reference solver (d = 1)
# ---------------------------------------------------------------------------

# The most steps per chunk: the live nodes are found again at least every
# WINDOW_STEPS steps, and a chunk of n steps advances them padded by n + 1
# nodes on each side, since the support grows by at most one node per step.
# Longer chunks search for the live nodes less often (one search per chunk)
# but pad more.
WINDOW_STEPS = 128
# Before a chunk that advances less than the whole grid, the nodes outside
# the first and last one with some |Re u_a| or |Im u_a| above FLUSH_REL times
# the largest on the grid are set to 0.  That moves the state by at most
# sqrt(2) FLUSH_REL sup|u| times the scheme's stability constant, at least
# 1e16 below any reported error, and keeps the tails out of the subnormal
# range.
FLUSH_REL = 1e-100


@dataclass
class ReferenceSolution:
    """Time series of a reference finite-difference solve."""

    x: np.ndarray
    times: list[float]
    values: list[np.ndarray]          # (n_x, N) complex per time
    dx: float
    n_steps: int
    cell_updates: int                 # node-steps advanced x N


def _stencil_step(lower, diag, upper, w: np.ndarray) -> np.ndarray:
    """One step u'_i = lower_i u_{i-1} + diag_i u_i + upper_i u_{i+1} of the
    component-major state w (N, n), as a new array.

    The blocks are (N, N, n - 2) arrays, one N x N block per interior node;
    the two end nodes get 0.  Row a of a node adds its 3N terms
    block[a, b] u_b to a zeroed output, lower then diag then upper, b in
    ascending order: the order in which a CSR matvec with the blocks as its
    rows sums them.  For real blocks (real A and B) a step equals that
    matvec bit for bit; for complex ones numpy's vectorised complex product
    may fuse a multiply-add, and the two agree to rounding.
    """
    out = np.zeros_like(w)
    shifted = (w[:, :-2], w[:, 1:-1], w[:, 2:])
    for a in range(w.shape[0]):
        row = out[a, 1:-1]
        for block, u in zip((lower, diag, upper), shifted):
            for b in range(w.shape[0]):
                row += block[a, b] * u[b]
    return out


def _live_nodes(u: np.ndarray):
    """The nodes start:stop from the first to the last live one of u (n_x, N).

    A node is live where some |Re u_a| or |Im u_a| exceeds FLUSH_REL times
    the largest on the grid (within sqrt(2) of max_a |u_a|, and cheaper).
    None for the zero state; the whole grid if u is not finite, so the
    solve's finite check sees it.
    """
    mag = np.abs(u.view(float)).reshape(-1)
    top = np.max(mag)
    if top == 0:
        return None
    if not np.isfinite(top):
        return 0, u.shape[0]
    live = mag > FLUSH_REL * top
    width = 2 * u.shape[1]          # floats per node
    start = int(np.argmax(live)) // width
    return start, u.shape[0] - int(np.argmax(live[::-1])) // width


def reference_solve(
    spec,
    x: np.ndarray,
    u0: np.ndarray,
    T: float,
    output_times,
    cfl: float = 0.8,
    eps: float | None = None,
    dpsi_max: float | None = None,
) -> ReferenceSolution:
    """Variable-coefficient Lax-Wendroff solve of u_t + A(x) u_x + B(x) u = 0.

    Steps are capped by cfl * dx / max|lambda| (cfl in (0, 1], where the
    scheme is stable) and shortened to hit every output time exactly.  The
    steps run in chunks of at most WINDOW_STEPS: a chunk sets the tails
    below FLUSH_REL of the peak to 0 and advances only the live nodes
    padded by its step count plus one, one ``_stencil_step`` per step with
    the blocks of its step size, then the outflow extrapolation of the
    grid's end nodes where the window reaches them.  Once a window covers
    the grid, the rest of the solve is the plain full-grid loop, with no
    flush.  ``u0`` is not modified; a complex ``u0`` of shape (n_x, N) is
    itself the value at t = 0.  With ``eps`` and ``dpsi_max`` given, the
    grid must resolve the oscillation: dx <= eps * 2 pi / (10 * dpsi_max).
    """
    if spec.d != 1:
        raise ConfigError("the reference solver covers one space dimension only")
    if not 0 < cfl <= 1:
        raise CFLViolationError(
            f"cfl = {cfl!r} is outside (0, 1], where Lax-Wendroff is stable"
        )
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

    # time-independent coefficients: a step of size ddt is one fixed linear
    # map, assembled once per output interval from the N x N blocks of its rows
    eye = np.eye(spec.N)
    aa = a @ a
    first = a @ da + a @ bmat + bmat @ a      # second-order term on D0 u
    zeroth = a @ db + bmat @ bmat             # second-order term on u

    n_x = x.size
    # once a window has covered the grid, the solution fills it: the rest of
    # the solve advances the whole grid without searching for the live nodes
    whole = False

    def advance(u, ddt, n):
        """u advanced by n steps of size ddt, as a new array, and the node-steps made."""
        nonlocal whole
        c1 = (-ddt * a + 0.5 * ddt * ddt * first) / (2 * dx)
        c2 = 0.5 * ddt * ddt * aa / (dx * dx)
        diag = eye - ddt * bmat + 0.5 * ddt * ddt * zeroth - 2 * c2
        # the stencil's blocks component-major, (N, N, n_x): each window's
        # blocks are a slice of these, contiguous along the nodes
        blocks = [
            np.ascontiguousarray(np.moveaxis(m, 0, -1)) for m in (c2 - c1, diag, c2 + c1)
        ]
        node_steps = 0
        n_chunks = -(-n // WINDOW_STEPS)
        for c in range(n_chunks):
            steps = n // n_chunks + (c < n % n_chunks)
            lo, hi = 0, n_x
            if not whole:
                live = _live_nodes(u)
                if live is None:
                    return np.zeros_like(u), node_steps     # zero stays zero
                start, stop = live
                lo, hi = max(0, start - steps - 1), min(n_x, stop + steps + 1)
                whole = (lo, hi) == (0, n_x)
            w = u[lo:hi].T.copy()                   # component-major (N, hi - lo)
            if (lo, hi) != (0, n_x):
                # flushed, the window's end nodes hold the state's true 0
                w[:, :start - lo] = 0
                w[:, stop - lo:] = 0
            inner = [m[:, :, lo + 1:hi - 1] for m in blocks]
            for _ in range(steps):
                w = _stencil_step(*inner, w)
                # outflow: linear extrapolation into the grid's end nodes
                if lo == 0:
                    w[:, 0] = 2 * w[:, 1] - w[:, 2]
                if hi == n_x:
                    w[:, -1] = 2 * w[:, -2] - w[:, -3]
            u = np.zeros_like(u)
            u[lo:hi] = w.T
            node_steps += (hi - lo) * steps
        return u, node_steps

    times = sorted(set(float(t) for t in output_times))
    if times and (times[0] < 0 or times[-1] > T + 1e-12):
        raise ConfigError("output times must lie in [0, T]")
    values = []
    recorded = []
    t_now = 0.0
    n_steps = 0
    cell_updates = 0
    for t_out in times:
        if t_out <= t_now + 1e-14:
            values.append(u)            # never written to: no copy
            recorded.append(t_now)
            continue
        span = t_out - t_now
        n = max(1, int(np.ceil(span / dt_max - 1e-12)))
        u, node_steps = advance(u, span / n, n)
        n_steps += n
        cell_updates += node_steps * spec.N
        t_now = t_out
        if not np.all(np.isfinite(u)):
            raise NumericsError(
                f"the reference solution is not finite at t = {t_now:.6g}"
            )
        values.append(u)
        recorded.append(t_now)
    return ReferenceSolution(
        x=x, times=recorded, values=values, dx=dx, n_steps=n_steps,
        cell_updates=cell_updates,
    )


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


def check_fit_eps(eps_list) -> None:
    """Raise ConfigError unless a rate fit can run over ``eps_list``: at
    least MIN_FIT_EPS values, strictly decreasing."""
    eps_arr = np.asarray(eps_list, dtype=float)
    if eps_arr.size < MIN_FIT_EPS:
        raise ConfigError(
            f"rate fits need at least {MIN_FIT_EPS} epsilon values, got {list(eps_list)}"
        )
    if np.any(np.diff(eps_arr) >= 0):
        raise ConfigError(
            f"rate fits need strictly decreasing epsilon values, got {list(eps_list)}"
        )


def rate_fit(eps_list, errors) -> RateFit:
    """Log-log least-squares rate; raises DegenerateFitError on exact data."""
    check_fit_eps(eps_list)
    eps_arr = np.asarray(eps_list, dtype=float)
    err_arr = np.asarray(errors, dtype=float)
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
        check_fit_eps(self.eps)

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
