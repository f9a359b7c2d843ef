"""Complex phase jets along the beam: linear data from rays, curvature from Riccati.

The second-order phase in chart coordinates is

    phi(t, r, s) = phi0(r) + <sigma(t,r), s> + (1/2) <s, Phi(t,r) s>,

where phi0 is the (real) initial phase on the manifold, (rho, sigma) are the
chart components of the ray covector, and the complex symmetric curvature
matrix Phi solves the matrix Riccati equation

    dPhi/dt = -(A + Phi B + B^T Phi + Phi C Phi)

with coefficients read off the chart jet of the mode Hamiltonian.  Im(Phi)
stays symmetric positive definite, which localizes the beam on the tube.

The Riccati equation is linear in disguise: Phi = P Q^-1, where [Q; P]
solves the linear system of dynamic ray tracing (Ralston 1982; Cerveny,
*Seismic Ray Theory*, 2001).  ``solve_riccati`` steps that system with RK4
step maps formed for every step at once, and advances Phi by their Moebius
action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ConfigError, PositivityLossError
from .numerics import (
    CubicPoints,
    central_time_derivative,
    rk4_step_maps,
    solve_stacked,
    step_blocks,
)
from .rays import (
    RayBundle,
    SymbolJet,
    WaveComponent,
    chart_jacobian,
    pullback_jet_path,
)
from .systems import SystemSpec

RICCATI_BLOWUP = 1e8
POSITIVITY_TOL = 1e-12   # Im(Phi) must keep its smallest eigenvalue above this
SYMMETRY_DRIFT_TOL = 1e-12
RHO_TOL = 1e-5           # rho against d(phi0)/dr, on top of the splines' truncation bound


def _coefficients_from_jet(jets: SymbolJet, dsigma_dr=None):
    """Riccati coefficient matrices (A, B, C), each (n_t, n_r, d2, d2).

    ``dsigma_dr`` (n_t, n_r, d2, d1) is the r-derivative of the linear phase
    coefficients; omitted in the degenerate point-source case, where the
    coefficients reduce to the classic beam-tracing form A = Lambda_ss,
    B = Lambda_sigma_s, C = Lambda_sigma_sigma.
    """
    tr = lambda m: np.swapaxes(m, -1, -2)
    a = jets.ss
    b = tr(jets.s_sigma)                  # B_ij = d2 Lambda / dsigma_i ds_j
    c = jets.sigma_sigma
    if jets.d1 and dsigma_dr is not None:
        w = dsigma_dr
        a = (
            a
            + jets.s_rho @ tr(w)
            + w @ tr(jets.s_rho)
            + w @ jets.rho_rho @ tr(w)
        )
        b = b + tr(jets.rho_sigma) @ tr(w)
    return 0.5 * (a + tr(a)), b, 0.5 * (c + tr(c))


def _first_bad(bad: np.ndarray):
    """(k, i) of the first row k of ``bad`` (n, n_r) holding a True, and the
    first such ray i; None if there is none."""
    rows = np.flatnonzero(bad.any(axis=1))
    if rows.size == 0:
        return None
    k = int(rows[0])
    return k, int(np.flatnonzero(bad[k])[0])


def solve_riccati(
    coeffs: tuple[np.ndarray, np.ndarray, np.ndarray],
    phi0: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Integrate the matrix Riccati equation along every ray at once.

    ``coeffs`` are arrays (n_t, n_r, d2, d2) for A, B, C at the path nodes
    (midpoint values are averaged) and ``phi0`` is (n_r, d2, d2); a single
    ray may drop the n_r axis of all four.

    The equation is solved through its linear form: Y = [Q; P] solves
    Y' = M Y with M = [[B, C], [-A, -B^T]], Q(0) = I and P(0) = Phi0, and
    Phi = P Q^-1.  The RK4 step maps S_k of this linear system (node,
    averaged midpoint and node coefficients) are formed for a block of
    steps at once (``numerics.step_blocks``), and Phi advances by the
    Moebius step

        Phi_{k+1} = (S_21 + S_22 Phi_k) (S_11 + S_12 Phi_k)^-1,

    re-symmetrized every step; for d2 = 1 the inverse is a division.  This
    is the only sequential part.  It agrees with RK4 on the Riccati
    equation itself to O(dt^4).

    Guards, each naming the ray, the step and its time (step * dt):

    - *symmetry:* A and C must be symmetric at every node, to
      ``SYMMETRY_DRIFT_TOL`` relative to max(1, the largest entry).  An
      asymmetric A or C is what makes the Riccati flow leave the symmetric
      matrices, so the check sits on the inputs; on Phi, RK4's truncation
      (the linear form is not symplectic) would fail valid coarse-dt runs.
      A failure at node n is reported at step max(n, 1), the first step
      that uses node n;
    - *blow-up:* |Phi| above ``RICCATI_BLOWUP``, or a non-finite Phi from
      a singular S_11 + S_12 Phi, with floating-point warnings silenced;
    - *positivity:* the smallest eigenvalue of Im(Phi) at or below
      ``POSITIVITY_TOL``, checked in one batch over the stored steps.

    The first failing step wins; within one step the symmetry guard comes
    first, then blow-up, then positivity.
    """
    phi0 = np.asarray(phi0, dtype=complex)
    if phi0.ndim == 2:
        paths = tuple(np.asarray(m)[:, None] for m in coeffs)
        return _solve_riccati(paths, phi0[None], dt)[0][:, 0]
    return _solve_riccati(coeffs, phi0, dt)[0]


def _solve_riccati(coeffs, phi0: np.ndarray, dt: float):
    """``solve_riccati`` on stacked rays: the curvature path (n_t, n_r, d2,
    d2) and the smallest eigenvalue of Im(Phi) over it, from the
    positivity check's eigenvalues and those of Im(Phi(0))."""
    phi0 = np.asarray(phi0, dtype=complex)
    tr = lambda m: np.swapaxes(m, -1, -2)
    asym = np.max(np.abs(phi0 - tr(phi0)), axis=(1, 2))
    if np.max(asym) > 1e-12:
        raise ConfigError(
            f"initial curvature matrix of ray {int(np.argmax(asym))} must be symmetric"
        )
    min_im = np.min(np.linalg.eigvalsh(0.5j * (tr(phi0).conj() - phi0)), axis=-1)
    if np.min(min_im) <= POSITIVITY_TOL:
        raise PositivityLossError(
            f"Im(Phi(0)) of ray {int(np.argmin(min_im))} must be positive definite"
        )

    a, b, c = (np.asarray(m) for m in coeffs)
    n_t, n_r, d2 = a.shape[0], phi0.shape[0], phi0.shape[-1]

    def place(step, i):
        return f"ray {i} at step {step} (t = {step * dt:.4f})"

    # the symmetry gate: the first node at which A or C is asymmetric
    drift = {}
    for name, m in (("A", a), ("C", c)):
        size = np.maximum(1.0, np.max(np.abs(m), axis=(2, 3)))
        drift[name] = np.max(np.abs(m - tr(m)), axis=(2, 3)) / size
    bad = {name: v > SYMMETRY_DRIFT_TOL for name, v in drift.items()}
    asym = _first_bad(bad["A"] | bad["C"])
    n_steps = n_t - 1
    if asym is not None and max(asym[0], 1) <= n_steps:
        node, i = asym
        name = "A" if bad["A"][node, i] else "C"
        # only the steps before the gate's step: at one step it fails first
        n_steps = max(node, 1) - 1
        sym_error = BlowUpError(
            f"Riccati symmetry drift {drift[name][node, i]:.2e} (relative) in the "
            f"coefficient {name} on {place(n_steps + 1, i)}"
        )
    else:
        sym_error = None

    out = np.empty((n_t,) + phi0.shape, dtype=complex)
    out[0] = phi0
    dtype = np.result_type(a, b, c, float)
    blowup = None
    with np.errstate(all="ignore"):
        for k0, k1 in step_blocks(n_steps, n_r * 4 * d2 * d2):
            nodes = slice(k0, k1 + 1)
            m_nodes = np.empty((k1 + 1 - k0, n_r, 2 * d2, 2 * d2), dtype=dtype)
            m_nodes[..., :d2, :d2] = b[nodes]
            m_nodes[..., :d2, d2:] = c[nodes]
            np.negative(a[nodes], out=m_nodes[..., d2:, :d2])
            np.negative(tr(b[nodes]), out=m_nodes[..., d2:, d2:])
            _mobius_steps(rk4_step_maps(m_nodes, dt), out[nodes])
            # NaN from a singular S_11 + S_12 Phi fails the comparison too
            size = np.abs(out[k0 + 1 : k1 + 1]).max(axis=(2, 3))
            found = _first_bad(~(size <= RICCATI_BLOWUP))
            if found is not None:
                k, i = found
                blowup = (k0 + k, i, size[k, i])
                break

    def check_positivity(n):
        # Im(Phi) after each of the first n steps, in one batch; returns
        # the smallest eigenvalue
        min_im = np.linalg.eigvalsh(out[1 : n + 1].imag).min(axis=-1)
        found = _first_bad(min_im <= POSITIVITY_TOL)
        if found is not None:
            k, i = found
            raise PositivityLossError(
                f"Im(Phi) lost positive definiteness on {place(k + 1, i)} "
                f"(min eigenvalue {min_im[k, i]:.3e})"
            )
        return np.min(min_im, initial=np.inf)

    if blowup is not None:
        k, i, norm = blowup
        check_positivity(k)
        raise BlowUpError(
            f"curvature matrix norm {norm:.2e} exceeded the blow-up "
            f"threshold on {place(k + 1, i)}"
        )
    min_steps = check_positivity(n_steps)
    if sym_error is not None:
        raise sym_error
    return out, float(min(np.min(np.linalg.eigvalsh(out[0].imag)), min_steps))


def _mobius_steps(maps: np.ndarray, path: np.ndarray) -> None:
    """Fill path[1:] (n + 1, n_r, d2, d2) from path[0] by the Moebius steps
    Phi_{k+1} = (S_21 + S_22 Phi_k) (S_11 + S_12 Phi_k)^-1 of the step maps
    ``maps`` (n, n_r, 2 d2, 2 d2), re-symmetrized; for d2 = 1 a division."""
    d2 = path.shape[-1]
    s11, s12 = maps[..., :d2, :d2], maps[..., :d2, d2:]
    s21, s22 = maps[..., d2:, :d2], maps[..., d2:, d2:]
    if d2 == 1:
        s11, s12, s21, s22 = (m[..., 0, 0] for m in (s11, s12, s21, s22))
        chain = path[..., 0, 0]
        for k in range(len(maps)):
            phi = chain[k]
            np.divide(s21[k] + s22[k] * phi, s11[k] + s12[k] * phi, out=chain[k + 1])
        return
    for k in range(len(maps)):
        phi = path[k]
        nxt = _right_solve(s21[k] + s22[k] @ phi, s11[k] + s12[k] @ phi)
        np.add(nxt, np.swapaxes(nxt, -1, -2), out=path[k + 1])
        path[k + 1] *= 0.5


def _right_solve(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num den^-1 for stacked rays (n_r, d2, d2); a ray whose den is singular
    gets NaN, which the blow-up guard reads as a failure."""
    tr = lambda m: np.swapaxes(m, -1, -2)
    try:
        return tr(np.linalg.solve(tr(den), tr(num)))
    except np.linalg.LinAlgError:
        out = np.full(num.shape, np.nan, dtype=complex)
        for i in range(num.shape[0]):
            try:
                out[i] = np.linalg.solve(den[i].T, num[i].T).T
            except np.linalg.LinAlgError:
                pass
        return out


@dataclass
class PhaseJet:
    """Second-order complex phase data on the beam manifold.

    ``axis_value`` is the constant-in-time real phase on each ray,
    ``sigma``/``rho`` the transverse/longitudinal covector components, and
    ``curvature`` the complex symmetric matrix Phi.  Time derivatives of the
    coefficients are stored for phase/time-derivative evaluation off the
    manifold.  ``hess_xi`` is the mode's eigenvalue Hessian in xi on the
    rays, which the Riccati coefficients and the Gouy rate share.  On line
    beams ``dsigma_dr`` and ``dphi0_dr`` are the r-derivatives of sigma and
    phi0 at the ray nodes (``RayBundle.r_derivative``), taken once for the
    Riccati coefficients, the rho check and the projector s-jet.
    """

    axis_value: np.ndarray            # (n_r,)
    sigma: np.ndarray                 # (n_t, n_r, d2)
    rho: np.ndarray                   # (n_t, n_r, d1)
    curvature: np.ndarray             # (n_t, n_r, d2, d2) complex
    dt_sigma: np.ndarray              # (n_t, n_r, d2)
    dt_curvature: np.ndarray          # (n_t, n_r, d2, d2)
    hess_xi: np.ndarray               # (n_t, n_r, d, d)
    dsigma_dr: np.ndarray | None = None   # (n_t, n_r, d2), line beams only
    dphi0_dr: np.ndarray | None = None    # (n_r,), line beams only
    riccati_min_imag: float = np.inf  # min over path of min eig Im(Phi)

    @property
    def n_t(self) -> int:
        return self.sigma.shape[0]

    @property
    def n_r(self) -> int:
        return self.sigma.shape[1]

    @property
    def d2(self) -> int:
        return self.sigma.shape[2]


def initial_curvature(bundle: RayBundle, comp: WaveComponent) -> np.ndarray:
    """Initial Phi(0, r): the chart Hessian of psi on the normal frame."""
    e0 = bundle.frames[0]                             # (n_r, d, d2)
    hess = np.asarray(comp.d2psi(comp.points))        # (n_r, d, d)
    phi0 = np.einsum("rdi,rde,rej->rij", e0, hess, e0)
    return phi0


def build_phase_jet(
    spec: SystemSpec,
    l: int,
    bundle: RayBundle,
    comp: WaveComponent,
) -> PhaseJet:
    """Assemble the phase jet: initial data, ray covector components, Riccati flow."""
    if bundle.frames is None:
        raise ConfigError("bundle needs frames; call evolve_frame first")
    if bundle.d2 == 0:
        raise ConfigError("beam phases need at least one transverse direction")
    n_t, n_r = bundle.n_t, bundle.n_r

    axis_value = np.asarray(comp.psi(comp.points)).real.reshape(n_r)

    sigma = np.einsum("krdj,krd->krj", bundle.frames, bundle.xi)
    rho = np.zeros((n_t, n_r, 0))
    dsigma_dr = dphi0_dr = None
    if bundle.d1:
        rho = np.einsum("krdj,krd->krj", bundle.tangents, bundle.xi)
        dsigma_dr = bundle.r_derivative(sigma)                # (n_t, n_r, d2)
        dphi0_dr = bundle.r_derivative(axis_value[None])[0]

    symbol_jet = pullback_jet_path(spec, l, bundle)
    a, b, c = _coefficients_from_jet(
        symbol_jet, None if dsigma_dr is None else dsigma_dr[..., None]
    )
    curvature, min_imag = _solve_riccati(
        (a, b, c), initial_curvature(bundle, comp), bundle.dt
    )

    jet = PhaseJet(
        axis_value=axis_value,
        sigma=sigma,
        rho=rho,
        curvature=curvature,
        dt_sigma=central_time_derivative(sigma, bundle.dt),
        dt_curvature=central_time_derivative(curvature, bundle.dt),
        hess_xi=symbol_jet.hess_xi,
        dsigma_dr=dsigma_dr,
        dphi0_dr=dphi0_dr,
        riccati_min_imag=min_imag,
    )
    _check_rho_consistency(jet, bundle)
    return jet


def _check_rho_consistency(jet: PhaseJet, bundle: RayBundle):
    """rho(t, r) must equal d(phi0)/dr on the grid (covector consistency).

    Both sides are node derivatives of not-a-knot r-splines (rho through the
    tangents d_r x), so on a curved manifold they differ by the splines'
    truncation error.  A node derivative of the spline is exact on cubics
    and errs by kappa h^3 f^(4) with |kappa| <= 0.18 (at the end nodes of a
    uniform grid); h^4 |f^(4)| is about the fourth difference of the data,
    at most twice the largest third difference D3, so the error stays below
    0.36 |D3 f| / h.  The check allows |D3 f| / h, from the third differences
    of x and phi0, on top of RHO_TOL.
    """
    if bundle.d1 == 0:
        return
    dr = float(bundle.r[1] - bundle.r[0])
    dev = np.max(np.abs(jet.rho[..., 0] - jet.dphi0_dr[None, :]))
    d3x = np.max(np.linalg.norm(np.diff(bundle.x, 3, axis=1), axis=-1), initial=0.0)
    d3phi0 = np.max(np.abs(np.diff(jet.axis_value, 3)), initial=0.0)
    xi_max = np.max(np.linalg.norm(bundle.xi, axis=-1))
    allowed = RHO_TOL + (xi_max * d3x + d3phi0) / dr
    if dev > allowed:
        raise ConfigError(
            f"rho differs from d(phi0)/dr by {dev:.3e} (allowed {allowed:.3e}); "
            "initial phase and manifold parametrization are inconsistent"
        )


@dataclass
class PhaseValues:
    """Phase and space-time gradient of the beam phase at stacked points."""

    phi: np.ndarray       # (m,) complex
    dt: np.ndarray        # (m,) complex time derivative at fixed x
    dx: np.ndarray        # (m, d) complex spatial gradient
    r: np.ndarray         # (m,) chart coordinate (zeros for point beams)
    s: np.ndarray         # (m, d2)
    inside: np.ndarray    # (m,) bool
    jac: np.ndarray       # (m, d, d) chart Jacobian [d_r x | e] that d_x solves with
    xdot: np.ndarray      # (m, d) dX/dt of the chart point at fixed (r, s)


def phase_gradient_at(jet: PhaseJet, bundle: RayBundle, k: int, r: np.ndarray, s: np.ndarray):
    """Complex spatial phase gradient at chart coordinates (r, s), node k.

    Returns (the jet coefficients phi0, sigma, curv, dt_sigma and dt_curv
    at r, d_x phi (m, d), dX/dt (m, d), J (m, d, d)).  d_x phi solves
    J^T d_x phi = d_(r,s) phi with the chart Jacobian J = [d_r x | e]; a
    point beam's J is its frame, the identity (``evolve_frame`` sets it),
    so there d_x phi = d_s phi.  On a line beam every coefficient, the
    chart and the chart velocity are cubic in r, from one interval search,
    with r-derivatives of the ones d_(r,s) phi and J read.
    """
    if bundle.d1 == 0:
        m = r.shape[0]
        rep = lambda a: np.broadcast_to(a[k, 0], (m,) + a.shape[2:])
        vals = {
            "phi0": np.full(m, jet.axis_value[0]),
            "sigma": rep(jet.sigma),
            "curv": rep(jet.curvature),
            "dt_sigma": rep(jet.dt_sigma),
            "dt_curv": rep(jet.dt_curvature),
        }
        ds_phi = vals["sigma"] + np.einsum("mij,mj->mi", vals["curv"], s)
        dXdt = bundle.v[k, 0][None, :] + s @ bundle.frame_rate[k, 0].T
        return vals, ds_phi, dXdt, rep(bundle.frames)
    points = CubicPoints(bundle.r, r)
    (phi0, sigma, curv, xe), (dphi0, dsigma, dcurv, dxe) = bundle.r_spline(
        jet.axis_value, jet.sigma[k], jet.curvature[k], bundle.chart_columns(k)
    ).jets(points)
    dt_sigma, dt_curv, v, erate = bundle.r_spline(
        jet.dt_sigma[k], jet.dt_curvature[k], bundle.v[k], bundle.frame_rate[k]
    ).at(points)
    vals = {"phi0": phi0, "sigma": sigma, "curv": curv, "dt_sigma": dt_sigma, "dt_curv": dt_curv}
    ds_phi = sigma + np.einsum("mij,mj->mi", curv, s)
    dXdt = v + np.einsum("mdj,mj->md", erate, s)
    dr_phi = (
        dphi0[:, None]
        + np.einsum("mji,mj->mi", dsigma[..., None], s)
        + 0.5 * np.einsum("mi,mijl,mj->ml", s, dcurv[..., None], s)
    )
    grad_chart = np.concatenate([dr_phi, ds_phi], axis=1)
    _, J = chart_jacobian(xe, dxe, s)
    dx = solve_stacked(np.swapaxes(J, -1, -2), grad_chart)
    return vals, dx, dXdt, J


def _chart_phase(phi0, sigma, curv, s) -> np.ndarray:
    """phi0 + <sigma, s> + (1/2) <s, curv s> from the jet coefficients at
    stacked chart points (m,), (m, d2), (m, d2, d2) and the offsets s."""
    return (
        phi0
        + np.einsum("mj,mj->m", sigma, s)
        + 0.5 * np.einsum("mi,mij,mj->m", s, curv, s)
    )


def phase_at_chart(
    jet: PhaseJet, bundle: RayBundle, k: int, r: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """The phase alone at chart coordinates (r (m,), s (m, d2)) of time node
    k, equal to ``eval_phase_at_chart(...).phi`` bit for bit: only phi0,
    sigma and Phi are evaluated, one r-spline value each, and no gradient.
    ``r`` must lie in the ray range (zeros for point beams)."""
    phi0, sigma, curv = bundle.r_values(r, jet.axis_value, jet.sigma[k], jet.curvature[k])
    return _chart_phase(phi0, sigma, curv, s)


def eval_phase_at_chart(
    jet: PhaseJet,
    bundle: RayBundle,
    k: int,
    r: np.ndarray,
    s: np.ndarray,
    inside: np.ndarray,
) -> PhaseValues:
    """Evaluate the phase jet and its space-time gradient at chart
    coordinates (r (m,), s (m, d2)) of time node k, with no chart inversion.

    ``r`` must lie in the ray range (zeros for point beams); ``inside`` is
    passed through to the result.
    """
    vals, dx, dXdt, J = phase_gradient_at(jet, bundle, k, r, s)
    phi = _chart_phase(vals["phi0"], vals["sigma"], vals["curv"], s)
    dt_chart = (
        np.einsum("mj,mj->m", vals["dt_sigma"], s)
        + 0.5 * np.einsum("mi,mij,mj->m", s, vals["dt_curv"], s)
    )
    dt_phi = dt_chart - np.einsum("md,md->m", dx, dXdt.astype(complex))
    return PhaseValues(phi=phi, dt=dt_phi, dx=dx, r=r, s=s, inside=inside, jac=J, xdot=dXdt)


def eval_phase_at_offsets(
    jet: PhaseJet, bundle: RayBundle, k: int, rays, s: np.ndarray
) -> tuple[np.ndarray, PhaseValues]:
    """Space points and phase values at the chart offsets s (p, d2) from each
    ray of ``rays`` at node k, stacked ray by ray ((n p, d) and n p values):
    r repeated, s tiled, one ``eval_phase_at_chart`` call."""
    rays = np.atleast_1d(rays)
    s = np.atleast_2d(np.asarray(s, dtype=float))
    r = np.repeat(bundle.r[rays] if bundle.d1 else np.zeros(rays.size), s.shape[0])
    s_rays = np.tile(s, (rays.size, 1))
    pv = eval_phase_at_chart(jet, bundle, k, r, s_rays, bundle.in_chart(r, s_rays))
    return bundle.chart_points(k, rays, s), pv


def eval_phase_at_node(
    jet: PhaseJet, bundle: RayBundle, k: int, X: np.ndarray
) -> PhaseValues:
    """Evaluate the phase jet and its space-time gradient at one time node."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    r, s, inside = bundle.invert(k, X)
    # evaluate the jet at r clamped to the ray range: points outside the
    # tube keep inside = False but get the jet's values at the clamped r
    r_eval = np.clip(r, bundle.r[0], bundle.r[-1]) if bundle.d1 else r
    pv = eval_phase_at_chart(jet, bundle, k, r_eval, s, inside)
    pv.r = r
    return pv


def eval_phase(jet: PhaseJet, bundle: RayBundle, t: float, X: np.ndarray) -> PhaseValues:
    """Evaluate the phase at an arbitrary traced time (linear in t between nodes)."""
    k0, k1, w = bundle.locate_time(t)
    p0 = eval_phase_at_node(jet, bundle, k0, X)
    if k1 == k0:
        return p0
    p1 = eval_phase_at_node(jet, bundle, k1, X)
    mix = lambda a, b: (1 - w) * a + w * b
    return PhaseValues(
        phi=mix(p0.phi, p1.phi),
        dt=mix(p0.dt, p1.dt),
        dx=mix(p0.dx, p1.dx),
        r=mix(p0.r, p1.r),
        s=mix(p0.s, p1.s),
        inside=p0.inside & p1.inside,
        jac=mix(p0.jac, p1.jac),
        xdot=mix(p0.xdot, p1.xdot),
    )
