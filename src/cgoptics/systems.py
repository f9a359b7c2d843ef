"""Symmetric first-order hyperbolic systems and their symbol eigenstructure.

A system is

    u_t + sum_j A_j(t,x) u_{x_j} + B(t,x) u = 0

with Hermitian coefficient matrices A_j on a shrinking cone
|x - center| <= radius - speed*t (the domain of determinacy).  This module
evaluates the symbol A(t,x,xi) = sum_j A_j xi_j, splits it into eigenvalue
clusters of constant multiplicity with their spectral projectors, and
provides xi-derivatives of eigenvalues and projectors up to second order.
The derivatives are exact: the symbol is linear in xi, so the resolvent
perturbation formulas give them from one eigendecomposition per point
(:meth:`ClusterTemplate.modes`, batched over stacked points).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConfigError,
    GapCollapseError,
    NonHermitianError,
    SingularResolventError,
)
from .numerics import grid_points, hermitian_deviation

# Default tolerances; the stated values are the library contract and every
# entry point takes them as keyword overrides.
HERMITIAN_TOL = 1e-10
SYMBOL_HERMITIAN_RTOL = 1e-12
DEFAULT_GAP_MIN = 1e-6
DXA_STEP = 1e-6        # central-difference step of the coeff_dxA fallback

CoeffA = Callable[[float, np.ndarray, int], np.ndarray]
CoeffB = Callable[[float, np.ndarray], np.ndarray]
CoeffDxA = Callable[[float, np.ndarray, int, int], np.ndarray]


@dataclass(frozen=True)
class Domain:
    """Domain of determinacy |x - center| <= radius - speed*t, t in [0, final_time]."""

    center: np.ndarray
    radius: float
    final_time: float
    speed: float

    def __post_init__(self):
        object.__setattr__(
            self, "center", np.atleast_1d(np.asarray(self.center, dtype=float))
        )
        if self.radius <= 0 or self.speed <= 0 or self.final_time <= 0:
            raise ConfigError("domain radius, speed and final_time must be positive")
        if self.final_time >= self.radius / self.speed:
            raise ConfigError(
                "final_time must be below radius/speed so the domain of "
                "determinacy stays nonempty"
            )

    @property
    def d(self) -> int:
        return self.center.size

    def cross_section_radius(self, t: float) -> float:
        return self.radius - self.speed * t

    def contains(self, t: float, x: np.ndarray, margin: float = 0.0):
        x = np.asarray(x, dtype=float)
        dist = np.linalg.norm(x - self.center, axis=-1)
        return dist <= self.cross_section_radius(t) - margin


@dataclass(frozen=True)
class SystemSpec:
    """Immutable description of one symmetric hyperbolic system.

    Coefficient evaluators are vectorized over the trailing space axis:
    ``coeff_A(t, x, j)`` accepts ``x`` of shape (..., d) and returns
    (..., N, N); likewise ``coeff_B``.  ``coeff_dxA(t, x, j, k)`` returns
    dA_j/dx_k.  When it is None, construction fills in a central difference
    of ``coeff_A`` (step DXA_STEP), so every consumer calls it unconditionally.
    """

    name: str
    d: int
    N: int
    coeff_A: CoeffA
    coeff_B: CoeffB
    domain: Domain
    coeff_dxA: CoeffDxA | None = None
    time_independent: bool = True

    def __post_init__(self):
        if self.d < 1 or self.N < 1:
            raise ConfigError("system dimensions must be at least 1")
        if self.domain.d != self.d:
            raise ConfigError("domain center dimension does not match system d")
        if self.coeff_dxA is None:
            object.__setattr__(
                self, "coeff_dxA", functools.partial(_central_dxA, self.coeff_A)
            )


def _central_dxA(coeff_A: CoeffA, t, x, j: int, k: int) -> np.ndarray:
    """dA_j/dx_k by a central difference of ``coeff_A``."""
    x = np.asarray(x, dtype=float)
    h = np.zeros(x.shape[-1])
    h[k] = DXA_STEP
    return (
        np.asarray(coeff_A(t, x + h, j)) - np.asarray(coeff_A(t, x - h, j))
    ) / (2.0 * DXA_STEP)


@dataclass(frozen=True)
class Mode:
    """One eigenvalue cluster of the symbol at a point."""

    eigenvalue: float
    multiplicity: int
    projector: np.ndarray
    grad: np.ndarray | None = None          # d lambda / d xi, shape (d,)
    hessian: np.ndarray | None = None       # shape (d, d)
    proj_grad: np.ndarray | None = None     # shape (d, N, N)
    proj_hessian: np.ndarray | None = None  # shape (d, d, N, N)


@dataclass(frozen=True)
class ModeDecomposition:
    """Sorted eigenvalue clusters with projectors at one (t, x, xi)."""

    t: float
    x: np.ndarray
    xi: np.ndarray
    modes: tuple[Mode, ...]
    gap: float  # min cluster distance at the unit covector xi/|xi|

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([m.eigenvalue for m in self.modes])

    @property
    def n_modes(self) -> int:
        return len(self.modes)


def eval_symbol(spec: SystemSpec, t: float, x, xi) -> np.ndarray:
    """Return A(t,x,xi) = sum_j A_j(t,x) xi_j and check it is Hermitian."""
    x = np.asarray(x, dtype=float).reshape(spec.d)
    xi = np.asarray(xi, dtype=float).reshape(spec.d)
    if not np.any(xi):
        raise ValueError("xi must be nonzero")
    m = sum(np.asarray(spec.coeff_A(t, x, j)) * xi[j] for j in range(spec.d))
    m = np.asarray(m, dtype=complex).reshape(spec.N, spec.N)
    _check_hermitian(spec, t, m, m.conj().T, x, xi)
    return m


def _check_hermitian(spec: SystemSpec, t, m: np.ndarray, mh: np.ndarray, X, Xi) -> None:
    """Raise NonHermitianError unless every stacked symbol ``m`` (with
    conjugate transpose ``mh``) is Hermitian to SYMBOL_HERMITIAN_RTOL
    relative to its largest entry (at least 1)."""
    dev = np.abs(m - mh)
    if not np.any(dev > SYMBOL_HERMITIAN_RTOL):
        return  # below every point's bound
    dev = np.max(dev, axis=(-2, -1))
    bound = SYMBOL_HERMITIAN_RTOL * np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))
    bad = np.argwhere(np.atleast_1d(dev > bound))
    if bad.size:
        idx = tuple(bad[0])[: np.ndim(dev)]
        batch = m.shape[:-2] + (spec.d,)
        x = np.broadcast_to(np.asarray(X, dtype=float), batch)[idx]
        xi = np.broadcast_to(np.asarray(Xi, dtype=float), batch)[idx]
        t = np.broadcast_to(t, m.shape[:-2])[idx]
        raise NonHermitianError(
            f"symbol of {spec.name!r} deviates from Hermitian by "
            f"{float(dev[idx]):.3e} at t={t}, x={x}, xi={xi}"
        )


def symbol_many(spec: SystemSpec, t, X: np.ndarray, Xi: np.ndarray) -> np.ndarray:
    """Vectorized symbol over stacked points, without the Hermiticity check.

    ``X`` and ``Xi`` have shape (..., d); ``t`` is a scalar or broadcastable
    array.  Intended for hot loops; use :func:`eval_symbol` at API boundaries.
    """
    X = np.asarray(X, dtype=float)
    Xi = np.asarray(Xi, dtype=float)
    out = np.zeros(X.shape[:-1] + (spec.N, spec.N), dtype=complex)
    for j in range(spec.d):
        aj = np.asarray(spec.coeff_A(t, X, j))
        out += aj * Xi[..., j][..., None, None]
    return out


def _cluster_slices(w: np.ndarray, scale: float, gap_min: float) -> list[slice]:
    """Group sorted eigenvalues into clusters separated by gap_min at unit xi."""
    splits = np.nonzero(np.diff(w) > gap_min * scale)[0]
    starts = np.concatenate(([0], splits + 1))
    stops = np.concatenate((splits + 1, [w.size]))
    return [slice(int(a), int(b)) for a, b in zip(starts, stops)]


def eigen_decompose(
    spec: SystemSpec,
    t: float,
    x,
    xi,
    order: int = 0,
    gap_min: float = DEFAULT_GAP_MIN,
) -> ModeDecomposition:
    """Eigenvalue clusters of the symbol with projectors and xi-derivatives.

    A one-point call of :meth:`ClusterTemplate.modes` with the clusters found
    at (t, x, xi).  ``order`` 0 returns eigenvalues and projectors only; 1
    adds the eigenvalue gradients and Hessians; 2 adds the first and second
    projector derivatives.  All derivatives are exact (resolvent
    perturbation formulas), not differences.
    """
    x = np.asarray(x, dtype=float).reshape(spec.d)
    xi = np.asarray(xi, dtype=float).reshape(spec.d)
    xin = float(np.linalg.norm(xi))
    if xin == 0.0:
        raise ValueError("xi must be nonzero")
    template = ClusterTemplate(spec, t, x, xi, gap_min)
    out = template.modes(t, x, xi, order=min(order, 2))
    vals, projs = out[:2]
    grads, hess, dprojs, d2projs = out[2:] + (None,) * (6 - len(out))
    if len(vals) > 1:
        gap = float(np.min(np.diff(vals))) / xin
        if gap < gap_min:
            raise GapCollapseError(f"spectral gap {gap:.3e} below {gap_min:.3e}")
    else:
        gap = np.inf

    modes = []
    for l, (val, mult) in enumerate(zip(vals, template.mults)):
        modes.append(
            Mode(
                eigenvalue=float(val),
                multiplicity=int(mult),
                projector=projs[l],
                grad=None if grads is None else grads[l],
                hessian=None if hess is None else hess[l],
                proj_grad=None if dprojs is None else dprojs[l],
                proj_hessian=None if d2projs is None else d2projs[l],
            )
        )
    return ModeDecomposition(t=t, x=x, xi=xi, modes=tuple(modes), gap=gap)


class ClusterTemplate:
    """Frozen cluster structure used to batch-evaluate modes consistently.

    The clusters are found once, at the point the template is built; every
    later evaluation must reproduce them (constant multiplicity), which the
    gap check enforces.
    """

    def __init__(self, spec: SystemSpec, t: float, x, xi, gap_min: float = DEFAULT_GAP_MIN):
        x = np.asarray(x, dtype=float).reshape(spec.d)
        xi = np.asarray(xi, dtype=float).reshape(spec.d)
        m = symbol_many(spec, t, x, xi)
        w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        slices = _cluster_slices(w, float(np.linalg.norm(xi)), gap_min)
        self.spec = spec
        self.gap_min = gap_min
        self.slices = slices
        self.mults = [s.stop - s.start for s in slices]
        member = np.zeros((len(slices), spec.N))
        for c, s in enumerate(slices):
            member[c, s] = 1.0
        # member[c, a] = 1 if eigenvalue a belongs to cluster c
        self._member = member
        self._same = (member.T @ member) > 0.0
        # Second projector derivatives take, for each index triple (a, b, e),
        # the residue at the one pole that sits alone on its side of the
        # cluster contour: +residue if it is the only one inside, -residue if
        # it is the only one outside.  _alone[p] is that sign for p = a, b, e.
        ea = member[:, :, None, None]
        eb = member[:, None, :, None]
        ee = member[:, None, None, :]
        self._alone = np.stack(
            [
                ea * (1 - eb) * (1 - ee) - (1 - ea) * eb * ee,
                eb * (1 - ea) * (1 - ee) - (1 - eb) * ea * ee,
                ee * (1 - ea) * (1 - eb) - (1 - ee) * ea * eb,
            ]
        )

    @property
    def n_modes(self) -> int:
        return len(self.slices)

    def eigenvalues(self, t, X, Xi) -> np.ndarray:
        """Cluster eigenvalues at stacked points; shape (..., n_modes)."""
        m = symbol_many(self.spec, t, X, Xi)
        m = 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))
        w = np.linalg.eigvalsh(m)
        self._check_gaps(w, Xi)
        return np.stack([w[..., s].mean(axis=-1) for s in self.slices], axis=-1)

    def modes(self, t, X, Xi, order: int = 0):
        """Cluster eigenvalues, projectors and their xi-jets at stacked points.

        ``X`` and ``Xi`` have shape (..., d).  Order 0 returns
        (values (..., n_modes), projectors (..., n_modes, N, N)).  Order 1
        appends the eigenvalue gradients (..., n_modes, d) and Hessians
        (..., n_modes, d, d); order 2 also appends the first and second
        projector derivatives (..., n_modes, d, N, N) and
        (..., n_modes, d, d, N, N).  The eigenvalue Hessian needs no
        projector derivative in the original basis, so order 1 stays cheap.

        Everything comes from one eigendecomposition A = V diag(w) V* per
        point.  The symbol is linear in xi (dA/dxi_j = A_j), so the
        resolvent expansion gives the derivatives exactly.  With
        At_j = V* A_j V and the cluster projector P_c:

            d_j P_c     = V (W1_c o At_j) V*,
            d_j d_k P_c = V sum_b W2_c[a,b,e] (At_j[a,b] At_k[b,e] + (j<->k)) V*,
            d_j lam_c   = tr(P_c A_j) / m_c,
            d_j d_k lam_c = tr(d_k P_c A_j) / m_c,

        where W1_c[a,b] and W2_c[a,b,e] are the sums of the residues inside
        the contour around cluster c of 1/((z-w_a)(z-w_b)) and
        1/((z-w_a)(z-w_b)(z-w_e)).  Each is taken at a pole alone on its
        side of the contour, so no two eigenvalues of one cluster are ever
        subtracted and clusters split below gap_min stay exact.
        """
        if order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
        w, v, vals, projs = self._spectrum(t, X, Xi)
        if order == 0:
            return vals, projs

        spec = self.spec
        member = self._member
        mults = np.asarray(self.mults, dtype=float)
        coeffs = np.stack(
            [np.broadcast_to(spec.coeff_A(t, X, j), v.shape) for j in range(spec.d)],
            axis=-3,
        )
        at = _to_eigenbasis(v, coeffs)                           # (..., d, N, N)
        inv, w1 = self._w1(w)

        grad = np.einsum("...jaa,ca->...cj", at, member).real / mults[:, None]
        hess = np.einsum("...cab,...kab,...jba->...cjk", w1, at, at).real / mults[:, None, None]
        hess = 0.5 * (hess + np.swapaxes(hess, -1, -2))
        if order == 1:
            return vals, projs, grad, hess

        dprojs = _from_eigenbasis(v, w1[..., :, None, :, :] * at[..., None, :, :, :])
        q = inv[..., :, :, None] * inv[..., :, None, :]   # q[p,q,r] = inv[p,q] inv[p,r]
        alone = self._alone
        w2 = (
            alone[0] * q[..., None, :, :, :]
            + alone[1] * np.swapaxes(q, -3, -2)[..., None, :, :, :]
            + alone[2] * np.moveaxis(q, -3, -1)[..., None, :, :, :]
        )
        chain = at[..., :, None, :, :, None] * at[..., None, :, None, :, :]
        chain = chain + np.swapaxes(chain, -5, -4)            # (..., d, d, N, N, N)
        inner = np.einsum("...cabe,...jkabe->...cjkae", w2, chain)
        d2projs = _from_eigenbasis(v, inner)
        return vals, projs, grad, hess, dprojs, d2projs

    def projector_derivatives(self, t, X, Xi, dA):
        """Cluster projectors and their first derivatives along given symbol
        perturbations, from the one eigendecomposition of ``modes``.

        ``dA`` has shape (..., q, N, N): q perturbations of the symbol at
        each point.  Returns (values (..., n_modes), projectors
        (..., n_modes, N, N), derivatives (..., n_modes, q, N, N)) with the
        derivative along dA_q equal to V (W1_c o V* dA_q V) V*, the same
        first-order resolvent formula as the xi-derivatives of ``modes``.
        """
        w, v, vals, projs = self._spectrum(t, X, Xi)
        w1 = self._w1(w)[1]
        at = _to_eigenbasis(v, np.asarray(dA))
        return vals, projs, _from_eigenbasis(v, w1[..., :, None, :, :] * at[..., None, :, :, :])

    def _spectrum(self, t, X, Xi):
        """One gated ``eigh`` per point: (w, V, cluster values, projectors)."""
        spec = self.spec
        X = np.asarray(X, dtype=float)
        Xi = np.asarray(Xi, dtype=float)
        m = symbol_many(spec, t, X, Xi)
        mh = np.conj(np.swapaxes(m, -1, -2))
        _check_hermitian(spec, t, m, mh, X, Xi)
        w, v = np.linalg.eigh(0.5 * (m + mh))
        self._check_gaps(w, Xi)
        vals = np.stack([w[..., s].mean(axis=-1) for s in self.slices], axis=-1)
        projs = np.stack(
            [
                np.einsum("...ik,...jk->...ij", v[..., :, s], v[..., :, s].conj())
                for s in self.slices
            ],
            axis=-3,
        )
        return w, v, vals, projs

    def _w1(self, w):
        """inv[a,b] = 1/(w_a - w_b) across clusters (0 within one) and the
        first-order residue weights W1_c[a,b], shape (..., n_modes, N, N)."""
        member = self._member
        diff = w[..., :, None] - w[..., None, :]
        inv = np.where(self._same, 0.0, 1.0 / np.where(self._same, 1.0, diff))
        return inv, (member[:, :, None] - member[:, None, :]) * inv[..., None, :, :]

    def _check_gaps(self, w, Xi):
        if len(self.slices) == 1:
            return
        scale = np.linalg.norm(np.asarray(Xi, dtype=float), axis=-1)
        stops = [s.stop for s in self.slices[:-1]]
        for stop in stops:
            gap = w[..., stop] - w[..., stop - 1]
            if np.any(gap < self.gap_min * scale):
                raise GapCollapseError(
                    "cluster gap fell below gap_min while batch-evaluating modes"
                )


def _to_eigenbasis(v: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """V* M V for stacked matrices M (..., q, N, N) at eigenbases V (..., N, N)."""
    return np.conj(np.swapaxes(v, -1, -2))[..., None, :, :] @ mats @ v[..., None, :, :]


def _from_eigenbasis(v: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """V M V* for matrices M (..., *K, N, N) stacked over any K axes after
    the batch axes of V (..., N, N)."""
    extra = mats.ndim - v.ndim
    vb = v.reshape(v.shape[:-2] + (1,) * extra + v.shape[-2:])
    return vb @ mats @ np.conj(np.swapaxes(vb, -1, -2))


def contour_projector(
    spec: SystemSpec, t: float, x, xi, l: int, n_quad: int = 32
) -> np.ndarray:
    """Spectral projector by trapezoidal contour quadrature around cluster l.

    The circle is centered at the cluster eigenvalue.  Trapezoid quadrature
    on a circle is spectrally accurate for the periodic resolvent integrand,
    with error ~ (radius/pole distance)^n_quad, so the radius is kept at a
    fifth of the distance to the nearest other cluster.
    """
    if n_quad < 16:
        raise ValueError("n_quad must be at least 16")
    x = np.asarray(x, dtype=float).reshape(spec.d)
    xi = np.asarray(xi, dtype=float).reshape(spec.d)
    m = eval_symbol(spec, t, x, xi)
    m = 0.5 * (m + m.conj().T)
    w = np.linalg.eigvalsh(m)
    slices = _cluster_slices(w, float(np.linalg.norm(xi)), DEFAULT_GAP_MIN)
    vals = np.array([w[s].mean() for s in slices])
    if not 0 <= l < len(vals):
        raise ValueError(f"mode index {l} out of range for {len(vals)} clusters")
    lam = vals[l]
    others = np.delete(vals, l)
    if others.size:
        radius = 0.2 * float(np.min(np.abs(others - lam)))
    else:
        radius = max(1.0, abs(lam))

    eye = np.eye(spec.N, dtype=complex)
    for _ in range(6):
        theta = 2.0 * np.pi * np.arange(n_quad) / n_quad
        z = lam + radius * np.exp(1j * theta)
        if np.min(np.abs(z[:, None] - w[None, :])) < 1e-12:
            radius *= 0.9
            continue
        acc = np.zeros((spec.N, spec.N), dtype=complex)
        for zk in z:
            acc += (zk - lam) * np.linalg.solve(zk * eye - m, eye)
        return acc / n_quad
    raise SingularResolventError(
        "quadrature nodes kept hitting eigenvalues after radius perturbations"
    )


@dataclass
class AssumptionReport:
    """Sampled validation of the structural hypotheses on a system."""

    system: str
    max_hermitian_deviation: float
    min_spectral_gap: float
    min_boundary_speed_eigenvalue: float
    hermitian_ok: bool
    gap_ok: bool
    speed_ok: bool
    n_samples: int

    @property
    def passed(self) -> bool:
        return self.hermitian_ok and self.gap_ok and self.speed_ok

    def to_dict(self) -> dict:
        gap = self.min_spectral_gap
        return {
            "system": self.system,
            "max_hermitian_deviation": self.max_hermitian_deviation,
            "min_spectral_gap": gap if np.isfinite(gap) else None,
            "min_boundary_speed_eigenvalue": self.min_boundary_speed_eigenvalue,
            "hermitian_ok": self.hermitian_ok,
            "gap_ok": self.gap_ok,
            "speed_ok": self.speed_ok,
            "n_samples": self.n_samples,
            "passed": self.passed,
        }


def _direction_samples(d: int, n_dir: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, n_dir, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    # Fibonacci-like deterministic sphere covering for d >= 3.
    rng = np.random.default_rng(0)
    v = rng.standard_normal((n_dir, d))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _space_samples(domain: Domain, t: float, n_space: int) -> np.ndarray:
    rad = domain.cross_section_radius(t)
    xs = grid_points([np.linspace(-rad, rad, 2 * n_space + 1)] * domain.d)
    return xs[np.linalg.norm(xs, axis=-1) <= rad] + domain.center


def check_assumptions(
    spec: SystemSpec,
    n_space: int = 4,
    n_time: int = 3,
    n_dir: int = 16,
    gap_min: float = DEFAULT_GAP_MIN,
) -> AssumptionReport:
    """Report Hermiticity, spectral gap, and boundary-speed positivity on a grid.

    Never raises on violations; the report carries pass/fail flags.
    """
    dom = spec.domain
    times = np.linspace(0.0, dom.final_time, n_time)
    dirs = _direction_samples(spec.d, n_dir)

    max_dev = 0.0
    min_gap = np.inf
    min_speed = np.inf
    n_samples = 0
    for t in times:
        xs = _space_samples(dom, t, n_space)
        for j in range(spec.d):
            aj = np.asarray(spec.coeff_A(t, xs, j))
            max_dev = max(max_dev, hermitian_deviation(aj))
        for xh in dirs:
            m = symbol_many(spec, t, xs, np.broadcast_to(xh, xs.shape))
            m = 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))
            w = np.linalg.eigvalsh(m)
            n_samples += xs.shape[0]
            if spec.N > 1:
                min_gap = min(min_gap, float(np.min(np.diff(w, axis=-1))))
        # boundary-speed condition with outward normals on the cone boundary
        rad = dom.cross_section_radius(t)
        for nh in dirs:
            xb = dom.center + rad * nh
            m = symbol_many(spec, t, xb[None, :], nh[None, :])[0]
            m = 0.5 * (m + m.conj().T)
            w = np.linalg.eigvalsh(dom.speed * np.eye(spec.N) + m)
            min_speed = min(min_speed, float(w[0]))
    if spec.N == 1:
        min_gap = np.inf
    return AssumptionReport(
        system=spec.name,
        max_hermitian_deviation=max_dev,
        min_spectral_gap=min_gap,
        min_boundary_speed_eigenvalue=min_speed,
        hermitian_ok=max_dev <= HERMITIAN_TOL,
        gap_ok=min_gap >= gap_min,
        speed_ok=min_speed >= -1e-10,
        n_samples=n_samples,
    )


# ---------------------------------------------------------------------------
# Builtin system registry
# ---------------------------------------------------------------------------

def _const_A(mats, t, x, j):
    x = np.asarray(x, dtype=float)
    n = mats[j].shape[0]
    return np.broadcast_to(mats[j], x.shape[:-1] + (n, n))


def _const_B(mat, t, x):
    x = np.asarray(x, dtype=float)
    n = mat.shape[0]
    return np.broadcast_to(mat, x.shape[:-1] + (n, n))


def _variable_advection_A(t, x, j):
    x = np.asarray(x, dtype=float)
    return (1.0 + 0.3 * np.sin(x[..., 0]))[..., None, None] + 0j


def _variable_advection_dxA(t, x, j, k):
    x = np.asarray(x, dtype=float)
    return (0.3 * np.cos(x[..., 0]))[..., None, None] + 0j


def _zero_dxA_const(mats, t, x, j, k):
    x = np.asarray(x, dtype=float)
    n = mats[j].shape[0]
    return np.zeros(x.shape[:-1] + (n, n))


_WAVE2X2_A = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),)
_ADVECTION_A = (np.array([[1.0]], dtype=complex),)
_ACOUSTICS3_A = (
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
)


def _builtin(name, d, N, mats, domain, dxA=None):
    return SystemSpec(
        name=name,
        d=d,
        N=N,
        coeff_A=functools.partial(_const_A, mats),
        coeff_B=functools.partial(_const_B, np.zeros((N, N), dtype=complex)),
        domain=domain,
        coeff_dxA=dxA if dxA is not None else functools.partial(_zero_dxA_const, mats),
    )


def builtin_system(name: str, **domain_overrides) -> SystemSpec:
    """Construct a builtin system by name.

    Known names: advection, wave2x2, acoustics3, variable_advection.
    Keyword arguments override the default domain parameters
    (center, radius, final_time, speed).
    """
    defaults = {
        "advection": dict(center=[0.0], radius=5.0, final_time=0.5, speed=1.0),
        "wave2x2": dict(center=[0.0], radius=5.0, final_time=0.5, speed=1.0),
        "acoustics3": dict(center=[0.0, 0.0], radius=3.0, final_time=1.0, speed=1.0),
        "variable_advection": dict(center=[0.0], radius=5.5, final_time=0.5, speed=1.3),
    }
    if name not in defaults:
        raise ConfigError(f"unknown builtin system {name!r}; known: {sorted(defaults)}")
    params = {**defaults[name], **domain_overrides}
    domain = Domain(**params)
    if name == "advection":
        return _builtin("advection", 1, 1, _ADVECTION_A, domain)
    if name == "wave2x2":
        return _builtin("wave2x2", 1, 2, _WAVE2X2_A, domain)
    if name == "acoustics3":
        return _builtin("acoustics3", 2, 3, _ACOUSTICS3_A, domain)
    return SystemSpec(
        name="variable_advection",
        d=1,
        N=1,
        coeff_A=_variable_advection_A,
        coeff_B=functools.partial(_const_B, np.zeros((1, 1), dtype=complex)),
        domain=domain,
        coeff_dxA=_variable_advection_dxA,
    )


def load_system(cfg: dict) -> SystemSpec:
    """Build a SystemSpec from a configuration mapping.

    Either ``{"name": <builtin>, ...domain overrides}`` or a custom system
    with constant coefficient tables::

        {"name": "mysys", "d": 1, "N": 2,
         "A": [[[0, 1], [1, 0]]],            # one NxN table per space axis
         "B": [[0, 0], [0, 0]],              # optional
         "domain": {"center": [0], "radius": 5, "final_time": 0.5, "speed": 1}}
    """
    if not isinstance(cfg, dict):
        raise ConfigError("system config must be a mapping or a builtin name")
    name = cfg.get("name")
    if name is None:
        raise ConfigError("system config is missing required field 'system.name'")
    if "A" not in cfg:
        overrides = {k: v for k, v in cfg.items() if k in ("center", "radius", "final_time", "speed")}
        dom = cfg.get("domain", {})
        overrides.update(dom)
        return builtin_system(name, **overrides)

    try:
        d = int(cfg["d"])
        n = int(cfg["N"])
        mats = tuple(np.asarray(a, dtype=complex).reshape(n, n) for a in cfg["A"])
        if len(mats) != d:
            raise ConfigError("system config field 'A' must list one matrix per space axis")
        bmat = np.asarray(cfg.get("B", np.zeros((n, n))), dtype=complex).reshape(n, n)
        dom_cfg = cfg["domain"]
        domain = Domain(
            center=dom_cfg["center"],
            radius=float(dom_cfg["radius"]),
            final_time=float(dom_cfg["final_time"]),
            speed=float(dom_cfg["speed"]),
        )
    except KeyError as exc:
        raise ConfigError(f"system config is missing required field {exc.args[0]!r}") from exc
    return SystemSpec(
        name=str(name),
        d=d,
        N=n,
        coeff_A=functools.partial(_const_A, mats),
        coeff_B=functools.partial(_const_B, bmat),
        domain=domain,
        coeff_dxA=functools.partial(_zero_dxA_const, mats),
    )
