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
(:meth:`ClusterTemplate.modes`, batched over stacked points).  The same
formulas give the eigenvalue 2-jets and projector jets along any symbol
path whose derivatives are known (:meth:`ClusterTemplate.path_jet`,
:meth:`ClusterTemplate.projector_derivatives`), such as the x-path through
``coeff_dxA`` and ``coeff_d2xA``.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, GapCollapseError, NonHermitianError, NumericsError
from .numerics import grid_points, hermitian_deviation

# Tolerances and sample counts of the library contract: constants, which no
# entry point takes as an argument.
HERMITIAN_TOL = 1e-10
SYMBOL_HERMITIAN_RTOL = 1e-12
GAP_MIN = 1e-6         # smallest cluster gap, relative to |xi|
CHECK_SPACE = 4        # check_assumptions: 2 CHECK_SPACE + 1 points per axis of the cross-section
CHECK_TIMES = 3        # check_assumptions: sampled times over [0, final_time]
CHECK_DIRECTIONS = 16  # check_assumptions: sampled unit covectors (d >= 2)
# largest |entry| of a custom system's coefficient table: the symbols, their
# Hermitian parts and products of a few of them stay far from overflow
TABLE_MAX = 1e100

CoeffA = Callable[[float, np.ndarray, int], np.ndarray]
CoeffB = Callable[[float, np.ndarray], np.ndarray]
CoeffDxA = Callable[[float, np.ndarray, int, int], np.ndarray]
CoeffD2xA = Callable[[float, np.ndarray, int, int, int], np.ndarray]


@dataclass(frozen=True)
class Domain:
    """Domain of determinacy |x - center| <= radius - speed*t, t in [0, final_time]."""

    center: np.ndarray
    radius: float
    final_time: float
    speed: float

    def __post_init__(self):
        try:
            center = np.atleast_1d(np.asarray(self.center, dtype=float))
        except (TypeError, ValueError):
            center = None
        if center is None or center.ndim != 1 or not center.size or not np.isfinite(center).all():
            raise ConfigError(
                f"domain 'center' must be a list of numbers, got {self.center!r}"
            )
        object.__setattr__(self, "center", center)
        for key in ("radius", "final_time", "speed"):
            value = getattr(self, key)
            number = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (number and np.isfinite(value)):
                raise ConfigError(f"domain {key!r} must be a finite number, got {value!r}")
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

    def contains(self, t: float, x: np.ndarray):
        # the distance as np.linalg.norm forms it, without its dispatch
        diff = np.asarray(x, dtype=float) - self.center
        return np.sqrt(np.add.reduce(diff * diff, axis=-1)) <= self.cross_section_radius(t)


@dataclass(frozen=True)
class SystemSpec:
    """Immutable description of one symmetric hyperbolic system.

    Coefficient evaluators are vectorized over the trailing space axis:
    ``coeff_A(t, x, j)`` accepts ``x`` of shape (..., d) and returns
    (..., N, N); likewise ``coeff_B``.  ``coeff_dxA(t, x, j, k)`` returns
    dA_j/dx_k and ``coeff_d2xA(t, x, j, k, l)`` d^2A_j/dx_k dx_l, with the
    same contract.  Both are required and exact: the rays, the phase and
    the transport read them, and nothing differences ``coeff_A``.

    ``constant_coefficients`` is declared by the constructor that knows the
    coefficients, never detected: True promises that every A_j is
    independent of t and x, so ``coeff_dxA`` is identically zero.  Then
    d_x lambda = 0 for every mode, xi is constant along each ray and the
    rays are straight, which ``rays.flow_out`` uses to trace them from one
    kernel call (it raises ConfigError if that call finds d_x lambda != 0).
    B may still be any constant matrix; it does not enter the rays.
    """

    name: str
    d: int
    N: int
    coeff_A: CoeffA
    coeff_B: CoeffB
    domain: Domain
    coeff_dxA: CoeffDxA
    coeff_d2xA: CoeffD2xA
    constant_coefficients: bool = False

    def __post_init__(self):
        if self.d < 1 or self.N < 1:
            raise ConfigError("system dimensions must be at least 1")
        if self.domain.d != self.d:
            raise ConfigError("domain center dimension does not match system d")


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


def _first(mask: np.ndarray) -> tuple:
    """Index of the first True entry of a non-empty boolean array, in C order."""
    return tuple(np.argwhere(np.atleast_1d(mask))[0])[: mask.ndim]


def _place(spec: SystemSpec, t, X, Xi, batch: tuple, idx: tuple) -> str:
    """'t=.., x=.., xi=..' of the stacked point idx of a batch of points."""
    x = np.broadcast_to(np.asarray(X, dtype=float), batch + (spec.d,))[idx]
    xi = np.broadcast_to(np.asarray(Xi, dtype=float), batch + (spec.d,))[idx]
    return f"t={np.broadcast_to(t, batch)[idx]}, x={x}, xi={xi}"


def _check_hermitian(spec: SystemSpec, t, m: np.ndarray, mh: np.ndarray, X, Xi) -> None:
    """Raise NumericsError if a stacked symbol ``m`` has a non-finite entry,
    and NonHermitianError unless every one (with conjugate transpose
    ``mh``) is Hermitian to SYMBOL_HERMITIAN_RTOL relative to its largest
    entry (at least 1).  Either names the first failing point."""
    batch = m.shape[:-2]
    finite = np.isfinite(m)
    if not finite.all():
        idx = _first(~finite.all(axis=(-2, -1)))
        raise NumericsError(
            f"symbol of {spec.name!r} is not finite at {_place(spec, t, X, Xi, batch, idx)}"
        )
    dev = np.abs(m - mh)
    if not (dev > SYMBOL_HERMITIAN_RTOL).any():
        return  # below every point's bound
    dev = np.max(dev, axis=(-2, -1))
    bound = SYMBOL_HERMITIAN_RTOL * np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))
    bad = dev > bound
    if bad.any():
        idx = _first(bad)
        raise NonHermitianError(
            f"symbol of {spec.name!r} deviates from Hermitian by "
            f"{float(dev[idx]):.3e} at {_place(spec, t, X, Xi, batch, idx)}"
        )


def symbol_many(spec: SystemSpec, t, X: np.ndarray, Xi: np.ndarray) -> np.ndarray:
    """Vectorized symbol over stacked points, without the Hermiticity check.

    ``X`` and ``Xi`` have shape (..., d); ``t`` is a scalar or broadcastable
    array.  :meth:`ClusterTemplate.modes` runs the check.
    """
    X = np.asarray(X, dtype=float)
    Xi = np.asarray(Xi, dtype=float)
    out = np.zeros(X.shape[:-1] + (spec.N, spec.N), dtype=complex)
    for j in range(spec.d):
        aj = np.asarray(spec.coeff_A(t, X, j))
        out += aj * Xi[..., j][..., None, None]
    return out


def _cluster_slices(w: np.ndarray, scale: float) -> list[slice]:
    """Group sorted eigenvalues into clusters separated by GAP_MIN at unit xi."""
    splits = np.nonzero(np.diff(w) > GAP_MIN * scale)[0]
    starts = np.concatenate(([0], splits + 1))
    stops = np.concatenate((splits + 1, [w.size]))
    return [slice(int(a), int(b)) for a, b in zip(starts, stops)]


def eigen_decompose(
    spec: SystemSpec,
    t: float,
    x,
    xi,
    order: int = 0,
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
    template = ClusterTemplate(spec, t, x, xi)
    out = template.modes(t, x, xi, order=min(order, 2))
    vals, projs = out[:2]
    grads, hess, dprojs, d2projs = out[2:] + (None,) * (6 - len(out))
    if len(vals) > 1:
        gap = float(np.min(np.diff(vals))) / xin
        if gap < GAP_MIN:
            raise GapCollapseError(f"spectral gap {gap:.3e} below {GAP_MIN:.3e}")
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

    def __init__(self, spec: SystemSpec, t: float, x, xi):
        x = np.asarray(x, dtype=float).reshape(spec.d)
        xi = np.asarray(xi, dtype=float).reshape(spec.d)
        m = symbol_many(spec, t, x, xi)
        w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        slices = _cluster_slices(w, float(np.linalg.norm(xi)))
        self.spec = spec
        self.slices = slices
        self.mults = [s.stop - s.start for s in slices]
        self._mult_col = np.array(self.mults, dtype=float)[:, None]
        member = np.zeros((len(slices), spec.N))
        for c, s in enumerate(slices):
            member[c, s] = 1.0
        self._member = member      # member[c, a] = 1 if eigenvalue a is in cluster c
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
        point, on the route ``_eigh`` takes; where V and the A_j are real,
        so are the products below, and only the returned projector arrays
        are complex.  The symbol is linear in xi (dA/dxi_j = A_j), so the
        resolvent expansion gives the derivatives exactly.  With
        At_j = V* A_j V and the cluster projector P_c:

            d_j P_c     = V (W1_c o At_j) V*,
            d_j d_k P_c = V sum_b W2_c[a,b,e] (At_j[a,b] At_k[b,e] + (j<->k)) V*,
            d_j lam_c   = tr(P_c A_j) / m_c = sum_{a in c} At_j[a,a] / m_c,
            d_j d_k lam_c = tr(d_k P_c A_j) / m_c,

        where W1_c[a,b] and W2_c[a,b,e] are the sums of the residues inside
        the contour around cluster c of 1/((z-w_a)(z-w_b)) and
        1/((z-w_a)(z-w_b)(z-w_e)).  Each is taken at a pole alone on its
        side of the contour, so no two eigenvalues of one cluster are ever
        subtracted and clusters split below GAP_MIN stay exact.
        """
        if order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
        w, v, vals, projs = self._spectrum(t, X, Xi)
        if order == 0:
            return vals, projs

        spec = self.spec
        coeffs = np.stack(
            [np.broadcast_to(spec.coeff_A(t, X, j), v.shape) for j in range(spec.d)],
            axis=-3,
        )
        at = _to_eigenbasis(v, coeffs)                           # (..., d, N, N)
        inv, w1 = self._w1(w)
        grad, hess = self._eigenvalue_jet(w1, at)
        if order == 1:
            return vals, projs, grad, hess

        dprojs = _from_eigenbasis(v, w1[..., :, None, :, :] * at[..., None, :, :, :])
        d2projs = self._second_derivatives(v, inv, w1, at, None, slice(None))
        return vals, projs, grad, hess, _complex(dprojs), _complex(d2projs)

    def projector_derivatives(self, t, X, Xi, dA, l: int, d2A=None):
        """Projector of cluster l and its derivatives along a symbol path
        S(u), u in R^q, with the S_a as ``dA`` (..., q, N, N): from one gated
        ``eigh`` per point, V (W1_l o V* S_a V) V* (..., q, N, N).  Given the
        S_ab as ``d2A`` (..., q, q, N, N), V [W2_l(S_a, S_b) + W1_l o V* S_ab V]
        V* (..., q, q, N, N) is appended.  These are the resolvent formulas of
        ``modes``, holomorphic in a complex path (a symbol at complex covectors).
        The products are real where V and the path are.

        The points may carry fewer leading axes than the path, as the n_r
        rays of a straight bundle do against its (n_t, n_r) nodes: their
        decomposition is then broadcast over the path's leading axes.
        """
        dA = np.asarray(dA)
        w, v = self._eigh(t, X, Xi, symbol_many(self.spec, t, X, Xi))
        inv, w1 = self._w1(w)
        proj = _cluster_projector(v, self.slices[l])
        batch = dA.shape[:-3]
        if v.shape[:-2] != batch:
            proj = np.broadcast_to(proj, batch + proj.shape[-2:]).copy()
            v = np.broadcast_to(v, batch + v.shape[-2:])
        at = _to_eigenbasis(v, dA)
        out = (proj, _from_eigenbasis(v, w1[..., l, None, :, :] * at))
        if d2A is not None:
            at2 = _to_eigenbasis(v, np.asarray(d2A))
            out += (self._second_derivatives(v, inv, w1, at, at2, [l])[..., 0, :, :, :, :],)
        return tuple(_complex(p) for p in out)

    def _second_derivatives(self, v, inv, w1, at, at2, c):
        """V [W2_c(At_a, At_b) + W1_c o At2_ab] V* (..., n_c, q, q, N, N) for clusters c, from
        a path's eigenbasis derivatives at (..., q, N, N) and at2 (None if linear)."""
        q = inv[..., :, :, None] * inv[..., :, None, :]   # q[p,q,r] = inv[p,q] inv[p,r]
        alone = self._alone[:, c]
        w2 = (
            alone[0] * q[..., None, :, :, :]
            + alone[1] * np.swapaxes(q, -3, -2)[..., None, :, :, :]
            + alone[2] * np.moveaxis(q, -3, -1)[..., None, :, :, :]
        )
        chain = at[..., :, None, :, :, None] * at[..., None, :, None, :, :]
        chain = chain + np.swapaxes(chain, -5, -4)            # (..., q, q, N, N, N)
        inner = np.einsum("...cabe,...jkabe->...cjkae", w2, chain)
        if at2 is not None:
            inner = inner + w1[..., c, None, None, :, :] * at2[..., None, :, :, :, :]
        return _from_eigenbasis(v, inner)

    def path_jet(self, t, X, Xi, m, dS, d2S, l: int):
        """Cluster l's eigenvalue 2-jet along a symbol path S(u), u in R^q,
        through the stacked symbols ``m`` (..., N, N) at (t, X, Xi), with
        the S_u as ``dS`` (..., q, N, N) and the S_uv as ``d2S``
        (..., q, q, N, N): the gradient (..., q) and Hessian (..., q, q) of
        the cluster mean

            lam_u  = Re tr(P_c S_u) / m_c,
            lam_uv = Re [tr(P_c S_uv) + tr(d_v P_c S_u)] / m_c,

        from one gated ``eigh`` per point, with d_v P_c = V (W1_c o At_v) V*
        as in ``modes``.  Along S_u = A_j with S_uv = 0 these are the
        xi-gradient and xi-Hessian of ``modes``, from the same code.
        """
        w, v = self._eigh(t, X, Xi, m)
        at = _to_eigenbasis(v, np.asarray(dS))
        # tr(P_c S_uv) needs only the diagonals Re (V* S_uv V)_aa =
        # Re sum_kl S_uv[k, l] conj(V_ka) V_la: one product per point
        d2S = np.asarray(d2S)
        if not d2S.imag.any():
            d2S = d2S.real
        n = v.shape[-1]
        pairs = (v.conj()[..., :, None, :] * v[..., None, :, :]).reshape(v.shape[:-2] + (n * n, n))
        flat = d2S.reshape(d2S.shape[:-4] + (-1, n * n))
        diag2 = (flat @ pairs).real.reshape(d2S.shape[:-1])
        grad, hess = self._eigenvalue_jet(self._w1(w)[1], at, diag2, slice(l, l + 1))
        return grad[..., l, :], hess[..., 0, :, :]

    def _eigenvalue_jet(self, w1, at, diag2=None, c=slice(None)):
        """Gradients (..., n_modes, q) and symmetrized Hessians of the
        cluster means along a path with eigenbasis derivatives at
        (..., q, N, N) and the real diagonals diag2 (..., q, q, N) of the
        second ones (None where the path is linear).  The Hessians are
        formed for the clusters ``c`` only, (..., len(c), q, q)."""
        grad = self._rates(np.diagonal(at, axis1=-2, axis2=-1).real)
        hess = np.einsum("...cab,...kab,...jba->...cjk", w1[..., c, :, :], at, at).real
        hess = hess / self._mult_col[c, None]
        if diag2 is not None:
            hess = hess + np.moveaxis(self._rates(diag2), -2, -3)[..., c, :, :]
        return grad, 0.5 * (hess + np.swapaxes(hess, -1, -2))

    def eigenvalue_rates(self, t, X, Xi, m, dA):
        """First-order shifts of the cluster eigenvalues of the stacked
        symbols ``m`` (..., N, N) at (t, X, Xi) along perturbations ``dA``
        (..., q, N, N), shape (..., n_modes, q): ``rates_along`` the
        eigenvectors of one gated ``eigh`` per point, with no projectors.
        Along dA_j = A_j it is the gradient d_xi lambda of ``modes``.
        """
        return self.rates_along(self._eigh(t, X, Xi, m)[1], dA)

    def rates_along(self, v, dA):
        """sum_{a in c} Re (V* dA_q V)_aa / m_c (..., n_modes, q) for the
        eigenvectors V (..., N, N) of ``decompose`` and perturbations dA
        (..., q, N, N).  For N = 1 (V = 1) that is Re dA.  Where V is real
        it is the diagonal of V^T (Re dA) V, formed alone and in real
        arithmetic: Re (V^T dA V) = V^T (Re dA) V."""
        if v.shape[-1] == 1:
            return dA.real[..., None, :, 0, 0]
        if np.iscomplexobj(v):
            return self._rates(np.diagonal(_to_eigenbasis(v, dA), axis1=-2, axis2=-1).real)
        vt = np.swapaxes(v, -1, -2)
        return self._rates(np.einsum("...qak,...ak->...qa", vt[..., None, :, :] @ dA.real, vt))

    def _spectrum(self, t, X, Xi):
        """One gated ``eigh`` per point: (w, V, cluster values, projectors)."""
        X = np.asarray(X, dtype=float)
        Xi = np.asarray(Xi, dtype=float)
        w, v = self._eigh(t, X, Xi, symbol_many(self.spec, t, X, Xi))
        vals = np.stack([w[..., s].mean(axis=-1) for s in self.slices], axis=-1)
        projs = np.stack([_cluster_projector(v, s) for s in self.slices], axis=-3)
        return w, v, vals, _complex(projs)

    def _eigh(self, t, X, Xi, m):
        """``decompose`` the stacked symbols m at (t, X, Xi) behind the
        gates: the Hermiticity gate (``_check_hermitian``, which also
        rejects a non-finite symbol) before, and the gap gate wherever there
        are two clusters after.  ``check_stages`` runs the same gates over
        stacked decompositions after the fact."""
        _check_hermitian(self.spec, t, m, m.swapaxes(-1, -2).conj(), X, Xi)
        w, v = self.decompose(m)
        self._check_gaps(t, X, Xi, w)
        return w, v

    def decompose(self, m):
        """The eigendecomposition (w, V) of the stacked Hermitian symbols m,
        ungated, by the cheapest exact route the symbol allows:

        - N = 1: the symbol is its own eigenvalue, w = Re m and V = 1 (real);
        - m with no imaginary part: ``eigh`` of its real part, V real;
        - any other Hermitian m: complex ``eigh``.

        The real part of the complex route's 0.5 (m + m*) is the real
        route's 0.5 (Re m + Re m^T), so the real route decomposes the same
        matrix.
        """
        if m.shape[-1] == 1:
            return m.real[..., 0], np.ones(m.shape)
        mh = m.swapaxes(-1, -2).conj()
        if not m.imag.any():
            m, mh = m.real, mh.real
        return np.linalg.eigh(0.5 * (m + mh))

    def check_stages(self, t, X, Xi, m, w, v=None):
        """The gates of ``_eigh`` after the fact, over stacked stages: the
        symbols m (S, n, N, N) at the times t (S,) and points X, Xi
        (S, n, d), and the eigenvalues w (S', n, N) that ``decompose`` gave
        the first S' <= S of them (None where N = 1).  Given their
        eigenvectors v (S', n, N, N), each stage after the first also gets
        the turn gate against the stage before it (``_check_turns``).
        Raises the error that gating each stage before its decomposition,
        stage by stage, raises first.  The stages before the first one with
        a non-finite symbol, a gap below GAP_MIN or a turned cluster are
        finite, so one Hermiticity gate covers them all; that first stage
        then gets the gates of ``_eigh``, and the turn gate, alone."""
        t = np.asarray(t)[:, None]
        failing = ~np.isfinite(m).reshape(len(m), -1).all(axis=1)
        gapped = w is not None and len(self.slices) > 1
        if gapped:
            gaps = self._gap_failures(Xi[: len(w)], w)[1]
            failing[: len(w)] |= gaps.reshape(len(w), -1).any(axis=1)
        turned = gapped and v is not None and len(v) > 1
        if turned:
            failing[1 : len(v)] |= self._turn_failures(v)[1].reshape(len(v) - 1, -1).any(axis=1)
        first = int(np.argmax(failing)) if failing.any() else len(m)
        for s in (slice(0, first), slice(first, first + 1)):
            _check_hermitian(self.spec, t[s], m[s], m[s].swapaxes(-1, -2).conj(), X[s], Xi[s])
        if gapped and first < len(w):
            s = slice(first, first + 1)
            self._check_gaps(t[s], X[s], Xi[s], w[s])
        if turned and 0 < first < len(v):
            s = slice(first - 1, first + 1)
            self._check_turns(t[s], X[s], Xi[s], v[s])

    def _rates(self, diag):
        """sum_{a in c} diag[..., q, a] / m_c for the real diagonals
        (..., q, N) of perturbations in the eigenbasis: the first-order
        eigenvalue shift of each cluster, shape (..., n_modes, q)."""
        sums = diag.reshape(-1, diag.shape[-1]) @ self._member.T     # one product for all points
        return np.swapaxes(sums.reshape(diag.shape[:-1] + (-1,)), -1, -2) / self._mult_col

    def _w1(self, w):
        """inv[a,b] = 1/(w_a - w_b) across clusters (0 within one) and the
        first-order residue weights W1_c[a,b], shape (..., n_modes, N, N)."""
        member = self._member
        diff = w[..., :, None] - w[..., None, :]
        inv = np.where(self._same, 0.0, 1.0 / np.where(self._same, 1.0, diff))
        return inv, (member[:, :, None] - member[:, None, :]) * inv[..., None, :, :]

    def _gap_failures(self, Xi, w):
        """The gaps (..., n_modes - 1) between neighbouring clusters of the
        sorted eigenvalues w (..., N) and where they fall below GAP_MIN
        |Xi|; for two clusters or more."""
        stops = [s.stop for s in self.slices[:-1]]
        gaps = np.stack([w[..., stop] - w[..., stop - 1] for stop in stops], axis=-1)
        return gaps, gaps < GAP_MIN * np.linalg.norm(Xi, axis=-1)[..., None]

    def _turn_failures(self, v):
        """The overlaps tr(P_c P_c')/m_c' (S - 1, ..., n_modes, n_modes) of
        the cluster projectors P_c of each stage's eigenvectors v
        (S, ..., N, N) with the projectors P_c' of the next stage, and where
        a cluster's overlap with itself falls below 1/2.  A gapped symbol
        moved by a step keeps 1 - O(step^2); two clusters that cross
        between the stages swap their projectors and read about 0."""
        o = np.swapaxes(v[:-1], -1, -2).conj() @ v[1:]
        cross = self._member @ (o * o.conj()).real @ self._member.T / self._mult_col.T
        return cross, np.diagonal(cross, axis1=-2, axis2=-1) < 0.5

    def _check_turns(self, t, X, Xi, v):
        """Raise GapCollapseError unless each cluster projector of the
        eigenvectors v (S, n, N, N) at the stacked stages (t (S,), X, Xi
        (S, n, d)) overlaps its previous stage's by at least half
        (``_turn_failures``); for two clusters or more.  The message names
        the first failing pair of stages at its first failing point, the
        cluster, and the cluster of the previous stage it overlaps most."""
        if len(v) < 2:
            return
        cross, bad = self._turn_failures(v)
        if not bad.any():
            return
        k, i, c = _first(bad)
        others = np.where(np.arange(len(self.slices)) == c, -np.inf, cross[k, i, :, c])
        batch = v.shape[1:-2]
        at = [_place(self.spec, t[s], X[s], Xi[s], batch, (i,)) for s in (k, k + 1)]
        raise GapCollapseError(
            f"clusters {c} and {int(np.argmax(others))} of {self.spec.name!r} crossed "
            f"between the stages at {at[0]} and at {at[1]}: cluster {c}'s projector "
            f"kept an overlap tr(P P')/m of {float(cross[k, i, c, c]):.3e}, below 1/2"
        )

    def _check_gaps(self, t, X, Xi, w):
        """Raise GapCollapseError unless every pair of neighbouring clusters
        stays GAP_MIN |Xi| apart at every point; the message names the
        first failing point and its first failing pair."""
        if len(self.slices) == 1:
            return
        gaps, bad = self._gap_failures(np.asarray(Xi, dtype=float), w)
        if not bad.any():
            return
        first = _first(bad)
        idx, c = first[:-1], int(first[-1])
        raise GapCollapseError(
            f"gap {float(gaps[first]):.3e} between clusters {c} and {c + 1} of "
            f"{self.spec.name!r} fell below gap_min = {GAP_MIN:.3e} (times |xi|) "
            f"at {_place(self.spec, t, X, Xi, w.shape[:-1], idx)}"
        )


def _cluster_projector(v: np.ndarray, s: slice) -> np.ndarray:
    """Projector V_s V_s* onto the eigenvectors ``v[..., :, s]`` of one cluster."""
    return np.einsum("...ik,...jk->...ij", v[..., :, s], v[..., :, s].conj())


def _complex(a: np.ndarray) -> np.ndarray:
    """A projector array as every route returns it, complex."""
    return a.astype(complex, copy=False)


def _to_eigenbasis(v: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """V* M V for matrices M stacked as for ``_from_eigenbasis``: M itself
    where V = 1 (N = 1), and real where V is real and M has no imaginary
    part."""
    if v.shape[-1] == 1:
        return mats
    vb = v.reshape(v.shape[:-2] + (1,) * (mats.ndim - v.ndim) + v.shape[-2:])
    if np.iscomplexobj(vb):
        return vb.swapaxes(-1, -2).conj() @ mats @ vb
    if not mats.imag.any():
        mats = mats.real
    return vb.swapaxes(-1, -2) @ mats @ vb


def _from_eigenbasis(v: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """V M V* for matrices M (..., *K, N, N) stacked over any K axes after
    the batch axes of V (..., N, N); M itself where V = 1 (N = 1)."""
    if v.shape[-1] == 1:
        return mats
    extra = mats.ndim - v.ndim
    vb = v.reshape(v.shape[:-2] + (1,) * extra + v.shape[-2:])
    return vb @ mats @ np.conj(np.swapaxes(vb, -1, -2))


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


def _direction_samples(d: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, CHECK_DIRECTIONS, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    # Fibonacci-like deterministic sphere covering for d >= 3.
    rng = np.random.default_rng(0)
    v = rng.standard_normal((CHECK_DIRECTIONS, d))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _space_samples(domain: Domain, t: float) -> np.ndarray:
    rad = domain.cross_section_radius(t)
    xs = grid_points([np.linspace(-rad, rad, 2 * CHECK_SPACE + 1)] * domain.d)
    return xs[np.linalg.norm(xs, axis=-1) <= rad] + domain.center


def check_assumptions(spec: SystemSpec) -> AssumptionReport:
    """Report Hermiticity, spectral gap, and boundary-speed positivity on a grid.

    Never raises on violations; the report carries pass/fail flags.
    """
    dom = spec.domain
    times = np.linspace(0.0, dom.final_time, CHECK_TIMES)
    dirs = _direction_samples(spec.d)

    max_dev = 0.0
    min_gap = np.inf
    min_speed = np.inf
    n_samples = 0
    for t in times:
        xs = _space_samples(dom, t)
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
        gap_ok=min_gap >= GAP_MIN,
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


def _variable_advection_d2xA(t, x, j, k, l):
    x = np.asarray(x, dtype=float)
    return (-0.3 * np.sin(x[..., 0]))[..., None, None] + 0j


def _zero_dx_const(mats, t, x, j, *idx):
    """The x-derivatives of constant coefficients, of any order: zeros."""
    x = np.asarray(x, dtype=float)
    n = mats[j].shape[0]
    return np.zeros(x.shape[:-1] + (n, n))


_WAVE2X2_A = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),)
_ADVECTION_A = (np.array([[1.0]], dtype=complex),)
_ACOUSTICS3_A = (
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
)


def _builtin(name, d, N, mats, domain):
    return SystemSpec(
        name=name,
        d=d,
        N=N,
        coeff_A=functools.partial(_const_A, mats),
        coeff_B=functools.partial(_const_B, np.zeros((N, N), dtype=complex)),
        domain=domain,
        coeff_dxA=functools.partial(_zero_dx_const, mats),
        coeff_d2xA=functools.partial(_zero_dx_const, mats),
        constant_coefficients=True,
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
        coeff_d2xA=_variable_advection_d2xA,
    )


_DOMAIN_KEYS = ("center", "radius", "final_time", "speed")


def _domain_mapping(value) -> dict:
    """A system config's 'domain': a mapping of some of _DOMAIN_KEYS."""
    if not isinstance(value, dict):
        raise ConfigError(f"system config field 'domain' must be a mapping, got {value!r}")
    _reject_unknown(value, _DOMAIN_KEYS, "keys of system config field 'domain'")
    return value


def _reject_unknown(cfg: dict, known, what: str) -> None:
    """A ConfigError naming the keys of a config mapping outside ``known``."""
    unknown = sorted(str(key) for key in cfg if key not in known)
    if unknown:
        raise ConfigError(f"unknown {what}: {unknown}; known: {list(known)}")


def _table_field(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"system config is missing required field {key!r}")
    return cfg[key]


def _table_size(cfg: dict, key: str) -> int:
    """A custom system's dimension ``key``: a positive integer."""
    value = _table_field(cfg, key)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ConfigError(f"system config field {key!r} must be a positive integer, got {value!r}")
    return int(value)


def _table(value, n: int, field: str) -> np.ndarray:
    """One n x n coefficient table of a custom system, complex: n^2 numbers
    of magnitude at most TABLE_MAX, nested as an n x n list or flat."""
    try:
        mat = np.asarray(value, dtype=complex)
    except (TypeError, ValueError):
        mat = None
    # np.abs(nan) <= TABLE_MAX is False, so this also rejects nan and inf
    if mat is None or mat.size != n * n or not (np.abs(mat) <= TABLE_MAX).all():
        raise ConfigError(
            f"system config field {field!r} must be a {n} x {n} table of numbers "
            f"of magnitude at most {TABLE_MAX:.0e}, got {value!r}"
        )
    return mat.reshape(n, n)


def load_system(cfg: dict) -> SystemSpec:
    """Build a SystemSpec from a configuration mapping.

    Either ``{"name": <builtin>, ...domain overrides}`` (at top level or
    under "domain", each key in one place) or a custom system with constant
    coefficient tables::

        {"name": "mysys", "d": 1, "N": 2,
         "A": [[[0, 1], [1, 0]]],            # one NxN table per space axis
         "B": [[0, 0], [0, 0]],              # optional
         "domain": {"center": [0], "radius": 5, "final_time": 0.5, "speed": 1}}

    A custom system's tables are constant, so its spec declares
    ``constant_coefficients=True``: every A_j is independent of t and x,
    ``coeff_dxA`` and ``coeff_d2xA`` are identically zero, and its rays are
    traced straight.  A key that neither form reads is a ConfigError
    naming it.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"system config must be a mapping, got {cfg!r}")
    name = cfg.get("name")
    if name is None:
        raise ConfigError("system config is missing required field 'system.name'")
    if not isinstance(name, str):
        raise ConfigError(f"system config field 'name' must be a string, got {name!r}")
    if "A" not in cfg:
        _reject_unknown(cfg, ("name", "domain") + _DOMAIN_KEYS, "system config fields")
        overrides = {k: v for k, v in cfg.items() if k in _DOMAIN_KEYS}
        nested = _domain_mapping(cfg.get("domain", {}))
        twice = sorted(set(overrides) & set(nested))
        if twice:
            raise ConfigError(
                f"system config gives {twice} both at top level and under 'domain'"
            )
        return builtin_system(name, **overrides, **nested)

    _reject_unknown(cfg, ("name", "d", "N", "A", "B", "domain"), "system config fields")
    d, n = _table_size(cfg, "d"), _table_size(cfg, "N")
    tables = _table_field(cfg, "A")
    if not isinstance(tables, list) or len(tables) != d:
        raise ConfigError(
            f"system config field 'A' must list one {n} x {n} table per space axis "
            f"(d = {d}), got {tables!r}"
        )
    mats = tuple(_table(a, n, f"A[{j}]") for j, a in enumerate(tables))
    bmat = _table(cfg["B"], n, "B") if "B" in cfg else np.zeros((n, n), dtype=complex)
    dom_cfg = _domain_mapping(_table_field(cfg, "domain"))
    # Domain checks each value and names the key it rejects
    domain = Domain(**{key: _table_field(dom_cfg, key) for key in _DOMAIN_KEYS})
    return SystemSpec(
        name=name,
        d=d,
        N=n,
        coeff_A=functools.partial(_const_A, mats),
        coeff_B=functools.partial(_const_B, bmat),
        domain=domain,
        coeff_dxA=functools.partial(_zero_dx_const, mats),
        coeff_d2xA=functools.partial(_zero_dx_const, mats),
        constant_coefficients=True,
    )
