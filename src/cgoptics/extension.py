"""Taylor extension of symbols to complex covectors and the extended mode algebra.

A smooth symbol f(xi) on real nonzero covectors extends to xi + i*eta by its
Taylor polynomial in the imaginary direction,

    f^(n)(xi + i eta) = sum_{|alpha| <= n} i^|alpha| / alpha! d^alpha f(xi) eta^alpha,

which for n = 2 reads f + i <df, eta> - (1/2) <eta, d2f eta>.  Products of
extensions reproduce the extension of the product up to O(|eta|^{n+1}), which
is what makes the extended projectors and eigenvalues of the symbol behave
like genuine spectral data near the real axis.  The construction downstream
only needs n = 2, but the operator is generic over the supplied jet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SeparationFailureError
from .numerics import grid_points
from .systems import ClusterTemplate, SystemSpec, eigen_decompose


@dataclass(frozen=True)
class ComplexCovector:
    """Covector xi + i*eta with nonzero real part; (..., d) for a batch."""

    xi: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", np.atleast_1d(np.asarray(self.xi, dtype=float)))
        object.__setattr__(self, "eta", np.atleast_1d(np.asarray(self.eta, dtype=float)))
        if self.xi.shape != self.eta.shape:
            raise ValueError("xi and eta must have the same shape")
        if np.any(np.linalg.norm(self.xi, axis=-1) == 0.0):
            raise ValueError("extension is defined only for nonzero real part")

    @classmethod
    def from_complex(cls, zeta) -> "ComplexCovector":
        zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
        return cls(xi=zeta.real, eta=zeta.imag)

    @property
    def as_complex(self) -> np.ndarray:
        return self.xi + 1j * self.eta


@dataclass(frozen=True)
class ExtendedMode:
    """Extended eigenvalue and projector of one mode at a complex covector."""

    index: int
    eigenvalue: complex
    projector: np.ndarray


def taylor_extend(jets, eta, order: int | None = None):
    """Evaluate the order-n imaginary-direction Taylor extension of a jet.

    ``jets`` is a sequence [f, df, d2f, ...] where df has shape (d, *S) and
    d2f has shape (d, d, *S) for a symbol with value shape S, and ``eta``
    has shape (d,).  With a leading batch shape B, ``eta`` is (*B, d) and
    the jets are (*B, *S), (*B, d, *S), (*B, d, d, *S); a batch axis of
    size 1 in ``eta`` broadcasts.  Returns a complex array of shape (*B, *S).
    """
    eta = np.asarray(eta, dtype=float)
    if order is None:
        order = len(jets) - 1
    if order < 0 or order >= len(jets):
        raise ValueError("order must index into the supplied jets")
    out = np.asarray(jets[0], dtype=complex).copy()
    nb = eta.ndim - 1
    # eta with singleton axes for the value shape S, d last
    e = eta.reshape(eta.shape[:-1] + (1,) * (out.ndim - nb) + eta.shape[-1:])
    if order >= 1:
        grad = np.moveaxis(np.asarray(jets[1], dtype=complex), nb, -1)
        out += 1j * np.sum(e * grad, axis=-1)
    if order >= 2:
        hess = np.moveaxis(np.asarray(jets[2], dtype=complex), (nb, nb + 1), (-2, -1))
        out -= 0.5 * np.einsum("...i,...ij,...j->...", e, hess, e)
    if order >= 3:
        raise NotImplementedError("jet extension implemented up to order 2")
    return out


def extend_scalar(value, grad, hess, eta) -> complex:
    """Order-2 extension of a scalar symbol: f + i<df,eta> - (1/2)<eta,d2f eta>."""
    return complex(taylor_extend([value, grad, hess], eta, order=2))


def extended_symbol(spec: SystemSpec, t: float, x, zeta: ComplexCovector) -> np.ndarray:
    """The symbol at a complex covector.

    The symbol is linear in the covector, so its extension at any order n >= 1
    is the entire function sum_j A_j zeta_j itself.
    """
    x = np.asarray(x, dtype=float).reshape(spec.d)
    out = np.zeros((spec.N, spec.N), dtype=complex)
    for j in range(spec.d):
        out += np.asarray(spec.coeff_A(t, x, j)).reshape(spec.N, spec.N) * zeta.as_complex[j]
    return out


def extended_modes(
    spec: SystemSpec, t: float, x, zeta: ComplexCovector, decomposition=None
) -> list[ExtendedMode]:
    """All extended modes (eigenvalue, projector) at xi + i*eta, order 2.

    For a batch (``x`` and ``zeta`` of shape (m, d), ``t`` a scalar or (m,))
    each mode carries eigenvalues (m,) and projectors (m, N, N); one kernel
    call serves the batch, with the clusters found at its first point.
    ``decomposition`` supplies the real-axis jets of a single point.
    """
    if zeta.xi.ndim > 1:
        x = np.asarray(x, dtype=float)
        t0 = np.ravel(t)[0]
        template = ClusterTemplate(spec, t0, x[0], zeta.xi[0])
        vals, projs, grad, hess, dprojs, d2projs = template.modes(t, x, zeta.xi, order=2)
        eta = zeta.eta[:, None, :]
        lam = taylor_extend([vals, grad, hess], eta)
        proj = taylor_extend([projs, dprojs, d2projs], eta)
        return [
            ExtendedMode(index=l, eigenvalue=lam[:, l], projector=proj[:, l])
            for l in range(template.n_modes)
        ]
    if decomposition is None:
        decomposition = eigen_decompose(spec, t, x, zeta.xi, order=2)
    out = []
    for l, mode in enumerate(decomposition.modes):
        lam = extend_scalar(mode.eigenvalue, mode.grad, mode.hessian, zeta.eta)
        proj = taylor_extend(
            [mode.projector, mode.proj_grad, mode.proj_hessian], zeta.eta, order=2
        )
        out.append(ExtendedMode(index=l, eigenvalue=lam, projector=proj))
    return out


def extended_mode(
    spec: SystemSpec, t: float, x, zeta: ComplexCovector, l: int, decomposition=None
) -> ExtendedMode:
    """Extended eigenvalue/projector of mode ``l`` at a complex covector."""
    return extended_modes(spec, t, x, zeta, decomposition)[l]


def eikonal_defect(spec: SystemSpec, l: int, dt_phi: complex, dx_phi, t: float, x) -> complex:
    """Residual dt_phi + extended_lambda_l(t, x, dx_phi) of the complex eikonal equation."""
    zeta = ComplexCovector.from_complex(dx_phi)
    mode = extended_mode(spec, t, x, zeta, l)
    return complex(dt_phi) + mode.eigenvalue


@dataclass(frozen=True)
class SeparationBound:
    """Sampled lower bound on |dt_phi + extended_lambda| for a competing mode."""

    mode: int
    bound: float
    s_radius: float


def mode_separation(
    spec: SystemSpec,
    bundle,
    jet,
    l: int,
    s_radius: float | None = None,
    n_s: int = 7,
    t_stride: int = 50,
    shrink: float = 0.7,
    max_shrink: int = 8,
) -> dict[int, SeparationBound]:
    """Lower-bound the eikonal defect of every competing mode inside the tube.

    Samples |s| <= s_radius on the beam chart, evaluates
    |dt_phi + extended_lambda_l'| for each mode l' != l, and shrinks the tube
    until the sampled minimum is positive.  Each radius pass evaluates the
    extended eigenvalues of all competing modes at all its samples in one
    batch.  Raises SeparationFailureError if no positive bound is found.
    """
    from .phase import eval_phase  # local import; phase builds on this module

    if s_radius is None:
        s_radius = bundle.chart_radius
    template = ClusterTemplate(spec, bundle.t[0], bundle.x[0, 0], bundle.xi[0, 0])
    pending = [m for m in range(template.n_modes) if m != l]
    out: dict[int, SeparationBound] = {}
    if not pending:
        return out

    t_indices = list(range(0, bundle.n_t, max(1, t_stride))) + [bundle.n_t - 1]
    s_dirs = grid_points([np.linspace(-1.0, 1.0, n_s)] * bundle.d2)
    s_dirs = s_dirs[np.linalg.norm(s_dirs, axis=-1) <= 1.0]

    radius = float(s_radius)
    for _ in range(max_shrink):
        T, X, dt, dx = [], [], [], []
        for k in t_indices:
            for i in range(bundle.n_r):
                pts = bundle.chart_points(k, i, radius * s_dirs)
                pv = eval_phase(jet, bundle, bundle.t[k], pts)
                T.append(np.full(np.count_nonzero(pv.inside), bundle.t[k]))
                X.append(pts[pv.inside])
                dt.append(pv.dt[pv.inside])
                dx.append(pv.dx[pv.inside])
        T = np.concatenate(T)
        worst = np.full(template.n_modes, np.inf)
        if T.size:
            zeta = ComplexCovector.from_complex(np.concatenate(dx))
            mods = extended_modes(spec, T, np.concatenate(X), zeta)
            dt = np.concatenate(dt)
            for lc in pending:
                worst[lc] = np.min(np.abs(dt + mods[lc].eigenvalue))
        for lc in list(pending):
            if np.isfinite(worst[lc]) and worst[lc] > 0.0:
                out[lc] = SeparationBound(mode=lc, bound=float(worst[lc]), s_radius=radius)
                pending.remove(lc)
        if not pending:
            return dict(sorted(out.items()))
        radius *= shrink
    raise SeparationFailureError(
        f"no positive separation bound for competing mode {pending[0]}"
    )
