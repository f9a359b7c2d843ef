"""Reference implementations that the tests compare the package against.

None of these runs in a ``cgoptics`` command: each is a slower or more
direct form of what the package computes another way.

* ``contour_projector`` -- a cluster's spectral projector by trapezoidal
  quadrature of the resolvent, against the eigendecompositions of
  ``ClusterTemplate``;
* ``chart_map`` -- the chart x(t_k, r, s) = x(r) + e(r) s of one time node,
  to place points at known chart coordinates;
* ``extend_amplitude`` -- the second-order tube extension M(t, r, s) a of
  one node's amplitude from its projector jet: the one-node form of what
  ``ExtensionField`` keeps along the path.
"""

from __future__ import annotations

import numpy as np

from cgoptics.errors import NumericsError
from cgoptics.systems import SystemSpec, _check_hermitian, _cluster_slices


class SingularResolventError(NumericsError):
    """A contour quadrature node landed on an eigenvalue of the symbol."""


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
    slices = _cluster_slices(w, float(np.linalg.norm(xi)))
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


def chart_map(bundle, k: int, r, s) -> np.ndarray:
    """Evaluate x(t_k, r, s) of ``bundle``'s chart for stacked (r, s)."""
    s = np.atleast_2d(np.asarray(s, dtype=float))
    if bundle.d1 == 0:
        return bundle.chart_points(k, 0, s)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    (xe,) = bundle.r_values(r, bundle.chart_columns(k))
    return xe[:, :, 0] + np.einsum("mdj,mj->md", xe[:, :, 1:], s)


def extend_amplitude(pjet, a: np.ndarray, s) -> np.ndarray:
    """Second-order tube extension M(t, r, s) a(t, r) at offsets s (m, d2)
    from the ``ProjectorJet`` of one node."""
    s = np.atleast_2d(np.asarray(s, dtype=float))
    lin = np.einsum("iab,b->ia", pjet.ds, a)
    quad = np.einsum("ijab,b->ija", pjet.quad, a)
    return (
        a[None, :]
        + np.einsum("mi,ia->ma", s, lin)
        + 0.5 * np.einsum("mi,mj,ija->ma", s, s, quad)
    )
