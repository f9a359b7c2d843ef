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
  ``ExtensionField`` keeps along the path;
* ``trace_stagewise`` -- the general RK4 ray loop with every stage gated
  as it runs, against ``rays._trace_bundle``, which gates the stages of a
  block of steps at once;
* ``assert_exact_derivatives`` -- central differences of ``coeff_A`` and
  ``coeff_dxA``, against the exact derivatives a ``SystemSpec`` supplies.
"""

from __future__ import annotations

import numpy as np

from cgoptics.errors import DomainExitError, NumericsError
from cgoptics.rays import _grad_lambda_batch, _symbol, _symbol_directions
from cgoptics.systems import ClusterTemplate, SystemSpec, _check_hermitian, _cluster_slices


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


def trace_stagewise(spec: SystemSpec, l: int, X0, Xi0, T: float, dt: float):
    """(t, xs, xis, vs) of RK4 on Hamilton's equations for cluster l from
    the seeds (X0, Xi0), on ``rays._trace_bundle``'s time grid: separate x
    and xi arrays, one gated kernel call (``rays._grad_lambda_batch``) per
    stage and the domain checked after each step.  Where there are two
    clusters or more, each stage after the first then gets the turn gate
    against the stage before it (``ClusterTemplate._check_turns``)."""
    n_steps = int(max(1.0, np.round(T / dt)))
    dt = T / n_steps
    template = ClusterTemplate(spec, 0.0, X0[0], Xi0[0])
    t_nodes = np.linspace(0.0, T, n_steps + 1)
    xs = np.empty((n_steps + 1,) + X0.shape)
    xis = np.empty_like(xs)
    vs = np.empty_like(xs)
    xs[0], xis[0] = X0, Xi0

    last = []      # the previous stage's (t, X, Xi, eigenvectors)

    def rhs(t, X, Xi):
        dxi, dx = _grad_lambda_batch(spec, template, l, t, X, Xi)
        if template.n_modes > 1:
            v = template.decompose(_symbol(_symbol_directions(spec, t, X, Xi)[:, : spec.d], Xi))[1]
            last[:] = last[-1:] + [(t, X, Xi, v)]
            template._check_turns(*(np.stack(a) for a in zip(*last)))
        return dxi, -dx

    for k in range(n_steps):
        t0 = t_nodes[k]
        X, Xi = xs[k], xis[k]
        k1x, k1xi = rhs(t0, X, Xi)
        vs[k] = k1x
        k2x, k2xi = rhs(t0 + dt / 2, X + dt / 2 * k1x, Xi + dt / 2 * k1xi)
        k3x, k3xi = rhs(t0 + dt / 2, X + dt / 2 * k2x, Xi + dt / 2 * k2xi)
        k4x, k4xi = rhs(t0 + dt, X + dt * k3x, Xi + dt * k3xi)
        xs[k + 1] = X + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        xis[k + 1] = Xi + dt / 6 * (k1xi + 2 * k2xi + 2 * k3xi + k4xi)
        tn = t_nodes[k + 1]
        if not spec.domain.contains(tn, xs[k + 1]).all():
            raise DomainExitError(f"a ray left the domain of determinacy at t={tn:.4f}")
    vs[-1] = rhs(T, xs[-1], xis[-1])[0]
    return t_nodes, xs, xis, vs


def assert_exact_derivatives(spec: SystemSpec, X, t: float = 0.1, h: float = 1e-5,
                             rtol: float = 1e-6) -> None:
    """Assert that ``coeff_dxA`` and ``coeff_d2xA`` are the x-derivatives of
    ``coeff_A`` and ``coeff_dxA`` at the stacked points X (..., d).

    Each is compared with a central difference of step h, whose truncation
    h^2 |d^3 A| / 6 and rounding eps |A| / h both stay far below ``rtol``
    times the largest |entry| of A at X (at least 1).
    """
    X = np.asarray(X, dtype=float)
    scale = max(1.0, max(float(np.max(np.abs(spec.coeff_A(t, X, j)))) for j in range(spec.d)))
    for k in range(spec.d):
        step = np.zeros(spec.d)
        step[k] = h

        def diff(f, *idx):
            return (np.asarray(f(t, X + step, *idx)) - np.asarray(f(t, X - step, *idx))) / (2 * h)

        for j in range(spec.d):
            dx = np.asarray(spec.coeff_dxA(t, X, j, k))
            err = np.max(np.abs(dx - diff(spec.coeff_A, j)))
            assert err <= rtol * scale, f"coeff_dxA(j={j}, k={k}) is off by {err:.3e}"
            for l in range(spec.d):
                # d^2 A_j / dx_l dx_k against the difference of coeff_dxA(j, l) along x_k
                d2x = np.asarray(spec.coeff_d2xA(t, X, j, l, k))
                err = np.max(np.abs(d2x - diff(spec.coeff_dxA, j, l)))
                assert err <= rtol * scale, f"coeff_d2xA(j={j}, k={l}, l={k}) is off by {err:.3e}"
