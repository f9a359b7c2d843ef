"""Field assembly: cutoffs, oscillatory initial data, and the beam superposition."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, TubeOverlapError
from .numerics import grid_points
from .rays import InitialData


@dataclass(frozen=True)
class Cutoff:
    """Smooth radial cutoff of the beam tube.

    The plateau variant equals 1 for |s| <= radius/2 and decays to 0 at
    |s| = radius through the standard C-infinity partition ramp; the plain
    variant is the bump exp(1 - 1/(1 - (|s|/radius)^2)).  Both are
    infinitely flat at the outer edge.
    """

    radius: float
    plateau: bool = True

    def __call__(self, s_norm) -> np.ndarray:
        u = np.abs(np.asarray(s_norm, dtype=float)) / self.radius
        if self.plateau:
            v = 2.0 * u - 1.0
            with np.errstate(over="ignore", divide="ignore"):
                f = np.where(v > 0, np.exp(-1.0 / np.maximum(v, 1e-300)), 0.0)
                fc = np.where(
                    v < 1, np.exp(-1.0 / np.maximum(1.0 - v, 1e-300)), 0.0
                )
            out = np.where(v <= 0, 1.0, np.where(v >= 1, 0.0, fc / (f + fc)))
            return out
        with np.errstate(divide="ignore", over="ignore"):
            val = np.where(u < 1, np.exp(1.0 - 1.0 / np.maximum(1.0 - u * u, 1e-300)), 0.0)
        return val


@dataclass
class FieldGrid:
    """Complex vector field sampled on a tensor-product spatial grid."""

    axes: tuple[np.ndarray, ...]
    values: np.ndarray          # (*grid_shape, N) complex
    eps: float
    t: float

    @property
    def points(self) -> np.ndarray:
        return grid_points(self.axes)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)


def assemble_field(
    beams,
    eps: float,
    axes,
    t: float,
) -> FieldGrid:
    """Superpose the beams on a grid at one time: sum of cutoff * a * e^{i phi/eps}.

    Beam tubes must be disjoint on the grid; a node claimed by two beams
    raises TubeOverlapError.
    """
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    pts = grid_points(axes)
    shape = tuple(ax.size for ax in axes)
    n_comp = beams[0].spec.N
    total = np.zeros((pts.shape[0], n_comp), dtype=complex)
    owner = np.full(pts.shape[0], -1, dtype=int)
    for b_idx, beam in enumerate(beams):
        k0, k1, w = beam.bundle.locate_time(t)
        g, pv = beam.evaluate(k0, pts, eps)
        phi = pv.phi
        if k1 != k0:
            g1, pv1 = beam.evaluate(k1, pts, eps)
            g = (1 - w) * g + w * g1
            phi = (1 - w) * phi + w * pv1.phi
        active = np.linalg.norm(g, axis=-1) > 0.0
        clash = active & (owner >= 0)
        if np.any(clash):
            raise TubeOverlapError(
                f"beams {owner[clash][0]} and {b_idx} overlap on the grid at t={t}"
            )
        owner[active] = b_idx
        total[active] += g[active] * np.exp(1j * phi[active] / eps)[:, None]
    return FieldGrid(axes=axes, values=total.reshape(shape + (n_comp,)), eps=eps, t=t)


def eval_initial_data(initial: InitialData, eps: float, axes) -> FieldGrid:
    """Exact oscillatory Cauchy data sum_mu h_mu(x) e^{i psi_mu(x)/eps} on a grid."""
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    pts = grid_points(axes)
    shape = tuple(ax.size for ax in axes)
    total = None
    for comp in initial.components:
        amp = np.asarray(comp.amplitude(pts), dtype=complex)
        psi = np.asarray(comp.psi(pts), dtype=complex)
        vals = amp * np.exp(1j * psi / eps)[..., None]
        total = vals if total is None else total + vals
    return FieldGrid(axes=axes, values=total.reshape(shape + (total.shape[-1],)),
                     eps=eps, t=0.0)


def initial_mismatch(initial: InitialData, beams, eps: float, axes) -> float:
    """Sup-norm of h^eps - v^eps(0) over the grid."""
    exact = eval_initial_data(initial, eps, axes)
    approx = assemble_field(beams, eps, axes, t=0.0)
    if exact.values.shape != approx.values.shape:
        raise GridMismatchError("initial data and field grids differ")
    diff = np.linalg.norm(exact.values - approx.values, axis=-1)
    return float(np.max(diff))


def write_field_csv(grid: FieldGrid, path) -> None:
    """CSV rows: grid coordinates, then Re/Im per field component."""
    pts = grid.points
    vals = grid.values.reshape(pts.shape[0], -1)
    d = pts.shape[1]
    n = vals.shape[1]
    header = [f"x{j}" for j in range(d)]
    for c in range(n):
        header += [f"re_u{c}", f"im_u{c}"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for p in range(pts.shape[0]):
            row = [f"{v:.17g}" for v in pts[p]]
            for c in range(n):
                row += [f"{vals[p, c].real:.17g}", f"{vals[p, c].imag:.17g}"]
            fh.write(",".join(row) + "\n")


def write_field_meta(grid: FieldGrid, path, components=None) -> None:
    """Compact JSON header describing one exported field slice."""
    meta = {
        "t": grid.t,
        "eps": grid.eps,
        "axes": [{"min": float(a[0]), "max": float(a[-1]), "n": int(a.size)}
                 for a in grid.axes],
        "n_components": int(grid.values.shape[-1]),
        "components": components or [],
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
