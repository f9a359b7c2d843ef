"""Field assembly: cutoffs, oscillatory initial data, and the beam superposition."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, TubeOverlapError
from .numerics import grid_points, row_norm
from .rays import InitialData

# Grid rows per block of InitialGrid's initial data and per chunk of a
# beam's box rows.  On the beam2d benchmark's 321^2 grid, 8,192 rows took a
# warm initial_mismatch to a tracemalloc peak of +4.9 MB (16,384: +7.5 MB)
# and the benchmark's peak RSS from 50.5 to 46.3 MB.
GRID_BLOCK_ROWS = 1 << 13
# consecutive grid rows per tile of InitialGrid's outside bound
TILE = 512

# relative slack between the outside rows' modulus bound and the computed
# modulus |h|: both are a few roundings from the exact values
BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class Cutoff:
    """Smooth radial cutoff of the beam tube.

    It equals 1 for |s| <= radius/2 and decays to 0 at |s| = radius through
    the standard C-infinity partition ramp, infinitely flat at both ends.
    """

    radius: float

    def __call__(self, s_norm) -> np.ndarray:
        v = 2.0 * (np.abs(np.asarray(s_norm, dtype=float)) / self.radius) - 1.0
        with np.errstate(over="ignore", divide="ignore"):
            f = np.where(v > 0, np.exp(-1.0 / np.maximum(v, 1e-300)), 0.0)
            fc = np.where(
                v < 1, np.exp(-1.0 / np.maximum(1.0 - v, 1e-300)), 0.0
            )
        return np.where(v <= 0, 1.0, np.where(v >= 1, 0.0, fc / (f + fc)))

    def derivative(self, s) -> np.ndarray:
        """Exact d/ds of cut(|s|) for real s, elementwise: cut'(|s|) sign(s).

        It is exactly 0 where the cutoff is flat (|s| <= radius/2 and
        |s| >= radius).  The exponentials are divided by the small factors
        one at a time, so a vanishing exponential gives 0 without overflow.
        """
        s = np.asarray(s, dtype=float)
        # d/dv fc/(f + fc) = -f fc (1/v^2 + 1/(1 - v)^2) / (f + fc)^2, v = 2u - 1
        v = 2.0 * (np.abs(s) / self.radius) - 1.0
        ramp = (v > 0) & (v < 1)
        v = np.where(ramp, v, 0.5)
        w = 1.0 - v
        f, fc = np.exp(-1.0 / v), np.exp(-1.0 / w)
        dv = -(fc * (f / v / v) + f * (fc / w / w)) / (f + fc) ** 2
        return np.where(ramp, 2.0 * dv, 0.0) * np.sign(s) / self.radius


@dataclass
class FieldGrid:
    """Complex vector field sampled on a tensor-product spatial grid."""

    axes: tuple[np.ndarray, ...]
    values: np.ndarray          # (*axis sizes, N) complex
    eps: float
    t: float

    @property
    def points(self) -> np.ndarray:
        return grid_points(self.axes)


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
    _superpose(_beam_values(beams, pts, t), eps, t, total)
    return FieldGrid(axes=axes, values=total.reshape(shape + (n_comp,)), eps=eps, t=t)


@dataclass(frozen=True)
class _TubeValues:
    """Eps-free values of one beam at the rows inside its tube at one time.

    ``rows`` are the sorted row positions inside the tube at either node
    bracketing t, ``phi`` the phase there; per node, ``nodes`` holds the
    positions among ``rows`` of the node's points inside the tube and their
    prefactor parts ``BeamValues.base``, ``corr`` and ``cut``, and ``w`` is
    the interpolation weight of the second node (one node alone: w = 0).
    """

    rows: np.ndarray
    phi: np.ndarray
    w: float
    nodes: tuple

    def g(self, eps: float) -> np.ndarray:
        """The prefactor cutoff * (a0 + eps * a1) at ``rows``, interpolated
        between the nodes; ``BeamValues.g``'s operations."""
        out = []
        for pos, base, corr, cut in self.nodes:
            vals = (base + eps * corr) * cut[:, None]
            out.append(np.zeros((self.rows.size,) + vals.shape[1:], dtype=vals.dtype))
            out[-1][pos] = vals
        if len(out) == 1:
            return out[0]
        return (1 - self.w) * out[0] + self.w * out[1]


def _beam_values(beams, pts: np.ndarray, t: float) -> list:
    """Eps-free ``_TubeValues`` of each beam at the points at time t."""
    out = []
    for beam in beams:
        k0, k1, w = beam.bundle.locate_time(t)
        v0 = beam.evaluate(k0, pts)
        v1 = beam.evaluate(k1, pts) if k1 != k0 else None
        rows = v0.idx if v1 is None else np.union1d(v0.idx, v1.idx)
        phi = v0.phi_at(rows)
        if v1 is not None:
            phi = (1 - w) * phi + w * v1.phi_at(rows)
        nodes = tuple(
            (np.searchsorted(rows, v.idx), v.base, v.corr, v.cut) for v in (v0, v1) if v is not None
        )
        out.append(_TubeValues(rows, phi, w, nodes))
    return out


def _superpose(values, eps: float, t: float, total: np.ndarray, at=None) -> None:
    """Add the beams' g * e^{i phi/eps} into ``total`` (m, N) in place.

    ``total`` holds every point, or with ``at`` only some: then ``at`` gives
    each beam's rows' positions in it."""
    owner = np.full(total.shape[0], -1, dtype=int)
    for b_idx, tube in enumerate(values):
        g = tube.g(eps)
        active = row_norm(g) > 0.0
        pos = (tube.rows if at is None else at[b_idx])[active]
        clash = owner[pos][owner[pos] >= 0]
        if clash.size:
            raise TubeOverlapError(
                f"beams {clash[0]} and {b_idx} overlap on the grid at t={t}"
            )
        owner[pos] = b_idx
        total[pos] += g[active] * np.exp(1j * tube.phi[active] / eps)[:, None]


def _initial_terms(initial: InitialData, pts: np.ndarray) -> list:
    """Eps-free (amplitude, phase) of each initial-data component at the points."""
    return [
        (np.asarray(comp.amplitude(pts), dtype=complex), np.asarray(comp.psi(pts), dtype=complex))
        for comp in initial.components
    ]


def _initial_values(terms, eps: float) -> np.ndarray:
    """sum_mu h_mu e^{i psi_mu/eps} from the eps-free terms."""
    total = None
    for amp, psi in terms:
        vals = amp * np.exp(1j * psi / eps)[..., None]
        total = vals if total is None else total + vals
    return total


def eval_initial_data(initial: InitialData, eps: float, axes) -> FieldGrid:
    """Exact oscillatory Cauchy data sum_mu h_mu(x) e^{i psi_mu(x)/eps} on a grid."""
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    shape = tuple(ax.size for ax in axes)
    total = _initial_values(_initial_terms(initial, grid_points(axes)), eps)
    return FieldGrid(axes=axes, values=total.reshape(shape + (total.shape[-1],)),
                     eps=eps, t=0.0)


def _grid_rows(axes, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of ``grid_points(axes)``, formed from the axes alone."""
    idx = np.unravel_index(rows, tuple(ax.size for ax in axes))
    return np.stack([ax[i] for ax, i in zip(axes, idx)], axis=-1)


def _box_values(beam, axes) -> _TubeValues:
    """The beam's ``_TubeValues`` at t = 0 on the grid, rows being grid rows,
    evaluated in chunks of ``GRID_BLOCK_ROWS`` rows only at the rows in its
    tube box (``RayBundle.tube_box``) at the nodes bracketing t = 0."""
    k0, k1, _ = beam.bundle.locate_time(0.0)
    lo, hi, _ = zip(*(beam.bundle.tube_box(k) for k in {k0, k1}))
    # the box's grid rows from the axes alone, by near_tube's comparisons
    idx = [np.nonzero((ax >= l) & (ax <= h))[0]
           for ax, l, h in zip(axes, np.min(lo, axis=0), np.max(hi, axis=0))]
    box = np.ravel_multi_index(np.ix_(*idx), tuple(ax.size for ax in axes)).ravel()
    rows = [box[c : c + GRID_BLOCK_ROWS] for c in range(0, max(box.size, 1), GRID_BLOCK_ROWS)]
    chunks = [_beam_values([beam], _grid_rows(axes, r), 0.0)[0] for r in rows]
    # the chunks joined: node positions shifted by the rows before them
    offsets = np.cumsum([0] + [c.rows.size for c in chunks[:-1]])
    nodes = []
    for j in range(len(chunks[0].nodes)):
        pos, base, corr, cut = zip(*(c.nodes[j] for c in chunks))
        pos = [p + off for p, off in zip(pos, offsets)]
        nodes.append(tuple(map(np.concatenate, (pos, base, corr, cut))))
    rows = np.concatenate([r[c.rows] for c, r in zip(chunks, rows)])
    return _TubeValues(rows, np.concatenate([c.phi for c in chunks]), chunks[0].w, tuple(nodes))


class InitialGrid:
    """The beams and the exact initial data on one grid at t = 0, eps-free.

    Each beam is evaluated only at the grid rows in its tube box, the tube
    rows are the union of the beams' rows inside their tubes, and every
    other row is an outside row, where v = 0.  The initial data are taken
    in blocks of ``GRID_BLOCK_ROWS`` rows, whose points are formed from the
    axes, so no array spans the grid's points.  The grid keeps only
    eps-free parts: at the tube rows each beam's values and the initial
    data's amplitudes h_mu and phases psi_mu; per tile of ``TILE`` grid
    rows and term, the largest row norm |h_mu| and the smallest Im psi_mu
    over the tile's outside rows (NaN propagates; 0 and +inf without
    one), the parts of the bound |h| <= sum_mu max|h_mu| e^{-min Im psi_mu/eps}.
    Each eps only combines them.  ``field``, ``data`` and ``mismatch``
    equal ``assemble_field(beams, eps, axes, 0.0)``, ``eval_initial_data``
    and ``initial_mismatch`` bit for bit: every row's values are those of
    a whole-grid evaluation.
    """

    def __init__(self, initial: InitialData, beams, axes):
        self.initial = initial
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        n = int(np.prod([ax.size for ax in self.axes]))
        self.shape = (n, beams[0].spec.N)
        self.values = [_box_values(beam, self.axes) for beam in beams]
        n_terms = len(initial.components)
        self._tile_norm = np.zeros((n_terms, -(-n // TILE)))
        self._tile_im = np.full_like(self._tile_norm, np.inf)
        tube, terms = [], []
        for r0 in range(0, n, GRID_BLOCK_ROWS):
            r1 = min(r0 + GRID_BLOCK_ROWS, n)
            in_tube = np.zeros(r1 - r0, dtype=bool)
            for beam in self.values:
                lo, hi = np.searchsorted(beam.rows, (r0, r1))
                in_tube[beam.rows[lo:hi] - r0] = True
            inner = np.nonzero(in_tube)[0]
            tube.append(inner + r0)
            h = _initial_terms(initial, _grid_rows(self.axes, np.arange(r0, r1)))
            terms.append([(amp[inner], psi[inner]) for amp, psi in h])
            # the block's pieces of tiles, and the tiles they belong to
            starts = np.r_[0, np.arange((r0 // TILE + 1) * TILE, r1, TILE) - r0]
            tiles = (r0 + starts) // TILE
            for mu, (amp, psi) in enumerate(h):
                norm = np.where(in_tube, 0.0, row_norm(amp))
                np.maximum.at(self._tile_norm[mu], tiles, np.maximum.reduceat(norm, starts))
                im = np.where(in_tube, np.inf, psi.imag)
                np.minimum.at(self._tile_im[mu], tiles, np.minimum.reduceat(im, starts))
        self._tube = np.concatenate(tube)
        self._at = [np.searchsorted(self._tube, beam.rows) for beam in self.values]
        # per term, (h_mu, psi_mu) at the tube rows: each block's parts joined
        self._tube_terms = [tuple(map(np.concatenate, zip(*parts))) for parts in zip(*terms)]

    def field(self, eps: float) -> FieldGrid:
        """The beam superposition v^eps(0) on the whole grid."""
        total = np.zeros(self.shape, dtype=complex)
        _superpose(self.values, eps, 0.0, total)
        shape = tuple(ax.size for ax in self.axes) + self.shape[1:]
        return FieldGrid(axes=self.axes, values=total.reshape(shape), eps=eps, t=0.0)

    def data(self, eps: float) -> FieldGrid:
        """The exact Cauchy data h^eps on the whole grid."""
        return eval_initial_data(self.initial, eps, self.axes)

    def _data_at(self, rows: np.ndarray, eps: float) -> np.ndarray:
        """h^eps at the grid rows ``rows``, (len, N), from the initial data
        evaluated at their points."""
        return _initial_values(_initial_terms(self.initial, _grid_rows(self.axes, rows)), eps)

    def mismatch(self, eps: float) -> float:
        """Sup-norm of h^eps - v^eps(0) over the grid.

        At the tube rows it is |v - h| as ``assemble_field`` and
        ``eval_initial_data`` give them.  At the outside rows v = 0, and
        the bound, one real exponential per tile, selects the tiles where it
        reaches the tube rows' maximum less ``BOUND_SLACK`` relative, or is
        not finite: only at their outside rows is |h| computed exactly, from
        the initial data evaluated at those rows' points.  Elsewhere |h| is
        at most each row's own bound, at most the tile's, below that
        maximum, so the result is the maximum of the same values as on the
        whole grid, with the same floating-point warnings.
        """
        diff = _initial_values(self._tube_terms, eps)
        if diff.shape[1:] != self.shape[1:]:
            raise GridMismatchError("initial data and field grids differ")
        # v - h in place: rounding is symmetric in sign, so |v - h| = |h - v|
        np.negative(diff, out=diff)
        _superpose(self.values, eps, 0.0, diff, self._at)
        worst = np.max(row_norm(diff), initial=0.0)
        # per tile, sum_mu max|h_mu| e^{-min Im psi_mu/eps}: the terms and
        # their sum in the order of a plain sum
        bound = None
        with np.errstate(all="ignore"):
            for norm, im in zip(self._tile_norm, self._tile_im):
                term = np.divide(im, -eps)
                np.exp(term, out=term)
                term *= norm
                bound = term if bound is None else np.add(bound, term, out=bound)
        # a NaN bound fails the comparison and is computed too
        tiles = np.nonzero(~(bound < worst * (1.0 - BOUND_SLACK)))[0]
        if tiles.size:
            rows = (tiles[:, None] * TILE + np.arange(TILE)).ravel()
            rows = rows[rows < self.shape[0]]
            rows = rows[~np.isin(rows, self._tube)]
            worst = np.max(row_norm(self._data_at(rows, eps)), initial=worst)
        return float(worst)


def initial_mismatch(initial: InitialData, beams, eps_list, axes) -> list[float]:
    """Sup-norm of h^eps - v^eps(0) over the grid, one value per eps."""
    grid = InitialGrid(initial, beams, axes)
    return [grid.mismatch(eps) for eps in eps_list]


def write_csv(path, header, table) -> None:
    """A header line, then one line per row of the real table (rows, columns),
    each value formatted "%.17g" and comma separated."""
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def write_field_csv(grid: FieldGrid, path) -> None:
    """CSV rows: grid coordinates, then Re/Im per field component."""
    pts = grid.points
    vals = grid.values.reshape(pts.shape[0], -1)
    header = [f"x{j}" for j in range(pts.shape[1])]
    for c in range(vals.shape[1]):
        header += [f"re_u{c}", f"im_u{c}"]
    re_im = np.stack([vals.real, vals.imag], axis=-1).reshape(pts.shape[0], -1)
    write_csv(path, header, np.concatenate([pts, re_im], axis=1))


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
