"""End-to-end construction of one beam: rays, frames, phase, amplitudes, corrector."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .amplitudes import ExtensionField, TransportResult, corrector_path, solve_transport
from .extension import SeparationBound, mode_separation
from .fields import Cutoff
from .numerics import row_norm
from .phase import PhaseJet, build_phase_jet, phase_at_chart
from .rays import RayBundle, WaveComponent, evolve_frame, flow_out
from .systems import SystemSpec

SEPARATION_T_STRIDE = 100   # mode separation samples every 100th time node
CUTOFF_SCALE = 0.9          # cutoff radius over min(chart_radius, separation radii)


@dataclass(frozen=True)
class BeamParams:
    """Numerical parameters of the beam construction."""

    dt: float
    chart_radius: float
    ext_stride: int | None = None
    corrector_stride: int | None = None


@dataclass
class BeamSolution:
    """One assembled beam: geometry, phase jet, transported amplitudes, cutoff."""

    spec: SystemSpec
    component: WaveComponent
    bundle: RayBundle
    jet: PhaseJet
    transport: TransportResult
    corrector: np.ndarray                  # (n_t, n_r, N)
    ext: ExtensionField
    cutoff: Cutoff
    separation: dict[int, SeparationBound]
    diagnostics: dict = field(default_factory=dict)

    @property
    def mode(self) -> int:
        return self.component.mode

    def evaluate(self, k: int, X: np.ndarray) -> BeamValues:
        """Eps-free values of the beam at stacked points, node k.

        Only the points ``RayBundle.near_tube`` keeps are charted; they get
        the phase alone (``phase_at_chart``, at r clamped to the ray range),
        no phase gradient.  Only the points inside the tube get amplitudes.
        ``BeamValues.g(eps)`` combines the prefactor for one eps; points
        outside the tube get g = 0 and inside = False.  Where the bound
        keeps no point, the values are empty and nothing is charted.
        """
        bundle = self.bundle
        X = np.atleast_2d(np.asarray(X, dtype=float))
        near = bundle.near_tube(k, X)
        if not near.any():
            none, n = np.zeros(0, dtype=np.intp), self.spec.N
            return BeamValues(
                m=X.shape[0],
                near=none,
                phi=np.zeros(0, dtype=self.jet.curvature.dtype),
                r=np.zeros(0),
                s=np.zeros((0, bundle.d2)),
                inside=np.zeros(0, dtype=bool),
                idx=none,
                base=np.zeros((0, n), dtype=self.transport.a.dtype),
                corr=np.zeros((0, n), dtype=self.corrector.dtype),
                cut=np.zeros(0),
            )
        near = slice(None) if near.all() else np.nonzero(near)[0]
        r, s, inside = bundle.invert(k, X[near])
        # points outside the tube keep inside = False but get the jet's
        # values at the clamped r
        r_eval = np.clip(r, bundle.r[0], bundle.r[-1]) if bundle.d1 else r
        phi = phase_at_chart(self.jet, bundle, k, r_eval, s)
        inner = np.nonzero(inside)[0]
        r_in, s_in = r_eval[inner], s[inner]
        a, lin, quad, corr = bundle.r_values(
            r_in, self.transport.a[k], self.ext.lin_a[k], self.ext.quad_a[k], self.corrector[k]
        )
        base = (
            a
            + np.einsum("mi,mia->ma", s_in, lin)
            + 0.5 * np.einsum("mi,mj,mija->ma", s_in, s_in, quad)
        )
        return BeamValues(
            m=X.shape[0],
            near=near,
            phi=phi,
            r=r,
            s=s,
            inside=inside,
            idx=np.arange(X.shape[0])[near][inner],
            base=base,
            corr=corr,
            cut=self.cutoff(row_norm(s_in)),
        )


@dataclass(frozen=True)
class BeamValues:
    """Eps-free values of one beam at m stacked points, one time node.

    The phase values are held at the points the tube bound kept (``near``,
    positions among the m points, all of them charted): the phase ``phi``
    (the jet's value at r clamped to the ray range), the chart coordinates
    ``r`` (unclamped) and ``s``, and ``inside``.  The prefactor parts are
    held at the charted points inside the tube (``idx``):
    ``base = a0 + s.lin + 1/2 s s quad`` (the extended amplitude), ``corr``
    (the corrector a1) and ``cut`` (the cutoff at |s|).
    """

    m: int
    near: np.ndarray | slice
    phi: np.ndarray
    r: np.ndarray
    s: np.ndarray
    inside: np.ndarray
    idx: np.ndarray
    base: np.ndarray
    corr: np.ndarray
    cut: np.ndarray

    def g(self, eps: float) -> np.ndarray:
        """Prefactor cutoff * (a0 + eps * a1) at the m points, zero outside
        the tube."""
        return _scatter(self.idx, self.m, (self.base + eps * self.corr) * self.cut[:, None])

    def phi_at(self, rows: np.ndarray) -> np.ndarray:
        """The phase at ``rows``, sorted positions among the m points; a
        point the tube bound rejected reads zero, as in ``full("phi")``."""
        if isinstance(self.near, slice):
            return self.phi[rows]
        pos = np.searchsorted(self.near, rows)
        kept = pos < self.near.size
        kept[kept] = self.near[pos[kept]] == rows[kept]
        return _scatter(np.nonzero(kept)[0], rows.size, self.phi[pos[kept]])

    def full(self, name: str) -> np.ndarray:
        """Field ``name`` (phi, r, s or inside) at the m points.

        Points the tube bound rejected read zero (inside = False); charted
        points outside the tube keep the jet's values at clamped r.
        """
        return _scatter(self.near, self.m, getattr(self, name))


def _scatter(idx, m: int, values: np.ndarray) -> np.ndarray:
    """Rows ``values`` at positions ``idx`` of m zero rows."""
    out = np.zeros((m,) + values.shape[1:], dtype=values.dtype)
    out[idx] = values
    return out


def build_beam(spec: SystemSpec, comp: WaveComponent, params: BeamParams) -> BeamSolution:
    """Run the full single-component pipeline."""
    bundle = flow_out(spec, comp, T=spec.domain.final_time, dt=params.dt)
    evolve_frame(bundle)
    bundle.chart_radius = params.chart_radius
    jet = build_phase_jet(spec, comp.mode, bundle, comp)

    separation = mode_separation(
        spec, bundle, jet, comp.mode,
        s_radius=params.chart_radius, t_stride=SEPARATION_T_STRIDE,
    )
    s_limits = [params.chart_radius] + [b.s_radius for b in separation.values()]
    cutoff = Cutoff(radius=CUTOFF_SCALE * min(s_limits))

    a0 = np.asarray(comp.amplitude(comp.points), dtype=complex)
    transport = solve_transport(spec, comp.mode, bundle, jet, a0)
    ext = ExtensionField(
        spec, comp.mode, bundle, jet, transport.a, stride=params.ext_stride
    )
    min_sep = min((b.bound for b in separation.values()), default=None)
    a1 = corrector_path(
        spec, comp.mode, bundle, jet, ext,
        stride=params.corrector_stride, min_separation=min_sep,
    )
    diagnostics = {
        "frame_drift": bundle.frame_drift,
        "riccati_min_imag": jet.riccati_min_imag,
        "polarization_residual": transport.pol_residual_max,
        "transport_step_drift": transport.step_drift_max,
        "cutoff_radius": cutoff.radius,
        "separation": {l: b.bound for l, b in separation.items()},
    }
    return BeamSolution(
        spec=spec,
        component=comp,
        bundle=bundle,
        jet=jet,
        transport=transport,
        corrector=a1,
        ext=ext,
        cutoff=cutoff,
        separation=separation,
        diagnostics=diagnostics,
    )
