"""End-to-end construction of one beam: rays, frames, phase, amplitudes, corrector."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .amplitudes import ExtensionField, TransportResult, corrector_path, solve_transport
from .extension import SeparationBound, mode_separation
from .fields import Cutoff
from .phase import PhaseJet, PhaseValues, build_phase_jet, eval_phase_at_node
from .rays import RayBundle, WaveComponent, evolve_frame, flow_out
from .systems import SystemSpec


@dataclass(frozen=True)
class BeamParams:
    """Numerical parameters of the beam construction."""

    dt: float
    chart_radius: float
    cutoff_scale: float = 0.9
    plateau: bool = True
    ext_stride: int | None = None
    corrector_stride: int | None = None
    embed_factor: float = 0.25
    separation_t_stride: int = 100


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

    def evaluate(
        self,
        k: int,
        X: np.ndarray,
        eps: float,
    ):
        """Smooth prefactor and phase of the beam at stacked points, node k.

        Returns (g, phase_values) with g = cutoff * (a0 + eps * a1).  Only
        the points ``RayBundle.near_tube`` keeps are charted, and only the
        points inside the tube get amplitudes.  Points outside the tube get
        g = 0 and inside = False; their phase values are zero where the
        bound rejected them and the jet at clamped r elsewhere.
        """
        bundle = self.bundle
        X = np.atleast_2d(np.asarray(X, dtype=float))
        m = X.shape[0]
        near = bundle.near_tube(k, X)
        if near.all():
            pv = eval_phase_at_node(self.jet, bundle, k, X)
        else:
            near = np.nonzero(near)[0]
            pn = eval_phase_at_node(self.jet, bundle, k, X[near])
            pv = PhaseValues(**{
                f.name: _scatter(near, m, getattr(pn, f.name)) for f in fields(PhaseValues)
            })
        idx = np.nonzero(pv.inside)[0]
        r, s = pv.r[idx], pv.s[idx]
        if bundle.d1:
            r = np.clip(r, bundle.r[0], bundle.r[-1])
        a = bundle.interp_over_r(k, self.transport.a[k], r)
        lin = bundle.interp_over_r(k, self.ext.lin_a[k], r)
        quad = bundle.interp_over_r(k, self.ext.quad_a[k], r)
        g = (
            a
            + np.einsum("mi,mia->ma", s, lin)
            + 0.5 * np.einsum("mi,mj,mija->ma", s, s, quad)
        )
        g = g + eps * bundle.interp_over_r(k, self.corrector[k], r)
        g = g * self.cutoff(np.linalg.norm(s, axis=-1))[:, None]
        return _scatter(idx, m, g), pv


def _scatter(idx: np.ndarray, m: int, values: np.ndarray) -> np.ndarray:
    """Rows ``values`` at positions ``idx`` of m zero rows."""
    out = np.zeros((m,) + values.shape[1:], dtype=values.dtype)
    out[idx] = values
    return out


def build_beam(spec: SystemSpec, comp: WaveComponent, params: BeamParams) -> BeamSolution:
    """Run the full single-component pipeline."""
    bundle = flow_out(
        spec, comp, T=spec.domain.final_time, dt=params.dt,
        embed_factor=params.embed_factor,
    )
    evolve_frame(bundle)
    bundle.chart_radius = params.chart_radius
    jet = build_phase_jet(spec, comp.mode, bundle, comp)

    separation = mode_separation(
        spec, bundle, jet, comp.mode,
        s_radius=params.chart_radius, t_stride=params.separation_t_stride,
    )
    s_limits = [params.chart_radius] + [b.s_radius for b in separation.values()]
    cutoff = Cutoff(
        radius=params.cutoff_scale * min(s_limits), plateau=params.plateau
    )

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
