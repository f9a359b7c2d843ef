"""End-to-end construction of one beam: rays, frames, phase, amplitudes, corrector."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .amplitudes import ExtensionField, TransportResult, corrector_path, solve_transport
from .extension import SeparationBound, mode_separation
from .fields import Cutoff
from .phase import PhaseJet, build_phase_jet, eval_phase_at_node
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

        Returns (g, phase_values) with g = cutoff * (a0 + eps * a1); points
        outside the tube get g = 0 and inside = False.
        """
        bundle, jet = self.bundle, self.jet
        X = np.atleast_2d(np.asarray(X, dtype=float))
        pv = eval_phase_at_node(jet, bundle, k, X)
        r_eval = np.clip(pv.r, bundle.r[0], bundle.r[-1]) if bundle.d1 else pv.r
        a = bundle.interp_over_r(k, self.transport.a[k], r_eval)
        lin = bundle.interp_over_r(k, self.ext.lin_a[k], r_eval)
        quad = bundle.interp_over_r(k, self.ext.quad_a[k], r_eval)
        s = pv.s
        g = (
            a
            + np.einsum("mi,mia->ma", s, lin)
            + 0.5 * np.einsum("mi,mj,mija->ma", s, s, quad)
        )
        g = g + eps * bundle.interp_over_r(k, self.corrector[k], r_eval)
        g = g * self.cutoff(np.linalg.norm(s, axis=-1))[:, None]
        g = np.where(pv.inside[:, None], g, 0.0)
        return g, pv


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
