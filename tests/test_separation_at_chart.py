"""Mode separation sampled at known chart points, against the inverting oracle.

``mode_separation`` evaluates the phase at the chart coordinates (r_i, s) its
samples are made from.  The oracle below is the earlier loop: one
``eval_phase`` per (time node, ray), which inverts the chart at each sample
again.  The inverted (r, s) differ from the exact ones within the Newton
tolerance, so the bounds agree to 1e-10 relative, and the radii, hence the
shrink counts, exactly.
"""

import math

import numpy as np
import pytest

from cgoptics import extension
from cgoptics.extension import (
    ComplexCovector,
    SeparationBound,
    extended_modes,
    mode_separation,
)
from cgoptics.numerics import grid_points
from cgoptics.phase import build_phase_jet, eval_phase
from cgoptics.rays import WaveComponent, evolve_frame, flow_out
from cgoptics.systems import ClusterTemplate, builtin_system

from test_l0_chain_rule import _curved_line_component
from test_rays import acoustics_line_component, wave2x2_component


def _mode_separation_oracle(spec, bundle, jet, l, s_radius=None, n_s=7,
                            t_stride=50, shrink=0.7, max_shrink=8):
    if s_radius is None:
        s_radius = bundle.chart_radius
    template = ClusterTemplate(spec, bundle.t[0], bundle.x[0, 0], bundle.xi[0, 0])
    pending = [m for m in range(template.n_modes) if m != l]
    out = {}
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
    raise AssertionError("the oracle found no positive bound")


def _acoustics_point_component():
    # psi = x1 + i |x|^2 / 2 at the origin, polarized in the +1 mode
    vplus = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)

    def psi(x):
        x = np.asarray(x)
        return x[..., 0] + 0.5j * np.sum(x * x, axis=-1)

    def dpsi(x):
        x = np.asarray(x)
        return np.array([1.0, 0.0]) + 1j * x

    def d2psi(x):
        x = np.asarray(x)
        return np.broadcast_to(1j * np.eye(2), x.shape[:-1] + (2, 2))

    def amplitude(x):
        x = np.asarray(x)
        return np.broadcast_to(vplus.astype(complex), x.shape[:-1] + (3,))

    return WaveComponent(
        mode=2, points=np.zeros((1, 2)), psi=psi, dpsi=dpsi, d2psi=d2psi,
        amplitude=amplitude, label="acoustics-point",
    )


def _beam(system, comp, T, chart_radius):
    spec = builtin_system(system)
    bundle = flow_out(spec, comp, T=T, dt=2e-3)
    evolve_frame(bundle)
    bundle.chart_radius = chart_radius
    return spec, bundle, build_phase_jet(spec, comp.mode, bundle, comp), comp.mode


# On the straight line the phase jet does not vary along r; on the curved
# line xi turns along r, so a wrong r moves the bounds.
BEAMS = {
    "acoustics3_line": lambda: _beam("acoustics3", acoustics_line_component(), 1.0, 0.4),
    "acoustics3_curved_line": lambda: _beam("acoustics3", _curved_line_component(), 0.25, 0.2),
    "acoustics3_point": lambda: _beam("acoustics3", _acoustics_point_component(), 1.0, 0.5),
    "wave2x2_point": lambda: _beam("wave2x2", wave2x2_component(mode=1), 0.5, 3.0),
}


@pytest.fixture(scope="module", params=sorted(BEAMS))
def beam(request):
    return BEAMS[request.param]()


def _shrinks(bounds, s_radius, shrink):
    return {l: round(math.log(b.s_radius / s_radius) / math.log(shrink))
            for l, b in bounds.items()}


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t_stride=100),
        dict(s_radius=0.1, t_stride=100),
        # no sample of the first pass lies in the tube: n_s = 6 leaves out
        # s = 0, and at 6 chart radii the shortest offset, 0.2 of the
        # radius along an axis, is 1.2 chart radii long
        dict(s_radius_factor=6.0, n_s=6, t_stride=100),
    ],
    ids=["chart_radius", "small", "forced_shrink"],
)
def test_separation_matches_inverting_oracle(beam, kwargs):
    spec, bundle, jet, l = beam
    kwargs = dict(kwargs)
    if "s_radius_factor" in kwargs:
        kwargs["s_radius"] = kwargs.pop("s_radius_factor") * bundle.chart_radius
    got = mode_separation(spec, bundle, jet, l, **kwargs)
    want = _mode_separation_oracle(spec, bundle, jet, l, **kwargs)
    assert set(got) == set(want) and got
    for lc, b in want.items():
        assert got[lc].bound == pytest.approx(b.bound, rel=1e-10, abs=0.0)
        assert got[lc].s_radius == b.s_radius
    s_radius = kwargs.get("s_radius", bundle.chart_radius)
    shrinks = _shrinks(got, s_radius, 0.7)
    assert shrinks == _shrinks(want, s_radius, 0.7)
    if "n_s" in kwargs:
        assert min(shrinks.values()) >= 1


def test_single_mode_returns_empty_without_evaluating(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a single-mode system evaluated a sample")

    monkeypatch.setattr(extension, "eval_phase_at_offsets", fail)
    monkeypatch.setattr(extension, "extended_modes", fail)
    spec = builtin_system("variable_advection")
    comp = WaveComponent(
        mode=0, points=np.zeros((1, 1)),
        psi=lambda x: np.asarray(x)[..., 0] + 0.5j * np.asarray(x)[..., 0] ** 2,
        dpsi=lambda x: (1.0 + 1j * np.asarray(x)[..., 0])[..., None],
        d2psi=lambda x: np.broadcast_to(1j * np.eye(1), np.shape(x)[:-1] + (1, 1)),
        amplitude=lambda x: np.ones(np.shape(x)[:-1] + (1,), dtype=complex),
    )
    bundle = flow_out(spec, comp, T=0.1, dt=1e-2)
    assert mode_separation(spec, bundle, None, 0) == {}
