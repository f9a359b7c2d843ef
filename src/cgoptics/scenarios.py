"""Bundled scenarios and the structured scenario configuration format.

A scenario configuration is a plain nested mapping (JSON on disk): the
system (builtin name or custom coefficient tables), one entry per wave
component (polynomial phase jet data plus a constant polarization vector
with an optional Gaussian envelope), numerical parameters, and the
acceptance thresholds checked by the sweep driver.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .beams import BeamParams, build_beam
from .errors import ConfigError
from .rays import InitialData, WaveComponent
from .systems import SystemSpec, _reject_unknown, load_system

SQRT1_2 = 1.0 / np.sqrt(2.0)


# the acceptance thresholds a scenario may set, each read by cli._apply_thresholds
THRESHOLDS = ("residual_max", "mismatch_max", "stderr_max", "residual_slope_min",
              "mismatch_slope_min", "l2_slope_min", "l2_factor", "polarization_max",
              "riccati_min_imag_min")
# the fields a component reads; r_range and n_r only with a tangent
_COMPONENT_KEYS = ("mode", "origin", "phase", "amplitude", "label", "tangent", "r_range", "n_r")


def _is_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and bool(np.isfinite(value))
    )


def _is_positive_number(value) -> bool:
    return _is_number(value) and value > 0


@dataclass
class ScenarioConfig:
    """Declarative description of one run: system, components, numerics."""

    name: str
    system: dict
    components: list
    eps_list: list
    chart_radius: float
    dt: float | None = None
    ext_stride: int | None = None
    corrector_stride: int | None = None
    thresholds: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"scenario config must be a mapping, got {data!r}")
        _reject_unknown(data, [f.name for f in dataclasses.fields(cls)], "scenario fields")
        for required in ("name", "system", "components", "eps_list", "chart_radius"):
            if required not in data:
                raise ConfigError(f"scenario config is missing required field {required!r}")
        eps_list = data["eps_list"]
        if (
            not isinstance(eps_list, list)
            or not eps_list
            or not all(_is_positive_number(v) for v in eps_list)
        ):
            raise ConfigError(
                f"scenario field 'eps_list' must be a non-empty list of positive "
                f"numbers, got {eps_list!r}"
            )
        components = data["components"]
        if not isinstance(components, list) or not all(isinstance(c, dict) for c in components):
            raise ConfigError(
                f"scenario field 'components' must be a list of mappings, got {components!r}"
            )
        if not _is_positive_number(data["chart_radius"]):
            raise ConfigError(
                f"scenario field 'chart_radius' must be a positive number, "
                f"got {data['chart_radius']!r}"
            )
        dt = data.get("dt")
        if dt is not None and not _is_positive_number(dt):
            raise ConfigError(f"scenario field 'dt' must be a positive number or null, got {dt!r}")
        for key in ("ext_stride", "corrector_stride"):
            stride = data.get(key)
            if stride is not None and not (
                isinstance(stride, int) and not isinstance(stride, bool) and stride > 0
            ):
                raise ConfigError(
                    f"scenario field {key!r} must be a positive int or null, got {stride!r}"
                )
        thresholds = data.get("thresholds", {})
        if not isinstance(thresholds, dict) or not all(
            _is_number(v) for v in thresholds.values()
        ):
            raise ConfigError(
                f"scenario field 'thresholds' must map names to numbers, got {thresholds!r}"
            )
        _reject_unknown(thresholds, THRESHOLDS, "thresholds")
        return cls(**data)

    @classmethod
    def load_json(cls, path) -> "ScenarioConfig":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: a scenario config must be a JSON object, got {data!r}")
        if "scenario" in data:
            ignored = sorted(set(data) - {"scenario", "overrides"})
            if ignored:
                raise ConfigError(
                    f"{path}: the short form takes only 'scenario' and "
                    f"'overrides'; move {ignored} into 'overrides'"
                )
            name, overrides = data["scenario"], data.get("overrides", {})
            if not isinstance(name, str):
                raise ConfigError(
                    f"{path}: 'scenario' must be a bundled scenario name, got {name!r}"
                )
            if not isinstance(overrides, dict):
                raise ConfigError(f"{path}: 'overrides' must be a mapping, got {overrides!r}")
            base = bundled_scenario(name).to_dict()
            base.update(overrides)
            return cls.from_dict(base)
        return cls.from_dict(data)


def _numbers(value, shape, name: str) -> np.ndarray:
    """A component field as a finite float array of ``shape``."""
    try:
        arr = np.asarray(value, dtype=float).reshape(shape)
    except (TypeError, ValueError):
        arr = None
    if arr is None or not np.all(np.isfinite(arr)):
        what = "a number" if shape == () else f"finite numbers of shape {shape}"
        raise ConfigError(f"component field {name!r} must be {what}, got {value!r}")
    return arr


def _mapping(owner: dict, key: str) -> dict:
    value = owner.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"component field {key!r} must be a mapping, got {value!r}")
    return value


def _component_from_config(cfg: dict, d: int, n: int) -> WaveComponent:
    """One wave component of a system with d space axes and n unknowns from
    its config mapping; a missing or malformed field is a ConfigError naming
    it."""
    line = "tangent" in cfg
    _reject_unknown(cfg, _COMPONENT_KEYS if line else _COMPONENT_KEYS[:-3], "component fields")
    for key in ("mode", "origin", "phase") + (("r_range", "n_r") if line else ()):
        if key not in cfg:
            raise ConfigError(f"component config is missing field {key!r}")
    mode = cfg["mode"]
    if not (isinstance(mode, int) and not isinstance(mode, bool) and mode >= 0):
        raise ConfigError(f"component field 'mode' must be an int >= 0, got {mode!r}")
    origin = _numbers(cfg["origin"], (d,), "origin")
    phase = _mapping(cfg, "phase")
    _reject_unknown(phase, ("grad", "hess_re", "hess_im", "cubic", "constant"), "phase fields")
    if "grad" not in phase:
        raise ConfigError("component config is missing field 'grad'")
    grad = _numbers(phase["grad"], (d,), "phase.grad")
    if line:
        tangent = _numbers(cfg["tangent"], (d,), "tangent")
        lo, hi = _numbers(cfg["r_range"], (2,), "r_range")
        if not lo < hi:
            raise ConfigError(
                f"component field 'r_range' must be increasing, got {cfg['r_range']!r}"
            )
        n_r = cfg["n_r"]
        if not (isinstance(n_r, int) and not isinstance(n_r, bool) and n_r >= 5):
            raise ConfigError(f"component field 'n_r' must be an int >= 5, got {n_r!r}")
    zeros = np.zeros((d, d))
    hess = _numbers(phase.get("hess_re", zeros), (d, d), "phase.hess_re")
    hess = hess + 1j * _numbers(phase.get("hess_im", zeros), (d, d), "phase.hess_im")
    cubic = _numbers(phase.get("cubic", np.zeros(d)), (d,), "phase.cubic")
    const = float(_numbers(phase.get("constant", 0.0), (), "phase.constant"))

    amp_cfg = _mapping(cfg, "amplitude")
    _reject_unknown(amp_cfg, ("re", "im", "envelope_width", "envelope_axis"), "amplitude fields")
    vec = _numbers(amp_cfg.get("re", [1.0]), (n,), "amplitude.re").astype(complex)
    if "im" in amp_cfg:
        vec = vec + 1j * _numbers(amp_cfg["im"], vec.shape, "amplitude.im")
    width = amp_cfg.get("envelope_width")
    if width is not None and not _is_positive_number(width):
        raise ConfigError(
            f"component field 'amplitude.envelope_width' must be a positive number "
            f"or null, got {width!r}"
        )
    env_axis = amp_cfg.get("envelope_axis")
    if env_axis is not None and env_axis not in range(d):
        raise ConfigError(
            f"component field 'amplitude.envelope_axis' must be an axis index "
            f"below {d} or null, got {env_axis!r}"
        )

    def psi(x):
        dx = np.asarray(x, dtype=float) - origin
        quad = 0.5 * np.einsum("...i,ij,...j->...", dx, hess, dx)
        out = const + dx @ grad + quad
        if np.any(cubic):
            # on a large grid dx**3 dominates the call; most phases have no cubic term
            out = out + np.einsum("j,...j->...", cubic, dx**3)
        return out

    def dpsi(x):
        dx = np.asarray(x, dtype=float) - origin
        return grad + np.einsum("ij,...j->...i", hess, dx) + 3.0 * cubic * dx**2

    def d2psi(x):
        dx = np.asarray(x, dtype=float) - origin
        out = np.broadcast_to(hess, dx.shape[:-1] + (d, d)).copy()
        diag = 6.0 * cubic * dx
        idx = np.arange(d)
        out[..., idx, idx] += diag
        return out

    def amplitude(x):
        x = np.asarray(x, dtype=float)
        base = np.broadcast_to(vec, x.shape[:-1] + (vec.size,)).copy()
        if width is not None:
            dx = x - origin
            if env_axis is None:
                arg = np.sum(dx * dx, axis=-1)
            else:
                arg = dx[..., int(env_axis)] ** 2
            base = base * np.exp(-arg / (2.0 * width * width))[..., None]
        return base

    if line:
        r = np.linspace(lo, hi, n_r)
        points = origin[None, :] + r[:, None] * tangent[None, :]
    else:
        r = None
        points = origin[None, :]
    return WaveComponent(
        mode=mode, points=points, r=r, psi=psi, dpsi=dpsi, d2psi=d2psi,
        amplitude=amplitude, label=cfg.get("label", "component"),
    )


def scenario_system(cfg: ScenarioConfig) -> SystemSpec:
    return load_system(cfg.system)


def scenario_initial_data(cfg: ScenarioConfig, spec: SystemSpec) -> InitialData:
    comps = tuple(_component_from_config(c, spec.d, spec.N) for c in cfg.components)
    if not comps:
        raise ConfigError("scenario has no wave components")
    return InitialData(components=comps)


def scenario_beam_params(cfg: ScenarioConfig, spec: SystemSpec) -> BeamParams:
    dt = cfg.dt if cfg.dt is not None else spec.domain.final_time / 2000.0
    return BeamParams(
        dt=dt,
        chart_radius=cfg.chart_radius,
        ext_stride=cfg.ext_stride,
        corrector_stride=cfg.corrector_stride,
    )


def build_scenario_beams(cfg: ScenarioConfig):
    """Build (spec, initial data, beams) for a scenario."""
    spec = scenario_system(cfg)
    initial = scenario_initial_data(cfg, spec)
    params = scenario_beam_params(cfg, spec)
    beams = [build_beam(spec, comp, params) for comp in initial.components]
    return spec, initial, beams


# ---------------------------------------------------------------------------
# bundled scenario library
# ---------------------------------------------------------------------------

EPS_DEFAULT = [0.1, 0.05, 0.025, 0.0125]


def _advection_exact() -> ScenarioConfig:
    return ScenarioConfig(
        name="advection_exact",
        system={"name": "advection", "radius": 5.0, "final_time": 0.5, "speed": 1.0},
        components=[
            {
                "mode": 0,
                "origin": [0.0],
                "phase": {"grad": [1.0], "hess_im": [[1.0]]},
                "amplitude": {"re": [1.0]},
                "label": "gaussian-pulse",
            }
        ],
        eps_list=list(EPS_DEFAULT),
        chart_radius=3.8,
        thresholds={"residual_max": 1e-8, "l2_factor": 2.0},
    )


def _advection_cubic_phase() -> ScenarioConfig:
    cfg = _advection_exact()
    cfg.name = "advection_cubic_phase"
    cfg.components[0]["phase"]["cubic"] = [0.2]
    cfg.thresholds = {"mismatch_slope_min": 0.45, "stderr_max": 0.1}
    return cfg


def _wave2x2_beam() -> ScenarioConfig:
    return ScenarioConfig(
        name="wave2x2_beam",
        system={"name": "wave2x2", "radius": 5.0, "final_time": 0.5, "speed": 1.0},
        components=[
            {
                "mode": 1,
                "origin": [0.0],
                "phase": {"grad": [1.0], "hess_im": [[1.0]]},
                "amplitude": {"re": [SQRT1_2, SQRT1_2]},
                "label": "right-mover",
            }
        ],
        eps_list=list(EPS_DEFAULT),
        chart_radius=3.8,
        thresholds={"residual_max": 1e-8, "polarization_max": 1e-6},
    )


def _acoustics3_beam() -> ScenarioConfig:
    return ScenarioConfig(
        name="acoustics3_beam",
        system={"name": "acoustics3", "radius": 3.0, "final_time": 1.0, "speed": 1.0},
        components=[
            {
                "mode": 2,
                "origin": [0.0, 0.0],
                "tangent": [1.0, 0.0],
                "r_range": [-0.8, 0.8],
                "n_r": 33,
                "phase": {"grad": [1.0, 0.0], "hess_im": [[0.0, 0.0], [0.0, 1.0]]},
                "amplitude": {
                    "re": [SQRT1_2, SQRT1_2, 0.0],
                    # envelope varies along the manifold only: the amplitude
                    # decays to ~5e-5 at the charted r edge, and its
                    # transverse profile stays flat on the beam-width scale
                    "envelope_width": 0.18,
                    "envelope_axis": 0,
                },
                "label": "acoustic-line-beam",
            }
        ],
        eps_list=list(EPS_DEFAULT),
        chart_radius=0.9,
        thresholds={"riccati_min_imag_min": 0.0, "polarization_max": 1e-6},
    )


def _variable_advection() -> ScenarioConfig:
    return ScenarioConfig(
        name="variable_advection",
        system={
            "name": "variable_advection",
            "radius": 5.5,
            "final_time": 0.5,
            "speed": 1.3,
        },
        components=[
            {
                "mode": 0,
                "origin": [0.0],
                "phase": {"grad": [1.0], "hess_im": [[1.0]]},
                "amplitude": {"re": [1.0]},
                "label": "gaussian-pulse",
            }
        ],
        eps_list=list(EPS_DEFAULT),
        chart_radius=3.5,
        thresholds={
            "residual_slope_min": 0.45,
            "l2_slope_min": 0.45,
            "stderr_max": 0.1,
        },
    )


_BUNDLED = {
    "advection_exact": _advection_exact,
    "advection_cubic_phase": _advection_cubic_phase,
    "wave2x2_beam": _wave2x2_beam,
    "acoustics3_beam": _acoustics3_beam,
    "variable_advection": _variable_advection,
}

BUNDLED_SCENARIOS = tuple(sorted(_BUNDLED))


def bundled_scenario(name: str) -> ScenarioConfig:
    if name not in _BUNDLED:
        raise ConfigError(
            f"unknown scenario {name!r}; bundled: {', '.join(BUNDLED_SCENARIOS)}"
        )
    return _BUNDLED[name]()
