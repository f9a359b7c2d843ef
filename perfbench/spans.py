"""Span tracing of the cgoptics layers, installed from outside the package.

``Tracer.install()`` replaces the public functions of each cgoptics module
(at every module that imported them) and a few methods (on their classes)
with wrappers that record a span: name, start, end and parent.  Spans stay
in memory; ``Tracer.dump`` writes them out.  ``layer_metrics`` turns the
spans and the counters into per-layer figures: inclusive time, self time
(duration minus the time covered by child spans) and work counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name or None for a counter only, counter kind)
# A dotted attribute "Class.method" is patched on the class.  Functions are
# patched in every cgoptics module whose namespace holds the same object.
# Counter kind "calls" counts calls as "<span or module.attribute>_calls".
TARGETS = (
    ("cli", "run_sweep", "cli.run_sweep", None),
    ("scenarios", "build_scenario_beams", "scenarios.build_scenario_beams", None),
    ("beams", "build_beam", "beams.build_beam", None),
    ("beams", "BeamSolution.evaluate", "beams.evaluate", "evaluate"),
    ("rays", "flow_out", "rays.flow_out", "flow_out"),
    ("rays", "evolve_frame", "rays.evolve_frame", None),
    ("rays", "RayBundle.invert", "rays.invert", "invert"),
    ("rays", "RayBundle.interp_over_r", "rays.interp_over_r", "calls"),
    ("phase", "build_phase_jet", "phase.build_phase_jet", None),
    ("phase", "eval_phase_at_node", "phase.eval_phase", "eval_phase_at_node"),
    ("phase", "eval_phase", "phase.eval_phase", None),
    ("systems", "eigen_decompose", "systems.eigen_decompose", "calls"),
    ("systems", "ClusterTemplate.modes", "systems.cluster_modes", "cluster_modes"),
    ("extension", "mode_separation", "extension.mode_separation", "mode_separation"),
    ("extension", "eikonal_defect", None, "calls"),
    ("amplitudes", "solve_transport", "amplitudes.solve_transport", None),
    ("amplitudes", "ExtensionField.__init__", "amplitudes.extension_field", None),
    ("amplitudes", "projector_jet", None, "calls"),
    ("amplitudes", "corrector_path", "amplitudes.corrector_path", None),
    ("amplitudes", "compute_corrector", None, "calls"),
    ("fields", "assemble_field", "fields.assemble_field", "assemble_field"),
    ("fields", "initial_mismatch", "fields.initial_mismatch", None),
    ("verification", "residual_sup", "verification.residual_sup", None),
    ("verification", "l2_error_curve", "verification.l2_error_curve", None),
    ("verification", "reference_solve", "verification.reference_solve", "reference_solve"),
)

ROOT_SPAN = "bench.op"

# Per-layer metric names (besides the "<span>_s" / "<span>_self_s" pairs)
COUNT_METRICS = (
    "beams.evaluate_calls",
    "beams.evaluate_points",
    "rays.ray_nodes",
    "rays.invert_calls",
    "rays.invert_points",
    "rays.interp_over_r_calls",
    "phase.eval_phase_calls",
    "phase.eval_phase_points",
    "systems.eigen_decompose_calls",
    "systems.cluster_modes_calls",
    "systems.cluster_modes_points",
    "extension.eikonal_defect_calls",
    "extension.separation_shrinks",
    "amplitudes.projector_jet_calls",
    "amplitudes.compute_corrector_calls",
    "fields.assemble_field_calls",
    "fields.grid_points",
    "verification.reference_cell_updates",
)


def _rows(X) -> int:
    return int(np.atleast_2d(np.asarray(X)).shape[0])


def _count(kind, label, counts, arguments, out):
    """Work counts taken from a call's bound arguments and result."""
    if kind == "calls":
        counts[f"{label}_calls"] += 1
    elif kind == "evaluate":
        counts["beams.evaluate_calls"] += 1
        counts["beams.evaluate_points"] += _rows(arguments()["X"])
    elif kind == "invert":
        counts["rays.invert_calls"] += 1
        counts["rays.invert_points"] += _rows(arguments()["X"])
        counts["rays.invert_inside"] += int(np.count_nonzero(out[2]))
    elif kind == "flow_out":
        counts["rays.ray_nodes"] += out.n_t * out.n_r
    elif kind == "eval_phase_at_node":
        counts["phase.eval_phase_calls"] += 1
        counts["phase.eval_phase_points"] += _rows(arguments()["X"])
    elif kind == "cluster_modes":
        counts["systems.cluster_modes_calls"] += 1
        xi = np.asarray(arguments()["Xi"])
        counts["systems.cluster_modes_points"] += max(1, xi.size // xi.shape[-1])
    elif kind == "mode_separation":
        a = arguments()
        radius = a["s_radius"] if a["s_radius"] is not None else a["bundle"].chart_radius
        counts["extension.separation_shrinks"] += sum(
            round(math.log(b.s_radius / radius) / math.log(a["shrink"]))
            for b in out.values()
        )
    elif kind == "assemble_field":
        counts["fields.assemble_field_calls"] += 1
        counts["fields.grid_points"] += math.prod(
            np.asarray(ax).size for ax in arguments()["axes"]
        )
    elif kind == "reference_solve":
        counts["verification.reference_cell_updates"] += (
            out.x.size * out.n_steps * out.values[0].shape[-1]
        )
    else:
        raise ValueError(f"unknown counter kind {kind!r}")


class Tracer:
    """In-memory span recorder that patches the cgoptics layers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []    # [name id, start ns, end ns, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str) -> list[int]:
        rec = [self._name_id(name), 0, 0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list[int]) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def op(self, fn, *args):
        """Run one benchmark operation under the root span."""
        rec = self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(rec)

    def _wrap(self, fn, span, counter, label):
        tracer = self
        sig = inspect.signature(fn)

        def arguments_of(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span is None:
                out = fn(*args, **kwargs)
            else:
                rec = tracer._open(span)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(rec)
            if counter is not None:
                _count(counter, label, tracer.counts,
                       lambda: arguments_of(args, kwargs), out)
            return out

        return wrapper

    def install(self) -> None:
        """Patch every target at every import site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("cgoptics.") and m is not None]
        for mod_name, attr, span, counter in TARGETS:
            home = sys.modules[f"cgoptics.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                sites = [(owner, meth)]
            else:
                original = getattr(home, attr)
                sites = [(m, name) for m in modules for name, val in vars(m).items()
                         if val is original]
            wrapped = self._wrap(original, span, counter, span or f"{mod_name}.{attr}")
            for owner, name in sites:
                self._patches.append((owner, name, getattr(owner, name)))
                setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def dump(self, path, extra: dict | None = None) -> None:
        """Write names, spans ([name, start_ns, end_ns, parent]) and counters."""
        payload = {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for idx, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def span_totals(names, spans) -> dict[str, tuple[float, float]]:
    """Per span name: (inclusive seconds, self seconds).

    Inclusive time counts only spans with no ancestor of the same name, so
    a layer that calls itself (eval_phase -> eval_phase_at_node) is not
    counted twice.
    """
    selfs = self_times(spans)
    incl = defaultdict(int)
    excl = defaultdict(int)
    for idx, (nid, start, end, parent) in enumerate(spans):
        excl[nid] += selfs[idx]
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][3]
        if p < 0:
            incl[nid] += end - start
    return {names[n]: (incl[n] * 1e-9, excl[n] * 1e-9) for n in excl}


def span_metric_names() -> list[str]:
    names = []
    for _, _, span, _ in TARGETS:
        if span is not None and f"{span}_s" not in names:
            names += [f"{span}_s", f"{span}_self_s"]
    return names


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer figures per traced operation (times in s, counts as counts)."""
    totals = span_totals(tracer.names, tracer.spans)
    out = {}
    for name in span_metric_names():
        span, kind = (name[:-7], 1) if name.endswith("_self_s") else (name[:-2], 0)
        out[name] = totals.get(span, (0.0, 0.0))[kind] / n_ops
    counts = tracer.counts
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0.0) / n_ops
    points = counts.get("rays.invert_points", 0.0)
    out["rays.invert_inside_frac"] = counts.get("rays.invert_inside", 0.0) / points if points else 0.0
    ref_s = totals.get("verification.reference_solve", (0.0, 0.0))[0]
    cells = counts.get("verification.reference_cell_updates", 0.0)
    out["verification.reference_mcups"] = cells / ref_s / 1e6 if ref_s > 0 else 0.0
    return out
