"""cgoptics benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep1d --seed 0 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced operations
and reports the per-layer metrics of the traced ones.  A run record
(machine, versions, commit, settings, samples) is printed on the line
before the result and written with the span trace under ``.bench_out/``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads; recorded in the run record.
THREAD_ENV = {
    var: "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(THREAD_ENV)

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100])."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_commit() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cgoptics").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def import_package():
    """Import cgoptics from this checkout's src/; exit 2 if it is absent."""
    if not (SRC / "cgoptics" / "__init__.py").is_file():
        print(f"error: no cgoptics sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import cgoptics

    if Path(cgoptics.__file__).resolve().parent != (SRC / "cgoptics").resolve():
        print(f"error: imported cgoptics from {cgoptics.__file__}", file=sys.stderr)
        sys.exit(2)
    return cgoptics


def run_record(args, workload, params, cfg) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "params": params,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg.to_dict(), sort_keys=True).encode()
        ).hexdigest()[:16],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def measure(workload, cfg, reference, seconds: float, tracer):
    """Set up SETUP_REPEATS times, each followed by a share of the operations.

    Operations run until ``seconds`` have passed and ``min_ops`` are done;
    round r stops at r+1 shares of both, so the samples span the whole run
    (the set-ups of a sweep take no time; a sweep op may use up later shares).
    With a tracer, operations alternate untraced / traced over the same
    inputs.  Returns the set-up times, build times and per-operation
    records (time, build time, traced flag, failure message).
    """
    setups, builds, ops = [], [], []
    step = 2 if tracer else 1
    min_ops = max(workload.min_ops, step)
    measured = 0.0
    i = 0
    for r in range(1, SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        state = workload.setup(cfg, reference)
        setups.append(time.perf_counter() - t0)
        if "build_s" in state:
            builds.append(state["build_s"])
        t_round = time.perf_counter()
        while (measured + time.perf_counter() - t_round < seconds * r / SETUP_REPEATS
               or i < min_ops * r / SETUP_REPEATS or i % step):
            ops.append(run_op(workload, state, i, step, tracer))
            i += 1
        measured += time.perf_counter() - t_round
    return setups, builds, ops


def run_op(workload, state, i, step, tracer) -> dict:
    """Run and check operation i; with a tracer, odd operations are traced."""
    traced = bool(tracer) and i % 2 == 1
    index = i // step
    if traced:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out, build_s = tracer.op(workload.run_op, state, index) if traced \
            else workload.run_op(state, index)
        elapsed = time.perf_counter() - t0
        error = None
    except Exception:  # an operation that raises counts as failed
        elapsed = time.perf_counter() - t0
        error = traceback.format_exc()
    finally:
        if traced:
            tracer.uninstall()
    if error is None:
        problems = workload.check(state, index, out)
        error = "; ".join(problems) if problems else None
    if error is not None:
        print(f"operation {i} failed: {error}", file=sys.stderr)
    return {"index": index, "s": elapsed,
            "build_s": build_s if error is None else None,
            "traced": traced, "error": error}


def succeeded(ops) -> list[dict]:
    """The operations that passed their checks (all of them if none did)."""
    return [o for o in ops if o["error"] is None] or ops


def end_to_end(import_s, setups, ops) -> dict:
    """Fastest operation of the run, set-up time and memory.

    Other tenants of a shared host slow this process in stretches of
    seconds to minutes, so a run's median and p90 follow the share of it
    that was slowed; its fastest operation does not.  Failed operations are
    left out (they show in ``failed``).
    """
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "op_ms_min": (min(o["s"] for o in succeeded(ops)) * 1e3, "ms"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def run_summary(workload, builds, ops) -> dict:
    """Times kept in the run record but not reported as metrics."""
    ok = succeeded(ops)
    op_s = [o["s"] for o in ok]
    builds = [o["build_s"] for o in ok if o["build_s"] is not None] or builds
    return {
        "op_ms_median": statistics.median(op_s) * 1e3,
        "op_ms_p90": percentile(op_s, 90) * 1e3,
        "build_s_min": min(builds),
        "verify_s_min": workload.verify_best(ok),
    }


def per_layer(tracer, ops) -> dict:
    from spans import layer_metrics

    traced = [o["s"] for o in ops if o["traced"]]
    plain = [o["s"] for o in ops if not o["traced"]]
    out = {name: (value, "s" if name.endswith("_s") else
                  "frac" if name.endswith("_frac") else
                  "Mcell/s" if name.endswith("_mcups") else "count")
           for name, value in layer_metrics(tracer, len(traced)).items()}
    out["trace.overhead_s"] = (min(traced) - min(plain), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced eps/steps for the harness self-test; "
                        "skips the recorded-output comparison")
    args = parser.parse_args(argv)

    import_package()
    from spans import Tracer
    from workloads import WORKLOADS, load_reference, params_for_seed, params_key

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    params = params_for_seed(workload.name, workload.lattice, args.seed)
    cfg = workload.make_config(params, smoke=args.smoke)
    reference = None
    if not args.smoke:
        reference = load_reference()[workload.name].get(params_key(params))
        if reference is None:
            print(f"error: no recorded outputs for {params}", file=sys.stderr)
            return 2
    import_s = time.perf_counter() - T_START

    tracer = Tracer() if args.trace else None
    setups, builds, ops = measure(workload, cfg, reference, args.seconds, tracer)

    if tracer:
        metrics = per_layer(tracer, ops)
    else:
        metrics = end_to_end(import_s, setups, ops)
    failed = sum(o["error"] is not None for o in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = run_record(args, workload, params, cfg)
    record.update({
        "import_s": import_s,
        "setup_s": setups,
        "build_s": builds,
        **run_summary(workload, builds, ops),
        "op_s": [o["s"] for o in ops],
        "op_build_s": [o["build_s"] for o in ops],
        "op_traced": [o["traced"] for o in ops],
    })
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
        fh.write("\n")
    if tracer:
        tracer.dump(OUT_DIR / f"{stem}.spans.json", extra={"record": record})
    print("run-record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
