"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record.py [workload ...]

Runs every lattice point of the named workloads (default: all) once and
rewrites their entries in ``perfbench/reference.json``.  Run it only on a
commit whose outputs are trusted: the benchmark counts an operation as
failed when its outputs drift from these values.
"""

from __future__ import annotations

import json
import sys
import time

import run

run.import_package()

from workloads import REFERENCE_PATH, WORKLOADS, lattice_points, params_key  # noqa: E402


def main(argv) -> int:
    names = argv or sorted(WORKLOADS)
    try:
        with open(REFERENCE_PATH) as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    for name in names:
        workload = WORKLOADS[name]
        entries = {}
        for params in lattice_points(workload.lattice):
            t0 = time.perf_counter()
            entry = workload.record(workload.make_config(params))
            if entry.get("passed") is False:
                print(f"{name} {params}: sweep checks FAILED", file=sys.stderr)
                return 1
            entries[params_key(params)] = entry
            print(f"{name} {params}: {time.perf_counter() - t0:.1f} s", flush=True)
        reference[name] = entries
        with open(REFERENCE_PATH, "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
