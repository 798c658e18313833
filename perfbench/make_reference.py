"""Write the reference digests that ``run.py`` checks at the reference seed.

    python3 perfbench/make_reference.py [workload ...]

Regenerate a file only for a change that is meant to alter the program's
results; the diff of ``reference/*.json`` then shows which units moved.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

# replications per MC workload: more than a run at today's speed reaches
MC_REFERENCE_UNITS = 150


def main(argv) -> int:
    if not run.prepare():
        print("error: no pdsseries sources in this checkout", file=sys.stderr)
        return 2
    import harness

    for workload in argv or run.WORKLOAD_NAMES:
        count = harness.FIT_POOL if workload == "fit_bic_ext" else MC_REFERENCE_UNITS
        workdir = harness.make_workdir()
        try:
            st = harness.setup(workload, harness.REFERENCE_SEED, workdir)
            digests, _, wall = harness.run_units(st, count=count)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        harness.REFERENCE_DIR.mkdir(exist_ok=True)
        path = harness.REFERENCE_DIR / f"{workload}.json"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f'{{"seed": {harness.REFERENCE_SEED}, "units": {{\n')
            fh.write(",\n".join(f"{json.dumps(key)}: {json.dumps(cells, sort_keys=True)}"
                                for key, cells in dict(digests).items()))
            fh.write("\n}}\n")
        print(f"{path.name}: {len(digests)} units in {wall:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
