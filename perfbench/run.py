"""Pipeline benchmark for pdsseries: one entry point for every workload.

    python3 perfbench/run.py --workload mc_high_dim --seed 0 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``. With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 when the output check passes.
BLAS is pinned to one thread and all work runs in this process.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
# mc_high_dim: acceptance-6 design, 1000 raw coordinates; CD-bound, where a
#   faster solver kernel must show.
# mc_noise_controls: acceptance-8 design, 1000-term Hermite tensor, nothing
#   selected; loadings-bound, so a CD change should leave it unchanged.
# fit_bic_ext: ``pds-series fit --k bic --extended-fs`` on low_dim n=500,
#   about 1250 first-stage Lasso calls on one shared Q per fit.
WORKLOAD_NAMES = ("mc_high_dim", "mc_noise_controls", "fit_bic_ext")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def prepare() -> bool:
    """Pin BLAS threads and put the checkout's sources first on the path.

    The pins take effect only before NumPy is first imported. Returns False
    when the checkout holds no package sources.
    """
    if not (ROOT / "src" / "pdsseries" / "__init__.py").is_file():
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not prepare():
        print(f"error: no pdsseries sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness

    if args.setup_only:
        return harness.setup_only(args.workload, args.seed)
    try:
        return harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
