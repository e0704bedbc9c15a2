"""Run one workload of the ringadapt benchmark.

    python3 perfbench/run.py --workload ledger-admit --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: it imports the package from ``src/``
and refuses to run (exit 2) when that is missing.  See README.md in this
directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ledger-admit", "swap-e2e", "cli-verify")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ringadapt" / "__init__.py").is_file():
        print(f"perfbench: no package at {src / 'ringadapt'}; run from the "
              "root of a ringadapt checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
