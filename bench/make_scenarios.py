"""Write the scenario files that the ``scenario-cli`` workload generates.

    python3 bench/make_scenarios.py --seed N [--out DIR]

The files are the same, byte for byte, as those a benchmark run with
``--seed N`` writes to ``bench/out/scenarios-N``: one ``dim-DD.json`` per
dimension 6, 8, ..., 24.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from workloads import write_scenarios  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to write (default bench/out/scenarios-SEED)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    out = args.out or BENCH / "out" / f"scenarios-{args.seed}"
    for path, _ in write_scenarios(args.seed, out):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
