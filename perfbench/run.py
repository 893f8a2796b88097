"""Benchmark command: one workload, ending in one JSON result line.

    python3 perfbench/run.py --workload exec-hot --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the simulator is imported from its
``src/``. Exits 2 without a result when that source tree is missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no simulator source at {ROOT / 'src' / 'repro'}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    # Replace this script's own directory on the path with the checkout.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.cli import benchmark_main

    return benchmark_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
