"""riccicrit benchmark: one seeded workload, end-to-end or traced.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload ricci-sparse --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's ``src/`` directory; without it
the benchmark exits with code 2 and prints no result. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``. Lines before it describe the run.
Scratch files and the traced run's spans go to ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import harness  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def load_program(root: Path):
    """Import riccicrit from ``root/src``, refusing any other copy."""
    src = root / "src"
    if not (src / "riccicrit" / "__init__.py").is_file():
        raise ImportError(f"no riccicrit package under {src}")
    sys.path.insert(0, str(src))
    rc = importlib.import_module("riccicrit")
    importlib.import_module("riccicrit.cli")
    if Path(rc.__file__).resolve().parent != (src / "riccicrit").resolve():
        raise ImportError(f"riccicrit was imported from {rc.__file__}, not from {src}")
    return rc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        rc = load_program(ROOT)
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result, notes = harness.run(rc, args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    for line in notes:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
