"""One SHA-256 over every Solution of the ``solve`` benchmark workload.

Run from anywhere inside a checkout of the repository:

    python3 tools/solve_digest.py --seeds 1 2 3 --passes 2

For each seed, the workload's instances are drawn as the benchmark draws
them, and each pass runs every slot's op in the workload's order, with the
same ``randomized_insert`` seeds. Every Solution an op returns (saturation,
greedy, randomized and brute force) is hashed as its JSON, with its drops,
under its seed, pass, slot and kind. Two checkouts whose digests agree
returned the same Solutions. The program is imported from the checkout's
``src/`` directory, and nothing is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("saturation", "greedy", "randomized", "smaller")


def digest(seeds: list[int], passes: int, size: str = "full") -> str:
    """The hex SHA-256 over the Solutions of ``passes`` passes at each seed."""
    # No byte-compiled files under perfbench/ either.
    sys.dont_write_bytecode = True
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import riccicrit as rc
    from perfbench.workloads import Solve

    h = hashlib.sha256()
    for seed in seeds:
        # Solve draws its instances in memory and writes no files.
        wl = Solve(rc, seed, size, None)
        pool = wl.build()
        for p in range(passes):
            for slot in wl.order:
                out = wl.op(pool, slot, p)
                found = (out["saturation"][1], out.get("greedy"), out.get("randomized"), out["smaller"])
                for kind, sol in zip(KINDS, found):
                    record = None if sol is None else {**sol.to_json_dict(), "drops": sol.drops}
                    line = json.dumps([seed, p, slot, kind, record], sort_keys=True)
                    h.update(line.encode() + b"\n")
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--passes", type=int, default=2)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be positive")
    print(digest(args.seeds, args.passes, args.size))
    return 0


if __name__ == "__main__":
    sys.exit(main())
