"""One SHA-256 over the answers of the F_p exact-cost matching engine.

Run from anywhere inside a checkout of the repository:

    python3 tools/engine_digest.py

Two families of 0..3 cost matrices are queried, each with a touchable mask:

* seeded random matrices with random masks, q 2 to 7;
* the blow-ups of seeded double stars (u = 0 and v = 1 joined, private
  neighbours on each side, and on about half of them random cross edges
  between the sides), with their own touchable masks. A plain star's blow-up
  has q at most 40. Cross edges multiply the signatures, each one a
  witness query, so a crossed star's has q at most 20.

For each matrix, at a seed of its own, three answers are hashed in order:

* ``signature_support`` at 1, 2 and 4 trials;
* ``exact_cost_matching`` at every target from the minimum cost to 3q;
* ``matching_with_counts`` at every signature the 4-trial support certifies.

A witness is hashed as its assignment and a miss as null. Two checkouts
whose digests agree certified the same signatures and returned the same
witnesses and the same misses. The program is imported from the checkout's
``src/`` directory, and nothing is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MATRICES = 24
DOUBLE_STARS = 10
MAX_Q = 40
MAX_CROSSED_Q = 20


def _random_matrices(rng: random.Random):
    for i in range(MATRICES):
        q = rng.randint(2, 7)
        costs = [[rng.randint(0, 3) for _ in range(q)] for _ in range(q)]
        mask = [[rng.random() < 0.5 for _ in range(q)] for _ in range(q)]
        yield f"matrix-{i}", costs, mask


def _double_star_blow_ups(rc, rng: random.Random):
    found = 0
    while found < DOUBLE_STARS:
        du, dv, p = rng.randint(2, 6), rng.randint(2, 8), rng.choice([0.0, 0.3])
        left = range(2, du + 1)
        right = range(du + 1, du + dv)
        star = [(0, 1)] + [(0, x) for x in left] + [(1, y) for y in right]
        cross = [(x, y) for x in left for y in right if rng.random() < p]
        bm = rc.blow_up(rc.build_cost_matrix(rc.Graph(du + dv, star + cross), (0, 1)))
        if bm.q > (MAX_CROSSED_Q if cross else MAX_Q):
            continue
        yield f"double-star-{found}", bm.costs, bm.touchable_mask()
        found += 1


def digest() -> str:
    """The hex SHA-256 over every answer on both families of matrices."""
    sys.dont_write_bytecode = True
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import riccicrit as rc
    from riccicrit.matching import signature_support

    def witness(m):
        return None if m is None else list(m.assignment)

    cases = list(_random_matrices(random.Random("engine-digest:matrices")))
    cases += _double_star_blow_ups(rc, random.Random("engine-digest:double-stars"))
    h = hashlib.sha256()
    for seed, (name, costs, mask) in enumerate(cases):
        q = len(costs)
        record = {"name": name, "q": q}
        for trials in (1, 2, 4):
            support = sorted(signature_support(costs, mask, trials=trials, seed=seed))
            record[f"support-{trials}"] = support
        least = rc.min_cost_perfect_matching(costs).cost
        record["exact"] = [
            [t, witness(rc.exact_cost_matching(costs, t, seed=seed))] for t in range(least, 3 * q + 1)
        ]
        record["counts"] = [
            [list(sig), witness(rc.matching_with_counts(costs, mask, *sig, seed=seed))] for sig in support
        ]
        h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args(argv)
    print(digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
