"""One SHA-256 over the ``ricci`` results of a fixed set of edges.

Run from anywhere inside a checkout of the repository:

    python3 tools/ricci_digest.py

Three edge sets are hashed, each result as its ``to_json_dict()`` (ric,
EMD and the plan witness) under its set, route and edge:

* the 32 slots of the ``ricci-sparse`` benchmark workload, on its graph;
* every edge of a seeded G(200, 800), on the default route;
* every edge of a seeded connected weighted G(40, 150) with weights 1..5,
  on both routes.

Two checkouts whose digests agree returned the same curvatures and the same
plans. The program is imported from the checkout's ``src/`` directory, and
nothing is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest() -> str:
    """The hex SHA-256 over every result of the three edge sets."""
    # No byte-compiled files under perfbench/ either.
    sys.dont_write_bytecode = True
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import riccicrit as rc
    from perfbench.workloads import RicciSparse, connected_weighted_edges, gnm_edges

    # RicciSparse draws its graph in memory and writes no files.
    wl = RicciSparse(rc, 0, "full", None)
    sparse = wl.build()
    unweighted = rc.Graph(200, gnm_edges(random.Random("ricci-digest:g200"), 200, 800))
    weighted = rc.Graph(40, connected_weighted_edges(random.Random("ricci-digest:w40"), 40, 150, 5), weighted=True)
    cases = [("ricci-sparse", sparse, wl.slot_edge, ("matching",))]
    cases.append(("g200", unweighted, [e[:2] for e in unweighted.edges()], ("matching",)))
    cases.append(("w40", weighted, [e[:2] for e in weighted.edges()], ("matching", "flow")))
    h = hashlib.sha256()
    for name, g, edges, routes in cases:
        for route in routes:
            for e in edges:
                record = rc.ricci(g, e, route=route).to_json_dict()
                h.update(json.dumps([name, route, list(e), record], sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args(argv)
    print(digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
