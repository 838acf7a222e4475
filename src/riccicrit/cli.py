"""Command-line front end: curvature, solving, feasibility, gadgets, oracle checks.

Exit codes: 0 success; 2 a file named on the command line is missing,
unreadable, not UTF-8 or malformed, or an output path cannot be written;
3 infeasible instance; 4 usage error (bad flags, checked before any file is
read, unsupported variant or method, malformed --start sidecar); 5 internal
verification failure -- a solver produced something it could not verify,
which the library is designed never to do; oracle-check exits 1 when the
routes disagree or the matching route's optimality certificate fails, and
when it compared no edge at all.
Commands raise, and `main` maps the exception to its exit code through
`_EXIT_CODES`. Randomized methods require an explicit --seed so runs stay
reproducible; JSON output is byte-stable for a given input and seed.
`curvature --jobs` is capped at the CPU count and at the number of edges.
The graph goes to each worker once, when the worker starts, so the worker's
distance memo serves every edge it is given; edges go out in chunks. Each
record is encoded to JSON text where it is computed, in the worker or, at
--jobs 1, in the one process; the texts come back in edge order, and the
parent only joins them into the payload, so stdout is byte-identical at
every --jobs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import gadgets
from .curvature import blow_up, certificate_fault, edge_ref, emd_via_flow, ricci
from .errors import (
    EdgeListParseError,
    InfeasibleInstanceError,
    InputFileError,
    RetryExhaustedError,
    RicciCritError,
)
from .graphs import Graph, format_edge_list, load_edge_list, read_text
from .matching import Matching, _check_seed, enumerate_matchings
from .solvers import (
    Instance,
    ProblemVariant,
    brute_force_opt,
    feasible_by_saturation,
    greedy_insert,
    randomized_insert,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_USAGE = 4
EXIT_VERIFY = 5

# oracle-check enumerates all q! matchings of an edge with q <= --enum-bound:
# 9! = 362,880 of them take about 1 s, and 10! would take about 11 s per edge.
MAX_ENUM_BOUND = 9

# Which exception means which exit code. Rows are matched in order, and the
# last row holds the base classes of the errors above it.
_EXIT_CODES = (
    ((EdgeListParseError, OSError, InputFileError), EXIT_PARSE, "error"),
    ((InfeasibleInstanceError,), EXIT_INFEASIBLE, "infeasible"),
    ((RetryExhaustedError, AssertionError), EXIT_VERIFY, "verification failure"),
    ((RicciCritError, ValueError), EXIT_USAGE, "error"),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, output: str | None) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", output)


def _curvature_one(g: Graph, route: str, edge) -> dict:
    return {"edge": list(edge), **ricci(g, edge, route=route).to_json_dict()}


def _record_text(record: dict) -> str:
    """``record`` as ``_emit`` prints it as an item of the payload's "results" list.

    That is its own indented, key-sorted encoding with every line shifted 4
    spaces in; JSON escapes newlines inside strings, so every line break is
    the encoder's own.
    """
    return "    " + json.dumps(record, indent=2, sort_keys=True).replace("\n", "\n    ")


# The (graph, route) a pool worker was started with; set once per worker
# process by `_start_worker`, so one Graph and its distance memo serve every
# edge the worker is sent.
_worker_job: tuple = ()


def _start_worker(g: Graph, route: str) -> None:
    global _worker_job
    _worker_job = (g, route)


def _curvature_in_worker(edge) -> str:
    return _record_text(_curvature_one(*_worker_job, edge))


def _cmd_curvature(args) -> int:
    if args.jobs < 1:
        raise RicciCritError(f"--jobs must be at least 1, got {args.jobs}")
    g = load_edge_list(args.input)
    if args.all:
        edges = [(u, v) for u, v, _ in g.edges()]
    elif args.edge:
        edges = [edge_ref(u, v) for u, v in args.edge]
    else:
        raise RicciCritError("provide --edge U V (repeatable) or --all")
    for u, v in edges:
        if not g.has_edge(u, v):
            raise RicciCritError(f"({u}, {v}) is not an edge")
    # No more workers than CPUs or edges: a fork-started pool forks them all at its first submit.
    workers = min(args.jobs, len(edges), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: concurrent.futures costs every other command's start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_start_worker, initargs=(g, args.route)
        ) as pool:
            chunk = math.ceil(len(edges) / (4 * workers))
            texts = list(pool.map(_curvature_in_worker, edges, chunksize=chunk))
    else:
        texts = [_record_text(_curvature_one(g, args.route, e)) for e in edges]
    # The text json.dumps({"input": ..., "results": records}, indent=2,
    # sort_keys=True) prints, written only once every record is back.
    results = "[\n" + ",\n".join(texts) + "\n  ]" if texts else "[]"
    _write(f'{{\n  "input": {json.dumps(args.input)},\n  "results": {results}\n}}\n', args.output)
    return EXIT_OK


def _start_matching_from(path: str) -> Matching:
    """The adversarial start matching of a gadget sidecar (optionally under "descriptor")."""
    text = read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("descriptor", data)
    params = data.get("parameters") if isinstance(data, dict) else None
    if not isinstance(params, dict):
        raise ValueError(f"{path} carries no start matching")
    assignment = params.get("adversarial_assignment")
    cost = params.get("adversarial_cost")
    if not (
        isinstance(assignment, list)
        and all(type(a) is int for a in assignment)
        and sorted(assignment) == list(range(len(assignment)))
    ):
        raise ValueError(f"{path}: adversarial_assignment must be a permutation of 0..n-1")
    if type(cost) is not int:
        raise ValueError(f"{path}: adversarial_cost must be an integer")
    return Matching(tuple(assignment), cost)


def _cmd_solve(args) -> int:
    if args.start and args.method != "greedy":
        raise RicciCritError(f"--start applies to --method greedy only, not {args.method}")
    variant = ProblemVariant.parse(args.variant)
    if args.method == "randomized":
        if args.seed is None:
            raise RicciCritError("--seed is required for randomized solving")
        _check_seed(args.seed)
    if args.method == "brute" and args.max_k < 1:
        raise RicciCritError(f"--max-k must be at least 1, got {args.max_k}")
    inst = Instance(load_edge_list(args.input), edge_ref(*args.edge), variant)
    if args.method == "greedy":
        start = _start_matching_from(args.start) if args.start else None
        sol = greedy_insert(inst, start)
    elif args.method == "randomized":
        sol = randomized_insert(inst, args.seed)
    else:
        sol = brute_force_opt(inst, args.max_k)
        if sol is None:
            raise InfeasibleInstanceError(f"no edit set of size <= {args.max_k} flips the sign")
    payload = sol.to_json_dict()
    if args.method == "brute":
        payload["optimal_within_max_k"] = True
    _emit(payload, args.output)
    return EXIT_OK


def _cmd_feasible(args) -> int:
    variant = ProblemVariant.parse(args.variant)
    feasible, sol = feasible_by_saturation(Instance(load_edge_list(args.input), edge_ref(*args.edge), variant))
    payload: dict = {"variant": variant.key, "feasible": feasible}
    if sol is not None:
        payload["saturation_solution"] = sol.to_json_dict()
    _emit(payload, args.output)
    return EXIT_OK


def _parse_sets(text: str) -> list[list[int]]:
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        members = []
        for x in part.split(","):
            try:
                members.append(int(x))
            except ValueError:
                raise ValueError(f"--sets: {x.strip()!r} in {part!r} is not an integer") from None
        out.append(members)
    return out


def _parse_h0(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            i, j = map(int, part.split(":"))
        except ValueError:
            raise ValueError(f"--h0-edges: {part!r} is not I:J with integers I and J") from None
        out.append((i, j))
    return out


def _cmd_gadget(args) -> int:
    if args.kind == "maxcov":
        g, edge, desc = gadgets.gen_maxcov(args.universe, _parse_sets(args.sets), args.kappa)
    elif args.kind == "blocker":
        g, edge, desc = gadgets.gen_blocker(args.n, _parse_h0(args.h0_edges))
    elif args.kind == "setcover":
        g, edge, desc = gadgets.gen_setcover(args.universe, _parse_sets(args.sets), args.heavy_weight)
    elif args.graph_form:
        g, edge, _adv, desc = gadgets.gen_tightness_graph(args.m)
    else:
        cm, adv, opt, desc = gadgets.gen_tightness(args.m)
        payload = {
            "descriptor": desc.to_json_dict(),
            "cost_matrix": [list(row) for row in cm.costs],
            "adversarial": adv.to_json_dict(),
            "optimal": opt.to_json_dict(),
        }
        _emit(payload, args.output + ".json" if args.output else None)
        return EXIT_OK
    sidecar = {"descriptor": desc.to_json_dict(), "edge": list(edge)}
    text = format_edge_list(g)
    if args.output:
        with open(args.output + ".edges", "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit(sidecar, args.output + ".json")
    else:
        sidecar["edge_list"] = text
        _emit(sidecar, None)
    return EXIT_OK


def _check_edge_routes(g: Graph, edge, enum_bound: int) -> dict:
    record: dict = {"edge": list(edge)}
    res = ricci(g, edge)
    cm, emd_m = res.cost_matrix, res.emd
    bm = blow_up(cm)
    emd_f, _ = emd_via_flow(cm)
    record["emd_matching"] = f"{emd_m.numerator}/{emd_m.denominator}"
    record["emd_flow"] = f"{emd_f.numerator}/{emd_f.denominator}"
    # The matching route's answer must also pass its optimality certificate.
    agree = emd_m == emd_f and certificate_fault(res) is None
    if bm.q <= enum_bound:
        best = min(m.cost for m in enumerate_matchings(bm.costs, bound=enum_bound))
        emd_e = Fraction(best, bm.q)
        record["emd_enumeration"] = f"{emd_e.numerator}/{emd_e.denominator}"
        agree = agree and emd_m == emd_e
    record["agree"] = agree
    return record


def _random_graph(n: int, rng) -> Graph:
    while True:
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.45:
                    edges.append((u, v))
        if not edges:
            continue
        g = Graph(n, edges, weighted=False)
        if all(g.shortest_dist(0, x) != float("inf") for x in range(n)):
            return g


def _cmd_oracle_check(args) -> int:
    if args.random is not None and args.random < 1:
        raise RicciCritError(f"--random must be at least 1, got {args.random}")
    if args.enum_bound < 0:
        raise RicciCritError(f"--enum-bound must be at least 0, got {args.enum_bound}")
    if args.enum_bound > MAX_ENUM_BOUND:
        raise RicciCritError(f"--enum-bound must be at most {MAX_ENUM_BOUND}, got {args.enum_bound}")
    graphs: list[Graph] = []
    if args.input:
        graphs.append(load_edge_list(args.input))
    elif args.random:
        rng = random.Random(args.seed)
        for _ in range(args.random):
            graphs.append(_random_graph(rng.randint(4, 10), rng))
    else:
        raise RicciCritError("provide an input file or --random N")
    records = [_check_edge_routes(g, (u, v), args.enum_bound) for g in graphs for u, v, _w in g.edges()]
    mismatches = sum(not rec["agree"] for rec in records)
    _emit(
        {
            "edges_checked": len(records),
            "mismatches": mismatches,
            "results": records if (args.verbose or mismatches) else [],
        },
        args.output,
    )
    # Input with no edge compared nothing, so it fails as a mismatch does.
    return EXIT_OK if mismatches == 0 and records else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="riccicrit", description="Exact Ollivier-Ricci edge curvature toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature", help="curvature of one or more edges of an edge-list file")
    p.add_argument("input")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--edge", nargs=2, type=int, action="append", metavar=("U", "V"))
    which.add_argument("--all", action="store_true", help="every edge of the graph")
    p.add_argument("--route", choices=["matching", "flow"], default="matching")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("solve", help="find an edit set flipping the curvature sign")
    p.add_argument("input")
    p.add_argument("--edge", nargs=2, type=int, required=True, metavar=("U", "V"))
    p.add_argument("--variant", required=True, help="e.g. uw-rt-ins-ntp")
    p.add_argument("--method", choices=["greedy", "randomized", "brute"], required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-k", type=int, default=4)
    p.add_argument("--start", help="gadget sidecar JSON carrying a start matching (greedy)")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("feasible", help="saturation feasibility of a variant on an edge")
    p.add_argument("input")
    p.add_argument("--edge", nargs=2, type=int, required=True, metavar=("U", "V"))
    p.add_argument("--variant", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("gadget", help="generate a hardness-construction instance")
    p.add_argument("kind", choices=["maxcov", "blocker", "setcover", "tightness"])
    p.add_argument("--universe", type=int, default=4)
    p.add_argument("--sets", default="0,1;2,3")
    p.add_argument("--kappa", type=int, default=1)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--h0-edges", default="0:0,1:1,2:2")
    p.add_argument("--heavy-weight", type=int)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--graph-form", action="store_true")
    p.add_argument("--output", help="base path; writes BASE.edges and BASE.json")
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("oracle-check", help="cross-check the two EMD routes (and enumeration)")
    source = p.add_mutually_exclusive_group()
    source.add_argument("input", nargs="?")
    source.add_argument("--random", type=int, help="number of random graphs to draw")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--enum-bound",
        type=int,
        default=8,
        help=f"also enumerate all q! matchings of edges with q <= this; at most {MAX_ENUM_BOUND} (default %(default)s)",
    )
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except Exception as exc:
        for types, code, prefix in _EXIT_CODES:
            if isinstance(exc, types):
                # A parse error carries its line; the file is the command's input.
                where = f"{args.input}: " if isinstance(exc, EdgeListParseError) else ""
                print(f"{prefix}: {where}{exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
