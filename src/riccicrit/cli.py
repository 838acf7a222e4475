"""Command-line front end: curvature, solving, feasibility, gadgets, oracle checks.

Exit codes: 0 success, 2 input parse error, 3 infeasible instance, 4 usage
error (bad flags, unsupported variant/method), 5 internal verification
failure -- a solver produced something it could not verify, which the
library is designed never to do. Randomized methods require an explicit
--seed so runs stay reproducible; JSON output is byte-stable for a given
input and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from . import gadgets
from .curvature import blow_up, build_cost_matrix, edge_ref, emd_via_flow, emd_via_matching, ricci
from .errors import (
    BlowUpTooLargeError,
    BudgetExceededError,
    DisconnectedNeighborhoodError,
    EdgeListParseError,
    InfeasibleInstanceError,
    RetryExhaustedError,
    RicciCritError,
    UnsupportedVariantError,
)
from .graphs import Graph, format_edge_list, load_edge_list
from .matching import Matching, enumerate_matchings
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_graph(path: str) -> Graph:
    try:
        return load_edge_list(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    except EdgeListParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _curvature_one(args) -> dict:
    g, edge, route = args
    record: dict = {"edge": list(edge)}
    try:
        record.update(ricci(g, edge, route=route).to_json_dict())
    except (DisconnectedNeighborhoodError, BlowUpTooLargeError) as exc:
        record["error"] = str(exc)
    return record


def _cmd_curvature(args) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    g = _load_graph(args.input)
    if args.all:
        edges = [(u, v) for u, v, _ in g.edges()]
    elif args.edge:
        edges = [edge_ref(u, v) for u, v in args.edge]
    else:
        print("error: provide --edge U V (repeatable) or --all", file=sys.stderr)
        return EXIT_USAGE
    for u, v in edges:
        if not g.has_edge(u, v):
            print(f"error: ({u}, {v}) is not an edge", file=sys.stderr)
            return EXIT_USAGE
    work = [(g, e, args.route) for e in edges]
    if args.jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            records = list(pool.map(_curvature_one, work))
    else:
        records = [_curvature_one(w) for w in work]
    _emit({"input": args.input, "results": records}, args.output)
    return EXIT_OK


def _start_matching_from(path: str) -> Matching:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    desc = data.get("descriptor", data)
    assignment = desc.get("parameters", {}).get("adversarial_assignment")
    cost = desc.get("parameters", {}).get("adversarial_cost")
    if assignment is None or cost is None:
        raise ValueError(f"{path} carries no start matching")
    return Matching(tuple(assignment), int(cost))


def _cmd_solve(args) -> int:
    g = _load_graph(args.input)
    try:
        variant = ProblemVariant.parse(args.variant)
        inst = Instance(g, edge_ref(*args.edge), variant)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.method == "greedy":
            start = _start_matching_from(args.start) if args.start else None
            sol = greedy_insert(inst, start)
        elif args.method == "randomized":
            if args.seed is None:
                print("error: --seed is required for randomized solving", file=sys.stderr)
                return EXIT_USAGE
            sol = randomized_insert(inst, args.seed)
        else:
            if args.max_k < 1:
                print(f"error: --max-k must be at least 1, got {args.max_k}", file=sys.stderr)
                return EXIT_USAGE
            sol = brute_force_opt(inst, args.max_k)
            if sol is None:
                print(
                    f"infeasible: no edit set of size <= {args.max_k} flips the sign",
                    file=sys.stderr,
                )
                return EXIT_INFEASIBLE
    except UnsupportedVariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (BudgetExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RetryExhaustedError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    payload = sol.to_json_dict()
    if args.method == "brute":
        payload["optimal_within_max_k"] = True
    _emit(payload, args.output)
    return EXIT_OK


def _cmd_feasible(args) -> int:
    g = _load_graph(args.input)
    try:
        variant = ProblemVariant.parse(args.variant)
        inst = Instance(g, edge_ref(*args.edge), variant)
        feasible, sol = feasible_by_saturation(inst)
    except UnsupportedVariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
        out.append([int(x) for x in part.split(",")])
    return out


def _parse_h0(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        i, j = part.split(":")
        out.append((int(i), int(j)))
    return out


def _cmd_gadget(args) -> int:
    try:
        if args.kind == "maxcov":
            g, edge, desc = gadgets.gen_maxcov(args.universe, _parse_sets(args.sets), args.kappa)
        elif args.kind == "blocker":
            g, edge, desc = gadgets.gen_blocker(args.n, _parse_h0(args.h0_edges))
        elif args.kind == "setcover":
            g, edge, desc = gadgets.gen_setcover(args.universe, _parse_sets(args.sets), args.heavy_weight)
        else:  # tightness
            if args.graph_form:
                g, edge, _adv, desc = gadgets.gen_tightness_graph(args.m)
            else:
                cm, adv, opt, desc = gadgets.gen_tightness(args.m)
                payload = {
                    "descriptor": desc.to_json_dict(),
                    "cost_matrix": [list(row) for row in cm.costs],
                    "adversarial": adv.to_json_dict(),
                    "optimal": opt.to_json_dict(),
                }
                if args.output:
                    _emit(payload, args.output + ".json")
                else:
                    _emit(payload, None)
                return EXIT_OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    try:
        _pair, cm = build_cost_matrix(g, edge)
    except DisconnectedNeighborhoodError as exc:
        record["skipped"] = str(exc)
        return record
    try:
        bm = blow_up(cm)
    except BlowUpTooLargeError as exc:
        record["skipped"] = str(exc)
        return record
    emd_m, _ = emd_via_matching(bm)
    emd_f, _ = emd_via_flow(cm)
    record["emd_matching"] = f"{emd_m.numerator}/{emd_m.denominator}"
    record["emd_flow"] = f"{emd_f.numerator}/{emd_f.denominator}"
    agree = emd_m == emd_f
    if bm.q <= enum_bound:
        best = min(m.cost for m in enumerate_matchings(bm.costs, bound=enum_bound))
        from fractions import Fraction

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
    import random

    if args.random is not None and args.random < 1:
        print(f"error: --random must be at least 1, got {args.random}", file=sys.stderr)
        return EXIT_USAGE
    graphs: list[Graph] = []
    if args.input:
        graphs.append(_load_graph(args.input))
    elif args.random:
        rng = random.Random(args.seed)
        for _ in range(args.random):
            graphs.append(_random_graph(rng.randint(4, 10), rng))
    else:
        print("error: provide an input file or --random N", file=sys.stderr)
        return EXIT_USAGE
    records = []
    mismatches = 0
    for g in graphs:
        for u, v, _w in g.edges():
            rec = _check_edge_routes(g, (u, v), args.enum_bound)
            if rec.get("agree") is False:
                mismatches += 1
            records.append(rec)
    _emit(
        {
            "edges_checked": len(records),
            "mismatches": mismatches,
            "results": records if (args.verbose or mismatches) else [],
        },
        args.output,
    )
    return EXIT_OK if mismatches == 0 else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="riccicrit", description="Exact Ollivier-Ricci edge curvature toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature", help="curvature of one or more edges of an edge-list file")
    p.add_argument("input")
    p.add_argument("--edge", nargs=2, type=int, action="append", metavar=("U", "V"))
    p.add_argument("--all", action="store_true", help="every edge of the graph")
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
    p.add_argument("input", nargs="?")
    p.add_argument("--random", type=int, help="number of random graphs to draw")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--enum-bound", type=int, default=8)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except RicciCritError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
