"""The three seeded workloads and the checks on their outputs.

A workload generates its inputs from the seed (``__init__``, untimed), turns
them into program values in ``build`` (timed as set-up), and runs ops
through the public API or the CLI. One pass runs every slot once, in
``order``; passes repeat until the run's time is up. ``check`` validates one
op's output against answers computed during set-up. ``units`` is what
``ops_per_s`` counts per op: edges, or solved instances. ``probe_inside``
says whether the harness may run its probe inside an op.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path


# -- graph generators (benchmark-side, stdlib only) ------------------------------


def gnm_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Uniform G(n, m): m distinct unordered pairs, sorted."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def connected_weighted_edges(rng: random.Random, n: int, m: int, max_w: int) -> list[tuple[int, int, int]]:
    """A random spanning tree plus uniform extra pairs, weights 1..max_w."""
    weights: dict[tuple[int, int], int] = {}
    for x in range(1, n):
        weights[(rng.randrange(x), x)] = rng.randint(1, max_w)
    while len(weights) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            weights.setdefault((min(a, b), max(a, b)), rng.randint(1, max_w))
    return sorted((u, v, w) for (u, v), w in weights.items())


def double_star_edges(du: int, dv: int, cross) -> tuple[int, list[tuple[int, int]]]:
    """u=0 and v=1 joined, du-1 private u-neighbors, dv-1 private v-neighbors,
    and the given cross edges between the private sides (no side edges)."""
    left = list(range(2, 1 + du))
    right = list(range(1 + du, du + dv))
    edges = [(0, 1)] + [(0, x) for x in left] + [(1, y) for y in right]
    edges += [(left[i], right[j]) for i, j in cross]
    return du + dv, edges


def edge_qs(n: int, edges) -> list[int]:
    """Blow-up size q = lcm(deg u + 1, deg v + 1) of each unweighted edge."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return [math.lcm(deg[u] + 1, deg[v] + 1) for u, v in edges]


def program_env(src: Path) -> dict[str, str]:
    """This process's environment with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return env


def _adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for e in edges:
        adj[e[0]].add(e[1])
        adj[e[1]].add(e[0])
    return adj


def local_flow_ric(rc, adj: list[set[int]], e: tuple[int, int]) -> Fraction:
    """Reference curvature of an unweighted edge from its 2-ball alone.

    Every node of both closed neighborhoods is within 3 hops of the other
    side through the edge itself, so each shortest path between them stays
    inside the nodes within 2 hops of u or v. The induced subgraph on those
    nodes, relabelled in id order, therefore has the same cost matrix.
    """
    u, v = e
    ball = {u, v} | adj[u] | adj[v]
    for x in list(ball):
        ball |= adj[x]
    ids = {x: i for i, x in enumerate(sorted(ball))}
    sub = [(ids[a], ids[b]) for a in ball for b in adj[a] if a < b and b in ids]
    return rc.ricci(rc.Graph(len(ids), sub), (ids[u], ids[v]), route="flow").ric


# -- ricci-sparse -----------------------------------------------------------------


class RicciSparse:
    """``ricci(g, e)`` on the default route over an unweighted G(n, m).

    The matching route costs about q^3 for q = lcm(deg u + 1, deg v + 1), q
    has a long tail, and at equal q the Hungarian time still differs by up
    to 2x between edges. A 30 s run holds only a handful of tail edges, so
    edges drawn per seed would make every figure a lottery on the seed.
    The graph and its edges are therefore fixed: slot i is an edge whose q
    is the quantile (i + 1/2)/slots of the graph's edge q-distribution. The
    seed orders the slots. Each pass starts on a fresh graph value, so the
    first query near a node pays its BFS and later ones reuse the row.
    """

    name = "ricci-sparse"
    probe_inside = True
    SIZES = {"full": (2000, 10000, 32), "tiny": (200, 800, 12)}
    GRAPH_SEED = "ricci-sparse:graph"

    def __init__(self, rc, seed: int, size: str, work_dir: Path):
        self.rc = rc
        n, m, slots = self.SIZES[size]
        self.n = n
        fixed = random.Random(self.GRAPH_SEED)
        self.edges = gnm_edges(fixed, n, m)
        by_q: dict[int, list[tuple[int, int]]] = {}
        for e, q in zip(self.edges, edge_qs(n, self.edges)):
            by_q.setdefault(q, []).append(e)
        qs = sorted(q for q, es in by_q.items() for _ in es)
        self.slot_q = [qs[int((i + 0.5) * m / slots)] for i in range(slots)]
        self.slot_edge = [fixed.choice(by_q[q]) for q in self.slot_q]
        self.order = list(range(slots))
        random.Random(f"{self.name}:{seed}").shuffle(self.order)
        adj = _adjacency(n, self.edges)
        self.refs = [local_flow_ric(rc, adj, e) for e in self.slot_edge]

    def build(self):
        return self.rc.Graph(self.n, self.edges)

    def op(self, g, slot: int, p: int):
        return self.rc.ricci(g, self.slot_edge[slot])

    def check(self, slot: int, p: int, out) -> bool:
        return out.ric == self.refs[slot]

    def units(self, slot: int) -> int:
        return 1

    def describe(self) -> str:
        return f"G(n={self.n}, m={len(self.edges)}), {len(self.order)} q-quantile slots, q {self.slot_q[0]}..{self.slot_q[-1]}"


# -- cli-batch-weighted -------------------------------------------------------------


def _tree_rss_kb(pid: int) -> int:
    """Summed VmRSS of a process and all its descendants, from /proc."""
    total = 0
    stack = [pid]
    while stack:
        p = stack.pop()
        try:
            with open(f"/proc/{p}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            with open(f"/proc/{p}/task/{p}/children", encoding="ascii") as fh:
                stack.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError):
            continue
    return total


class CliBatchWeighted:
    """One ``riccicrit curvature FILE --all --route flow --jobs 2`` process per op.

    Weights 1..5 send distances down Dijkstra and keep costs outside 0..3;
    the flow route bypasses the Hungarian solver and the F_p engine. The
    graph is small enough that a run holds a few dozen invocations, so the
    per-invocation latency has a tail to report.
    """

    name = "cli-batch-weighted"
    probe_inside = False
    SIZES = {"full": (60, 300, 40), "tiny": (14, 30, 6)}
    JOBS = 2

    def __init__(self, rc, seed: int, size: str, work_dir: Path):
        self.rc = rc
        n, m, sampled = self.SIZES[size]
        rng = random.Random(f"{self.name}:{seed}")
        self.n = n
        self.edges = connected_weighted_edges(rng, n, m, 5)
        self.pairs = [(u, v) for u, v, _ in self.edges]
        work_dir.mkdir(parents=True, exist_ok=True)
        self.work_dir = work_dir
        self.path = work_dir / "graph.edges"
        self.path.write_text("".join(f"{u} {v} {w}\n" for u, v, w in self.edges), encoding="utf-8")
        g = rc.Graph(n, self.edges, weighted=True)
        self.refs = {e: rc.ricci(g, e, route="flow").ric for e in rng.sample(self.pairs, sampled)}
        self.order = [0]
        self.env = program_env(Path(rc.__file__).resolve().parent.parent)
        self.peak_tree_kb = 0
        self.output_bytes: list[int] = []
        # One untimed invocation first, so byte-compiled modules exist.
        self.run_cli()

    def argv(self, jobs: int) -> list[str]:
        return ["curvature", str(self.path), "--all", "--route", "flow", "--jobs", str(jobs)]

    def run_cli(self) -> tuple[int, bytes]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "riccicrit.cli", *self.argv(self.JOBS)],
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        done = threading.Event()

        def sample_rss():
            while not done.wait(0.02):
                self.peak_tree_kb = max(self.peak_tree_kb, _tree_rss_kb(proc.pid))

        sampler = threading.Thread(target=sample_rss, daemon=True)
        sampler.start()
        try:
            out, err = proc.communicate()
        finally:
            done.set()
            sampler.join()
        if proc.returncode != 0:
            sys.stderr.write(err.decode("utf-8", "replace")[-2000:])
        return proc.returncode, out

    def build(self):
        return self.rc.load_edge_list(self.path)

    def op(self, _g, slot: int, p: int):
        return self.run_cli()

    def check(self, slot: int, p: int, out) -> bool:
        code, stdout = out
        self.output_bytes.append(len(stdout))
        return code == 0 and self.check_payload(json.loads(stdout))

    def check_payload(self, payload: dict) -> bool:
        records = payload["results"]
        if [tuple(r["edge"]) for r in records] != self.pairs:
            return False
        for r in records:
            if "error" in r:
                return False
            e = tuple(r["edge"])
            if e in self.refs and Fraction(r["ric"]["num"], r["ric"]["den"]) != self.refs[e]:
                return False
        return True

    def units(self, slot: int) -> int:
        return len(self.pairs)

    def inprocess_op(self, _g, slot: int, p: int):
        """The same batch through ``riccicrit.cli.main`` in this process, --jobs 1."""
        out = self.work_dir / "inprocess.json"
        code = self.rc.cli.main([*self.argv(1), "--output", str(out)])
        return code, out.read_bytes()

    def pickled_bytes(self) -> int:
        """Bytes the pool pickles per run: one (graph, edge, route) item per edge."""
        return len(pickle.dumps((self.build(), self.pairs[0], "flow"))) * len(self.pairs)

    def describe(self) -> str:
        return f"weighted graph n={self.n}, m={len(self.edges)}, --jobs {self.JOBS}"


# -- solve ----------------------------------------------------------------------------


# Degree classes (du, dv, cross-edge probability) of the criterion-6 pool.
# (3, 5) gives q=12, b=2, the small class of test_randomized_general_bound;
# most of the pool is drawn from it so the latency percentiles fall inside
# one class instead of between classes whose costs differ tenfold.
MAIN_CLASS = (3, 5, 0.3)
OTHER_CLASSES = [(2, 5, 0.3), (3, 7, 0.25), (4, 9, 0.3), (5, 11, 0.35), (3, 3, 0.25), (4, 4, 0.3)]
Q40_CLASS = (4, 7, 0.3)  # r=5, s=8: q=40, b=5
Q40_SEED = "solve:q40"
OTHER_SEED = "solve:other"
# randomized_insert seeds of the instances drawn from a fixed seed.
FIXED_SOLVER_SEED = 10**12
# brute_force_opt is exponential in the optimum; instances whose reference
# would search more subsets than this are redrawn.
BRUTE_FORCE_BUDGET = 2000


def brute_force_subsets(candidates: int, best: int) -> int:
    """Subsets brute force searches below an edit set of size ``best``."""
    return sum(math.comb(candidates, k) for k in range(1, best))


class Solve:
    """Every solver on a pool of critical-edge instances, one instance per op.

    An op runs ``feasible_by_saturation``, then ``greedy_insert`` and
    ``randomized_insert`` where the variant has them, then
    ``brute_force_opt`` over every edit set smaller than the best one found.
    Its answer, or else the best found set, is the exact optimum the
    approximations are measured against. On the tightness gadget greedy
    must spend m edits where m/2 are optimal.

    The pool holds no-side-edges double stars from the criterion-6 degree
    classes, the blocker (uw-rt-del-ptn) and maxcov (wt-rt-ins-ntp)
    gadgets, the tightness gadget at m=6 with greedy from its adversarial
    start, and a q=40, b=5 double star from the
    ``test_randomized_general_bound`` class. One such instance takes
    ``randomized_insert`` 7 to 30 s depending on its cross edges, so it is
    drawn from a fixed seed: drawn from the run's seed, it alone would
    decide every solve figure. The instances of the other degree classes
    differ by more than 10x in op time, so they too come from
    a fixed seed, and the run's seed draws the main-class instances, the
    gadgets and the order. The fixed instances get the same
    ``randomized_insert`` seeds in every run. The heavy slots run first in
    each pass.
    """

    name = "solve"
    probe_inside = True
    SIZES = {"full": (56, 2, True, 6), "tiny": (2, 1, False, 4)}

    def __init__(self, rc, seed: int, size: str, work_dir: Path):
        self.rc = rc
        main_count, other_count, with_q40, tight_m = self.SIZES[size]
        rng = random.Random(f"{self.name}:{seed}")
        self.specs: list[dict] = []
        if with_q40:
            self.specs.append(self._spade_spec(random.Random(Q40_SEED), *Q40_CLASS))
        self.specs.append({"kind": "tight", "m": tight_m})
        self.specs += [self._spade_spec(rng, *MAIN_CLASS) for _ in range(main_count)]
        fixed = random.Random(OTHER_SEED)
        others = [self._spade_spec(fixed, *c) for c in OTHER_CLASSES for _ in range(other_count)]
        self.fixed_slots = ({0} if with_q40 else set()) | set(range(len(self.specs), len(self.specs) + len(others)))
        self.specs += others
        self.specs.append(self._blocker_spec(rng))
        self.specs.append(self._maxcov_spec(rng))
        heavy = 2 if with_q40 else 1
        rest = list(range(heavy, len(self.specs)))
        rng.shuffle(rest)
        self.order = list(range(heavy)) + rest
        self.seed = seed
        self.edit_sums = {"greedy": 0, "randomized": 0, "opt": 0}
        self._summed: set[int] = set()

    def _spade_spec(self, rng: random.Random, du: int, dv: int, p: float) -> dict:
        rc = self.rc
        variant = rc.ProblemVariant.parse("uw-rt-ins-ntp")
        while True:
            cross = sorted((i, j) for i in range(du - 1) for j in range(dv - 1) if rng.random() < p)
            n, edges = double_star_edges(du, dv, cross)
            g = rc.Graph(n, edges)
            if rc.ricci(g, (0, 1), route="flow").sign != rc.Sign.NEGATIVE:
                continue
            inst = rc.Instance(g, (0, 1), variant)
            if not rc.feasible_by_saturation(inst)[0]:
                continue
            greedy = len(rc.greedy_insert(inst).edits)
            if brute_force_subsets(len(rc.permissible_edits(inst)), greedy) <= BRUTE_FORCE_BUDGET:
                return {"kind": "spade", "n": n, "edges": edges}

    def _blocker_spec(self, rng: random.Random) -> dict:
        n = rng.randint(3, 6)
        perm = list(range(n))
        rng.shuffle(perm)
        inner = {(i, perm[i]) for i in range(n)}
        inner |= {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.25}
        return {"kind": "blocker", "n": n, "h0": sorted(inner)}

    def _maxcov_spec(self, rng: random.Random) -> dict:
        n = rng.randint(2, 5)
        sets = [sorted(rng.sample(range(n), rng.randint(1, max(1, n // 2)))) for _ in range(rng.randint(1, 3))]
        covered = set().union(*sets)
        sets.append(sorted(set(range(n)) - covered) or [rng.randrange(n)])
        return {"kind": "maxcov", "n": n, "sets": sets, "kappa": rng.randint(1, len(sets))}

    def build(self):
        rc = self.rc
        pool = []
        for spec in self.specs:
            start = None
            if spec["kind"] == "spade":
                g, e, variant = rc.Graph(spec["n"], spec["edges"]), (0, 1), "uw-rt-ins-ntp"
            elif spec["kind"] == "tight":
                g, e, start, _ = rc.gen_tightness_graph(spec["m"])
                variant = "uw-rt-ins-ntp"
            elif spec["kind"] == "blocker":
                g, e, _ = rc.gen_blocker(spec["n"], spec["h0"])
                variant = "uw-rt-del-ptn"
            else:
                g, e, _ = rc.gen_maxcov(spec["n"], spec["sets"], spec["kappa"])
                variant = "wt-rt-ins-ntp"
            pool.append((rc.Instance(g, e, rc.ProblemVariant.parse(variant)), start))
        return pool

    def op(self, pool, slot: int, p: int) -> dict:
        rc = self.rc
        inst, start = pool[slot]
        out = {"instance": inst, "saturation": rc.feasible_by_saturation(inst)}
        if inst.variant.key == "uw-rt-ins-ntp":
            out["greedy"] = rc.greedy_insert(inst, start)
            out["randomized"] = rc.randomized_insert(inst, seed=self.solver_seed(slot, p))
        found = [out["saturation"][1]] + [out[k] for k in ("greedy", "randomized") if k in out]
        # Every set below the best one found: a hit is the optimum, a miss
        # proves the best found set optimal.
        out["smaller"] = rc.brute_force_opt(inst, min(len(sol.edits) for sol in found if sol) - 1)
        return out

    def solver_seed(self, slot: int, p: int) -> int:
        """The ``randomized_insert`` seed of one op.

        Each call in a run gets its own seed, so no call finds the signature
        cubes of an earlier one in the program's cube cache. A slot drawn
        from a fixed seed gets the same seeds in every run.
        """
        base = FIXED_SOLVER_SEED if slot in self.fixed_slots else self.seed * 1_000_000
        return base + p * len(self.specs) + slot

    def _verified(self, inst, sol) -> bool:
        """Re-apply the edit set to a fresh graph and re-check the sign."""
        rc = self.rc
        g = inst.graph
        if inst.variant.operation == "ins":
            edges = list(g.edges()) + [(a, b, w) for (a, b), w in sol.edits]
        else:
            gone = {tuple(sorted(pair)) for pair in sol.edits}
            edges = [t for t in g.edges() if (t[0], t[1]) not in gone]
            if len(edges) != g.edge_count() - len(gone):
                return False
        edited = rc.Graph(g.node_count, edges, weighted=g.weighted)
        after = rc.ricci(edited, inst.edge, route="flow")
        demanded = rc.Sign.POSITIVE if inst.variant.direction == "ntp" else rc.Sign.NEGATIVE
        return after.sign == demanded and after.ric == sol.resulting_ric

    def check(self, slot: int, p: int, out: dict) -> bool:
        inst = out["instance"]
        feasible, saturated = out["saturation"]
        if not feasible:
            return False
        approx = [out[k] for k in ("greedy", "randomized") if k in out]
        solutions = [saturated, *approx] + ([out["smaller"]] if out["smaller"] else [])
        if not all(self._verified(inst, sol) for sol in solutions):
            return False
        opt = min(len(sol.edits) for sol in solutions)
        spec = self.specs[slot]
        if spec["kind"] == "tight" and (len(out["greedy"].edits), opt) != (spec["m"], spec["m"] // 2):
            return False
        if approx and slot not in self._summed:
            self._summed.add(slot)
            self.edit_sums["greedy"] += len(out["greedy"].edits)
            self.edit_sums["randomized"] += len(out["randomized"].edits)
            self.edit_sums["opt"] += opt
        return True

    def units(self, slot: int) -> int:
        return 1

    def describe(self) -> str:
        kinds: dict[str, int] = {}
        for spec in self.specs:
            kinds[spec["kind"]] = kinds.get(spec["kind"], 0) + 1
        return "pool " + ", ".join(f"{k}={v}" for k, v in kinds.items())


WORKLOADS = {w.name: w for w in (RicciSparse, CliBatchWeighted, Solve)}
