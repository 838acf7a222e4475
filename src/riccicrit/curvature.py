"""Exact Ollivier-Ricci curvature of graph edges via optimal transport.

For an edge {u, v} the curvature is 1 - EMD/dist(u, v), where EMD is the
earth mover's distance between the uniform distributions on the two closed
neighborhoods under the shortest-path metric. Two independent routes compute
the same exact rational:

* the matching route replicates the r x s neighborhood cost matrix into a
  q x q matrix (q = lcm(r, s)) whose minimum-cost perfect matchings have cost
  exactly q * EMD; the matching solver groups the blow-up's runs of identical
  rows and columns back into the r x s transportation problem, solves that
  by the primal-dual method (one Dijkstra per phase) and expands the
  lexicographically smallest optimal matching a run of rows at a time, and
* the flow route solves the transportation LP directly as an integer
  min-cost-flow (networkx network simplex) after scaling both marginals by q.

The matching route is the default because downstream solvers consume the
matching witness; the flow route stays as the independent oracle and also
avoids building the blown-up matrix when q is huge. networkx is imported on
the first flow-route call, so the matching route never loads it. Building
the blow-up (r distinct rows of q cells, each row object repeated a times)
and folding the q matched pairs back into a plan run at C speed
(``itertools``, ``collections.Counter``).

Both routes start from the same ``CostMatrix``, the one per-edge object that
``build_cost_matrix`` returns: the r x s distances between N[u] and N[v].
The edge itself joins every node of N[u] to every node of N[v], so no entry
exceeds that path's length, and the entry of u's row at v's column is
dist(u, v). Unweighted entries follow from radius-1 balls by the solvers'
own rule (``_adjacency_costs``); weighted rows from bounded Dijkstra balls.
"""

from __future__ import annotations

import enum
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from operator import floordiv

from .errors import BlowUpTooLargeError, RicciCritError
from .graphs import Graph, ordered_pair
from .matching import Matching, matching_cost, min_cost_perfect_matching

DEFAULT_BLOWUP_CAP = 10_000
BLOWUP_CAP_ENV = "RICCI_BLOWUP_CAP"


class Sign(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    ZERO = "zero"


def sign_of(value: Fraction) -> Sign:
    if value > 0:
        return Sign.POSITIVE
    if value < 0:
        return Sign.NEGATIVE
    return Sign.ZERO


def fraction_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


@dataclass(frozen=True)
class CostMatrix:
    """Complete bipartite cost matrix between the two closed neighborhoods.

    ``costs[i][j]`` is the exact shortest-path distance between row node i
    and column node j.
    """

    u: int
    v: int
    row_nodes: tuple[int, ...]
    col_nodes: tuple[int, ...]
    costs: tuple[tuple[int, ...], ...]

    @cached_property
    def touchable(self) -> tuple[tuple[bool, ...], ...]:
        """An entry is touchable when neither of its endpoints is u or v; only
        touchable entries can be lowered by a restricted edge insertion."""
        ends = {self.u, self.v}
        return tuple(
            tuple(x not in ends and y not in ends for y in self.col_nodes) for x in self.row_nodes
        )

    @property
    def r(self) -> int:
        return len(self.row_nodes)

    @property
    def s(self) -> int:
        return len(self.col_nodes)

    def mirror_pairs(self) -> tuple[tuple[int, int], ...]:
        """(row index, column index) pairs that name the same graph node:
        u, v, and every common neighbor."""
        col_of = {node: j for j, node in enumerate(self.col_nodes)}
        return tuple((i, col_of[node]) for i, node in enumerate(self.row_nodes) if node in col_of)


@dataclass(frozen=True)
class BlowUpMatrix:
    """q x q replication of a CostMatrix, q = lcm(r, s).

    Row copies of row node i occupy rows i*a..(i+1)*a-1 and column copies of
    column node j occupy cols j*b..(j+1)*b-1; every cell of a block carries
    the source entry's cost.
    """

    source: CostMatrix
    q: int
    a: int
    b: int
    costs: tuple[tuple[int, ...], ...]

    def block(self, row: int, col: int) -> tuple[int, int]:
        return (row // self.a, col // self.b)

    def touchable(self, row: int, col: int) -> bool:
        i, j = self.block(row, col)
        return self.source.touchable[i][j]

    def touchable_mask(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(
            tuple(self.touchable(row, col) for col in range(self.q)) for row in range(self.q)
        )


@dataclass(frozen=True)
class TransportPlan:
    """Rational flow between the two neighborhood distributions."""

    entries: tuple[tuple[int, int, Fraction], ...]  # (from node, to node, mass)
    total_cost: Fraction

    def to_json_list(self) -> list[dict]:
        return [
            {"from": a, "to": b, "mass": fraction_json(m)}
            for a, b, m in self.entries
        ]


@dataclass(frozen=True)
class CurvatureResult:
    emd: Fraction
    dist_uv: int
    ric: Fraction
    sign: Sign
    witness: TransportPlan

    def to_json_dict(self) -> dict:
        return {
            "emd": fraction_json(self.emd),
            "emd_str": f"{self.emd.numerator}/{self.emd.denominator}",
            "dist_uv": self.dist_uv,
            "ric": fraction_json(self.ric),
            "ric_str": f"{self.ric.numerator}/{self.ric.denominator}",
            "sign": self.sign.value,
            "plan": self.witness.to_json_list(),
        }


def _adjacency_costs(rows, cols, near) -> list[list[int]]:
    """Unweighted distances from each of ``rows`` to each of ``cols``, in order.

    ``near(x)`` is x's open or closed neighborhood. The nodes lie in N[u] and
    N[v] of an edge u-v, joined along x-u-v-y, so an entry is 0 if x = y, 1 if
    y is near x, 2 if their neighborhoods meet, else 3.
    """
    col_sets = [(y, near(y)) for y in cols]
    costs = []
    for x in rows:
        near_x = near(x)
        costs.append([0 if x == y else 1 if y in near_x else 3 if near_x.isdisjoint(ny) else 2 for y, ny in col_sets])
    return costs


def build_cost_matrix(g: Graph, e: tuple[int, int]) -> CostMatrix:
    """The ``CostMatrix`` of an existing edge: exact distances from N[u] to N[v].

    The lower-degree endpoint supplies the rows (ties broken toward the
    smaller node id). Unweighted entries follow ``_adjacency_costs`` on
    radius-1 balls; weighted row x is read from x's ball of radius
    max w(x, u) + w(u, v) + max w(v, y), which holds every column node.
    """
    a, b = e
    if not g.has_edge(a, b):
        raise ValueError(f"({a}, {b}) is not an edge")
    if (g.degree(a), a) <= (g.degree(b), b):
        u, v = a, b
    else:
        u, v = b, a
    vu = g.closed_neighborhood(u)
    vv = g.closed_neighborhood(v)
    if g.weighted:
        radius = (
            max(g.weight(x, u) for x in vu if x != u)
            + g.weight(u, v)
            + max(g.weight(v, y) for y in vv if y != v)
        )
        balls = [g.distances_from(x, radius) for x in vu]
        costs = tuple(tuple(ball[y] for y in vv) for ball in balls)
    else:
        costs = tuple(map(tuple, _adjacency_costs(vu, vv, lambda x: g.distances_from(x, 1).keys())))
    return CostMatrix(u, v, vu, vv, costs)


def blowup_cap() -> int:
    env = os.environ.get(BLOWUP_CAP_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise RicciCritError(f"{BLOWUP_CAP_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_BLOWUP_CAP


def blow_up(cm: CostMatrix) -> BlowUpMatrix:
    """Replicate the cost matrix to a q x q matrix, q = lcm(r, s).

    Each row node's expanded row (every entry repeated b times) is built
    once, and its a copies in the blow-up are that same tuple. ``itertools``
    repeats the cells at C speed, so the Python work is one step per row
    node, not per cell.
    """
    r, s = cm.r, cm.s
    q = math.lcm(r, s)
    limit = blowup_cap()
    if q > limit:
        raise BlowUpTooLargeError(f"blow-up size q={q} exceeds cap {limit}")
    a, b = q // r, q // s
    rows = (tuple(chain.from_iterable(map(repeat, row, repeat(b, s)))) for row in cm.costs)
    costs = tuple(chain.from_iterable(map(repeat, rows, repeat(a, r))))
    return BlowUpMatrix(cm, q, a, b, costs)


def emd_via_matching(bm: BlowUpMatrix) -> tuple[Fraction, Matching]:
    """EMD as mcpm(blow-up)/q, with the witnessing min-cost perfect matching."""
    m = min_cost_perfect_matching(bm.costs)
    return Fraction(m.cost, bm.q), m


def emd_via_flow(cm: CostMatrix) -> tuple[Fraction, TransportPlan]:
    """EMD by integer min-cost flow on the r x s transportation problem.

    Scaling both marginals by q = lcm(r, s) gives integer supplies a per row
    and demands b per column; network simplex then returns an integral
    optimal flow whose cost divided by q is the exact EMD.
    """
    r, s = cm.r, cm.s
    q = math.lcm(r, s)
    a, b = q // r, q // s
    import networkx as nx  # here, so that importing riccicrit does not load networkx

    g = nx.DiGraph()
    g.add_nodes_from((("r", i), {"demand": -a}) for i in range(r))
    g.add_nodes_from((("c", j), {"demand": b}) for j in range(s))
    g.add_edges_from(
        (("r", i), ("c", j), {"weight": c, "capacity": b}) for i, row in enumerate(cm.costs) for j, c in enumerate(row)
    )
    flow = nx.min_cost_flow(g)
    entries = []
    total = 0
    for i in range(r):
        for j in range(s):
            f = flow[("r", i)][("c", j)]
            if f:
                entries.append((cm.row_nodes[i], cm.col_nodes[j], Fraction(f, q)))
                total += cm.costs[i][j] * f
    return Fraction(total, q), TransportPlan(tuple(entries), Fraction(total, q))


def plan_from_matching(bm: BlowUpMatrix, m: Matching) -> TransportPlan:
    """Aggregate a perfect matching of the blow-up into a transport plan.

    Each matched copy pair ships mass 1/q between its block's nodes, so the
    plan costs cost(m)/q and meets the row-sum 1/r and column-sum 1/s
    constraints exactly. The pairs are counted per block at C speed; the
    Python work is per block that ships, not per row.
    """
    if len(m.assignment) != bm.q:
        raise ValueError("matching size does not match the blow-up")
    q, a, b = bm.q, bm.a, bm.b
    cell_count = Counter(zip(map(floordiv, range(q), repeat(a)), map(floordiv, m.assignment, repeat(b))))
    entries = []
    total = 0
    for (i, j), cnt in sorted(cell_count.items()):
        entries.append((bm.source.row_nodes[i], bm.source.col_nodes[j], Fraction(cnt, q)))
        total += bm.source.costs[i][j] * cnt
    if total != m.cost:
        raise ValueError("matching cost does not match the blow-up costs")
    return TransportPlan(tuple(entries), Fraction(total, q))


def canonicalize_matching(bm: BlowUpMatrix, m: Matching) -> Matching:
    """Rearrange a min-cost matching so every mirrored node feeds itself.

    For each (row index, column index) pair naming the same graph node (u, v,
    and each common neighbor), the result matches all b column copies to row
    copies of the same node at zero cost. Each exchange swaps two matched
    edges for two others of no greater total weight (the metric triangle
    through the mirrored node), so the cost is preserved exactly for min-cost
    input; non-optimal input is rejected. A mirrored node's a row copies can
    feed its b column copies only if a >= b, that is r <= s, as
    ``build_cost_matrix`` makes it; other input is rejected too.
    """
    optimal = min_cost_perfect_matching(bm.costs)
    if m.cost != optimal.cost or matching_cost(bm.costs, m.assignment) != m.cost:
        raise ValueError("canonicalization requires a minimum-cost perfect matching")
    a, b = bm.a, bm.b
    pairs = bm.source.mirror_pairs()
    if pairs and a < b:
        raise ValueError(
            f"canonicalization needs no more row nodes than column nodes, got r={bm.source.r}, s={bm.source.s}"
        )
    assignment = list(m.assignment)
    col_to_row = {c: r for r, c in enumerate(assignment)}
    for i, j in pairs:
        row_copies = set(range(i * a, (i + 1) * a))
        for col in range(j * b, (j + 1) * b):
            r0 = col_to_row[col]
            if r0 in row_copies:
                continue
            # Some copy of the mirrored node is matched outside its own
            # column group; swap partners with it.
            src = next(r for r in sorted(row_copies) if assignment[r] not in range(j * b, (j + 1) * b))
            other_col = assignment[src]
            assignment[src], assignment[r0] = col, other_col
            col_to_row[col], col_to_row[other_col] = src, r0
    new_cost = matching_cost(bm.costs, assignment)
    if new_cost != m.cost:
        raise AssertionError("canonicalization changed the matching cost")
    return Matching(tuple(assignment), new_cost)


def ricci(
    g: Graph,
    e: tuple[int, int],
    *,
    route: str = "matching",
) -> CurvatureResult:
    """Exact Ollivier-Ricci curvature of an edge.

    The unweighted formula 1 - EMD is the weighted one with dist(u, v) = 1,
    so both cases share 1 - EMD/dist(u, v); dist(u, v) is the cost matrix's
    entry at u's row and v's column. The sign is reported as a three-valued
    enum; callers that need a strict inequality must demand it themselves.
    """
    cm = build_cost_matrix(g, e)
    dist_uv = cm.costs[cm.row_nodes.index(cm.u)][cm.col_nodes.index(cm.v)]
    if route == "matching":
        bm = blow_up(cm)
        emd, m = emd_via_matching(bm)
        witness = plan_from_matching(bm, m)
    elif route == "flow":
        emd, witness = emd_via_flow(cm)
    else:
        raise ValueError(f"unknown route {route!r}")
    ric = 1 - emd / dist_uv
    return CurvatureResult(emd, dist_uv, ric, sign_of(ric), witness)


def edge_ref(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError("an edge needs two distinct endpoints")
    return ordered_pair(u, v)
