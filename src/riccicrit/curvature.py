"""Exact Ollivier-Ricci curvature of graph edges via optimal transport.

For an edge {u, v} the curvature is 1 - EMD/dist(u, v), where EMD is the
earth mover's distance between the uniform distributions on the two closed
neighborhoods under the shortest-path metric. Two independent routes compute
the same exact rational:

* the matching route replicates the r x s neighborhood cost matrix into a
  q x q matrix (q = lcm(r, s)) whose minimum-cost perfect matchings have cost
  exactly q * EMD; the blow-up is a view of the r x s blocks, and the matching
  solver groups runs of identical block rows and columns into the r x s
  transportation problem (Hitchcock 1941) without building a row of the q x q
  matrix, solves that by the primal-dual method (one Dijkstra per phase) and
  expands the lexicographically smallest optimal matching a run of rows at a
  time, and
* the flow route solves the transportation LP directly as an integer
  min-cost-flow (networkx network simplex) after scaling both marginals by q.

The matching route is the default because it needs only the standard
library, and its plan is deterministic: the lexicographically smallest
optimal matching, folded into blocks. networkx is imported on the first
flow-route call, so the matching route never loads it. The matching route
also returns its optimal duals, and ``certificate_fault`` checks the answer
by them, in integers, without a second solver: the solvers verify each edit
set they return that way. The flow route stays as the independent oracle,
of the CLI's checks and the tests. Both answer every edge: the
matching route reads the r x s blocks and q-length lists, never q² cells.
Folding the q matched pairs back into a plan runs at C speed
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
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import floordiv

from .graphs import Graph, ordered_pair
from .matching import Matching, _BlockRows, matching_cost, min_cost_perfect_matching


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
    def dist_uv(self) -> int:
        """dist(u, v): the entry at u's row and v's column."""
        return self.costs[self.row_nodes.index(self.u)][self.col_nodes.index(self.v)]

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
    the source entry's cost. ``costs`` is a read-only view of the source's
    r x s costs that reads as the q x q tuple of rows; the matching kernel
    reads its blocks, and a row is built only when something indexes it.
    """

    source: CostMatrix
    q: int
    a: int
    b: int
    costs: _BlockRows

    def block(self, row: int, col: int) -> tuple[int, int]:
        return (row // self.a, col // self.b)

    def touchable(self, row: int, col: int) -> bool:
        i, j = self.block(row, col)
        return self.source.touchable[i][j]

    def touchable_mask(self) -> _BlockRows:
        """The q x q mask of touchable cells, a view of the source's mask as ``costs`` is of its costs."""
        return _BlockRows(self.source.touchable, self.a, self.b)


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
    """An edge's curvature and its plan; the matching route also carries the
    edge's cost matrix and its optimal duals (pot_r, pot_c), one per row and
    column node, which ``certificate_fault`` checks. They take no part in
    ``==`` or the JSON."""

    emd: Fraction
    dist_uv: int
    ric: Fraction
    sign: Sign
    witness: TransportPlan
    cost_matrix: CostMatrix | None = field(default=None, compare=False, repr=False)
    duals: tuple[tuple[int, ...], tuple[int, ...]] | None = field(default=None, compare=False, repr=False)

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

    ``near(x)`` is x's open or closed neighborhood, and ``cols`` are distinct
    nodes. The nodes lie in N[u] and N[v] of an edge u-v, joined along
    x-u-v-y, so an entry is 0 if x = y, 1 if y is near x, 2 if their
    neighborhoods meet, else 3. The columns whose neighborhoods hold a node
    are listed once, so a row finds its 2s from the nodes near it, not by
    testing every column's neighborhood against its own.
    """
    holding: dict = {}  # node -> the columns whose neighborhoods hold it
    for j, y in enumerate(cols):
        for z in near(y):
            holding.setdefault(z, []).append(j)
    col_of = {y: j for j, y in enumerate(cols)}
    costs = []
    for x in rows:
        near_x = near(x)
        row = [3] * len(cols)
        for z in near_x:
            for j in holding.get(z, ()):
                row[j] = 2
        for z in near_x:
            if z in col_of:
                row[col_of[z]] = 1
        if x in col_of:
            row[col_of[x]] = 0
        costs.append(row)
    return costs


def build_cost_matrix(g: Graph, e: tuple[int, int]) -> CostMatrix:
    """The ``CostMatrix`` of an existing edge: exact distances from N[u] to N[v].

    The lower-degree endpoint supplies the rows (ties broken toward the
    smaller node id). Unweighted entries follow ``_adjacency_costs`` on
    radius-1 balls; weighted row x is read from x's ball of radius
    max w(x, u) + w(u, v) + max w(v, y), which holds every column node.
    """
    a, b = e
    deg_a, deg_b = g.degree(a), g.degree(b)  # both ids checked before the edge is looked up
    if not g.has_edge(a, b):
        raise ValueError(f"({a}, {b}) is not an edge")
    if (deg_a, a) <= (deg_b, b):
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


def blow_up(cm: CostMatrix) -> BlowUpMatrix:
    """Replicate the cost matrix to a q x q matrix, q = lcm(r, s).

    The replication is a view of ``cm.costs`` with a = q/r row copies and
    b = q/s column copies, so no cell is copied: a row is built on first
    read, once per row node.
    """
    r, s = cm.r, cm.s
    q = math.lcm(r, s)
    a, b = q // r, q // s
    return BlowUpMatrix(cm, q, a, b, _BlockRows(cm.costs, a, b))


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
    g.add_nodes_from((("r", i) for i in range(r)), demand=-a)
    g.add_nodes_from((("c", j) for j in range(s)), demand=b)
    g.add_weighted_edges_from(
        ((("r", i), ("c", j), c) for i, row in enumerate(cm.costs) for j, c in enumerate(row)), capacity=b
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
    if m.cost != min_cost_perfect_matching(bm.costs).cost:
        raise ValueError("canonicalization requires a minimum-cost perfect matching")
    return _mirror_swaps(bm, m)


def _mirror_swaps(bm: BlowUpMatrix, m: Matching) -> Matching:
    """``canonicalize_matching``'s swaps, for a matching the caller knows is min-cost.

    The solver's own optimum needs no re-solve to prove it; ``m.cost`` is
    still checked against the assignment's cost on the blow-up.
    """
    if matching_cost(bm.costs, m.assignment) != m.cost:
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
    dist_uv = cm.dist_uv
    if route == "matching":
        bm = blow_up(cm)
        emd, m = emd_via_matching(bm)
        ric = 1 - emd / dist_uv
        return CurvatureResult(emd, dist_uv, ric, sign_of(ric), plan_from_matching(bm, m), cm, (m.pot_r, m.pot_c))
    if route == "flow":
        emd, witness = emd_via_flow(cm)
        ric = 1 - emd / dist_uv
        return CurvatureResult(emd, dist_uv, ric, sign_of(ric), witness)
    raise ValueError(f"unknown route {route!r}")


def certificate_fault(res: CurvatureResult) -> str | None:
    """None when a matching-route answer's duals prove its plan optimal and its
    curvature right; else the first check that fails.

    In units of 1/q, q = lcm(r, s), the plan F must ship a = q/r from each
    row node and b = q/s to each column node. Duals with every reduced cost
    c_ij + pot_r_i - pot_c_j >= 0 bound the cost of every such plan below by
    b·sum(pot_c) - a·sum(pot_r) (weak duality); a plan that ships only on
    cells of reduced cost 0 meets that bound, so it is optimal (Kantorovich
    duality). Its cost must also be q·EMD, and ric and sign must follow from
    EMD and dist(u, v). Integers only, one pass over the r x s cells.
    """
    cm, duals = res.cost_matrix, res.duals
    if cm is None or duals is None:
        return "the answer carries no duals"
    pot_r, pot_c = duals
    r, s = cm.r, cm.s
    if len(pot_r) != r or len(pot_c) != s:
        return f"{len(pot_r)} x {len(pot_c)} duals for an {r} x {s} cost matrix"
    q = math.lcm(r, s)
    a, b = q // r, q // s
    row_of = {x: i for i, x in enumerate(cm.row_nodes)}
    col_of = {y: j for j, y in enumerate(cm.col_nodes)}
    flow = [[0] * s for _ in range(r)]
    for x, y, mass in res.witness.entries:
        if x not in row_of or y not in col_of or q % mass.denominator or mass < 0:
            return f"the plan ships {mass} from {x} to {y}, not a cell's whole units of 1/q"
        flow[row_of[x]][col_of[y]] += mass.numerator * (q // mass.denominator)
    if any(sum(row) != a for row in flow) or any(sum(col) != b for col in zip(*flow)):
        return f"a row of the plan does not ship {a}/q or a column does not take {b}/q"
    total = 0
    for x, costs, shipped, p in zip(cm.row_nodes, cm.costs, flow, pot_r):
        for y, c, f, pc in zip(cm.col_nodes, costs, shipped, pot_c):
            reduced = c + p - pc
            if reduced < 0:
                return f"reduced cost {reduced} < 0 from {x} to {y}"
            if f and reduced:
                return f"the plan ships on reduced cost {reduced} from {x} to {y}"
            total += c * f
    bound = b * sum(pot_c) - a * sum(pot_r)
    if total != bound:
        return f"the plan costs {total}/q, the duals bound it by {bound}/q"
    emd, ric, dist = res.emd, res.ric, res.dist_uv
    if total * emd.denominator != emd.numerator * q:
        return f"the plan costs {total}/q, not the EMD {emd}"
    # ric = 1 - EMD/dist(u, v) = (q·dist - total) / (q·dist), compared in integers.
    if dist != cm.dist_uv or ric.numerator * q * dist != ric.denominator * (q * dist - total) or res.sign != sign_of(ric):
        return "ric or its sign does not follow from the EMD and dist(u, v)"
    return None


def edge_ref(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError("an edge needs two distinct endpoints")
    return ordered_pair(u, v)
