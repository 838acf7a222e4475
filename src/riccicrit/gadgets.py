"""Deterministic generators for the hardness-construction instance families.

Each generator builds the unamplified combinatorial skeleton of a reduction
instance and documents its node-id layout, so tests can address the named
roles and assert the exact curvature values the constructions pin down. The
polynomial amplification used in the original reductions only widens gaps
and is deliberately omitted; every exact identity tested here survives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curvature import CostMatrix
from .graphs import Graph
from .matching import Matching, min_cost_perfect_matching


@dataclass(frozen=True)
class GadgetDescriptor:
    kind: str  # maxcov | blocker | setcover | tightness
    named_nodes: dict
    parameters: dict

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "named_nodes": dict(sorted(self.named_nodes.items())),
            "parameters": self.parameters,
        }


def _validate_cover(universe_size: int, sets: list) -> list[frozenset]:
    if universe_size < 1:
        raise ValueError("universe must be non-empty")
    clean = []
    covered: set[int] = set()
    for s in sets:
        fs = frozenset(s)
        for x in fs:
            if not (0 <= x < universe_size):
                raise ValueError(f"element {x} outside universe 0..{universe_size - 1}")
        covered |= fs
        clean.append(fs)
    if covered != set(range(universe_size)):
        raise ValueError("the sets do not cover the universe")
    return clean


def gen_maxcov(universe_size: int, sets: list, kappa: int) -> tuple[Graph, tuple[int, int], GadgetDescriptor]:
    """Coverage gadget: a weighted graph whose edge {u, v} starts negatively
    curved and crosses to positive exactly when the solution node is wired to
    the set nodes of a good cover.

    Layout: u=0, v=1, solution node u_T=2, set nodes 3..m+2, element nodes
    m+3..m+n+2, then 2n+2m-2 sink nodes. Weights: w(u,v)=2, w(u,u_T)=3, set
    and element edges at v weigh 3, sink edges 1, membership and set-clique
    edges 1.
    """
    clean = _validate_cover(universe_size, sets)
    m = len(clean)
    n = universe_size
    if not 1 <= kappa <= m:
        raise ValueError(f"kappa must be in 1..{m}")
    u, v, u_t = 0, 1, 2
    set_ids = {k: 3 + k for k in range(m)}
    elem_ids = {i: 3 + m + i for i in range(n)}
    sink_count = 2 * n + 2 * m - 2
    sink_ids = [3 + m + n + t for t in range(sink_count)]
    node_count = 3 + m + n + sink_count
    edges = [(u, v, 2), (u, u_t, 3)]
    edges += [(v, set_ids[k], 3) for k in range(m)]
    edges += [(v, elem_ids[i], 3) for i in range(n)]
    edges += [(v, t, 1) for t in sink_ids]
    for k, s in enumerate(clean):
        for i in sorted(s):
            edges.append((set_ids[k], elem_ids[i], 1))
    for k1 in range(m):
        for k2 in range(k1 + 1, m):
            edges.append((set_ids[k1], set_ids[k2], 1))
    g = Graph(node_count, edges, weighted=True)
    named = {"u": u, "v": v, "u_T": u_t}
    named.update({f"set_{k}": set_ids[k] for k in range(m)})
    named.update({f"elem_{i}": elem_ids[i] for i in range(n)})
    named.update({f"sink_{t}": sink_ids[t] for t in range(sink_count)})
    desc = GadgetDescriptor(
        "maxcov",
        named,
        {
            "universe_size": n,
            "sets": [sorted(s) for s in clean],
            "kappa": kappa,
            "sink_count": sink_count,
            "deg_v": g.degree(v),
        },
    )
    return g, (u, v), desc


def cover_insertions_maxcov(desc: GadgetDescriptor, cover: list[int]) -> list[tuple[tuple[int, int], int]]:
    """Weight-1 insertions wiring the solution node to a cover's set nodes."""
    u_t = desc.named_nodes["u_T"]
    return [((u_t, desc.named_nodes[f"set_{k}"]), 1) for k in sorted(cover)]


def gen_blocker(n: int, h0_edges: list[tuple[int, int]]) -> tuple[Graph, tuple[int, int], GadgetDescriptor]:
    """Blocker gadget: an unweighted graph whose edge {u, v} has curvature
    exactly 1/(n+3) while the inner bipartite graph has a perfect matching,
    and exactly -1/(n+3) once a blocker destroys every perfect matching.

    Layout: u=0, v=1, left nodes 2..n+1, right nodes n+2..2n+1, auxiliary
    endpoints u_aux=2n+2 and v_aux=2n+3 joined by the bridge node x=2n+4.
    """
    if n < 1:
        raise ValueError("n must be positive")
    eset = set()
    for i, j in h0_edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"inner edge ({i}, {j}) out of range")
        eset.add((i, j))
    # The inner graph must admit a perfect matching: zero-cost assignment on
    # the 0/1 complement-cost matrix certifies one.
    costs = [[0 if (i, j) in eset else 1 for j in range(n)] for i in range(n)]
    if min_cost_perfect_matching(costs).cost != 0:
        raise ValueError("the inner bipartite graph has no perfect matching")
    u, v = 0, 1
    left = {i: 2 + i for i in range(n)}
    right = {j: n + 2 + j for j in range(n)}
    u_aux, v_aux, bridge = 2 * n + 2, 2 * n + 3, 2 * n + 4
    edges = [(u, v)]
    edges += [(u, left[i]) for i in range(n)]
    edges += [(u, u_aux)]
    edges += [(v, right[j]) for j in range(n)]
    edges += [(v, v_aux)]
    edges += [(left[i], right[j]) for i, j in sorted(eset)]
    edges += [(u_aux, bridge), (bridge, v_aux)]
    g = Graph(2 * n + 5, edges, weighted=False)
    named = {"u": u, "v": v, "u_aux": u_aux, "v_aux": v_aux, "x": bridge}
    named.update({f"left_{i}": left[i] for i in range(n)})
    named.update({f"right_{j}": right[j] for j in range(n)})
    desc = GadgetDescriptor(
        "blocker",
        named,
        {"n": n, "h0_edges": sorted(eset)},
    )
    return g, (u, v), desc


def gen_setcover(
    universe_size: int,
    sets: list,
    heavy_weight: int | None = None,
) -> tuple[Graph, tuple[int, int], GadgetDescriptor]:
    """Set-cover gadget: element nodes hang off v behind prohibitively heavy
    edges, set nodes connect only to their elements, and the only way to turn
    the curvature of {u, v} positive is to wire u to the set nodes of a
    cover. Requires an even universe so the neighborhood sizes stay in ratio.

    Layout: u=0, v=1, element nodes 2..n+1, set nodes n+2..n+m+1.
    """
    clean = _validate_cover(universe_size, sets)
    n, m = universe_size, len(clean)
    if n % 2 != 0:
        raise ValueError("universe size must be even")
    if heavy_weight is None:
        heavy_weight = (n + m + 1) ** 3 + 1
    if heavy_weight <= 2 * (n + m + 2) ** 2:
        raise ValueError("heavy weight too small to dominate every transport plan")
    u, v = 0, 1
    elem_ids = {i: 2 + i for i in range(n)}
    set_ids = {k: n + 2 + k for k in range(m)}
    edges = [(u, v, 2)]
    edges += [(v, elem_ids[i], heavy_weight) for i in range(n)]
    for k, s in enumerate(clean):
        for i in sorted(s):
            edges.append((set_ids[k], elem_ids[i], 1))
    g = Graph(n + m + 2, edges, weighted=True)
    named = {"u": u, "v": v}
    named.update({f"elem_{i}": elem_ids[i] for i in range(n)})
    named.update({f"set_{k}": set_ids[k] for k in range(m)})
    desc = GadgetDescriptor(
        "setcover",
        named,
        {"universe_size": n, "sets": [sorted(s) for s in clean], "heavy_weight": heavy_weight},
    )
    return g, (u, v), desc


def cover_insertions_setcover(desc: GadgetDescriptor, cover: list[int]) -> list[tuple[tuple[int, int], int]]:
    """Weight-1 insertions wiring u to a cover's set nodes."""
    u = desc.named_nodes["u"]
    return [((u, desc.named_nodes[f"set_{k}"]), 1) for k in sorted(cover)]


def heavy_edges(desc: GadgetDescriptor) -> set[tuple[int, int]]:
    v = desc.named_nodes["v"]
    n = desc.parameters["universe_size"]
    return {tuple(sorted((v, desc.named_nodes[f"elem_{i}"]))) for i in range(n)}


_TIGHT_PAD = "pad"


def gen_tightness(m: int) -> tuple[CostMatrix, Matching, Matching, GadgetDescriptor]:
    """Worst-case fixture for the greedy: a cost matrix with two minimum-cost
    matchings of cost 2m where the adversarial start forces m weight drops
    while the friendly one needs only m/2.

    The matrix is the m x m pattern (unit diagonal on the first half, two
    2-diagonals across the halves, 3 elsewhere) plus one padding index, named
    as both u and v so that it is untouchable, whose zero diagonal stands in
    for the forced endpoint rows, making the flip threshold q = m+1. Emitted
    at the cost-matrix level; the greedy consumes a start matching directly.
    """
    if m < 4 or m % 2 != 0:
        raise ValueError("m must be an even integer >= 4")
    q = m + 1
    half = m // 2
    pad = 2 * m  # shared row/col label for the padding index
    costs = []
    for i in range(q):
        row = []
        for j in range(q):
            if i == m or j == m:
                row.append(0 if i == j else 3)
            elif i == j and i < half:
                row.append(1)
            elif j == i + half or i == j + half:
                row.append(2)
            else:
                row.append(3)
        costs.append(tuple(row))
    row_nodes = tuple(list(range(m)) + [pad])
    col_nodes = tuple(list(range(m, 2 * m)) + [pad])
    cm = CostMatrix(pad, pad, row_nodes, col_nodes, tuple(costs))
    adversarial = [0] * q
    for i in range(half):
        adversarial[i] = i + half
        adversarial[i + half] = i
    adversarial[m] = m
    adv = Matching(tuple(adversarial), 2 * m)
    opt = Matching(tuple(range(q)), 2 * m)
    desc = GadgetDescriptor(
        "tightness",
        {_TIGHT_PAD: pad},
        {"m": m, "q": q, "adversarial_cost": 2 * m, "form": "matrix"},
    )
    return cm, adv, opt, desc


def gen_tightness_graph(m: int) -> tuple[Graph, tuple[int, int], Matching, GadgetDescriptor]:
    """Graph realization of the tightness pattern for end-to-end solving.

    u and v each get m+1 private neighbors; cross 1-edges realize the unit
    diagonal, degree-2 bridge nodes realize every 2-entry, and everything
    else sits at distance 3. The adversarial minimum-cost matching (cost
    2m+2 including the forced endpoint rows) makes the greedy spend m
    insertions where m/2 suffice.

    Layout: u=0, v=1, left x_i=2+i, right y_j=m+3+j (i, j in 0..m), bridge
    nodes after that, one per 2-entry.
    """
    if m < 4 or m % 2 != 0:
        raise ValueError("m must be an even integer >= 4")
    half = m // 2
    u, v = 0, 1
    left = {i: 2 + i for i in range(m + 1)}
    right = {j: m + 3 + j for j in range(m + 1)}
    two_cells = [(i, i + half) for i in range(half)] + [(i + half, i) for i in range(half)] + [(m, m)]
    bridge_base = 2 * m + 4
    edges = [(u, v)]
    edges += [(u, left[i]) for i in range(m + 1)]
    edges += [(v, right[j]) for j in range(m + 1)]
    edges += [(left[i], right[i]) for i in range(half)]
    for t, (i, j) in enumerate(two_cells):
        w = bridge_base + t
        edges += [(left[i], w), (w, right[j])]
    g = Graph(bridge_base + len(two_cells), edges, weighted=False)
    # Adversarial minimum-cost matching in cost-matrix coordinates: rows and
    # columns are the closed neighborhoods in ascending id order, so u and v
    # occupy the first two indices on both sides.
    assignment = [0] * (m + 3)
    assignment[0] = 0
    assignment[1] = 1
    for i in range(half):
        assignment[2 + i] = 2 + i + half
        assignment[2 + i + half] = 2 + i
    assignment[2 + m] = 2 + m
    adv = Matching(tuple(assignment), 2 * m + 2)
    named = {"u": u, "v": v}
    named.update({f"left_{i}": left[i] for i in range(m + 1)})
    named.update({f"right_{j}": right[j] for j in range(m + 1)})
    desc = GadgetDescriptor(
        "tightness",
        named,
        {
            "m": m,
            "q": m + 3,
            "adversarial_cost": 2 * m + 2,
            "adversarial_assignment": list(adv.assignment),
            "form": "graph",
        },
    )
    return g, (u, v), adv, desc
