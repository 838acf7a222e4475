import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccicrit import (
    Graph,
    Instance,
    ProblemVariant,
    Sign,
    blow_up,
    build_cost_matrix,
    canonicalize_matching,
    emd_via_flow,
    emd_via_matching,
    enumerate_matchings,
    gen_tightness,
    greedy_insert,
    plan_from_matching,
    randomized_insert,
    ricci,
)
from riccicrit import curvature
from riccicrit.curvature import CostMatrix, TransportPlan, certificate_fault
from riccicrit.matching import _BlockRows, class_counts, min_cost_perfect_matching

from conftest import double_star, graphs, hub_double_star, preferential_attachment, random_connected_graph

P3 = Graph(3, [(0, 1), (1, 2)])
K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])


def test_single_edge_matrix():
    g = Graph(2, [(0, 1, 4)], weighted=True)
    cm = build_cost_matrix(g, (0, 1))
    assert cm.row_nodes == (0, 1) and cm.col_nodes == (0, 1)
    assert cm.costs == ((0, 4), (4, 0))
    res = ricci(g, (0, 1))
    assert res.emd == 0 and res.ric == 1


def test_path_cost_matrix_and_orientation():
    cm = build_cost_matrix(P3, (0, 1))
    # lower-degree endpoint 0 supplies the rows
    assert cm.u == 0 and cm.v == 1
    assert cm.r == 2 and cm.s == 3
    assert cm.row_nodes == (0, 1) and cm.col_nodes == (0, 1, 2)
    assert cm.costs == ((0, 1, 2), (1, 0, 1))
    # entries touching 0 or 1 are untouchable; only (row 0 or 1) x col 2 vary
    assert all(not cm.touchable[i][j] for i in range(2) for j in range(2))
    assert not cm.touchable[0][2] and not cm.touchable[1][2]


def test_blow_up_shapes():
    cm = build_cost_matrix(K3, (0, 1))
    bm = blow_up(cm)
    assert (bm.q, bm.a, bm.b) == (3, 1, 1)
    assert bm.costs == cm.costs
    cm = build_cost_matrix(P3, (0, 1))
    bm = blow_up(cm)
    assert (bm.q, bm.a, bm.b) == (6, 3, 2)
    for row in range(6):
        for col in range(6):
            i, j = bm.block(row, col)
            assert bm.costs[row][col] == cm.costs[i][j]


def test_path_emd_both_routes():
    cm = build_cost_matrix(P3, (0, 1))
    bm = blow_up(cm)
    emd_m, matching = emd_via_matching(bm)
    emd_f, plan = emd_via_flow(cm)
    assert emd_m == emd_f == Fraction(1, 2)
    best = min(m.cost for m in enumerate_matchings(bm.costs))
    assert emd_m == Fraction(best, bm.q)
    # the flow plan satisfies the marginals exactly
    rows = {}
    cols = {}
    for a, b, mass in plan.entries:
        assert mass > 0
        rows[a] = rows.get(a, Fraction(0)) + mass
        cols[b] = cols.get(b, Fraction(0)) + mass
    assert all(v == Fraction(1, 2) for v in rows.values()) and len(rows) == 2
    assert all(v == Fraction(1, 3) for v in cols.values()) and len(cols) == 3


def test_ricci_examples():
    assert ricci(K3, (0, 1)).ric == 1
    res = ricci(P3, (0, 1))
    assert res.ric == Fraction(1, 2) and res.sign == Sign.POSITIVE
    assert res.dist_uv == 1
    json_dict = res.to_json_dict()
    assert json_dict["ric"] == {"num": 1, "den": 2}
    assert json_dict["ric_str"] == "1/2"
    assert json_dict["sign"] == "positive"


def test_plan_from_matching_matches_flow_cost():
    cm = build_cost_matrix(P3, (0, 1))
    bm = blow_up(cm)
    emd, m = emd_via_matching(bm)
    plan = plan_from_matching(bm, m)
    assert plan.total_cost == emd
    row_sums = {}
    col_sums = {}
    for a, b, mass in plan.entries:
        row_sums[a] = row_sums.get(a, Fraction(0)) + mass
        col_sums[b] = col_sums.get(b, Fraction(0)) + mass
    assert set(row_sums.values()) == {Fraction(1, 2)}
    assert set(col_sums.values()) == {Fraction(1, 3)}


def test_nodes_outside_the_neighborhoods_are_irrelevant():
    # Closed neighborhoods of an existing edge always share its component,
    # so far-away disconnected nodes never disturb the computation.
    g2 = Graph(4, [(0, 1), (1, 2)])  # node 3 isolated, outside both hoods
    assert ricci(g2, (0, 1)).ric == Fraction(1, 2)
    with pytest.raises(ValueError):
        build_cost_matrix(g2, (0, 3))  # not an edge


def test_route_equivalence_random(rng):
    for i in range(40):
        g = random_connected_graph(rng, rng.randint(4, 9), weighted=(i % 2 == 0), max_w=4)
        for u, v, _ in g.edges():
            bm = blow_up(build_cost_matrix(g, (u, v)))
            emd_m, _ = emd_via_matching(bm)
            emd_f, _ = emd_via_flow(bm.source)
            assert emd_m == emd_f
            assert bm.q % emd_m.denominator == 0
            limit = 3 * g.max_weight() if g.weighted else 3
            assert 0 <= emd_m < limit


def test_scale_invariance(rng):
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(4, 8), weighted=True, max_w=3)
        c = rng.randint(2, 4)
        scaled = Graph(
            g.node_count, [(u, v, w * c) for u, v, w in g.edges()], weighted=True
        )
        for u, v, _ in g.edges():
            assert ricci(g, (u, v)).ric == ricci(scaled, (u, v)).ric


@st.composite
def _relabeled_graphs(draw):
    """A graph of 2 to 12 nodes with at least one edge, unweighted or with
    weights 1..5, the permutation ``perm`` of its nodes, and the graph with
    node x renamed perm[x], built from its edges in shuffled order."""
    n = draw(st.integers(2, 12))
    weighted = draw(st.booleans())
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
    pairs = draw(st.lists(pair, min_size=1, max_size=18, unique=True))
    edges = [(u, v, draw(st.integers(1, 5)) if weighted else 1) for u, v in pairs]
    perm = draw(st.permutations(range(n)))
    shuffled = draw(st.permutations([(perm[u], perm[v], w) for u, v, w in edges]))
    return Graph(n, edges, weighted=weighted), perm, Graph(n, shuffled, weighted=weighted)


def _invariants(res) -> tuple:
    return res.ric, res.emd, res.witness.total_cost


@settings(max_examples=200, deadline=None)
@given(_relabeled_graphs())
def test_relabeling_shuffling_and_swapping_ends_change_no_curvature(case):
    # ric, EMD and the plan's total on both routes, for (u, v) against
    # (perm[u], perm[v]) and (perm[v], perm[u]) of the relabeled graph
    # built from a shuffled edge list, and against (v, u) of the original.
    g, perm, h = case
    for u, v, _w in g.edges():
        for route in ("matching", "flow"):
            want = _invariants(ricci(g, (u, v), route=route))
            for graph, edge in ((g, (v, u)), (h, (perm[u], perm[v])), (h, (perm[v], perm[u]))):
                assert _invariants(ricci(graph, edge, route=route)) == want, (route, edge)


def test_relabeling_changes_no_curvature_past_q_10000():
    # A double star whose edge blows up to q = 101 * 100 = 10,100, its
    # nodes renamed by a seeded permutation, on both routes.
    g = double_star(100, 99, [(i, i) for i in range(0, 98, 3)])
    perm = list(range(g.node_count))
    random.Random(10_100).shuffle(perm)
    h = Graph(g.node_count, [(perm[u], perm[v]) for u, v, _w in reversed(g.edges())])
    assert math.lcm(g.degree(0) + 1, g.degree(1) + 1) == 10_100
    for route in ("matching", "flow"):
        want = _invariants(ricci(g, (0, 1), route=route))
        assert _invariants(ricci(h, (perm[1], perm[0]), route=route)) == want


def test_canonicalize_fixed_point_and_groups():
    cm = build_cost_matrix(K3, (0, 1))
    bm = blow_up(cm)
    _, m = emd_via_matching(bm)
    canon = canonicalize_matching(bm, m)
    assert canonicalize_matching(bm, canon) == canon
    # EMD 0 forces every mirror group, including the common neighbor's
    assert canon.cost == 0 and len(cm.mirror_pairs()) == 3


def test_canonicalize_rejects_non_optimal():
    cm = build_cost_matrix(P3, (0, 1))
    bm = blow_up(cm)
    worst = max(enumerate_matchings(bm.costs), key=lambda m: m.cost)
    with pytest.raises(ValueError):
        canonicalize_matching(bm, worst)


def test_canonicalize_rejects_more_row_nodes_than_column_nodes():
    # r = 3 > s = 2, so a = 2 < b = 3: node 0's two row copies cannot feed
    # its three column copies, which the check names before any swap.
    cm = CostMatrix(0, 1, (0, 2, 3), (1, 0), ((1, 0), (2, 1), (2, 1)))
    bm = blow_up(cm)
    assert (bm.a, bm.b) == (2, 3) and cm.mirror_pairs()
    m = min_cost_perfect_matching(bm.costs)
    with pytest.raises(ValueError, match=r"r=3, s=2"):
        canonicalize_matching(bm, m)


def test_canonicalize_untouchable_structure(rng):
    # cost preserved, all mirror groups at zero cost, and the leftover copies
    # of u and v pin exactly a-b untouchable 2-edges plus a-b untouchable
    # 1-edges (2(a-b) positive-weight untouchable edges in total)
    checked = 0
    while checked < 60:
        g = random_connected_graph(rng, rng.randint(3, 8), p=0.5)
        for u, v, _ in g.edges():
            bm = blow_up(build_cost_matrix(g, (u, v)))
            if bm.q > 8:
                continue
            emd, m = emd_via_matching(bm)
            canon = canonicalize_matching(bm, m)
            assert canon.cost == m.cost
            col_to_row = {c: r for r, c in enumerate(canon.assignment)}
            for i, j in bm.source.mirror_pairs():
                rows = set(range(i * bm.a, (i + 1) * bm.a))
                hits = sum(
                    1
                    for col in range(j * bm.b, (j + 1) * bm.b)
                    if col_to_row[col] in rows
                )
                assert hits == bm.b
            cc = class_counts(bm.costs, bm.touchable_mask(), canon)
            assert cc.n2_untouchable == bm.a - bm.b
            unt1 = sum(
                1
                for row, col in enumerate(canon.assignment)
                if not bm.touchable(row, col) and bm.costs[row][col] == 1
            )
            assert unt1 == bm.a - bm.b
            checked += 1


def _units(res) -> dict[tuple[int, int], int]:
    """The plan's shipments in units of 1/q, by (row index, column index)."""
    cm = res.cost_matrix
    q = math.lcm(cm.r, cm.s)
    rows, cols = cm.row_nodes, cm.col_nodes
    return {(rows.index(x), cols.index(y)): int(mass * q) for x, y, mass in res.witness.entries}


def _with_units(res, units: dict[tuple[int, int], int]):
    cm = res.cost_matrix
    q = math.lcm(cm.r, cm.s)
    entries = [(cm.row_nodes[i], cm.col_nodes[j], Fraction(n, q)) for (i, j), n in sorted(units.items()) if n]
    return dataclasses.replace(res, witness=TransportPlan(tuple(entries), res.witness.total_cost))


def _with_dual(res, side: int, k: int, delta: int):
    duals = [list(res.duals[0]), list(res.duals[1])]
    duals[side][k] += delta
    return dataclasses.replace(res, duals=tuple(map(tuple, duals)))


@settings(max_examples=200, deadline=None)
@given(graphs(min_nodes=2, min_edges=1), st.data())
def test_the_default_routes_certificate_holds_and_names_each_broken_part(g, data):
    # The default route's plan and duals check; a plan or a dual broken in
    # one place fails, and the fault names the check that caught it.
    u, v, _w = data.draw(st.sampled_from(g.edges()))
    res = ricci(g, (u, v))
    assert certificate_fault(res) is None
    assert certificate_fault(ricci(g, (u, v), route="flow")) == "the answer carries no duals"
    cm, (pot_r, pot_c) = res.cost_matrix, res.duals
    units = _units(res)
    (i, j), n = data.draw(st.sampled_from(sorted(units.items())))
    reduced = [[c + p - pc for c, pc in zip(row, pot_c)] for row, p in zip(cm.costs, pot_r)]
    assert reduced[i][j] == 0
    # A marginal off by one unit, on a used cell.
    for delta in (1, -1):
        fault = certificate_fault(_with_units(res, {**units, (i, j): n + delta}))
        assert fault.startswith("a row of the plan does not ship"), fault
    # One unit moved to another cell breaks the marginals. Two used cells
    # (i, j) and (k, l) that each send one unit across, to (i, l) and
    # (k, j), keep them; that plan is optimal only if both cells are tight.
    k, l = data.draw(st.tuples(st.integers(0, cm.r - 1), st.integers(0, cm.s - 1)).filter(lambda c: c != (i, j)))
    moved = {**units, (i, j): n - 1, (k, l): units.get((k, l), 0) + 1}
    assert certificate_fault(_with_units(res, moved)).startswith("a row of the plan does not ship")
    if i != k and j != l and units.get((k, l)):
        crossed = {**units, (i, j): n - 1, (k, l): units[k, l] - 1}
        crossed[i, l] = units.get((i, l), 0) + 1
        crossed[k, j] = units.get((k, j), 0) + 1
        fault = certificate_fault(_with_units(res, crossed))
        if reduced[i][l] or reduced[k][j]:
            assert fault.startswith("the plan ships on reduced cost"), fault
        else:
            assert fault is None  # another optimal plan
    # A potential nudged by 1 at the used cell: its reduced cost goes to 1
    # or to -1.
    fault = certificate_fault(_with_dual(res, 0, i, 1))
    assert fault.startswith("the plan ships on reduced cost 1 "), fault
    fault = certificate_fault(_with_dual(res, 1, j, -1))
    assert fault.startswith("the plan ships on reduced cost 1 "), fault
    for side, k in ((0, i), (1, j)):
        fault = certificate_fault(_with_dual(res, side, k, 2 * side - 1))
        assert fault.startswith("reduced cost -1 < 0"), fault
    # A wrong EMD or curvature, with plan and duals intact.
    fault = certificate_fault(dataclasses.replace(res, emd=res.emd + 1))
    assert fault.startswith("the plan costs"), fault
    fault = certificate_fault(dataclasses.replace(res, sign=Sign.ZERO if res.sign != Sign.ZERO else Sign.POSITIVE))
    assert fault == "ric or its sign does not follow from the EMD and dist(u, v)"


def test_the_certificate_checks_blow_ups_past_q_10000():
    # The duals come one per row and column node however many copies the
    # kernel's groups stand for: a coprime double star, q = 40,200, and
    # common neighbors, whose identical rows form one group.
    common = range(2, 60)
    star = Graph(63, [(0, 1), *((0, x) for x in common), *((1, x) for x in common), (0, 60), (1, 61), (1, 62)])
    for g in (double_star(199, 200, [(i, i) for i in range(0, 198, 3)]), star):
        res = ricci(g, (0, 1))
        assert (len(res.duals[0]), len(res.duals[1])) == (res.cost_matrix.r, res.cost_matrix.s)
        assert certificate_fault(res) is None
        assert res.ric == ricci(g, (0, 1), route="flow").ric


def test_curvature_result_json_plan_optional():
    res = ricci(P3, (0, 1))
    assert res.to_json_dict()["plan"] == res.witness.to_json_list()


def test_matching_cost_is_q_times_flow_emd_on_a_sparse_random_graph():
    rng = random.Random(200800)
    edges: set[tuple[int, int]] = set()
    while len(edges) < 800:
        u, v = rng.sample(range(200), 2)
        edges.add((min(u, v), max(u, v)))
    g = Graph(200, sorted(edges))
    checked = 0
    for e in sorted(edges):
        cm = build_cost_matrix(g, e)
        bm = blow_up(cm)
        if bm.q > 120:
            continue
        emd, _ = emd_via_flow(cm)
        assert min_cost_perfect_matching(bm.costs).cost == bm.q * emd
        checked += 1
    assert checked > 600


def test_default_route_builds_no_blow_up_row(monkeypatch):
    # The edges of the ``ricci-sparse`` benchmark graph, G(2000, 10000) drawn
    # as the benchmark draws it, with the largest blow-ups: the matching
    # kernel reads the r x s blocks, so no q-cell row of the view is built.
    rng = random.Random("ricci-sparse:graph")
    edges: set[tuple[int, int]] = set()
    while len(edges) < 10000:
        a, b = rng.randrange(2000), rng.randrange(2000)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    g = Graph(2000, sorted(edges))
    largest = sorted(edges, key=lambda e: (-math.lcm(g.degree(e[0]) + 1, g.degree(e[1]) + 1), e))[:6]
    blow_ups, built = [], []
    original_blow_up, original_row = curvature.blow_up, _BlockRows._row
    monkeypatch.setattr(curvature, "blow_up", lambda cm: blow_ups.append(original_blow_up(cm)) or blow_ups[-1])
    monkeypatch.setattr(_BlockRows, "_row", lambda view, k: built.append(k) or original_row(view, k))
    results = [ricci(g, e) for e in largest]
    assert min(bm.q for bm in blow_ups) >= 100 and len(blow_ups) == len(largest)
    # The approximations read the blocks too: greedy's canonical start, its
    # check of a given start, and randomized_insert's least signatures.
    inst = Instance(hub_double_star(37, 38), (0, 1), ProblemVariant.parse("uw-rt-ins-ntp"))
    assert inst._blow_up.q == 1482
    assert greedy_insert(inst) == greedy_insert(inst, inst._start)
    randomized_insert(inst, seed=3)
    # So do the mirror swaps' cost checks at q = 254,520 (r = 504, s = 505,
    # 500 common neighbors), where the rows would hold 128 million cells.
    common = range(2, 502)
    private = [(0, 502), (0, 503), (1, 504), (1, 505), (1, 506)]
    star = Graph(507, [(0, 1), *((0, x) for x in common), *((1, x) for x in common), *private])
    bm = blow_up(build_cost_matrix(star, (0, 1)))
    assert bm.q == 254_520
    assert canonicalize_matching(bm, min_cost_perfect_matching(bm.costs)).cost == bm.q * ricci(star, (0, 1)).emd
    assert built == []
    monkeypatch.undo()
    assert [res.ric for res in results] == [ricci(g, e, route="flow").ric for e in largest]


def test_default_route_answers_blow_ups_past_q_10000_as_pinned():
    # Every edge with q > 10,000 of a seeded preferential-attachment graph
    # (11 edges, up to q = 16,362) and a coprime double star (q = 40,200):
    # ric, EMD and plan, hashed when a q above 10,000 was still refused by
    # default and answered only with the cap raised.
    g = preferential_attachment(2000, 5, seed=4)
    big = [(u, v) for u, v, _w in g.edges() if math.lcm(g.degree(u) + 1, g.degree(v) + 1) > 10_000]
    star = double_star(199, 200, [(i, i) for i in range(0, 198, 3)])
    records = [{"edge": [u, v], **ricci(g, (u, v)).to_json_dict()} for u, v in big]
    records.append({"edge": [0, 1], **ricci(star, (0, 1)).to_json_dict()})
    assert len(big) == 11
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == "0235a0f5a80c36efaecf4adf7e0a60958896adb5f818ed3d283aa8937aaeef53"


def _full_row_cost_matrix(g: Graph, e: tuple[int, int]) -> tuple:
    """Rows, columns and costs of an edge read from unbounded BFS/Dijkstra rows
    of a fresh copy of ``g``, so no bounded ball is in its memo."""
    fresh = Graph(g.node_count, g.edges(), weighted=g.weighted)
    a, b = e
    u, v = (a, b) if (fresh.degree(a), a) <= (fresh.degree(b), b) else (b, a)
    rows, cols = fresh.closed_neighborhood(u), fresh.closed_neighborhood(v)
    costs = tuple(tuple(fresh.distances_from(x)[y] for y in cols) for x in rows)
    return rows, cols, costs


@settings(max_examples=200, deadline=None)
@given(graphs(min_nodes=2, min_edges=1))
def test_bounded_ball_cost_matrix_equals_full_row_matrix(g: Graph):
    for u, v, _w in g.edges():
        cm = build_cost_matrix(g, (u, v))
        assert (cm.row_nodes, cm.col_nodes, cm.costs) == _full_row_cost_matrix(g, (u, v))
        bm = blow_up(cm)
        assert all(
            bm.costs[i][j] == cm.costs[i // bm.a][j // bm.b] for i in range(bm.q) for j in range(bm.q)
        )
        assert ricci(g, (u, v)).dist_uv == g.shortest_dist(u, v)


def _gnm(n: int, m: int, seed: int) -> Graph:
    """Seeded G(n, m): m distinct edges drawn uniformly, isolated nodes kept."""
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(n, sorted(edges))


@pytest.mark.parametrize(
    "g",
    [
        *(_gnm(80, 120, seed) for seed in (1, 2, 3)),
        *(_gnm(25, 200, seed) for seed in (1, 2)),
        Graph(8, [(0, x) for x in range(1, 8)]),
        Graph(8, [(x, x + 1) for x in range(7)]),
        Graph(6, [(x, y) for x in range(6) for y in range(x + 1, 6)]),
        double_star(4, 5, [(0, 0), (1, 2), (2, 2)]),
    ],
    ids=["gnm-sparse-1", "gnm-sparse-2", "gnm-sparse-3", "gnm-dense-1", "gnm-dense-2", "star", "path", "complete", "double-star"],
)
def test_unweighted_cost_rule_equals_bfs_distances(g: Graph):
    # The radius-1 rule against unbounded BFS rows of a fresh copy.
    for u, v, _w in g.edges():
        cm = build_cost_matrix(g, (u, v))
        assert (cm.row_nodes, cm.col_nodes, cm.costs) == _full_row_cost_matrix(g, (u, v))


def test_dist_uv_takes_a_lighter_detour():
    g = Graph(4, [(0, 1, 5), (0, 2, 1), (1, 2, 1), (1, 3, 1)], weighted=True)
    for route in ("matching", "flow"):
        res = ricci(g, (0, 1), route=route)
        assert res.dist_uv == 2 and res.ric == 1 - res.emd / 2


@pytest.mark.parametrize("weighted", [False, True])
def test_bounded_ball_cost_matrix_on_a_sparse_graph_with_isolated_nodes(weighted):
    rng = random.Random(300600 + weighted)
    edges: dict[tuple[int, int], int] = {}
    while len(edges) < 450:
        u, v = rng.sample(range(300), 2)
        edges[(min(u, v), max(u, v))] = rng.randint(1, 9) if weighted else 1
    g = Graph(300, [(u, v, w) for (u, v), w in sorted(edges.items())], weighted=weighted)
    assert any(g.degree(x) == 0 for x in range(300))
    for u, v, _w in g.edges():
        cm = build_cost_matrix(g, (u, v))
        assert (cm.row_nodes, cm.col_nodes, cm.costs) == _full_row_cost_matrix(g, (u, v))


def _untouchable_cells(cm) -> set[tuple[int, int]]:
    """Every cell in a row or a column of u or v."""
    ends = {cm.u, cm.v}
    rows = [i for i, x in enumerate(cm.row_nodes) if x in ends]
    cols = [j for j, y in enumerate(cm.col_nodes) if y in ends]
    return {(i, j) for i in rows for j in range(cm.s)} | {(i, j) for i in range(cm.r) for j in cols}


@settings(max_examples=100, deadline=None)
@given(graphs(min_nodes=2, min_edges=1))
def test_touchable_is_the_endpoint_rule(g: Graph):
    for u, v, _w in g.edges():
        cm = build_cost_matrix(g, (u, v))
        untouchable = {(i, j) for i in range(cm.r) for j in range(cm.s) if not cm.touchable[i][j]}
        assert untouchable == _untouchable_cells(cm)
        bm = blow_up(cm)
        assert bm.touchable_mask() == tuple(
            tuple(cm.touchable[i // bm.a][j // bm.b] for j in range(bm.q)) for i in range(bm.q)
        )


@pytest.mark.parametrize("m", [4, 6, 8])
def test_tightness_gadget_pads_only_the_untouchable_index(m):
    cm, _adv, _opt, _desc = gen_tightness(m)
    assert cm.touchable == tuple(tuple(not (i == m or j == m) for j in range(m + 1)) for i in range(m + 1))
    assert {(i, j) for i in range(m + 1) for j in range(m + 1) if not cm.touchable[i][j]} == _untouchable_cells(cm)
