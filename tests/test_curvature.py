import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from riccicrit import (
    BlowUpTooLargeError,
    Graph,
    Sign,
    blow_up,
    build_cost_matrix,
    canonicalize_matching,
    emd_via_flow,
    emd_via_matching,
    enumerate_matchings,
    gen_tightness,
    plan_from_matching,
    ricci,
)
from riccicrit.curvature import BLOWUP_CAP_ENV, CostMatrix
from riccicrit.matching import class_counts, min_cost_perfect_matching

from conftest import double_star, graphs, random_connected_graph

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


def test_blow_up_cap(monkeypatch):
    cm = build_cost_matrix(P3, (0, 1))
    monkeypatch.setenv(BLOWUP_CAP_ENV, "5")
    with pytest.raises(BlowUpTooLargeError):
        blow_up(cm)
    monkeypatch.setenv(BLOWUP_CAP_ENV, "6")
    assert blow_up(cm).q == 6


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
