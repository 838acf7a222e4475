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
    plan_from_matching,
    ricci,
)
from riccicrit.curvature import BLOWUP_CAP_ENV
from riccicrit.matching import class_counts, min_cost_perfect_matching

from conftest import graphs, random_connected_graph

P3 = Graph(3, [(0, 1), (1, 2)])
K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])


def test_single_edge_matrix():
    g = Graph(2, [(0, 1, 4)], weighted=True)
    pair, cm = build_cost_matrix(g, (0, 1))
    assert cm.row_nodes == (0, 1) and cm.col_nodes == (0, 1)
    assert cm.costs == ((0, 4), (4, 0))
    res = ricci(g, (0, 1))
    assert res.emd == 0 and res.ric == 1


def test_path_cost_matrix_and_orientation():
    pair, cm = build_cost_matrix(P3, (0, 1))
    # lower-degree endpoint 0 supplies the rows
    assert pair.u == 0 and pair.v == 1
    assert pair.r == 2 and pair.s == 3
    assert cm.row_nodes == (0, 1) and cm.col_nodes == (0, 1, 2)
    assert cm.costs == ((0, 1, 2), (1, 0, 1))
    assert pair.mass_u == Fraction(1, 2) and pair.mass_v == Fraction(1, 3)
    # entries touching 0 or 1 are untouchable; only (row 0 or 1) x col 2 vary
    assert all(not cm.touchable[i][j] for i in range(2) for j in range(2))
    assert not cm.touchable[0][2] and not cm.touchable[1][2]


def test_blow_up_shapes():
    _, cm = build_cost_matrix(K3, (0, 1))
    bm = blow_up(cm)
    assert (bm.q, bm.a, bm.b) == (3, 1, 1)
    assert bm.costs == cm.costs
    _, cm = build_cost_matrix(P3, (0, 1))
    bm = blow_up(cm)
    assert (bm.q, bm.a, bm.b) == (6, 3, 2)
    for row in range(6):
        for col in range(6):
            i, j = bm.block(row, col)
            assert bm.costs[row][col] == cm.costs[i][j]


def test_blow_up_cap(monkeypatch):
    _, cm = build_cost_matrix(P3, (0, 1))
    with pytest.raises(BlowUpTooLargeError):
        blow_up(cm, cap=5)
    monkeypatch.setenv(BLOWUP_CAP_ENV, "5")
    with pytest.raises(BlowUpTooLargeError):
        blow_up(cm)
    monkeypatch.setenv(BLOWUP_CAP_ENV, "6")
    assert blow_up(cm).q == 6


def test_path_emd_both_routes():
    _, cm = build_cost_matrix(P3, (0, 1))
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
    _, cm = build_cost_matrix(P3, (0, 1))
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
            bm = blow_up(build_cost_matrix(g, (u, v))[1])
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
    _, cm = build_cost_matrix(K3, (0, 1))
    bm = blow_up(cm)
    _, m = emd_via_matching(bm)
    canon = canonicalize_matching(bm, m)
    assert canonicalize_matching(bm, canon) == canon
    # EMD 0 forces every mirror group, including the common neighbor's
    assert canon.cost == 0 and len(cm.mirror_pairs()) == 3


def test_canonicalize_rejects_non_optimal():
    _, cm = build_cost_matrix(P3, (0, 1))
    bm = blow_up(cm)
    worst = max(enumerate_matchings(bm.costs), key=lambda m: m.cost)
    with pytest.raises(ValueError):
        canonicalize_matching(bm, worst)


def test_canonicalize_untouchable_structure(rng):
    # cost preserved, all mirror groups at zero cost, and the leftover copies
    # of u and v pin exactly a-b untouchable 2-edges plus a-b untouchable
    # 1-edges (2(a-b) positive-weight untouchable edges in total)
    checked = 0
    while checked < 60:
        g = random_connected_graph(rng, rng.randint(3, 8), p=0.5)
        for u, v, _ in g.edges():
            bm = blow_up(build_cost_matrix(g, (u, v))[1])
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
    with_plan = res.to_json_dict()
    without = res.to_json_dict(include_plan=False)
    assert "plan" in with_plan and "plan" not in without


def test_matching_cost_is_q_times_flow_emd_on_a_sparse_random_graph():
    rng = random.Random(200800)
    edges: set[tuple[int, int]] = set()
    while len(edges) < 800:
        u, v = rng.sample(range(200), 2)
        edges.add((min(u, v), max(u, v)))
    g = Graph(200, sorted(edges))
    checked = 0
    for e in sorted(edges):
        cm = build_cost_matrix(g, e)[1]
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
        _, cm = build_cost_matrix(g, (u, v))
        assert (cm.row_nodes, cm.col_nodes, cm.costs) == _full_row_cost_matrix(g, (u, v))
        bm = blow_up(cm)
        assert all(
            bm.costs[i][j] == cm.costs[i // bm.a][j // bm.b] for i in range(bm.q) for j in range(bm.q)
        )
        assert ricci(g, (u, v)).dist_uv == g.shortest_dist(u, v)


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
        _, cm = build_cost_matrix(g, (u, v))
        assert (cm.row_nodes, cm.col_nodes, cm.costs) == _full_row_cost_matrix(g, (u, v))
