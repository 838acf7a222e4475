import math
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccicrit import EdgeListParseError, Graph, INFINITY, format_edge_list, parse_edge_list, ricci

from conftest import graphs


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1, 2)])  # weight 2 on an unweighted graph
    with pytest.raises(ValueError):
        Graph(3, [(0, 1, 0)], weighted=True)


def test_construction_rejects_bool_node_ids_and_weights():
    # format_edge_list would write True as "True", which parse_edge_list refuses.
    for edges in ([(True, 2)], [(0, 2, True)], [(0, False, 1)]):
        with pytest.raises(ValueError):
            Graph(3, edges, weighted=True)
    g = Graph(3, [(1, 2), (0, 2, 1)], weighted=True)
    assert parse_edge_list(format_edge_list(g)).edges() == g.edges()


def test_queries_reject_bool_node_ids_and_name_them():
    # True and False hash as 1 and 0, so without the check they would read
    # nodes 1 and 0, and a plan would print "to": true.
    g = Graph(3, [(0, 1), (1, 2)])
    queries = [
        lambda x: g.degree(x),
        lambda x: g.neighbors(x),
        lambda x: g.distances_from(x, 1),
        lambda x: ricci(g, (x, 2)),
        lambda x: ricci(g, (0, x)),
    ]
    for x in (True, False):
        for query in queries:
            with pytest.raises(ValueError, match=f"invalid node id {x}"):
                query(x)


def test_edge_queries_and_deletion_never_take_a_bool_for_a_node():
    # has_edge(0, True) would read edge (0, 1), and delete_edges([(True, 2)])
    # would delete edge (1, 2).
    g = Graph(3, [(0, 1), (1, 2)])
    for x in (True, False):
        assert not g.has_edge(0, x) and not g.has_edge(x, 2) and not g.has_edge(x, 1 - x)
        for call in (lambda: g.weight(x, 2), lambda: g.weight(1, x), lambda: g.delete_edges([(x, 2)])):
            with pytest.raises(ValueError, match=f"^invalid node id {x} for graph with 3 nodes$"):
                call()
    # Int ids keep their answers and messages.
    assert g.has_edge(1, 0) and not g.has_edge(0, 2) and not g.has_edge(0, 99)
    assert g.weight(1, 2) == 1
    with pytest.raises(ValueError, match=r"^no edge between 0 and 99$"):
        g.weight(0, 99)
    with pytest.raises(ValueError, match=r"^edge \(0, 2\) not present$"):
        g.delete_edges([(0, 2)])
    assert g.delete_edges([(2, 1)]).edges() == ((0, 1, 1),)


def test_basic_accessors():
    g = Graph(4, [(0, 1), (1, 2)])
    assert g.neighbors(1) == (0, 2)
    assert g.degree(1) == 2
    assert g.closed_neighborhood(1) == (0, 1, 2)
    assert g.closed_neighborhood(3) == (3,)
    assert g.common_neighbors(0, 2) == (1,)
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.weight(0, 1) == 1


def test_shortest_dist_unweighted_and_identity():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.shortest_dist(0, 2) == 2
    assert g.shortest_dist(1, 1) == 0
    iso = Graph(2, [])
    assert iso.shortest_dist(0, 1) == INFINITY


def test_shortest_dist_weighted_takes_light_path():
    g = Graph(3, [(0, 1, 5), (0, 2, 1), (2, 1, 1)], weighted=True)
    assert g.shortest_dist(0, 1) == 2


def test_aux_two_path_gives_distance_two():
    # endpoint - bridge - endpoint realizes a weight-2 separation
    g = Graph(3, [(0, 2), (2, 1)])
    assert g.shortest_dist(0, 1) == 2


def test_insert_then_delete_is_identity():
    g = Graph(4, [(0, 1), (2, 3)])
    g2 = g.insert_edges([((0, 2), 1), ((1, 3), 1)])
    g3 = g2.delete_edges([(0, 2), (1, 3)])
    assert g3 == g
    assert g.insert_edges([]) == g
    assert g.delete_edges([]) == g


def test_insert_validation():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        g.insert_edges([((0, 1), 1)])  # already present
    with pytest.raises(ValueError):
        g.insert_edges([((0, 2), 2)])  # unweighted graphs take weight 1 only
    w = Graph(3, [(0, 1, 4)], weighted=True)
    with pytest.raises(ValueError):
        w.insert_edges([((0, 2), 100)])  # above the (n-1)*W cap of 8
    assert w.insert_edges([((0, 2), 8)]).weight(0, 2) == 8
    for graph in (g, w):
        for bad in (
            [((1, 1), 1)],  # self-loop
            [((0, 2), 1), ((2, 0), 1)],  # a pair repeated within one batch
            [((0, 2), 0)],  # weight 0
            [((0, 3), 1)],  # node out of range
            [((-1, 2), 1)],
        ):
            with pytest.raises(ValueError):
                graph.insert_edges(bad)


def test_delete_validation():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        g.delete_edges([(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1)]).delete_edges([(1, 2)])
    for bad in (
        [(0, 0)],  # self-loop
        [(0, 1), (1, 0)],  # a pair repeated within one batch, either way round
        [(0, 2)],  # node out of range
        [(-1, 0)],
    ):
        with pytest.raises(ValueError):
            g.delete_edges(bad)
    assert g.delete_edges([(0, 1)]).shortest_dist(0, 1) == INFINITY


@pytest.mark.parametrize(
    "text, node_count",
    [("# nodes: 1000000\n0 1\n", 1000000), ("0 1000000\n", 1000001), ("0 1000000 2\n", 1000001)],
    ids=["header", "large-id", "large-id-weighted"],
)
def test_memory_follows_the_edges_not_the_largest_node_id(text, node_count):
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        isolated = g.closed_neighborhood(999999)
        dist = g.shortest_dist(0, 999999)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert g.node_count == node_count
    assert isolated == (999999,)
    assert dist == INFINITY


def test_graphs_hashable_and_picklable():
    g = Graph(3, [(0, 1), (1, 2)])
    assert hash(g) == hash(Graph(3, [(1, 2), (0, 1)]))
    assert pickle.loads(pickle.dumps(g)) == g


_small_graphs = st.integers(3, 7).flatmap(
    lambda n: st.builds(
        lambda pairs: Graph(n, sorted(set(pairs))),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda p: p[0] < p[1]),
            max_size=12,
        ),
    )
)


@settings(max_examples=120, deadline=None)
@given(_small_graphs)
def test_triangle_inequality_and_symmetry(g: Graph):
    n = g.node_count
    for x in range(n):
        for y in range(n):
            assert g.shortest_dist(x, y) == g.shortest_dist(y, x)
            for z in range(n):
                assert g.shortest_dist(x, z) <= g.shortest_dist(x, y) + g.shortest_dist(y, z)


@settings(max_examples=80, deadline=None)
@given(_small_graphs)
def test_deletion_never_shrinks_distances(g: Graph):
    edges = [(u, v) for u, v, _ in g.edges()]
    if not edges:
        return
    g2 = g.delete_edges([edges[0]])
    for x in range(g.node_count):
        for y in range(g.node_count):
            assert g2.shortest_dist(x, y) >= g.shortest_dist(x, y)


@settings(max_examples=80, deadline=None)
@given(_small_graphs)
def test_unit_insertion_never_grows_distances(g: Graph):
    non_edges = [
        (u, v)
        for u in range(g.node_count)
        for v in range(u + 1, g.node_count)
        if not g.has_edge(u, v)
    ]
    if not non_edges:
        return
    g2 = g.insert_edges([(non_edges[0], 1)])
    for x in range(g.node_count):
        for y in range(g.node_count):
            assert g2.shortest_dist(x, y) <= g.shortest_dist(x, y)


def _all_pairs(g: Graph) -> list[list]:
    """Floyd-Warshall reference distances, INFINITY where unreachable."""
    n = g.node_count
    dist = [[0 if x == y else INFINITY for y in range(n)] for x in range(n)]
    for u, v, w in g.edges():
        dist[u][v] = dist[v][u] = w
    for k in range(n):
        for x in range(n):
            for y in range(n):
                if dist[x][k] + dist[k][y] < dist[x][y]:
                    dist[x][y] = dist[x][k] + dist[k][y]
    return dist


@settings(max_examples=200, deadline=None)
@given(graphs(), st.data())
def test_bounded_ball_is_the_full_row_cut_at_the_radius(g: Graph, data):
    full = _all_pairs(g)
    radii = st.one_of(st.integers(0, 12), st.just(INFINITY))
    requests = data.draw(st.lists(st.tuples(st.integers(0, g.node_count - 1), radii), min_size=1, max_size=12))
    for x, r in requests:  # any order of radii, so smaller ones are served from the memo
        ball = g.distances_from(x, r)
        assert ball == {y: d for y, d in enumerate(full[x]) if d <= r and d != INFINITY}
        assert list(ball.values()) == sorted(ball.values())
    for x in range(g.node_count):  # INFINITY where unreachable, whatever the memo holds
        assert [g.shortest_dist(x, y) for y in range(g.node_count)] == full[x]


def test_bounded_ball_stops_at_the_radius():
    path = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert path.distances_from(0, 2) == {0: 0, 1: 1, 2: 2}
    assert path.distances_from(0, 1) == {0: 0, 1: 1}
    assert path.distances_from(0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
    heavy = Graph(3, [(0, 1, 4), (1, 2, 1)], weighted=True)
    assert heavy.distances_from(1, 3) == {1: 0, 2: 1}
    assert heavy.distances_from(0, 4) == {0: 0, 1: 4}
    assert heavy.shortest_dist(0, 2) == 5


def test_a_ball_holding_every_node_serves_every_radius(monkeypatch):
    searches = []
    dijkstra = Graph._dijkstra

    def counted(self, src, radius):
        searches.append((src, radius))
        return dijkstra(self, src, radius)

    monkeypatch.setattr(Graph, "_dijkstra", counted)
    g = Graph(4, [(0, 1, 2), (1, 2, 1), (2, 3, 3)], weighted=True)
    assert g.distances_from(1, 3) == {1: 0, 2: 1, 0: 2}  # misses node 3 at distance 4
    whole = g.distances_from(1, 5)
    assert whole == {1: 0, 2: 1, 0: 2, 3: 4}
    assert g.distances_from(1, 9) is whole and g.distances_from(1) is whole
    assert g.distances_from(1, 2) == {1: 0, 2: 1, 0: 2}
    assert g.shortest_dist(1, 3) == 4
    assert searches == [(1, 3), (1, 5)]


def test_parse_edge_list_roundtrip():
    text = "# comment\n0 1\n1 2  # trailing\n\n2 3\n"
    g = parse_edge_list(text)
    assert g.node_count == 4 and g.edge_count() == 3 and not g.weighted
    assert parse_edge_list(format_edge_list(g)) == g
    w = parse_edge_list("0 1 3\n1 2 1\n")
    assert w.weighted and w.weight(0, 1) == 3
    assert parse_edge_list(format_edge_list(w)) == w
    isolated = Graph(4, [(0, 1)])
    assert parse_edge_list(format_edge_list(isolated)) == isolated
    assert parse_edge_list("# nodes: 2\n0 4\n").node_count == 5
    assert parse_edge_list("# nodes: 9 extra\n#nodes: 9\n0 1\n").node_count == 2


@pytest.mark.parametrize(
    "text",
    ["0\n", "0 1 2 3\n", "0 a\n", "-1 2\n", "1 1\n", "0 1 0\n", "0 1\n1 0\n"],
)
def test_parse_edge_list_rejects(text):
    with pytest.raises(EdgeListParseError):
        parse_edge_list(text)


def test_parse_error_carries_line_number():
    try:
        parse_edge_list("0 1\nbogus line\n")
    except EdgeListParseError as exc:
        assert exc.line_no == 2
    else:
        pytest.fail("expected a parse error")
