"""Immutable undirected graphs with positive integer edge weights.

Node ids are integers ``0..node_count-1``. Each edge is stored once in a
sparse adjacency map that holds only nodes with edges, so a graph's memory
follows its edges, not its largest node id. ``_add_edge`` checks every edge
that construction, insertion or parsing adds. Mutation helpers return new
graph values, so instances can be shared freely between threads and used as
dictionary keys; an edit copies only its endpoints' maps and shares the
rest, as no map changes once built (path copying). Distances are exact
integers computed on demand (BFS for unweighted graphs, Dijkstra otherwise)
over a bounded ball: a search from x with radius r stops at distance r and
returns the distance to every node within r of x. Balls are memoized per
source node; the memo keeps the largest radius computed so far and serves
every request up to it, so the curvature of an edge, which needs only
radius-1 balls on unweighted graphs, never searches the whole graph. A
radius-1 ball is a node and its neighbors, so ``_bfs`` builds it from the
adjacency map at C speed, with no search loop. A ball that holds every node
is the whole row and serves every radius, so a source whose first search
reaches the whole graph is never searched again.
"""

from __future__ import annotations

import math
import re
from heapq import heappop, heappush
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import EdgeListParseError, InputFileError

INFINITY = math.inf

Pair = tuple[int, int]
Triple = tuple[int, int, int]

# The header ``format_edge_list`` writes; it keeps trailing isolated nodes.
_NODES_HEADER = re.compile(r"# nodes: ([0-9]+)")


def ordered_pair(a: int, b: int) -> Pair:
    return (a, b) if a <= b else (b, a)


def _is_int(x) -> bool:
    """An int that is not a bool: ``format_edge_list`` would write True as ``True``."""
    return isinstance(x, int) and not isinstance(x, bool)


def _add_edge(adj: dict, item: tuple, node_count, weighted: bool, parent: Mapping = MappingProxyType({})) -> Triple:
    """Check one ``(u, v)`` or ``(u, v, w)`` edge and record it in ``adj`` both ways.

    ``adj`` is a new map, or a shallow copy of ``parent``, the adjacency of
    the graph being edited: an endpoint's inner map is copied before its
    first change, so ``parent`` never changes and shares every map the edit
    does not touch. Returns the edge as ``(u, v, w)`` with ``u < v``.
    """
    if len(item) == 2:
        u, v = item
        w = 1
    elif len(item) == 3:
        u, v, w = item
    else:
        raise ValueError(f"edge must be (u, v) or (u, v, w), got {item!r}")
    if not (_is_int(u) and _is_int(v)):
        raise ValueError(f"node ids must be integers, got {item!r}")
    if not (0 <= u < node_count and 0 <= v < node_count):
        raise ValueError(f"node id out of range in edge {item!r}")
    if u == v:
        raise ValueError(f"self-loop at node {u} is not allowed")
    if not _is_int(w) or w < 1:
        raise ValueError(f"edge weight must be a positive integer, got {item!r}")
    if not weighted and w != 1:
        raise ValueError(f"unweighted graph cannot carry weight {w} on edge ({u}, {v})")
    near_u, near_v = adj.get(u), adj.get(v)
    if near_u is None:
        near_u = adj[u] = {}
    elif v in near_u:
        raise ValueError(f"duplicate edge {ordered_pair(u, v)}")
    elif near_u is parent.get(u):
        near_u = adj[u] = dict(near_u)
    if near_v is None:
        near_v = adj[v] = {}
    elif near_v is parent.get(v):
        near_v = adj[v] = dict(near_v)
    near_u[v] = w
    near_v[u] = w
    return (u, v, w) if u < v else (v, u, w)


class Graph:
    """Undirected graph value: weighted or unweighted, never both at once.

    An unweighted graph carries weight 1 on every edge and keeps that
    invariant under mutation; a weighted graph allows any positive integer
    weights. Self-loops and parallel edges are rejected.
    """

    __slots__ = ("node_count", "weighted", "_adj", "_balls", "_edge_tuple", "_hash")

    def __init__(self, node_count: int, edges: Iterable[tuple] = (), weighted: bool = False):
        if not isinstance(node_count, int) or node_count < 0:
            raise ValueError(f"node_count must be a non-negative integer, got {node_count!r}")
        adj: dict[int, dict[int, int]] = {}
        triples = [_add_edge(adj, item, node_count, weighted) for item in edges]
        self._fill(node_count, weighted, adj, tuple(sorted(triples)))

    def _fill(self, node_count: int, weighted: bool, adj: dict, edge_tuple: tuple[Triple, ...]) -> "Graph":
        """Set every slot; ``object.__new__(Graph)._fill(...)`` is a graph of parts ``_add_edge`` checked."""
        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "weighted", bool(weighted))
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_balls", {})
        object.__setattr__(self, "_edge_tuple", edge_tuple)
        object.__setattr__(self, "_hash", hash((node_count, self.weighted, edge_tuple)))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Graph values are immutable")

    def __reduce__(self):
        return (Graph, (self.node_count, self._edge_tuple, self.weighted))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.weighted == other.weighted
            and self._edge_tuple == other._edge_tuple
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        kind = "weighted" if self.weighted else "unweighted"
        return f"Graph(n={self.node_count}, m={len(self._edge_tuple)}, {kind})"

    # -- accessors ---------------------------------------------------------

    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """All edges as sorted ``(u, v, w)`` triples with ``u < v``."""
        return self._edge_tuple

    def edge_count(self) -> int:
        return len(self._edge_tuple)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether u and v are joined; only an int is a node, though True and 1.0 hash as 1."""
        return v in self._adj.get(u, ()) and _is_int(u) and _is_int(v)

    def weight(self, u: int, v: int) -> int:
        self._reject_non_int(u, v)
        try:
            return self._adj[u][v]
        except KeyError:
            raise ValueError(f"no edge between {u} and {v}") from None

    def max_weight(self) -> int:
        """Largest edge weight W (1 for edgeless or unweighted graphs)."""
        return max((w for _, _, w in self._edge_tuple), default=1)

    def _check_node(self, x: int) -> None:
        if not _is_int(x) or not 0 <= x < self.node_count:
            raise ValueError(f"invalid node id {x!r} for graph with {self.node_count} nodes")

    def _reject_non_int(self, *xs) -> None:
        """``_check_node``'s error for an id that is not an int, a bool included; the caller checks the range."""
        for x in xs:
            if not _is_int(x):
                self._check_node(x)

    def neighbors(self, x: int) -> tuple[int, ...]:
        self._check_node(x)
        return tuple(sorted(self._adj.get(x, ())))

    def degree(self, x: int) -> int:
        self._check_node(x)
        return len(self._adj.get(x, ()))

    def closed_neighborhood(self, x: int) -> tuple[int, ...]:
        """``x`` plus its neighbors, in ascending node-id order."""
        self._check_node(x)
        return tuple(sorted({x, *self._adj.get(x, ())}))

    def common_neighbors(self, u: int, v: int) -> tuple[int, ...]:
        self._check_node(u)
        self._check_node(v)
        return tuple(sorted(set(self._adj.get(u, ())).intersection(self._adj.get(v, ()))))

    # -- distances ---------------------------------------------------------

    def distances_from(self, x: int, radius: float = INFINITY) -> dict[int, int]:
        """Exact distances from ``x`` to every node within ``radius`` of it.

        The result maps node to distance, nearest nodes first; a node missing
        from it is farther than ``radius`` (or unreachable, for the default
        unbounded radius). The returned dict is shared with the memo: do not
        mutate it.
        """
        self._check_node(x)
        cached = self._balls.get(x)
        if cached is None or cached[0] < radius:
            ball = self._dijkstra(x, radius) if self.weighted else self._bfs(x, radius)
            self._balls[x] = (INFINITY if len(ball) == self.node_count else radius, ball)
            return ball
        ball = cached[1]
        if next(reversed(ball.values())) <= radius:  # nearest first: the farthest node is last
            return ball
        return {y: d for y, d in ball.items() if d <= radius}

    def _bfs(self, src: int, radius: float) -> dict[int, int]:
        adj = self._adj
        if 1 <= radius < 2:  # a node and its neighbors
            return {src: 0, **dict.fromkeys(adj.get(src, ()), 1)}
        dist = {src: 0}
        frontier = [src]
        d = 0
        while frontier and d < radius:
            d += 1
            layer = []
            for x in frontier:
                for y in adj.get(x, ()):
                    if y not in dist:
                        dist[y] = d
                        layer.append(y)
            frontier = layer
        return dist

    def _dijkstra(self, src: int, radius: float) -> dict[int, int]:
        adj = self._adj
        dist = {src: 0}
        ball: dict[int, int] = {}
        heap: list[tuple[int, int]] = [(0, src)]
        while heap:
            d, x = heappop(heap)
            if d > dist[x]:
                continue
            ball[x] = d
            for y, w in adj.get(x, {}).items():
                nd = d + w
                if nd < dist.get(y, INFINITY) and nd <= radius:
                    dist[y] = nd
                    heappush(heap, (nd, y))
        return ball

    def shortest_dist(self, x: int, y: int):
        """Shortest-path distance between two nodes, INFINITY if disconnected."""
        self._check_node(y)
        return self.distances_from(x).get(y, INFINITY)

    # -- mutation (returns new values) --------------------------------------

    def insert_edges(self, es: Iterable[tuple[Pair, int]]) -> "Graph":
        """New graph with the given ``((u, v), weight)`` edges added.

        The new edges pass the constructor's checks, so inserting into an
        unweighted graph demands weight 1; weighted graphs cap inserted
        weights at ``(node_count - 1) * W`` since heavier edges can never
        shorten any path. Only the endpoints' adjacency maps are copied.
        """
        adj = dict(self._adj)
        added = [_add_edge(adj, (u, v, w), self.node_count, self.weighted, self._adj) for (u, v), w in es]
        if not added:
            return self
        cap = (self.node_count - 1) * self.max_weight()
        heaviest = max(w for _, _, w in added)
        if heaviest > cap:
            raise ValueError(f"inserted weight {heaviest} exceeds the (n-1)*W cap of {cap}")
        edge_tuple = tuple(sorted(self._edge_tuple + tuple(added)))  # the parent's edges sort as one run
        return object.__new__(Graph)._fill(self.node_count, self.weighted, adj, edge_tuple)

    def delete_edges(self, es: Iterable[Pair]) -> "Graph":
        """New graph with the given unordered node pairs removed; only their endpoints' adjacency maps are copied."""
        removals: set[Pair] = set()
        for u, v in es:
            self._reject_non_int(u, v)
            key = ordered_pair(u, v)
            if not self.has_edge(u, v):
                raise ValueError(f"edge {key} not present")
            if key in removals:
                raise ValueError(f"duplicate deletion of edge {key}")
            removals.add(key)
        if not removals:
            return self
        adj = dict(self._adj)
        for u, v in removals:
            for x, y in ((u, v), (v, u)):
                near = adj[x] = {z: w for z, w in adj[x].items() if z != y}
                if not near:  # the map holds only nodes with edges
                    del adj[x]
        kept = tuple(t for t in self._edge_tuple if t[:2] not in removals)
        return object.__new__(Graph)._fill(self.node_count, self.weighted, adj, kept)


# -- edge-list text format ---------------------------------------------------
#
# One edge per line: "u v" (unweighted) or "u v w" (weighted). Anything after
# a '#' is a comment; blank lines are skipped. Node ids are non-negative
# integers; node_count is one past the largest id seen.


def parse_edge_list(text: str) -> Graph:
    """The graph of an edge-list text.

    A comment line of exactly the form ``# nodes: N`` sets a lower bound on
    the node count, which is max(N, largest node id + 1); every other
    comment is ignored.
    """
    adj: dict[int, dict[int, int]] = {}
    triples: list[Triple] = []
    max_node = -1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        header = _NODES_HEADER.fullmatch(raw.strip())
        if header:
            max_node = max(max_node, int(header[1]) - 1)
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise EdgeListParseError(line_no, f"expected 'u v' or 'u v w', got {raw.strip()!r}")
        try:
            item = tuple(int(p) for p in parts)
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer field in {raw.strip()!r}") from None
        try:
            triples.append(_add_edge(adj, item, INFINITY, True))
        except ValueError as exc:
            raise EdgeListParseError(line_no, str(exc)) from None
    weighted = any(w != 1 for _, _, w in triples)  # any positive weight was accepted above
    return object.__new__(Graph)._fill(max([max_node, *adj]) + 1, weighted, adj, tuple(sorted(triples)))


def format_edge_list(g: Graph) -> str:
    lines = [f"# nodes: {g.node_count}"]
    for u, v, w in g.edges():
        lines.append(f"{u} {v} {w}" if g.weighted else f"{u} {v}")
    return "\n".join(lines) + "\n"


def read_text(path) -> str:
    """The text of a UTF-8 file; ``InputFileError``, which names the file, if it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputFileError(f"{path}: not UTF-8 text: {exc}") from exc


def load_edge_list(path) -> Graph:
    return parse_edge_list(read_text(path))
