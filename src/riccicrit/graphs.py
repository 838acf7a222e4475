"""Immutable undirected graphs with positive integer edge weights.

Node ids are dense integers ``0..node_count-1``. Mutation helpers return new
graph values, so instances can be shared freely between threads and used as
dictionary keys. Distances are exact integers computed on demand (BFS for
unweighted graphs, Dijkstra otherwise) over a bounded ball: a search from x
with radius r stops at distance r and returns the distance to every node
within r of x. Balls are memoized per source node; the memo keeps the largest
radius computed so far and serves every request up to it, so the curvature of
an edge, which needs only radius-1 balls on unweighted graphs, never searches
the whole graph. A ball that holds every node is the whole row and serves
every radius, so a source whose first search reaches the whole graph is
never searched again.
"""

from __future__ import annotations

import math
import re
from heapq import heappop, heappush
from typing import Iterable

from .errors import EdgeListParseError, InputFileError

INFINITY = math.inf

Pair = tuple[int, int]

# The header ``format_edge_list`` writes; it keeps trailing isolated nodes.
_NODES_HEADER = re.compile(r"# nodes: ([0-9]+)")


def ordered_pair(a: int, b: int) -> Pair:
    return (a, b) if a <= b else (b, a)


class Graph:
    """Undirected graph value: weighted or unweighted, never both at once.

    An unweighted graph carries weight 1 on every edge and keeps that
    invariant under mutation; a weighted graph allows any positive integer
    weights. Self-loops and parallel edges are rejected.
    """

    __slots__ = ("node_count", "weighted", "_weights", "_adj", "_balls", "_edge_tuple", "_hash")

    def __init__(
        self,
        node_count: int,
        edges: Iterable[tuple] = (),
        weighted: bool = False,
    ):
        if not isinstance(node_count, int) or node_count < 0:
            raise ValueError(f"node_count must be a non-negative integer, got {node_count!r}")
        weights: dict[Pair, int] = {}
        for item in edges:
            if len(item) == 2:
                u, v = item
                w = 1
            elif len(item) == 3:
                u, v, w = item
            else:
                raise ValueError(f"edge must be (u, v) or (u, v, w), got {item!r}")
            if not (isinstance(u, int) and isinstance(v, int)):
                raise ValueError(f"node ids must be integers, got {item!r}")
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"node id out of range in edge {item!r}")
            if u == v:
                raise ValueError(f"self-loop at node {u} is not allowed")
            if not isinstance(w, int) or w < 1:
                raise ValueError(f"edge weight must be a positive integer, got {item!r}")
            if not weighted and w != 1:
                raise ValueError(f"unweighted graph cannot carry weight {w} on edge ({u}, {v})")
            key = ordered_pair(u, v)
            if key in weights:
                raise ValueError(f"duplicate edge {key}")
            weights[key] = w

        adj: list[dict[int, int]] = [dict() for _ in range(node_count)]
        for (u, v), w in weights.items():
            adj[u][v] = w
            adj[v][u] = w

        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "weighted", bool(weighted))
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_balls", {})
        object.__setattr__(self, "_edge_tuple", tuple(sorted((u, v, w) for (u, v), w in weights.items())))
        object.__setattr__(self, "_hash", hash((node_count, weighted, self._edge_tuple)))

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
        return f"Graph(n={self.node_count}, m={len(self._weights)}, {kind})"

    # -- accessors ---------------------------------------------------------

    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """All edges as sorted ``(u, v, w)`` triples with ``u < v``."""
        return self._edge_tuple

    def edge_count(self) -> int:
        return len(self._weights)

    def has_edge(self, u: int, v: int) -> bool:
        return ordered_pair(u, v) in self._weights

    def weight(self, u: int, v: int) -> int:
        try:
            return self._weights[ordered_pair(u, v)]
        except KeyError:
            raise ValueError(f"no edge between {u} and {v}") from None

    def max_weight(self) -> int:
        """Largest edge weight W (1 for edgeless or unweighted graphs)."""
        return max(self._weights.values(), default=1)

    def _check_node(self, x: int) -> None:
        if not isinstance(x, int) or not 0 <= x < self.node_count:
            raise ValueError(f"invalid node id {x!r} for graph with {self.node_count} nodes")

    def neighbors(self, x: int) -> tuple[int, ...]:
        self._check_node(x)
        return tuple(sorted(self._adj[x]))

    def degree(self, x: int) -> int:
        self._check_node(x)
        return len(self._adj[x])

    def closed_neighborhood(self, x: int) -> tuple[int, ...]:
        """``x`` plus its neighbors, in ascending node-id order."""
        self._check_node(x)
        return tuple(sorted(set(self._adj[x]) | {x}))

    def common_neighbors(self, u: int, v: int) -> tuple[int, ...]:
        self._check_node(u)
        self._check_node(v)
        return tuple(sorted(set(self._adj[u]) & set(self._adj[v])))

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
        dist = {src: 0}
        frontier = [src]
        d = 0
        while frontier and d < radius:
            d += 1
            layer = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = d
                        layer.append(y)
            frontier = layer
        return dist

    def _dijkstra(self, src: int, radius: float) -> dict[int, int]:
        adj = self._adj
        dist: list = [INFINITY] * self.node_count
        dist[src] = 0
        ball: dict[int, int] = {}
        heap: list[tuple[int, int]] = [(0, src)]
        while heap:
            d, x = heappop(heap)
            if d > dist[x]:
                continue
            ball[x] = d
            for y, w in adj[x].items():
                nd = d + w
                if nd < dist[y] and nd <= radius:
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

        Inserting into an unweighted graph demands weight 1; weighted graphs
        cap inserted weights at ``(node_count - 1) * W`` since heavier edges
        can never shorten any path.
        """
        additions: dict[Pair, int] = {}
        cap = max(1, (self.node_count - 1) * self.max_weight())
        for pair, w in es:
            u, v = pair
            self._check_node(u)
            self._check_node(v)
            if u == v:
                raise ValueError(f"self-loop at node {u} is not allowed")
            key = ordered_pair(u, v)
            if key in self._weights:
                raise ValueError(f"edge {key} already present")
            if key in additions:
                raise ValueError(f"duplicate insertion of edge {key}")
            if not isinstance(w, int) or w < 1:
                raise ValueError(f"inserted weight must be a positive integer, got {w!r}")
            if not self.weighted and w != 1:
                raise ValueError("unweighted graph only accepts weight-1 insertions")
            if self.weighted and w > cap:
                raise ValueError(f"inserted weight {w} exceeds the (n-1)*W cap of {cap}")
            additions[key] = w
        if not additions:
            return self
        merged = [(u, v, w) for (u, v), w in self._weights.items()]
        merged.extend((u, v, w) for (u, v), w in additions.items())
        return Graph(self.node_count, merged, weighted=self.weighted)

    def delete_edges(self, es: Iterable[Pair]) -> "Graph":
        """New graph with the given unordered node pairs removed."""
        removals: set[Pair] = set()
        for pair in es:
            u, v = pair
            key = ordered_pair(u, v)
            if key not in self._weights:
                raise ValueError(f"edge {key} not present")
            if key in removals:
                raise ValueError(f"duplicate deletion of edge {key}")
            removals.add(key)
        if not removals:
            return self
        kept = [(u, v, w) for (u, v), w in self._weights.items() if (u, v) not in removals]
        return Graph(self.node_count, kept, weighted=self.weighted)


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
    triples: list[tuple[int, int, int]] = []
    seen: set[Pair] = set()
    weighted = False
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
            values = [int(p) for p in parts]
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer field in {raw.strip()!r}") from None
        u, v = values[0], values[1]
        w = values[2] if len(values) == 3 else 1
        if u < 0 or v < 0:
            raise EdgeListParseError(line_no, "node ids must be non-negative")
        if u == v:
            raise EdgeListParseError(line_no, f"self-loop at node {u}")
        if w < 1:
            raise EdgeListParseError(line_no, f"weight must be positive, got {w}")
        key = ordered_pair(u, v)
        if key in seen:
            raise EdgeListParseError(line_no, f"duplicate edge {key}")
        seen.add(key)
        if w != 1:
            weighted = True
        triples.append((u, v, w))
        max_node = max(max_node, u, v)
    return Graph(max_node + 1, triples, weighted=weighted)


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
