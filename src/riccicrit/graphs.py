"""Immutable undirected graphs with positive integer edge weights.

Node ids are integers ``0..node_count-1``. Each edge is stored once in a
sparse adjacency map that holds only nodes with edges, so a graph's memory
follows its edges, not its largest node id. Mutation helpers return new
graph values, so instances can be shared freely between threads and used as
dictionary keys. Distances are exact integers computed on demand (BFS for
unweighted graphs, Dijkstra otherwise) over a bounded ball: a search from x
with radius r stops at distance r and returns the distance to every node
within r of x. Balls are memoized per source node; the memo keeps the largest
radius computed so far and serves every request up to it, so the curvature of
an edge, which needs only radius-1 balls on unweighted graphs, never searches
the whole graph. A radius-1 ball is a node and its neighbors, so ``_bfs``
builds it from the adjacency map at C speed, with no search loop. A ball
that holds every node is the whole row and serves every radius, so a source
whose first search reaches the whole graph is never searched again.
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


def _is_int(x) -> bool:
    """An int that is not a bool: ``format_edge_list`` would write True as ``True``."""
    return isinstance(x, int) and not isinstance(x, bool)


class Graph:
    """Undirected graph value: weighted or unweighted, never both at once.

    An unweighted graph carries weight 1 on every edge and keeps that
    invariant under mutation; a weighted graph allows any positive integer
    weights. Self-loops and parallel edges are rejected.
    """

    __slots__ = ("node_count", "weighted", "_adj", "_balls", "_edge_tuple", "_hash")

    def __init__(
        self,
        node_count: int,
        edges: Iterable[tuple] = (),
        weighted: bool = False,
    ):
        if not isinstance(node_count, int) or node_count < 0:
            raise ValueError(f"node_count must be a non-negative integer, got {node_count!r}")
        adj: dict[int, dict[int, int]] = {}
        triples: list[tuple[int, int, int]] = []
        for item in edges:
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
            if v in adj.get(u, ()):
                raise ValueError(f"duplicate edge {ordered_pair(u, v)}")
            adj.setdefault(u, {})[v] = w
            adj.setdefault(v, {})[u] = w
            triples.append((u, v, w) if u < v else (v, u, w))

        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "weighted", bool(weighted))
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_balls", {})
        object.__setattr__(self, "_edge_tuple", tuple(sorted(triples)))
        object.__setattr__(self, "_hash", hash((node_count, self.weighted, self._edge_tuple)))

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
        """Whether u and v are joined; a bool is never a node, though True and False hash as 1 and 0."""
        return v in self._adj.get(u, ()) and not (isinstance(u, bool) or isinstance(v, bool))

    def weight(self, u: int, v: int) -> int:
        self._reject_bool(u, v)
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

    def _reject_bool(self, *xs) -> None:
        """``_check_node``'s error for a bool id; other ids are left to the caller's own check."""
        for x in xs:
            if isinstance(x, bool):
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
        shorten any path.
        """
        additions = tuple((u, v, w) for (u, v), w in es)
        if not additions:
            return self
        g = Graph(self.node_count, self._edge_tuple + additions, weighted=self.weighted)
        cap = (self.node_count - 1) * self.max_weight()
        if g.max_weight() > cap:
            raise ValueError(f"inserted weight {g.max_weight()} exceeds the (n-1)*W cap of {cap}")
        return g

    def delete_edges(self, es: Iterable[Pair]) -> "Graph":
        """New graph with the given unordered node pairs removed."""
        removals: set[Pair] = set()
        for u, v in es:
            self._reject_bool(u, v)
            key = ordered_pair(u, v)
            if not self.has_edge(u, v):
                raise ValueError(f"edge {key} not present")
            if key in removals:
                raise ValueError(f"duplicate deletion of edge {key}")
            removals.add(key)
        if not removals:
            return self
        kept = [t for t in self._edge_tuple if t[:2] not in removals]
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
