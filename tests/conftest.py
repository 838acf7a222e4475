"""Shared samplers for random graphs and solver instances."""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from riccicrit import (
    Graph,
    INFINITY,
    Instance,
    ProblemVariant,
    Sign,
    build_cost_matrix,
    feasible_by_saturation,
    ricci,
)
from riccicrit import _detcube, solvers
from riccicrit.matching import _least_signature


def random_connected_graph(rng: random.Random, n: int, *, weighted: bool = False, p: float = 0.45, max_w: int = 5) -> Graph:
    while True:
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    w = rng.randint(1, max_w) if weighted else 1
                    edges.append((u, v, w))
        if not edges:
            continue
        g = Graph(n, edges, weighted=weighted)
        if all(g.shortest_dist(0, x) != INFINITY for x in range(n)):
            return g


def graphs(min_nodes: int = 1, min_edges: int = 0):
    """Hypothesis strategy: unweighted or weighted (1..6) graphs of min_nodes..9
    nodes, often disconnected and with isolated nodes."""

    def build(n: int, weighted: bool):
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
        weight = st.integers(1, 6) if weighted else st.just(1)
        return st.builds(
            lambda items: Graph(n, [(u, v, w) for (u, v), w in sorted(dict(items).items())], weighted=weighted),
            st.lists(st.tuples(pair, weight), min_size=min_edges, max_size=16),
        )

    return st.tuples(st.integers(min_nodes, 9), st.booleans()).flatmap(lambda nw: build(*nw))


def double_star(du: int, dv: int, cross: list[tuple[int, int]]) -> Graph:
    """u=0 and v=1 joined, with du-1 private u-neighbors, dv-1 private
    v-neighbors, and the given cross edges between the private sides. No
    intra-side edges, so the no-side-edges property always holds."""
    left = list(range(2, 2 + du - 1))
    right = list(range(2 + du - 1, 2 + du - 1 + dv - 1))
    edges = [(0, 1)] + [(0, x) for x in left] + [(1, y) for y in right]
    edges += [(left[i], right[j]) for (i, j) in cross]
    return Graph(2 + du - 1 + dv - 1, edges)


def hub_double_star(du: int, dv: int) -> Graph:
    """``double_star(du, dv, ...)`` (du <= dv) with every fourth private
    u-neighbor crossing to its counterpart, and one more node, outside both
    neighborhoods, joined to every other private neighbor on both sides.
    Private neighbors that share it lie at distance 2, so the blow-up has
    touchable 2-cost cells, which a plain double star lacks."""
    g = double_star(du, dv, [(i, i) for i in range(0, du - 1, 4)])
    n = g.node_count
    hub = [(x, n) for x in range(2, 2 + du - 1, 2)] + [(y, n) for y in range(2 + du - 1, n, 2)]
    return Graph(n + 1, [(u, v) for u, v, _w in g.edges()] + hub)


def preferential_attachment(n: int, m: int, seed) -> Graph:
    """Seeded preferential attachment: a star on nodes 0..m, then each new
    node joins m distinct earlier nodes, each draw proportional to degree.
    It has m·(n - m) edges, and its hubs give blow-ups far past q = 10,000."""
    rng = random.Random(seed)
    edges = [(0, x) for x in range(1, m + 1)]
    ends = [x for edge in edges for x in edge]  # each node once per edge it is on
    for new in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(ends))
        for t in sorted(targets):
            edges.append((t, new))
            ends += (t, new)
    return Graph(n, edges)


def enumerated_signatures(digits: np.ndarray) -> set[tuple[int, ...]]:
    """The digit sums of every perfect matching of an (n, n, naxes) digit array."""
    n = digits.shape[0]
    return {
        tuple(int(x) for x in sum(digits[i, p[i]] for i in range(n)))
        for p in itertools.permutations(range(n))
    }


class BlowUpShape(NamedTuple):
    q: int
    a: int
    b: int
    rho: int


def blow_up_shape(inst: Instance) -> BlowUpShape:
    """The blow-up size q = lcm(r, s) of an unweighted instance's edge, the
    copies a = q/r and b = q/s of each row and column node, and rho, how
    far q * EMD lies above the flip threshold q; EMD by the flow route."""
    cm = build_cost_matrix(inst.graph, inst.edge)
    q = math.lcm(cm.r, cm.s)
    rho = q * ricci(inst.graph, inst.edge, route="flow").emd - q
    assert rho.denominator == 1
    return BlowUpShape(q, q // cm.r, q // cm.s, int(rho))


def sample_spade_instances(
    rng: random.Random,
    count: int,
    *,
    degree_pool: list[tuple[int, int, float]],
) -> list[Instance]:
    """Feasible uw-rt-ins-ntp double-star instances with negative curvature."""
    variant = ProblemVariant.parse("uw-rt-ins-ntp")
    out: list[Instance] = []
    attempts = 0
    while len(out) < count and attempts < count * 400:
        attempts += 1
        du, dv, p = degree_pool[rng.randrange(len(degree_pool))]
        cross = sorted(
            {(i, j) for i in range(du - 1) for j in range(dv - 1) if rng.random() < p}
        )
        g = double_star(du, dv, cross)
        base = ricci(g, (0, 1), route="flow")
        if base.sign != Sign.NEGATIVE:
            continue
        inst = Instance(g, (0, 1), variant)
        feasible, _ = feasible_by_saturation(inst)
        if not feasible:
            continue
        out.append(inst)
    if len(out) < count:
        raise RuntimeError(f"sampler only found {len(out)} of {count} instances")
    return out


def sample_sweep_instances(rng: random.Random, count: int, *, max_q: int = 40) -> list[Instance]:
    """Feasible uw-rt-ins-ntp instances on seeded random graphs of 6 to 9
    nodes, with rho > 0 and q <= ``max_q``, whose least signature (x0, k0,
    l0) has 2·k0 <= x0 - q: ``randomized_insert`` sweeps their signatures
    unless its capped-cost certificate settles the pick."""
    variant = ProblemVariant.parse("uw-rt-ins-ntp")
    out: list[Instance] = []
    attempts = 0
    while len(out) < count and attempts < count * 400:
        attempts += 1
        g = random_connected_graph(rng, rng.randint(6, 9), p=0.4)
        for u, v, _w in g.edges():
            cm = build_cost_matrix(g, (u, v))
            q = math.lcm(cm.r, cm.s)
            if q > max_q or ricci(g, (u, v)).sign == Sign.POSITIVE:
                continue
            inst = Instance(g, (u, v), variant)
            if not feasible_by_saturation(inst)[0]:
                continue
            bm = inst._blow_up
            _, (x0, k0, _l0) = _least_signature(bm.costs, bm.touchable_mask())
            if x0 > q and 2 * k0 <= x0 - q:
                out.append(inst)
                break
    if len(out) < count:
        raise RuntimeError(f"sampler only found {len(out)} of {count} instances")
    return out


@pytest.fixture(scope="session")
def rng() -> random.Random:
    return random.Random(20260810)


@pytest.fixture
def field(monkeypatch):
    """``field(p)`` runs the engine over F_p until the test ends. The cube
    and Vandermonde caches are keyed by the prime in force, so nothing
    built over one field is reused over another."""
    return lambda prime: monkeypatch.setattr(_detcube, "PRIME", prime)


@pytest.fixture
def force_sweep(monkeypatch):
    """``force_sweep()`` makes ``randomized_insert``'s capped-cost
    certificate fail until the test ends: no matching has a negative capped
    total, so an instance whose least signature has 2·k0 <= x0 - q sweeps."""
    return lambda: monkeypatch.setattr(solvers, "_least_capped_cost", lambda costs: -1)
