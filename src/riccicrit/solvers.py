"""Critical-edge solvers: flip the curvature sign of an edge with few edits.

A problem variant picks weighted/unweighted input, restricted/unrestricted
candidate edits, insertion/deletion, and the demanded sign change. Exact
algorithms exist only where the underlying theory provides them:

* feasibility by saturation (apply every permissible edit, check the sign)
  for the studied insert-to-positive variants and restricted
  delete-to-negative;
* a deterministic greedy that lowers matched cost-matrix entries until the
  matched cost crosses the flip threshold (factor 2b under the no-side-edges
  property, 2(a+b) in general);
* a randomized sweep over matching signatures that picks the matching whose
  minimum drop count is smallest (factor b, respectively a+b), built on the
  exact-cost matching machinery;
* plain brute force over edit subsets as the acceptance oracle.

On unweighted graphs (``uw-rt-ins-ntp``, ``uw-ut-ins-ntp``,
``uw-rt-del-ptn`` and ``uw-ut-del-ptn``) the searches -- brute force, the
single-edit shortcut and the feasibility check inside greedy and randomized
-- run on the local cost matrix: an edit set is judged from the adjacency
sets of the nodes of N[u] and N[v] and a small r x s transportation
problem, without building a graph. Greedy re-reads its weights from the
same edited adjacency sets after each insertion. Weighted variants search
on edited graphs. Either way, each edit set a solver returns is verified
by the flow route on the edited graph; an unverified set is never returned.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Set
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable

from .curvature import (
    BlowUpMatrix,
    CostMatrix,
    CurvatureResult,
    Sign,
    _adjacency_costs,
    blow_up,
    build_cost_matrix,
    canonicalize_matching,
    fraction_json,
    ricci,
    sign_of,
)
from .errors import (
    BudgetExceededError,
    InfeasibleInstanceError,
    RetryExhaustedError,
    UnsupportedVariantError,
)
from .graphs import Graph, ordered_pair
from .matching import (
    Matching,
    _check_seed,
    _transport,
    matching_cost,
    matching_with_counts,
    min_cost_perfect_matching,
    signature_support,
)

WEIGHTINGS = ("uw", "wt")
RESTRICTIONS = ("rt", "ut")
OPERATIONS = ("ins", "del")
DIRECTIONS = ("ptn", "ntp")

# For unweighted graphs a sign flip can only go negative-to-positive via
# insertions and positive-to-negative via deletions; the four opposite
# pairings are rejected outright.
INFEASIBLE_VARIANTS = frozenset(
    {
        ("uw", "rt", "ins", "ptn"),
        ("uw", "ut", "ins", "ptn"),
        ("uw", "rt", "del", "ntp"),
        ("uw", "ut", "del", "ntp"),
    }
)

# Variants whose saturation check is a sound and complete feasibility
# decider. Unrestricted deletion is excluded: deleting edges at u and v
# shrinks the neighborhoods themselves, so "delete everything" is not the
# extremal edit set there.
_SATURATION_VARIANTS = frozenset(
    {
        ("uw", "rt", "ins", "ntp"),
        ("uw", "ut", "ins", "ntp"),
        ("wt", "rt", "ins", "ntp"),
        ("wt", "ut", "ins", "ntp"),
        ("uw", "rt", "del", "ptn"),
    }
)

_APPROX_VARIANT = ("uw", "rt", "ins", "ntp")

# Random trials of ``randomized_insert``: the signature sweep, then the
# witness search, whose first trials reuse the sweep's cubes.
_SWEEP_TRIALS = 2
_WITNESS_TRIALS = 4


@dataclass(frozen=True)
class ProblemVariant:
    weighting: str
    restriction: str
    operation: str
    direction: str

    def __post_init__(self):
        if (
            self.weighting not in WEIGHTINGS
            or self.restriction not in RESTRICTIONS
            or self.operation not in OPERATIONS
            or self.direction not in DIRECTIONS
        ):
            raise ValueError(f"unknown variant attribute in {self.key}")
        if self.key_tuple in INFEASIBLE_VARIANTS:
            raise ValueError(f"variant {self.key} has no feasible solutions")

    @property
    def key_tuple(self) -> tuple[str, str, str, str]:
        return (self.weighting, self.restriction, self.operation, self.direction)

    @property
    def key(self) -> str:
        return "-".join([self.weighting, self.restriction, self.operation, self.direction])

    @classmethod
    def parse(cls, name: str) -> "ProblemVariant":
        parts = name.strip().split("-")
        if len(parts) != 4:
            raise ValueError(f"variant must look like 'uw-rt-ins-ntp', got {name!r}")
        return cls(*parts)


@dataclass(frozen=True)
class Instance:
    """A graph, an edge of it, and the demanded sign flip.

    The starting sign is checked on construction: for unweighted variants
    by the local evaluator, for weighted ones by the flow route.
    """

    graph: Graph
    edge: tuple[int, int]
    variant: ProblemVariant

    def __post_init__(self):
        u, v = self.edge
        object.__setattr__(self, "edge", ordered_pair(u, v))
        if not self.graph.has_edge(*self.edge):
            raise ValueError(f"{self.edge} is not an edge of the graph")
        if self.variant.weighting == "uw" and self.graph.weighted:
            raise ValueError("uw variants require an unweighted graph")
        if self._local is not None:
            total, q = self._local.total(())
            sign = sign_of(Fraction(q - total, q))
        else:
            sign = self.base_curvature().sign
        if self.variant.direction == "ntp":
            # Sign zero is admitted as the degenerate boundary case where a
            # single suitable edit already decides the instance.
            if sign == Sign.POSITIVE:
                raise ValueError("ntp instances need non-positive starting curvature")
        else:
            if sign != Sign.POSITIVE:
                raise ValueError("ptn instances need strictly positive starting curvature")

    def base_curvature(self) -> CurvatureResult:
        """The edge's curvature by the flow route, computed on first call."""
        return self._base

    @cached_property
    def _base(self) -> CurvatureResult:
        return ricci(self.graph, self.edge, route="flow")

    @cached_property
    def _local(self) -> "_LocalEvaluator | None":
        """Edit-set evaluator on the local cost matrix; None for weighted variants."""
        if self.variant.weighting != "uw":
            return None
        return _LocalEvaluator(self.graph, self.edge, self.variant)


@dataclass(frozen=True)
class Solution:
    """A verified edit set: applying it flips the sign as demanded.

    ``drops`` is None except for the approximations: greedy drops one block per
    inserted edge, randomized drops kappa-hat matched edges of the blow-up, so
    its count can exceed ``len(edits)``.
    """

    edits: tuple
    resulting_ric: Fraction
    method: str
    drops: int | None = None

    def to_json_dict(self) -> dict:
        if not self.edits:
            edits_json: list = []
        elif isinstance(self.edits[0][0], tuple):
            edits_json = [{"edge": list(pair), "weight": w} for pair, w in self.edits]
        else:
            edits_json = [{"edge": list(pair)} for pair in self.edits]
        return {
            "edits": edits_json,
            "resulting_ric": fraction_json(self.resulting_ric),
            "resulting_ric_str": f"{self.resulting_ric.numerator}/{self.resulting_ric.denominator}",
            "method": self.method,
            "verified": True,
        }


# -- edits ---------------------------------------------------------------------


def has_spade_property(g: Graph, e: tuple[int, int]) -> bool:
    """True when neither open neighborhood of the edge contains an edge."""
    u, v = e
    for side, other in ((u, v), (v, u)):
        nbrs = [x for x in g.neighbors(side) if x != other]
        for a, b in itertools.combinations(nbrs, 2):
            if g.has_edge(a, b):
                return False
    return True


def candidate_edits(g: Graph, edge: tuple[int, int], variant: ProblemVariant) -> tuple:
    """Candidate edits for an edge under a variant, in canonical sorted order.

    Insertions come as ((u, v), weight) with weight 1 (heavier insertions are
    never needed when the edge's own weight survives the edit), deletions as
    plain node pairs."""
    u, v = ordered_pair(*edge)
    if variant.operation == "ins":
        pairs: set[tuple[int, int]] = set()
        if variant.restriction == "rt":
            left = [x for x in g.neighbors(u) if x != v]
            right = [y for y in g.neighbors(v) if y != u]
            for x in left:
                for y in right:
                    if x != y and not g.has_edge(x, y):
                        pairs.add(ordered_pair(x, y))
        else:
            for x in range(g.node_count):
                for y in range(x + 1, g.node_count):
                    if not g.has_edge(x, y):
                        pairs.add((x, y))
        return tuple((pair, 1) for pair in sorted(pairs))
    else:
        out = []
        for a, b, _w in g.edges():
            if (a, b) == (u, v):
                continue
            if variant.restriction == "rt" and (a in (u, v) or b in (u, v)):
                continue
            out.append((a, b))
        return tuple(sorted(out))


def permissible_edits(inst: Instance) -> tuple:
    return candidate_edits(inst.graph, inst.edge, inst.variant)


def apply_edits(inst: Instance, edits: Iterable) -> Graph:
    edits = tuple(edits)
    if inst.variant.operation == "ins":
        return inst.graph.insert_edges(edits)
    return inst.graph.delete_edges(edits)


def _demanded_sign(inst: Instance) -> Sign:
    return Sign.POSITIVE if inst.variant.direction == "ntp" else Sign.NEGATIVE


def _flips(inst: Instance, edits: Iterable) -> tuple[bool, Fraction]:
    res = ricci(apply_edits(inst, edits), inst.edge, route="flow")
    return res.sign == _demanded_sign(inst), res.ric


class _LocalEvaluator:
    """Exact curvature of an unweighted edge after an edit set, from adjacency sets.

    The cost entries follow ``_adjacency_costs``. An edit changes only its
    two endpoints' adjacency sets, which are copied before they change; N[u]
    and N[v] are read from the edited sets, so edits at u or v (unrestricted
    variants) are covered too. The EMD times q is the optimum of the r x s
    transportation problem with supplies q/r and demands q/s.
    """

    def __init__(self, g: Graph, edge: tuple[int, int], variant: ProblemVariant):
        self._graph = g
        self._u, self._v = edge
        self._insert = variant.operation == "ins"
        self._to_positive = variant.direction == "ntp"
        self._restricted = variant.restriction == "rt"
        self._base: dict[int, frozenset[int]] = {}

    def neighbors(self, x: int, edited: dict[int, set[int]]) -> Set[int]:
        """Adjacency set of ``x`` under ``edited``, the sets the edits so far changed."""
        near = edited.get(x)
        if near is None:
            near = self._base.get(x)
            if near is None:
                near = self._base[x] = frozenset(self._graph.neighbors(x))
        return near

    def apply(self, edited: dict[int, set[int]], edit) -> None:
        """Apply one edit to ``edited``, copying each endpoint's set on first change."""
        a, b = edit[0] if self._insert else edit
        for x, y in ((a, b), (b, a)):
            near = edited.get(x)
            if near is None:
                near = edited[x] = set(self.neighbors(x, edited))
            if self._insert:
                near.add(y)
            else:
                near.discard(y)

    def total(self, edits: Iterable) -> tuple[int, int]:
        """(q * EMD, q) of the edge after ``edits``."""
        edited: dict[int, set[int]] = {}
        for edit in edits:
            self.apply(edited, edit)
        rows = [self._u, *self.neighbors(self._u, edited)]
        cols = [self._v, *self.neighbors(self._v, edited)]
        costs = _adjacency_costs(rows, cols, lambda x: self.neighbors(x, edited))
        r, s = len(rows), len(cols)
        q = math.lcm(r, s)
        flow, _ = _transport(costs, [q // r] * r, [q // s] * s)
        return sum(c * f for crow, frow in zip(costs, flow) for c, f in zip(crow, frow)), q

    def flips(self, edits: Iterable) -> bool:
        """Whether ``edits`` give the edge the variant's demanded sign."""
        total, q = self.total(edits)
        return total < q if self._to_positive else total > q

    def out_of_reach(self, cands: Iterable, k: int) -> bool:
        """True when no k of the edits ``cands`` can flip the sign.

        A restricted edit leaves N[u] and N[v] alone and changes only entries
        in the rows and columns of its endpoints: the edited pair's own
        entries by at most 2, every other entry by at most 1. A plan ships
        a = q/r from each row and b = q/s into each column, so the edits
        move its cost, and hence q * EMD, by at most a per endpoint row and
        b per endpoint column. The k largest such sums bound every k-subset.
        """
        if not self._restricted:
            return False
        total, q = self.total(())
        gap = total - q if self._to_positive else q - total
        rows = self.neighbors(self._u, {}) | {self._u}
        cols = self.neighbors(self._v, {}) | {self._v}
        a, b = q // len(rows), q // len(cols)
        reach = sorted(
            (sum(a * (x in rows) + b * (x in cols) for x in (edit[0] if self._insert else edit)) for edit in cands),
            reverse=True,
        )
        return sum(reach[:k]) <= gap


def _first_flip(inst: Instance, subsets: Iterable[tuple]) -> tuple[tuple, Fraction] | None:
    """The first subset whose edits flip the sign, with the resulting curvature.

    Subsets are screened on the local cost matrix where the variant has an
    evaluator; a subset is taken only once the flow route on the edited
    graph confirms it.
    """
    local = inst._local
    for edits in subsets:
        if local is not None and not local.flips(edits):
            continue
        flipped, ric_after = _flips(inst, edits)
        if flipped:
            return edits, ric_after
    return None


def _check_saturation_variant(inst: Instance) -> None:
    key = inst.variant.key_tuple
    if key not in _SATURATION_VARIANTS:
        raise UnsupportedVariantError(f"no saturation decider for variant {inst.variant.key}")
    if inst.variant.weighting == "wt" and inst.variant.operation == "ins":
        w = inst.graph.weight(*inst.edge)
        limit = 3 if inst.variant.restriction == "rt" else 2
        if w > limit:
            raise UnsupportedVariantError(
                f"saturation for {inst.variant.key} is only guaranteed when w(u,v) <= {limit}, got {w}"
            )


def feasible_by_saturation(inst: Instance) -> tuple[bool, Solution | None]:
    """Apply every permissible edit at once and check the resulting sign.

    Sound and complete for the supported variants: the saturated graph is
    extremal, so it flips if anything does.
    """
    _check_saturation_variant(inst)
    edits = permissible_edits(inst)
    if not edits:
        return False, None
    flipped, ric_after = _flips(inst, edits)
    if not flipped:
        return False, None
    return True, Solution(edits, ric_after, "saturation")


def brute_force_opt(inst: Instance, max_k: int, *, budget: int = 2_000_000) -> Solution | None:
    """Smallest edit set that flips the sign, by exhaustive level search.

    Cardinality-lexicographic: levels are searched in increasing size and
    candidate subsets in lexicographic order, so the result is deterministic.
    On unweighted graphs subsets are screened on the local cost matrix, and
    a restricted level that provably cannot flip is skipped; the subset
    returned is the first one the edited graph confirms.
    Returns None when nothing within ``max_k`` edits flips. Exponential by
    design; refuses search spaces beyond ``budget`` subsets.
    """
    cands = permissible_edits(inst)
    local = inst._local
    spent = 0
    for k in range(1, max_k + 1):
        level = math.comb(len(cands), k)
        if spent + level > budget:
            raise BudgetExceededError(
                f"level {k} needs {level} subsets ({spent} already searched), over budget {budget}"
            )
        spent += level
        if local is not None and local.out_of_reach(cands, k):
            continue
        hit = _first_flip(inst, itertools.combinations(cands, k))
        if hit is not None:
            return Solution(hit[0], hit[1], "brute")
    return None


# -- the kappa machinery --------------------------------------------------------


def kappa_hat(n3: int, n2: int, tau: int) -> tuple[int, int] | None:
    """Fewest drops (kappa3, kappa2) that take a cost q + tau matching below q.

    Matched 3-edges drop to 1 (saving 2 each) before touchable 2-edges
    (saving 1), so kappa3 = n3 whenever kappa2 > 0. None marks an unwanted
    matching: its n3 3-edges and n2 touchable 2-edges save at most tau.
    """
    if 2 * n3 > tau:
        return tau // 2 + 1, 0
    if 2 * n3 + n2 > tau:
        return n3, tau - 2 * n3 + 1
    return None


def select_drop_edges(bm: BlowUpMatrix, m: Matching, kappa3: int, kappa2: int) -> list[tuple[int, int]]:
    """The first kappa3 matched 3-edges and kappa2 touchable 2-edges of ``m``, as (row, col)."""
    costs, touchable = bm.source.costs, bm.source.touchable
    matched = [((row, col), bm.block(row, col)) for row, col in enumerate(m.assignment)]
    threes = [edge for edge, (i, j) in matched if costs[i][j] == 3]
    twos = [edge for edge, (i, j) in matched if costs[i][j] == 2 and touchable[i][j]]
    chosen = threes[:kappa3] + twos[:kappa2]
    if len(chosen) != kappa3 + kappa2:
        raise AssertionError("matching cannot realize the requested drop budget")
    return chosen


@dataclass(frozen=True)
class _Setup:
    """The blow-up of an instance's cost matrix and its lex-min minimum-cost matching."""

    bm: BlowUpMatrix
    mcpm: Matching

    @property
    def cm(self) -> CostMatrix:
        return self.bm.source

    @property
    def q(self) -> int:
        return self.bm.q

    @property
    def delta(self) -> int:
        """The minimum matched cost, q * EMD."""
        return self.mcpm.cost

    @property
    def rho(self) -> int:
        """How far the minimum matched cost lies above the flip threshold q."""
        return self.delta - self.q


def _setup(inst: Instance) -> _Setup:
    bm = blow_up(build_cost_matrix(inst.graph, inst.edge))
    return _Setup(bm, min_cost_perfect_matching(bm.costs))


def _require_approx_variant(inst: Instance) -> None:
    if inst.variant.key_tuple != _APPROX_VARIANT:
        raise UnsupportedVariantError(
            f"this solver only handles {'-'.join(_APPROX_VARIANT)}, not {inst.variant.key}"
        )


def _approx_setup(inst: Instance, method: str) -> _Setup | Solution:
    """The set-up of an approximation solver, or its answer if that is one edit.

    Raises unless inserting every permissible edge flips the sign
    (saturation). When the minimum matched cost sits at the threshold
    (rho = 0), a single verified edit, if any flips, is the answer.
    """
    edits = permissible_edits(inst)
    if not edits or not inst._local.flips(edits):
        raise InfeasibleInstanceError("no permissible insertion set flips this edge")
    setup = _setup(inst)
    if setup.rho == 0:
        single = _single_edit_solution(inst, method)
        if single is not None:
            return single
    return setup


def _single_edit_solution(inst: Instance, method: str) -> Solution | None:
    hit = _first_flip(inst, ((edit,) for edit in permissible_edits(inst)))
    if hit is None:
        return None
    return Solution(hit[0], hit[1], method, drops=1)


def _finish_insert_solution(
    inst: Instance, cm: CostMatrix, blocks: Iterable[tuple[int, int]], method: str, drops: int
) -> Solution:
    pairs = sorted({ordered_pair(cm.row_nodes[i], cm.col_nodes[j]) for i, j in blocks})
    edits = tuple((pair, 1) for pair in pairs)
    flipped, ric_after = _flips(inst, edits)
    if not flipped:
        raise RetryExhaustedError("constructed edit set failed verification; nothing returned")
    return Solution(edits, ric_after, method, drops=drops)


# -- greedy ----------------------------------------------------------------------


def greedy_schedule(
    costs,
    touchable,
    matched_blocks: list[tuple[int, int]],
    threshold: int,
    after_drop=None,
):
    """Shared greedy loop over a mutable weight matrix.

    Drops the lexicographically first matched touchable 3-entry (then
    2-entry) to 1 until the matched cost is strictly below ``threshold``.
    ``after_drop(weights, (i, j))`` may rewrite ``weights`` in place after
    each drop; ``greedy_insert`` re-reads every entry from the adjacency sets
    with the inserted edge. Returns the dropped cells and the final weights.
    """
    weights = [list(row) for row in costs]
    drops: list[tuple[int, int]] = []
    while True:
        tracked = sum(weights[i][j] for i, j in matched_blocks)
        if tracked < threshold:
            return drops, weights
        pick = None
        for want in (3, 2):
            cells = sorted(
                {(i, j) for i, j in matched_blocks if weights[i][j] == want and touchable[i][j]}
            )
            if cells:
                pick = cells[0]
                break
        if pick is None:
            raise InfeasibleInstanceError("greedy ran out of droppable matched edges")
        weights[pick[0]][pick[1]] = 1
        drops.append(pick)
        if after_drop is not None:
            after_drop(weights, pick)


def greedy_insert(inst: Instance, start: Matching | None = None) -> Solution:
    """Deterministic approximation for restricted insert-to-positive.

    Starting from a canonicalized minimum-cost perfect matching of the
    blow-up, repeatedly pick a matched touchable 3-entry (then 2-entry),
    insert the corresponding graph edge, and re-read the weights of the
    edited neighborhoods, until the matched cost falls below q. One drop per
    inserted edge: all copies of a block fall together.
    """
    _require_approx_variant(inst)
    setup = _approx_setup(inst, "greedy")
    if isinstance(setup, Solution):
        return setup
    if start is None:
        start = canonicalize_matching(setup.bm, setup.mcpm)
    else:
        if len(start.assignment) != setup.q:
            raise ValueError("start matching does not fit the blow-up")
        if matching_cost(setup.bm.costs, start.assignment) != setup.delta:
            raise ValueError("start matching must be minimum-cost")
    matched_blocks = [setup.bm.block(row, col) for row, col in enumerate(start.assignment)]

    cm, local = setup.cm, inst._local
    inserted: dict[int, set[int]] = {}

    def after_drop(weights, cell):
        local.apply(inserted, (ordered_pair(cm.row_nodes[cell[0]], cm.col_nodes[cell[1]]), 1))
        weights[:] = _adjacency_costs(cm.row_nodes, cm.col_nodes, lambda x: local.neighbors(x, inserted))

    drops, _ = greedy_schedule(cm.costs, cm.touchable, matched_blocks, setup.q, after_drop=after_drop)
    return _finish_insert_solution(inst, cm, drops, "greedy", len(drops))


# -- randomized ------------------------------------------------------------------


def randomized_insert(inst: Instance, seed: int) -> Solution:
    """Randomized approximation for restricted insert-to-positive.

    Sweeps every reachable matching cost x, takes the cost-x matching with
    the most 3-edges (then most touchable 2-edges), computes its drop budget,
    and keeps the overall minimizer (ties to smaller x). The witness matching
    is recovered through the exact-cost machinery and the final edit set is
    verified by recomputation; randomness can degrade optimality but never
    validity. The seed must be a non-negative integer.
    """
    _check_seed(seed)
    _require_approx_variant(inst)
    setup = _approx_setup(inst, "randomized")
    if isinstance(setup, Solution):
        return setup
    mask = setup.bm.touchable_mask()
    support = signature_support(setup.bm.costs, mask, trials=_SWEEP_TRIALS, seed=seed)
    # Sorted, so each cost x keeps its most 3-edges, then most touchable 2-edges.
    most = {x: (k, l) for x, k, l in sorted(support)}
    budget = {x: kappa_hat(k, l, x - setup.q) for x, (k, l) in most.items()}
    wanted = [(sum(kappa), x) for x, kappa in budget.items() if kappa is not None]
    if not wanted:
        raise RetryExhaustedError("no wanted matching signature was certified; nothing returned")
    _, x = min(wanted)
    (k, l), (kappa3, kappa2) = most[x], budget[x]
    witness = matching_with_counts(setup.bm.costs, mask, x, k, l, trials=_WITNESS_TRIALS, seed=seed)
    if witness is None:
        raise RetryExhaustedError("witness extraction failed for the selected signature")
    edges = select_drop_edges(setup.bm, witness, kappa3, kappa2)
    blocks = {setup.bm.block(row, col) for row, col in edges}
    return _finish_insert_solution(inst, setup.cm, blocks, "randomized", len(edges))
