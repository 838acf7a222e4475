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
  exact-cost matching machinery; when the least signature, found exactly by
  one min-cost matching, is certified to be the sweep's pick -- it has more
  3-edges than half its excess over q, or one more min-cost matching, on
  costs capped at 2, shows that no costlier matching has enough 3-edges to
  need fewer drops -- its lex-min matching is the witness, and no sweep
  runs;
* plain brute force over edit subsets as the acceptance oracle.

Every variant runs one screened search. Each ``Instance`` has a local
evaluator that judges an edit set by the small r x s transportation problem
of the edited cost matrix: brute force, the single-edit shortcut, the
feasibility check inside greedy and randomized, and the starting-sign check
all go through it. On unweighted graphs the evaluator reads the cost matrix
from the edited graph's adjacency maps of the nodes of N[u] and N[v], and
greedy re-reads its weights the same way after each insertion; on weighted
graphs it reads the cost matrix of the edited graph.
Each edit set a solver returns is verified on the edited graph by the
default route, whose answer is held only once its optimality certificate
(feasible plan and duals with no duality gap) checks; an unverified set is
never returned. An ``Instance`` keeps the verdict on each edit set it has
verified, its blow-up, and greedy's canonical start (the blow-up's lex-min
minimum-cost matching, canonicalized once), so solvers run on one instance
share them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable

from .curvature import (
    BlowUpMatrix,
    CostMatrix,
    Sign,
    _adjacency_costs,
    _mirror_swaps,
    blow_up,
    build_cost_matrix,
    certificate_fault,
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
    _check_integers,
    _check_seed,
    _least_capped_cost,
    _least_signature,
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

    The starting sign is checked on construction by the local evaluator,
    which every variant has; no flow is solved.
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
        total, threshold = self._local.unedited
        sign = sign_of(Fraction(threshold - total, threshold))
        if self.variant.direction == "ntp":
            # Sign zero is admitted as the degenerate boundary case where a
            # single suitable edit already decides the instance.
            if sign == Sign.POSITIVE:
                raise ValueError("ntp instances need non-positive starting curvature")
        else:
            if sign != Sign.POSITIVE:
                raise ValueError("ptn instances need strictly positive starting curvature")

    @cached_property
    def _local(self) -> "_LocalEvaluator":
        """Edit-set evaluator on the local cost matrix."""
        return _LocalEvaluator(self.graph, self.edge, self.variant)

    @cached_property
    def _saturation(self) -> tuple[tuple, bool]:
        """The permissible edits, and whether the local evaluator sees them all together flip the sign."""
        edits = permissible_edits(self)
        return edits, bool(edits) and self._local.flips(edits)

    @cached_property
    def _blow_up(self) -> BlowUpMatrix:
        """The blow-up of the edge's cost matrix, on which the approximations work."""
        return blow_up(build_cost_matrix(self.graph, self.edge))

    @cached_property
    def _start(self) -> Matching:
        """Greedy's default start: the blow-up's lex-min minimum-cost matching, canonicalized.

        Only greedy builds it: the rho = 0 test reads q * EMD off the local
        evaluator instead.
        """
        bm = self._blow_up
        return _mirror_swaps(bm, min_cost_perfect_matching(bm.costs))

    @cached_property
    def _verdicts(self) -> dict[frozenset, tuple[bool, Fraction]]:
        """The certified verdict on each edit set ``_flips`` has verified."""
        return {}


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


def _flips(inst: Instance, edits: Iterable) -> tuple[bool, Fraction]:
    """Whether the edited graph's curvature has the demanded sign, and that
    curvature: the default route's answer, held only once its optimality
    certificate checks. Each distinct edit set is verified once per instance."""
    edits = tuple(edits)
    key = frozenset(edits)
    verdict = inst._verdicts.get(key)
    if verdict is None:
        res = ricci(apply_edits(inst, edits), inst.edge)
        fault = certificate_fault(res)
        if fault is not None:
            raise RetryExhaustedError(f"the edited graph's curvature failed its certificate: {fault}; nothing returned")
        demanded = Sign.POSITIVE if inst.variant.direction == "ntp" else Sign.NEGATIVE
        verdict = inst._verdicts[key] = (res.sign == demanded, res.ric)
    return verdict


class _LocalEvaluator:
    """Exact curvature of the edge after an edit set, for every variant.

    q * EMD is the optimum of the r x s transportation problem on the edited
    cost matrix with supplies q/r and demands q/s; the sign flips where it
    crosses q * dist(u, v). On weighted graphs the matrix, dist(u, v)
    included (an insertion can shorten it), is ``build_cost_matrix`` of the
    edited graph. On unweighted graphs dist(u, v) is 1 and the entries follow
    ``_adjacency_costs`` on the edited graph's adjacency maps, which the edit
    copies only at its endpoints (every node of N[u] and N[v] has an edge, so
    a map); N[u] and N[v] are read from the edited graph, so edits at u or v
    are covered too.
    """

    def __init__(self, g: Graph, edge: tuple[int, int], variant: ProblemVariant):
        self._graph = g
        self._u, self._v = edge
        self._insert = variant.operation == "ins"
        self._to_positive = variant.direction == "ntp"
        self._restricted = variant.restriction == "rt"

    @cached_property
    def unedited(self) -> tuple[int, int]:
        """``total(())``, solved once: the starting sign and every reach bound read it."""
        return self.total(())

    def total(self, edits: Iterable) -> tuple[int, int]:
        """(q * EMD, q * dist(u, v)) of the edge after ``edits``."""
        edited = self._graph.insert_edges(edits) if self._insert else self._graph.delete_edges(edits)
        if edited.weighted:
            cm = build_cost_matrix(edited, (self._u, self._v))
            costs, dist_uv = cm.costs, cm.dist_uv
        else:
            near = edited._adj.__getitem__
            costs, dist_uv = _adjacency_costs([self._u, *near(self._u)], [self._v, *near(self._v)], near), 1
        r, s = len(costs), len(costs[0])
        q = math.lcm(r, s)
        flow = _transport(costs, [q // r] * r, [q // s] * s)[0]
        return sum(c * f for crow, frow in zip(costs, flow) for c, f in zip(crow, frow)), q * dist_uv

    def flips(self, edits: Iterable) -> bool:
        """Whether ``edits`` give the edge the variant's demanded sign."""
        total, threshold = self.total(edits)
        return total < threshold if self._to_positive else total > threshold

    def out_of_reach(self, cands: Iterable, k: int) -> bool:
        """True when no k of the edits ``cands`` can flip the sign.

        A restricted edit leaves N[u] and N[v] alone and changes only entries
        in the rows and columns of its endpoints: on unit weights, the edited
        pair's own entries by at most 2, every other entry by at most 1. A
        plan ships a = q/r from each row and b = q/s into each column, so the
        edits move its cost, and hence q * EMD, by at most a per endpoint row
        and b per endpoint column. The k largest such sums bound every
        k-subset. Weighted graphs get no bound: nothing is out of reach.
        """
        if not self._restricted or self._graph.weighted:
            return False
        total, q = self.unedited
        gap = total - q if self._to_positive else q - total
        rows = set(self._graph.closed_neighborhood(self._u))
        cols = set(self._graph.closed_neighborhood(self._v))
        a, b = q // len(rows), q // len(cols)
        reach = sorted(
            (sum(a * (x in rows) + b * (x in cols) for x in (edit[0] if self._insert else edit)) for edit in cands),
            reverse=True,
        )
        return sum(reach[:k]) <= gap


def _first_flip(inst: Instance, subsets: Iterable[tuple]) -> tuple[tuple, Fraction] | None:
    """The first subset whose edits flip the sign, with the resulting curvature.

    Every subset is screened by the instance's local evaluator; a subset is
    taken only once ``_flips`` confirms it on the edited graph.
    """
    local = inst._local
    for edits in subsets:
        if not local.flips(edits):
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
    Subsets are screened by the instance's local evaluator, and on
    unweighted graphs a restricted level that provably cannot flip is
    skipped; the subset returned is the first one the edited graph confirms.
    Levels past the candidate count hold no subsets and are not searched.
    Returns None when nothing within ``max_k`` edits flips. Exponential by
    design; refuses search spaces beyond ``budget`` subsets. Unrestricted
    insertion takes every non-edge as a candidate: those are counted, not
    listed, until a level fits the budget. ``max_k`` and ``budget`` must be
    integers.
    """
    _check_integers(max_k=max_k, budget=budget)
    g, variant = inst.graph, inst.variant
    if variant.operation == "ins" and variant.restriction == "ut":
        cands, count = None, g.node_count * (g.node_count - 1) // 2 - g.edge_count()
    else:
        cands = permissible_edits(inst)
        count = len(cands)
    spent = 0
    for k in range(1, min(max_k, count) + 1):
        level = math.comb(count, k)
        if spent + level > budget:
            raise BudgetExceededError(
                f"level {k} needs {level} subsets ({spent} already searched), over budget {budget}"
            )
        spent += level
        if cands is None:
            cands = permissible_edits(inst)
        if inst._local.out_of_reach(cands, k):
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


def _approx_setup(inst: Instance, method: str) -> BlowUpMatrix | Solution:
    """The blow-up an approximation solver works on, or its answer if that is one edit.

    Raises unless the variant is restricted unweighted insert-to-positive
    and inserting every permissible edge flips the sign (saturation). When
    the minimum matched cost sits at the threshold (rho = 0), the first
    single edit that flips, confirmed by ``_flips``, is the answer. The
    local evaluator's unedited total is that minimum (q * EMD), so no
    matching of the blow-up is built to test it.
    """
    if inst.variant.key_tuple != _APPROX_VARIANT:
        raise UnsupportedVariantError(
            f"this solver only handles {'-'.join(_APPROX_VARIANT)}, not {inst.variant.key}"
        )
    edits, flips = inst._saturation
    if not flips:
        raise InfeasibleInstanceError("no permissible insertion set flips this edge")
    total, threshold = inst._local.unedited
    if total == threshold:
        hit = _first_flip(inst, ((edit,) for edit in edits))
        if hit is not None:
            return Solution(hit[0], hit[1], method, drops=1)
    return inst._blow_up


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
    matched_blocks: Iterable[tuple[int, int]],
    threshold: int,
    after_drop=None,
):
    """Shared greedy loop over a mutable weight matrix.

    ``matched_blocks`` names the block of each matched pair, repeats
    included; the loop tracks how many pairs each distinct block holds, so
    the matched cost is the sum of count times weight. It drops the
    lexicographically first matched touchable 3-entry (then 2-entry) to 1
    until the matched cost is strictly below ``threshold``.
    ``after_drop(weights, (i, j))`` may rewrite ``weights`` in place after
    each drop; ``greedy_insert`` re-reads every entry from the adjacency maps
    of the graph with the inserted edges. Returns the dropped cells and the
    final weights.
    """
    weights = [list(row) for row in costs]
    counts = sorted(Counter(matched_blocks).items())
    drops: list[tuple[int, int]] = []
    while sum(n * weights[i][j] for (i, j), n in counts) >= threshold:
        # The first 3-block in block order, else the first 2-block.
        droppable = [(w == 2, (i, j)) for (i, j), _ in counts if (w := weights[i][j]) in (2, 3) and touchable[i][j]]
        if not droppable:
            raise InfeasibleInstanceError("greedy ran out of droppable matched edges")
        pick = min(droppable)[1]
        weights[pick[0]][pick[1]] = 1
        drops.append(pick)
        if after_drop is not None:
            after_drop(weights, pick)
    return drops, weights


def greedy_insert(inst: Instance, start: Matching | None = None) -> Solution:
    """Deterministic approximation for restricted insert-to-positive.

    Starting from the instance's canonicalized minimum-cost perfect matching
    of the blow-up, or from ``start``, repeatedly pick a matched touchable
    3-entry (then 2-entry), insert the corresponding graph edge, and re-read
    the weights of the edited neighborhoods, until the matched cost falls
    below q. One drop per inserted edge: all copies of a block fall together.
    A ``start`` must fit the blow-up, be minimum-cost and carry that cost.
    """
    bm = _approx_setup(inst, "greedy")
    if isinstance(bm, Solution):
        return bm
    if start is None:
        start = inst._start
    else:
        if len(start.assignment) != bm.q:
            raise ValueError("start matching does not fit the blow-up")
        if matching_cost(bm.costs, start.assignment) != inst._start.cost:
            raise ValueError("start matching must be minimum-cost")
        if start.cost != inst._start.cost:
            raise ValueError(f"start matching says it costs {start.cost}, but its assignment costs {inst._start.cost}")

    cm = bm.source
    edited = inst.graph

    def after_drop(weights, cell):
        nonlocal edited
        edited = edited.insert_edges([((cm.row_nodes[cell[0]], cm.col_nodes[cell[1]]), 1)])
        weights[:] = _adjacency_costs(cm.row_nodes, cm.col_nodes, edited._adj.__getitem__)

    matched_blocks = map(bm.block, range(bm.q), start.assignment)
    drops, _ = greedy_schedule(cm.costs, cm.touchable, matched_blocks, bm.q, after_drop=after_drop)
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

    The sweep is skipped when the least signature (x0, k0, l0), found
    exactly by one min-cost matching, is certified to be its pick. Let
    tau0 = x0 - q and kappa0 = kappa_hat(k0, l0, tau0), and let kappa0 be
    wanted (not None). Two certificates are tried, in this order:

    * 2·k0 > tau0. The budget is then (tau0 // 2 + 1, 0), and no signature
      does better: a wanted one at any tau needs at least tau // 2 + 1
      drops in both branches of ``kappa_hat``, a bound that never falls as
      tau grows.
    * ``_least_capped_cost`` is x0 - k0. The budget is then
      (k0, tau0 - 2·k0 + 1), tau0 - k0 + 1 drops. A matching's capped total
      is its cost minus its 3-edges, so every matching of cost x0 + d has
      n3 <= k0 + d. At tau = tau0 + d, if 2·n3 > tau, then
      d >= tau0 - 2·k0 + 1, so tau // 2 + 1 >= tau0 - k0 + 1 drops;
      otherwise it needs tau - n3 + 1 >= tau0 - k0 + 1.

    Either way no signature needs fewer drops, and ties go to the smaller
    cost, so the sweep would pick (x0, k0, l0) too. Its witness is the
    lexicographically first matching with that signature, which
    ``_least_signature`` returns, as ``matching_with_counts`` would. So the
    Solution is the same, without numpy. Otherwise the sweep runs.
    """
    _check_integers(seed=seed)
    _check_seed(seed)
    bm = _approx_setup(inst, "randomized")
    if isinstance(bm, Solution):
        return bm
    mask = bm.touchable_mask()
    least, (x, k, l) = _least_signature(bm.costs, mask)
    kappa = kappa_hat(k, l, x - bm.q)
    if kappa is not None and (2 * k > x - bm.q or _least_capped_cost(bm.costs) == x - k):
        witness, (kappa3, kappa2) = least, kappa
    else:
        support = signature_support(bm.costs, mask, trials=_SWEEP_TRIALS, seed=seed)
        # Sorted, so each cost x keeps its most 3-edges, then most touchable 2-edges.
        most = {x: (k, l) for x, k, l in sorted(support)}
        budget = {x: kappa_hat(k, l, x - bm.q) for x, (k, l) in most.items()}
        wanted = [(sum(kappa), x) for x, kappa in budget.items() if kappa is not None]
        if not wanted:
            raise RetryExhaustedError("no wanted matching signature was certified; nothing returned")
        _, x = min(wanted)
        (k, l), (kappa3, kappa2) = most[x], budget[x]
        witness = matching_with_counts(bm.costs, mask, x, k, l, trials=_WITNESS_TRIALS, seed=seed)
        if witness is None:
            raise RetryExhaustedError("witness extraction failed for the selected signature")
    edges = select_drop_edges(bm, witness, kappa3, kappa2)
    blocks = {bm.block(row, col) for row, col in edges}
    return _finish_insert_solution(inst, bm.source, blocks, "randomized", len(edges))
