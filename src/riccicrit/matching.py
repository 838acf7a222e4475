"""Min-cost perfect matching and randomized exact-cost matching on square matrices.

Three layers live here:

* an exact minimum-cost perfect matching solver: runs of identical rows and
  columns are grouped into a transportation problem, which successive
  shortest paths with potentials solve; the lexicographically smallest
  optimal assignment is then expanded from its tight groups, a run of rows
  taking a run of one group's free columns per step, so the q-level work is
  C-level and the Python work is per run;
* an exhaustive enumerator used as the desk-scale oracle;
* randomized search for perfect matchings of a prescribed exact cost, and the
  refinement that also prescribes how many 3-cost and touchable 2-cost edges
  the matching uses. Every edge carries a small vector of digits -- its cost
  alone, or the signature digits (4 - cost, is-3, is-touchable-2) -- and one
  search loop asks for a matching with prescribed digit sums. Search runs
  over a prime field via determinant interpolation (see ``_detcube``): a
  signature cube certifies the target, then the witness is fixed row by
  row, one cofactor pass per row giving the target's share of every column
  at once. Every witness is verified before it is returned, so randomness
  can only cause a miss, never a wrong answer.

numpy and ``_detcube`` are imported when a randomized search first runs, so
the matching kernel (and with it every curvature route) never loads numpy.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import OracleBoundError

if TYPE_CHECKING:
    import numpy as np

    from ._detcube import SignatureCube

ENUMERATION_BOUND = 8


@dataclass(frozen=True)
class Matching:
    """A perfect matching of a square cost matrix.

    ``assignment[i]`` is the column matched to row ``i``; ``cost`` is the sum
    of the matched entries under the matrix the matching was computed for.
    """

    assignment: tuple[int, ...]
    cost: int

    def __post_init__(self):
        n = len(self.assignment)
        if sorted(self.assignment) != list(range(n)):
            raise ValueError("assignment must be a permutation of 0..n-1")

    def to_json_dict(self) -> dict:
        return {"assignment": list(self.assignment), "cost": self.cost}


@dataclass(frozen=True)
class EdgeClassCounts:
    """Matched-edge counts by cost class, the 2-class split by touchability."""

    n0: int
    n1: int
    n2_touchable: int
    n2_untouchable: int
    n3: int

    @property
    def total(self) -> int:
        return self.n0 + self.n1 + self.n2_touchable + self.n2_untouchable + self.n3

    @property
    def cost(self) -> int:
        return self.n1 + 2 * (self.n2_touchable + self.n2_untouchable) + 3 * self.n3


def _check_square(costs: Sequence[Sequence[int]]) -> int:
    n = len(costs)
    if n == 0:
        raise ValueError("cost matrix must be non-empty")
    prev = None
    for row in costs:
        if row is prev:
            continue  # a blow-up repeats one row object for a row node's copies
        prev = row
        if len(row) != n:
            raise ValueError("cost matrix must be square")
        if set(map(type, row)) == {int} and min(row) >= 0:
            continue  # the common all-int row, checked without a Python-level loop
        for c in row:
            if not isinstance(c, numbers.Integral) or c < 0:
                raise ValueError(f"costs must be non-negative integers, got {c!r}")
    return n


def matching_cost(costs: Sequence[Sequence[int]], assignment: Sequence[int]) -> int:
    return sum(costs[i][j] for i, j in enumerate(assignment))


def _runs(rows: Iterable[tuple]) -> tuple[list[tuple[int, int]], list[tuple]]:
    """Group the runs of consecutive equal rows.

    Returns each run's (label, length) in order, labelling a run by the first
    run with an equal row, and the distinct rows by label. A blow-up repeats
    one row object for a row node's copies, and ``groupby`` checks identity
    before equality, so such a run costs no element comparisons.
    """
    index: dict[tuple, int] = {}
    runs = [(index.setdefault(key, len(index)), len(list(run))) for key, run in itertools.groupby(rows)]
    return runs, list(index)


def _transport(
    cost: list[list[int]], supply: list[int], demand: list[int]
) -> tuple[list[list[int]], list[list[bool]]]:
    """Min-cost integral transportation plan and its tight cells.

    Successive shortest paths with potentials (Edmonds-Karp 1972): Dijkstra on
    reduced costs from every row with supply left to the nearest column with
    demand left, then the bottleneck is pushed along that path. Forward cells
    are uncapacitated, so every column is reachable and the plan completes.
    The final potentials are optimal duals; a cell is tight when its reduced
    cost is zero, and by complementary slackness a plan is optimal exactly
    when it ships only on tight cells.
    """
    rows, cols = len(supply), len(demand)
    supply, demand = list(supply), list(demand)
    flow = [[0] * cols for _ in range(rows)]
    pot_r, pot_c = [0] * rows, [0] * cols
    while any(supply):
        dist_r: list = [0 if supply[g] else math.inf for g in range(rows)]
        dist_c: list = [math.inf] * cols
        via_r, via_c = [-1] * rows, [-1] * cols  # predecessor on the path
        heap = [(0, 0, g) for g in range(rows) if supply[g]]
        while True:
            d, is_col, x = heapq.heappop(heap)
            if is_col:
                if d > dist_c[x]:
                    continue
                if demand[x]:
                    target = x
                    break
                for g in range(rows):  # back along a used cell, at reduced cost 0
                    if flow[g][x] and d < dist_r[g]:
                        dist_r[g], via_r[g] = d, x
                        heapq.heappush(heap, (d, 0, g))
            else:
                if d > dist_r[x]:
                    continue
                base = d + pot_r[x]
                for h, c in enumerate(cost[x]):
                    nd = base + c - pot_c[h]
                    if nd < dist_c[h]:
                        dist_c[h], via_c[h] = nd, x
                        heapq.heappush(heap, (nd, 1, h))
        # Capping at the target's distance keeps every residual reduced cost
        # non-negative, including at nodes the early stop left unsettled.
        top = dist_c[target]
        for g in range(rows):
            pot_r[g] += min(dist_r[g], top)
        for h in range(cols):
            pot_c[h] += min(dist_c[h], top)
        path = []  # (row, col, +1 forward / -1 backward)
        h = target
        while True:
            source = via_c[h]
            path.append((source, h, 1))
            if via_r[source] < 0:
                break
            h = via_r[source]
            path.append((source, h, -1))
        push = min(demand[target], supply[source], *(flow[g][h] for g, h, sign in path if sign < 0))
        for g, h, sign in path:
            flow[g][h] += sign * push
        supply[source] -= push
        demand[target] -= push
    tight = [[cost[g][h] + pot_r[g] == pot_c[h] for h in range(cols)] for g in range(rows)]
    return flow, tight


class _FreeColumns:
    """Each column group's columns in order, and how many it has given out.

    ``head[h]`` is group h's smallest free column, or the column count once
    the group is full, so a full group never has the smallest head.
    """

    def __init__(self, runs: list[tuple[int, int]], groups: int):
        self.members: list[list[int]] = [[] for _ in range(groups)]
        start = 0
        for h, n in runs:
            self.members[h] += range(start, start + n)
            start += n
        self.end = start
        self.taken = [0] * groups
        self.head = [m[0] for m in self.members]

    def first_run(self, groups: list[int]) -> tuple[int, int]:
        """The group among ``groups`` whose free column is smallest, and how
        many of its free columns come before every other group's head."""
        head = self.head
        h = min(groups, key=head.__getitem__)
        first = head[h]
        head[h] = self.end  # h out of the way while the others' smallest head is read
        bound = min(map(head.__getitem__, groups))
        head[h] = first
        start = self.taken[h]
        return h, bisect.bisect_left(self.members[h], bound, start) - start

    def take(self, h: int, k: int) -> list[int]:
        """Give out group h's next k free columns."""
        members, start = self.members[h], self.taken[h]
        self.taken[h] = stop = start + k
        self.head[h] = members[stop] if stop < len(members) else self.end
        return members[start:stop]


def _take_units(
    flow: list[list[int]],
    tight: list[list[bool]],
    g: int,
    want: int,
    free: _FreeColumns,
) -> tuple[int, int]:
    """Remove up to ``want`` units of row ``g`` from the plan, all shipped to
    the column group whose next free column is smallest among those allowed.

    The columns tight with ``g`` that can reach ``g`` in the residual graph
    (back along used cells, forward along tight ones) are exactly those to
    which some optimal plan for the remaining rows ships a unit of ``g``. One
    search, expanding each row at most once, finds them all. The plan is then
    rerouted along the path so that k units leave at the chosen group, k
    being at most the path's bottleneck and the chosen group's free columns
    below every other allowed group's next one, so that k single-unit calls
    would have chosen the same group each time. Returns (group, k).
    """
    via_c: dict[int, int] = {}
    via_r = {g: -1}
    stack = [g]
    while stack:
        x = stack.pop()
        for h, f in enumerate(flow[x]):
            if f and h not in via_c:
                via_c[h] = x
                for y, row in enumerate(tight):
                    if row[h] and y not in via_r:
                        via_r[y] = h
                        stack.append(y)
    chosen, room = free.first_run([c for c in via_c if tight[g][c]])
    back, ahead = [], []  # the path's cells that lose and gain flow
    h = chosen
    while True:
        x = via_c[h]
        back.append((x, h))
        if x == g:
            break
        h = via_r[x]
        ahead.append((x, h))
    k = min(want, room, *(flow[x][h] for x, h in back))
    for x, h in back:
        flow[x][h] -= k
    for x, h in ahead:
        flow[x][h] += k
    return chosen, k


def min_cost_perfect_matching(costs: Sequence[Sequence[int]]) -> Matching:
    """The lexicographically smallest minimum-cost perfect matching.

    Runs of consecutive identical rows, and of identical columns, are
    grouped, so the q x q blow-up of an r x s matrix becomes an r x s (or
    smaller) transportation problem whose supplies and demands are the group
    sizes. Its optimal duals mark the tight groups, which every minimum-cost
    matching uses exclusively. The rows are then expanded in order, each
    taking the smallest free column of a tight group that still leaves a
    feasible plan for the remaining rows, which yields the lexicographically
    smallest minimum-cost assignment vector (row 0 first). The groups
    feasible for a row's group only shrink as its run is expanded, so a
    stretch of the run that takes consecutive free columns of one group is
    placed in one step: the plan's own shipment when it already ships there,
    else one rerouting along a residual path (``_take_units``). Grouping and
    placing the columns are O(q) C-level work; the Python work is per run,
    not per row. Exact integers throughout: the cost is summed over the
    grouped costs as plain ints, whatever the input's element type.
    """
    _check_square(costs)
    row_runs, row_keys = _runs(map(tuple, costs))
    col_runs, col_keys = _runs(zip(*row_keys))
    # Plain ints: numpy entries could overflow in the potentials and the total.
    cost = [[int(c) for c in row] for row in zip(*col_keys)]
    free = _FreeColumns(col_runs, len(col_keys))
    supply = [0] * len(row_keys)
    for g, n in row_runs:
        supply[g] += n
    flow, tight = _transport(cost, supply, list(map(len, free.members)))
    tight_of = [list(itertools.compress(range(len(row)), row)) for row in tight]
    assignment: list[int] = []
    total = 0
    for g, left in row_runs:
        while left:
            # The plan's own shipment to the first free tight group is
            # feasible outright; otherwise a search finds the best group.
            h, room = free.first_run(tight_of[g])
            if flow[g][h]:
                k = min(left, room, flow[g][h])
                flow[g][h] -= k
            else:
                h, k = _take_units(flow, tight, g, left, free)
            assignment += free.take(h, k)
            total += k * cost[g][h]
            left -= k
    return Matching(tuple(assignment), total)


def enumerate_matchings(costs: Sequence[Sequence[int]], *, bound: int = ENUMERATION_BOUND) -> Iterator[Matching]:
    """Yield all q! perfect matchings with their costs, in lexicographic order.

    Desk-scale oracle only; refuses matrices larger than ``bound``.
    """
    n = _check_square(costs)
    if n > bound:
        raise OracleBoundError(f"enumeration refused: q={n} exceeds bound {bound}")
    for perm in itertools.permutations(range(n)):
        yield Matching(perm, matching_cost(costs, perm))


def class_counts(
    costs: Sequence[Sequence[int]],
    touchable_mask: Sequence[Sequence[bool]],
    m: Matching,
) -> EdgeClassCounts:
    """Count the matched edges of each cost class (costs must lie in 0..3)."""
    n = _check_square(costs)
    if len(m.assignment) != n:
        raise ValueError("matching size does not fit the matrix")
    n0 = n1 = n2t = n2u = n3 = 0
    for i, j in enumerate(m.assignment):
        c = costs[i][j]
        if c == 0:
            n0 += 1
        elif c == 1:
            n1 += 1
        elif c == 2:
            if touchable_mask[i][j]:
                n2t += 1
            else:
                n2u += 1
        elif c == 3:
            n3 += 1
        else:
            raise ValueError(f"class counting expects costs in 0..3, got {c}")
    return EdgeClassCounts(n0, n1, n2t, n2u, n3)


# -- randomized exact-cost search ---------------------------------------------


def _signature_digits(
    costs: Sequence[Sequence[int]],
    touchable_mask: Sequence[Sequence[bool]],
) -> np.ndarray:
    """Per-edge digits (4 - c, is-3, is-touchable-2) of a 0..3 cost matrix.

    A perfect matching of cost x with k 3-edges and l touchable 2-edges has
    digit sums (4q - x, k, l).
    """
    import numpy as np

    c = np.array(costs, dtype=np.int64)
    if c.max() > 3:
        raise ValueError("signature queries expect costs in 0..3")
    touchable_2 = (c == 2) & np.array(touchable_mask, dtype=bool)
    return np.stack([4 - c, c == 3, touchable_2], axis=2).astype(np.int64)


def _trial_scalars(seed: int, trial: int, q: int) -> np.ndarray:
    import numpy as np

    from ._detcube import PRIME

    rng = np.random.default_rng((seed, trial, q))
    return rng.integers(1, PRIME, size=(q, q), dtype=np.int64)


def _trial_cube(digits: np.ndarray, seed: int, trial: int) -> SignatureCube:
    """The signature cube of ``digits`` at the scalars of (seed, trial)."""
    return _cached_cube(digits.tobytes(), digits.shape, seed, trial)


@functools.lru_cache(maxsize=64)
def _cached_cube(data: bytes, shape: tuple[int, ...], seed: int, trial: int) -> SignatureCube:
    """Signature cubes shared across targets and calls.

    Queries against the same digits and seed re-use the same random scalars,
    so sweeping many targets costs one interpolation per trial, and a witness
    query after a ``signature_support`` sweep starts on the sweep's cubes.
    """
    import numpy as np

    from ._detcube import SignatureCube

    digits = np.frombuffer(data, dtype=np.int64).reshape(shape)
    return SignatureCube(digits, _trial_scalars(seed, trial, shape[0]))


def _extract_assignment(
    digits: np.ndarray,
    scalars: np.ndarray,
    target: tuple[int, ...],
) -> list[int] | None:
    """Self-reduction: fix the rows in order, one cofactor pass per row.

    Row i's pass (``row_coefficients`` on rows i.. and the columns not yet
    taken) splits the remaining digit budget's coefficient by the column row
    i takes, and row i keeps the first column whose share is nonzero: its
    minor then still certifies the rest of the budget. That share is zero
    exactly when ``coefficient_at`` is on the same minor with the same
    scalars. A false negative (random unluck) aborts the attempt; the caller
    retries with fresh scalars.
    """
    import numpy as np

    from ._detcube import row_coefficients

    n = digits.shape[0]
    cols = list(range(n))
    remaining = np.array(target, dtype=np.int64)
    assignment = []
    for i in range(n):
        live = np.ix_(range(i, n), cols)
        shares = np.flatnonzero(row_coefficients(digits[live], scalars[live], remaining))
        if not shares.size:
            return None
        j = cols.pop(int(shares[0]))
        assignment.append(j)
        remaining = remaining - digits[i, j]
    return assignment


def _search(digits: np.ndarray, target: tuple[int, ...], trials: int, seed: int) -> list[int] | None:
    """An assignment whose digit sums are ``target``, or None after ``trials`` misses.

    Each trial certifies the target on its (cached) cube before paying for
    the extraction; a failed extraction moves on to fresh scalars.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    for trial in range(trials):
        cube = _trial_cube(digits, seed, trial)
        if cube.coefficient(target) == 0:
            continue
        assignment = _extract_assignment(digits, cube.scalars, target)
        if assignment is not None:
            return assignment
    return None


def exact_cost_matching(
    costs: Sequence[Sequence[int]],
    target: int,
    *,
    trials: int = 20,
    seed: int = 0,
) -> Matching | None:
    """Perfect matching of cost exactly ``target``, or None if none was found.

    The costs themselves are the one digit axis. A miss requires every
    trial's random scalars to kill the certifying coefficient, which happens
    with probability at most (q/PRIME) per trial; None is therefore wrong
    only with vanishing probability. A returned matching is always genuine:
    its cost is verified before returning.
    """
    _check_square(costs)
    if target < 0:
        return None
    # The minimum-cost matching is a free certificate for its own cost.
    mcpm = min_cost_perfect_matching(costs)
    if mcpm.cost == target:
        return mcpm
    if target < mcpm.cost:
        return None
    import numpy as np

    digits = np.array(costs, dtype=np.int64)[:, :, None]
    assignment = _search(digits, (target,), trials, seed)
    if assignment is None:
        return None
    cost = matching_cost(costs, assignment)
    return Matching(tuple(assignment), cost) if cost == target else None


def matching_with_counts(
    costs: Sequence[Sequence[int]],
    touchable_mask: Sequence[Sequence[bool]],
    target_cost: int,
    k: int,
    l: int,
    *,
    trials: int = 20,
    seed: int = 0,
) -> Matching | None:
    """Perfect matching of cost ``target_cost`` with exactly ``k`` 3-edges and
    ``l`` touchable 2-edges, or None.

    Searches the signature digits for the sums (4q - target_cost, k, l), on
    the same cubes ``signature_support`` builds for the same matrix and
    seed. Returned witnesses are re-verified against the original matrix
    unconditionally.
    """
    q = _check_square(costs)
    digits = _signature_digits(costs, touchable_mask)
    if k < 0 or l < 0 or k + l > q:
        return None
    assignment = _search(digits, (4 * q - target_cost, k, l), trials, seed)
    if assignment is None:
        return None
    found = Matching(tuple(assignment), matching_cost(costs, assignment))
    counts = class_counts(costs, touchable_mask, found)
    if found.cost != target_cost or counts.n3 != k or counts.n2_touchable != l:
        return None
    return found


def signature_support(
    costs: Sequence[Sequence[int]],
    touchable_mask: Sequence[Sequence[bool]],
    *,
    trials: int = 2,
    seed: int = 0,
) -> set[tuple[int, int, int]]:
    """All (cost, n3, touchable-n2) signatures certified by random trials.

    Every returned signature truly has a matching; signatures can only be
    missed, with per-cell probability at most q/PRIME per trial. Used by the
    solver sweep, which wants the whole landscape at once.
    """
    q = _check_square(costs)
    if trials < 1:
        raise ValueError("trials must be positive")
    digits = _signature_digits(costs, touchable_mask)
    merged: set[tuple[int, int, int]] = set()
    for trial in range(trials):
        cube = _trial_cube(digits, seed, trial)
        merged.update((4 * q - alpha, n3, n2t) for alpha, n3, n2t in cube.support())
    return merged
