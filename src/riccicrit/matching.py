"""Min-cost perfect matching and randomized exact-cost matching on square matrices.

Three layers live here:

* an exact minimum-cost perfect matching solver: runs of identical rows and
  columns are grouped into a transportation problem, which the primal-dual
  method solves, one Dijkstra per phase; the lexicographically smallest
  optimal assignment is expanded from its tight groups, a run of rows
  taking a run of one group's free columns per step;
* an exhaustive enumerator used as the desk-scale oracle;
* randomized search for perfect matchings of a prescribed exact cost, and the
  refinement that also prescribes how many 3-cost and touchable 2-cost edges
  the matching uses. Every edge carries a small vector of digits -- its cost
  alone, or the signature digits (4 - cost, is-3, is-touchable-2) -- and one
  search loop asks for a matching with prescribed digit sums. Search runs
  over a prime field via determinant interpolation (see ``_detcube``): a
  signature cube certifies the target, then the witness is fixed row by
  row from one inversion per grid point, each fixed row a rank-one update
  that gives the next row the target's share of every column at once.
  Every witness is verified before it is returned, so randomness
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


def _residual_search(starts, cols_of, rows_of, goal=None):
    """Search from ``starts``, row x leading to ``cols_of(x)`` and column h to
    ``rows_of(h)``, expanding each node once. Returns the tree -- each reached
    column's row, each reached row's column (-1 at a start) -- and the first
    reached column meeting ``goal``."""
    via_c: dict[int, int] = {}
    via_r = dict.fromkeys(starts, -1)
    stack = starts[::-1]  # the first start is expanded first
    while stack:
        x = stack.pop()
        for h in cols_of(x):
            if h not in via_c:
                via_c[h] = x
                if goal is not None and goal(h):
                    return via_c, via_r, h
                for y in rows_of(h):
                    if y not in via_r:
                        via_r[y] = h
                        stack.append(y)
    return via_c, via_r, None


def _tree_path(via_c: dict[int, int], via_r: dict[int, int], h: int):
    """The tree's path to column h: the cells entering a column, those entering a row, and its start row."""
    to_cols, to_rows = [], []
    while True:
        x = via_c[h]
        to_cols.append((x, h))
        h = via_r[x]
        if h < 0:
            return to_cols, to_rows, x
        to_rows.append((x, h))


def _reprice(cost, users, supply, demand, pot_r, pot_c) -> None:
    """Dijkstra on reduced costs from the rows with supply left, forward on any
    cell, back on used ones (column h's are ``users[h]``), to the nearest
    column with demand; raising the potentials by the distances, capped at
    its own, makes its path tight and keeps every reduced cost >= 0."""
    dist_r: list = [0 if n else math.inf for n in supply]
    dist_c: list = [math.inf] * len(demand)
    heap = [(0, 0, g) for g, n in enumerate(supply) if n]
    while True:
        d, is_col, x = heapq.heappop(heap)
        if is_col and d <= dist_c[x]:
            if demand[x]:
                break
            for g in users[x]:  # back along a used cell, at reduced cost 0
                if d < dist_r[g]:
                    dist_r[g] = d
                    heapq.heappush(heap, (d, 0, g))
        elif not is_col and d <= dist_r[x]:
            base = d + pot_r[x]
            for h, c in enumerate(cost[x]):
                nd = base + c - pot_c[h]
                if nd < dist_c[h]:
                    dist_c[h] = nd
                    heapq.heappush(heap, (nd, 1, h))
    pot_r[:] = [p + min(dr, d) for p, dr in zip(pot_r, dist_r)]
    pot_c[:] = [p + min(dc, d) for p, dc in zip(pot_c, dist_c)]


def _transport(
    cost: list[list[int]], supply: list[int], demand: list[int]
) -> tuple[list[list[int]], list[list[bool]]]:
    """Min-cost integral transportation plan and its tight cells.

    The primal-dual method (Kuhn 1955; Ford and Fulkerson 1957): every
    reduced cost cost + pot_r - pot_c stays non-negative and the plan ships
    only on tight (zero reduced cost) cells, so it is optimal for what it has
    shipped. The warm start prices each column at its cheapest cell. A phase
    pushes bottlenecks along admissible paths -- forward on tight cells, back
    on used ones, one search per path -- until none is left; ``_reprice`` then
    runs one Dijkstra. The final potentials are optimal duals.
    """
    supply, demand = list(supply), list(demand)
    flow = [[0] * len(demand) for _ in supply]
    users: list[set[int]] = [set() for _ in demand]
    pot_r, pot_c = [0] * len(supply), [min(col) for col in zip(*cost)]
    while True:
        tight = [[c + p == pc for c, pc in zip(row, pot_c)] for row, p in zip(cost, pot_r)]
        tight_of = [list(itertools.compress(itertools.count(), row)) for row in tight]
        while True:
            starts = [g for g, n in enumerate(supply) if n]
            via_c, via_r, target = _residual_search(starts, tight_of.__getitem__, users.__getitem__, demand.__getitem__)
            if target is None:
                break
            gain, lose, source = _tree_path(via_c, via_r, target)
            push = min(supply[source], demand[target], *(flow[g][h] for g, h in lose))
            for g, h in gain:
                flow[g][h] += push
                users[h].add(g)
            for g, h in lose:
                flow[g][h] -= push
                if not flow[g][h]:
                    users[h].discard(g)
            supply[source] -= push
            demand[target] -= push
        if not any(supply):
            return flow, tight
        _reprice(cost, users, supply, demand, pot_r, pot_c)


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
    tight_of: list[list[int]],
    tight_rows: list[list[int]],
    g: int,
    want: int,
    free: _FreeColumns,
) -> tuple[int, int]:
    """Remove up to ``want`` units of row ``g`` from the plan, all shipped to
    the column group whose next free column is smallest among those allowed.

    The columns of ``tight_of[g]`` that reach ``g`` back along used cells and
    forward along tight ones (``tight_rows[h]``) are those to which some
    optimal plan for the remaining rows ships a unit of ``g``. One search
    finds them all; the plan is rerouted along the path so that k units leave
    at the chosen group, k at most the path's bottleneck and the group's free
    columns below every other allowed group's next one, as k single-unit
    calls would have chosen. Returns (group, k).
    """
    cols = range(len(flow[g]))
    via_c, via_r, _ = _residual_search([g], lambda x: itertools.compress(cols, flow[x]), tight_rows.__getitem__)
    chosen, room = free.first_run([c for c in tight_of[g] if c in via_c])
    back, ahead, _ = _tree_path(via_c, via_r, chosen)  # the path's cells that lose and gain flow
    k = min(want, room, *(flow[x][h] for x, h in back))
    for x, h in back:
        flow[x][h] -= k
    for x, h in ahead:
        flow[x][h] += k
    return chosen, k


def min_cost_perfect_matching(costs: Sequence[Sequence[int]]) -> Matching:
    """The lexicographically smallest minimum-cost perfect matching.

    Runs of consecutive identical rows, and of identical columns, are
    grouped into a transportation problem (r x s or smaller for the blow-up
    of an r x s matrix) whose optimal duals mark the tight groups, which
    every minimum-cost matching uses exclusively. The rows are expanded in
    order, each taking the smallest free column of a tight group that still
    leaves a feasible plan for the remaining rows. Those groups only shrink
    as a run is expanded, so a stretch of a run taking consecutive free
    columns of one group is placed in one step: from the plan's own
    shipment, else after one reroute (``_take_units``). The Python work is
    per run, not per row, and the cost is an exact int.
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
    tight_rows = [list(itertools.compress(range(len(tight)), col)) for col in zip(*tight)]
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
                h, k = _take_units(flow, tight_of, tight_rows, g, left, free)
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

    The cost digit is 4 - c, not c. Both find the same matchings, but the
    grids differ: after ``_factor`` takes out the row and column minima,
    the blow-ups of the ``solve`` benchmark keep a shorter cost axis under
    4 - c. With c, the cubes of one ``solve`` pass at seed 1 grow from
    7,127 to 9,497 grid points. Over the ``uw-rt-ins-ntp`` slots at seeds
    1-3 and solver seeds 0 and 11, cube points grow from 73,552 to 94,764
    and ``LiveMinor`` points from 16,414 to 54,320, for identical Solutions
    in 10.6 s against 6.3 s.
    """
    import numpy as np

    c = np.array(costs, dtype=np.int64)
    if c.max() > 3:
        raise ValueError("signature queries expect costs in 0..3")
    touchable_2 = (c == 2) & np.array(touchable_mask, dtype=bool)
    return np.stack([4 - c, c == 3, touchable_2], axis=2).astype(np.int64)


def _check_seed(seed: int) -> None:
    """Reject a negative seed, which numpy's generator would refuse without naming it."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


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
    """Self-reduction: fix the rows in order, each to the first column that
    keeps the target reachable, in one elimination.

    ``LiveMinor`` inverts the matrix once at every point of one grid. Row
    i's shares split the remaining digit budget's coefficient by the column
    row i takes, and row i keeps the first column whose share is nonzero: its
    minor then still certifies the rest of the budget. A rank-one update of
    the inverses then gives that minor's, so no row pays for a new
    elimination, except at the rare points an update leaves singular: the
    next row re-inverts their explicit live minors, the nonsingular ones
    rejoin the updates, and the singular ones take their cofactors as
    minors. Each share is zero exactly when ``coefficient_at`` is on the
    same minor with the same scalars. A false negative (random unluck)
    aborts the attempt; the caller retries with fresh scalars.
    """
    import numpy as np

    from ._detcube import LiveMinor

    minor = LiveMinor(digits, scalars, target)
    cols = list(range(digits.shape[0]))
    assignment = []
    while cols:
        shares = np.flatnonzero(minor.shares())
        if not shares.size:
            return None
        c = int(shares[0])
        assignment.append(cols.pop(c))
        minor.take(c)
    return assignment


def _search(digits: np.ndarray, target: tuple[int, ...], trials: int, seed: int) -> list[int] | None:
    """An assignment whose digit sums are ``target``, or None after ``trials`` misses.

    Each trial certifies the target on its (cached) cube before paying for
    the extraction; a failed extraction moves on to fresh scalars.
    """
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
    its cost is verified before returning. The seed must be a non-negative
    integer and ``trials`` positive.
    """
    _check_seed(seed)
    if trials < 1:
        raise ValueError("trials must be positive")
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
    unconditionally. The seed must be a non-negative integer and ``trials``
    positive.
    """
    _check_seed(seed)
    if trials < 1:
        raise ValueError("trials must be positive")
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
    solver sweep, which wants the whole landscape at once. The seed must be
    a non-negative integer.
    """
    _check_seed(seed)
    q = _check_square(costs)
    if trials < 1:
        raise ValueError("trials must be positive")
    digits = _signature_digits(costs, touchable_mask)
    merged: set[tuple[int, int, int]] = set()
    for trial in range(trials):
        cube = _trial_cube(digits, seed, trial)
        merged.update((4 * q - alpha, n3, n2t) for alpha, n3, n2t in cube.support())
    return merged
