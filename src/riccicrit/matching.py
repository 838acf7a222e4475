"""Min-cost perfect matching and randomized exact-cost matching on square matrices.

Three layers live here:

* an exact minimum-cost perfect matching solver: runs of identical rows and
  columns are grouped into a transportation problem. A blow-up is a view
  (``_BlockRows``) of its r x s blocks and a copy count per axis, and the
  solver groups the blocks, so it reads r x s cells, not q². The primal-dual
  method solves the problem in phases. Each phase is a greedy pass along the
  tight cells, then blocking-flow searches, each one forest that serves
  every column it reaches, then one Dijkstra. The lexicographically smallest
  optimal assignment is expanded from its tight groups, a run of rows taking
  a run of one group's free columns per step;
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
  can only cause a miss, never a wrong answer. The least signature needs
  no search: one exact minimum-cost matching on weights that order every
  matching by its signature finds it and its lexicographically first
  matching (``_least_signature``). One more, on the costs capped at 2,
  bounds how many 3-edges a matching of each cost can have
  (``_least_capped_cost``).

numpy and ``_detcube`` are imported when a randomized search first runs, so
the matching kernel (and with it every curvature route, and every query the
least signature answers) never loads numpy.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import numbers
from dataclasses import dataclass, field
from operator import eq, getitem, sub
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import FieldConfigError, OracleBoundError

if TYPE_CHECKING:
    import numpy as np

    from ._detcube import SignatureCube

ENUMERATION_BOUND = 8


@dataclass(frozen=True)
class Matching:
    """A perfect matching of a square cost matrix.

    ``assignment[i]`` is the column matched to row ``i``; ``cost`` is the sum
    of the matched entries under the matrix the matching was computed for.
    ``min_cost_perfect_matching`` also hands out its optimal duals, one per
    block row (``pot_r``) and block column (``pot_c``) of the matrix it
    solved: every block has c + pot_r - pot_c >= 0, with equality on the
    blocks the matching uses. They take no part in ``==`` or the JSON.
    """

    assignment: tuple[int, ...]
    cost: int
    pot_r: tuple[int, ...] | None = field(default=None, compare=False, repr=False)
    pot_c: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

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


class _BlockRows:
    """The q x q blow-up of an r x s block matrix, read as a tuple of rows.

    Row i is block row i // a with every cell repeated b times; it is built
    on first read, and the block row's a copies share that one tuple.
    Iteration, indices, slices, ``==`` and ``hash`` behave as on the
    materialized tuple of tuples. The matching kernel reads the blocks, so
    solving a blow-up builds no row.
    """

    __slots__ = ("blocks", "a", "b", "_rows")

    def __init__(self, blocks: Sequence[Sequence], a: int, b: int):
        self.blocks, self.a, self.b = blocks, a, b
        self._rows: list[tuple | None] = [None] * len(blocks)

    def _row(self, k: int) -> tuple:
        """Block row k with each cell repeated b times, built once at C speed."""
        row = self._rows[k]
        if row is None:
            cells = map(itertools.repeat, self.blocks[k], itertools.repeat(self.b))
            row = self._rows[k] = tuple(itertools.chain.from_iterable(cells))
        return row

    def __len__(self) -> int:
        return len(self.blocks) * self.a

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("tuple index out of range")
        return self._row(i // self.a)

    def __iter__(self) -> Iterator[tuple]:
        rows = map(self._row, range(len(self.blocks)))
        return itertools.chain.from_iterable(map(itertools.repeat, rows, itertools.repeat(self.a)))

    def __eq__(self, other):
        if isinstance(other, _BlockRows):
            other = tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


def _blocks(costs: Sequence[Sequence]) -> tuple[Sequence[Sequence], int, int]:
    """(blocks, a, b): a ``_BlockRows`` view's own, or (costs, 1, 1) for any other matrix."""
    if isinstance(costs, _BlockRows):
        return costs.blocks, costs.a, costs.b
    return costs, 1, 1


def _check_square(costs: Sequence[Sequence[int]]) -> int:
    """The side of a square matrix of non-negative integers, checked block by
    block on a view: each of its cells is one of the blocks' cells."""
    blocks, a, b = _blocks(costs)
    n = len(blocks) * a
    if n == 0:
        raise ValueError("cost matrix must be non-empty")
    for row in blocks:
        if len(row) * b != n:
            raise ValueError("cost matrix must be square")
        if set(map(type, row)) == {int} and min(row) >= 0:
            continue  # the common all-int row, checked without a Python-level loop
        for c in row:
            if not isinstance(c, numbers.Integral) or c < 0:
                raise ValueError(f"costs must be non-negative integers, got {c!r}")
    return n


def matching_cost(costs: Sequence[Sequence[int]], assignment: Sequence[int]) -> int:
    """The sum of the matched cells; on a view, cell (i, j) is read from block (i // a, j // b)."""
    blocks, a, b = _blocks(costs)
    return sum(blocks[i // a][j // b] for i, j in enumerate(assignment))


def _runs(rows: Iterable[tuple], scale: int) -> tuple[list[tuple[int, int]], list[tuple]]:
    """Group the runs of consecutive equal rows, each row standing for ``scale`` copies.

    Returns each run's (label, length) in order, labelling a run by the first
    run with an equal row, and the distinct rows by label.
    """
    index: dict[tuple, int] = {}
    runs = [(index.setdefault(key, len(index)), scale * len(list(run))) for key, run in itertools.groupby(rows)]
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
) -> tuple[list[list[int]], list[list[int]], list[int], list[int]]:
    """Min-cost integral transportation plan, its tight cells and its duals.

    The primal-dual method (Kuhn 1955; Ford and Fulkerson 1957): every
    reduced cost cost + pot_r - pot_c stays non-negative and the plan ships
    only on tight (zero reduced cost) cells, so it is optimal for what it has
    shipped. The warm start prices each column at its cheapest cell, then
    each row so that its cheapest reduced cost is 0. A phase first ships
    greedily along the tight cells, row groups and then column groups in
    order, as the lex-min expansion will ask for them. Then each search
    builds one forest of admissible paths -- forward on tight cells, back on
    used ones -- from every row with supply left, and every column with
    demand left that it reached is served along its own tree path, as far as
    the path's bottleneck allows by then (a blocking flow, as in Dinic 1970).
    A search that reaches no such column ends the phase, and ``_reprice``
    runs one Dijkstra. Returns the plan, the tight cells and the final
    potentials (pot_r, pot_c), which are optimal duals: the plan's cost is
    sum(demand * pot_c) - sum(supply * pot_r).
    """
    supply, demand = list(supply), list(demand)
    flow = [[0] * len(demand) for _ in supply]
    users: list[set[int]] = [set() for _ in demand]
    pot_c = [min(col) for col in zip(*cost)]
    pot_r = [-min(map(sub, row, pot_c)) for row in cost]
    while True:
        # Each row's tight columns: those where c - pc == -p, compared at C speed.
        tight_of = [
            list(itertools.compress(itertools.count(), map(eq, map(sub, row, pot_c), itertools.repeat(-p))))
            for row, p in zip(cost, pot_r)
        ]
        for g, cols in enumerate(tight_of):
            left, out = supply[g], flow[g]
            for h in cols:
                if not left:
                    break
                n = demand[h]
                if n:
                    if n > left:
                        n = left
                    out[h] += n
                    users[h].add(g)
                    demand[h] -= n
                    left -= n
            supply[g] = left
        while any(supply):
            starts = [g for g, n in enumerate(supply) if n]
            via_c, via_r, _ = _residual_search(starts, tight_of.__getitem__, users.__getitem__)
            shipped = False
            for target in via_c:  # in the order the search reached them
                if not demand[target]:
                    continue
                gain, lose, source = _tree_path(via_c, via_r, target)
                n = min(supply[source], demand[target], *(flow[g][h] for g, h in lose))
                if n:
                    for g, h in gain:
                        flow[g][h] += n
                        users[h].add(g)
                    for g, h in lose:
                        flow[g][h] -= n
                        if not flow[g][h]:
                            users[h].discard(g)
                    supply[source] -= n
                    demand[target] -= n
                    shipped = True
            if not shipped:
                break
        if not any(supply):
            return flow, tight_of, pot_r, pot_c
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
    first: tuple[int, int],
) -> tuple[int, int]:
    """Remove up to ``want`` units of row ``g`` from the plan, all shipped to
    the column group whose next free column is smallest among those allowed.

    The columns of ``tight_of[g]`` that reach ``g`` back along used cells and
    forward along tight ones (``tight_rows[h]``) are those to which some
    optimal plan for the remaining rows ships a unit of ``g``. ``first`` is
    ``free.first_run(tight_of[g])``, a group the plan does not ship ``g`` to,
    and its run. One search looks for it, and stops there if it is allowed;
    otherwise the search finds every allowed group. The plan is rerouted
    along the path so that k units leave at the chosen group, k at most the
    path's bottleneck and the group's free columns below every other
    allowed group's next one (every other tight group's, if the search
    stopped early), as k single-unit calls would have chosen. Returns
    (group, k).
    """
    chosen, room = first
    cols = range(len(flow[g]))
    via_c, via_r, found = _residual_search(
        [g], lambda x: itertools.compress(cols, flow[x]), tight_rows.__getitem__, chosen.__eq__
    )
    if found is None:
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
    grouped into a transportation problem whose optimal duals mark the tight
    groups, which every minimum-cost matching uses exclusively. The rows are
    expanded in order, each taking the smallest free column of a tight group
    that still leaves a feasible plan for the remaining rows. Those groups
    only shrink as a run is expanded, so a stretch of a run taking
    consecutive free columns of one group is placed in one step: from the
    plan's own shipment, else after one reroute (``_take_units``). The
    Python work is per run, not per row, and the cost is an exact int. A
    blow-up view is grouped from its r x s blocks, each block row standing
    for a rows and each block column for b columns, so the problem is r x s
    or smaller and no q-cell row is built; any other matrix is its own
    blocks with a = b = 1.
    """
    _check_square(costs)
    blocks, a, b = _blocks(costs)
    row_runs, row_keys = _runs(map(tuple, blocks), a)
    col_runs, col_keys = _runs(zip(*row_keys), b)
    # Plain ints: numpy entries could overflow in the potentials and the total.
    cost = [[int(c) for c in row] for row in zip(*col_keys)]
    free = _FreeColumns(col_runs, len(col_keys))
    supply = [0] * len(row_keys)
    for g, n in row_runs:
        supply[g] += n
    flow, tight_of, pot_r, pot_c = _transport(cost, supply, list(map(len, free.members)))
    tight_rows: list[list[int]] = [[] for _ in free.members]
    for g, cols in enumerate(tight_of):
        for h in cols:
            tight_rows[h].append(g)
    assignment: list[int] = []
    total = 0
    for g, left in row_runs:
        while left:
            # The plan's own shipment to the first free tight group is
            # feasible outright; otherwise a search finds the best group.
            first = h, room = free.first_run(tight_of[g])
            if flow[g][h]:
                k = min(left, room, flow[g][h])
                flow[g][h] -= k
            else:
                h, k = _take_units(flow, tight_of, tight_rows, g, left, free, first)
            assignment += free.take(h, k)
            total += k * cost[g][h]
            left -= k
    # Each block row and column takes its group's dual.
    row_duals = tuple(itertools.chain.from_iterable(itertools.repeat(pot_r[g], n // a) for g, n in row_runs))
    col_duals = tuple(itertools.chain.from_iterable(itertools.repeat(pot_c[h], n // b) for h, n in col_runs))
    return Matching(tuple(assignment), total, row_duals, col_duals)


def enumerate_matchings(costs: Sequence[Sequence[int]], *, bound: int = ENUMERATION_BOUND) -> Iterator[Matching]:
    """Yield all q! perfect matchings with their costs, in lexicographic order.

    Desk-scale oracle only; refuses matrices larger than ``bound``.
    """
    n = _check_square(costs)
    if n > bound:
        raise OracleBoundError(f"enumeration refused: q={n} exceeds bound {bound}")
    rows = tuple(costs)  # each cost sum indexes a tuple, not a view
    for perm in itertools.permutations(range(n)):
        yield Matching(perm, sum(map(getitem, rows, perm)))


def class_counts(
    costs: Sequence[Sequence[int]],
    touchable_mask: Sequence[Sequence[bool]],
    m: Matching,
) -> EdgeClassCounts:
    """Count the matched edges of each cost class (costs must lie in 0..3).

    A view, of the costs or the mask, is read from its blocks.
    """
    n = _check_square(costs)
    if len(m.assignment) != n:
        raise ValueError("matching size does not fit the matrix")
    blocks, a, b = _blocks(costs)
    mask_blocks, mask_a, mask_b = _blocks(touchable_mask)
    n0 = n1 = n2t = n2u = n3 = 0
    for i, j in enumerate(m.assignment):
        c = blocks[i // a][j // b]
        if c == 0:
            n0 += 1
        elif c == 1:
            n1 += 1
        elif c == 2:
            if mask_blocks[i // mask_a][j // mask_b]:
                n2t += 1
            else:
                n2u += 1
        elif c == 3:
            n3 += 1
        else:
            raise ValueError(f"class counting expects costs in 0..3, got {c}")
    return EdgeClassCounts(n0, n1, n2t, n2u, n3)


# -- randomized exact-cost search ---------------------------------------------


def _check_dense(q: int) -> None:
    """Refuse a q x q matrix with more entries than ``_detcube._MAX_GRID_POINTS``.

    The F_p engine reads every cell of a dense digit array, so it is checked
    before that array exists: at q = 10,000 the signature digits alone would
    take 2.4 GB (q² cells of three int64 digits).
    """
    from ._detcube import _MAX_GRID_POINTS

    if q * q > _MAX_GRID_POINTS:
        raise FieldConfigError(f"the F_p engine takes at most {_MAX_GRID_POINTS} matrix entries, got q={q}")


def _signature_digits(
    costs: Sequence[Sequence[int]],
    touchable_mask: Sequence[Sequence[bool]],
) -> np.ndarray:
    """Per-edge digits (4 - c, is-3, is-touchable-2) of a 0..3 cost matrix.

    A perfect matching of cost x with k 3-edges and l touchable 2-edges has
    digit sums (4q - x, k, l). The array is dense, so a q x q matrix with
    more than ``_detcube._MAX_GRID_POINTS`` entries (q > 1414) is refused
    with ``FieldConfigError`` before it is built (``_check_dense``).

    The cost digit is 4 - c, not c. Both find the same matchings, but the
    grids differ: after ``_factor`` takes out the row and column minima,
    the blow-ups of the ``solve`` benchmark keep a shorter cost axis under
    4 - c, and one whose digits are all even, which the axis's stride
    halves; under c they are not. With c, the box grids of one ``solve``
    pass at seed 1, measured when that pass still swept, grow from 8,438 to
    18,994 points (two trials per sweep). Over the ``uw-rt-ins-ntp`` slots
    at seeds 1-3 and solver seeds 0 and 11, cube points grow from 39,504 to
    82,764 and ``LiveMinor`` points from 12,030 to 54,320, for identical
    Solutions in 4.5 s against 1.6 s.
    """
    _check_dense(len(costs))
    import numpy as np

    c = np.array(costs, dtype=np.int64)
    if c.max() > 3:
        raise ValueError("signature queries expect costs in 0..3")
    touchable_2 = (c == 2) & np.array(touchable_mask, dtype=bool)
    return np.stack([4 - c, c == 3, touchable_2], axis=2).astype(np.int64)


def _least_signature(
    costs: Sequence[Sequence[int]],
    touchable_mask: Sequence[Sequence[bool]],
) -> tuple[Matching, tuple[int, int, int]]:
    """The lexicographically smallest perfect matching among those whose
    signature (cost, -n3, -touchable n2) is least, and that signature as
    (x0, k0, l0).

    One exact ``min_cost_perfect_matching`` on the weights
    c·W² - [c = 3]·W - [c = 2 and touchable], W = q + 1, answers it: they
    are non-negative, and a matching's total x·W² - k·W - l orders it as its
    signature does, since k·W + l <= q·W < W². Blow-up views of costs and
    mask with the same copy counts are weighted block by block. Costs must
    lie in 0..3.
    """
    q = _check_square(costs)
    w = q + 1
    blocks, a, b = _blocks(costs)
    mask_blocks, mask_a, mask_b = _blocks(touchable_mask)
    if (mask_a, mask_b) != (a, b):  # a view beside another shape: read both cell by cell
        blocks, mask_blocks, a, b = costs, touchable_mask, 1, 1
    weights = []
    for row, mask_row in zip(blocks, mask_blocks):
        if max(row) > 3:
            raise ValueError("signature queries expect costs in 0..3")
        weights.append(tuple(c * w * w - (c == 3) * w - (c == 2 and bool(t)) for c, t in zip(row, mask_row)))
    least = min_cost_perfect_matching(_BlockRows(weights, a, b))
    x = -(-least.cost // (w * w))
    k, l = divmod(x * w * w - least.cost, w)
    return Matching(least.assignment, x), (x, k, l)


def _least_capped_cost(costs: Sequence[Sequence[int]]) -> int:
    """The least total of a perfect matching when every 3-cost counts as 2.

    One ``min_cost_perfect_matching`` on min(c, 2), block by block on a
    view. A matching's capped total is its cost minus its 3-edges, so no
    matching has more 3-edges than this total allows at its cost.
    """
    blocks, a, b = _blocks(costs)
    return min_cost_perfect_matching(_BlockRows([tuple(min(c, 2) for c in row) for row in blocks], a, b)).cost


def _check_seed(seed: int) -> None:
    """Reject a negative seed, which numpy's generator would refuse without naming it."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _check_integers(**values) -> None:
    """Reject a non-integer target, count, trial count, seed or budget, on
    which numpy indexing, ``range`` or numpy's generator would fail without
    naming it. A bool is no integer here, as it is no node id in ``Graph``."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _trial_scalars(seed: int, trial: int, q: int) -> np.ndarray:
    import numpy as np

    from ._detcube import PRIME

    rng = np.random.default_rng((seed, trial, q))
    return rng.integers(1, PRIME, size=(q, q), dtype=np.int64)


def _trial_cube(digits: np.ndarray, seed: int, trial: int) -> SignatureCube:
    """The signature cube of ``digits`` at the scalars of (seed, trial), from ``_detcube``'s cache."""
    from ._detcube import _trial_cubes

    return _trial_cubes(digits, seed, [trial])[0]


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
    elimination. Each share is zero exactly when ``coefficient_at`` is on
    the same minor with the same scalars, as long as no live minor is
    singular at a grid point; where one is, every share is zero. Either
    kind of random unluck, a false zero share or a singular point, aborts
    the attempt, and the caller retries with fresh scalars.
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

    The costs themselves are the one digit axis. A trial misses when its
    random scalars kill the certifying coefficient (probability at most
    q/PRIME), or make a live minor of the witness extraction singular at one
    of its G grid points or zero a share (at most (G + 1)·q(q + 1)/(2·PRIME),
    about 2.5e-4 at q = 40 and G = 650). None is wrong only if every trial
    misses. A returned matching is always genuine: its cost is verified
    before returning. The seed must be a non-negative integer, ``trials``
    positive and ``target`` an integer. A target the minimum cost answers
    needs no search; any other searches a dense q x q digit array, so a
    matrix with more than ``_detcube._MAX_GRID_POINTS`` entries (q > 1414)
    is then refused with ``FieldConfigError`` before that array is built.
    """
    _check_integers(trials=trials, seed=seed, target=target)
    _check_seed(seed)
    if trials < 1:
        raise ValueError("trials must be positive")
    q = _check_square(costs)
    if target < 0:
        return None
    # The minimum-cost matching is a free certificate for its own cost.
    mcpm = min_cost_perfect_matching(costs)
    if mcpm.cost == target:
        return mcpm
    if target < mcpm.cost:
        return None
    _check_dense(q)
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

    The least signature is a free certificate, as the minimum cost is in
    ``exact_cost_matching``: ``_least_signature`` finds the matchings whose
    (cost, -n3, -touchable n2) is lexicographically least, exactly. A target
    equal to that signature gets its lexicographically first matching,
    which is the witness the search below would extract, and a target
    ordered below it has no matching, so None. Any other target searches
    the signature digits for the sums (4q - target_cost, k, l), on the same
    cubes ``signature_support`` builds for the same matrix and seed. A trial
    misses as in ``exact_cost_matching``, also when a live minor of the
    extraction is singular at a grid point. Returned witnesses are
    re-verified against the original matrix unconditionally. The seed must
    be a non-negative integer, ``trials`` positive and ``target_cost``,
    ``k`` and ``l`` integers.
    """
    _check_integers(trials=trials, seed=seed, target_cost=target_cost, k=k, l=l)
    _check_seed(seed)
    if trials < 1:
        raise ValueError("trials must be positive")
    q = _check_square(costs)
    if k < 0 or l < 0 or k + l > q:
        return None
    least, (x0, k0, l0) = _least_signature(costs, touchable_mask)
    if (target_cost, -k, -l) <= (x0, -k0, -l0):
        return least if (target_cost, k, l) == (x0, k0, l0) else None
    digits = _signature_digits(costs, touchable_mask)
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
    solver sweep, which wants the whole landscape at once. The trials are
    one evaluation: they share one grid walk, and each chunk of it is one
    determinant batch over every trial's matrices, no larger than one
    trial's chunk would be. Each trial's cube is cached as if built alone,
    so a witness query on the same seed starts on them. The seed must be a
    non-negative integer and ``trials`` a positive integer.
    """
    _check_integers(trials=trials, seed=seed)
    _check_seed(seed)
    q = _check_square(costs)
    if trials < 1:
        raise ValueError("trials must be positive")
    from ._detcube import _trial_cubes

    digits = _signature_digits(costs, touchable_mask)
    merged: set[tuple[int, int, int]] = set()
    for cube in _trial_cubes(digits, seed, range(trials)):
        merged.update((4 * q - alpha, n3, n2t) for alpha, n3, n2t in cube.support())
    return merged
