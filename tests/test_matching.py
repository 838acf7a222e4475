import itertools
import json
import math
import random
import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccicrit import (
    EdgeClassCounts,
    Matching,
    OracleBoundError,
    class_counts,
    enumerate_matchings,
    exact_cost_matching,
    matching_with_counts,
    min_cost_perfect_matching,
)
from riccicrit import _detcube, matching
from riccicrit._detcube import (
    LiveMinor,
    SignatureCube,
    _extract_assignment,
    _signature_digits,
    _trial_scalars,
    coefficient_at,
    det_batch,
)
from riccicrit.matching import (
    _BlockRows,
    _check_square,
    _least_capped_cost,
    _least_signature,
    _transport,
    matching_cost,
    signature_support,
)


def test_zero_diagonal_is_free():
    costs = [[0, 5, 5], [5, 0, 5], [5, 5, 0]]
    m = min_cost_perfect_matching(costs)
    assert m.cost == 0 and m.assignment == (0, 1, 2)


def test_all_ones_ties_break_to_identity():
    m = min_cost_perfect_matching([[1] * 3 for _ in range(3)])
    assert m.assignment == (0, 1, 2) and m.cost == 3


def test_matching_validates_permutation():
    with pytest.raises(ValueError):
        Matching((0, 0, 1), 0)


_matrices = st.integers(2, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 6), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=120, deadline=None)
@given(_matrices)
def test_kernel_matches_enumeration(costs):
    best = min(m.cost for m in enumerate_matchings(costs))
    got = min_cost_perfect_matching(costs)
    assert got.cost == best
    assert matching_cost(costs, got.assignment) == got.cost


@settings(max_examples=60, deadline=None)
@given(_matrices)
def test_lex_tiebreak_is_minimal_assignment(costs):
    got = min_cost_perfect_matching(costs)
    winners = [m.assignment for m in enumerate_matchings(costs) if m.cost == got.cost]
    assert got.assignment == min(winners)


@st.composite
def _blow_ups(draw):
    """q x q blow-ups of r x s matrices (r, s <= 4, q <= 8) with costs 0..3,
    whose r block rows are drawn from a smaller pool so that identical rows
    recur across blocks."""
    r, s = draw(st.sampled_from([(r, s) for r in range(1, 5) for s in range(1, 5) if math.lcm(r, s) <= 8]))
    pool = draw(st.lists(st.lists(st.integers(0, 3), min_size=s, max_size=s), min_size=1, max_size=r))
    base = [pool[k] for k in draw(st.lists(st.integers(0, len(pool) - 1), min_size=r, max_size=r))]
    q = math.lcm(r, s)
    a, b = q // r, q // s
    return [[base[i // a][j // b] for j in range(q)] for i in range(q)]


@settings(max_examples=150, deadline=None)
@given(_blow_ups())
def test_blow_up_matching_is_first_min_cost_enumerated(costs):
    matchings = list(enumerate_matchings(costs))
    best = min(m.cost for m in matchings)
    assert min_cost_perfect_matching(costs) == next(m for m in matchings if m.cost == best)


def _row_by_row(costs):
    """The lex-min kernel's former expansion, one row at a time: each row
    takes the smallest free column of a tight group, straight from the plan
    when the plan ships its group there, else after one residual search
    that reroutes a single unit."""
    index = {}
    row_of = [index.setdefault(tuple(row), len(index)) for row in costs]
    row_keys = list(index)
    index = {}
    col_of = [index.setdefault(col, len(index)) for col in zip(*row_keys)]
    cost = [[int(c) for c in row] for row in zip(*index)]
    members = [[] for _ in index]
    for j, h in enumerate(col_of):
        members[h].append(j)
    flow, tight_of, _, _ = _transport(cost, [row_of.count(g) for g in range(len(row_keys))], list(map(len, members)))
    tight = [[h in cols for h in range(len(members))] for cols in tight_of]
    taken = [0] * len(members)

    def first_free(groups):
        return min(groups, key=lambda h: members[h][taken[h]])

    def take_unit(g):
        via_c, via_r, stack = {}, {g: -1}, [g]
        while stack:
            x = stack.pop()
            for h, f in enumerate(flow[x]):
                if f and h not in via_c:
                    via_c[h] = x
                    for y, row in enumerate(tight):
                        if row[h] and y not in via_r:
                            via_r[y] = h
                            stack.append(y)
        chosen = h = first_free(c for c in via_c if tight[g][c])
        x = via_c[h]
        flow[x][h] -= 1
        while x != g:
            h = via_r[x]
            flow[x][h] += 1
            x = via_c[h]
            flow[x][h] -= 1
        return chosen

    assignment = []
    for g in row_of:
        h = first_free(h for h, t in enumerate(tight[g]) if t and taken[h] < len(members[h]))
        if flow[g][h]:
            flow[g][h] -= 1
        else:
            h = take_unit(g)
        assignment.append(members[h][taken[h]])
        taken[h] += 1
    return Matching(tuple(assignment), sum(int(costs[i][j]) for i, j in enumerate(assignment)))


@st.composite
def _shaped_matrices(draw):
    """Blow-ups of r x s matrices (r, s <= 9) whose rows come from a small
    pool, some with rows and columns permuted so that groups are not
    contiguous, as list, tuple or numpy rows."""
    r, s = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    top = draw(st.sampled_from([1, 3, 100, 10**30]))
    pool = draw(st.lists(st.lists(st.integers(0, top), min_size=s, max_size=s), min_size=1, max_size=r))
    base = [pool[k] for k in draw(st.lists(st.integers(0, len(pool) - 1), min_size=r, max_size=r))]
    q = math.lcm(r, s)
    a, b = q // r, q // s
    rows = [tuple(c for c in row for _ in range(b)) for row in base]
    costs = [rows[i // a] for i in range(q)]
    if draw(st.booleans()):
        pr, pc = draw(st.permutations(range(q))), draw(st.permutations(range(q)))
        costs = [tuple(costs[i][j] for j in pc) for i in pr]
    form = draw(st.sampled_from(["tuple", "list", "numpy"] if top < 2**62 else ["tuple", "list"]))
    if form == "list":
        return [list(row) for row in costs]
    return np.array(costs, dtype=np.int64) if form == "numpy" else costs


@settings(max_examples=300, deadline=None)
@given(_shaped_matrices())
def test_run_expansion_matches_the_row_by_row_expansion(costs):
    got = min_cost_perfect_matching(costs)
    assert got == _row_by_row(costs)
    assert type(got.cost) is int


def test_take_units_moves_a_run_in_one_reroute():
    # Row groups A, B and column groups X = {0, 1}, Y = {2, 3}, two units
    # each, every cell tight. The plan ships A to Y and B to X, so A's first
    # free group X is reached through B: one reroute moves both units.
    flow = [[0, 2], [2, 0]]
    tight_of = [[0, 1], [0, 1]]
    free = matching._FreeColumns([(0, 2), (1, 2)], 2)
    assert matching._take_units(flow, tight_of, tight_of, 0, 2, free, free.first_run(tight_of[0])) == (0, 2)
    assert flow == [[0, 0], [0, 2]]
    costs = [(2, 2, 2, 3), (2, 2, 2, 3), (0, 2, 2, 0), (0, 2, 2, 0)]
    assert min_cost_perfect_matching(costs) == _row_by_row(costs) == Matching((1, 2, 0, 3), 4)


@st.composite
def _transport_instances(draw):
    """R x K transportation problems (R, K <= 8) with equal supply and
    demand totals, some zero supplies and demands, costs 0..3 or huge."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cell = st.integers(0, draw(st.sampled_from([3, 10**30])))
    cost = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    supply = draw(st.lists(st.integers(0, 5), min_size=rows, max_size=rows))
    cuts = sorted(draw(st.lists(st.integers(0, sum(supply)), min_size=cols - 1, max_size=cols - 1)))
    demand = [b - a for a, b in zip([0, *cuts], [*cuts, sum(supply)])]
    return cost, supply, demand


@settings(max_examples=300, deadline=None)
@given(_transport_instances())
def test_transport_plan_is_optimal_and_ships_only_on_tight_cells(instance):
    cost, supply, demand = instance
    phases = []
    reprice = matching._reprice

    def counted(*args):
        phases.append(1)
        assert len(phases) <= sum(supply), "a phase shipped nothing"
        reprice(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matching, "_reprice", counted)
        flow, tight_of, _, _ = _transport(cost, supply, demand)
    assert [sum(row) for row in flow] == supply
    assert [sum(col) for col in zip(*flow)] == demand
    assert all(f == 0 or h in cols for frow, cols in zip(flow, tight_of) for h, f in enumerate(frow))
    g = nx.DiGraph()
    g.add_nodes_from((("r", i), {"demand": -n}) for i, n in enumerate(supply))
    g.add_nodes_from((("c", j), {"demand": n}) for j, n in enumerate(demand))
    g.add_edges_from((("r", i), ("c", j), {"weight": c}) for i, row in enumerate(cost) for j, c in enumerate(row))
    total = sum(c * f for crow, frow in zip(cost, flow) for c, f in zip(crow, frow))
    assert total == nx.min_cost_flow_cost(g)


def test_numpy_costs_give_an_exact_int_cost():
    big = min_cost_perfect_matching(np.array([[2**62] * 2] * 2))
    assert type(big.cost) is int and big.cost == 2**63
    m = min_cost_perfect_matching(np.array([[1, 2], [2, 1]]))
    assert json.loads(json.dumps(m.to_json_dict())) == {"assignment": [0, 1], "cost": 2}


@settings(max_examples=300, deadline=None)
@given(_transport_instances())
def test_transport_potentials_certify_the_plan(instance):
    # The returned potentials are optimal duals: no cell has a negative
    # reduced cost, every used cell is tight, the tight cells are exactly
    # those of zero reduced cost, and the duals' value is the plan's cost.
    cost, supply, demand = instance
    flow, tight_of, pot_r, pot_c = _transport(cost, supply, demand)
    for g, (crow, frow) in enumerate(zip(cost, flow)):
        reduced = [c + pot_r[g] - pc for c, pc in zip(crow, pot_c)]
        assert min(reduced) >= 0
        assert all(r == 0 for r, f in zip(reduced, frow) if f)
        assert tight_of[g] == [h for h, r in enumerate(reduced) if r == 0]
    total = sum(c * f for crow, frow in zip(cost, flow) for c, f in zip(crow, frow))
    assert total == sum(n * p for n, p in zip(demand, pot_c)) - sum(n * p for n, p in zip(supply, pot_r))


def _seeded_blow_up(r, s, seed):
    """The blow-up of a seeded r x s matrix of costs 0..3."""
    rng = random.Random(seed)
    base = [[rng.randint(0, 3) for _ in range(s)] for _ in range(r)]
    q = math.lcm(r, s)
    rows = [tuple(c for c in row for _ in range(q // s)) for row in base]
    return [row for row in rows for _ in range(q // r)]


@pytest.mark.parametrize("r, s, seed", [(71, 73, 0), (64, 81, 2)])
def test_expansion_work_does_not_grow_with_q(monkeypatch, r, s, seed):
    # q = 5183 and 5184: a row-by-row expansion reroutes 742 and 1503 times
    # here, one unit each; the run expansion stays within a tenth of r*s.
    # Successive shortest paths ran 149 and 153 Dijkstra searches, one per
    # augmentation; the phased transport runs one per phase.
    calls, searches = [], []
    original, reprice = matching._take_units, matching._reprice
    monkeypatch.setattr(matching, "_take_units", lambda *a: calls.append(1) or original(*a))
    monkeypatch.setattr(matching, "_reprice", lambda *a: searches.append(1) or reprice(*a))
    costs = _seeded_blow_up(r, s, seed)
    got = min_cost_perfect_matching(costs)
    assert matching_cost(costs, got.assignment) == got.cost
    assert len(calls) <= r * s // 10
    assert len(searches) <= 10


@pytest.mark.parametrize("r, s, seed", [(71, 73, 0), (64, 81, 2)])
def test_transport_searches_share_one_forest(monkeypatch, r, s, seed):
    # A transport that searched again from every start after each push made
    # 157 and 149 residual searches here. A greedy pass along the tight
    # cells, then one forest that serves every column it reaches, makes 17
    # and 10. Every ``_take_units`` call makes one search of its own.
    calls, searches = [], []
    original, search = matching._take_units, matching._residual_search
    monkeypatch.setattr(matching, "_take_units", lambda *a: calls.append(1) or original(*a))
    monkeypatch.setattr(matching, "_residual_search", lambda *a: searches.append(1) or search(*a))
    costs = _seeded_blow_up(r, s, seed)
    got = min_cost_perfect_matching(costs)
    assert matching_cost(costs, got.assignment) == got.cost
    assert len(searches) - len(calls) <= 40


def test_enumeration_counts_and_bound():
    ms = list(enumerate_matchings([[1, 2], [3, 4]]))
    assert len(ms) == 2
    assert len(list(enumerate_matchings([[0] * 3 for _ in range(3)]))) == 6
    with pytest.raises(OracleBoundError):
        list(enumerate_matchings([[0] * 9 for _ in range(9)]))
    assert len(list(enumerate_matchings([[0] * 9 for _ in range(9)], bound=9))) == 362880


def test_class_counts_identities():
    costs = [[0, 2, 3], [2, 0, 1], [3, 1, 0]]
    touch = [[False, True, True], [True, False, True], [True, True, False]]
    diag = Matching((0, 1, 2), 0)
    cc = class_counts(costs, touch, diag)
    assert cc == EdgeClassCounts(3, 0, 0, 0, 0)
    other = Matching((1, 2, 0), matching_cost(costs, (1, 2, 0)))
    cc = class_counts(costs, touch, other)
    assert cc.total == 3
    assert cc.cost == other.cost
    all3 = [[3] * 3 for _ in range(3)]
    cc = class_counts(all3, touch, Matching((0, 1, 2), 9))
    assert cc.n3 == 3


def test_exact_cost_trivial_cases():
    costs = [[0, 1], [1, 0]]
    mc = min_cost_perfect_matching(costs)
    got = exact_cost_matching(costs, mc.cost, seed=1)
    assert got is not None and got.cost == mc.cost
    assert exact_cost_matching(costs, mc.cost - 1, seed=1) is None


def test_exact_cost_and_counts_agree_with_enumeration():
    rng = random.Random(99)
    for _ in range(6):
        q = rng.randint(2, 5)
        costs = [[rng.randint(0, 3) for _ in range(q)] for _ in range(q)]
        touch = [[rng.random() < 0.6 for _ in range(q)] for _ in range(q)]
        signatures = set()
        cost_values = set()
        for m in enumerate_matchings(costs):
            cc = class_counts(costs, touch, m)
            signatures.add((m.cost, cc.n3, cc.n2_touchable))
            cost_values.add(m.cost)
        for target in range(3 * q + 1):
            got = exact_cost_matching(costs, target, trials=5, seed=7)
            assert (got is not None) == (target in cost_values)
            if got is not None:
                assert got.cost == target
        for x in sorted(cost_values):
            for k in range(q + 1):
                for l in range(q + 1 - k):
                    got = matching_with_counts(costs, touch, x, k, l, trials=5, seed=7)
                    assert (got is not None) == ((x, k, l) in signatures)
                    if got is not None:
                        cc = class_counts(costs, touch, got)
                        assert (got.cost, cc.n3, cc.n2_touchable) == (x, k, l)


def test_counts_pigeonhole_absent():
    costs = [[1, 1], [1, 1]]
    touch = [[True, True], [True, True]]
    assert matching_with_counts(costs, touch, 2, 1, 0, seed=3) is None


def test_counts_rejects_weighted_regime():
    with pytest.raises(ValueError):
        matching_with_counts([[4, 0], [0, 4]], [[True] * 2] * 2, 4, 0, 0, seed=1)


def test_exact_cost_never_returns_wrong_cost():
    rng = random.Random(5)
    for _ in range(20):
        q = rng.randint(2, 6)
        costs = [[rng.randint(0, 3) for _ in range(q)] for _ in range(q)]
        target = rng.randint(0, 3 * q)
        got = exact_cost_matching(costs, target, trials=2, seed=rng.randint(0, 100))
        if got is not None:
            assert matching_cost(costs, got.assignment) == target


@pytest.mark.parametrize("trials", [0, -1])
def test_exact_cost_matching_rejects_a_trial_count_below_one(trials):
    # Checked before any work: target 0 is the min-cost matching's own cost
    # and -1 no cost at all, both answered without a trial.
    for target in (0, 2, -1):
        with pytest.raises(ValueError, match="trials must be positive"):
            exact_cost_matching([[0, 1], [1, 0]], target, trials=trials)


@pytest.mark.parametrize("trials", [0, -1])
def test_matching_with_counts_rejects_a_trial_count_below_one(trials):
    # Checked before any work: k = -1 is answered None without a trial.
    for k in (-1, 0):
        with pytest.raises(ValueError, match="trials must be positive"):
            matching_with_counts([[0, 1], [1, 0]], [[True] * 2] * 2, 0, k, 0, trials=trials)


@pytest.mark.parametrize("trials", [0, -1])
def test_signature_support_rejects_a_trial_count_below_one(trials):
    with pytest.raises(ValueError, match="trials must be positive"):
        signature_support([[0, 1], [1, 0]], [[True] * 2] * 2, trials=trials)


@pytest.mark.parametrize(
    "call",
    [
        lambda seed: exact_cost_matching([[0, 1]], 1, seed=seed),
        lambda seed: matching_with_counts([[0, 1]], [[True, True]], 1, 0, 0, seed=seed),
        lambda seed: signature_support([[0, 1]], [[True, True]], seed=seed),
    ],
    ids=["exact_cost_matching", "matching_with_counts", "signature_support"],
)
def test_a_negative_seed_is_rejected_before_any_work(call):
    # The matrix is not even square: the seed is checked first, and named.
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -3$"):
        call(-3)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda x: exact_cost_matching([[0, 1], [1, 0]], x), "target"),
        (lambda x: matching_with_counts([[0, 1], [1, 0]], [[True] * 2] * 2, x, 0, 0), "target_cost"),
        (lambda x: matching_with_counts([[0, 1], [1, 0]], [[True] * 2] * 2, 2, x, 0), "k"),
        (lambda x: matching_with_counts([[0, 1], [1, 0]], [[True] * 2] * 2, 2, 0, x), "l"),
    ],
    ids=["exact_cost_matching", "target_cost", "k", "l"],
)
def test_a_non_integer_target_or_count_is_rejected_before_any_work(call, name):
    # numpy would fail on these with a bare IndexError, and True would pass
    # for 1; numpy integers stay accepted.
    for bad in (0.5, 2.0, "2", True):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(bad))}$"):
            call(bad)
    call(np.int64(2))


NON_INTEGERS = (1.5, 2.0, "2", True)


def _no_cubes(monkeypatch):
    """Make building any signature cube fail the test."""
    monkeypatch.setattr(_detcube, "_trial_cube", lambda *a: pytest.fail("a cube was built"))


@pytest.mark.parametrize("name", ["trials", "seed"])
def test_signature_support_names_a_non_integer_trials_or_seed(monkeypatch, name):
    # range() would fail on trials=1.5 with a bare TypeError, numpy on
    # seed=1.5 with its own message; both are rejected before any cube.
    _no_cubes(monkeypatch)
    for bad in NON_INTEGERS:
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(bad))}$"):
            signature_support([[0, 1], [1, 0]], [[True] * 2] * 2, **{name: bad})


@pytest.mark.parametrize("name", ["trials", "seed"])
def test_exact_cost_matching_names_a_non_integer_trials_or_seed(monkeypatch, name):
    _no_cubes(monkeypatch)
    for bad in NON_INTEGERS:
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(bad))}$"):
            exact_cost_matching([[0, 1], [1, 0]], 2, **{name: bad})


@pytest.mark.parametrize("name", ["trials", "seed"])
def test_matching_with_counts_names_a_non_integer_trials_or_seed(monkeypatch, name):
    _no_cubes(monkeypatch)
    for bad in NON_INTEGERS:
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(bad))}$"):
            matching_with_counts([[0, 1], [1, 0]], [[True] * 2] * 2, 2, 0, 0, **{name: bad})


def test_signature_support_is_sound_and_witnessed():
    # Every certified signature is a real one, and the witness query on the
    # same seed (hence the same cubes) recovers a verified matching for it.
    rng = random.Random(31)
    for trial in range(12):
        q = rng.randint(1, 5)
        costs = [[rng.randint(0, 3) for _ in range(q)] for _ in range(q)]
        touch = [[rng.random() < 0.6 for _ in range(q)] for _ in range(q)]
        signatures = set()
        for m in enumerate_matchings(costs):
            cc = class_counts(costs, touch, m)
            signatures.add((m.cost, cc.n3, cc.n2_touchable))
        support = signature_support(costs, touch, seed=trial)
        assert support and support <= signatures
        for x, k, l in support:
            got = matching_with_counts(costs, touch, x, k, l, seed=trial)
            assert got is not None
            cc = class_counts(costs, touch, got)
            assert (got.cost, matching_cost(costs, got.assignment)) == (x, x)
            assert (cc.n3, cc.n2_touchable) == (k, l)


def test_witness_is_the_first_enumerated_matching_with_its_signature():
    # The self-reduction fixes rows in order, each to the first column that
    # keeps the signature reachable, so the witness is the lexicographically
    # first matching with that signature.
    rng = random.Random(2024)
    checked = 0
    for case in range(40):
        q = rng.randint(1, 6)
        costs = [[rng.randint(0, 3) for _ in range(q)] for _ in range(q)]
        touch = [[rng.random() < 0.5 for _ in range(q)] for _ in range(q)]
        first: dict[tuple[int, int, int], Matching] = {}
        for m in enumerate_matchings(costs):
            cc = class_counts(costs, touch, m)
            first.setdefault((m.cost, cc.n3, cc.n2_touchable), m)
        for (x, k, l), m in first.items():
            assert matching_with_counts(costs, touch, x, k, l, trials=20, seed=case) == m
            checked += 1
    assert checked > 300


def _first_least(costs, touch) -> tuple[Matching, tuple[int, int, int]]:
    """The first enumerated matching whose (cost, -n3, -touchable n2) is least, and its (cost, n3, touchable n2)."""
    best = None
    for m in enumerate_matchings(costs):
        cc = class_counts(costs, touch, m)
        key = (m.cost, -cc.n3, -cc.n2_touchable)
        if best is None or key < best[0]:
            best = key, m
    (x, k, l), m = best
    return m, (x, -k, -l)


def _blown(matrix, a: int, b: int) -> list[tuple]:
    """Each cell repeated b times along its row, and each expanded row a times as one object."""
    rows = [tuple(c for c in row for _ in range(b)) for row in matrix]
    return [row for row in rows for _ in range(a)]


def _least_signature_cases():
    """Seeded 0..3 matrices with q from 1 to 7 under random, all-true and
    all-false masks, and blow-ups whose mask rows repeat with their cost
    rows, each once materialized and once as a view of its blocks."""
    rng = random.Random(2718)
    for q in range(1, 8):
        for _ in range(3 if q < 7 else 1):
            costs = [[rng.randint(0, 3) for _ in range(q)] for _ in range(q)]
            yield costs, [[rng.random() < 0.5 for _ in range(q)] for _ in range(q)]
            yield costs, [[True] * q for _ in range(q)]
            yield costs, [[False] * q for _ in range(q)]
    for r, s in ((2, 3), (3, 2), (2, 4), (3, 6), (1, 5)):
        q = math.lcm(r, s)
        costs = [[rng.randint(0, 3) for _ in range(s)] for _ in range(r)]
        touch = [[rng.random() < 0.5 for _ in range(s)] for _ in range(r)]
        yield _blown(costs, q // r, q // s), _blown(touch, q // r, q // s)
        yield _BlockRows(costs, q // r, q // s), _BlockRows(touch, q // r, q // s)


def test_least_signature_is_the_first_enumerated_matching_with_the_least_signature():
    for costs, touch in _least_signature_cases():
        expected, signature = _first_least(costs, touch)
        least, found = _least_signature(costs, touch)
        assert (least, found) == (expected, signature)
        assert least.cost == matching_cost(costs, least.assignment)


def test_least_capped_cost_is_the_enumerated_least_cost_less_3_edges():
    # Counting every 3 as 2 takes one off a matching's cost per 3-edge, on
    # plain matrices and on blow-ups, materialized or as views.
    for costs, touch in _least_signature_cases():
        least = min(m.cost - class_counts(costs, touch, m).n3 for m in enumerate_matchings(costs))
        assert _least_capped_cost(costs) == least


def test_matching_with_counts_checks_the_counts_before_any_matching(monkeypatch):
    # A count out of range is answered None without solving the least signature.
    monkeypatch.setattr(matching, "_least_signature", lambda *a: pytest.fail("the least signature was solved"))
    costs, touch = [[0, 3], [3, 0]], [[True] * 2] * 2
    for k, l in ((-1, 0), (0, -1), (2, 1), (3, 0)):
        assert matching_with_counts(costs, touch, 6, k, l) is None


def test_matching_with_counts_answers_the_least_signature_and_below_without_a_search(monkeypatch):
    # The least signature's own target gets its first matching, the one the
    # F_p extraction would return; every target ordered below it has no
    # matching. Neither builds a cube or loads the search.
    _no_cubes(monkeypatch)
    monkeypatch.setattr(_detcube, "_search", lambda *a: pytest.fail("a search ran"))
    below = 0
    for case, (costs, touch) in enumerate(_least_signature_cases()):
        q = len(costs)
        expected, (x0, k0, l0) = _first_least(costs, touch)
        assert matching_with_counts(costs, touch, x0, k0, l0, seed=case) == expected
        for x in range(x0 + 1):
            for k in range(q + 1):
                for l in range(q + 1 - k):
                    if (x, -k, -l) < (x0, -k0, -l0):
                        assert matching_with_counts(costs, touch, x, k, l, seed=case) is None
                        below += 1
    assert below > 500


def _minor_by_minor_extraction(digits, scalars, target):
    """The self-reduction with ``coefficient_at`` as its test: for each row in
    order, the first column whose minor certifies the remaining budget."""
    n = digits.shape[0]
    cols, remaining, out = list(range(n)), list(target), []
    for i in range(n):
        for j in cols:
            after = [r - int(d) for r, d in zip(remaining, digits[i, j])]
            live = np.ix_(range(i + 1, n), [c for c in cols if c != j])
            if min(after) >= 0 and coefficient_at(digits[live], scalars[live], tuple(after)) != 0:
                break
        else:
            return None
        out.append(j)
        cols.remove(j)
        remaining = after
    return out


def _row0_shares_agree_with_coefficient_at(digits, scalars, target):
    """Whether row 0's shares are nonzero exactly where ``coefficient_at`` is
    on the minor each column leaves."""
    q = digits.shape[0]
    shares = LiveMinor(digits, scalars, target).shares()
    for j in range(q):
        after = tuple(int(t - d) for t, d in zip(target, digits[0, j]))
        keep = [c for c in range(q) if c != j]
        minor = coefficient_at(digits[1:][:, keep], scalars[1:][:, keep], after) if min(after) >= 0 else 0
        if (shares[j] != 0) != (minor != 0):
            return False
    return True


def test_extraction_at_singular_points_agrees_with_coefficient_at():
    # Two equal scalar rows make the matrix singular at the all-ones grid
    # point. Where a target's grid holds a singular point, every share is
    # zero and the extraction gives up, also where coefficient_at finds a
    # witness: a singular point is a miss, never a wrong answer. Elsewhere,
    # and with the rows left distinct, the shares are nonzero exactly where
    # coefficient_at is, and the witness is the one it gives.
    rng = random.Random(17)
    missed = 0
    for case in range(6):
        q = rng.randint(3, 5)
        costs = [[rng.randint(0, 3) for _ in range(q)] for _ in range(q)]
        touch = [[rng.random() < 0.5 for _ in range(q)] for _ in range(q)]
        digits = _signature_digits(costs, touch)
        scalars = _trial_scalars(case, 0, q)
        singular = scalars.copy()
        singular[q - 1] = singular[0]
        assert det_batch(singular[None])[0] == 0
        signatures = {
            tuple(int(x) for x in sum(digits[i, p[i]] for i in range(q)))
            for p in itertools.permutations(range(q))
        }
        for target in sorted(signatures):
            minor = LiveMinor(digits, singular, target)
            want = _minor_by_minor_extraction(digits, singular, target)
            if minor.points is not None and not minor.det.all():
                assert not minor.shares().any(), (case, target)
                assert _extract_assignment(digits, singular, target) is None
                missed += want is not None
            else:
                assert _row0_shares_agree_with_coefficient_at(digits, singular, target), (case, target)
                assert _extract_assignment(digits, singular, target) == want
            assert _row0_shares_agree_with_coefficient_at(digits, scalars, target), (case, target)
            want = _minor_by_minor_extraction(digits, scalars, target)
            assert want is not None
            assert _extract_assignment(digits, scalars, target) == want
    assert missed


def _interior_targets(digits):
    """The reachable single-axis targets strictly inside their degree window,
    where no trim touches the matrix, so at the all-ones point it is the scalars."""
    q = digits.shape[0]
    _, (offset,), (dims,), (stride,) = _detcube._factor(digits)
    sums = {int(sum(digits[i, p[i], 0] for i in range(q))) for p in itertools.permutations(range(q))}
    return sorted(t for t in sums if offset < t < offset + (dims - 1) * stride)


def _spy_extraction(monkeypatch):
    """Record the batch size of every inversion (``det_batch(..., inverse=True)``)
    and the column of every ``LiveMinor.take``."""
    inversions, takes = [], []
    original, original_take = _detcube.det_batch, LiveMinor.take
    monkeypatch.setattr(
        _detcube,
        "det_batch",
        lambda mats, **kw: (kw.get("inverse") and inversions.append(len(mats))) or original(mats, **kw),
    )
    monkeypatch.setattr(LiveMinor, "take", lambda self, c: takes.append(c) or original_take(self, c))
    return inversions, takes


def _grid_size(digits, scalars, target):
    """The number of points of the extraction's grid, with the Vandermonde
    inverses its shares read built (and cached), so that a spy set after it
    sees the extraction's own inversions only."""
    for d in _detcube._factor(digits)[2]:
        _detcube.vandermonde_inverse(d)
    return len(LiveMinor(digits, scalars, target).points)


def _singular_minors(scalars, assignment):
    """Whether each row's live minor on the way to ``assignment`` is singular
    at the all-ones point, where the matrix is the scalars."""
    cols, out = list(range(len(assignment))), []
    for i, c in enumerate(assignment):
        out.append(bool(det_batch(scalars[i:, cols][None])[0] == 0))
        cols.remove(c)
    return out


def test_extraction_when_a_minor_turns_singular_mid_update(monkeypatch):
    # Rows 1 and 2 have equal scalars except in the column row 0 takes, so the
    # matrix at the all-ones point is nonsingular but the minor row 0 leaves
    # is not: the update's pivot B[j, 0] is 0 there. Row 0 takes the column
    # coefficient_at takes, then row 1's shares are all zero and the
    # extraction gives up, with the set-up's inversion as its only one.
    rng = random.Random(41)
    cases = 0
    while cases < 8:
        q = rng.randint(3, 6)
        digits = np.array([[[rng.randint(0, 3)] for _ in range(q)] for _ in range(q)], dtype=np.int64)
        for target in _interior_targets(digits)[:3]:
            for j in range(q):
                scalars = _trial_scalars(cases, 0, q)
                scalars[2] = scalars[1]
                scalars[2, j] = (scalars[1, j] + 1) % _detcube.PRIME
                want = _minor_by_minor_extraction(digits, scalars, (target,))
                if want is None or want[0] != j:
                    continue
                assert _singular_minors(scalars, want)[:2] == [False, True]
                ngrid = _grid_size(digits, scalars, (target,))
                with monkeypatch.context() as m:
                    inversions, takes = _spy_extraction(m)
                    assert _extract_assignment(digits, scalars, (target,)) is None
                assert takes == [j]
                assert sum(inversions) == ngrid
                cases += 1
                break


def test_extraction_when_a_point_is_singular_only_at_the_start(monkeypatch):
    # Rows 0 and q-1 have equal scalars, so the matrix at the all-ones point is
    # singular from the start, while the minor row 0 leaves is not. Row 0's
    # shares are all zero, so the extraction gives up before it takes a
    # column, with the set-up's inversion as its only one, although
    # coefficient_at finds a witness.
    rng = random.Random(43)
    cases = 0
    while cases < 8:
        q = rng.randint(3, 6)
        digits = np.array([[[rng.randint(0, 3)] for _ in range(q)] for _ in range(q)], dtype=np.int64)
        scalars = _trial_scalars(100 + cases, 0, q)
        scalars[q - 1] = scalars[0]
        for target in _interior_targets(digits)[:3]:
            want = _minor_by_minor_extraction(digits, scalars, (target,))
            if want is None:
                continue
            singular = _singular_minors(scalars, want)
            assert singular[0]
            if singular[1]:
                continue
            ngrid = _grid_size(digits, scalars, (target,))
            with monkeypatch.context() as m:
                inversions, takes = _spy_extraction(m)
                assert _extract_assignment(digits, scalars, (target,)) is None
            assert takes == []
            assert sum(inversions) == ngrid
            cases += 1


def test_a_singular_grid_point_aborts_the_extraction_and_the_next_trial_retries(monkeypatch):
    # Rows 0 and q-1 of trial 0's scalars are equal, so the matrix at the
    # all-ones grid point is singular: the extraction gives up although the
    # cube certified the target, and _search takes its witness from trial 1's
    # scalars, the lexicographically first matching with that digit sum.
    extractions = []
    extract = _detcube._extract_assignment
    monkeypatch.setattr(_detcube, "_extract_assignment", lambda *a: extractions.append(extract(*a)) or extractions[-1])
    rng = random.Random(43)
    cases = 0
    try:
        while cases < 8:
            q = rng.randint(3, 6)
            digits = np.array([[[rng.randint(0, 3)] for _ in range(q)] for _ in range(q)], dtype=np.int64)
            singular = _trial_scalars(100 + cases, 0, q)
            singular[q - 1] = singular[0]
            monkeypatch.setattr(
                _detcube, "_trial_scalars", lambda seed, trial, q: singular if trial == 0 else _trial_scalars(seed, trial, q)
            )
            _detcube._CUBES.clear()
            for target in _interior_targets(digits)[:3]:
                if _detcube._trial_cube(digits, 7, 0).coefficient((target,)) == 0:
                    continue
                assert _extract_assignment(digits, singular, (target,)) is None
                extractions.clear()
                got = _detcube._search(digits, (target,), 2, 7)
                assert extractions == [None, got]
                reach = [list(p) for p in itertools.permutations(range(q)) if sum(digits[i, p[i], 0] for i in range(q)) == target]
                assert got == reach[0]
                cases += 1
    finally:
        _detcube._CUBES.clear()


@pytest.mark.parametrize(
    "bad, message",
    [
        ((0, -1, 2), "costs must be non-negative integers, got -1"),
        ((0, 0.5, 2), "costs must be non-negative integers, got 0.5"),
        ((0, 1), "cost matrix must be square"),
    ],
    ids=["negative", "non-integer", "short-row"],
)
def test_check_square_rejects_bad_cells_in_repeated_rows(bad, message):
    # A matrix that repeats one row object is checked as one of distinct
    # rows: a bad row is rejected wherever its run of copies starts.
    good = (1, 2, 3)
    for rows in ([good, good, bad], [bad, bad, good], [good, bad, bad]):
        with pytest.raises(ValueError) as distinct:
            _check_square([list(row) for row in rows])
        assert str(distinct.value) == message
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _check_square(rows)


def test_check_square_checks_an_equal_row_that_is_another_object():
    # (1.0, 2) == (1, 2), but each row is checked for itself.
    assert _check_square([(1, 2), (1, 2)]) == 2
    with pytest.raises(ValueError, match=r"^costs must be non-negative integers, got 1\.0$"):
        _check_square([(1, 2), (1.0, 2)])


@pytest.mark.parametrize(
    "bad, message",
    [
        ((0, -1), "costs must be non-negative integers, got -1"),
        ((0, 0.5), "costs must be non-negative integers, got 0.5"),
        ((0,), "cost matrix must be square"),
        ((0, 1, 2), "cost matrix must be square"),
    ],
    ids=["negative", "non-integer", "short-row", "long-row"],
)
def test_check_square_rejects_a_views_bad_block_cell_as_the_materialized_matrix(bad, message):
    # Every cell of a view is one of its block cells, so the blocks are
    # checked for it, with the errors of the q x q matrix it stands for.
    good = (1, 2)
    for blocks in ([good, good, bad], [bad, good, good], [good, bad, bad]):
        view = _BlockRows(blocks, 2, 3)
        for matrix in ([[c for c in row for _ in range(3)] for row in blocks for _ in range(2)], view):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                _check_square(matrix)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                min_cost_perfect_matching(matrix)
    with pytest.raises(ValueError, match="^cost matrix must be non-empty$"):
        _check_square(_BlockRows([], 2, 3))


def test_block_rows_read_as_the_materialized_tuple_of_rows():
    blocks = ((0, 1), (2, 3), (0, 1))
    view = _BlockRows(blocks, 2, 3)
    rows = tuple(tuple(blocks[i // 2][j // 3] for j in range(6)) for i in range(6))
    # A block row's copies are one tuple, built on first read.
    assert len(view) == 6 and view._rows == [None] * 3
    assert view[-1] == rows[-1] and view._rows == [None, None, rows[4]]
    assert view[0] is view[1] and view[4] is view[5] and view[0] is not view[4]
    assert tuple(view) == rows and list(iter(view)) == list(rows) and view[-6] == rows[0]
    assert [row is view[2] for row in view] == [False, False, True, True, False, False]
    assert view[1:5] == rows[1:5] and view[::-2] == rows[::-2] and view[7:] == ()
    for i in (6, -7):
        with pytest.raises(IndexError):
            view[i]
    assert view == rows and rows == view and view == _BlockRows(blocks, 2, 3)
    assert hash(view) == hash(rows)
    assert view != [list(row) for row in rows] and view != _BlockRows(blocks, 2, 1)
    assert view != rows[:5] and rows[:5] != view


def _costs_or_mask(draw, r: int, s: int, cells):
    """An r x s matrix of ``cells`` whose rows are drawn from a pool of at
    most three and whose columns from three, so that equal rows and columns,
    adjacent ones among them, are common."""
    pool = draw(st.lists(st.lists(cells, min_size=3, max_size=3), min_size=1, max_size=3))
    row_of = draw(st.lists(st.integers(0, len(pool) - 1), min_size=r, max_size=r))
    col_of = draw(st.lists(st.integers(0, 2), min_size=s, max_size=s))
    return tuple(tuple(pool[i][j] for j in col_of) for i in row_of)


@st.composite
def _views(draw):
    """A view of r x s 0..3 blocks (r, s <= 5) with a·r = b·s = q for q a
    multiple of lcm(r, s) up to 24, its touchable mask's view, and both
    materialized as lists of lists of distinct row objects."""
    r, s = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    q = math.lcm(r, s) * draw(st.sampled_from([k for k in (1, 2, 3) if math.lcm(r, s) * k <= 24]))
    a, b = q // r, q // s
    costs = _costs_or_mask(draw, r, s, st.integers(0, 3))
    mask = _costs_or_mask(draw, r, s, st.booleans())
    plain = [[[m[i // a][j // b] for j in range(q)] for i in range(q)] for m in (costs, mask)]
    return _BlockRows(costs, a, b), _BlockRows(mask, a, b), *plain


@settings(max_examples=150, deadline=None)
@given(_views())
def test_kernel_and_least_matchings_read_a_view_as_its_materialized_matrix(case):
    view, mask_view, costs, mask = case
    got = min_cost_perfect_matching(view)
    assert got == min_cost_perfect_matching(costs)
    least = _least_signature(costs, mask)
    assert _least_signature(view, mask_view) == least
    assert _least_capped_cost(view) == _least_capped_cost(costs)
    for m in (got, least[0], Matching(tuple(reversed(got.assignment)), 0)):
        assert matching_cost(view, m.assignment) == matching_cost(costs, m.assignment)
        counts = class_counts(costs, mask, m)
        for pair in ((view, mask_view), (view, mask), (costs, mask_view)):
            assert class_counts(*pair, m) == counts
    # The kernel, both least matchings, the cost and the class counts read the blocks alone.
    assert view._rows == [None] * len(view.blocks) and mask_view._rows == view._rows
    # A view beside a plain mask is read cell by cell.
    assert _least_signature(view, mask) == _least_signature(costs, mask_view) == least
    assert got.cost == matching_cost(costs, got.assignment) == matching_cost(view, got.assignment)


def test_signature_cubes_are_reused_across_calls(monkeypatch):
    built = []
    init = SignatureCube.__init__
    monkeypatch.setattr(SignatureCube, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    _detcube._CUBES.clear()
    rng = random.Random(4242)
    costs = [[rng.randint(0, 3) for _ in range(5)] for _ in range(5)]
    touch = [[rng.random() < 0.5 for _ in range(5)] for _ in range(5)]
    x, k, l = sorted(signature_support(costs, touch, trials=2, seed=9))[-1]
    swept = len(built)
    assert swept == 2
    first = matching_with_counts(costs, touch, x, k, l, trials=2, seed=9)
    assert first is not None and len(built) == swept  # the witness query starts on the sweep's cubes
    assert matching_with_counts(costs, touch, x, k, l, trials=2, seed=9) == first
    assert len(built) == swept

    costs_found = sorted({m.cost for m in enumerate_matchings(costs)})
    target = costs_found[1]
    before = len(built)
    hit = exact_cost_matching(costs, target, trials=3, seed=9)
    assert hit is not None and hit.cost == target
    after_first = len(built)
    assert after_first > before
    assert exact_cost_matching(costs, target, trials=3, seed=9) == hit
    assert len(built) == after_first
