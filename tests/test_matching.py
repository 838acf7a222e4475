import math
import random

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
from riccicrit.matching import matching_cost, signature_support


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
def test_hungarian_matches_enumeration(costs):
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
