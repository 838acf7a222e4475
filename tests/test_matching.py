import itertools
import math
import random
import re

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
from riccicrit import _detcube
from riccicrit._detcube import SignatureCube, coefficient_at, det_batch, row_coefficients
from riccicrit.matching import (
    _cached_cube,
    _check_square,
    _extract_assignment,
    _signature_digits,
    _trial_scalars,
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


@pytest.mark.parametrize("trials", [0, -1])
def test_signature_support_rejects_a_trial_count_below_one(trials):
    with pytest.raises(ValueError, match="trials must be positive"):
        signature_support([[0, 1], [1, 0]], [[True] * 2] * 2, trials=trials)


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


def test_extraction_at_singular_points_agrees_with_coefficient_at(monkeypatch):
    # Two equal scalar rows make the matrix singular at the all-ones grid
    # point, so each pass there needs the minor fallback; its shares must
    # still be zero exactly where coefficient_at is on the candidate minor.
    fallbacks = []
    original = _detcube._minor_row
    monkeypatch.setattr(_detcube, "_minor_row", lambda mats, row: fallbacks.append(row) or original(mats, row))
    rng = random.Random(17)
    for case in range(6):
        q = rng.randint(3, 5)
        costs = [[rng.randint(0, 3) for _ in range(q)] for _ in range(q)]
        touch = [[rng.random() < 0.5 for _ in range(q)] for _ in range(q)]
        digits = _signature_digits(costs, touch)
        scalars = _trial_scalars(case, 0, q)
        scalars[q - 1] = scalars[0]
        assert det_batch(scalars[None])[0] == 0
        signatures = {
            tuple(int(x) for x in sum(digits[i, p[i]] for i in range(q)))
            for p in itertools.permutations(range(q))
        }
        for target in sorted(signatures):
            shares = row_coefficients(digits, scalars, target)
            for j in range(q):
                after = tuple(int(t - d) for t, d in zip(target, digits[0, j]))
                keep = [c for c in range(q) if c != j]
                minor = coefficient_at(digits[1:][:, keep], scalars[1:][:, keep], after) if min(after) >= 0 else 0
                assert (shares[j] != 0) == (minor != 0), (case, target, j)
            want = _minor_by_minor_extraction(digits, scalars, target)
            assert _extract_assignment(digits, scalars, target) == want
    assert fallbacks


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
    # A blow-up repeats one row object for a row node's copies; a bad row is
    # still rejected wherever its run of copies starts, with the message a
    # matrix of distinct row objects gets.
    good = (1, 2, 3)
    for rows in ([good, good, bad], [bad, bad, good], [good, bad, bad]):
        with pytest.raises(ValueError) as distinct:
            _check_square([list(row) for row in rows])
        assert str(distinct.value) == message
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _check_square(rows)


def test_check_square_checks_an_equal_row_that_is_another_object():
    # (1.0, 2) == (1, 2), but only a row that is the same object as the one
    # before it may be skipped.
    assert _check_square([(1, 2), (1, 2)]) == 2
    with pytest.raises(ValueError, match=r"^costs must be non-negative integers, got 1\.0$"):
        _check_square([(1, 2), (1.0, 2)])


def test_signature_cubes_are_reused_across_calls(monkeypatch):
    built = []
    init = SignatureCube.__init__
    monkeypatch.setattr(SignatureCube, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    _cached_cube.cache_clear()
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
