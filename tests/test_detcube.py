import collections
import itertools
import math
import random

import numpy as np
import pytest

from riccicrit import _detcube
from riccicrit._detcube import (
    PRIME,
    LiveMinor,
    SignatureCube,
    _extract_assignment,
    _signature_digits,
    _trial_scalars,
    coefficient_at,
    det_batch,
)
from riccicrit.errors import FieldConfigError
from riccicrit import blow_up, build_cost_matrix, exact_cost_matching
from riccicrit.matching import signature_support

from conftest import double_star, enumerated_signatures


def exact_det(rows: list[list[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination, Python ints throughout."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def seeded_batch(seed: int, n: int, count: int) -> np.ndarray:
    """Random n x n matrices: full-range residues, small entries with zero
    leading pivots (forcing row swaps), and singular ones (a repeated row, a
    zero column, a row that is a multiple of another)."""
    rng = random.Random(seed)
    mats = []
    for b in range(count):
        kind = b % 5
        if kind == 0:
            m = [[rng.randrange(PRIME) for _ in range(n)] for _ in range(n)]
        elif kind == 1:
            m = [[rng.choice([0, 0, 1, 2, 3]) for _ in range(n)] for _ in range(n)]
            m[0][0] = 0
        elif kind == 2:
            m = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
            if n > 1:
                m[-1] = list(m[0])
        elif kind == 3:
            m = [[rng.randrange(PRIME) for _ in range(n)] for _ in range(n)]
            c = rng.randrange(n)
            for r in m:
                r[c] = 0
        else:
            m = [[rng.randrange(1, 50) for _ in range(n)] for _ in range(n)]
            if n > 1:
                m[1] = [(3 * x) % PRIME for x in m[0]]
        mats.append(m)
    return np.array(mats, dtype=np.int64)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_det_batch_matches_exact_determinants(n):
    mats = seeded_batch(100 + n, n, 40)
    got = det_batch(mats)
    want = [exact_det(m.tolist()) % PRIME for m in mats]
    assert got.tolist() == want
    assert any(w == 0 for w in want) and any(w != 0 for w in want)


def test_one_point_shares_are_cofactors_or_zero_when_singular():
    # With every digit 0 the grid is one point, where the live minor is the
    # scalar matrix itself: row 0's shares are its entries times their
    # cofactors, and all zero when it is singular, which gives up the extraction.
    mats = seeded_batch(7, 4, 10)
    dets = det_batch(mats)
    digits = np.zeros((4, 4, 1), dtype=np.int64)
    for m, det in zip(mats, dets):
        shares = LiveMinor(digits, m, (0,)).shares()
        if det == 0:
            assert not shares.any()
        else:
            want = [x % PRIME * c % PRIME for x, c in zip(m[0].tolist(), modular_cofactors(m.tolist(), 0))]
            assert shares.tolist() == want
    assert 0 < int((dets == 0).sum()) < len(mats)
    # Singular members whose cofactors are not all zero: the zero shares are the rule, not the cofactors.
    assert any(det == 0 and any(modular_cofactors(m.tolist(), 0)) for m, det in zip(mats, dets))


def seeded_signature_instances(seed: int, count: int, max_q: int):
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.randint(1, max_q)
        costs = [[rng.randint(0, 3) for _ in range(q)] for _ in range(q)]
        touch = [[rng.random() < 0.5 for _ in range(q)] for _ in range(q)]
        scalars = np.array([[rng.randrange(1, PRIME) for _ in range(q)] for _ in range(q)], dtype=np.int64)
        yield _signature_digits(costs, touch), scalars


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cube_support_is_the_enumerated_signature_set(seed):
    for digits, scalars in seeded_signature_instances(seed, 15, 5):
        assert SignatureCube(digits, scalars).support() == enumerated_signatures(digits)


def test_row_coefficients_split_the_cube_coefficient_by_column():
    # Entry j is zero exactly when coefficient_at is on the (0, j) minor at
    # the budget left after (0, j), and the entries add up to the cube's
    # coefficient.
    for digits, scalars in seeded_signature_instances(11, 12, 5):
        n = digits.shape[0]
        cube = SignatureCube(digits, scalars)
        for target in sorted(cube.support()) + [(0, 0, 0), (4 * n + 1, 0, 0)]:
            shares = LiveMinor(digits, scalars, target).shares()
            assert int(shares.sum() % PRIME) == cube.coefficient(target) % PRIME
            for j in range(n):
                after = tuple(int(t - d) for t, d in zip(target, digits[0, j]))
                keep = [c for c in range(n) if c != j]
                minor = coefficient_at(digits[1:][:, keep], scalars[1:][:, keep], after) if min(after) >= 0 else 0
                assert (shares[j] != 0) == (minor != 0), (target, j)


def test_targets_on_a_window_edge_are_read_off_one_grid_point(monkeypatch):
    # The lowest and the highest coefficient of an axis need no
    # interpolation along it, so a target on the edge of every axis's
    # window costs one inversion, with the same shares.
    batches = []
    original = _detcube.det_batch
    monkeypatch.setattr(_detcube, "det_batch", lambda mats, **kw: batches.append(len(mats)) or original(mats, **kw))
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(2, 6)
        digits = np.array([[[rng.randint(0, 5)] for _ in range(n)] for _ in range(n)], dtype=np.int64)
        scalars = np.array([[rng.randrange(1, PRIME) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        _, (offset,), (dims,), (stride,) = _detcube._factor(digits)
        for target in (offset, offset + (dims - 1) * stride):
            batches.clear()
            shares = LiveMinor(digits, scalars, (target,)).shares()
            assert batches[0] == 1
            for j in range(n):
                keep = [c for c in range(n) if c != j]
                after = target - int(digits[0, j, 0])
                minor = coefficient_at(digits[1:][:, keep], scalars[1:][:, keep], (after,)) if after >= 0 else 0
                assert (shares[j] != 0) == (minor != 0)


def rows_until_done(digits: np.ndarray, scalars: np.ndarray, target: tuple[int, ...]) -> int:
    """Run an extraction row by row, checking that each row's shares are the
    very field elements a fresh set-up on the explicit live minor gives,
    signs included. Returns the number of rows fixed: all of them, or the
    row where a singular grid point zeroes every share and the extraction
    gives up."""
    n = digits.shape[0]
    minor = LiveMinor(digits, scalars, target)
    cols, remaining = list(range(n)), np.array(target)
    for i in range(n):
        got = minor.shares()
        if not minor.det.all():
            assert not got.any(), (target, i)
            return i
        live = np.ix_(range(i, n), cols)
        want = LiveMinor(digits[live], scalars[live], tuple(remaining)).shares()
        assert got.tolist() == want.tolist(), (target, i)
        c = int(np.flatnonzero(want)[0])
        remaining = remaining - digits[i, cols.pop(c)]
        minor.take(c)
    return n


def test_each_rows_shares_are_its_minors_row_coefficients():
    # After the rank-one updates, each row's shares are the very field
    # elements a fresh set-up on the explicit live minor gives, signs included.
    for digits, scalars in seeded_signature_instances(61, 20, 6):
        for target in sorted(enumerated_signatures(digits))[::3]:
            assert rows_until_done(digits, scalars, target) == digits.shape[0]


def test_rows_match_fresh_minors_on_strided_and_trimmed_grids_and_up_to_a_give_up():
    # The same check where the set-up's grid is strided along both axes,
    # where it is trimmed at a window edge (each axis's Vandermonde weights
    # then come from a shorter grid), and where the minor left by row 0 is
    # singular at the all-ones point: there row 1's shares are all zero.
    for digits, scalars, _ in planted_stride_instances(67, 12):
        for target in sorted(enumerated_signatures(digits))[::2]:
            assert rows_until_done(digits, scalars, target) == digits.shape[0]
    trimmed = 0
    for digits, scalars in seeded_signature_instances(71, 20, 6):
        box = _detcube._factor(digits)[2]
        for target in sorted(enumerated_signatures(digits)):
            if _detcube._window(digits, scalars, target)[2] != box:
                trimmed += 1
                assert rows_until_done(digits, scalars, target) == digits.shape[0]
    assert trimmed > 20
    rng = random.Random(73)
    gave_up = 0
    while gave_up < 8:
        q = rng.randint(3, 6)
        digits = np.array([[[rng.randint(0, 3)] for _ in range(q)] for _ in range(q)], dtype=np.int64)
        _, (offset,), (dims,), (stride,) = _detcube._factor(digits)
        first: dict[int, tuple[int, ...]] = {}
        for p in itertools.permutations(range(q)):
            first.setdefault(int(sum(digits[i, p[i], 0] for i in range(q))), p)
        for target, p in sorted(first.items()):
            if not offset < target < offset + (dims - 1) * stride:
                continue
            # Rows 1 and 2 are equal but in the column row 0 takes.
            scalars = np.array([[rng.randrange(1, PRIME) for _ in range(q)] for _ in range(q)], dtype=np.int64)
            scalars[2] = scalars[1]
            scalars[2, p[0]] = (scalars[1, p[0]] + 1) % PRIME
            assert rows_until_done(digits, scalars, (target,)) == 1
            gave_up += 1


def test_an_extraction_at_a_window_edge_inverts_one_matrix(monkeypatch):
    # The window-edge trims are made once, at the top: a target on the edge of
    # every axis's window is read off one grid point for the whole extraction,
    # whose single inversion every later row updates; an unreachable target
    # gives None.
    calls = []
    original = _detcube.det_batch
    monkeypatch.setattr(_detcube, "det_batch", lambda mats, **kw: calls.append((len(mats), kw)) or original(mats, **kw))
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(2, 6)
        digits = np.array([[[rng.randint(0, 5)] for _ in range(n)] for _ in range(n)], dtype=np.int64)
        scalars = np.array([[rng.randrange(1, PRIME) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        _, (offset,), (dims,), (stride,) = _detcube._factor(digits)
        for target in (offset, offset + (dims - 1) * stride):
            calls.clear()
            got = _extract_assignment(digits, scalars, (target,))
            reach = [list(p) for p in itertools.permutations(range(n)) if sum(digits[i, p[i], 0] for i in range(n)) == target]
            assert got == (reach[0] if reach else None)
            assert calls == [(1, {"inverse": True})]


def planted_stride_instances(seed: int, count: int):
    """Two-axis digits g·D + a_i + b_j with a planted factor g in {2, 3} per
    axis, q from 2 to 6, and seeded scalars, with the g of each axis.

    D is 0 on row 0 and on a column of the smallest b_j, and holds a 1, so
    the row and column minima take out exactly a_i + b_j (up to a constant)
    and leave g·D, whose gcd is g.
    """
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.randint(2, 6)
        strides = tuple(rng.choice((2, 3)) for _ in range(2))
        digits = np.empty((q, q, 2), dtype=np.int64)
        for axis, g in enumerate(strides):
            a = [rng.randint(0, 4) for _ in range(q)]
            b = [rng.randint(0, 4) for _ in range(q)]
            low = b.index(min(b))
            d = [[0 if i == 0 or j == low else rng.randint(0, 3) for j in range(q)] for i in range(q)]
            d[1][(low + 1) % q] = 1
            digits[:, :, axis] = [[g * d[i][j] + a[i] + b[j] for j in range(q)] for i in range(q)]
        scalars = np.array([[rng.randrange(1, PRIME) for _ in range(q)] for _ in range(q)], dtype=np.int64)
        yield digits, scalars, strides


def enumerated_coefficients(digits: np.ndarray, scalars: np.ndarray):
    """By enumeration, each digit-sum signature's determinant coefficient mod
    PRIME (the signed sum of its permutations' scalar products), and its
    lexicographically first permutation."""
    n = digits.shape[0]
    coefficients: dict[tuple[int, ...], int] = {}
    first: dict[tuple[int, ...], list[int]] = {}
    for p in itertools.permutations(range(n)):
        term = (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        for i in range(n):
            term = term * int(scalars[i, p[i]]) % PRIME
        key = tuple(int(x) for x in digits[range(n), p].sum(axis=0))
        coefficients[key] = (coefficients.get(key, 0) + term) % PRIME
        first.setdefault(key, list(p))
    return coefficients, first


def test_strided_axes_agree_with_enumeration():
    # Each axis's common factor is taken out of the grid, yet every
    # coefficient is the enumerated field element, the support is the
    # enumerated signature set, a target off an axis's residue class has
    # coefficient 0 and no window, and the witness is the lexicographically
    # first enumerated matching with its signature.
    for digits, scalars, strides in planted_stride_instances(31, 25):
        cube = SignatureCube(digits, scalars)
        assert cube.stride == strides
        want, first = enumerated_coefficients(digits, scalars)
        for idx in itertools.product(*(range(-1, d * g + 1) for d, g in zip(cube.dims, cube.stride))):
            target = tuple(o + i for o, i in zip(cube.offset, idx))
            assert cube.coefficient(target) == want.get(target, 0), target
        assert cube.support() == enumerated_signatures(digits)
        for target in sorted(first):
            for axis, g in enumerate(strides):
                for step in range(1, g):
                    off = tuple(t + step * (a == axis) for a, t in enumerate(target))
                    assert cube.coefficient(off) == 0
                    assert _detcube._window(digits, scalars, off) is None
        for target in sorted(first)[::3]:
            assert _extract_assignment(digits, scalars, target) == first[target], target


def mixed_digit_instances(seed: int, count: int):
    """Seeded digits and scalars, n from 1 to 6 and 1 to 3 axes. Every other
    instance is blow-up-shaped: the signature digits of a 0..3 cost matrix
    whose rows and columns come in runs of equal copies, as a blow-up's do;
    the rest have entries 0..4 on every axis."""
    rng = random.Random(seed)
    for b in range(count):
        n = rng.randint(1, 6)
        if b % 2:
            rows = sorted(rng.randrange(3) for _ in range(n))
            cols = sorted(rng.randrange(3) for _ in range(n))
            costs = [[rng.randint(0, 3) for _ in range(3)] for _ in range(3)]
            touch = [[rng.random() < 0.5 for _ in range(3)] for _ in range(3)]
            digits = _signature_digits(
                [[costs[r][c] for c in cols] for r in rows], [[touch[r][c] for c in cols] for r in rows]
            )
        else:
            naxes = rng.randint(1, 3)
            digits = np.array(
                [[[rng.randint(0, 4) for _ in range(naxes)] for _ in range(n)] for _ in range(n)], dtype=np.int64
            )
        scalars = np.array([[rng.randrange(1, PRIME) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        yield digits, scalars


def test_cube_agrees_with_enumeration_at_and_beside_every_signature():
    # Each coefficient is the enumerated signed sum of scalar products, at
    # every signature and at every target one step off one along an axis,
    # and the support is the enumerated signature set.
    for digits, scalars in mixed_digit_instances(41, 120):
        cube = SignatureCube(digits, scalars)
        want, _ = enumerated_coefficients(digits, scalars)
        targets = set(want)
        for target in want:
            for axis in range(len(target)):
                for step in (-1, 1):
                    targets.add(tuple(t + step * (a == axis) for a, t in enumerate(target)))
        for target in sorted(targets):
            assert cube.coefficient(target) == want.get(target, 0), target
        assert cube.support() == {t for t, c in want.items() if c}


def sweep_instances(seed: int, family: str):
    """Digit arrays of one family: "box", ``mixed_digit_instances`` (1 to 3
    axes, half blow-up-shaped), or "strided", ``planted_stride_instances``."""
    if family == "box":
        for digits, _ in mixed_digit_instances(seed, 24):
            yield digits
    else:
        for digits, _, _ in planted_stride_instances(seed, 8):
            yield digits


@pytest.mark.parametrize("prime", [PRIME, 101])
@pytest.mark.parametrize("family", ["box", "strided"])
def test_a_sweeps_cubes_are_the_cubes_built_alone(field, prime, family):
    # The cached cube of each trial of a sweep has the very scalars,
    # coefficient array, grid and support of the cube built alone at that
    # trial's scalars, at 1, 2 and 4 trials, over the full field and over F_101.
    field(prime)
    for case, digits in enumerate(sweep_instances(53, family)):
        for trials in (1, 2, 4):
            _detcube._CUBES.clear()
            swept = [_detcube._trial_cube(digits, case, t) for t in range(trials)]
            assert len(_detcube._CUBES) == trials
            for t, cube in enumerate(swept):
                alone = SignatureCube(digits, _trial_scalars(case, t, digits.shape[0]))
                assert cube.scalars.tolist() == alone.scalars.tolist()
                assert cube.cube.dtype == alone.cube.dtype and cube.cube.tolist() == alone.cube.tolist(), (case, t)
                assert cube.support() == alone.support()
                for name in ("offset", "stride", "dims"):
                    assert getattr(cube, name) == getattr(alone, name)


def test_a_search_after_a_sweep_reads_the_sweeps_cubes():
    # signature_support caches each trial's cube by its trial, so the
    # witness search's _trial_cube hands back the very objects; a trial past
    # the sweep is built then.
    rng = random.Random(59)
    costs = [[rng.randint(0, 3) for _ in range(6)] for _ in range(6)]
    touch = [[rng.random() < 0.5 for _ in range(6)] for _ in range(6)]
    digits = _signature_digits(costs, touch)
    _detcube._CUBES.clear()
    signature_support(costs, touch, trials=2, seed=5)
    swept = list(_detcube._CUBES.values())
    assert len(swept) == 2
    assert all(_detcube._trial_cube(digits, 5, t) is cube for t, cube in enumerate(swept))
    third = _detcube._trial_cube(digits, 5, 2)
    assert third not in swept and len(_detcube._CUBES) == 3
    assert third.cube.tolist() == SignatureCube(digits, _trial_scalars(5, 2, 6)).cube.tolist()


def test_a_target_outside_the_degree_window_builds_no_cube(monkeypatch):
    # The costs of this blow-up factor to the window 46..81 (q = 35), so no
    # matching costs 3q = 105 and the search answers before its first cube;
    # a reachable target above the minimum cost 69 still builds one.
    bm = blow_up(build_cost_matrix(double_star(4, 6, []), (0, 1)))
    digits = np.array(bm.costs, dtype=np.int64)[:, :, None]
    assert (bm.q, _detcube._factor(digits)[1:]) == (35, ((46,), (36,), (1,)))
    built = []
    init = SignatureCube.__init__
    monkeypatch.setattr(SignatureCube, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    monkeypatch.setattr(_detcube, "_CUBES", collections.OrderedDict())
    assert exact_cost_matching(bm.costs, 3 * bm.q) is None
    assert built == []
    found = exact_cost_matching(bm.costs, 71)
    assert found is not None and found.cost == 71
    assert len(built) == 1


def modular_det(rows: list[list[int]]) -> int:
    """Determinant mod PRIME by Gaussian elimination in Python ints."""
    a = [[x % PRIME for x in r] for r in rows]
    n, det = len(a), 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det = det * a[k][k] % PRIME
        inv = pow(a[k][k], -1, PRIME)
        for i in range(k + 1, n):
            f = a[i][k] * inv % PRIME
            a[i] = [(x - f * y) % PRIME for x, y in zip(a[i], a[k])]
    return det % PRIME


def modular_cofactors(rows: list[list[int]], i: int) -> list[int]:
    minors = ([[x for c, x in enumerate(r) if c != j] for rr, r in enumerate(rows) if rr != i] for j in range(len(rows)))
    return [(-1) ** (i + j) * modular_det(m) % PRIME for j, m in enumerate(minors)]


def extreme_batch(seed: int, n: int) -> np.ndarray:
    """Matrices of all PRIME - 1 entries, PRIME - 1 on a shifted permutation
    (every pivot needs a swap), unreduced entries (negative, PRIME and
    above), zero leading pivots and full-range residues."""
    rng = random.Random(seed)
    top = PRIME - 1
    shift = [[top if c == (r + 1) % n else 0 for c in range(n)] for r in range(n)]
    mats = [
        [[top] * n for _ in range(n)],
        shift,
        [[top if c == (r + 1) % n or c == r else rng.choice([0, 1, top]) * (c > r) for c in range(n)] for r in range(n)],
        [[rng.choice([-top, -1, 0, PRIME, PRIME + 1, 2 * PRIME - 1, top]) for _ in range(n)] for _ in range(n)],
    ]
    mats += seeded_batch(seed, n, 6).tolist()
    return np.array(mats, dtype=np.int64)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12])
def test_det_batch_matches_a_python_int_elimination(n):
    mats = extreme_batch(300 + n, n)
    rows = mats.tolist()
    want_det = [modular_det(m) for m in rows]
    assert det_batch(mats).tolist() == want_det
    if n > 1:
        assert want_det[0] == 0 and any(want_det)


def modular_inverse(rows: list[list[int]]) -> tuple[int, list[list[int]] | None]:
    """Determinant and inverse mod PRIME by Gauss-Jordan elimination in Python
    ints; the inverse is None for a singular matrix."""
    n = len(rows)
    aug = [[x % PRIME for x in r] + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    det = 1
    for k in range(n):
        p = next((i for i in range(k, n) if aug[i][k]), None)
        if p is None:
            return 0, None
        if p != k:
            aug[k], aug[p] = aug[p], aug[k]
            det = -det
        det = det * aug[k][k] % PRIME
        inv = pow(aug[k][k], -1, PRIME)
        aug[k] = [x * inv % PRIME for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [(x - f * y) % PRIME for x, y in zip(aug[i], aug[k])]
    return det % PRIME, [r[n:] for r in aug]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12])
def test_inverse_mode_matches_a_python_int_gauss_jordan(n):
    # Entries 0, 1 and PRIME - 1, pivots that need swaps, unreduced entries and
    # singular members: a singular member's determinant is 0 and its inverse
    # slice is zero, not the leftovers of an elimination.
    mats = extreme_batch(500 + n, n)
    det, inv = det_batch(mats, inverse=True)
    assert inv.shape == (n, n, len(mats))
    singular = 0
    for b, m in enumerate(mats.tolist()):
        want_det, want_inv = modular_inverse(m)
        assert int(det[b]) == want_det, b
        if want_inv is None:
            singular += 1
            assert not inv[:, :, b].any(), b
        else:
            assert inv[:, :, b].tolist() == want_inv, b
    assert det.tolist() == det_batch(mats).tolist()
    if n > 1:
        assert 0 < singular < len(mats)


def kernel_batch(seed: int, n: int, count: int) -> np.ndarray:
    """Members cycling through full-range residues; PRIME - 1 off a diagonal
    of 1, so every product sits at the int64 edge; rows 0 and 1 proportional
    on columns 0 and 1, so the pivot of step 1 is zero only after step 0's
    scaled update and needs a swap; a zero column; and entries 0, 1 and
    PRIME - 1."""
    rng = random.Random(seed)
    top = PRIME - 1
    mats = []
    for b in range(count):
        kind = b % 5
        if kind == 1:
            m = [[1 if r == c else top for c in range(n)] for r in range(n)]
        elif kind == 4:
            m = [[rng.choice([0, 1, top]) for _ in range(n)] for _ in range(n)]
        else:
            m = [[rng.randrange(PRIME) for _ in range(n)] for _ in range(n)]
        if kind == 2 and n > 1:
            c = rng.randrange(1, PRIME)
            m[1][:2] = [c * x % PRIME for x in m[0][:2]]
        if kind == 3 and n:
            for r in m:
                r[rng.randrange(n) if b % 2 else n - 1] = 0
        mats.append(m)
    return np.array(mats, dtype=np.int64).reshape(count, n, n)


# Batch sizes B per n: the B values a determinant batch inverts and the
# (n + 1) B of an inverse batch run from 1 to 600, on and off a power of two.
STRADDLING_SIZES = {
    0: [1, 99, 100, 101],
    1: [1, 49, 51, 99, 100],
    2: [1, 33, 34, 99, 100],
    3: [1, 24, 26, 99, 100],
    5: [1, 16, 17, 99, 100],
}


@pytest.mark.parametrize("n, count", [(n, count) for n, sizes in STRADDLING_SIZES.items() for count in sizes])
def test_both_modes_match_a_python_int_reference_across_the_tree_crossover(n, count):
    # The pivots and the determinant's denominator are inverted together, in
    # one product tree whose size n + 1 and B set; a singular member's
    # inverse is zero.
    mats = kernel_batch(700 + 10 * n + count, n, count)
    dets = det_batch(mats)
    det, inv = det_batch(mats, inverse=True)
    assert inv.shape == (n, n, count)
    assert det.tolist() == dets.tolist()
    for b, m in enumerate(mats.tolist()):
        want_det, want_inv = modular_inverse(m)
        assert int(det[b]) == want_det, b
        if want_inv is None:
            assert not inv[:, :, b].any(), b
        else:
            assert inv[:, :, b].tolist() == want_inv, b
    if n > 1 and count >= 5:
        # The batch holds singular and invertible members.
        assert any(dets) and not all(dets)


@pytest.mark.parametrize("n", [2, 3, 6, 12])
def test_det_batch_inverts_once_per_call(monkeypatch, n):
    # No elimination step inverts anything: one _inverse_vec call takes the
    # determinant's denominator, and in inverse mode the n pivots with it.
    sizes = []
    real = _detcube._inverse_vec
    monkeypatch.setattr(_detcube, "_inverse_vec", lambda x: sizes.append(x.size) or real(x))
    for count in (1, 7, 103):
        mats = kernel_batch(900 + n, n, count)
        for inverse, size in ((False, count), (True, (n + 1) * count)):
            sizes.clear()
            det_batch(mats, inverse=inverse)
            assert sizes == [size], (count, inverse)


@pytest.mark.parametrize("n", [2, 5, 12])
def test_det_batch_of_only_singular_matrices(n):
    # Every matrix singular: a zero row, a repeated row or rank one, so every
    # determinant is 0 and the inverse is zero.
    rng = random.Random(400 + n)
    mats = []
    for b in range(6):
        m = [[rng.randrange(PRIME) for _ in range(n)] for _ in range(n)]
        if b % 3 == 0:
            m[rng.randrange(n)] = [0] * n
        elif b % 3 == 1:
            m[-1] = list(m[0])
        else:
            m = [[(x * y) % PRIME for y in m[0]] for x in m[1]]
        mats.append(m)
    mats = np.array(mats, dtype=np.int64)
    assert det_batch(mats).tolist() == [0] * 6
    det, inv = det_batch(mats, inverse=True)
    assert det.tolist() == [0] * 6 and not inv.any()


@pytest.mark.parametrize("d", [1, 2, 5, 40, 160])
def test_vandermonde_inverse_inverts_the_vandermonde_matrix(d):
    v = np.array([[pow(x, e, PRIME) for e in range(d)] for x in range(1, d + 1)], dtype=np.int64)
    inv = _detcube.vandermonde_inverse(d)
    assert _detcube._mod_matmul(inv, v).tolist() == np.eye(d, dtype=np.int64).tolist()
    # One array serves every caller, so none may write to it.
    assert not inv.flags.writeable
    with pytest.raises(ValueError):
        inv[0, 0] = 1


def test_vandermonde_inverse_rejects_more_points_than_field_elements():
    # Before any allocation: PRIME points would need a PRIME x PRIME array.
    with pytest.raises(FieldConfigError):
        _detcube.vandermonde_inverse(PRIME)


@pytest.mark.parametrize("size", [1, 2, 99, 100, 101, 1000])
def test_inverse_vec_is_the_elementwise_inverse(size):
    # Sizes on and off a power of two, padded up to the next one in the
    # tree. A 0 (a singular matrix's pivot) is taken as 1 and spoils no other entry.
    rng = random.Random(size)
    vals = [1, PRIME - 1, 2, (PRIME + 1) // 2] + [rng.randrange(1, PRIME) for _ in range(size)]
    vals = vals[:size]
    got = _detcube._inverse_vec(np.array(vals, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [pow(v, -1, PRIME) for v in vals]
    vals[size // 2] = 0
    assert _detcube._inverse_vec(np.array(vals, dtype=np.int64)).tolist() == [pow(v or 1, -1, PRIME) for v in vals]


def test_grid_evaluates_every_entry_at_every_point():
    # Against direct evaluation in Python ints, point by point in C order.
    rng = random.Random(17)
    for _ in range(20):
        n, naxes = rng.randint(1, 5), rng.randint(1, 3)
        digits = np.array(
            [[[rng.randint(0, 4) for _ in range(naxes)] for _ in range(n)] for _ in range(n)], dtype=np.int64
        )
        scalars = np.array([[rng.randrange(1, PRIME) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        dims = tuple(rng.randint(1, 4) for _ in range(naxes))
        points, mats = zip(*_detcube._grid(digits, scalars, dims))
        points, mats = np.concatenate(points).tolist(), np.concatenate(mats).tolist()
        assert points == [list(p) for p in itertools.product(*(range(1, d + 1) for d in dims))]
        for p, m in zip(points, mats):
            want = [
                [int(scalars[i, j]) * math.prod(pow(x, int(e), PRIME) for x, e in zip(p, digits[i, j])) % PRIME
                 for j in range(n)]
                for i in range(n)
            ]
            assert m == want
    # A grid of more points than one chunk holds, 4096 * 49 // n² + 1
    # matrices, comes in chunks of that many and a last one of the rest.
    chunks = _detcube._grid(np.zeros((30, 30, 2), dtype=np.int64), np.ones((30, 30), dtype=np.int64), (20, 20))
    sizes = [len(pts) for pts, _ in chunks]
    assert sizes == [224, 176]
