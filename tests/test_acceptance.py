"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Every tolerance is exact rational equality or an exact inequality;
nothing is approximate.
"""

import random
import time
from fractions import Fraction

import pytest

from riccicrit import (
    Instance,
    ProblemVariant,
    Sign,
    blow_up,
    brute_force_opt,
    build_cost_matrix,
    canonicalize_matching,
    emd_via_flow,
    emd_via_matching,
    enumerate_matchings,
    feasible_by_saturation,
    gen_blocker,
    gen_maxcov,
    gen_setcover,
    gen_tightness,
    greedy_insert,
    randomized_insert,
    ricci,
)
from riccicrit.gadgets import cover_insertions_maxcov, cover_insertions_setcover, heavy_edges
from riccicrit.matching import (
    class_counts,
    exact_cost_matching,
    matching_cost,
    matching_with_counts,
    min_cost_perfect_matching,
)
from riccicrit.solvers import greedy_schedule, has_spade_property

from conftest import blow_up_shape, double_star, random_connected_graph, sample_spade_instances

NTP = ProblemVariant.parse("uw-rt-ins-ntp")
DEL_PTN = ProblemVariant.parse("uw-rt-del-ptn")


def _report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


@pytest.fixture(scope="module")
def spade_pool():
    """Criterion-6 instance pool: feasible no-side-edges insert instances
    whose brute-force optimum completes at max_k <= 6. Reused by criterion 8."""
    rng = random.Random(6060)
    pool = sample_spade_instances(
        rng,
        44,
        degree_pool=[
            (2, 5, 0.3),
            (3, 5, 0.3),
            (3, 7, 0.25),
            (4, 7, 0.3),
            (4, 9, 0.3),
            (5, 11, 0.35),
            (3, 3, 0.25),
            (4, 4, 0.3),
        ],
    )
    # a few larger b = 1 instances near the q = 24 cap, kept at rho = 1 so
    # the brute-force oracle stays quick
    for du, dv in ((7, 15), (11, 23)):
        found = 0
        for _ in range(600):
            p = 0.24
            cross = sorted(
                {(i, j) for i in range(du - 1) for j in range(dv - 1) if rng.random() < p}
            )
            g = double_star(du, dv, cross)
            base = ricci(g, (0, 1), route="flow")
            if base.sign != Sign.NEGATIVE:
                continue
            inst = Instance(g, (0, 1), NTP)
            if not feasible_by_saturation(inst)[0]:
                continue
            if blow_up_shape(inst).rho != 1:
                continue
            pool.append(inst)
            found += 1
            if found == 3:
                break
    assert len(pool) >= 50
    return pool


def test_criterion_1_and_2_route_equivalence_and_rationality():
    rng = random.Random(11)
    t0 = time.time()
    edges_checked = 0
    enum_checked = 0
    for i in range(200):
        weighted = i % 2 == 1
        g = random_connected_graph(rng, rng.randint(4, 10), weighted=weighted, max_w=5)
        for u, v, _w in g.edges():
            bm = blow_up(build_cost_matrix(g, (u, v)))
            emd_m, _ = emd_via_matching(bm)
            emd_f, _ = emd_via_flow(bm.source)
            assert emd_m == emd_f, f"route mismatch on {g} edge ({u},{v})"
            assert bm.q % emd_m.denominator == 0, "denominator must divide q"
            if bm.q <= 8:
                best = min(m.cost for m in enumerate_matchings(bm.costs))
                assert emd_m == Fraction(best, bm.q)
                enum_checked += 1
            edges_checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 1 exceeded its runtime budget: {elapsed:.1f}s"
    _report(
        1,
        f"matching == flow on {edges_checked} edges over 200 graphs "
        f"({enum_checked} verified against enumeration) in {elapsed:.1f}s",
    )
    _report(2, f"every EMD denominator divides q on all {edges_checked} edges")


def test_criterion_3_blocker_fixture():
    rng = random.Random(33)
    t0 = time.time()
    checked = 0
    for n in (2, 3, 4, 5, 6):
        for _rep in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            inner = {(i, perm[i]) for i in range(n)}
            for i in range(n):
                for j in range(n):
                    if rng.random() < 0.25:
                        inner.add((i, j))
            g, e, desc = gen_blocker(n, sorted(inner))
            assert ricci(g, e).ric == Fraction(1, n + 3)
            inst = Instance(g, e, DEL_PTN)
            sol = brute_force_opt(inst, 3)
            assert sol is not None, f"no blocker of size <= 3 found for n={n}"
            assert sol.resulting_ric == Fraction(-1, n + 3)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 3 exceeded its runtime budget: {elapsed:.1f}s"
    _report(
        3,
        f"{checked} random blocker gadgets at 1/(n+3), flipped to -1/(n+3) "
        f"by a minimum blocker in {elapsed:.1f}s",
    )


def _random_cover_system(rng: random.Random, n: int, m: int) -> list[list[int]]:
    universe = list(range(n))
    sets = []
    for _ in range(m - 1):
        size = rng.randint(1, max(1, n // 2))
        sets.append(sorted(rng.sample(universe, size)))
    covered: set[int] = set()
    for s in sets:
        covered |= set(s)
    rest = sorted(set(universe) - covered)
    sets.append(rest if rest else [rng.randrange(n)])
    return sets


def test_criterion_4_maxcov_gadget():
    rng = random.Random(44)
    checked = 0
    for _ in range(20):
        n = rng.randint(2, 8)
        m = rng.randint(2, 5)
        sets = _random_cover_system(rng, n, m)
        kappa = rng.randint(1, len(sets))
        g, e, desc = gen_maxcov(n, sets, kappa)
        assert ricci(g, e, route="flow").sign == Sign.NEGATIVE
        # any cover works; use a greedy cover of the system
        cover = []
        covered: set[int] = set()
        for k, s in sorted(enumerate(sets), key=lambda kv: -len(kv[1])):
            if covered >= set(range(n)):
                break
            cover.append(k)
            covered |= set(s)
        g2 = g.insert_edges(cover_insertions_maxcov(desc, cover))
        assert ricci(g2, e, route="flow").sign == Sign.POSITIVE
        checked += 1
    _report(4, f"{checked} coverage gadgets: negative before, positive after wiring a cover")


def test_criterion_5_setcover_gadget():
    rng = random.Random(55)
    checked = 0
    for _ in range(12):
        n = rng.choice((2, 4, 6, 8))
        m = rng.randint(2, 5)
        sets = _random_cover_system(rng, n, m)
        g, e, desc = gen_setcover(n, sets)
        assert ricci(g, e, route="flow").sign == Sign.NEGATIVE
        cover = list(range(len(sets)))
        g2 = g.insert_edges(cover_insertions_setcover(desc, cover))
        after = ricci(g2, e, route="flow")
        assert after.sign == Sign.POSITIVE
        stripped = g2.delete_edges(heavy_edges(desc))
        for a, b, mass in after.witness.entries:
            assert mass > 0
            assert stripped.shortest_dist(a, b) == g2.shortest_dist(a, b), (
                "optimal plan needed a heavy edge"
            )
        checked += 1
    _report(5, f"{checked} set-cover gadgets: sign flips and no plan uses a heavy edge")


def test_criterion_6_greedy_ratio(spade_pool):
    assert len(spade_pool) >= 50
    for inst in spade_pool:
        shape = blow_up_shape(inst)
        assert has_spade_property(inst.graph, inst.edge)
        sol = greedy_insert(inst)
        assert sol.resulting_ric > 0
        opt = brute_force_opt(inst, 6)
        assert opt is not None, "brute-force oracle must complete on the pool"
        assert len(sol.edits) <= 2 * shape.b * len(opt.edits)
        assert sol.drops <= shape.rho + 1
        assert len(opt.edits) >= Fraction(shape.rho + 1, 2 * shape.b)
    _report(
        6,
        f"{len(spade_pool)} feasible no-side-edges instances: greedy <= 2b*opt, "
        "drops <= rho+1, opt >= (rho+1)/(2b)",
    )


def test_criterion_7_tightness_reproduction():
    for m in (4, 6, 8):
        cm, adv, opt, _desc = gen_tightness(m)
        q = m + 1
        assert matching_cost(cm.costs, adv.assignment) == 2 * m
        assert min_cost_perfect_matching(cm.costs).cost == 2 * m
        drops, _ = greedy_schedule(
            cm.costs, cm.touchable, [(i, adv.assignment[i]) for i in range(q)], q
        )
        assert len(drops) == m, f"greedy from the adversarial start must use {m} drops"
        # exact optimum: cheapest drop set within any perfect matching
        best = None
        for mm in enumerate_matchings(cm.costs, bound=9):
            savings = sorted(
                (cm.costs[i][j] - 1
                 for i, j in enumerate(mm.assignment)
                 if cm.touchable[i][j] and cm.costs[i][j] >= 2),
                reverse=True,
            )
            need = mm.cost - (q - 1)
            got = used = 0
            for s in savings:
                if got >= need:
                    break
                got += s
                used += 1
            if got >= need and (best is None or used < best):
                best = used
        assert best == m // 2, f"optimal drop count must be {m // 2}, got {best}"
    _report(7, "tightness fixtures m in {4, 6, 8}: greedy m drops vs optimal m/2")


def test_criterion_8_randomized_solver(spade_pool):
    t0 = time.time()
    b1 = []
    for inst in spade_pool:
        shape = blow_up_shape(inst)
        if shape.b == 1:
            assert shape.q <= 24
            b1.append(inst)
    assert len(b1) >= 20
    opt_hits = 0
    runs = 0
    for i, inst in enumerate(b1):
        opt = brute_force_opt(inst, 6)
        sol = randomized_insert(inst, seed=2026 + i)
        runs += 1
        assert sol.resulting_ric > 0, "every returned solution must verify"
        if len(sol.edits) == len(opt.edits):
            opt_hits += 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 8 exceeded its runtime budget: {elapsed:.1f}s"
    assert opt_hits >= 0.9 * runs, f"only {opt_hits}/{runs} runs were optimal"
    _report(
        8,
        f"randomized solver optimal on {opt_hits}/{runs} b=1 runs "
        f"(100% verified) in {elapsed:.1f}s",
    )


def test_criterion_9_exact_cost_oracle_agreement():
    rng = random.Random(2026)
    sizes = [2] * 20 + [3] * 20 + [4] * 20 + [5] * 20 + [6] * 12 + [7] * 8
    t0 = time.time()
    queries = 0
    false_negatives = 0
    for mi, q in enumerate(sizes):
        costs = [[rng.randint(0, 3) for _ in range(q)] for _ in range(q)]
        touch = [[rng.random() < 0.7 for _ in range(q)] for _ in range(q)]
        signatures = set()
        cost_values = set()
        for m in enumerate_matchings(costs):
            cc = class_counts(costs, touch, m)
            signatures.add((m.cost, cc.n3, cc.n2_touchable))
            cost_values.add(m.cost)
        mcpm = min_cost_perfect_matching(costs).cost
        seed = 9000 + mi
        for target in range(mcpm, 3 * q + 1):
            queries += 1
            got = exact_cost_matching(costs, target, trials=20, seed=seed)
            if got is not None:
                assert got.cost == target, "returned witness failed verification"
                assert target in cost_values, "engine fabricated a matching"
            elif target in cost_values:
                false_negatives += 1
        for x in range(mcpm, 3 * q + 1):
            for k in range(q + 1):
                for l in range(q + 1 - k):
                    queries += 1
                    got = matching_with_counts(costs, touch, x, k, l, trials=20, seed=seed)
                    if got is not None:
                        cc = class_counts(costs, touch, got)
                        assert (got.cost, cc.n3, cc.n2_touchable) == (x, k, l)
                        assert (x, k, l) in signatures, "engine fabricated a matching"
                    elif (x, k, l) in signatures:
                        false_negatives += 1
    elapsed = time.time() - t0
    assert elapsed < 180, f"criterion 9 exceeded its runtime budget: {elapsed:.1f}s"
    assert false_negatives <= 0.1 * queries
    _report(
        9,
        f"{len(sizes)} matrices, {queries} queries, {false_negatives} misses, "
        f"no unverified witness, in {elapsed:.1f}s",
    )


def test_criterion_10_feasibility_margins():
    rng = random.Random(1010)
    # insertion margin: deg(v) < 2*deg(u) + 1 makes saturation flip positive
    ins_checked = 0
    while ins_checked < 50:
        g = random_connected_graph(rng, rng.randint(4, 9), p=0.4)
        for u, v, _w in g.edges():
            lo, hi = sorted((g.degree(u), g.degree(v)))
            if not hi < 2 * lo + 1:
                continue
            edits = [
                (pair, 1)
                for pair in {
                    tuple(sorted((x, y)))
                    for x in g.neighbors(u)
                    if x != v
                    for y in g.neighbors(v)
                    if y != u and x != y and not g.has_edge(x, y)
                }
            ]
            saturated = g.insert_edges(edits)
            assert ricci(saturated, (u, v), route="flow").sign == Sign.POSITIVE
            ins_checked += 1
            if ins_checked == 50:
                break
    # deletion margin: eta = 0 and deg(v) > 3/2*eta + 5 makes saturation flip
    del_checked = 0
    while del_checked < 50:
        n = rng.randint(4, 6)
        perm = list(range(n))
        rng.shuffle(perm)
        inner = {(i, perm[i]) for i in range(n)}
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.3:
                    inner.add((i, j))
        g, e, _desc = gen_blocker(n, sorted(inner))
        u, v = e
        eta = len(g.common_neighbors(u, v))
        assert eta == 0 and g.degree(v) > Fraction(3, 2) * eta + 5
        if ricci(g, e, route="flow").sign != Sign.POSITIVE:
            continue
        deletions = [
            (a, b) for a, b, _w in g.edges() if a not in (u, v) and b not in (u, v)
        ]
        stripped = g.delete_edges(deletions)
        assert ricci(stripped, e, route="flow").sign == Sign.NEGATIVE
        del_checked += 1
    _report(
        10,
        f"{ins_checked} insertion-margin and {del_checked} deletion-margin "
        "instances all flip under saturation",
    )


def test_criterion_11_canonicalization():
    rng = random.Random(1111)
    checked = 0
    while checked < 60:
        g = random_connected_graph(rng, rng.randint(3, 8), p=0.5)
        for u, v, _w in g.edges():
            bm = blow_up(build_cost_matrix(g, (u, v)))
            if bm.q > 8:
                continue
            emd, m = emd_via_matching(bm)
            canon = canonicalize_matching(bm, m)
            assert canon.cost == m.cost, "canonicalization must preserve cost"
            assert emd == Fraction(canon.cost, bm.q)
            col_to_row = {c: r for r, c in enumerate(canon.assignment)}
            for i, j in bm.source.mirror_pairs():
                rows = set(range(i * bm.a, (i + 1) * bm.a))
                zero_hits = sum(
                    1
                    for col in range(j * bm.b, (j + 1) * bm.b)
                    if col_to_row[col] in rows
                )
                assert zero_hits == bm.b, "zero-cost mirror group missing"
            # the positive-weight untouchable edges of the canonical matching
            # number exactly 2(a-b): the leftover copies of u at weight 2 and
            # the leftover copies of v at weight 1
            cc = class_counts(bm.costs, bm.touchable_mask(), canon)
            untouchable_pos = [
                bm.costs[row][col]
                for row, col in enumerate(canon.assignment)
                if not bm.touchable(row, col) and bm.costs[row][col] > 0
            ]
            assert len(untouchable_pos) == 2 * (bm.a - bm.b)
            assert cc.n2_untouchable == bm.a - bm.b
            assert untouchable_pos.count(1) == bm.a - bm.b
            # cross-check against exhaustive enumeration: the canonical cost
            # is still the exhaustive minimum
            best = min(mm.cost for mm in enumerate_matchings(bm.costs))
            assert canon.cost == best
            checked += 1
    _report(
        11,
        f"{checked} enumeration-verified canonicalizations: cost preserved, "
        "mirror groups at zero, 2(a-b) positive untouchable edges",
    )
