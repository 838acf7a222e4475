import itertools
import random
from fractions import Fraction

import pytest

from riccicrit import (
    Instance,
    ProblemVariant,
    Sign,
    blow_up,
    brute_force_opt,
    build_cost_matrix,
    emd_via_flow,
    gen_blocker,
    gen_maxcov,
    gen_setcover,
    gen_tightness,
    gen_tightness_graph,
    greedy_insert,
    ricci,
)
from riccicrit.gadgets import cover_insertions_maxcov, cover_insertions_setcover, heavy_edges
from riccicrit.matching import enumerate_matchings, matching_cost, min_cost_perfect_matching
from riccicrit.solvers import greedy_schedule


def random_bipartite_with_pm(rng: random.Random, n: int, extra: float = 0.3):
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {(i, perm[i]) for i in range(n)}
    for i in range(n):
        for j in range(n):
            if rng.random() < extra:
                edges.add((i, j))
    return sorted(edges)


# -- blocker ---------------------------------------------------------------------


def test_blocker_rejects_matchingless_inner_graph():
    with pytest.raises(ValueError):
        gen_blocker(2, [(0, 0), (1, 0)])


def test_blocker_layout_and_value():
    n = 3
    g, e, desc = gen_blocker(n, [(i, i) for i in range(n)])
    u, v = desc.named_nodes["u"], desc.named_nodes["v"]
    assert e == (u, v)
    assert g.degree(u) == g.degree(v) == n + 2
    assert g.shortest_dist(desc.named_nodes["u_aux"], desc.named_nodes["v_aux"]) == 2
    res = ricci(g, e)
    assert res.ric == Fraction(1, n + 3)
    # non-inner-edge entries sit at distance 3 in the cost matrix
    cm = build_cost_matrix(g, e)
    i = cm.row_nodes.index(desc.named_nodes["left_0"])
    j = cm.col_nodes.index(desc.named_nodes["right_1"])
    assert cm.costs[i][j] == 3
    aux_i = cm.row_nodes.index(desc.named_nodes["u_aux"])
    aux_j = cm.col_nodes.index(desc.named_nodes["v_aux"])
    assert cm.costs[aux_i][aux_j] == 2


def test_blocker_identity_matching_single_deletion_flips():
    n = 4
    g, e, desc = gen_blocker(n, [(i, i) for i in range(n)])
    inst = Instance(g, e, ProblemVariant.parse("uw-rt-del-ptn"))
    sol = brute_force_opt(inst, 2)
    assert sol is not None and len(sol.edits) == 1
    assert sol.resulting_ric == Fraction(-1, n + 3)


def test_blocker_random_instances(rng):
    for n in (2, 3, 4):
        inner = random_bipartite_with_pm(rng, n)
        g, e, desc = gen_blocker(n, inner)
        assert ricci(g, e).ric == Fraction(1, n + 3)


def test_blocker_deterministic():
    a = gen_blocker(3, [(0, 0), (1, 1), (2, 2), (0, 1)])
    b = gen_blocker(3, [(0, 0), (1, 1), (2, 2), (0, 1)])
    assert a[0] == b[0] and a[2] == b[2]


# -- maxcov ----------------------------------------------------------------------


def test_maxcov_validations():
    with pytest.raises(ValueError):
        gen_maxcov(3, [[0, 1]], 1)  # does not cover
    with pytest.raises(ValueError):
        gen_maxcov(2, [[0, 1]], 2)  # kappa > m


def test_maxcov_bookkeeping_and_signs():
    n, sets = 3, [[0, 1], [1, 2], [2]]
    g, e, desc = gen_maxcov(n, sets, 2)
    m = len(sets)
    u, v = e
    assert g.degree(u) == 2
    assert g.degree(v) == 3 * n + 3 * m - 1
    assert g.weight(u, v) == 2
    assert g.weight(u, desc.named_nodes["u_T"]) == 3
    assert g.weight(v, desc.named_nodes["set_0"]) == 3
    assert g.weight(v, desc.named_nodes["sink_0"]) == 1
    assert g.weight(desc.named_nodes["set_0"], desc.named_nodes["set_1"]) == 1
    cm = build_cost_matrix(g, e)
    assert cm.r == 3
    bm = blow_up(cm)
    assert bm.q == 3 * n + 3 * m and bm.b == 1
    emd, _ = emd_via_flow(cm)
    assert emd > 2
    assert ricci(g, e, route="flow").sign == Sign.NEGATIVE


def test_maxcov_cover_insertion_flips():
    g, e, desc = gen_maxcov(4, [[0, 1], [2, 3], [1, 2]], 2)
    g2 = g.insert_edges(cover_insertions_maxcov(desc, [0, 1]))
    after = ricci(g2, e, route="flow")
    assert after.sign == Sign.POSITIVE
    # distance from the solution node to uncovered set/element nodes is 2 now
    assert g2.shortest_dist(desc.named_nodes["u_T"], desc.named_nodes["set_2"]) == 2
    assert g2.shortest_dist(desc.named_nodes["u_T"], desc.named_nodes["elem_0"]) == 2


def test_maxcov_sign_follows_wired_sets_plus_covered_elements():
    # Wiring u_T to the set nodes of T, whose union is C, gives
    # ric = 1 - (7n + 6m - 4 - |T| - |C|) / (6(n + m)), positive exactly when
    # |T| + |C| >= n - 3, whether or not T is a good cover.
    rng = random.Random(31)
    systems = [(4, [[0], [1], [2, 3]]), (4, [[0, 1], [2, 3]]), (4, [[0, 1, 2], [3]])]
    while len(systems) < 14:
        n = rng.randint(1, 9)
        sets = [sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 3))]
        systems.append((n, sets + [sorted(set(range(n)) - set().union(*sets)) or [0]]))
    signs = set()
    for n, sets in systems:
        m = len(sets)
        g, e, desc = gen_maxcov(n, sets, 1)
        for t in range(1, m + 1):
            for family in itertools.combinations(range(m), t):
                covered = set().union(*(sets[k] for k in family))
                after = ricci(g.insert_edges(cover_insertions_maxcov(desc, list(family))), e, route="flow")
                assert after.ric == 1 - Fraction(7 * n + 6 * m - 4 - t - len(covered), 6 * (n + m))
                assert (after.sign == Sign.POSITIVE) == (t + len(covered) >= n - 3)
                signs.add(after.sign)
    assert signs == {Sign.POSITIVE, Sign.ZERO, Sign.NEGATIVE}
    # At n = 4 one edge from u_T to set_0 is the optimum, whatever set_0 covers.
    for sets in ([[0], [1], [2, 3]], [[0, 1], [2, 3]], [[0, 1, 2], [3]]):
        g, e, desc = gen_maxcov(4, sets, 2)
        sol = brute_force_opt(Instance(g, e, ProblemVariant.parse("wt-rt-ins-ntp")), 2)
        assert sol.edits == (((2, 3), 1),)


def test_maxcov_brute_force_at_most_cover_size():
    g, e, desc = gen_maxcov(3, [[0, 1], [1, 2]], 2)
    inst = Instance(g, e, ProblemVariant.parse("wt-rt-ins-ntp"))
    sol = brute_force_opt(inst, 2)
    assert sol is not None and len(sol.edits) <= 2


# -- setcover --------------------------------------------------------------------


def test_setcover_validations():
    with pytest.raises(ValueError):
        gen_setcover(3, [[0, 1, 2]])  # odd universe
    with pytest.raises(ValueError):
        gen_setcover(4, [[0, 1]])  # does not cover
    with pytest.raises(ValueError):
        gen_setcover(4, [[0, 1], [2, 3]], heavy_weight=3)


def test_setcover_structure_and_signs():
    n, sets = 4, [[0, 1], [2, 3], [1, 2]]
    g, e, desc = gen_setcover(n, sets)
    u, v = e
    assert g.degree(u) == 1 and g.degree(v) == n + 1
    cm = build_cost_matrix(g, e)
    bm = blow_up(cm)
    assert bm.b == 1
    assert ricci(g, e, route="flow").sign == Sign.NEGATIVE
    g2 = g.insert_edges(cover_insertions_setcover(desc, [0, 1]))
    after = ricci(g2, e, route="flow")
    assert after.sign == Sign.POSITIVE
    # the witnessing optimal plan never needs a heavy edge
    hv = heavy_edges(desc)
    stripped = g2.delete_edges(hv)
    for a, b, mass in after.witness.entries:
        assert mass > 0
        assert stripped.shortest_dist(a, b) == g2.shortest_dist(a, b)


def test_setcover_full_cover_also_flips(rng):
    for n, m in ((2, 2), (4, 3), (6, 4)):
        universe = list(range(n))
        sets = []
        for k in range(m - 1):
            size = rng.randint(1, max(1, n // 2))
            sets.append(sorted(rng.sample(universe, size)))
        covered = set().union(*sets) if sets else set()
        sets.append(sorted(set(universe) - covered) or [0])
        g, e, desc = gen_setcover(n, sets)
        assert ricci(g, e, route="flow").sign == Sign.NEGATIVE
        g2 = g.insert_edges(cover_insertions_setcover(desc, list(range(len(sets)))))
        assert ricci(g2, e, route="flow").sign == Sign.POSITIVE


# -- tightness -------------------------------------------------------------------


@pytest.mark.parametrize("m", [4, 6])
def test_tightness_matrix_fixture(m):
    cm, adv, opt, desc = gen_tightness(m)
    q = m + 1
    assert matching_cost(cm.costs, adv.assignment) == 2 * m == adv.cost
    assert matching_cost(cm.costs, opt.assignment) == 2 * m
    assert min_cost_perfect_matching(cm.costs).cost == 2 * m
    matched_adv = [(i, adv.assignment[i]) for i in range(q)]
    matched_opt = [(i, opt.assignment[i]) for i in range(q)]
    drops_adv, _ = greedy_schedule(cm.costs, cm.touchable, matched_adv, q)
    drops_opt, _ = greedy_schedule(cm.costs, cm.touchable, matched_opt, q)
    assert len(drops_adv) == m
    assert len(drops_opt) == m // 2


def test_tightness_m4_matrix_optimum_by_enumeration():
    m = 4
    cm, adv, opt, desc = gen_tightness(m)
    q = m + 1
    # optimum = min over perfect matchings of the drops needed within it
    best = None
    for mm in enumerate_matchings(cm.costs, bound=q):
        savings = sorted(
            (cm.costs[i][j] - 1 for i, j in enumerate(mm.assignment)
             if cm.touchable[i][j] and cm.costs[i][j] >= 2),
            reverse=True,
        )
        need = mm.cost - (q - 1)
        got = 0
        used = 0
        for s in savings:
            if got >= need:
                break
            got += s
            used += 1
        if got >= need:
            best = used if best is None else min(best, used)
    assert best == m // 2


def test_tightness_rejects_odd_or_small():
    with pytest.raises(ValueError):
        gen_tightness(5)
    with pytest.raises(ValueError):
        gen_tightness(2)


@pytest.mark.parametrize("m", [4, 6])
def test_tightness_graph_realization(m):
    g, e, adv, desc = gen_tightness_graph(m)
    base = ricci(g, e)
    assert base.sign == Sign.NEGATIVE
    cm = build_cost_matrix(g, e)
    bm = blow_up(cm)
    assert bm.q == m + 3 and bm.a == bm.b == 1
    assert matching_cost(bm.costs, adv.assignment) == 2 * m + 2
    assert min_cost_perfect_matching(bm.costs).cost == 2 * m + 2
    inst = Instance(g, e, ProblemVariant.parse("uw-rt-ins-ntp"))
    greedy = greedy_insert(inst, adv)
    assert greedy.drops == m and len(greedy.edits) == m
    brute = brute_force_opt(inst, m // 2)
    assert brute is not None and len(brute.edits) == m // 2


def test_descriptors_serialize():
    _, _, desc = gen_blocker(2, [(0, 0), (1, 1)])
    payload = desc.to_json_dict()
    assert payload["kind"] == "blocker"
    assert payload["named_nodes"]["x"] == 2 * 2 + 4
