import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riccicrit import (
    BudgetExceededError,
    Graph,
    InfeasibleInstanceError,
    Instance,
    ProblemVariant,
    Sign,
    Solution,
    UnsupportedVariantError,
    brute_force_opt,
    build_cost_matrix,
    feasible_by_saturation,
    gen_blocker,
    gen_maxcov,
    gen_tightness_graph,
    greedy_insert,
    kappa_hat,
    permissible_edits,
    randomized_insert,
    ricci,
    weight_propagation,
)
from riccicrit.gadgets import cover_insertions_maxcov
from riccicrit.matching import EdgeClassCounts, min_cost_perfect_matching
from riccicrit.solvers import (
    _LocalEvaluator,
    _flips,
    _setup,
    _single_edit_solution,
    apply_edits,
    candidate_edits,
    has_spade_property,
    select_drop_edges,
)

from conftest import double_star, random_connected_graph, sample_spade_instances

NTP = ProblemVariant.parse("uw-rt-ins-ntp")
DEL_PTN = ProblemVariant.parse("uw-rt-del-ptn")


def neg_instance(du=3, dv=5, cross=((0, 0), (1, 1))):
    g = double_star(du, dv, list(cross))
    return Instance(g, (0, 1), NTP)


# -- variants -------------------------------------------------------------------


def test_variant_parse_roundtrip():
    v = ProblemVariant.parse("wt-ut-ins-ntp")
    assert v.key == "wt-ut-ins-ntp"
    with pytest.raises(ValueError):
        ProblemVariant.parse("wt-ut-ins")
    with pytest.raises(ValueError):
        ProblemVariant.parse("xx-ut-ins-ntp")


@pytest.mark.parametrize(
    "name",
    ["uw-rt-ins-ptn", "uw-ut-ins-ptn", "uw-rt-del-ntp", "uw-ut-del-ntp"],
)
def test_impossible_unweighted_directions_rejected(name):
    with pytest.raises(ValueError):
        ProblemVariant.parse(name)


def test_instance_direction_validation():
    p3 = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Instance(p3, (0, 1), NTP)  # curvature 1/2 is positive
    Instance(p3, (0, 1), DEL_PTN)
    inst = neg_instance()
    assert inst.base_curvature().sign == Sign.NEGATIVE
    with pytest.raises(ValueError):
        Instance(inst.graph, (0, 1), DEL_PTN)
    with pytest.raises(ValueError):
        Instance(Graph(3, [(0, 1, 2), (1, 2, 1)], weighted=True), (0, 1), NTP)


# -- permissible edits ------------------------------------------------------------


def test_permissible_edits_restricted_insertion():
    inst = neg_instance(3, 5, [(0, 0)])
    edits = permissible_edits(inst)
    # left side {2, 3}, right side {4, 5, 6, 7}; (2, 4) already an edge
    pairs = {pair for pair, w in edits}
    assert all(w == 1 for _, w in edits)
    assert pairs == {(2, 5), (2, 6), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7)}


def test_candidate_edits_unrestricted_on_complete_graph():
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    ut_ins = ProblemVariant.parse("wt-ut-ins-ntp")
    assert candidate_edits(k4, (0, 1), ut_ins) == ()
    assert permissible_edits(Instance(k4, (0, 1), DEL_PTN)) == ((2, 3),)


def test_permissible_edits_star_deletion_empty():
    star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    inst = Instance(star, (0, 1), DEL_PTN)
    assert permissible_edits(inst) == ()
    feasible, _ = feasible_by_saturation(inst)
    assert not feasible


def test_permissible_edits_maxcov_structure():
    g, e, desc = gen_maxcov(3, [[0, 1], [1, 2]], 1)
    inst = Instance(g, e, ProblemVariant.parse("wt-rt-ins-ntp"))
    edits = permissible_edits(inst)
    u_t = desc.named_nodes["u_T"]
    assert all(pair[0] == u_t for pair, _ in edits)
    assert len(edits) == g.degree(desc.named_nodes["v"]) - 1


# -- saturation -------------------------------------------------------------------


def test_saturation_feasible_and_verified():
    inst = neg_instance()
    feasible, sol = feasible_by_saturation(inst)
    assert feasible and sol is not None
    assert sol.method == "saturation"
    res = ricci(apply_edits(inst, sol.edits), inst.edge, route="flow")
    assert res.sign == Sign.POSITIVE and res.ric == sol.resulting_ric


def test_saturation_margin_insertion():
    # degree(v) < 2*degree(u) + 1 guarantees the saturated graph flips
    inst = neg_instance(4, 6, [(0, 0)])
    assert inst.graph.degree(1) < 2 * inst.graph.degree(0) + 1
    feasible, _ = feasible_by_saturation(inst)
    assert feasible


def test_saturation_margin_deletion():
    g, e, _ = gen_blocker(4, [(i, i) for i in range(4)])
    inst = Instance(g, e, DEL_PTN)
    eta = len(g.common_neighbors(*e))
    assert g.degree(e[1]) > Fraction(3, 2) * eta + 5
    feasible, sol = feasible_by_saturation(inst)
    assert feasible
    assert ricci(apply_edits(inst, sol.edits), e, route="flow").sign == Sign.NEGATIVE


def test_saturation_unsupported_variants():
    # weighted deletion has no sound saturation decider
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 2)], weighted=True)
    assert ricci(g, (0, 1), route="flow").sign == Sign.POSITIVE
    inst = Instance(g, (0, 1), ProblemVariant.parse("wt-rt-del-ptn"))
    with pytest.raises(UnsupportedVariantError):
        feasible_by_saturation(inst)
    # restricted weighted insertion is only guaranteed for w(u,v) in 1..3
    heavy = Graph(6, [(0, 1, 4), (0, 2, 12), (1, 3, 1), (1, 4, 1), (1, 5, 1)], weighted=True)
    assert ricci(heavy, (0, 1), route="flow").sign == Sign.NEGATIVE
    inst = Instance(heavy, (0, 1), ProblemVariant.parse("wt-rt-ins-ntp"))
    with pytest.raises(UnsupportedVariantError):
        feasible_by_saturation(inst)


def test_wt_saturation_inserts_weight_one_only():
    g, e, desc = gen_maxcov(3, [[0, 1], [1, 2]], 1)
    inst = Instance(g, e, ProblemVariant.parse("wt-rt-ins-ntp"))
    assert inst.graph.weight(*e) == 2
    feasible, sol = feasible_by_saturation(inst)
    assert feasible
    assert all(w == 1 for _, w in sol.edits)


# -- insertion monotonicity (unweighted) ------------------------------------------


def test_unweighted_insertion_never_raises_emd(rng):
    # Holds whenever the insertion leaves both closed neighborhoods alone
    # (any restricted-permissible edit qualifies): distances only shrink
    # while the two distributions stay put.
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(4, 8))
        u, v, _w = g.edges()[rng.randrange(g.edge_count())]
        non_edges = [
            (a, b)
            for a in range(g.node_count)
            for b in range(a + 1, g.node_count)
            if not g.has_edge(a, b) and u not in (a, b) and v not in (a, b)
        ]
        if not non_edges:
            continue
        pair = non_edges[rng.randrange(len(non_edges))]
        before = ricci(g, (u, v), route="flow").emd
        after = ricci(g.insert_edges([(pair, 1)]), (u, v), route="flow").emd
        assert after <= before


# -- kappa ------------------------------------------------------------------------


def test_kappa_hat_cases():
    # plenty of 3-edges: only 3-drops are needed
    st = kappa_hat(EdgeClassCounts(0, 0, 0, 0, 5), x=12, mcpm=12, rho=3, q=9)
    assert not st.unwanted and (st.kappa3, st.kappa2) == (2, 0)
    # 3-edges exhausted, touchable 2-edges finish the job
    st = kappa_hat(EdgeClassCounts(0, 0, 4, 0, 1), x=12, mcpm=12, rho=3, q=9)
    assert not st.unwanted and (st.kappa3, st.kappa2) == (1, 2)
    # nothing droppable: unwanted
    st = kappa_hat(EdgeClassCounts(0, 12, 0, 0, 0), x=12, mcpm=12, rho=3, q=9)
    assert st.unwanted and st.total is None


def test_kappa_hat_defining_inequalities(rng):
    for _ in range(300):
        q = rng.randint(2, 30)
        rho = rng.randint(0, q)
        mcpm = q + rho
        x = mcpm + rng.randint(0, max(0, 3 * q - mcpm))
        n3 = rng.randint(0, q)
        n2 = rng.randint(0, q - n3)
        st = kappa_hat(EdgeClassCounts(0, 0, n2, 0, n3), x, mcpm, rho, q)
        tau = rho + (x - mcpm)
        assert tau == x - q
        if st.unwanted:
            assert 2 * n3 + n2 <= tau
            continue
        saved = 2 * st.kappa3 + st.kappa2
        assert saved > tau
        assert saved - (2 if st.kappa2 == 0 else 1) <= tau
        assert st.kappa3 <= n3 and st.kappa2 <= n2


def test_selected_drops_cross_the_threshold():
    inst = neg_instance(3, 7, [(0, 0), (1, 2)])
    setup = _setup(inst)
    from riccicrit.matching import class_counts

    counts = class_counts(setup.bm.costs, setup.bm.touchable_mask(), setup.mcpm)
    st = kappa_hat(counts, setup.delta, setup.delta, setup.rho, setup.q)
    if st.unwanted:
        pytest.skip("minimum matching is unwanted here")
    st = select_drop_edges(setup.bm, setup.mcpm, st)
    drop = set(st.selected_edges)
    new_cost = sum(
        (1 if (row, col) in drop else setup.bm.costs[row][col])
        for row, col in enumerate(setup.mcpm.assignment)
    )
    assert new_cost < setup.q


# -- weight propagation ------------------------------------------------------------


def test_weight_propagation_matches_rebuild(rng):
    checked = 0
    while checked < 120:
        g = random_connected_graph(rng, rng.randint(5, 9), p=0.35)
        u, v, _w = g.edges()[rng.randrange(g.edge_count())]
        cm = build_cost_matrix(g, (u, v))
        cands = [
            (x, y)
            for x in g.neighbors(cm.u)
            if x != cm.v
            for y in g.neighbors(cm.v)
            if y != cm.u and x != y and not g.has_edge(x, y)
        ]
        if not cands:
            continue
        x, y = cands[rng.randrange(len(cands))]
        if x not in cm.row_nodes:
            x, y = y, x
        if x not in cm.row_nodes or y not in cm.col_nodes:
            continue
        updated = weight_propagation(g, cm, (x, y))
        g2 = g.insert_edges([(tuple(sorted((x, y))), 1)])
        rebuilt = build_cost_matrix(g2, (u, v))
        assert rebuilt.row_nodes == cm.row_nodes and rebuilt.col_nodes == cm.col_nodes
        assert updated.costs == rebuilt.costs
        checked += 1


def test_weight_propagation_noop_under_spade():
    inst = neg_instance(3, 5, [(0, 1)])
    cm = build_cost_matrix(inst.graph, inst.edge)
    x, y = 2, 4
    assert not inst.graph.has_edge(x, y)
    updated = weight_propagation(inst.graph, cm, (x, y))
    diffs = [
        (i, j)
        for i in range(cm.r)
        for j in range(cm.s)
        if updated.costs[i][j] != cm.costs[i][j]
    ]
    assert diffs == [(cm.row_nodes.index(x), cm.col_nodes.index(y))]


# -- greedy / randomized / brute ----------------------------------------------------


def test_greedy_verified_and_bounded(rng):
    instances = sample_spade_instances(
        rng, 12, degree_pool=[(3, 5, 0.3), (3, 7, 0.25), (4, 7, 0.3), (2, 5, 0.3)]
    )
    for inst in instances:
        setup = _setup(inst)
        b = setup.q // setup.bm.source.s
        sol = greedy_insert(inst)
        assert sol.resulting_ric > 0
        assert sol.drops <= setup.rho + 1
        opt = brute_force_opt(inst, 6)
        assert opt is not None
        assert len(sol.edits) <= 2 * b * len(opt.edits)
        assert Fraction(setup.rho + 1, 2 * b) <= len(opt.edits)


def test_greedy_rejects_bad_start():
    inst = neg_instance(2, 5, [(0, 0)])
    setup = _setup(inst)
    from riccicrit.matching import enumerate_matchings

    worst = max(enumerate_matchings(setup.bm.costs, bound=setup.q), key=lambda m: m.cost)
    assert worst.cost > setup.delta
    with pytest.raises(ValueError):
        greedy_insert(inst, worst)


def test_greedy_infeasible_raises():
    # s >= 3r double stars cannot flip by restricted insertion
    g = double_star(3, 11, [(0, 0)])
    inst = Instance(g, (0, 1), NTP)
    with pytest.raises(InfeasibleInstanceError):
        greedy_insert(inst)
    with pytest.raises(InfeasibleInstanceError):
        randomized_insert(inst, seed=1)


def test_randomized_verified_and_opt_when_b1(rng):
    instances = sample_spade_instances(
        rng, 10, degree_pool=[(2, 5, 0.3), (3, 7, 0.25), (4, 9, 0.3)]
    )
    for i, inst in enumerate(instances):
        setup = _setup(inst)
        if setup.q != setup.bm.source.s:
            continue  # keep only b = 1 here
        sol = randomized_insert(inst, seed=100 + i)
        assert sol.resulting_ric > 0
        opt = brute_force_opt(inst, 6)
        assert len(sol.edits) == len(opt.edits)


@pytest.mark.parametrize("trials", [0, -1])
def test_randomized_rejects_a_trial_count_below_one(trials):
    # Zero trials certify nothing; that must not read as a randomized miss.
    with pytest.raises(ValueError, match="trials must be positive"):
        randomized_insert(neg_instance(), seed=1, trials=trials)


def test_randomized_general_bound(rng):
    instances = sample_spade_instances(rng, 8, degree_pool=[(3, 5, 0.3), (4, 7, 0.3)])
    for i, inst in enumerate(instances):
        setup = _setup(inst)
        b = setup.q // setup.bm.source.s
        sol = randomized_insert(inst, seed=7 * i)
        opt = brute_force_opt(inst, 6)
        assert len(sol.edits) <= b * len(opt.edits)


def test_greedy_non_spade_instance(rng):
    # side edges force propagation through the greedy loop
    found = 0
    attempts = 0
    while found < 4 and attempts < 400:
        attempts += 1
        g = random_connected_graph(rng, rng.randint(5, 8), p=0.4)
        for u, v, _w in g.edges():
            if has_spade_property(g, (u, v)):
                continue
            base = ricci(g, (u, v), route="flow")
            if base.sign != Sign.NEGATIVE:
                continue
            inst = Instance(g, (u, v), NTP)
            feasible, _ = feasible_by_saturation(inst)
            if not feasible:
                continue
            setup = _setup(inst)
            a, b = setup.bm.a, setup.bm.b
            sol = greedy_insert(inst)
            assert sol.resulting_ric > 0
            opt = brute_force_opt(inst, 6)
            assert len(sol.edits) <= 2 * (a + b) * len(opt.edits)
            found += 1
            break
    assert found >= 1


def test_brute_force_budget_and_rho0():
    inst = neg_instance()
    with pytest.raises(BudgetExceededError):
        brute_force_opt(inst, 6, budget=3)
    # boundary instance with curvature exactly zero: one suitable edit flips
    g = double_star(3, 3, [(1, 1)])
    base = ricci(g, (0, 1), route="flow")
    assert base.sign == Sign.ZERO
    inst0 = Instance(g, (0, 1), NTP)
    sol = brute_force_opt(inst0, 2)
    assert sol is not None and len(sol.edits) == 1
    assert greedy_insert(inst0).drops == 1
    assert len(randomized_insert(inst0, seed=3).edits) == 1


def test_solution_json_shape():
    inst = neg_instance()
    sol = greedy_insert(inst)
    payload = sol.to_json_dict()
    assert set(payload) == {"edits", "resulting_ric", "resulting_ric_str", "method", "verified"}
    assert payload["verified"] is True
    assert all(set(e) == {"edge", "weight"} for e in payload["edits"])


# -- the local edit-set evaluator --------------------------------------------------

UW_VARIANTS = ["uw-rt-ins-ntp", "uw-ut-ins-ntp", "uw-rt-del-ptn", "uw-ut-del-ptn"]
MAX_NODES = 8
MAX_PAIRS = MAX_NODES * (MAX_NODES - 1) // 2


@st.composite
def _graphs_with_edge_01(draw):
    n = draw(st.integers(3, MAX_NODES))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) != (0, 1)]
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [(0, 1)] + [p for p, keep in zip(pairs, kept) if keep]


# Curvature exactly zero (rho = 0): no direction's flip is reached.
_ZERO = (6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (3, 5)])
# 2 and 3 meet only through the outside node 4, which also reaches 5.
_OUTSIDE = (6, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (4, 5)])
_NONE = [False] * MAX_PAIRS


@settings(max_examples=400, deadline=None)
@given(_graphs_with_edge_01(), st.sampled_from(UW_VARIANTS), st.lists(st.booleans(), min_size=MAX_PAIRS, max_size=MAX_PAIRS))
@example(_ZERO, "uw-rt-ins-ntp", _NONE)
@example(_ZERO, "uw-rt-del-ptn", _NONE)
@example(_OUTSIDE, "uw-rt-del-ptn", [True] + _NONE[1:])  # deletes (2, 4): cost(2, 3) goes 2 -> 3
@example(_OUTSIDE, "uw-rt-del-ptn", [False, False, True] + _NONE[3:])  # deletes (4, 5): both ends outside
@example(_OUTSIDE, "uw-ut-del-ptn", [True] + _NONE[1:])  # deletes (0, 2): N[u] shrinks
def test_local_evaluator_matches_flow_route(graph, key, picks):
    n, edges = graph
    g = Graph(n, edges)
    variant = ProblemVariant.parse(key)
    edits = [c for c, keep in zip(candidate_edits(g, (0, 1), variant), picks) if keep]
    edited = g.insert_edges(edits) if variant.operation == "ins" else g.delete_edges(edits)
    after = ricci(edited, (0, 1), route="flow")
    local = _LocalEvaluator(g, (0, 1), variant)
    assert 1 - Fraction(*local.total(edits)) == after.ric
    demanded = Sign.POSITIVE if variant.direction == "ntp" else Sign.NEGATIVE
    assert local.flips(edits) == (after.sign == demanded)
    if local.flips(edits):
        assert not local.out_of_reach(edits, len(edits))


def _reference_brute_force(inst, max_k):
    """Graph-level brute force: every subset checked on the edited graph, in order."""
    cands = permissible_edits(inst)
    for k in range(1, max_k + 1):
        for combo in itertools.combinations(cands, k):
            flipped, ric_after = _flips(inst, combo)
            if flipped:
                return Solution(combo, ric_after, "brute")
    return None


def _brute_force_cases():
    rng = random.Random(606)
    cases = [(inst, 6) for inst in sample_spade_instances(rng, 4, degree_pool=[(3, 5, 0.3), (2, 5, 0.3)])]
    for n in (3, 4, 5):
        perm = list(range(n))
        rng.shuffle(perm)
        inner = {(i, perm[i]) for i in range(n)} | {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.25}
        g, e, _ = gen_blocker(n, sorted(inner))
        cases.append((Instance(g, e, DEL_PTN), 3))
    # Tightness gadgets: the optimum m/2 lies past levels the reach bound
    # skips. At m = 6 only the skipped levels are compared; the graph-level
    # search of level 3 alone takes about 20 s.
    for m, max_k in ((4, 1), (4, 2), (6, 2)):
        g, e, _, _ = gen_tightness_graph(m)
        cases.append((Instance(g, e, NTP), max_k))
    return cases


def test_brute_force_matches_graph_level_reference():
    for inst, max_k in _brute_force_cases():
        sol = brute_force_opt(inst, max_k)
        ref = _reference_brute_force(inst, max_k)
        assert sol == ref
        assert sol is None or sol.to_json_dict() == ref.to_json_dict()


def test_unconfirmed_local_flip_is_never_returned(monkeypatch):
    # A local verdict the edited graph does not confirm must not leak out.
    insts = [neg_instance(3, 5, []), Instance(double_star(3, 3, [(1, 1)]), (0, 1), NTP)]
    g, e, _ = gen_blocker(3, [(0, 0), (1, 1), (2, 2)])
    insts.append(Instance(g, e, DEL_PTN))
    expected = [(brute_force_opt(inst, 2), _single_edit_solution(inst, "greedy")) for inst in insts]
    monkeypatch.setattr(_LocalEvaluator, "flips", lambda self, edits: True)
    for inst, (opt, single) in zip(insts, expected):
        assert brute_force_opt(inst, 2) == opt == _reference_brute_force(inst, 2)
        assert _single_edit_solution(inst, "greedy") == single
    assert expected[0][1] is None  # no single insertion flips it, whatever the local verdict
    assert expected[1][1] is not None


def test_setup_holds_one_cost_matrix_and_its_matching():
    rng = random.Random(880)
    pool = [(3, 4, 0.3), (3, 5, 0.25), (4, 6, 0.3), (2, 5, 0.2)]
    for inst in sample_spade_instances(rng, 6, degree_pool=pool):
        setup = _setup(inst)
        assert setup.cm is setup.bm.source
        assert setup.cm == build_cost_matrix(inst.graph, inst.edge)
        assert setup.mcpm == min_cost_perfect_matching(setup.bm.costs)
        assert setup.delta == setup.mcpm.cost == setup.q * inst.base_curvature().emd
        assert setup.rho == setup.delta - setup.q
        assert inst.base_curvature() == ricci(inst.graph, inst.edge, route="flow")
