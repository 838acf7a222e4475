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
)
from riccicrit import solvers
from riccicrit.curvature import _adjacency_costs
from riccicrit.gadgets import cover_insertions_maxcov
from riccicrit.matching import min_cost_perfect_matching
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


def test_unweighted_instances_check_their_sign_without_a_flow(monkeypatch):
    # The local evaluator decides an unweighted instance's starting sign, zero
    # included; the flow route runs once, when base_curvature() is first asked.
    rng = random.Random(31)
    cases = [(Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (3, 5)]), (0, 1))]  # curvature 0
    for _ in range(12):
        g = random_connected_graph(rng, rng.randint(3, 8))
        cases += [(g, (a, b)) for a, b, _ in g.edges()]
    flow_calls = []
    real_ricci = solvers.ricci
    monkeypatch.setattr(solvers, "ricci", lambda *a, **kw: flow_calls.append(a[1]) or real_ricci(*a, **kw))
    signs = set()
    for g, e in cases:
        want = real_ricci(g, e, route="flow")
        signs.add(want.sign)
        for variant, fits in ((NTP, want.sign != Sign.POSITIVE), (DEL_PTN, want.sign == Sign.POSITIVE)):
            if not fits:
                with pytest.raises(ValueError):
                    Instance(g, e, variant)
                continue
            inst = Instance(g, e, variant)
            assert flow_calls == []
            assert inst.base_curvature() == want
            assert inst.base_curvature() == want
            assert flow_calls == [e]
            flow_calls.clear()
    assert signs == {Sign.POSITIVE, Sign.ZERO, Sign.NEGATIVE}


def test_weighted_instances_check_their_sign_by_the_flow_route(monkeypatch):
    g, e, _ = gen_maxcov(4, [[0, 1], [2, 3]], 1)
    flow_calls = []
    real_ricci = solvers.ricci
    monkeypatch.setattr(solvers, "ricci", lambda *a, **kw: flow_calls.append(kw["route"]) or real_ricci(*a, **kw))
    inst = Instance(g, e, ProblemVariant.parse("wt-rt-ins-ntp"))
    assert flow_calls == ["flow"]
    assert inst.base_curvature() == real_ricci(g, e, route="flow")
    assert flow_calls == ["flow"]


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
    # q = 9 and x = 12: the drops must save more than tau = 3.
    # plenty of 3-edges: only 3-drops are needed
    assert kappa_hat(5, 0, 3) == (2, 0)
    # 3-edges exhausted, touchable 2-edges finish the job
    assert kappa_hat(1, 4, 3) == (1, 2)
    # nothing droppable: unwanted
    assert kappa_hat(0, 0, 3) is None


def test_kappa_hat_defining_inequalities(rng):
    for _ in range(300):
        q = rng.randint(2, 30)
        rho = rng.randint(0, q)
        mcpm = q + rho
        x = mcpm + rng.randint(0, max(0, 3 * q - mcpm))
        n3 = rng.randint(0, q)
        n2 = rng.randint(0, q - n3)
        kappa = kappa_hat(n3, n2, x - q)
        tau = rho + (x - mcpm)
        assert tau == x - q
        if kappa is None:
            assert 2 * n3 + n2 <= tau
            continue
        kappa3, kappa2 = kappa
        saved = 2 * kappa3 + kappa2
        assert saved > tau
        assert saved - (2 if kappa2 == 0 else 1) <= tau
        assert kappa3 <= n3 and kappa2 <= n2
        # select_drop_edges relies on this: 2-drops only after every 3-edge.
        assert kappa2 == 0 or kappa3 == n3


def test_selected_drops_cross_the_threshold():
    inst = neg_instance(3, 7, [(0, 0), (1, 2)])
    setup = _setup(inst)
    from riccicrit.matching import class_counts

    counts = class_counts(setup.bm.costs, setup.bm.touchable_mask(), setup.mcpm)
    kappa = kappa_hat(counts.n3, counts.n2_touchable, setup.delta - setup.q)
    if kappa is None:
        pytest.skip("minimum matching is unwanted here")
    drop = set(select_drop_edges(setup.bm, setup.mcpm, *kappa))
    assert len(drop) == sum(kappa)
    new_cost = sum(
        (1 if (row, col) in drop else setup.bm.costs[row][col])
        for row, col in enumerate(setup.mcpm.assignment)
    )
    assert new_cost < setup.q


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


def test_randomized_rejects_a_negative_seed_before_any_work(monkeypatch):
    monkeypatch.setattr(solvers, "_approx_setup", lambda *a: pytest.fail("set-up ran"))
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        randomized_insert(neg_instance(), seed=-1)


def test_randomized_general_bound(rng):
    instances = sample_spade_instances(rng, 8, degree_pool=[(3, 5, 0.3), (4, 7, 0.3)])
    for i, inst in enumerate(instances):
        setup = _setup(inst)
        b = setup.q // setup.bm.source.s
        sol = randomized_insert(inst, seed=7 * i)
        opt = brute_force_opt(inst, 6)
        assert len(sol.edits) <= b * len(opt.edits)


# greedy_insert and randomized_insert (seed 5) Solutions, each as its
# inserted pairs, resulting_ric and drops: double stars (du, dv, cross
# edges) at q = 5 to 40, two edges with side edges whose randomized drops
# are touchable 2-edges only, and the m = 6 tightness gadget. Randomized
# drops exceed the edit count wherever copies of a block fall together.
PINNED_DOUBLE_STARS = [
    ((3, 5, [(1, 2)]), (((2, 5), (2, 7)), "1/12", 2), (((2, 5), (2, 7)), "1/12", 3)),
    ((3, 7, [(1, 2)]), (((2, 7), (2, 8), (3, 9)), "1/8", 3), (((2, 7), (2, 8), (3, 9)), "1/8", 3)),
    ((4, 4, [(2, 2)]), (((2, 5), (3, 6)), "2/5", 2), (((2, 5), (3, 6)), "2/5", 2)),
    ((4, 5, [(1, 3), (2, 1)]), (((2, 5), (2, 7)), "1/6", 2), (((2, 5), (2, 7)), "1/6", 4)),
    ((4, 5, [(1, 1), (1, 2), (1, 3), (2, 0), (2, 1)]), (((2, 5),), "1/6", 1), (((2, 5),), "1/6", 2)),
    (
        (4, 7, [(0, 0), (0, 2), (1, 2), (1, 3), (2, 2), (2, 3)]),
        (((3, 9), (4, 9), (4, 10)), "7/40", 3),
        (((3, 9), (4, 9), (4, 10)), "7/40", 6),
    ),
]
PINNED_SIDE_EDGES = [
    (
        (8, [(0, 2), (0, 5), (1, 3), (1, 4), (1, 7), (2, 3), (2, 4), (2, 7), (3, 4), (3, 7), (4, 7), (5, 7), (6, 7)], (5, 7)),
        (((0, 3),), "1/21", 1),
        (((0, 3),), "1/21", 3),
    ),
    (
        (8, [(0, 1), (0, 3), (0, 6), (0, 7), (1, 4), (1, 5), (1, 7), (2, 5), (2, 6), (6, 7)], (1, 5)),
        (((0, 2),), "2/15", 1),
        (((0, 2),), "2/15", 2),
    ),
]
PINNED_CASES = [(neg_instance(*star), greedy, rand) for star, greedy, rand in PINNED_DOUBLE_STARS] + [
    (Instance(Graph(n, edges), edge, NTP), greedy, rand) for (n, edges, edge), greedy, rand in PINNED_SIDE_EDGES
]


def pinned(sol: Solution) -> tuple:
    assert all(w == 1 for _pair, w in sol.edits)
    return tuple(pair for pair, _w in sol.edits), str(sol.resulting_ric), sol.drops


@pytest.mark.parametrize("inst, greedy, rand", PINNED_CASES)
def test_pinned_approximation_solutions(inst, greedy, rand):
    assert pinned(greedy_insert(inst)) == greedy
    assert pinned(randomized_insert(inst, seed=5)) == rand


def test_pinned_approximation_solutions_on_the_tightness_gadget():
    g, e, start, _ = gen_tightness_graph(6)
    inst = Instance(g, e, NTP)
    adversarial = (((2, 12), (3, 13), (4, 14), (5, 9), (6, 10), (7, 11)), "1/9", 6)
    assert pinned(greedy_insert(inst, start)) == adversarial
    assert pinned(greedy_insert(inst)) == (((5, 12), (6, 13), (7, 14)), "1/9", 3)
    assert pinned(randomized_insert(inst, seed=5)) == (((5, 12), (6, 13), (7, 14)), "1/9", 3)


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
    sets: dict[int, set[int]] = {}
    for edit in edits:
        local.apply(sets, edit)
    cm = build_cost_matrix(edited, (0, 1))
    assert _adjacency_costs(cm.row_nodes, cm.col_nodes, lambda x: local.neighbors(x, sets)) == [
        list(row) for row in cm.costs
    ]


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
