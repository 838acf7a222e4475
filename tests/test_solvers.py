import hashlib
import itertools
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import networkx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riccicrit import (
    BudgetExceededError,
    FieldConfigError,
    Graph,
    InfeasibleInstanceError,
    Instance,
    ProblemVariant,
    RetryExhaustedError,
    Sign,
    Solution,
    UnsupportedVariantError,
    blow_up,
    brute_force_opt,
    build_cost_matrix,
    canonicalize_matching,
    feasible_by_saturation,
    gen_blocker,
    gen_maxcov,
    gen_tightness_graph,
    greedy_insert,
    kappa_hat,
    parse_edge_list,
    permissible_edits,
    randomized_insert,
    ricci,
)
from riccicrit import _detcube, curvature, matching, solvers
from riccicrit.curvature import _adjacency_costs
from riccicrit._detcube import _signature_digits
from riccicrit.gadgets import cover_insertions_maxcov
from riccicrit.graphs import ordered_pair
from riccicrit.matching import (
    _least_capped_cost,
    _least_signature,
    class_counts,
    enumerate_matchings,
    exact_cost_matching,
    min_cost_perfect_matching,
    signature_support,
)
from riccicrit.solvers import (
    _LocalEvaluator,
    _approx_setup,
    _first_flip,
    _flips,
    apply_edits,
    candidate_edits,
    has_spade_property,
    select_drop_edges,
)

from conftest import (
    blow_up_shape,
    double_star,
    hub_double_star,
    random_connected_graph,
    sample_spade_instances,
    sample_sweep_instances,
)

NTP = ProblemVariant.parse("uw-rt-ins-ntp")
UT_NTP = ProblemVariant.parse("uw-ut-ins-ntp")
DEL_PTN = ProblemVariant.parse("uw-rt-del-ptn")
WT_NTP = ProblemVariant.parse("wt-rt-ins-ntp")
WT_PTN = ProblemVariant.parse("wt-rt-del-ptn")


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
    assert ricci(inst.graph, inst.edge, route="flow").sign == Sign.NEGATIVE
    with pytest.raises(ValueError):
        Instance(inst.graph, (0, 1), DEL_PTN)
    with pytest.raises(ValueError):
        Instance(Graph(3, [(0, 1, 2), (1, 2, 1)], weighted=True), (0, 1), NTP)


def _assert_signs_checked_without_a_flow(monkeypatch, cases, ntp, ptn):
    # The local evaluator decides every instance's starting sign, zero
    # included: neither the flow route nor networkx runs while an instance is
    # built, and the instance accepts exactly the starts whose flow-route sign
    # fits its direction.
    flows = []
    real_ricci = solvers.ricci
    monkeypatch.setattr(solvers, "ricci", lambda *a, **kw: flows.append(a[1]) or real_ricci(*a, **kw))
    real_flow = networkx.min_cost_flow
    monkeypatch.setattr(networkx, "min_cost_flow", lambda *a, **kw: flows.append("networkx") or real_flow(*a, **kw))
    signs = set()
    for g, e in cases:
        want = ricci(g, e, route="flow").sign
        assert flows == ["networkx"]  # the spy sees the flow route
        flows.clear()
        signs.add(want)
        for variant, fits in ((ntp, want != Sign.POSITIVE), (ptn, want == Sign.POSITIVE)):
            if not fits:
                with pytest.raises(ValueError):
                    Instance(g, e, variant)
            else:
                Instance(g, e, variant)
            assert flows == []
    assert signs == set(Sign)


def test_unweighted_instances_check_their_sign_without_a_flow(monkeypatch):
    rng = random.Random(31)
    cases = [(Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (3, 5)]), (0, 1))]  # curvature 0
    for _ in range(12):
        g = random_connected_graph(rng, rng.randint(3, 8))
        cases += [(g, (a, b)) for a, b, _ in g.edges()]
    _assert_signs_checked_without_a_flow(monkeypatch, cases, NTP, DEL_PTN)


def test_weighted_instances_check_their_sign_by_the_flow_route(monkeypatch):
    # Weighted starts are held to the flow route's sign too, though building
    # the instance runs the local evaluator, not the flow.
    rng = random.Random(31)
    g, e, _ = gen_maxcov(4, [[0, 1], [2, 3]], 1)
    cases = [(g, e)]
    for _ in range(8):
        g = random_connected_graph(rng, rng.randint(3, 7), weighted=True, max_w=3)
        cases += [(g, (a, b)) for a, b, _ in g.edges()]
    _assert_signs_checked_without_a_flow(monkeypatch, cases, WT_NTP, WT_PTN)


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
    bm = blow_up(build_cost_matrix(inst.graph, inst.edge))
    mcpm = min_cost_perfect_matching(bm.costs)
    from riccicrit.matching import class_counts

    counts = class_counts(bm.costs, bm.touchable_mask(), mcpm)
    kappa = kappa_hat(counts.n3, counts.n2_touchable, mcpm.cost - bm.q)
    if kappa is None:
        pytest.skip("minimum matching is unwanted here")
    drop = set(select_drop_edges(bm, mcpm, *kappa))
    assert len(drop) == sum(kappa)
    new_cost = sum(
        (1 if (row, col) in drop else bm.costs[row][col])
        for row, col in enumerate(mcpm.assignment)
    )
    assert new_cost < bm.q


# -- greedy / randomized / brute ----------------------------------------------------


def test_greedy_verified_and_bounded(rng):
    instances = sample_spade_instances(
        rng, 12, degree_pool=[(3, 5, 0.3), (3, 7, 0.25), (4, 7, 0.3), (2, 5, 0.3)]
    )
    for inst in instances:
        shape = blow_up_shape(inst)
        sol = greedy_insert(inst)
        assert sol.resulting_ric > 0
        assert sol.drops <= shape.rho + 1
        opt = brute_force_opt(inst, 6)
        assert opt is not None
        assert len(sol.edits) <= 2 * shape.b * len(opt.edits)
        assert Fraction(shape.rho + 1, 2 * shape.b) <= len(opt.edits)


def test_greedy_rejects_bad_start():
    inst = neg_instance(2, 5, [(0, 0)])
    shape = blow_up_shape(inst)
    from riccicrit.matching import enumerate_matchings

    costs = blow_up(build_cost_matrix(inst.graph, inst.edge)).costs
    worst = max(enumerate_matchings(costs, bound=shape.q), key=lambda m: m.cost)
    assert worst.cost > shape.q + shape.rho
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
        if blow_up_shape(inst).b != 1:
            continue  # keep only b = 1 here
        sol = randomized_insert(inst, seed=100 + i)
        assert sol.resulting_ric > 0
        opt = brute_force_opt(inst, 6)
        assert len(sol.edits) == len(opt.edits)


def test_randomized_rejects_a_negative_seed_before_any_work(monkeypatch):
    monkeypatch.setattr(solvers, "_approx_setup", lambda *a: pytest.fail("set-up ran"))
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        randomized_insert(neg_instance(), seed=-1)


@pytest.mark.parametrize("seed", [1.5, "3", True])
def test_randomized_names_a_non_integer_seed_before_any_work(monkeypatch, seed):
    # The double star STAR6 and the side-edge instance are answered by their
    # least signature, which reads no seed; both refuse the seed first. True
    # would otherwise run as seed 1.
    message = rf"^seed must be an integer, got {re.escape(repr(seed))}$"
    for inst in (neg_instance(3, 3, ()), SIDE_EDGE_INSTANCES[1]):
        with pytest.raises(ValueError, match=message):
            randomized_insert(inst, seed=seed)
    monkeypatch.setattr(solvers, "_approx_setup", lambda *a: pytest.fail("set-up ran"))
    with pytest.raises(ValueError, match=message):
        randomized_insert(neg_instance(3, 3, ()), seed=seed)


@pytest.mark.parametrize(
    "kwargs, name",
    [({"max_k": 2.5}, "max_k"), ({"max_k": True}, "max_k"), ({"budget": 1.5}, "budget"), ({"budget": True}, "budget")],
)
def test_brute_force_names_a_non_integer_max_k_or_budget_before_any_work(monkeypatch, kwargs, name):
    # range() would fail on max_k=2.5 with a bare TypeError, and budget=1.5
    # or a bool would be taken as a number.
    monkeypatch.setattr(solvers, "permissible_edits", lambda *a: pytest.fail("edits were listed"))
    args = {"max_k": 2, **kwargs}
    message = rf"^{name} must be an integer, got {re.escape(repr(kwargs[name]))}$"
    with pytest.raises(ValueError, match=message):
        brute_force_opt(neg_instance(), args.pop("max_k"), **args)


def test_randomized_general_bound(rng):
    instances = sample_spade_instances(rng, 8, degree_pool=[(3, 5, 0.3), (4, 7, 0.3)])
    for i, inst in enumerate(instances):
        b = blow_up_shape(inst).b
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


SIDE_EDGE_INSTANCES = [inst for inst, _greedy, _rand in PINNED_CASES[len(PINNED_DOUBLE_STARS):]]


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


def _swept(inst: Instance, seed: int) -> Solution:
    """``randomized_insert`` with no shortcut: every signature swept, the
    witness of the least drop budget queried, at the same seed."""
    bm = _approx_setup(inst, "randomized")
    if isinstance(bm, Solution):
        return bm
    mask = bm.touchable_mask()
    most = {x: (k, l) for x, k, l in sorted(signature_support(bm.costs, mask, trials=2, seed=seed))}
    budget = {x: kappa_hat(k, l, x - bm.q) for x, (k, l) in most.items()}
    _, x = min((sum(kappa), x) for x, kappa in budget.items() if kappa is not None)
    witness = matching.matching_with_counts(bm.costs, mask, x, *most[x], trials=4, seed=seed)
    # The query answers the least signature without a search; the F_p
    # extraction it skips finds the same lexicographically first witness.
    digits = _signature_digits(bm.costs, mask)
    assert _detcube._search(digits, (4 * bm.q - x, *most[x]), 4, seed) == list(witness.assignment)
    edges = select_drop_edges(bm, witness, *budget[x])
    cm = bm.source
    blocks = {bm.block(row, col) for row, col in edges}
    pairs = sorted({ordered_pair(cm.row_nodes[i], cm.col_nodes[j]) for i, j in blocks})
    edits = tuple((pair, 1) for pair in pairs)
    flipped, ric = _flips(inst, edits)
    assert flipped
    return Solution(edits, ric, "randomized", drops=len(edges))


def _sweep_spy(monkeypatch) -> list:
    """The calls ``randomized_insert`` makes to ``signature_support``, recorded as they happen."""
    calls = []
    monkeypatch.setattr(solvers, "signature_support", lambda *a, **kw: calls.append(a) or signature_support(*a, **kw))
    return calls


def test_the_least_signature_answers_every_spade_and_tightness_instance_without_a_sweep(monkeypatch):
    pool = sample_spade_instances(
        random.Random(6060),
        24,
        degree_pool=[(2, 5, 0.3), (3, 5, 0.3), (3, 7, 0.25), (4, 7, 0.3), (3, 3, 0.25), (4, 4, 0.3)],
    )
    g, e, _, _ = gen_tightness_graph(6)
    pool.append(Instance(g, e, NTP))
    calls = _sweep_spy(monkeypatch)
    for i, inst in enumerate(pool):
        got = randomized_insert(inst, seed=i)
        assert calls == []
        assert got == _swept(inst, seed=i)


def test_instances_whose_least_signature_lacks_3_edges_are_swept(monkeypatch, force_sweep):
    # The side-edge pins select (23, 0, 4) at q = 21 and (16, 0, 5) at q = 15:
    # no 3-edge, so 2·k0 > x0 - q cannot settle the budget. The q = 6
    # edge's least signature (8, 1, 1) sits on the boundary, 2·k0 = x0 - q,
    # where the budget is (1, 1), not (2, 0). The capped-cost certificate
    # settles all of them without a sweep; with it failing, each sweeps
    # once, and the Solution is the same.
    boundary = Graph(9, [(0, 3), (0, 5), (0, 6), (0, 7), (1, 2), (1, 6), (2, 7), (3, 6), (4, 6), (5, 8), (6, 8)])
    pool = SIDE_EDGE_INSTANCES + [Instance(boundary, (1, 6), NTP)] + sample_sweep_instances(random.Random(11), 4)
    calls = _sweep_spy(monkeypatch)
    certified = [randomized_insert(inst, seed=i) for i, inst in enumerate(pool)]
    assert calls == []
    force_sweep()
    for i, inst in enumerate(pool):
        got = randomized_insert(inst, seed=i)
        assert len(calls) == 1
        calls.clear()
        assert got == _swept(inst, seed=i) == certified[i]


def test_a_sweep_past_the_f_p_size_bound_is_refused_before_any_dense_array(force_sweep):
    # q = 38 * 39 = 1482, so q² passes the F_p engine's 2,000,000 entries.
    # The least signature (3171, 702, 360) has 2·k0 <= x0 - q; the
    # capped-cost certificate settles it, and with that failing the sweep
    # is refused before its q x q digits (53 MB) or scalars are built.
    # exact_cost_matching is refused the same way, unless the minimum cost
    # answers it.
    inst = Instance(hub_double_star(37, 38), (0, 1), NTP)
    bm = inst._blow_up
    assert bm.q == 1482 and _least_signature(bm.costs, bm.touchable_mask())[1] == (3171, 702, 360)
    assert randomized_insert(inst, seed=3).drops == 988
    force_sweep()
    refused = "^the F_p engine takes at most 2000000 matrix entries, got q=1482$"
    tracemalloc.start()
    try:
        with pytest.raises(FieldConfigError, match=refused):
            randomized_insert(Instance(inst.graph, inst.edge, NTP), seed=3)
        least = exact_cost_matching(bm.costs, 3171)
        with pytest.raises(FieldConfigError, match=refused):
            exact_cost_matching(bm.costs, 3172)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert least.cost == 3171 and peak < 4_000_000


def test_the_capped_cost_certificate_agrees_with_enumeration():
    # Random 0..3 matrices, q <= 7, with random masks and flip thresholds t
    # (q for a blow-up). Whenever the rule of ``randomized_insert`` takes the
    # least signature (x0, k0, l0), the enumerated landscape -- each cost's
    # most 3-edges, then most touchable 2-edges, and its kappa-hat budget at
    # tau = cost - t -- picks it too, ``_least_signature``'s matching is the
    # first enumerated one with it, and the capped cost is the enumerated
    # least cost less 3-edges. Some cases are taken only by the certificate.
    rng = random.Random(8128)
    fired = by_certificate = 0
    for _ in range(900):
        q = rng.randint(2, 7)
        weights = [rng.random() for _ in range(4)]
        costs = [rng.choices(range(4), weights=weights, k=q) for _ in range(q)]
        mask = [[rng.random() < 0.5 for _ in range(q)] for _ in range(q)]
        least, (x0, k0, l0) = _least_signature(costs, mask)
        threshold = rng.randint(0, x0)
        tau0 = x0 - threshold
        capped = _least_capped_cost(costs)
        if kappa_hat(k0, l0, tau0) is None or (2 * k0 <= tau0 and capped != x0 - k0):
            continue
        fired += 1
        by_certificate += 2 * k0 <= tau0
        most, first = {}, {}
        for m in enumerate_matchings(costs):
            counts = class_counts(costs, mask, m)
            signature = (m.cost, counts.n3, counts.n2_touchable)
            most[m.cost] = max(most.get(m.cost, (0, 0)), signature[1:])
            first.setdefault(signature, m)
        budget = {x: kappa_hat(k, l, x - threshold) for x, (k, l) in most.items()}
        _, x = min((sum(kappa), x) for x, kappa in budget.items() if kappa is not None)
        assert (x, *most[x]) == (x0, k0, l0)
        assert first[x0, k0, l0].assignment == least.assignment
        assert capped == min(cost - k for cost, (k, _l) in most.items())
    assert fired > 50 and by_certificate > 20, (fired, by_certificate)


def test_randomized_insert_on_sweep_instances_returns_the_pinned_solutions():
    # One SHA-256 over the Solutions, drops included, on seeded instances
    # whose least signature has 2·k0 <= x0 - q, pinned when every one of
    # them was swept over F_p.
    h = hashlib.sha256()
    for seed in (0, 1):
        for i, inst in enumerate(sample_sweep_instances(random.Random(seed), 50, max_q=60)):
            sol = randomized_insert(inst, seed=seed)
            record = {**sol.to_json_dict(), "drops": sol.drops}
            h.update(json.dumps([seed, i, record], sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == "b57fad9587470fb81141ce9091a0ad941b61424f5bbdc3f419b3b97dd3ac54ff"


def _unstrided_dims(digits) -> tuple[int, ...]:
    """Grid points per axis with no stride: the row and column minima out,
    one more than the smaller of the row-maxima and column-maxima sums."""
    d = digits - digits.min(axis=1, keepdims=True)
    d = d - d.min(axis=0, keepdims=True)
    return tuple(int(b) + 1 for b in np.minimum(d.max(axis=1).sum(axis=0), d.max(axis=0).sum(axis=0)))


def test_q40_cube_takes_the_even_cost_axis_at_half_the_points():
    # A no-side-edges double star with r = 5 and s = 8 (q = 40), the class of
    # the solve benchmark's costliest slot, drawn by
    # sample_spade_instances(random.Random(4), 1, degree_pool=[(4, 7, 0.3)]).
    # Its reduced cost digits are all even, so the digits' cost axis has
    # stride 2 and keeps (d + 1) / 2 of its d points: the strided box is at
    # most half the unstrided one, plus the layer at cost-axis exponent 0:
    # 16 x 25 = 400 points. The Solutions are pinned at their values from
    # before the stride.
    inst = neg_instance(4, 7, [(0, 0), (1, 0), (1, 4), (2, 0)])
    bm = inst._blow_up
    assert bm.q == 40
    digits = _signature_digits(bm.costs, bm.touchable_mask())
    cube = _detcube._trial_cube(digits, 1, 0)
    box = _unstrided_dims(digits)
    strided = _detcube._factor(digits)[2]
    assert cube.stride == (2, 1, 1)
    assert strided == ((box[0] + 1) // 2,) + box[1:] == (16, 25, 1)
    assert 2 * math.prod(strided) <= math.prod(box) + math.prod(box[1:])
    assert cube.dims == (16, 25, 1)
    edits = ((2, 7), (3, 7), (3, 8), (4, 8), (4, 10))
    assert pinned(greedy_insert(inst)) == (edits, "7/40", 5)
    for seed in (1, 2):
        assert pinned(randomized_insert(inst, seed=seed)) == (edits, "7/40", 11)


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
            shape = blow_up_shape(inst)
            sol = greedy_insert(inst)
            assert sol.resulting_ric > 0
            opt = brute_force_opt(inst, 6)
            assert len(sol.edits) <= 2 * (shape.a + shape.b) * len(opt.edits)
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


WT_VARIANTS = [f"wt-{r}-{o}-{d}" for r in ("rt", "ut") for o in ("ins", "del") for d in ("ntp", "ptn")]


@st.composite
def _weighted_graphs_with_edge_01(draw):
    n, edges = draw(_graphs_with_edge_01())
    weights = draw(st.lists(st.integers(1, 3), min_size=len(edges), max_size=len(edges)))
    return Graph(n, [(a, b, w) for (a, b), w in zip(edges, weights)], weighted=True)


# dist(0, 1) is 2 by way of node 2, not the edge's own weight 3.
_DETOUR = Graph(3, [(0, 1, 3), (0, 2, 1), (1, 2, 1)], weighted=True)


@settings(max_examples=300, deadline=None)
@given(
    _weighted_graphs_with_edge_01(),
    st.sampled_from(WT_VARIANTS),
    st.lists(st.booleans(), min_size=MAX_PAIRS, max_size=MAX_PAIRS),
)
@example(Graph(3, [(0, 1, 3), (1, 2, 1)], weighted=True), "wt-ut-ins-ntp", [True] + _NONE[1:])  # (0, 2) shortens dist(0, 1)
@example(_DETOUR, "wt-ut-del-ptn", [True] + _NONE[1:])  # deletes (0, 2): dist(0, 1) goes 2 -> 3
@example(_DETOUR, "wt-rt-ins-ntp", _NONE)
def test_weighted_local_evaluator_matches_flow_route(g, key, picks):
    variant = ProblemVariant.parse(key)
    cands = candidate_edits(g, (0, 1), variant)
    edits = [c for c, keep in zip(cands, picks) if keep]
    edited = g.insert_edges(edits) if variant.operation == "ins" else g.delete_edges(edits)
    after = ricci(edited, (0, 1), route="flow")
    local = _LocalEvaluator(g, (0, 1), variant)
    total, threshold = local.total(edits)
    assert 1 - Fraction(total, threshold) == after.ric
    demanded = Sign.POSITIVE if variant.direction == "ntp" else Sign.NEGATIVE
    assert local.flips(edits) == (after.sign == demanded)
    assert not local.out_of_reach(cands, 1)


@st.composite
def _relabeled_instances(draw):
    """An instance on the edge (0, 1) of a graph of 3 to 8 nodes, unweighted
    or with weights 1..3, under either restriction, the direction its sign
    admits and, on a weighted graph, either operation; the permutation
    ``perm`` of its nodes; and the same instance on the graph with node x
    renamed perm[x], built from its edges in shuffled order. The graph
    comes from a ``random.Random`` at a drawn seed: every other node is
    joined to 0 and to 1 with probability 1/2 each, and to the other nodes
    with probability 0.1 to 0.4, so the edge often has few triangles and a
    non-positive curvature.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    n, density = rng.randint(3, MAX_NODES), rng.choice([0.1, 0.25, 0.4])
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < (0.5 if a < 2 else density)]
    pairs = sorted({(0, 1), *pairs})
    weighted = draw(st.booleans())
    weights = draw(st.lists(st.integers(1, 3), min_size=len(pairs), max_size=len(pairs))) if weighted else [1] * len(pairs)
    edges = [(a, b, w) for (a, b), w in zip(pairs, weights)]
    perm = draw(st.permutations(range(n)))
    shuffled = draw(st.permutations([(perm[a], perm[b], w) for a, b, w in edges]))
    g = Graph(n, edges, weighted=weighted)
    ntp = ricci(g, (0, 1)).sign != Sign.POSITIVE
    operation = draw(st.sampled_from(["ins", "del"])) if weighted else ("ins" if ntp else "del")
    variant = ProblemVariant(
        "wt" if weighted else "uw", draw(st.sampled_from(["rt", "ut"])), operation, "ntp" if ntp else "ptn"
    )
    return Instance(g, (0, 1), variant), perm, Instance(Graph(n, shuffled, weighted=weighted), (perm[0], perm[1]), variant)


def _renamed(edits: tuple, name) -> tuple:
    """``edits`` with node x renamed name[x]; a weighted edit keeps its weight."""
    pair = lambda e: ordered_pair(name[e[0]], name[e[1]])
    return tuple((pair(e[0]), e[1]) if isinstance(e[0], tuple) else pair(e) for e in edits)


def _saturation_verdict(inst: Instance):
    """Whether saturation flips ``inst``, or the type of its refusal."""
    try:
        return feasible_by_saturation(inst)[0]
    except UnsupportedVariantError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(_relabeled_instances())
def test_relabeling_changes_no_saturation_verdict_or_brute_force_optimum(case):
    # Saturation decides the same, and brute force at max_k 2 finds an
    # optimum of the same size. Which optimum it returns first follows the
    # labels, so each side's edit set is renamed onto the other instance's
    # graph, where it flips the edge to the same resulting_ric.
    inst, perm, renamed = case
    assert _saturation_verdict(renamed) == _saturation_verdict(inst)
    sol, other = brute_force_opt(inst, 2), brute_force_opt(renamed, 2)
    assert (sol is None) == (other is None)
    if sol is None:
        return
    assert len(other.edits) == len(sol.edits)
    back = {x: i for i, x in enumerate(perm)}
    for target, edits, want in ((renamed, _renamed(sol.edits, perm), sol), (inst, _renamed(other.edits, back), other)):
        assert _flips(target, edits) == (True, want.resulting_ric)


def test_relabeling_keeps_the_approximations_flipping_within_their_factors():
    # Greedy's and randomized's edit sets follow the labels, as their
    # tie-breaks do, so only their guarantees are compared: on the relabeled
    # double star, built from a shuffled edge list, each flips the edge to
    # positive curvature, and stays within 2b (greedy) and b (randomized, no
    # side edges) of the relabeled brute-force optimum, which keeps its size.
    rng = random.Random(1998)
    for i, inst in enumerate(sample_spade_instances(rng, 6, degree_pool=[(3, 4, 0.3), (3, 5, 0.3), (4, 5, 0.25)])):
        n = inst.graph.node_count
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[a], perm[b]) for a, b, _w in inst.graph.edges()]
        rng.shuffle(edges)
        renamed = Instance(Graph(n, edges), (perm[0], perm[1]), inst.variant)
        b = blow_up_shape(renamed).b
        assert b == blow_up_shape(inst).b
        opt = brute_force_opt(renamed, 6)
        assert opt is not None and len(opt.edits) == len(brute_force_opt(inst, 6).edits)
        for sol, factor in ((greedy_insert(renamed), 2 * b), (randomized_insert(renamed, seed=i), b)):
            assert sol.resulting_ric > 0
            assert _flips(renamed, sol.edits) == (True, sol.resulting_ric)
            assert len(sol.edits) <= factor * len(opt.edits)


def _edited_instances(rng: random.Random):
    """Instances of every variant, each with edit sets to verify: seeded random
    graphs, unweighted and weighted, each variant on the edges whose starting
    sign admits it, double stars of negative curvature under both insertion
    variants, and the weighted maxcov gadget."""
    keys = UW_VARIANTS + WT_VARIANTS
    for _ in range(12):
        for weighted in (False, True):
            g = random_connected_graph(rng, rng.randint(4, 7), weighted=weighted, max_w=3, p=0.5)
            for key in keys[4:] if weighted else keys:
                for u, v, _w in g.edges():
                    try:
                        yield Instance(g, (u, v), ProblemVariant.parse(key))
                    except ValueError:
                        continue
    for inst in sample_spade_instances(rng, 4, degree_pool=[(3, 4, 0.3), (3, 5, 0.25)]):
        yield inst
        yield Instance(inst.graph, inst.edge, UT_NTP)
    for universe, sets, kappa in ((4, [[0, 1], [2, 3]], 1), (5, [[0, 1, 2], [2, 3], [4]], 2)):
        g, e, _ = gen_maxcov(universe, sets, kappa)
        yield Instance(g, e, WT_NTP)


def test_flips_agrees_with_the_flow_route_on_edited_graphs_of_every_variant():
    # The certified default route and networkx's network simplex give the
    # same verdict and curvature on each edited graph: the saturated set and
    # random subsets of the candidates, of every variant.
    rng = random.Random(919)
    seen: dict[str, set[bool]] = {}
    for inst in _edited_instances(rng):
        cands = permissible_edits(inst)
        subsets = [cands] + [[c for c in cands if rng.random() < 0.4] for _ in range(3)]
        demanded = Sign.POSITIVE if inst.variant.direction == "ntp" else Sign.NEGATIVE
        for edits in subsets:
            flipped, ric_after = _flips(inst, edits)
            after = ricci(apply_edits(inst, edits), inst.edge, route="flow")
            assert (flipped, ric_after) == (after.sign == demanded, after.ric), (inst, edits)
            seen.setdefault(inst.variant.key, set()).add(flipped)
    assert seen.keys() == set(UW_VARIANTS + WT_VARIANTS)
    for variant in (NTP, UT_NTP, DEL_PTN, WT_NTP, WT_PTN):
        assert seen[variant.key] == {True, False}, variant.key


def test_an_edit_set_whose_certificate_fails_is_never_returned(monkeypatch):
    # A failed certificate raises, and no verdict is kept, for every solver.
    inst = sample_spade_instances(random.Random(884), 1, degree_pool=[(3, 4, 0.3)])[0]
    monkeypatch.setattr(solvers, "certificate_fault", lambda res: "forced")
    message = "the edited graph's curvature failed its certificate: forced; nothing returned"
    for solve in (
        feasible_by_saturation,
        greedy_insert,
        lambda inst: randomized_insert(inst, seed=1),
        lambda inst: brute_force_opt(inst, 3),
    ):
        fresh = Instance(inst.graph, inst.edge, inst.variant)
        with pytest.raises(RetryExhaustedError, match=message):
            solve(fresh)
        assert fresh._verdicts == {}


def _reference_brute_force(inst, max_k):
    """Graph-level brute force: every subset checked on the edited graph, in order."""
    cands = permissible_edits(inst)
    for k in range(1, max_k + 1):
        for combo in itertools.combinations(cands, k):
            flipped, ric_after = _flips(inst, combo)
            if flipped:
                return Solution(combo, ric_after, "brute")
    return None


def weighted_double_stars(rng, count):
    """wt-rt-ins-ntp instances on double stars with edge weights 1..3 and non-positive curvature."""
    out = []
    while len(out) < count:
        du, dv = rng.randint(3, 4), rng.randint(3, 5)
        cross = [(i, j) for i in range(du - 1) for j in range(dv - 1) if rng.random() < 0.2]
        star = double_star(du, dv, cross)
        g = Graph(star.node_count, [(a, b, rng.randint(1, 3)) for a, b, _ in star.edges()], weighted=True)
        try:
            out.append(Instance(g, (0, 1), WT_NTP))
        except ValueError:
            continue
    return out


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
    for universe, sets, kappa in ((4, [[0, 1], [2, 3]], 1), (5, [[0, 1, 2], [2, 3], [4]], 2)):
        g, e, _ = gen_maxcov(universe, sets, kappa)
        cases.append((Instance(g, e, WT_NTP), 2))
    cases += [(inst, 3) for inst in weighted_double_stars(rng, 4)]
    for _ in range(3):
        g = random_connected_graph(rng, rng.randint(5, 7), weighted=True, max_w=3, p=0.6)
        positive = [(a, b) for a, b, _ in g.edges() if ricci(g, (a, b), route="flow").sign == Sign.POSITIVE]
        cases += [(Instance(g, e, WT_PTN), 3) for e in positive[:2]]
    return cases


def test_brute_force_matches_graph_level_reference():
    for inst, max_k in _brute_force_cases():
        sol = brute_force_opt(inst, max_k)
        ref = _reference_brute_force(inst, max_k)
        assert sol == ref
        assert sol is None or sol.to_json_dict() == ref.to_json_dict()


def test_unconfirmed_local_flip_is_never_returned(monkeypatch):
    # A local verdict the edited graph does not confirm must not leak out.
    # Fresh instances, so that no verdict of the first search is reused.
    def instances():
        insts = [neg_instance(3, 5, []), Instance(double_star(3, 3, [(1, 1)]), (0, 1), NTP)]
        g, e, _ = gen_blocker(3, [(0, 0), (1, 1), (2, 2)])
        insts.append(Instance(g, e, DEL_PTN))
        g, e, _ = gen_maxcov(4, [[0, 1], [2, 3]], 1)
        return insts + [Instance(g, e, WT_NTP)]

    def single(inst):
        return _first_flip(inst, ((edit,) for edit in permissible_edits(inst)))

    expected = [(brute_force_opt(inst, 2), single(inst)) for inst in instances()]
    monkeypatch.setattr(_LocalEvaluator, "flips", lambda self, edits: True)
    for inst, (opt, one) in zip(instances(), expected):
        assert brute_force_opt(inst, 2) == opt == _reference_brute_force(inst, 2)
        assert single(inst) == one
    assert expected[0][1] is None  # no single insertion flips it, whatever the local verdict
    assert expected[1][1] is not None


def test_brute_force_stops_at_the_candidate_count(monkeypatch):
    # Two candidate deletions: levels past 2 hold no subsets, so no reach
    # bound is asked for them, however large max_k is.
    inst = Instance(Graph(5, [(0, 1), (0, 4), (1, 2), (2, 3), (2, 4)]), (0, 1), DEL_PTN)
    assert len(permissible_edits(inst)) == 2
    calls = []
    real = _LocalEvaluator.out_of_reach
    monkeypatch.setattr(_LocalEvaluator, "out_of_reach", lambda self, c, k: calls.append(k) or real(self, c, k))
    assert brute_force_opt(inst, 1000) is None
    assert len(calls) <= 2


def test_brute_force_refuses_unrestricted_insertion_before_listing_it(monkeypatch):
    # Every non-edge is a candidate: 1000 * 999 / 2 - 10 of them here. Level
    # 1 alone is over the budget, so the search refuses without listing one.
    star = double_star(5, 6, [])
    text = "# nodes: 1000\n" + "".join(f"{a} {b}\n" for a, b, _ in star.edges())
    inst = Instance(parse_edge_list(text), (0, 1), UT_NTP)
    monkeypatch.setattr(solvers, "candidate_edits", lambda *a: pytest.fail("candidates were listed"))
    with pytest.raises(BudgetExceededError, match="level 1 needs 499490 subsets"):
        brute_force_opt(inst, 2, budget=1000)


def test_unrestricted_insertion_count_matches_the_listed_candidates():
    # The counted candidates are the listed ones, and a search within its
    # budget finds what the graph-level reference finds.
    for nodes, (du, dv, cross) in ((6, (3, 3, [])), (8, (3, 4, [(0, 0)])), (7, (2, 5, []))):
        star = double_star(du, dv, cross)
        inst = Instance(Graph(nodes, star.edges()), (0, 1), UT_NTP)
        n, m = inst.graph.node_count, inst.graph.edge_count()
        assert len(permissible_edits(inst)) == n * (n - 1) // 2 - m
        assert brute_force_opt(inst, 2) == _reference_brute_force(inst, 2)


def test_setup_holds_one_cost_matrix_and_its_matching():
    rng = random.Random(880)
    pool = [(3, 4, 0.3), (3, 5, 0.25), (4, 6, 0.3), (2, 5, 0.2)]
    for inst in sample_spade_instances(rng, 6, degree_pool=pool):
        # The instance keeps its blow-up and greedy's canonical start, and
        # hands out the same objects on every read.
        bm = blow_up(build_cost_matrix(inst.graph, inst.edge))
        assert inst._blow_up is inst._blow_up
        assert inst._blow_up == bm
        assert inst._start is inst._start
        assert inst._start == canonicalize_matching(bm, min_cost_perfect_matching(bm.costs))
        shape = blow_up_shape(inst)
        assert (bm.q, bm.a, bm.b) == shape[:3]
        assert inst._start.cost - bm.q == shape.rho


def test_randomized_insert_builds_no_canonical_start():
    # The rho = 0 test reads q * EMD off the local evaluator, so only greedy
    # builds its start: not at rho = 0, where one edit answers, nor above.
    boundary = Instance(double_star(3, 3, [(1, 1)]), (0, 1), NTP)
    pool = [boundary, neg_instance()] + [Instance(inst.graph, inst.edge, NTP) for inst in SIDE_EDGE_INSTANCES]
    for inst in pool:
        randomized_insert(inst, seed=1)
        assert "_start" not in vars(inst)
    assert randomized_insert(boundary, seed=1).drops == 1


def test_an_instances_canonical_start_solves_its_blow_up_once(monkeypatch):
    # The start is the kernel's own lex-min optimum, canonicalized without
    # re-solving the blow-up to prove it optimal. The verification of the
    # returned set solves the edited graph's blow-up, which is not counted.
    solved = []
    real = min_cost_perfect_matching

    def spy(costs):
        solved.append(costs)
        return real(costs)

    monkeypatch.setattr(solvers, "min_cost_perfect_matching", spy)
    monkeypatch.setattr(curvature, "min_cost_perfect_matching", spy)
    for inst in sample_spade_instances(random.Random(882), 4, degree_pool=[(3, 4, 0.3), (4, 6, 0.3)]):
        solved.clear()
        greedy_insert(inst)
        assert sum(costs is inst._blow_up.costs for costs in solved) == 1


def test_an_instance_builds_one_blow_up_and_verifies_each_edit_set_once(monkeypatch):
    # Greedy and randomized share the instance's blow-up and lex-min matching,
    # and the certified verification sees each edited graph once, however
    # many solvers return its edit set; every returned set is among those it
    # verified.
    built, verified = [], []
    real_blow_up, real_ricci = solvers.blow_up, solvers.ricci
    monkeypatch.setattr(solvers, "blow_up", lambda cm: built.append(cm) or real_blow_up(cm))
    monkeypatch.setattr(solvers, "ricci", lambda g, e, **kw: verified.append(g) or real_ricci(g, e, **kw))
    rng = random.Random(881)
    shared = 0
    for inst in sample_spade_instances(rng, 8, degree_pool=[(3, 4, 0.3), (3, 5, 0.25), (4, 6, 0.3)]):
        built.clear()
        verified.clear()
        sols = [greedy_insert(inst), randomized_insert(inst, seed=4), greedy_insert(inst)]
        assert len(built) == 1
        assert len(set(verified)) == len(verified)
        assert all(apply_edits(inst, sol.edits) in verified for sol in sols)
        shared += sols[0].edits == sols[1].edits
    assert shared


def test_an_instance_screens_its_unedited_and_saturated_sets_once(monkeypatch):
    # The starting sign and every brute-force level's reach bound read one
    # solve of the unedited matrix, and greedy and randomized share one
    # screen of the saturated set, the one saturation itself verifies.
    screened = []
    real_total = _LocalEvaluator.total

    def spy(self, edits):
        edits = tuple(edits)
        screened.append(edits)
        return real_total(self, edits)

    monkeypatch.setattr(_LocalEvaluator, "total", spy)
    levels = 0
    for inst in sample_spade_instances(random.Random(883), 6, degree_pool=[(3, 4, 0.3), (3, 5, 0.25)]):
        screened.clear()
        inst = Instance(inst.graph, inst.edge, inst.variant)
        saturated = permissible_edits(inst)
        assert feasible_by_saturation(inst)[0]
        greedy_insert(inst)
        randomized_insert(inst, seed=3)
        max_k = min(2, len(saturated) - 1)
        brute_force_opt(inst, max_k)
        levels += max_k
        assert screened.count(()) == 1
        assert screened.count(saturated) == 1
    assert levels
