import random
from fractions import Fraction as F

import pytest

from socialmatch.instance import (
    EqualSharing,
    FriendshipVector,
    GameInstance,
    Graph,
    InstanceError,
    MatthewSharing,
    ObliviousSharing,
    ParasiteSharing,
    TrustSharing,
)
from socialmatch.matching import (
    BISWIVEL,
    SWIVEL,
    Matching,
    StaleDeviationError,
    _pair_check,
    apply_deviation,
    deviation_for,
    is_improving_pair,
    is_relaxed_blocking_pair,
    is_stable,
    matching_value,
    node_reward,
    perceived_utility,
    utility_profile,
)
from helpers import (
    ALPHA_SAMPLES,
    brute_improving,
    build_distances,
    oblivious_instance,
    path3_equal,
    rational_pair_check,
    stake_table,
)
from socialmatch.generators import gen_friendship_rs_tight, gen_pos_tight, gen_random

OUTER_PAIRING = Matching.of(4, [(0, 1), (2, 3)])
MIDDLE_ONLY = Matching.of(4, [(1, 2)])


def all_matchings(instance):
    from socialmatch.oracle import enumerate_matchings

    return list(enumerate_matchings(instance.graph))


def test_node_reward_unmatched_zero():
    inst = path3_equal()
    assert node_reward(inst, MIDDLE_ONLY, 0) == 0


def test_node_reward_equal_full_edge_reward():
    inst = path3_equal()
    assert node_reward(inst, MIDDLE_ONLY, 1) == 1
    assert node_reward(inst, MIDDLE_ONLY, 2) == 1


def test_node_reward_matthew_share():
    inst = GameInstance(
        Graph(2, ((0, 1),)), (F(4),), MatthewSharing(lam=(F(1), F(3))), FriendshipVector()
    )
    m = Matching.of(2, [(0, 1)])
    assert node_reward(inst, m, 0) == 1
    assert node_reward(inst, m, 1) == 3


def test_perceived_utility_zero_alpha_equals_reward():
    inst = path3_equal()
    for m in all_matchings(inst):
        for v in range(4):
            assert perceived_utility(inst, m, v) == node_reward(inst, m, v)


def test_perceived_utility_path_example():
    inst = path3_equal(alpha=(F(1, 2), F(1, 4)))
    # Outer pairing: node 1 sees its own 1, 1/2 * (rewards of 0 and 2), 1/4 * reward of 3.
    assert perceived_utility(inst, OUTER_PAIRING, 1) == F(9, 4)
    inst2 = path3_equal(alpha=(F(1, 2),))
    assert perceived_utility(inst2, MIDDLE_ONLY, 0) == F(1, 2)


def test_utility_profile_consistency():
    inst = path3_equal(alpha=(F(1, 2), F(1, 4)))
    prof = utility_profile(inst, OUTER_PAIRING)
    for v in range(4):
        assert prof.reward[v] == node_reward(inst, OUTER_PAIRING, v)
        assert prof.perceived[v] == perceived_utility(inst, OUTER_PAIRING, v)
        assert prof.perceived[v] >= prof.reward[v]


def test_matching_value():
    inst = path3_equal()
    assert matching_value(inst, Matching.empty(4)) == 0
    assert matching_value(inst, OUTER_PAIRING) == 2
    assert matching_value(inst, MIDDLE_ONLY) == 1


def test_improving_pair_pos_gadget_witness():
    inst = gen_pos_tight(F(1, 2), F(1, 10))
    verdict = is_improving_pair(inst, OUTER_PAIRING, 1, 2)
    assert verdict.blocking
    assert verdict.kind == BISWIVEL
    for cond in verdict.conditions:
        assert cond.lhs == F(21, 10)
        assert cond.rhs == F(2)


def test_improving_pair_uniform_path_not_blocking():
    inst = path3_equal(alpha=(F(1, 2),))
    verdict = is_improving_pair(inst, OUTER_PAIRING, 1, 2)
    assert not verdict.blocking
    assert verdict.conditions[0].lhs == F(3, 2)
    assert verdict.conditions[0].rhs == F(2)


def test_improving_pair_classic_blocking_at_zero_alpha():
    inst = path3_equal((1, 2, 1))
    verdict = is_improving_pair(inst, OUTER_PAIRING, 1, 2)
    assert verdict.blocking


def test_improving_pair_requires_edge():
    inst = path3_equal()
    with pytest.raises(InstanceError):
        is_improving_pair(inst, MIDDLE_ONLY, 0, 2)


def test_improving_pair_matched_pair_not_blocking():
    inst = path3_equal()
    assert not is_improving_pair(inst, MIDDLE_ONLY, 1, 2).blocking


@pytest.mark.parametrize("rule", ["equal", "matthew", "trust", "oblivious"])
@pytest.mark.parametrize("alpha", ALPHA_SAMPLES)
def test_verdicts_agree_with_utility_delta_oracle(rule, alpha):
    # The closed-form inequalities must equal the brute recomputation of
    # perceived utilities before and after the deviation.
    for seed in range(6):
        inst = gen_random(seed=seed, n=7, density=0.5, rule=rule, alpha=alpha)
        for m in all_matchings(inst)[:40]:
            for u, v in inst.graph.edges:
                got = is_improving_pair(inst, m, u, v).blocking
                want = brute_improving(inst, m, u, v)
                assert got == want, (seed, m.sorted_pairs(), (u, v))


@pytest.mark.parametrize("rule", ["equal", "matthew", "oblivious"])
def test_blocking_implies_relaxed(rule):
    for seed in range(8):
        inst = gen_random(seed=seed, n=7, density=0.5, rule=rule, alpha=(F(1, 2), F(1, 4)))
        for m in all_matchings(inst)[:40]:
            for u, v in inst.graph.edges:
                if is_improving_pair(inst, m, u, v).blocking:
                    assert is_relaxed_blocking_pair(inst, m, u, v).blocking


def test_relaxed_equals_blocking_when_alphas_equal():
    for seed in range(8):
        inst = gen_random(seed=seed, n=7, density=0.5, rule="equal", alpha=(F(1, 2), F(1, 2)))
        for m in all_matchings(inst)[:40]:
            for u, v in inst.graph.edges:
                assert (
                    is_improving_pair(inst, m, u, v).blocking
                    == is_relaxed_blocking_pair(inst, m, u, v).blocking
                )


def test_relaxed_verdicts_match_literal_inequalities_equal_sharing():
    # From-scratch evaluation of the relaxed conditions in the edge-reward
    # convention; the checker must agree verdict-for-verdict.
    def reference(inst, m, u, v):
        if m.partner(u) == v:
            return False
        a1, a2 = inst.friendship.alpha1, inst.friendship.alpha2
        r = inst.edge_reward
        w, z = m.partner(u), m.partner(v)
        if w is not None and z is not None:
            return (1 + a1) * r(u, v) > (1 + a1) * r(u, w) + (a1 + a2) * r(v, z) and (
                1 + a1
            ) * r(u, v) > (1 + a1) * r(v, z) + (a1 + a2) * r(u, w)
        if w is None and z is None:
            return True  # rewards are positive, so both gain
        matched, free, p = (u, v, w) if w is not None else (v, u, z)
        return (1 + a1) * r(u, v) > (1 + a1) * r(matched, p) and (1 + a1) * r(u, v) > (
            a1 + inst.friendship.at(build_distances(inst.graph)[free][p])
        ) * r(matched, p)

    for seed in range(10):
        inst = gen_random(seed=seed, n=7, density=0.5, rule="equal", alpha=(F(2, 3), F(1, 4)))
        for m in all_matchings(inst)[:40]:
            for u, v in inst.graph.edges:
                assert is_relaxed_blocking_pair(inst, m, u, v).blocking == reference(inst, m, u, v)


def test_relaxed_but_not_blocking_found_by_search():
    # Triangle 1-2-3 with pendant 0: node 3 is adjacent to 1, so the true
    # cross coefficient is alpha1 while the relaxed check uses alpha2 = 0.
    graph = Graph(4, ((0, 1), (1, 2), (2, 3), (1, 3)))
    m = Matching.of(4, [(0, 1), (2, 3)])
    found = None
    for num in range(1, 40):
        mid = F(num, 12)
        inst = oblivious_instance(
            graph,
            {
                (0, 1): (F(1, 2), F(1, 2)),
                (1, 2): (mid / 2, mid / 2),
                (2, 3): (F(1, 2), F(1, 2)),
                (1, 3): (F(1, 2), F(1, 2)),
            },
            alpha=(F(1, 2),),
        )
        relaxed = is_relaxed_blocking_pair(inst, m, 1, 2).blocking
        blocking = is_improving_pair(inst, m, 1, 2).blocking
        if relaxed and not blocking:
            found = inst
            break
    assert found is not None
    assert brute_improving(found, m, 1, 2) is False


def test_stable_without_friendship_stays_stable_with_it():
    # Stable without friendship implies stable with friendship (equal sharing).
    for seed in range(25):
        base = gen_random(seed=seed, n=8, density=0.45, rule="equal")
        stable_at_zero = [m for m in all_matchings(base) if is_stable(base, m).stable]
        for alpha in ((F(1, 2),), (F(1, 2), F(1, 4)), (F(1), F(1))):
            friend = GameInstance(base.graph, base.rewards, base.sharing, FriendshipVector(alpha))
            for m in stable_at_zero:
                assert is_stable(friend, m).stable


def test_equal_swivel_second_condition_redundant():
    # With equal sharing, the free node's swivel condition follows from the
    # matched node's, so the verdict equals the single comparison.
    for seed in range(10):
        inst = gen_random(seed=seed, n=7, density=0.5, rule="equal", alpha=(F(1, 2), F(1, 4)))
        for m in all_matchings(inst)[:40]:
            for u, v in inst.graph.edges:
                pu, pv = m.partner(u), m.partner(v)
                if (pu is None) == (pv is None):
                    continue
                verdict = is_improving_pair(inst, m, u, v)
                assert verdict.kind == SWIVEL
                cond_matched = verdict.conditions[0]
                assert verdict.blocking == cond_matched.holds


def test_blocking_always_raises_stake():
    # Any improving or relaxed-improving pair beats the old partner's stake.
    for seed in range(8):
        for rule in ("equal", "oblivious"):
            inst = gen_random(seed=seed, n=7, density=0.5, rule=rule, alpha=(F(1, 2), F(1, 4)))
            table = stake_table(inst)
            for m in all_matchings(inst)[:30]:
                for u, v in inst.graph.edges:
                    for check in (is_improving_pair, is_relaxed_blocking_pair):
                        if not check(inst, m, u, v).blocking:
                            continue
                        for node in (u, v):
                            w = m.partner(node)
                            if w is None:
                                continue
                            other = v if node == u else u
                            assert table[node][other][0] > table[node][w][0]


def test_is_stable_middle_only_any_alpha():
    for alpha in ALPHA_SAMPLES:
        inst = path3_equal(alpha=alpha)
        assert is_stable(inst, MIDDLE_ONLY).stable


def test_is_stable_empty_matching_unstable():
    inst = path3_equal()
    result = is_stable(inst, Matching.empty(4))
    assert not result.stable
    assert result.blocking_pairs


def test_friendship_rs_gadget_both_stable():
    inst = gen_friendship_rs_tight(2, F(1, 2), "poa")
    assert is_stable(inst, MIDDLE_ONLY).stable
    assert is_stable(inst, OUTER_PAIRING).stable


def test_apply_deviation_biswivel():
    dev = deviation_for(OUTER_PAIRING, 1, 2, BISWIVEL)
    after = apply_deviation(OUTER_PAIRING, dev)
    assert after.pairs == frozenset({(1, 2)})


def test_apply_deviation_swivel_releases_partner():
    dev = deviation_for(Matching.of(4, [(0, 1)]), 1, 2, SWIVEL)
    after = apply_deviation(Matching.of(4, [(0, 1)]), dev)
    assert after.pairs == frozenset({(1, 2)})
    assert after.partner(0) is None


def test_apply_deviation_on_empty():
    dev = deviation_for(Matching.empty(4), 1, 2, SWIVEL)
    after = apply_deviation(Matching.empty(4), dev)
    assert after.pairs == frozenset({(1, 2)})


def test_apply_deviation_stale_rejected():
    dev = deviation_for(OUTER_PAIRING, 1, 2, BISWIVEL)
    with pytest.raises(StaleDeviationError):
        apply_deviation(Matching.empty(4), dev)


def test_matching_of_rejects_double_match():
    with pytest.raises(InstanceError):
        Matching.of(3, [(0, 1), (1, 2)])


def test_apply_deviation_keeps_partner_symmetry():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(seed=st.integers(min_value=0, max_value=400), steps=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def run(seed, steps):
        import random

        inst = gen_random(seed=seed, n=7, density=0.6, rule="equal")
        if not inst.graph.edges:
            return
        rng = random.Random(seed)
        m = Matching.empty(7)
        for _ in range(steps):
            u, v = inst.graph.edges[rng.randrange(len(inst.graph.edges))]
            if m.partner(u) == v:
                continue
            kind = BISWIVEL if m.partner(u) is not None and m.partner(v) is not None else SWIVEL
            m = apply_deviation(m, deviation_for(m, u, v, kind))
            for a in range(7):
                b = m.partner(a)
                assert b is None or m.partner(b) == a
            assert all(inst.graph.has_edge(a, b) for a, b in m.pairs)

    run()


def test_tiny_graphs_handled():
    lonely = gen_random(seed=0, n=1, density=1.0, rule="equal")
    from socialmatch.oracle import enumerate_stable_matchings, max_weight_matching

    w, value = max_weight_matching(lonely)
    assert value == 0 and w.pairs == frozenset()
    assert [m.pairs for m in enumerate_stable_matchings(lonely)] == [frozenset()]


def test_verdict_serialization():
    inst = gen_pos_tight(F(1, 2), F(1, 10))
    doc = is_improving_pair(inst, OUTER_PAIRING, 1, 2).to_dict()
    assert doc["blocking"] is True
    assert doc["conditions"][0]["lhs"] == "21/10"
    assert doc["conditions"][0]["rhs"] == "2"


KERNEL_ALPHAS = ((), (F(1, 2), F(0)), (F(1), F(1)), (F(2, 3), F(1, 3)), (F(1, 3), F(1, 7)))


def _coprime_instances(alpha):
    """A 6-node graph whose rewards, shares, lambdas and h have pairwise coprime
    denominators, under each sharing rule."""
    graph = Graph(6, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)))
    rewards = (F(1, 3), F(2, 5), F(3, 7), F(5, 11), F(7, 13), F(11, 17), F(13, 19), F(17, 23))
    lam = (F(1, 2), F(3, 5), F(7, 3), F(2, 7), F(5, 11), F(9, 13))
    beta = (F(1, 29), F(2, 31), F(0), F(3, 37), F(1, 41), F(4, 43))
    h = tuple(F(k, 47 + 6 * k) for k in range(1, 9))
    trust_rewards = tuple(2 * h[i] + beta[u] + beta[v] for i, (u, v) in enumerate(graph.edges))
    fv = FriendshipVector(alpha)
    yield GameInstance(graph=graph, rewards=rewards, sharing=EqualSharing(), friendship=fv)
    yield GameInstance(graph=graph, rewards=rewards, sharing=MatthewSharing(lam=lam), friendship=fv)
    yield GameInstance(graph=graph, rewards=rewards, sharing=ParasiteSharing(lam=lam), friendship=fv)
    yield GameInstance(graph=graph, rewards=trust_rewards, sharing=TrustSharing(beta=beta, h=h), friendship=fv)
    # Oblivious, with a zero share on edge (1, 2).
    shares = tuple((F(0), r) if e == (1, 2) else (r * F(2, 9), r * F(7, 9)) for e, r in zip(graph.edges, rewards))
    yield GameInstance(graph=graph, rewards=rewards, sharing=ObliviousSharing(shares=shares), friendship=fv)


def test_integer_verdicts_match_rational_reference():
    # Every edge's verdict, exact and relaxed, and every witness inequality
    # agree with the same formula evaluated in Fractions.
    rng = random.Random(11)
    instances = []
    for alpha in KERNEL_ALPHAS:
        instances.extend(_coprime_instances(alpha))
        for rule in ("equal", "matthew", "parasite", "trust", "oblivious"):
            for seed in range(2):
                instances.append(gen_random(seed=seed, n=8, density=0.5, rule=rule, alpha=alpha))
    checked = 0
    for inst in instances:
        edges = inst.graph.edges
        for _ in range(12):
            partner: list = [None] * inst.graph.n
            for u, v in rng.sample(edges, len(edges)):
                if partner[u] is None and partner[v] is None and rng.random() < 0.6:
                    partner[u], partner[v] = v, u
            for u, v in edges:
                if partner[u] == v:
                    continue
                for relaxed in (False, True):
                    got, want = [], []
                    expected = rational_pair_check(inst, partner, u, v, relaxed, want)
                    assert _pair_check(inst, partner, u, v, relaxed) == expected
                    assert _pair_check(inst, partner, u, v, relaxed, got) == expected
                    assert got == want
                    assert all(type(c.lhs) is F and type(c.rhs) is F for c in got)
                    checked += 1
    assert checked > 10_000
