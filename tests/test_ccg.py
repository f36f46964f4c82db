from fractions import Fraction as F

import pytest

from socialmatch import ccg
from socialmatch.ccg import (
    ATMOST,
    DEFAULT_GRID_K,
    EXACT,
    ContributionGame,
    RewardFunction,
    StrategyProfile,
    ccg_audit,
    ccg_from_dict,
    ccg_from_json,
    corresponding_matching_game,
    detect_forbidden_edges,
    is_pairwise_equilibrium,
    node_rewards,
    perceived_utilities,
    saturated_profile,
    tight_budget_equilibrium,
    total_reward,
)
from socialmatch.instance import (
    EqualSharing,
    FriendshipVector,
    Graph,
    InstanceError,
    MatthewSharing,
    ObliviousSharing,
)
from socialmatch.matching import Matching, is_stable, matching_value
from socialmatch.oracle import enumerate_stable_matchings, max_weight_matching
from socialmatch.generators import gen_random_ccg

from helpers import (
    NotStableError,
    ccg_to_json,
    dense_rows,
    matching_to_equilibrium,
    profile_from_rows,
    tight_social_optimum,
)

PATH = Graph(4, ((0, 1), (1, 2), (2, 3)))


def budget_path_game(eps=F(1, 20), mode=EXACT, alpha=(F(1, 2),)):
    return ContributionGame(
        graph=PATH,
        budgets=(F(1),) * 4,
        functions=(
            RewardFunction("min", 1 - eps),
            RewardFunction("min", F(1)),
            RewardFunction("min", 1 - eps),
        ),
        splits=("equal",) * 3,
        friendship=FriendshipVector(tuple(alpha)),
        mode=mode,
    )


def single_edge_game(family="product", c=F(1), split="equal", mode=ATMOST, budgets=(F(1), F(1))):
    return ContributionGame(
        graph=Graph(2, ((0, 1),)),
        budgets=budgets,
        functions=(RewardFunction(family, c),),
        splits=(split,),
        friendship=FriendshipVector(),
        mode=mode,
        lam=(F(1), F(2)) if split == "matthew" else None,
    )


def middle_profile(game, endpoints_on_outer: bool):
    rows = [[F(0)] * 3 for _ in range(4)]
    rows[1][1] = F(1)
    rows[2][1] = F(1)
    if endpoints_on_outer:
        rows[0][0] = F(1)
        rows[3][2] = F(1)
    return profile_from_rows(game, rows)


def test_corresponding_product_unit():
    inst = corresponding_matching_game(single_edge_game())
    assert inst.rewards == (F(1),)
    assert isinstance(inst.sharing, EqualSharing)


def test_corresponding_min_scaled():
    eps = F(1, 20)
    inst = corresponding_matching_game(budget_path_game(eps))
    assert inst.rewards == (1 - eps, F(1), 1 - eps)


def test_corresponding_proportional_is_matthew_with_budget_lambdas():
    game = gen_random_ccg(seed=3, n=6, density=0.6, split="proportional")
    inst = corresponding_matching_game(game)
    assert isinstance(inst.sharing, MatthewSharing)
    for i, (u, v) in enumerate(game.graph.edges):
        bu, bv = game.budgets[u], game.budgets[v]
        r = game.functions[i].total(bu, bv)
        assert inst.shares[i] == (bu / (bu + bv) * r, bv / (bu + bv) * r)


def test_corresponding_rejects_zero_reward_edges():
    game = single_edge_game(budgets=(F(0), F(1)))
    with pytest.raises(InstanceError):
        corresponding_matching_game(game)


def test_share_functions_sum_to_total():
    # Equal splits pay both endpoints the total; the other splits divide it.
    for split in ("equal", "matthew", "proportional"):
        game = gen_random_ccg(seed=11, n=6, density=0.6, split=split, alpha=(F(1, 2),))
        for ei in range(len(game.graph.edges)):
            for x, y in ((F(1), F(2)), (F(1, 3), F(0)), (F(0), F(0)), (F(2), F(2))):
                total = game.functions[ei].total(x, y)
                r_u, r_v = game.endpoint_rewards(ei, x, y)
                if split == "equal":
                    assert (r_u, r_v) == (total, total)
                else:
                    assert r_u + r_v == total


def test_stake_identity_pointwise():
    # The friendship-weighted stakes of the two endpoints always sum to
    # (1 + alpha1) times the sum of their rewards, at every contribution
    # pair: twice the total under equal splits, the total otherwise.
    for split in ("equal", "matthew", "proportional"):
        game = gen_random_ccg(seed=7, n=6, density=0.6, split=split, alpha=(F(1, 2),))
        a1 = game.friendship.alpha1
        paid = 2 if split == "equal" else 1
        for ei in range(len(game.graph.edges)):
            for x, y in ((F(1), F(2)), (F(1, 2), F(3)), (F(2), F(2))):
                r_u, r_v = game.endpoint_rewards(ei, x, y)
                gu = r_u + a1 * r_v
                gv = r_v + a1 * r_u
                assert gu + gv == (1 + a1) * paid * game.functions[ei].total(x, y)


def test_matching_to_equilibrium_single_edge():
    game = single_edge_game()
    profile = matching_to_equilibrium(game, Matching.of(2, [(0, 1)]))
    rows = dense_rows(game, profile)
    assert rows[0][0] == 1 and rows[1][0] == 1
    # Equal split pays the full edge reward to each endpoint.
    assert node_rewards(game, profile) == (F(1), F(1))
    assert total_reward(game, profile) == 1
    assert is_pairwise_equilibrium(game, profile).is_equilibrium


def test_matching_to_equilibrium_rejects_unstable():
    game = budget_path_game(mode=ATMOST)
    # Leaving the adjacent pair (2, 3) unmatched makes the matching unstable.
    partial = Matching.of(4, [(0, 1)])
    inst = corresponding_matching_game(game)
    assert not is_stable(inst, partial).stable
    with pytest.raises(NotStableError):
        matching_to_equilibrium(game, partial)


def test_matching_to_equilibrium_path_middle():
    game = budget_path_game(mode=ATMOST)
    profile = matching_to_equilibrium(game, Matching.of(4, [(1, 2)]))
    verdict = is_pairwise_equilibrium(game, profile)
    assert verdict.is_equilibrium
    assert verdict.certificate == "grid-certified"
    assert total_reward(game, profile) == 1


@pytest.mark.parametrize("split", ["equal", "matthew", "proportional"])
def test_matching_to_equilibrium_reward_equals_matching_value(split):
    checked = 0
    for seed in range(12):
        game = gen_random_ccg(seed=seed, n=6, density=0.5, split=split, alpha=(F(1, 2),))
        inst = corresponding_matching_game(game)
        for matched in enumerate_stable_matchings(inst)[:2]:
            profile = matching_to_equilibrium(game, matched)
            assert total_reward(game, profile) == matching_value(inst, matched)
            assert is_pairwise_equilibrium(game, profile).is_equilibrium, (split, seed)
            checked += 1
    assert checked >= 10


def test_all_zero_profile_not_pe():
    game = single_edge_game()
    profile = profile_from_rows(game, [[F(0)], [F(0)]])
    verdict = is_pairwise_equilibrium(game, profile)
    assert not verdict.is_equilibrium
    assert verdict.witness.kind == "bilateral"


def test_budget_path_exact_mode_rejects_middle_profile():
    game = budget_path_game()
    profile = middle_profile(game, endpoints_on_outer=True)
    verdict = is_pairwise_equilibrium(game, profile)
    assert not verdict.is_equilibrium
    w = verdict.witness
    assert w.kind == "pair-split"
    assert w.nodes == (1, 2)
    assert w.utilities_before == (F(3, 2), F(3, 2))
    assert w.utilities_after == (F(19, 10), F(19, 10))


def test_budget_path_atmost_middle_is_pe():
    game = budget_path_game(mode=ATMOST)
    profile = middle_profile(game, endpoints_on_outer=False)
    assert is_pairwise_equilibrium(game, profile).is_equilibrium


def test_tight_social_optimum_single_edge():
    game = single_edge_game()
    rows = dense_rows(game, tight_social_optimum(game))
    assert rows[0][0] == 1 and rows[1][0] == 1


def test_tight_social_optimum_path_outer():
    game = budget_path_game()
    profile = tight_social_optimum(game)
    rows = dense_rows(game, profile)
    assert rows[0][0] == 1 and rows[1][0] == 1
    assert rows[2][2] == 1 and rows[3][2] == 1
    inst = corresponding_matching_game(game)
    assert total_reward(game, profile) == max_weight_matching(inst)[1]


def test_tight_social_optimum_star_best_spoke():
    game = ContributionGame(
        graph=Graph(4, ((0, 1), (0, 2), (0, 3))),
        budgets=(F(1),) * 4,
        functions=(
            RewardFunction("product", F(1)),
            RewardFunction("product", F(3)),
            RewardFunction("product", F(2)),
        ),
        splits=("equal",) * 3,
        friendship=FriendshipVector(),
        mode=ATMOST,
    )
    profile = tight_social_optimum(game)
    rows = dense_rows(game, profile)
    assert rows[0][1] == 1 and rows[2][1] == 1
    assert total_reward(game, profile) == 3


def test_forbidden_edge_small_eps():
    game = budget_path_game(F(1, 20))
    assert detect_forbidden_edges(game) == ((1, 2),)


def test_forbidden_edge_large_eps_not_forbidden():
    game = budget_path_game(F(1, 2))
    assert detect_forbidden_edges(game) == ()


def test_forbidden_requires_pendant_partners():
    # A 4-cycle has no degree-1 nodes, so nothing can be forbidden.
    game = ContributionGame(
        graph=Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3))),
        budgets=(F(1),) * 4,
        functions=tuple(RewardFunction("product", F(1)) for _ in range(4)),
        splits=("equal",) * 4,
        friendship=FriendshipVector((F(1, 2),)),
        mode=EXACT,
    )
    assert detect_forbidden_edges(game) == ()


def test_forbidden_preconditions():
    with pytest.raises(InstanceError):
        detect_forbidden_edges(budget_path_game(mode=ATMOST))
    with pytest.raises(InstanceError):
        detect_forbidden_edges(budget_path_game(alpha=(F(1, 2), F(1, 4))))


def test_tight_budget_equilibrium_budget_path():
    game = budget_path_game()
    profile = tight_budget_equilibrium(game)
    rows = dense_rows(game, profile)
    assert rows[0][0] == 1 and rows[1][0] == 1
    assert rows[2][2] == 1 and rows[3][2] == 1
    verdict = is_pairwise_equilibrium(game, profile)
    assert verdict.is_equilibrium
    a = F(1, 2)
    optimum = total_reward(game, tight_social_optimum(game))
    assert total_reward(game, profile) >= (1 + 2 * a) / (2 + 2 * a) * optimum


def test_tight_budget_equilibrium_no_forbidden_edges_matches_saturation():
    game = ContributionGame(
        graph=Graph(4, ((0, 1), (2, 3))),
        budgets=(F(1),) * 4,
        functions=(RewardFunction("product", F(2)), RewardFunction("product", F(1))),
        splits=("equal",) * 2,
        friendship=FriendshipVector((F(1, 2),)),
        mode=EXACT,
    )
    profile = tight_budget_equilibrium(game)
    inst = corresponding_matching_game(game)
    matched = enumerate_stable_matchings(inst)[0]
    assert profile == saturated_profile(game, matched)


def test_tight_budget_equilibrium_random_sweep():
    checked = 0
    for seed in range(15):
        game = gen_random_ccg(
            seed=seed, n=6, density=0.5, families=("product", "powprod"),
            split="equal", mode=EXACT, alpha=(F(1, 2),),
        )
        if not game.graph.edges:
            continue
        profile = tight_budget_equilibrium(game)
        assert is_pairwise_equilibrium(game, profile).is_equilibrium, seed
        a = game.friendship.alpha1
        optimum = total_reward(game, tight_social_optimum(game))
        assert total_reward(game, profile) >= (1 + 2 * a) / (2 + 2 * a) * optimum
        checked += 1
    assert checked >= 10


def test_exact_pe_also_atmost_pe():
    import dataclasses

    for seed in range(8):
        game = gen_random_ccg(
            seed=seed, n=5, density=0.6, families=("product",),
            split="equal", mode=EXACT, alpha=(F(1, 2),),
        )
        if not game.graph.edges:
            continue
        profile = tight_budget_equilibrium(game)
        if not is_pairwise_equilibrium(game, profile).is_equilibrium:
            continue
        relaxed_game = dataclasses.replace(game, mode=ATMOST)
        assert is_pairwise_equilibrium(relaxed_game, profile).is_equilibrium, seed


def spread_profile(game):
    """Every node spreads its budget evenly over its incident edges: all of
    it in exact mode, half of it in atmost mode."""
    rows = [[F(0)] * len(game.graph.edges) for _ in range(game.graph.n)]
    part = 1 if game.mode == EXACT else F(1, 2)
    for v in range(game.graph.n):
        incident = game.graph.incident_edges[v]
        for ei in incident:
            rows[v][ei] = part * game.budgets[v] / len(incident)
    return profile_from_rows(game, rows)


def witness_chain(game, profile, steps, grid_k):
    """Follow improving deviations from a profile, as the local search does;
    yields each profile together with its verdict."""
    for _ in range(steps):
        verdict = is_pairwise_equilibrium(game, profile, grid_k=grid_k)
        yield profile, verdict
        if verdict.witness is None:
            return
        profile = profile.with_rows(game, verdict.witness.nodes, verdict.witness.new_rows)


CHAIN_KINDS = ((ATMOST, "equal"), (ATMOST, "matthew"), (ATMOST, "proportional"), (EXACT, "equal"))


def test_witnesses_improve_under_full_recomputation():
    # Each witness's movers must strictly gain when the deviation is applied
    # to the whole profile, by exactly the reported utilities.
    witnesses = 0
    for seed in range(6):
        for mode, split in CHAIN_KINDS:
            game = gen_random_ccg(seed=seed, n=5, density=0.6, split=split, mode=mode, alpha=(F(1, 2),))
            if not game.graph.edges:
                continue
            for profile, verdict in witness_chain(game, spread_profile(game), 6, grid_k=4):
                w = verdict.witness
                if w is None:
                    continue
                before = perceived_utilities(game, profile)
                after = perceived_utilities(game, profile.with_rows(game, w.nodes, w.new_rows))
                assert w.utilities_before == tuple(before[v] for v in w.nodes), (seed, split)
                assert w.utilities_after == tuple(after[v] for v in w.nodes), (seed, split)
                assert all(after[v] > before[v] for v in w.nodes), (seed, split)
                witnesses += 1
    assert witnesses >= 100


def test_checker_deltas_match_full_recomputation():
    # The checker sums each candidate's utility changes per edge over integer
    # contributions; applying the candidate rows to the whole profile and
    # recomputing perceived utilities must give identical changes.  Profiles
    # are partly allocated (an even spread and the local-search states that
    # follow it), and every move class and every node is sampled.
    from socialmatch.ccg import _Checker

    kinds = set()
    for seed in range(5):
        for mode, split in CHAIN_KINDS:
            game = gen_random_ccg(
                seed=seed, n=5, density=0.6, families=("product", "min", "powprod"),
                split=split, mode=mode, alpha=(F(1, 2), F(1, 4)),
            )
            if not game.graph.edges:
                continue
            movers = {v for v in range(game.graph.n) if game.graph.incident_edges[v]}
            for profile, _ in witness_chain(game, spread_profile(game), 3, grid_k=4):
                checker = _Checker(game, profile, grid_k=4)
                before = perceived_utilities(game, profile)
                sampled = set()
                for i, (kind, nodes, rows, deltas) in enumerate(checker.moves()):
                    if i % 5:
                        continue
                    moved = profile.with_rows(game, nodes, [checker.to_fractions(r) for r in rows])
                    after = perceived_utilities(game, moved)
                    assert checker.utility_changes(deltas) == tuple(after[v] - before[v] for v in nodes), (
                        seed, split, kind, nodes,
                    )
                    kinds.add(kind)
                    sampled.update(nodes)
                assert sampled == movers, (seed, split)
    assert kinds == {"unilateral", "bilateral", "pair-split"}


def mixed_game(mode=ATMOST):
    """Every split, two min edges, powprod edges with k=2 and k=1, and the
    proportional edge (3, 4), on which every start profile below has both
    contributions at 0."""
    return ContributionGame(
        graph=Graph(6, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5))),
        budgets=(F(2), F(3), F(1), F(2), F(3, 2), F(1)),
        functions=(
            RewardFunction("product", F(3, 2)),
            RewardFunction("min", F(2)),
            RewardFunction("powprod", F(1, 3), k=2),
            RewardFunction("product", F(5, 2)),
            RewardFunction("product", F(1)),
            RewardFunction("powprod", F(1)),
            RewardFunction("min", F(2, 3)),
        ),
        splits=("equal", "equal", "matthew", "proportional", "proportional", "equal", "matthew"),
        friendship=FriendshipVector((F(1, 2), F(1, 4))),
        mode=mode,
        lam=(F(1), F(2), F(3), F(1), F(2), F(4)),
    )


def test_checker_deltas_on_mixed_game():
    # Every split, both reward shapes and an edge that starts at zero in one
    # game: the checker's changes equal a full recomputation.
    from socialmatch.ccg import _Checker

    atmost = {0: {0: F(1, 2), 1: F(1)}, 1: {0: F(1), 2: F(1)}, 2: {1: F(1, 3), 3: F(1, 2)},
              3: {3: F(1), 5: F(1, 2)}, 4: {6: F(1)}, 5: {6: F(1, 2)}}
    exact = {0: {0: F(1), 1: F(1)}, 1: {0: F(2), 2: F(1)}, 2: {1: F(1, 2), 3: F(1, 2)},
             3: {3: F(3, 2), 5: F(1, 2)}, 4: {6: F(3, 2)}, 5: {5: F(1, 2), 6: F(1, 2)}}
    kinds = set()
    for mode, spend in ((ATMOST, atmost), (EXACT, exact)):
        game = mixed_game(mode)
        start = profile_from_rows(game, [[spend[v].get(ei, F(0)) for ei in range(7)] for v in range(6)])
        assert start.amounts[4] == (0, 0)
        for profile, _ in witness_chain(game, start, 4, grid_k=4):
            checker = _Checker(game, profile, grid_k=4)
            before = perceived_utilities(game, profile)
            for i, (kind, nodes, rows, deltas) in enumerate(checker.moves()):
                if i % 3:
                    continue
                moved = profile.with_rows(game, nodes, [checker.to_fractions(r) for r in rows])
                after = perceived_utilities(game, moved)
                assert checker.utility_changes(deltas) == tuple(after[v] - before[v] for v in nodes), (mode, kind, nodes)
                kinds.add(kind)
    assert kinds == {"unilateral", "bilateral", "pair-split"}


def test_corresponding_mixed_splits_are_oblivious_shares():
    # Mixed splits give fixed shares of the full-budget reward: half each on
    # equal edges, lambda_u : lambda_v on matthew edges, b_u : b_v on
    # proportional edges.
    game = mixed_game()
    inst = corresponding_matching_game(game)
    assert isinstance(inst.sharing, ObliviousSharing)
    b, lam = game.budgets, game.lam
    expected = []
    for ei, (u, v) in enumerate(game.graph.edges):
        r = game.functions[ei].total(b[u], b[v])
        weight_u, weight_v = {"equal": (1, 1), "matthew": (lam[u], lam[v]), "proportional": (b[u], b[v])}[game.splits[ei]]
        expected.append((weight_u * r / (weight_u + weight_v), weight_v * r / (weight_u + weight_v)))
    assert inst.shares == tuple(expected)
    assert inst.shares[0] == (F(9, 2), F(9, 2))  # product 3/2 * 2 * 3, halved
    assert inst.shares[2] == (F(6, 5), F(9, 5))  # powprod 1/3 * (3 * 1)**2, lambda 2 : 3
    assert inst.shares[3] == (F(5, 3), F(10, 3))  # product 5/2 * 1 * 2, budgets 1 : 2


def test_ccg_audit_single_edge():
    report = ccg_audit(single_edge_game())
    assert report.optimum == 1
    assert report.worst_ratio == 1
    assert report.checked and report.passed


def test_ccg_audit_without_equilibria_is_unchecked():
    # Min rewards are not convex: here the one stable matching, saturated, is
    # not an equilibrium and the local search gives up, so nothing is certified.
    game = gen_random_ccg(seed=0, n=5, density=0.7, families=("min",), split="matthew")
    report = ccg_audit(game)
    assert report.equilibrium_values == ()
    assert report.worst_ratio is None
    assert not report.checked
    assert not report.passed
    doc = report.to_dict()
    assert doc["checked"] is False and doc["passed"] is False


@pytest.mark.parametrize("seed", range(4))
def test_ccg_audit_certifies_the_local_search_profile_once(monkeypatch, seed):
    # _local_search returns only a profile it has just certified, so the
    # audit takes it without a second check.
    game = gen_random_ccg(seed=seed, n=6, density=0.6, split="equal", alpha=(F(1, 2), F(1, 4)))
    searched = ccg._local_search(game, tight_social_optimum(game), DEFAULT_GRID_K)
    assert searched is not None
    instance = corresponding_matching_game(game)
    stable = [saturated_profile(game, m) for m in enumerate_stable_matchings(instance)]
    checked = []

    def certify(g, profile, **kwargs):
        checked.append(profile)
        return is_pairwise_equilibrium(g, profile, **kwargs)

    monkeypatch.setattr(ccg, "is_pairwise_equilibrium", certify)
    report = ccg_audit(game)
    assert report.equilibrium_sources[-1] == "local-search-optimum"
    assert checked.count(searched) == 1 + stable.count(searched)


@pytest.mark.parametrize("split,families", [("equal", ("product", "powprod")), ("matthew", ("product",))])
def test_ccg_audit_sweep(split, families):
    for seed in range(10):
        game = gen_random_ccg(seed=seed, n=5, density=0.6, families=families, split=split, alpha=(F(1, 2),))
        if not game.graph.edges:
            continue
        report = ccg_audit(game)
        assert report.passed, (split, seed, report.to_dict())
        if split == "equal":
            assert report.bound == 2


def test_perceived_utilities_alpha_weighting():
    game = budget_path_game(mode=ATMOST)
    profile = middle_profile(game, endpoints_on_outer=False)
    utilities = perceived_utilities(game, profile)
    # Equal split convention: nodes 1 and 2 each enjoy the full middle reward
    # plus half the partner's identical reward.
    assert utilities[1] == F(3, 2)
    assert utilities[0] == F(1, 2)


def test_profile_validation():
    game = single_edge_game()
    with pytest.raises(InstanceError):
        profile_from_rows(game, [[F(2)], [F(0)]])  # overspend
    with pytest.raises(InstanceError):
        profile_from_rows(game, [[F(-1)], [F(0)]])
    exact = single_edge_game(mode=EXACT)
    with pytest.raises(InstanceError):
        profile_from_rows(exact, [[F(1, 2)], [F(1)]])


def test_grid_k_below_one_is_rejected():
    game = single_edge_game()
    profile = profile_from_rows(game, [[F(0)], [F(0)]])
    for k in (0, -2):
        with pytest.raises(InstanceError, match="grid_k"):
            is_pairwise_equilibrium(game, profile, grid_k=k)
        with pytest.raises(InstanceError, match="grid_k"):
            ccg_audit(game, grid_k=k)


def test_reward_exponent_must_be_a_positive_int():
    # A float exponent would put floats into rewards, and the checker's
    # integer kernel needs an integer power.
    for family in ("product", "min", "powprod"):
        for k in (2.0, 2.5, True, 0, -1, "2", F(2)):
            with pytest.raises(InstanceError, match="exponent"):
                RewardFunction(family, F(1), k=k)
    assert RewardFunction("powprod", F(1), k=2).total(F(1, 2), F(1, 3)) == F(1, 36)
    doc = {"nodes": 2, "budgets": ["1", "1"], "functions": [{"edge": [0, 1], "family": "powprod", "c": "1", "k": 2.5}]}
    with pytest.raises(InstanceError, match="exponent"):
        ccg_from_dict(doc)


def test_exact_mode_requires_edge_for_budgeted_nodes():
    with pytest.raises(InstanceError):
        ContributionGame(
            graph=Graph(2, ()),
            budgets=(F(1), F(0)),
            functions=(),
            splits=(),
            friendship=FriendshipVector(),
            mode=EXACT,
        )


def test_ccg_json_round_trip():
    for split in ("equal", "matthew", "proportional"):
        game = gen_random_ccg(seed=4, n=5, density=0.7, split=split, mode=ATMOST, alpha=(F(1, 2),))
        again = ccg_from_json(ccg_to_json(game))
        assert again == game


def test_profile_json_round_trip():
    game = budget_path_game()
    profile = tight_budget_equilibrium(game)
    doc = profile.to_dict(game)
    assert StrategyProfile.from_dict(doc, game) == profile
