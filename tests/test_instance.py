import dataclasses
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    UndefinedRatioError,
    compute_Q,
    compute_R,
    instance_from_json,
    instance_to_json,
)
from helpers import (
    ALPHA_SAMPLES,
    PATH3,
    build_distances,
    dense_perceived,
    profile_from_rows,
    oblivious_instance,
    path3_equal,
    stake_table,
)
from socialmatch.ccg import ContributionGame, RewardFunction, StrategyProfile, node_rewards, perceived_utilities
from socialmatch.generators import gen_matthew_poa_tight, gen_random
from socialmatch.matching import Matching, perceived_utility, utility_profile
from socialmatch.rationals import rat, rescale


def test_distances_single_edge():
    d = build_distances(Graph(2, ((0, 1),)))
    assert d[0][1] == 1
    assert d[0][0] == 0


def test_distances_path():
    d = build_distances(PATH3)
    assert d[0][3] == 3
    assert d[1][3] == 2


def test_distances_disconnected():
    d = build_distances(Graph(2, ()))
    assert d[0][1] is None
    inst = GameInstance(Graph(2, ()), (), EqualSharing(), FriendshipVector((F(1, 2),)))
    assert inst.friendship.at(build_distances(inst.graph)[0][1]) == 0


def _random_matching(rng: random.Random, graph: Graph) -> Matching:
    edges = list(graph.edges)
    rng.shuffle(edges)
    used: set[int] = set()
    pairs = []
    for u, v in edges:
        if u not in used and v not in used and rng.random() < 0.7:
            used.update((u, v))
            pairs.append((u, v))
    return Matching.of(graph.n, pairs)


def _random_contribution_game(rng: random.Random, inst: GameInstance) -> tuple[ContributionGame, StrategyProfile]:
    graph = inst.graph
    game = ContributionGame(
        graph=graph,
        budgets=tuple(F(rng.randint(0, 3)) for _ in range(graph.n)),
        functions=tuple(RewardFunction("product", F(rng.randint(1, 4), rng.choice((1, 2)))) for _ in graph.edges),
        splits=tuple(rng.choice(("equal", "proportional")) for _ in graph.edges),
        friendship=inst.friendship,
    )
    rows = [[F(0)] * len(graph.edges) for _ in range(graph.n)]
    for v, incident in enumerate(graph.incident_edges):
        for ei in incident:
            rows[v][ei] = game.budgets[v] * rng.randint(0, 2) / (2 * len(incident))
    return game, profile_from_rows(game, rows)


@pytest.mark.parametrize("rule", ["equal", "matthew", "parasite", "trust", "oblivious"])
@pytest.mark.parametrize("alpha", ALPHA_SAMPLES + ((F(1, 2), F(0)),))
def test_alpha_rows_and_perceived_utilities_match_dense_reference(rule, alpha):
    # The sparse rows must hold exactly the nonzero coefficients of the dense
    # distance table, and every perceived-utility function must equal the
    # definition evaluated on that table.
    rng = random.Random(f"{rule}-{alpha}")
    disconnected = 0
    for n in range(2, 13):
        for density in (0.15, 0.5):
            inst = gen_random(seed=rng.randrange(10**6), n=n, density=density, rule=rule, alpha=alpha)
            dist = build_distances(inst.graph)
            disconnected += any(d is None for row in dist for d in row)
            at = inst.friendship.at
            for v in range(n):
                dense = {u: at(d) for u, d in enumerate(dist[v]) if u != v and at(d)}
                assert inst.alpha_rows[v] == dense, (n, v)

            for m in (Matching.empty(n), _random_matching(rng, inst.graph), _random_matching(rng, inst.graph)):
                want = tuple(dense_perceived(inst, m, v) for v in range(n))
                assert utility_profile(inst, m).perceived == want
                assert tuple(perceived_utility(inst, m, v) for v in range(n)) == want

            game, profile = _random_contribution_game(rng, inst)
            assert game.alpha_rows == inst.alpha_rows
            rewards = node_rewards(game, profile)
            want = tuple(
                rewards[v] + sum((at(dist[v][u]) * rewards[u] for u in range(n) if u != v), F(0))
                for v in range(n)
            )
            assert perceived_utilities(game, profile) == want
    assert disconnected > 0


@pytest.mark.parametrize(
    "alpha", [(F(1, 2),), (F(1, 2), F(1, 4)), (F(3, 4), F(1, 2), F(1, 4)), (F(1, 2), F(0), F(0))]
)
def test_alpha_rows_on_a_long_path_stay_within_reach(alpha):
    # A row holds the nodes within L hops, L the number of nonzero entries of
    # alpha: at most 2L on a path, however long the path is.
    n = 20000
    friendship = FriendshipVector(alpha)
    reach = sum(1 for a in friendship.alpha if a)
    rows = friendship.rows(Graph(n, tuple((v, v + 1) for v in range(n - 1))))
    assert max(len(row) for row in rows) == 2 * reach
    mid = n // 2
    assert rows[mid] == {mid + s * d: friendship.at(d) for d in range(1, reach + 1) for s in (-1, 1)}
    assert rows[0] == {d: friendship.at(d) for d in range(1, reach + 1)}


def test_graph_rejects_self_loop_and_parallel():
    with pytest.raises(InstanceError):
        Graph(2, ((0, 0),))
    with pytest.raises(InstanceError):
        Graph(2, ((0, 1), (1, 0)))
    with pytest.raises(InstanceError):
        Graph(2, ((0, 2),))


def test_friendship_vector_monotonicity_enforced():
    FriendshipVector((F(1), F(1)))
    FriendshipVector((F(1, 2), F(1, 4), F(0)))
    with pytest.raises(InstanceError):
        FriendshipVector((F(1, 4), F(1, 2)))
    with pytest.raises(InstanceError):
        FriendshipVector((F(3, 2),))
    fv = FriendshipVector((F(1, 2),))
    assert fv.at(1) == F(1, 2)
    assert fv.at(2) == 0
    assert fv.at(None) == 0


def test_reward_share_matthew_symmetric():
    inst = GameInstance(
        Graph(2, ((0, 1),)), (F(2),), MatthewSharing(lam=(F(1), F(1))), FriendshipVector()
    )
    assert inst.shares[0] == (1, 1)


def test_reward_share_matthew_tight_gadget():
    # lambda_u = 1 against lambda_w = R on an edge of reward R+1 leaves u with 1.
    for R in (2, 3, 10):
        inst = GameInstance(
            Graph(2, ((0, 1),)),
            (F(R + 1),),
            MatthewSharing(lam=(F(1), F(R))),
            FriendshipVector(),
        )
        assert inst.shares[0] == (1, R)


def test_reward_share_trust():
    inst = GameInstance(
        Graph(2, ((0, 1),)),
        (2 * F(2) + F(1) + F(3),),
        TrustSharing(beta=(F(1), F(3)), h=(F(2),)),
        FriendshipVector(),
    )
    # Share of node 0 is h + beta of the partner.
    assert inst.shares[0] == (F(5), F(3))


def test_edge_reward_rejects_non_edge():
    inst = path3_equal((1, 2, 3))
    assert inst.edge_reward(2, 1) == 2
    with pytest.raises(InstanceError, match=r"\(0,2\) is not an edge"):
        inst.edge_reward(0, 2)
    # A negative id must not wrap to the last node, which is adjacent to 2.
    assert not inst.graph.has_edge(-1, 2)
    assert not inst.graph.has_edge(0, 4)
    with pytest.raises(InstanceError, match=r"\(-1,2\) is not an edge"):
        inst.edge_reward(-1, 2)


def test_arc_numbering():
    # Arc start[x] + j is (x, adjacency[x][j]); twin, head and arc_edge agree
    # with it, and an arc runs from the smaller endpoint exactly when its id
    # is below its twin's.
    graphs = [Graph(0, ()), Graph(3, ()), Graph(4, ((0, 1), (1, 2), (2, 3)))]
    graphs += [gen_random(seed=seed, n=n, density=0.4).graph for seed in range(4) for n in (2, 7, 15)]
    for graph in graphs:
        arcs = [(x, y) for x in range(graph.n) for y in graph.adjacency[x]]
        assert len(arcs) == 2 * len(graph.edges) == graph.start[-1]
        assert graph.start == [sum(map(len, graph.adjacency[:x])) for x in range(graph.n + 1)]
        assert [a for row in graph.arc for a in row.values()] == list(range(len(arcs)))
        for a, (x, y) in enumerate(arcs):
            assert graph.arc[x][y] == a and graph.head[a] == y
            assert arcs[graph.twin[a]] == (y, x)
            assert graph.edges[graph.arc_edge[a]] == (min(x, y), max(x, y))
            assert (a < graph.twin[a]) == (x < y)


def test_compute_R_equal_is_one():
    assert compute_R(path3_equal((1, 5, F(1, 3)))) == 1


def test_compute_R_oblivious_single_edge():
    inst = oblivious_instance(Graph(2, ((0, 1),)), {(0, 1): (3, 1)})
    assert compute_R(inst) == 3


def test_compute_R_matthew_gadget():
    for R in (1, 2, 5, 10):
        assert compute_R(gen_matthew_poa_tight(R)) == R


def test_compute_R_zero_share_errors():
    inst = oblivious_instance(Graph(2, ((0, 1),)), {(0, 1): (4, 0)})
    with pytest.raises(UndefinedRatioError):
        compute_R(inst)


def test_compute_Q_cases():
    assert compute_Q(path3_equal(alpha=(F(1, 2),))) == 1
    inst = oblivious_instance(Graph(2, ((0, 1),)), {(0, 1): (3, 1)})
    assert compute_Q(inst) == 3  # alpha1 = 0 gives Q = R
    big = gen_matthew_poa_tight(10**6)
    big_q = GameInstance(big.graph, big.rewards, big.sharing, FriendshipVector((F(1, 2),)))
    q = compute_Q(big_q)
    assert q < 2 and q > 2 - F(1, 100000)  # Q approaches 2 as R grows at alpha1=1/2


def test_q_value_equal():
    inst = path3_equal((1, 2, 1), alpha=(F(1, 2),))
    # Middle edge reward 2: share 1 each, q = 1 + 1/2.  Equal sharing pays
    # both endpoints the full reward, so each stake is twice the q-value.
    assert stake_table(inst)[1][2][0] == 2 * F(3, 2)
    assert stake_table(inst)[2][1][0] == 2 * F(3, 2)


def test_q_value_friendship_rs_shares():
    for R, a1 in ((2, F(1, 2)), (5, F(1, 4)), (3, F(1))):
        denom = 1 + a1 * R
        inst = oblivious_instance(
            Graph(2, ((0, 1),)), {(0, 1): (1 / denom, R / denom)}, alpha=(a1,)
        )
        assert stake_table(inst)[0][1][0] == 1
        assert stake_table(inst)[1][0][0] == (R + a1) / (1 + a1 * R)


def test_q_value_no_friendship_is_share():
    inst = oblivious_instance(Graph(2, ((0, 1),)), {(0, 1): (3, 2)})
    assert stake_table(inst)[0][1][0] == 3
    assert stake_table(inst)[1][0][0] == 2


@pytest.mark.parametrize("rule", ["equal", "matthew", "parasite", "trust", "oblivious"])
@pytest.mark.parametrize("alpha", ALPHA_SAMPLES)
def test_share_sum_and_q_identity(rule, alpha):
    for seed in range(8):
        inst = gen_random(seed=seed, n=7, density=0.5, rule=rule, alpha=alpha)
        a1 = inst.friendship.alpha1
        stake_per_q = 2 if rule == "equal" else 1  # equal sharing pays both ends the full reward
        for i, (u, v) in enumerate(inst.graph.edges):
            su, sv = inst.shares[i]
            assert su + sv == inst.rewards[i]
            qu, qv = stake_table(inst)[u][v][0], stake_table(inst)[v][u][0]
            assert (qu, qv) == (stake_per_q * (su + a1 * sv), stake_per_q * (sv + a1 * su))
            assert qu + qv == stake_per_q * (1 + a1) * inst.rewards[i]


@pytest.mark.parametrize("alpha", ALPHA_SAMPLES)
def test_Q_dominates_q_ratios(alpha):
    for seed in range(10):
        inst = gen_random(seed=seed, n=7, density=0.5, rule="oblivious", alpha=alpha)
        try:
            q_param = compute_Q(inst)
            r_param = compute_R(inst)
        except UndefinedRatioError:
            continue
        attained = F(0)
        for u, v in inst.graph.edges:
            qu, qv = stake_table(inst)[u][v][0], stake_table(inst)[v][u][0]
            if qu > 0 and qv > 0:
                attained = max(attained, qu / qv, qv / qu)
        assert attained <= q_param
        # Equality whenever some edge realizes the extreme share ratio R.
        shares_ratios = {max(a / b, b / a) for a, b in inst.shares}
        if r_param in shares_ratios:
            assert attained == q_param


def test_parasite_is_matthew_with_inverted_lambda():
    for seed in range(6):
        par = gen_random(seed=seed, n=6, density=0.6, rule="parasite", alpha=(F(1, 2),))
        lam_inv = tuple(1 / x for x in par.sharing.lam)
        mat = GameInstance(
            par.graph, par.rewards, MatthewSharing(lam=lam_inv), par.friendship
        )
        assert par.shares == mat.shares


def test_json_round_trip_exact():
    for rule in ("equal", "matthew", "parasite", "trust", "oblivious"):
        inst = gen_random(seed=3, n=6, density=0.6, rule=rule, alpha=(F(1, 2), F(1, 4)))
        again = instance_from_json(instance_to_json(inst))
        assert again == inst


def test_json_parses_decimal_and_fraction_strings():
    doc = {
        "nodes": 2,
        "edges": [{"u": 1, "v": 0, "r": "0.25"}],
        "sharing": {"rule": "oblivious", "shares": [{"u": "0.2", "v": "1/20"}]},
        "alpha": ["0.5"],
    }
    import json

    inst = instance_from_json(json.dumps(doc))
    assert inst.rewards == (F(1, 4),)
    # "u" share belongs to node 1 as written, flipped into canonical order.
    assert inst.shares[0] == (F(1, 20), F(1, 5))
    assert inst.friendship.alpha1 == F(1, 2)


def _parsed(parse, text):
    """parse(text), or the type and message of what it raised."""
    try:
        return parse(text)
    except Exception as exc:  # the comparison is over every failure
        return type(exc), str(exc)


def _fraction_reference(text):
    """What ``rat`` promises for a string: ``Fraction`` of it stripped, with
    a zero denominator reported as an ``InstanceError``."""
    try:
        return F(text.strip())
    except ZeroDivisionError:
        raise InstanceError(f"zero denominator in {text!r}") from None


RAT_CASES = ("3/0", "-0/5", "007/010", "+3/4", "1_000", "0.25", "1e3", " 3/4 ", "3 /4", "\u0663/4")
RAT_CASES += ("-", "3/", "", "--3", "3/-4", "3/4/5", "-3/4")


@pytest.mark.parametrize(
    "text", RAT_CASES + ("7" * 5000, "-" + "7" * 5000 + "/3", "3/" + "7" * 5000, "7" * 5000 + "/" + "7" * 6000)
)
def test_rat_matches_fraction_on_pinned_strings(text):
    # 5,000 digits is past Python's limit on converting digit strings to
    # int, so those fail with the ValueError that Fraction gives; with both
    # parts too long, the message names the numerator's length.
    assert _parsed(rat, text) == _parsed(_fraction_reference, text)


@given(st.text(alphabet="0123456789\u0663-+/.e_ ", max_size=12))
@settings(max_examples=600, derandomize=True, database=None, deadline=None)
def test_rat_matches_fraction_on_generated_strings(text):
    expected = _parsed(_fraction_reference, text)
    got = _parsed(rat, text)
    assert got == expected
    if isinstance(expected, F):
        assert type(got) is F


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda x: path3_equal((1, x, 1)), "edge (1, 2) has nonpositive reward"),
        (lambda x: oblivious_instance(PATH3, {(0, 1): (1, 1), (1, 2): (x - 1, 3), (2, 3): (1, 1)}), "negative share on edge (1, 2)"),
        (lambda x: dataclasses.replace(gen_matthew_poa_tight(2), sharing=MatthewSharing(lam=(1, x, 1, 1))), "lambda of node 1 must be positive"),
        (lambda x: GameInstance(PATH3, (2 + x, 2 + x, 2), TrustSharing(beta=(2, x, 0, 0), h=(0, 1, 1)), FriendshipVector()), "beta of node 1 must be nonnegative"),
        (lambda x: GameInstance(PATH3, (4, 2 * x + 4, 4), TrustSharing(beta=(0, 2, 2, 0), h=(1, x, 1)), FriendshipVector()), "h of edge (1, 2) must be nonnegative"),
    ],
)
def test_sign_checks_reject_with_their_messages(build, message):
    # Each value is tried as a Fraction and as an int, below 0 and, where
    # 0 is not allowed either, at 0; the other values keep the instance
    # valid, as the last build shows.
    for x in (F(0), F(-1), 0, -1, F(-1, 3)):
        if "nonnegative" in message and x == 0:
            continue
        with pytest.raises(InstanceError) as info:
            build(x)
        assert str(info.value).startswith(message), (message, x)
    build(F(1))


def test_trust_json_rewards_derived_when_omitted():
    import json

    doc = {
        "nodes": 2,
        "edges": [{"u": 0, "v": 1}],
        "sharing": {"rule": "trust", "beta": ["1", "3"], "h": ["2"]},
        "alpha": [],
    }
    inst = instance_from_json(json.dumps(doc))
    assert inst.rewards == (F(8),)  # 2h + beta_0 + beta_1
    doc["edges"][0]["r"] = "9"
    with pytest.raises(InstanceError):
        instance_from_json(json.dumps(doc))


def test_trust_reward_consistency_enforced():
    with pytest.raises(InstanceError):
        GameInstance(
            Graph(2, ((0, 1),)),
            (F(10),),
            TrustSharing(beta=(F(1), F(1)), h=(F(1),)),
            FriendshipVector(),
        )


@given(
    st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=12), min_size=0, max_size=4
    )
)
@settings(max_examples=60, deadline=None)
def test_friendship_vector_accepts_any_sorted_tail(values):
    ordered = tuple(sorted(values, reverse=True))
    fv = FriendshipVector(ordered)
    assert all(fv.at(d + 1) == ordered[d] for d in range(len(ordered)))
    assert fv.at(len(ordered) + 5) == 0


@given(
    r=st.fractions(min_value=F(1, 10), max_value=50, max_denominator=20),
    t=st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=100),
    a1=st.fractions(min_value=0, max_value=1, max_denominator=16),
)
@settings(max_examples=120, deadline=None)
def test_single_edge_share_and_q_identities(r, t, a1):
    inst = oblivious_instance(Graph(2, ((0, 1),)), {(0, 1): (t * r, (1 - t) * r)}, alpha=(a1,))
    assert sum(inst.shares[0]) == r
    q0, q1 = stake_table(inst)[0][1][0], stake_table(inst)[1][0][0]
    assert q0 + q1 == (1 + a1) * r
    if q0 > 0 and q1 > 0:
        assert max(q0 / q1, q1 / q0) <= compute_Q(inst)


def _fraction_shares(instance):
    """The shares by each rule's formula, restated in ``Fraction``s."""
    s = instance.sharing
    out = []
    for i, (u, v) in enumerate(instance.graph.edges):
        r = instance.rewards[i]
        if s.rule == "equal":
            out.append((r / 2, r / 2))
        elif s.rule == "oblivious":
            out.append(tuple(s.shares[i]))
        elif s.rule in ("matthew", "parasite"):
            tot = s.lam[u] + s.lam[v]
            mine, theirs = (s.lam[u] / tot * r, s.lam[v] / tot * r)
            out.append((mine, theirs) if s.rule == "matthew" else (theirs, mine))
        else:
            out.append((s.h[i] + s.beta[v], s.h[i] + s.beta[u]))
    return tuple(out)


def _assert_images_match(instance):
    shares = _fraction_shares(instance)
    assert instance.shares == shares
    assert all(type(x) is F for pair in instance.shares for x in pair)
    ends = [(r, r) for r in instance.rewards] if instance.sharing.rule == "equal" else shares
    a1, a2 = instance.friendship.alpha1, instance.friendship.alpha2
    unit, _ = rescale(e for pair in ends for e in pair)
    scale, columns = instance.verdict_table
    assert scale == unit * math.lcm(a1.denominator, a2.denominator)
    arc = instance.graph.arc
    for (u, v), (eu, ev) in zip(instance.graph.edges, ends):
        for x, y, ex, ey in ((u, v, eu, ev), (v, u, ev, eu)):
            terms = tuple(F(column[arc[x][y]], scale) for column in columns)
            assert terms == (ex + a1 * ey, ex, a1 * ex, a1 * ey, a2 * ey)


COPRIME = (F(1, 2), F(2, 3), F(4, 5), F(6, 7), F(10, 11), F(12, 13))


@pytest.mark.parametrize("rule", ["equal", "matthew", "parasite", "trust", "oblivious"])
def test_endpoint_images_match_fraction_shares(rule):
    # The integer images of the endpoint rewards, and the Fraction shares read
    # from them, equal the per-rule formula evaluated in Fractions.
    for seed in range(12):
        alpha = ALPHA_SAMPLES[seed % len(ALPHA_SAMPLES)]
        _assert_images_match(gen_random(seed=seed, n=9, density=0.5, rule=rule, alpha=alpha))
    # Pairwise coprime denominators, so no two of them share a factor.
    graph = Graph(6, ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)))
    rewards = (F(3, 17), F(5, 19), F(7, 23), F(1, 29), F(9, 31), F(2))
    if rule == "equal":
        sharing = EqualSharing()
    elif rule in ("matthew", "parasite"):
        sharing = (MatthewSharing if rule == "matthew" else ParasiteSharing)(lam=COPRIME)
    elif rule == "trust":
        h = (F(1, 37), F(0), F(2, 41), F(3, 43), F(1, 47), F(5))
        sharing = TrustSharing(beta=COPRIME, h=h)
        rewards = tuple(2 * h[i] + COPRIME[u] + COPRIME[v] for i, (u, v) in enumerate(graph.edges))
    else:
        sharing = ObliviousSharing(shares=tuple((r * COPRIME[i], r * (1 - COPRIME[i])) for i, r in enumerate(rewards)))
    _assert_images_match(GameInstance(graph, rewards, sharing, FriendshipVector((F(3, 53), F(1, 59)))))


def test_endpoint_images_zero_shares():
    # Zero oblivious shares and zero trust shares (h = 0 and beta = 0).
    _assert_images_match(oblivious_instance(PATH3, {(0, 1): (0, 3), (1, 2): (F(1, 2), 0), (2, 3): (F(2, 3), F(1, 3))}))
    trust = GameInstance(
        PATH3,
        (F(1, 2), F(1, 2), F(2, 3)),
        TrustSharing(beta=(F(0), F(0), F(1, 2), F(1, 6)), h=(F(1, 4), F(0), F(0))),
        FriendshipVector((F(1, 2),)),
    )
    _assert_images_match(trust)
    assert trust.shares[1] == (F(1, 2), F(0))


def test_trust_reward_contradiction_messages():
    doc = {
        "nodes": 3,
        "edges": [{"u": 2, "v": 0, "r": "5"}, {"u": 1, "v": 0}],
        "sharing": {"rule": "trust", "beta": ["1/2", "1/3", "1/7"], "h": ["1/5", "0"]},
    }
    with pytest.raises(InstanceError) as exc:
        instance_from_json(json.dumps(doc))
    assert str(exc.value) == "trust edge (0, 2): stated reward 5 != 2h+beta_u+beta_v=73/70"
    doc["edges"][0]["r"] = "73/70"
    assert instance_from_json(json.dumps(doc)).rewards == (F(5, 6), F(73, 70))
    with pytest.raises(InstanceError) as exc:
        GameInstance(
            Graph(3, ((0, 1), (0, 2))),
            (F(5, 6), F(5)),
            TrustSharing(beta=(F(1, 2), F(1, 3), F(1, 7)), h=(F(0), F(1, 5))),
            FriendshipVector(),
        )
    assert str(exc.value) == "trust reward of edge (0, 2) must be 2h+beta_u+beta_v=73/70, got 5"
