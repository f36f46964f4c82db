import random
from fractions import Fraction as F

import pytest

from socialmatch.instance import Graph, InstanceError
from socialmatch.matching import Matching, is_stable, matching_value
from socialmatch.oracle import (
    SizeLimitError,
    audit_bounds,
    enumerate_matchings,
    enumerate_stable_matchings,
    max_weight_matching,
)
from helpers import ALPHA_SAMPLES, equal_instance, oblivious_instance, path3_equal, subset_dp_max_weight
from socialmatch.generators import (
    gen_cyclic_triangle,
    gen_friendship_rs_tight,
    gen_matthew_poa_tight,
    gen_nonexistence_friendship_matthew,
    gen_pos_tight,
    gen_random,
)
from socialmatch.roommates import solve_srp_q


def test_max_weight_path():
    witness, value = max_weight_matching(path3_equal())
    assert value == 2
    assert witness.sorted_pairs() == ((0, 1), (2, 3))


def test_max_weight_single_edge():
    inst = equal_instance(Graph(2, ((0, 1),)), (5,))
    witness, value = max_weight_matching(inst)
    assert value == 5
    assert witness.sorted_pairs() == ((0, 1),)


def test_max_weight_triangle():
    inst = equal_instance(Graph(3, ((0, 1), (0, 2), (1, 2))), (3, 2, 2))
    witness, value = max_weight_matching(inst)
    assert value == 3
    assert witness.sorted_pairs() == ((0, 1),)


def test_max_weight_matches_enumeration():
    for seed in range(20):
        inst = gen_random(seed=seed, n=8, density=0.5, rule="equal")
        _, value = max_weight_matching(inst)
        best = max(matching_value(inst, m) for m in enumerate_matchings(inst.graph))
        assert value == best


def test_max_weight_witness_deterministic_and_optimal():
    for seed in range(10):
        inst = gen_random(seed=seed, n=8, density=0.5, rule="equal")
        w1, v1 = max_weight_matching(inst)
        w2, v2 = max_weight_matching(inst)
        assert w1 == w2 and v1 == v2
        assert matching_value(inst, w1) == v1


# Rewards with pairwise coprime denominators, and sums that tie (1/3 + 2/3 = 1).
MIXED_REWARDS = (F(1, 3), F(2, 3), F(2, 7), F(5, 11), F(3, 4), F(7, 5), F(1), F(9, 13))


def mixed_instance(seed: int, n: int, density: float):
    rng = random.Random(seed)
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density)
    return equal_instance(Graph(n, edges), [rng.choice(MIXED_REWARDS) for _ in edges])


def test_max_weight_mixed_denominators_match_enumeration():
    # The integer-rescaled DP returns the exact optimum as a Fraction and the
    # lexicographically least optimal pair list.
    for seed in range(60):
        inst = mixed_instance(seed, 2 + seed % 9, 0.55)
        witness, value = max_weight_matching(inst)
        values = {m.sorted_pairs(): matching_value(inst, m) for m in enumerate_matchings(inst.graph)}
        best = max(values.values())
        assert isinstance(value, F) and value == best, seed
        assert witness.sorted_pairs() == min(p for p, v in values.items() if v == best), seed


def test_max_weight_edgeless():
    for n in (0, 1, 5):
        witness, value = max_weight_matching(equal_instance(Graph(n, ()), ()))
        assert isinstance(value, F) and value == F(0)
        assert witness.sorted_pairs() == ()


def test_max_weight_value_matches_networkx():
    nx = pytest.importorskip("networkx")
    for seed in range(12):
        n = 11 + seed  # up to 22
        inst = mixed_instance(100 + seed, n, 0.3)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for (u, v), r in zip(inst.graph.edges, inst.rewards):
            g.add_edge(u, v, weight=r)
        expected = sum((g[u][v]["weight"] for u, v in nx.max_weight_matching(g)), F(0))
        assert max_weight_matching(inst)[1] == expected, seed


def test_max_weight_witness_matches_reference_dp():
    # The frontier-ordered DP with tie-break bits returns the same optimum and
    # the same witness as the subset DP over node ids, ties included.
    cases = []
    for seed in range(40):
        for rule in ("equal", "matthew", "parasite", "trust", "oblivious"):
            for rewards in ((1, 1), (1, 8)):
                density = (0.2, 0.4, 0.6, 0.9)[seed % 4]
                cases.append(gen_random(seed, 2 + seed % 13, density, reward_range=rewards, rule=rule))
    cases += [mixed_instance(200 + seed, 4 + seed % 11, 0.5) for seed in range(30)]
    for n in range(2, 15):
        complete = tuple((u, v) for u in range(n) for v in range(u + 1, n))
        cases.append(equal_instance(Graph(n, complete), [1] * len(complete)))
        cases.append(equal_instance(Graph(n, complete), [1 + (u * v) % 3 for u, v in complete]))
    cases += [gen_random(seed, n, 0.3, reward_range=(1, 1)) for seed, n in ((1, 20), (2, 21), (3, 22))]
    for inst in cases:
        witness, value = max_weight_matching(inst)
        ref_witness, ref_value = subset_dp_max_weight(inst)
        assert isinstance(value, F) and value == ref_value
        assert witness.sorted_pairs() == ref_witness.sorted_pairs()


def test_negative_max_n_is_an_input_error():
    inst = path3_equal()
    message = "max_n must be at least 0, got -2"
    with pytest.raises(InstanceError, match=message):
        max_weight_matching(inst, max_n=-2)
    with pytest.raises(InstanceError, match=message):
        list(enumerate_matchings(inst.graph, max_n=-2))
    with pytest.raises(InstanceError, match=message):
        enumerate_stable_matchings(inst, max_n=-2)
    # Its q-preferences are acyclic, so the greedy path would answer.
    with pytest.raises(InstanceError, match=message):
        solve_srp_q(inst, max_n=-2)
    assert max_weight_matching(equal_instance(Graph(0, ()), ()), max_n=0)[1] == 0


def test_max_weight_size_limit():
    inst = gen_random(seed=0, n=9, density=0.4, rule="equal")
    with pytest.raises(SizeLimitError):
        max_weight_matching(inst, max_n=8)


def test_enumerate_matchings_counts_path():
    # The 3-edge path has 5 matchings: empty, three single edges, outer pair.
    ms = list(enumerate_matchings(path3_equal().graph))
    assert len(ms) == 5
    assert len({m.pairs for m in ms}) == 5


def test_enumerate_size_limit():
    with pytest.raises(SizeLimitError):
        list(enumerate_matchings(Graph(13, ()), max_n=12))


@pytest.mark.parametrize("alpha", ALPHA_SAMPLES)
def test_stable_set_of_uniform_path(alpha):
    inst = path3_equal(alpha=alpha)
    stable = enumerate_stable_matchings(inst)
    assert [m.sorted_pairs() for m in stable] == [((0, 1), (2, 3)), ((1, 2),)]


def test_stable_set_cyclic_triangle_empty():
    assert enumerate_stable_matchings(gen_cyclic_triangle()) == ()


def test_stable_set_nonexistence_fixture():
    with_friendship = gen_nonexistence_friendship_matthew()
    assert enumerate_stable_matchings(with_friendship) == ()
    without = gen_nonexistence_friendship_matthew(with_friendship=False)
    assert enumerate_stable_matchings(without) != ()


def test_poa_path():
    assert audit_bounds(path3_equal()).poa == 2


def test_poa_matthew_gadget():
    for R in (1, 2, 5, 10):
        assert audit_bounds(gen_matthew_poa_tight(R)).poa == R + 1


def test_poa_single_edge():
    inst = equal_instance(Graph(2, ((0, 1),)), (5,))
    assert audit_bounds(inst).poa == 1


def test_ratios_with_zero_worst_stable_value():
    # Both the empty matching (value 0) and the edge (value 1) are stable.
    inst = oblivious_instance(Graph(2, ((0, 1),)), {(0, 1): (0, 1)})
    report = audit_bounds(inst)
    assert report.stable_values == (0, 1)
    assert (report.poa, report.pos) == (None, 1)
    assert report.bounds == () and report.all_bounds_pass
    # Without edges the only stable value is 0: both ratios are undefined.
    edgeless = equal_instance(Graph(2, ()), ())
    report = audit_bounds(edgeless)
    assert (report.poa, report.pos) == (None, None)


def test_poa_none_when_no_stable_matching():
    report = audit_bounds(gen_cyclic_triangle())
    assert report.poa is None
    assert report.pos is None


def test_pos_tight_gadget():
    for a1, eps in ((F(1, 2), F(1, 10)), (F(1, 4), F(1, 5)), (F(1), F(1, 3))):
        inst = gen_pos_tight(a1, eps)
        assert audit_bounds(inst).pos == (2 + 2 * a1) / (1 + 2 * a1 + eps)


def test_pos_matthew_variant():
    for R, eps in ((2, F(1, 10)), (5, F(1, 4))):
        inst = gen_matthew_poa_tight(R, pos_variant=True, eps=eps)
        assert audit_bounds(inst).pos == F(R + 1) / (1 + eps)


def test_pos_friendship_rs_exact_value():
    # The eps margin that destabilizes the outer pairing shows up in the
    # exact ratio; the closed-form limit is approached from below.
    for R, a1, eps in ((2, F(1, 2), F(1, 100)), (5, F(1, 4), F(1, 1000))):
        inst = gen_friendship_rs_tight(R, a1, "pos", eps)
        expected = (1 + a1) * (1 + R) / (1 + a1 * (R + 1) + eps * (1 + a1 * R))
        assert audit_bounds(inst).pos == expected
        q_prime = (1 + a1) * (1 + R) / (1 + a1 * (R + 1))
        assert expected < q_prime


def test_stable_matchings_are_maximal():
    for seed in range(15):
        for rule in ("equal", "matthew", "oblivious"):
            inst = gen_random(seed=seed, n=8, density=0.5, rule=rule, alpha=(F(1, 2),))
            for m in enumerate_stable_matchings(inst):
                for u, v in inst.graph.edges:
                    assert not (m.partner(u) is None and m.partner(v) is None)


def test_audit_bounds_path():
    report = audit_bounds(path3_equal())
    assert report.poa == 2
    assert report.pos == 1
    assert report.all_bounds_pass
    names = {b.name for b in report.bounds}
    assert "poa_le_2" in names and "q_prime_sandwich" in names


def test_audit_bounds_no_stable():
    report = audit_bounds(gen_cyclic_triangle())
    assert report.stable_count == 0
    assert report.poa is None
    # Unchecked bounds are reported as not silently passed.
    for b in report.bounds:
        if b.name.startswith("poa"):
            assert not b.checked


def test_audit_q_sandwich_random():
    for seed in range(20):
        for rule in ("matthew", "trust", "oblivious"):
            inst = gen_random(seed=seed, n=7, density=0.5, rule=rule, alpha=(F(1, 2),))
            report = audit_bounds(inst)
            if report.Q is None:
                continue
            assert report.Q < report.Q_prime <= report.Q + 1


@pytest.mark.parametrize(
    "rule,alpha",
    [("equal", ()), ("equal", (F(1, 2), F(1, 4))), ("trust", ()), ("oblivious", ()), ("oblivious", (F(1, 2),))],
)
def test_audit_bounds_random_sweep(rule, alpha):
    for seed in range(30):
        inst = gen_random(seed=seed, n=7, density=0.5, rule=rule, alpha=alpha)
        report = audit_bounds(inst)
        assert report.all_bounds_pass, (rule, alpha, seed, report.to_dict())


def test_report_round_trip_dict():
    import json

    report = audit_bounds(path3_equal(alpha=(F(1, 2),)))
    doc = report.to_dict()
    assert json.loads(json.dumps(doc)) == doc


# The acceptance suite's friendship palette.
ALPHA_PALETTE = (
    (),
    (F(1, 4),),
    (F(1, 2),),
    (F(1, 2), F(1, 4)),
    (F(1), F(1)),
    (F(2, 3), F(1, 3)),
    (F(1), F(1), F(1, 2)),
)


def filtered_stable_set(inst):
    """Every matching that passes a full blocking scan, canonically sorted."""
    stable = [m for m in enumerate_matchings(inst.graph) if is_stable(inst, m).stable]
    return tuple(sorted(stable, key=lambda m: m.sorted_pairs()))


def zero_share_instance(seed, n, alpha):
    """A random oblivious instance where each endpoint share is 0, half or all of the reward."""
    import random

    base = gen_random(seed=seed, n=n, density=0.5, rule="oblivious")
    rng = random.Random(seed)
    shares = {}
    for e, r in zip(base.graph.edges, base.rewards):
        t = rng.choice((F(0), F(1, 2), F(1)))
        shares[e] = (t * r, (1 - t) * r)
    return oblivious_instance(base.graph, shares, alpha)


def test_pruned_stable_set_single_zero_share_edge():
    inst = oblivious_instance(Graph(2, ((0, 1),)), {(0, 1): (0, 1)})
    assert enumerate_stable_matchings(inst) == (Matching.empty(2), Matching.of(2, [(0, 1)]))
    assert enumerate_stable_matchings(inst) == filtered_stable_set(inst)


@pytest.mark.parametrize("rule", ("equal", "matthew", "parasite", "trust", "oblivious", "zero-share"))
def test_pruned_stable_set_matches_filter(rule):
    for n in range(2, 10):
        for k, alpha in enumerate(ALPHA_PALETTE):
            seed = 1000 * n + k
            if rule == "zero-share":
                inst = zero_share_instance(seed, n, alpha)
            else:
                inst = gen_random(seed=seed, n=n, density=0.5, rule=rule, alpha=alpha)
            assert enumerate_stable_matchings(inst) == filtered_stable_set(inst), (rule, n, alpha)


def test_stable_set_size_limit():
    with pytest.raises(SizeLimitError):
        enumerate_stable_matchings(equal_instance(Graph(13, ()), ()), max_n=12)
