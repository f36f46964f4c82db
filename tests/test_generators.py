from fractions import Fraction as F

import pytest

from socialmatch.instance import (
    InstanceError,
    compute_Q,
    compute_Q_prime,
    compute_R,
    instance_to_json,
)
from socialmatch.matching import Matching, is_improving_pair
from socialmatch.oracle import (
    audit_bounds,
    enumerate_matchings,
    enumerate_stable_matchings,
    max_weight_matching,
)
from socialmatch.generators import (
    NONEXISTENCE_ALPHA1,
    augment_with_auxiliary_neighbors,
    gen_cyclic_triangle,
    gen_friendship_rs_tight,
    gen_matthew_poa_tight,
    gen_nonexistence_friendship_matthew,
    gen_path3_equal,
    gen_pos_tight,
    gen_random,
    gen_sparse,
)

from helpers import stake_table


def test_path3_closed_forms():
    inst = gen_path3_equal()
    report = audit_bounds(inst)
    assert report.poa == 2
    assert report.pos == 1
    assert len(enumerate_stable_matchings(inst)) == 2


def test_pos_tight_closed_form_and_uniqueness():
    for a1, eps in ((F(0), F(1, 7)), (F(1, 2), F(1, 10)), (F(1), F(2, 5))):
        inst = gen_pos_tight(a1, eps)
        stable = enumerate_stable_matchings(inst)
        assert [m.sorted_pairs() for m in stable] == [((1, 2),)]
        assert audit_bounds(inst).pos == (2 + 2 * a1) / (1 + 2 * a1 + eps)


def test_pos_tight_validates_parameters():
    with pytest.raises(InstanceError):
        gen_pos_tight(F(1, 2), F(0))
    with pytest.raises(InstanceError):
        gen_pos_tight(F(3, 2), F(1, 10))


def test_matthew_poa_closed_forms():
    for R in (1, 2, 5, 10):
        assert audit_bounds(gen_matthew_poa_tight(R)).poa == R + 1
    inst = gen_matthew_poa_tight(1)
    assert compute_R(inst) == 1
    for R, eps in ((3, F(1, 10)), (7, F(1, 2))):
        pos_inst = gen_matthew_poa_tight(R, pos_variant=True, eps=eps)
        assert audit_bounds(pos_inst).pos == F(R + 1) / (1 + eps)


def test_friendship_rs_poa_closed_form():
    for R in (1, 2, 5):
        for a1 in (F(0), F(1, 4), F(1, 2), F(1)):
            inst = gen_friendship_rs_tight(R, a1, "poa")
            assert compute_R(inst) == R
            q = compute_Q(inst)
            assert q == (R + a1) / (1 + a1 * R)
            poa = audit_bounds(inst).poa
            assert poa == 1 + q
            if a1 == 0:
                assert poa == 1 + R


def test_friendship_rs_pos_exact_value_approaches_limit():
    R, a1 = 2, F(1, 2)
    values = []
    for eps in (F(1, 10), F(1, 100), F(1, 1000)):
        inst = gen_friendship_rs_tight(R, a1, "pos", eps)
        pos = audit_bounds(inst).pos
        assert pos == (1 + a1) * (1 + R) / (1 + a1 * (R + 1) + eps * (1 + a1 * R))
        values.append(pos)
    q_prime = compute_Q_prime(gen_friendship_rs_tight(R, a1, "pos", F(1, 10)))
    assert values[0] < values[1] < values[2] < q_prime


def test_nonexistence_fixture_properties():
    inst = gen_nonexistence_friendship_matthew()
    assert inst.friendship.alpha1 == NONEXISTENCE_ALPHA1
    assert enumerate_stable_matchings(inst) == ()
    base = gen_nonexistence_friendship_matthew(with_friendship=False)
    assert enumerate_stable_matchings(base) != ()
    # Strict rotational q-preference around the 5-cycle: each stake, the
    # q-value under brand-value sharing, is higher forward than backward.
    for i in range(5):
        nxt, prv = (i + 1) % 5, (i - 1) % 5
        assert stake_table(inst)[i][nxt][0] > stake_table(inst)[i][prv][0]


def test_cyclic_triangle_empty_stable_set():
    assert enumerate_stable_matchings(gen_cyclic_triangle()) == ()


def test_augment_structure():
    base = gen_random(seed=1, n=5, density=0.7, rule="equal")
    eps = F(1, 100)
    aug = augment_with_auxiliary_neighbors(base, eps)
    assert aug.graph.n == 2 * base.graph.n
    witness, value = max_weight_matching(aug)
    assert value == base.graph.n
    assert witness.sorted_pairs() == tuple(sorted((v, 5 + v) for v in range(5)))


def test_augment_preserves_blocking_structure_without_friendship():
    for seed in range(8):
        base = gen_random(seed=seed, n=6, density=0.6, rule="equal")
        aug = augment_with_auxiliary_neighbors(base, F(1, 50))
        for m in list(enumerate_matchings(base.graph))[:25]:
            lifted = Matching.of(aug.graph.n, m.pairs)
            for u, v in base.graph.edges:
                assert (
                    is_improving_pair(base, m, u, v).blocking
                    == is_improving_pair(aug, lifted, u, v).blocking
                )


def test_augment_validates_inputs():
    base = gen_random(seed=1, n=5, density=0.7, rule="matthew")
    with pytest.raises(InstanceError):
        augment_with_auxiliary_neighbors(base, F(1, 100))
    flat = gen_random(seed=1, n=5, density=0.7, rule="equal")
    with pytest.raises(InstanceError):
        augment_with_auxiliary_neighbors(flat, F(2))


def test_gen_random_deterministic():
    a = gen_random(seed=42, n=9, density=0.5, rule="trust", alpha=(F(1, 2), F(1, 4)))
    b = gen_random(seed=42, n=9, density=0.5, rule="trust", alpha=(F(1, 2), F(1, 4)))
    assert a == b
    assert instance_to_json(a) == instance_to_json(b)
    c = gen_random(seed=43, n=9, density=0.5, rule="trust", alpha=(F(1, 2), F(1, 4)))
    assert a != c


@pytest.mark.parametrize("n,m", [(0, 0), (2, 1), (6, 0), (6, 7), (6, 8), (6, 15), (30, 40), (30, 400)])
def test_gen_sparse_draws_exactly_m_distinct_edges(n, m):
    # m = 8 and 15 of 15 pairs take the complement branch, 7 the direct one.
    for seed in range(5):
        inst = gen_sparse(seed=seed, n=n, m=m, rule="trust")
        assert inst.graph.n == n and len(inst.graph.edges) == m
        assert gen_sparse(seed=seed, n=n, m=m, rule="trust") == inst
    if m == 0 or 2 * m == n * (n - 1):
        return
    seen = {gen_sparse(seed=seed, n=n, m=m).graph.edges for seed in range(20)}
    assert len(seen) > 1


def test_gen_sparse_reaches_every_pair():
    # Every pair of 5 nodes appears in some 3-edge draw, from either end of
    # the pair-index range.
    drawn = set()
    for seed in range(60):
        drawn.update(gen_sparse(seed=seed, n=5, m=3).graph.edges)
    assert drawn == {(u, v) for u in range(5) for v in range(u + 1, 5)}


@pytest.mark.parametrize("rule", ["equal", "matthew", "parasite", "trust", "oblivious"])
def test_gen_sparse_instances_valid(rule):
    for seed in range(10):
        inst = gen_sparse(seed=seed, n=12, m=20, rule=rule, alpha=(F(1, 2),))
        assert inst.sharing.rule == rule
        assert all(r > 0 for r in inst.rewards)
        assert all(su + sv == r for (su, sv), r in zip(inst.shares, inst.rewards))


def test_gen_random_density_controls_edges():
    sparse = gen_random(seed=0, n=10, density=0.1, rule="equal")
    dense = gen_random(seed=0, n=10, density=0.9, rule="equal")
    assert len(sparse.graph.edges) < len(dense.graph.edges)


@pytest.mark.parametrize("rule", ["equal", "matthew", "parasite", "trust", "oblivious"])
def test_gen_random_instances_valid(rule):
    for seed in range(10):
        inst = gen_random(seed=seed, n=7, density=0.5, rule=rule, alpha=(F(1, 2),))
        assert all(r > 0 for r in inst.rewards)
        for i in range(len(inst.graph.edges)):
            su, sv = inst.shares[i]
            assert su + sv == inst.rewards[i]
