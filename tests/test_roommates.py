import random
from fractions import Fraction as F

import pytest

from socialmatch.instance import FriendshipVector, GameInstance, Graph, MatthewSharing
from socialmatch.matching import Matching, is_stable
from socialmatch.oracle import enumerate_stable_matchings
from socialmatch.roommates import (
    MODE_Q,
    MODE_RAW,
    PreferenceCycleError,
    detect_preference_cycle,
    greedy_mutual_best,
    _keys,
    _srp_stable,
    solve_srp_q,
)
from helpers import (
    ALPHA_SAMPLES,
    PATH3,
    bfs_preference_cycle,
    equal_instance,
    exact_key,
    greedy_scans,
    key_rows,
    oblivious_instance,
    rescan_greedy,
    stake_table,
)
from socialmatch.generators import (
    gen_cyclic_triangle,
    gen_matthew_poa_tight,
    gen_nonexistence_friendship_matthew,
    gen_random,
)


def staircase_holds(instance, mode, nodes):
    k = len(nodes)
    strict = False
    for i in range(k):
        cur, nxt, prv = nodes[i], nodes[(i + 1) % k], nodes[(i - 1) % k]
        fwd = exact_key(instance, mode, cur, nxt)
        back = exact_key(instance, mode, cur, prv)
        if fwd < back:
            return False
        if fwd > back:
            strict = True
    return strict


@pytest.mark.parametrize("rule", ["matthew", "parasite", "trust"])
def test_no_preference_cycles_for_structured_rules(rule):
    for seed in range(25):
        inst = gen_random(seed=seed, n=8, density=0.6, rule=rule)
        assert detect_preference_cycle(inst, MODE_RAW) is None


def test_cyclic_triangle_has_cycle():
    inst = gen_cyclic_triangle()
    cycle = detect_preference_cycle(inst, MODE_RAW)
    assert cycle is not None
    assert len(cycle) >= 3
    assert staircase_holds(inst, MODE_RAW, cycle)


def test_detected_cycles_always_satisfy_staircase():
    found = 0
    for seed in range(40):
        inst = gen_random(seed=seed, n=7, density=0.6, rule="oblivious")
        cycle = detect_preference_cycle(inst, MODE_RAW)
        if cycle is not None:
            found += 1
            assert staircase_holds(inst, MODE_RAW, cycle)
    assert found > 0


RULES = ("equal", "matthew", "parasite", "trust", "oblivious")


@pytest.mark.parametrize("rule", RULES)
def test_cycle_detector_matches_per_arc_bfs(rule):
    # Seeded sweep over both modes, the alpha palette and n = 4..40; the
    # witness must equal the per-arc BFS oracle's exactly.
    cycles = 0
    for mode in (MODE_RAW, MODE_Q):
        for alpha in ALPHA_SAMPLES:
            for n in range(4, 41):
                inst = gen_random(seed=n, n=n, density=max(0.15, 4 / n), rule=rule, alpha=alpha)
                found = detect_preference_cycle(inst, mode)
                assert found == bfs_preference_cycle(inst, mode), (rule, mode, alpha, n)
                cycles += found is not None
    if rule == "oblivious":
        assert cycles > 0


def _tie_heavy_instance(rng, n, rule, alpha):
    """A random graph with rewards drawn from {1, 2}; brand values or splits
    from three values, so that many keys tie."""
    graph = Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < max(0.15, 4 / n)))
    rewards = [rng.choice((1, 2)) for _ in graph.edges]
    if rule == "equal":
        return equal_instance(graph, rewards, alpha)
    if rule == "matthew":
        lam = tuple(F(rng.choice((1, 2, 3))) for _ in range(n))
        return GameInstance(graph, tuple(map(F, rewards)), MatthewSharing(lam=lam), FriendshipVector(alpha))
    splits = [rng.choice((F(1, 3), F(1, 2), F(2, 3))) for _ in graph.edges]
    return oblivious_instance(graph, {e: (t * r, (1 - t) * r) for e, r, t in zip(graph.edges, rewards, splits)}, alpha)


@pytest.mark.parametrize("rule", ("equal", "matthew", "oblivious"))
def test_cycle_detector_matches_per_arc_bfs_under_ties(rule):
    # Ties make weak arcs both ways, so strongly connected components with
    # no strict arc inside appear; the detector skips their states without
    # a witness, and must still agree with the per-arc BFS oracle.
    # Raw keys ignore friendship, so only q keys get alpha = (1/2,).
    rng = random.Random(f"ties-{rule}")
    tied = False
    cycles = 0
    for mode, alpha in ((MODE_RAW, ()), (MODE_Q, (F(1, 2),))):
        for n in range(4, 61):
            inst = _tie_heavy_instance(rng, n, rule, alpha)
            found = detect_preference_cycle(inst, mode)
            assert found == bfs_preference_cycle(inst, mode), (rule, mode, n)
            cycles += found is not None
            tied = tied or (found is None and _has_weak_cycle(inst, mode))
    assert tied
    if rule == "oblivious":
        assert cycles > 0


def _has_weak_cycle(instance, mode) -> bool:
    """Whether some node cycle of length at least 3 has each node weakly
    preferring its successor over its predecessor: one exists exactly when
    the oriented-edge digraph has a cycle, found here by Kahn's pruning."""
    graph = instance.graph
    states = [(u, v) for u, v in graph.edges] + [(v, u) for u, v in graph.edges]
    succ = {
        (a, b): [(b, c) for c in graph.adjacency[b] if c != a and exact_key(instance, mode, b, c) >= exact_key(instance, mode, b, a)]
        for a, b in states
    }
    indegree = {s: 0 for s in states}
    for targets in succ.values():
        for t in targets:
            indegree[t] += 1
    ready = [s for s in states if indegree[s] == 0]
    for s in ready:
        for t in succ[s]:
            indegree[t] -= 1
            if indegree[t] == 0:
                ready.append(t)
    return len(ready) < len(states)


def _cmp(a, b) -> int:
    return (a > b) - (a < b)


@pytest.mark.parametrize("rule", RULES)
def test_key_table_ranks_as_preference_key(rule):
    # _keys reads verdict_table, exact_key reads the shares.  At
    # every node the two must give the same strict order, the same ties and
    # the same sign against 0; zero shares put keys on 0 itself.
    zero_shares = {(0, 1): (0, 2), (1, 2): (1, 1), (2, 3): (3, 0)}
    for mode in (MODE_RAW, MODE_Q):
        for alpha in ALPHA_SAMPLES:
            instances = [oblivious_instance(PATH3, zero_shares, alpha)] if rule == "oblivious" else []
            instances += [gen_random(seed=n, n=n, density=0.5, rule=rule, alpha=alpha) for n in range(2, 13)]
            for inst in instances:
                table = key_rows(inst, mode)
                for x, row in enumerate(table):
                    exact = {y: exact_key(inst, mode, x, y) for y in inst.graph.adjacency[x]}
                    assert list(row) == list(exact)
                    for y, key in exact.items():
                        assert _cmp(row[y], 0) == _cmp(key, 0)
                        for z, other in exact.items():
                            assert _cmp(row[y], row[z]) == _cmp(key, other), (rule, mode, alpha, x, y, z)


@pytest.mark.parametrize("mode", [MODE_RAW, MODE_Q])
def test_cycle_detector_matches_per_arc_bfs_on_gadgets(mode):
    for inst in (gen_cyclic_triangle(), gen_nonexistence_friendship_matthew()):
        assert detect_preference_cycle(inst, mode) == bfs_preference_cycle(inst, mode)


def test_cycle_detector_long_ring_and_path():
    # The oriented-edge digraph holds one chain through all n nodes, deeper
    # than the interpreter's recursion limit.
    n = 2000
    ring = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    # Each node takes 2 on the edge to its successor and 1 on the edge to
    # its predecessor, so everyone strictly prefers the next node.
    shares = {(i, i + 1): (2, 1) for i in range(n - 1)}
    shares[(0, n - 1)] = (1, 2)
    inst = oblivious_instance(Graph(n, tuple(ring)), shares)
    cycle = detect_preference_cycle(inst, MODE_RAW)
    assert cycle is not None and sorted(cycle) == list(range(n))
    assert staircase_holds(inst, MODE_RAW, cycle)
    assert cycle == bfs_preference_cycle(inst, MODE_RAW)
    # Rewards rising along a path: one strict chain, no cycle.
    path = Graph(n, tuple((i, i + 1) for i in range(n - 1)))
    assert detect_preference_cycle(equal_instance(path, range(1, n)), MODE_RAW) is None


def test_preference_profile_ordering():
    inst = gen_random(seed=2, n=7, density=0.7, rule="oblivious")
    # Each row sorted by (-key, id), as _greedy orders its preference lists.
    lists = [sorted(row, key=lambda y: (-row[y], y)) for row in key_rows(inst, MODE_RAW)]
    for v, lst in enumerate(lists):
        assert sorted(lst) == sorted(inst.graph.adjacency[v])
        for a, b in zip(lst, lst[1:]):
            ka = exact_key(inst, MODE_RAW, v, a)
            kb = exact_key(inst, MODE_RAW, v, b)
            assert ka > kb or (ka == kb and a < b)


def test_greedy_single_edge():
    inst = equal_instance(Graph(2, ((0, 1),)), (3,))
    assert greedy_mutual_best(inst, MODE_RAW).sorted_pairs() == ((0, 1),)


def test_greedy_matthew_gadget_deterministic_and_stable():
    inst = gen_matthew_poa_tight(3)
    first = greedy_mutual_best(inst, MODE_RAW)
    second = greedy_mutual_best(inst, MODE_RAW)
    assert first == second
    assert is_stable(inst, first).stable
    assert first in enumerate_stable_matchings(inst)


def test_greedy_rejects_preference_cycles():
    with pytest.raises(PreferenceCycleError):
        greedy_mutual_best(gen_cyclic_triangle(), MODE_RAW)


@pytest.mark.parametrize("rule", ["matthew", "trust", "parasite"])
def test_greedy_outputs_oracle_verified_stable(rule):
    for seed in range(25):
        inst = gen_random(seed=seed, n=8, density=0.55, rule=rule)
        matched = greedy_mutual_best(inst, MODE_RAW)
        assert is_stable(inst, matched).stable, (rule, seed)
        assert matched in enumerate_stable_matchings(inst)


def test_greedy_work_is_one_scan_per_pair():
    for seed in range(15):
        inst = gen_random(seed=seed, n=9, density=0.6, rule="trust")
        matched, scans = greedy_scans(inst, MODE_RAW)
        m = len(inst.graph.edges)
        assert len(scans) == len(matched.pairs)
        assert all(scan <= m for scan in scans)


def test_srp_stability_definition():
    inst = gen_cyclic_triangle()
    # Every maximal matching on the triangle is SRP-blocked by the rotation.
    for pair in ((0, 1), (1, 2), (0, 2)):
        assert not _srp_stable(inst, _keys(inst, MODE_RAW), Matching.of(3, [pair]))


def test_solve_srp_q_equal_sharing():
    for seed in range(10):
        inst = gen_random(seed=seed, n=7, density=0.5, rule="equal", alpha=(F(1, 2),))
        result = solve_srp_q(inst)
        assert result is not None
        assert is_stable(inst, result).stable


@pytest.mark.parametrize("rule", ["matthew", "oblivious", "trust"])
def test_solve_srp_q_outputs_stable_under_friendship(rule):
    for seed in range(20):
        inst = gen_random(seed=seed, n=7, density=0.5, rule=rule, alpha=(F(1, 2),))
        result = solve_srp_q(inst)
        if result is not None:
            assert is_stable(inst, result).stable


def test_matthew_q_keys_formula():
    # Under brand-value sharing with friendship, the q key of u against v is
    # (lambda_u + a1 lambda_v) / (lambda_u + lambda_v) times the edge reward.
    inst = gen_random(seed=5, n=6, density=0.7, rule="matthew", alpha=(F(1, 2),))
    lam = inst.sharing.lam
    a1 = inst.friendship.alpha1
    for u, v in inst.graph.edges:
        expected = (lam[u] + a1 * lam[v]) / (lam[u] + lam[v]) * inst.edge_reward(u, v)
        assert stake_table(inst)[u][v][0] == expected  # the stake is the q-value off equal sharing


def test_solve_srp_q_nonexistence_fixture():
    inst = gen_nonexistence_friendship_matthew()
    assert solve_srp_q(inst) is None
    assert enumerate_stable_matchings(inst) == ()


def test_solve_srp_q_handles_cycles_by_enumeration():
    # The rotating triangle has cyclic q-preferences at alpha = 0 as well;
    # the solver falls back to exact enumeration and reports none.
    inst = gen_cyclic_triangle()
    assert detect_preference_cycle(inst, MODE_Q) is not None
    assert solve_srp_q(inst) is None


@pytest.mark.parametrize("rule", ["equal", "matthew", "parasite", "trust", "oblivious"])
def test_worklist_greedy_matches_rescan(rule):
    # The worklist extracts the same pairs as a rescan of every live edge per
    # pair, and raises the same cycle witness.
    for i, n in enumerate((2, 3, 4, 5, 7, 9, 12, 16, 25, 40, 61, 90, 130, 200)):
        for density in (0.9, 0.3, min(0.9, 4 / n)):
            inst = gen_random(seed=100 * i + n, n=n, density=density, rule=rule, alpha=ALPHA_SAMPLES[i % len(ALPHA_SAMPLES)])
            m = len(inst.graph.edges)
            if m > 2500:
                continue
            for mode in (MODE_RAW, MODE_Q):
                try:
                    expected, _ = rescan_greedy(inst, mode)
                except PreferenceCycleError as exc:
                    with pytest.raises(PreferenceCycleError) as got:
                        greedy_mutual_best(inst, mode)
                    assert got.value.cycle == exc.cycle
                    continue
                matched, scans = greedy_scans(inst, mode)
                assert matched.pairs == expected.pairs, (n, density, mode)
                assert len(scans) == len(matched.pairs)
                assert min(scans, default=1) >= 1 and sum(scans) <= m
