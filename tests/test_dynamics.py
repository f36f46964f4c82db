import random
from fractions import Fraction as F

import pytest

from socialmatch.dynamics import (
    DynamicsTrace,
    TraceStep,
    assert_trace_lemmas,
    run_arbitrary_dynamics,
    run_best_blocking_pair,
    run_brbp,
)
from socialmatch.instance import EqualSharing, GameInstance, Graph, InstanceError
from socialmatch.matching import RELAXED_BISWIVEL, SWIVEL, Deviation, Matching, is_stable, matching_value
from socialmatch.oracle import max_weight_matching
from helpers import ALPHA_SAMPLES, best_pair, full_scan_dynamics, path3_equal
from socialmatch.generators import (
    augment_with_auxiliary_neighbors,
    gen_pos_tight,
    gen_random,
)

OUTER_PAIRING = Matching.of(4, [(0, 1), (2, 3)])


def test_best_relaxed_pair_none_when_stable():
    inst = path3_equal(alpha=(F(1, 2),))
    assert best_pair(inst, OUTER_PAIRING, relaxed=True) is None


def test_best_relaxed_pair_pos_gadget():
    inst = gen_pos_tight(F(1, 2), F(1, 10))
    assert best_pair(inst, OUTER_PAIRING, relaxed=True) == (1, 2)


def test_best_pair_tie_breaks_lexicographically():
    # Two disjoint copies of the destabilized path: equal middle rewards,
    # the lower-numbered pair must win, identically on repeat runs.
    base = gen_pos_tight(F(1, 2), F(1, 10))
    graph = Graph(8, base.graph.edges + tuple((u + 4, v + 4) for u, v in base.graph.edges))
    twin = GameInstance(
        graph,
        base.rewards + base.rewards,
        EqualSharing(),
        base.friendship,
    )
    m = Matching.of(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    picks = {best_pair(twin, m, relaxed=True) for _ in range(3)}
    assert picks == {(1, 2)}


def test_run_brbp_uniform_path_no_deviations():
    for alpha in ((), (F(1, 2),)):
        inst = path3_equal(alpha=alpha)
        matched, trace = run_brbp(inst)
        assert trace.steps == ()
        assert matched.sorted_pairs() == ((0, 1), (2, 3))


def test_run_brbp_pos_gadget_single_step():
    a1, eps = F(1, 2), F(1, 10)
    inst = gen_pos_tight(a1, eps)
    matched, trace = run_brbp(inst)
    assert len(trace.steps) == 1
    assert trace.steps[0].deviation.kind == RELAXED_BISWIVEL
    assert matched.sorted_pairs() == ((1, 2),)
    value = matching_value(inst, matched)
    assert value == F(7, 5)
    optimum = matching_value(inst, OUTER_PAIRING)
    assert optimum / value == F(10, 7)
    assert optimum / value <= (2 + 2 * a1) / (1 + 2 * a1)


def test_run_brbp_random_instances_stable_and_bounded():
    for seed in range(30):
        inst = gen_random(seed=seed, n=8, density=0.5, rule="equal", alpha=(F(1, 2), F(1, 4)))
        matched, trace = run_brbp(inst)
        m = len(inst.graph.edges)
        assert len(trace.steps) <= 2 * m * m
        assert trace.termination == "stable"
        assert is_stable(inst, matched).stable
        a1, a2 = inst.friendship.alpha1, inst.friendship.alpha2
        _, optimum = max_weight_matching(inst)
        assert matching_value(inst, matched) >= (1 + 2 * a1 + a2) / (2 + 2 * a1) * optimum


def test_run_bbp_equal_alphas_matches_brbp():
    for seed in range(12):
        inst = gen_random(seed=seed, n=7, density=0.5, rule="equal", alpha=(F(1, 3), F(1, 3)))
        m_star, _ = max_weight_matching(inst)
        out_brbp, tr_brbp = run_brbp(inst)
        out_bbp, tr_bbp = run_best_blocking_pair(inst, m_star)
        assert out_brbp == out_bbp
        assert [s.deviation for s in tr_brbp.steps] == [s.deviation for s in tr_bbp.steps]


def test_run_bbp_stable_start_is_noop():
    inst = path3_equal(alpha=(F(1, 2),))
    matched, trace = run_best_blocking_pair(inst, Matching.of(4, [(1, 2)]))
    assert trace.steps == ()
    assert matched.sorted_pairs() == ((1, 2),)


def test_run_bbp_converges_without_friendship():
    for seed in range(20):
        inst = gen_random(seed=seed, n=8, density=0.5, rule="equal")
        matched, trace = run_best_blocking_pair(inst, Matching.empty(8))
        assert trace.termination == "stable"
        assert is_stable(inst, matched).stable


def test_arbitrary_dynamics_stable_start_empty_trace():
    inst = path3_equal(alpha=(F(1, 2),))
    matched, trace = run_arbitrary_dynamics(inst, Matching.of(4, [(1, 2)]), seed=5)
    assert trace.steps == ()


def test_arbitrary_dynamics_pos_gadget_converges():
    inst = gen_pos_tight(F(1, 2), F(1, 10))
    matched, trace = run_arbitrary_dynamics(inst, OUTER_PAIRING, seed=1)
    assert trace.termination == "stable"
    assert len(trace.steps) <= 4
    assert is_stable(inst, matched).stable


def test_arbitrary_dynamics_deterministic_per_seed():
    inst = gen_random(seed=9, n=8, density=0.6, rule="equal")
    runs = [run_arbitrary_dynamics(inst, Matching.empty(8), seed=123) for _ in range(2)]
    assert runs[0][0] == runs[1][0]
    assert runs[0][1].to_jsonl() == runs[1][1].to_jsonl()


def test_arbitrary_dynamics_can_exceed_brbp_steps():
    # On an auxiliary-augmented instance, some seed wanders longer than the
    # best-pair rule starting from the same optimum.
    base = gen_random(seed=4, n=6, density=0.8, rule="equal")
    inst = augment_with_auxiliary_neighbors(base, F(1, 100))
    m_star, _ = max_weight_matching(inst)
    _, brbp_trace = run_brbp(inst)
    counts = []
    for seed in range(12):
        _, tr = run_arbitrary_dynamics(inst, m_star, seed=seed, cap=10_000)
        counts.append(len(tr.steps))
    assert any(c > len(brbp_trace.steps) for c in counts)


def test_trace_lemmas_empty_trace():
    inst = path3_equal()
    _, trace = run_brbp(inst)
    report = assert_trace_lemmas(trace)
    assert report.empty and report.passed


def test_trace_lemmas_pos_gadget_first_is_relaxed_biswivel():
    inst = gen_pos_tight(F(1, 2), F(1, 10))
    _, trace = run_brbp(inst)
    report = assert_trace_lemmas(trace)
    assert not report.empty
    assert report.first_deviation_is_relaxed_biswivel
    assert report.passed


def test_trace_lemmas_random_sweep():
    for seed in range(40):
        inst = gen_random(seed=seed, n=8, density=0.55, rule="equal", alpha=(F(2, 3), F(1, 3)))
        _, trace = run_brbp(inst)
        report = assert_trace_lemmas(trace)
        assert report.passed, (seed, report.to_dict(), trace.to_jsonl())


def test_brbp_output_in_enumerated_stable_set():
    from socialmatch.oracle import enumerate_stable_matchings

    for seed in range(12):
        inst = gen_random(seed=seed, n=7, density=0.5, rule="equal", alpha=(F(1, 2), F(1, 4)))
        matched, trace = run_brbp(inst)
        assert trace.termination == "stable"
        assert matched in enumerate_stable_matchings(inst)


def test_brbp_deterministic_trace_serialization():
    inst = gen_random(seed=7, n=8, density=0.6, rule="equal", alpha=(F(1, 2),))
    t1 = run_brbp(inst)[1].to_jsonl()
    t2 = run_brbp(inst)[1].to_jsonl()
    assert t1 == t2


def test_brbp_general_sharing_runs_with_cap_reporting():
    # No termination guarantee without equal sharing: the run either ends
    # stable or reports the cap distinctly, and never claims stability then.
    for seed in range(10):
        inst = gen_random(seed=seed, n=7, density=0.5, rule="oblivious", alpha=(F(1, 2),))
        matched, trace = run_brbp(inst, cap=200)
        if trace.termination == "stable":
            assert is_stable(inst, matched).stable
        else:
            assert trace.termination == "cap"


def _random_matching(instance: GameInstance, seed: int) -> Matching:
    edges = list(instance.graph.edges)
    random.Random(seed).shuffle(edges)
    used: set[int] = set()
    pairs = []
    for u, v in edges:
        if u not in used and v not in used:
            used.update((u, v))
            pairs.append((u, v))
    return Matching.of(instance.graph.n, pairs)


@pytest.mark.parametrize("rule", ("equal", "matthew", "parasite", "trust", "oblivious"))
def test_maintained_blocking_set_matches_full_scan(rule):
    # The runners keep the blocking set across steps and re-check only the
    # edges at the nodes whose partner changed; the reference rescans every
    # edge at every step.  Each run is compared step by step, with a large
    # cap and with a small one, so that some runs end in "cap".
    caps = 0
    for ai, alpha in enumerate(ALPHA_SAMPLES):
        for n in range(4, 31):
            seed = 1000 * ai + n
            inst = gen_random(seed=seed, n=n, density=min(0.6, 4 / n), rule=rule, alpha=alpha)
            small = seed % 4
            starts = [Matching.empty(n), _random_matching(inst, seed)]
            if n <= 12:
                m_star, _ = max_weight_matching(inst)
                starts.append(m_star)
                for cap in (300, small):
                    final, trace = run_brbp(inst, cap=cap)
                    assert (trace.steps, final, trace.termination) == full_scan_dynamics(
                        inst, m_star, "brbp", cap=cap
                    ), (rule, alpha, n, cap)
            for start in starts:
                for cap in (300, small):
                    final, trace = run_best_blocking_pair(inst, start, cap=cap)
                    assert (trace.steps, final, trace.termination) == full_scan_dynamics(
                        inst, start, "bbp", cap=cap
                    ), (rule, alpha, n, start, cap)
                    caps += trace.termination == "cap"
                    final, trace = run_arbitrary_dynamics(inst, start, seed, cap=cap)
                    assert (trace.steps, final, trace.termination) == full_scan_dynamics(
                        inst, start, "arbitrary", seed, cap=cap
                    ), (rule, alpha, n, start, cap)
    assert caps > 0


def test_negative_cap_is_rejected():
    inst = gen_random(seed=3, n=8, density=0.5, rule="trust")
    for run in (
        lambda cap: run_arbitrary_dynamics(inst, Matching.empty(8), seed=1, cap=cap),
        lambda cap: run_best_blocking_pair(inst, Matching.empty(8), cap=cap),
        lambda cap: run_brbp(inst, cap=cap),
    ):
        for cap in (-1, -3):
            with pytest.raises(InstanceError, match=f"cap must be at least 0, got {cap}"):
                run(cap)
        assert run(0)[1].termination in ("stable", "cap")


def _hand_trace(edge_count: int, steps) -> DynamicsTrace:
    """A trace built from (kind, pair, reward, value after) rows."""
    return DynamicsTrace(
        edge_count=edge_count,
        steps=tuple(
            TraceStep(i, Deviation(kind, pair, ()), F(r), F(value)) for i, (kind, pair, r, value) in enumerate(steps)
        ),
        termination="stable",
    )


def _lemmas(empty=False, first=True, count=0, limit=3, distinct=True, ordering=True, monotone=True, passed=True):
    return {
        "empty": empty,
        "first_deviation_is_relaxed_biswivel": first,
        "biswivel_count": count,
        "biswivel_limit": limit,
        "biswivel_edges_distinct": distinct,
        "reward_ordering_holds": ordering,
        "phase_values_nondecreasing": monotone,
        "passed": passed,
    }


RB = RELAXED_BISWIVEL


@pytest.mark.parametrize(
    "edge_count, steps, expected",
    [
        (3, [], _lemmas(empty=True)),
        (3, [(SWIVEL, (0, 1), 1, 1)], _lemmas(first=False, passed=False)),
        (3, [(RB, (0, 1), 2, 2), (RB, (0, 1), 2, 2)], _lemmas(count=2, distinct=False, passed=False)),
        (1, [(RB, (0, 1), 2, 2), (RB, (1, 2), 1, 1)], _lemmas(count=2, limit=1, passed=False)),
        (3, [(RB, (0, 1), 2, 5), (SWIVEL, (2, 3), 1, 4)], _lemmas(count=1, monotone=False, passed=False)),
        # The step that inserted a lower reward than the last biswivel is
        # neither the first step nor the one just before the biswivel.
        (
            3,
            [(RB, (0, 1), 5, 5), (SWIVEL, (2, 3), 1, 6), (SWIVEL, (1, 3), 3, 7), (RB, (0, 2), 2, 7)],
            _lemmas(count=2, ordering=False, passed=False),
        ),
        # An earlier reward equal to the biswivel's keeps the ordering.
        (
            3,
            [(RB, (0, 1), 2, 2), (SWIVEL, (2, 3), 3, 5), (RB, (1, 2), 2, 4)],
            _lemmas(count=2),
        ),
    ],
    ids=["empty", "first-swivel", "repeated-edge", "over-limit", "phase-drop", "reward-order", "reward-tie"],
)
def test_trace_lemmas_hand_built(edge_count, steps, expected):
    assert assert_trace_lemmas(_hand_trace(edge_count, steps)).to_dict() == expected
