"""Improvement dynamics and their traces.

The best-relaxed-blocking-pair process starts from a maximum-weight
matching and repeatedly lets the relaxed blocking pair with the largest
edge reward deviate.  Under equal sharing it terminates within 2m^2
deviations and its output is stable; for other sharing rules termination
has no guarantee, so the run caps out and reports that distinctly.

Every run keeps its blocking set across steps.  A verdict reads only the
partners of the pair's two endpoints, so after one deviation only the
edges at the at most four nodes whose partner changed get a new verdict:
one full scan at the start, then O(sum of their degrees) verdicts per
step, plus an O(log m) search and a shift of the sorted blocking list.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, insort
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .instance import EqualSharing, GameInstance, InstanceError
from .matching import (
    BISWIVEL,
    RELAXED_BISWIVEL,
    SWIVEL,
    Deviation,
    Matching,
    _deviation,
    _pair_check,
    matching_value,
)
from .oracle import DEFAULT_EXACT_LIMIT, max_weight_matching
from .rationals import rat_str


class ConvergenceError(RuntimeError):
    """A convergence guarantee was violated; indicates a bug, not bad input."""


@dataclass(frozen=True)
class TraceStep:
    index: int
    deviation: Deviation
    reward: Fraction
    value_after: Fraction

    def to_dict(self) -> dict:
        return {
            "step": self.index,
            "kind": self.deviation.kind,
            "pair": list(self.deviation.pair),
            "r": rat_str(self.reward),
            "value": rat_str(self.value_after),
        }


@dataclass(frozen=True)
class DynamicsTrace:
    """Ordered record of deviations with phase markers.

    A phase starts at each both-matched (biswivel-kind) deviation; swivels
    in between only ever raise the matching value.
    """

    edge_count: int
    steps: tuple[TraceStep, ...]
    termination: str  # "stable" or "cap"

    def to_jsonl(self) -> str:
        lines = []
        phase = 0
        for s in self.steps:
            if s.deviation.kind in (BISWIVEL, RELAXED_BISWIVEL):
                phase += 1
                lines.append(json.dumps({"kind": "phase", "step": s.index, "phase": phase}, sort_keys=True))
            lines.append(json.dumps(s.to_dict(), sort_keys=True))
        lines.append(
            json.dumps(
                {"kind": "end", "termination": self.termination, "steps": len(self.steps)},
                sort_keys=True,
            )
        )
        return "\n".join(lines) + "\n"


def _require_cap(cap: int) -> None:
    if cap < 0:
        raise InstanceError(f"cap must be at least 0, got {cap}")


def _run(
    instance: GameInstance,
    start: Matching,
    relaxed: bool,
    policy: str,
    cap: int,
    cap_is_assertion: bool,
    rng: Optional[random.Random] = None,
) -> tuple[Matching, DynamicsTrace]:
    """Let one blocking pair deviate at a time until none is left or the cap is hit.

    The blocking edges are kept across steps as a sorted list of positions:
    the edge index when ``rng`` picks uniformly among them, else the rank
    under (-r, u, v), so the first one is the best pair.  After a deviation
    only the edges at the nodes whose partner changed get a new verdict.
    """
    graph = instance.graph
    edges, incident, rewards = graph.edges, graph.incident_edges, instance.rewards
    if rng is None:
        order = sorted(range(len(edges)), key=lambda i: (-rewards[i], edges[i]))
    else:
        order = list(range(len(edges)))
    position = [0] * len(edges)
    for p, i in enumerate(order):
        position[i] = p
    partner = list(start.partner_map)
    blocking = [partner[u] != v and _pair_check(instance, partner, u, v, relaxed) for u, v in edges]
    queue = sorted(position[i] for i, b in enumerate(blocking) if b)
    value = matching_value(instance, start)
    steps: list[TraceStep] = []
    while True:
        if not queue:
            termination = "stable"
            break
        if len(steps) >= cap:
            if cap_is_assertion:
                raise ConvergenceError(
                    f"{policy} exceeded {cap} deviations; the termination guarantee is broken"
                )
            termination = "cap"
            break
        i = order[queue[0] if rng is None else queue[rng.randrange(len(queue))]]
        u, v = edges[i]
        w, z = partner[u], partner[v]
        kind = (RELAXED_BISWIVEL if relaxed else BISWIVEL) if w is not None and z is not None else SWIVEL
        dev = _deviation(partner, u, v, kind)
        for a, b in dev.removed:
            value -= instance.edge_reward(a, b)
            partner[a] = partner[b] = None
        value += rewards[i]
        partner[u], partner[v] = v, u
        steps.append(TraceStep(index=len(steps), deviation=dev, reward=rewards[i], value_after=value))
        touched = set(incident[u])
        for x in (v, w, z):
            if x is not None:
                touched.update(incident[x])
        for j in touched:
            a, b = edges[j]
            now = partner[a] != b and _pair_check(instance, partner, a, b, relaxed)
            if now != blocking[j]:
                blocking[j] = now
                if now:
                    insort(queue, position[j])
                else:
                    del queue[bisect_left(queue, position[j])]
    final = Matching(
        n=graph.n,
        pairs=frozenset((x, y) for x, y in enumerate(partner) if y is not None and x < y),
    )
    return final, DynamicsTrace(edge_count=len(edges), steps=tuple(steps), termination=termination)


def run_brbp(
    instance: GameInstance,
    *,
    exact_max_n: int = DEFAULT_EXACT_LIMIT,
    cap: Optional[int] = None,
) -> tuple[Matching, DynamicsTrace]:
    """Best-relaxed-blocking-pair dynamics from a maximum-weight matching.

    Under equal sharing the default cap of 2m^2 is an assertion: exceeding
    it raises, because termination within that many deviations is
    guaranteed.  With an explicit cap, or for other sharing rules (where no
    termination guarantee exists), hitting the cap is reported in the trace
    as termination="cap".
    """
    m = len(instance.graph.edges)
    assertion = cap is None and isinstance(instance.sharing, EqualSharing)
    if cap is None:
        cap = max(2 * m * m, 1)
    _require_cap(cap)
    m_star, _ = max_weight_matching(instance, max_n=exact_max_n)
    return _run(instance, m_star, relaxed=True, policy="brbp", cap=cap, cap_is_assertion=assertion)


def run_best_blocking_pair(
    instance: GameInstance,
    start: Matching,
    *,
    cap: int = 1_000_000,
) -> tuple[Matching, DynamicsTrace]:
    """Repeatedly let the true blocking pair with maximum edge reward deviate.

    Ties break to the lexicographically smallest pair (min endpoint, then
    max endpoint) so runs are reproducible.
    """
    _require_cap(cap)
    start.validate_against(instance)
    return _run(instance, start, relaxed=False, policy="bbp", cap=cap, cap_is_assertion=False)


def run_arbitrary_dynamics(
    instance: GameInstance,
    start: Matching,
    seed: int,
    *,
    cap: int = 1_000_000,
) -> tuple[Matching, DynamicsTrace]:
    """Let a uniformly random blocking pair deviate at each step (seeded).

    Each step draws one index into the blocking pairs in edge order.
    """
    _require_cap(cap)
    start.validate_against(instance)
    return _run(
        instance,
        start,
        relaxed=False,
        policy="arbitrary",
        cap=cap,
        cap_is_assertion=False,
        rng=random.Random(seed),
    )


@dataclass(frozen=True)
class TraceLemmaReport:
    """Checks of the structural facts every best-relaxed run must satisfy."""

    empty: bool
    first_deviation_is_relaxed_biswivel: bool
    biswivel_count: int
    biswivel_limit: int
    biswivel_edges_distinct: bool
    reward_ordering_holds: bool
    phase_values_nondecreasing: bool

    @property
    def passed(self) -> bool:
        return (
            self.first_deviation_is_relaxed_biswivel
            and self.biswivel_count <= self.biswivel_limit
            and self.biswivel_edges_distinct
            and self.reward_ordering_holds
            and self.phase_values_nondecreasing
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def assert_trace_lemmas(trace: DynamicsTrace) -> TraceLemmaReport:
    """Verify the trace-level facts of a best-relaxed-blocking-pair run.

    Checks: the first deviation (if any) is a relaxed biswivel; at most m
    relaxed biswivels occur and their inserted edges are distinct; every
    deviation before a relaxed biswivel inserted an edge with reward at
    least the biswivel's; within each phase the matching value never
    decreases after the phase-opening step.
    """
    steps = trace.steps
    biswivel_kinds = (BISWIVEL, RELAXED_BISWIVEL)
    biswivels = [s for s in steps if s.deviation.kind in biswivel_kinds]
    edges = [s.deviation.pair for s in biswivels]

    ordering = monotone = True
    lowest = prev_value = None  # smallest reward and last value before the current step
    for s in steps:
        if s.deviation.kind in biswivel_kinds:  # opens a phase: its value is the new baseline
            if lowest is not None and lowest < s.reward:
                ordering = False
        elif prev_value is not None and s.value_after < prev_value:
            monotone = False
        lowest = s.reward if lowest is None else min(lowest, s.reward)
        prev_value = s.value_after

    return TraceLemmaReport(
        empty=not steps,
        first_deviation_is_relaxed_biswivel=not steps or steps[0].deviation.kind in biswivel_kinds,
        biswivel_count=len(biswivels),
        biswivel_limit=trace.edge_count,
        biswivel_edges_distinct=len(edges) == len(set(edges)),
        reward_ordering_holds=ordering,
        phase_values_nondecreasing=monotone,
    )
