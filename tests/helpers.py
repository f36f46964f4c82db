"""Shared construction and brute-force helpers for the test suite."""

from __future__ import annotations

import argparse
import json
import random
from bisect import bisect_left
from collections import deque
from functools import lru_cache
from fractions import Fraction as F
from typing import Optional, Sequence

from socialmatch.ccg import (
    ATMOST,
    DEFAULT_GRID_K,
    ContributionGame,
    StrategyProfile,
    ccg_to_dict,
    corresponding_matching_game,
    saturated_profile,
)
from socialmatch.cli import (
    GADGETS,
    cmd_audit,
    cmd_ccg,
    cmd_check,
    cmd_dynamics,
    cmd_solve,
)
from socialmatch.cli import __doc__ as CLI_DOC
from socialmatch.dynamics import TraceStep
from socialmatch.instance import (
    Edge,
    EqualSharing,
    FriendshipVector,
    GameInstance,
    Graph,
    InstanceError,
    ObliviousSharing,
    normalize_edge,
)
from socialmatch.matching import (
    BISWIVEL,
    RELAXED_BISWIVEL,
    SWIVEL,
    Condition,
    Matching,
    apply_deviation,
    blocking_pairs,
    deviation_for,
    is_stable,
    matching_value,
    node_reward,
)
from socialmatch.oracle import DEFAULT_ENUM_LIMIT, DEFAULT_EXACT_LIMIT, SizeLimitError, max_weight_matching
from socialmatch.rationals import rescale
from socialmatch.roommates import MODE_Q, MODE_RAW, PreferenceCycleError, _greedy, _keys, detect_preference_cycle

PATH3 = Graph(4, ((0, 1), (1, 2), (2, 3)))


def equal_instance(graph: Graph, rewards, alpha=()) -> GameInstance:
    return GameInstance(
        graph=graph,
        rewards=tuple(F(r) for r in rewards),
        sharing=EqualSharing(),
        friendship=FriendshipVector(tuple(F(a) for a in alpha)),
    )


def path3_equal(rewards=(1, 1, 1), alpha=()) -> GameInstance:
    return equal_instance(PATH3, rewards, alpha)


def oblivious_instance(graph: Graph, shares, alpha=()) -> GameInstance:
    ordered = tuple(shares[e] for e in graph.edges)
    return GameInstance(
        graph=graph,
        rewards=tuple(a + b for a, b in ordered),
        sharing=ObliviousSharing(shares=tuple((F(a), F(b)) for a, b in ordered)),
        friendship=FriendshipVector(tuple(F(a) for a in alpha)),
    )


def exact_key(instance: GameInstance, mode: str, x: int, y: int) -> F:
    """The exact preference key x assigns to neighbour y, from ``shares``:
    x's share of the edge (raw), or its q-value, that share plus alpha1
    times y's (q).  The library ranks by ``roommates._keys``, a column of
    the integer ``verdict_table``, instead."""
    i = bisect_left(instance.graph.edges, normalize_edge(x, y))
    s_lo, s_hi = instance.shares[i]
    own, other = (s_lo, s_hi) if x < y else (s_hi, s_lo)
    if mode == MODE_RAW:
        return own
    assert mode == MODE_Q, mode
    return own + instance.friendship.alpha1 * other


@lru_cache(maxsize=64)
def stake_table(instance: GameInstance) -> tuple[dict[int, tuple[F, F, F]], ...]:
    """Per node x, per neighbour y: (stake of x, e_x, e_y) on xy, in ``Fraction``s.

    e_x is x's endpoint reward, computed from ``shares``: its share, or the
    full reward r under equal sharing, where both matched players enjoy r.
    The stake of x is e_x plus alpha1 times e_y.  The library holds only
    the integer image of these terms, ``GameInstance.verdict_table``.
    """
    a1 = instance.friendship.alpha1
    both_get_r = isinstance(instance.sharing, EqualSharing)
    table: tuple[dict[int, tuple[F, F, F]], ...] = tuple({} for _ in range(instance.graph.n))
    for (u, v), (su, sv) in zip(instance.graph.edges, instance.shares):
        eu, ev = (su + sv, su + sv) if both_get_r else (su, sv)
        table[u][v] = (eu + a1 * ev, eu, ev)
        table[v][u] = (ev + a1 * eu, ev, eu)
    return table


def subset_dp_max_weight(
    instance: GameInstance, *, max_n: int = DEFAULT_EXACT_LIMIT
) -> tuple[Matching, F]:
    """Reference for ``oracle.max_weight_matching``: the subset DP over node ids.

    The DP runs on integers: every reward is multiplied by the lcm of the
    rewards' denominators, which keeps every strict inequality and every
    tie, and the optimum is divided back at the end.  The witness is
    deterministic: at each step the lowest free node is matched to the
    smallest neighbor that still achieves the optimum (preferring a match
    over skipping when values tie), which yields the lexicographically
    least optimal pair list.
    """
    graph = instance.graph
    n = graph.n
    if n > max_n:
        raise SizeLimitError(f"n={n} exceeds exact-optimum limit {max_n}")
    scale, weights = rescale(instance.rewards)
    # Per node: (neighbour, its bit, scaled reward).  The edges are sorted,
    # so each row lists its neighbours in increasing id.
    arcs: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for (u, v), w in zip(graph.edges, weights):
        arcs[u].append((v, 1 << v, w))
        arcs[v].append((u, 1 << u, w))
    memo: dict[int, int] = {0: 0}

    def best(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        v = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        value = best(rest)  # leave v unmatched
        for _, bit, w in arcs[v]:
            if mask & bit:
                cand = w + best(rest & ~bit)
                if cand > value:
                    value = cand
        memo[mask] = value
        return value

    mask = (1 << n) - 1
    total = best(mask)
    pairs = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        target = best(mask)
        chosen = None
        for u, bit, w in arcs[v]:
            if mask & bit and w + best(rest & ~bit) == target:
                chosen = u
                break
        if chosen is None:
            mask = rest
        else:
            pairs.append((v, chosen))
            mask = rest & ~(1 << chosen)
    return Matching.of(n, pairs), F(total, scale)


def build_distances(graph: Graph) -> tuple[tuple[Optional[int], ...], ...]:
    """All-pairs unweighted shortest hop distances (BFS from each node).

    Disconnected pairs get ``None``.  The library weighs friendship only
    through ``FriendshipVector.rows``; this is the dense reference.
    """
    out = []
    for src in range(graph.n):
        dist: list[Optional[int]] = [None] * graph.n
        dist[src] = 0
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for y in graph.adjacency[x]:
                if dist[y] is None:
                    dist[y] = dist[x] + 1  # type: ignore[operator]
                    queue.append(y)
        out.append(tuple(dist))
    return tuple(out)


@lru_cache(maxsize=64)
def distances(graph: Graph) -> tuple[tuple[Optional[int], ...], ...]:
    """``build_distances`` once per graph: the dense reference table."""
    return build_distances(graph)


def dense_perceived(instance: GameInstance, matching: Matching, v: int) -> F:
    """v's perceived utility from the definition: its reward plus every other
    node's reward weighted by alpha at their hop distance."""
    total = node_reward(instance, matching, v)
    for u, d in enumerate(distances(instance.graph)[v]):
        a = instance.friendship.at(d)
        if u != v and a:
            total += a * node_reward(instance, matching, u)
    return total


def brute_improving(instance: GameInstance, matching: Matching, u: int, v: int) -> bool:
    """Independent oracle: apply the deviation and compare perceived
    utilities computed straight from the definition."""
    if matching.partner(u) == v:
        return False
    kind = BISWIVEL if matching.partner(u) is not None and matching.partner(v) is not None else SWIVEL
    after = apply_deviation(matching, deviation_for(matching, u, v, kind))
    return dense_perceived(instance, after, u) > dense_perceived(
        instance, matching, u
    ) and dense_perceived(instance, after, v) > dense_perceived(instance, matching, v)


def rational_pair_check(
    instance: GameInstance,
    partner: Sequence[Optional[int]],
    u: int,
    v: int,
    relaxed: bool,
    witness: Optional[list[Condition]] = None,
) -> bool:
    """Reference for ``matching._pair_check``: the same inequalities, read from
    ``stake_table`` and evaluated in ``Fraction``s."""
    table = stake_table(instance)
    a1, a2 = instance.friendship.alpha1, instance.friendship.alpha2
    blocking = True
    for x, y in ((u, v), (v, u)):
        px, py = partner[x], partner[y]
        lhs = table[x][y][0]
        rhs = F(0) if px is None else table[x][px][0]
        if py is not None:
            _, own, other = table[y][py]
            cross = a2 if (relaxed and px is not None) or py not in table[x] else a1
            rhs += a1 * own + cross * other
        if witness is not None:
            witness.append(Condition(node=x, lhs=lhs, rhs=rhs))
        blocking = blocking and lhs > rhs
    return blocking


def best_pair(instance: GameInstance, matching: Matching, relaxed: bool) -> Optional[Edge]:
    """Reference pick for bbp and brbp: a full scan for the blocking pair with
    maximum edge reward, ties to the lexicographically smallest pair."""
    pairs = blocking_pairs(instance, matching, relaxed)
    if not pairs:
        return None
    return min(pairs, key=lambda p: (-instance.edge_reward(*p), p))


def full_scan_dynamics(
    instance: GameInstance, start: Matching, policy: str, seed: int = 0, cap: int = 1_000_000
) -> tuple[tuple[TraceStep, ...], Matching, str]:
    """Reference loop for the dynamics runners: (steps, final matching, termination).

    Every step scans all edges with ``blocking_pairs`` (through ``best_pair``
    for "bbp" and "brbp"), then applies the deviation with
    ``apply_deviation`` and sums the new matching with ``matching_value``.  ``policy`` is "arbitrary" (a seeded uniform pick
    from the blocking pairs in edge order), "bbp" or "brbp" (the pair with
    the largest reward, ties to the smallest pair; "brbp" uses relaxed
    verdicts).
    """
    relaxed = policy == "brbp"
    rng = random.Random(seed)
    matching = start
    steps: list[TraceStep] = []
    while True:
        if policy == "arbitrary":
            pairs = blocking_pairs(instance, matching, relaxed)
            pair = pairs[rng.randrange(len(pairs))] if pairs else None
        else:
            pair = best_pair(instance, matching, relaxed)
        if pair is None:
            return tuple(steps), matching, "stable"
        u, v = pair
        if len(steps) >= cap:
            return tuple(steps), matching, "cap"
        if matching.partner(u) is not None and matching.partner(v) is not None:
            kind = RELAXED_BISWIVEL if relaxed else BISWIVEL
        else:
            kind = SWIVEL
        dev = deviation_for(matching, u, v, kind)
        matching = apply_deviation(matching, dev)
        steps.append(TraceStep(len(steps), dev, instance.edge_reward(u, v), matching_value(instance, matching)))


def bfs_preference_cycle(instance: GameInstance, mode: str) -> Optional[tuple[int, ...]]:
    """Independent oracle for ``detect_preference_cycle``: one BFS per strict arc.

    Same digraph of oriented edges, same strict-arc order and same BFS, so
    the first strict arc that closes a cycle gives the same witness; each
    key is read once through ``exact_key``, which computes the exact share
    or q-value, where the detector reads the rescaled integer table.
    """
    graph = instance.graph
    states = sorted([(u, v) for u, v in graph.edges] + [(v, u) for u, v in graph.edges])
    index = {s: i for i, s in enumerate(states)}
    key = {(x, y): exact_key(instance, mode, x, y) for x, y in states}
    succ: list[list[int]] = [[] for _ in states]
    strict_arcs: list[tuple[int, int]] = []
    for si, (a, b) in enumerate(states):
        kb_a = key[(b, a)]
        for c in graph.adjacency[b]:
            if c == a:
                continue
            kb_c = key[(b, c)]
            if kb_c >= kb_a:
                ti = index[(b, c)]
                succ[si].append(ti)
                if kb_c > kb_a:
                    strict_arcs.append((si, ti))

    def path(src: int, dst: int) -> Optional[list[int]]:
        prev = {src: -1}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            if x == dst:
                out = [x]
                while prev[out[-1]] != -1:
                    out.append(prev[out[-1]])
                return list(reversed(out))
            for y in succ[x]:
                if y not in prev:
                    prev[y] = x
                    queue.append(y)
        return None

    for si, ti in strict_arcs:
        back = path(ti, si)
        if back is not None:
            return tuple(states[i][0] for i in back)
    return None


ALPHA_SAMPLES = (
    (),
    (F(1, 2),),
    (F(1, 2), F(1, 4)),
    (F(1), F(1)),
    (F(3, 4), F(1, 2), F(1, 4)),
)


def reference_cli_parser() -> argparse.ArgumentParser:
    """``cli.build_parser`` as it was when it built all six subcommand parsers on every call."""
    parser = argparse.ArgumentParser(prog="socialmatch", description=CLI_DOC)
    sub = parser.add_subparsers(dest="command", required=True)

    def max_n(p):
        p.add_argument(
            "--max-n",
            type=int,
            dest="max_n",
            help=f"node cap for both enumeration and the exact optimum "
            f"(default: {DEFAULT_ENUM_LIMIT} and {DEFAULT_EXACT_LIMIT})",
        )

    def common(p, instance_required: bool = True):
        if instance_required:
            p.add_argument("--instance", required=True, help="instance JSON path")
        p.add_argument("--alpha", help="override friendship vector, e.g. '1/2,1/4'")
        max_n(p)

    # Only the chosen gadget's parser is built, in main: every call builds
    # this parser, and eight gadget parsers would cost more than the rest.
    p = sub.add_parser("gen", help="generate a benchmark instance")
    p.add_argument("gadget", choices=GADGETS)
    p.add_argument("flags", nargs=argparse.REMAINDER, help="the gadget's flags; see gen GADGET --help")

    p = sub.add_parser("solve", help="compute a stable matching")
    common(p)
    p.add_argument("--method", choices=("brbp", "greedy", "srpq"), default="brbp")
    p.add_argument("--prefs", choices=("raw", "q"), help="greedy's keys (default: raw); not with brbp or srpq")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("audit", help="enumerate the stable set and check bounds")
    common(p, instance_required=False)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--instance", help="instance JSON path")
    source.add_argument("--manifest", help="JSON array of instance paths to audit in order")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("dynamics", help="run improvement dynamics, stream the trace")
    common(p)
    p.add_argument("--method", choices=("brbp", "bbp", "arbitrary"), default="brbp")
    p.add_argument("--start", help="'opt' (default), 'empty', or a matching JSON path; not with brbp")
    p.add_argument("--seed", type=int, help="seed of --method arbitrary (default: 0); not with bbp or brbp")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("ccg", help="contribution-game equilibria and audits")
    p.add_argument("--game", required=True, help="contribution game JSON path")
    p.add_argument("--profile", help="check this profile instead of constructing one; not with --max-n")
    p.add_argument("--grid-k", type=int, default=DEFAULT_GRID_K, dest="grid_k")
    max_n(p)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=cmd_ccg)

    p = sub.add_parser("check", help="certify a matching or a profile")
    p.add_argument("--instance", help="instance JSON path")
    p.add_argument("--matching", help="matching JSON path")
    p.add_argument("--game", help="contribution game JSON path")
    p.add_argument("--profile", help="profile JSON path")
    p.add_argument("--alpha", help="override friendship vector")
    p.add_argument("--grid-k", type=int, dest="grid_k", help=f"only with --game (default: {DEFAULT_GRID_K})")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=cmd_check)

    return parser


def greedy_scans(instance: GameInstance, mode: str) -> tuple[Matching, list[int]]:
    """``greedy_mutual_best`` with its work: (matching, edges touched per extracted pair)."""
    return _greedy(instance, mode)


def key_rows(instance: GameInstance, mode: str) -> list[dict[int, int]]:
    """Per node x, per neighbour y: the key x assigns to y, read from the
    library's key column at the id of arc (x, y)."""
    key = _keys(instance, mode)
    return [{y: key[a] for y, a in arcs.items()} for arcs in instance.graph.arc]


def rescan_greedy(instance: GameInstance, mode: str) -> tuple[Matching, list[int]]:
    """``roommates._greedy`` as it was when each extraction rescanned every live
    edge: the reference.  Returns (matching, live edges scanned per pair)."""
    cycle = detect_preference_cycle(instance, mode)
    if cycle is not None:
        raise PreferenceCycleError(cycle)
    keys = key_rows(instance, mode)
    graph = instance.graph
    alive = [True] * graph.n
    pairs: list[tuple[int, int]] = []
    scans: list[int] = []
    while True:
        # One pass over the remaining edges: each node's best key and its
        # smallest best neighbor.  Sorted edge order visits every node's
        # neighbors in increasing id, so "first attaining" = smallest id.
        best_key: dict[int, int] = {}
        best_partner: dict[int, int] = {}
        scanned = 0
        for u, v in graph.edges:
            if alive[u] and alive[v]:
                scanned += 1
                ku = keys[u][v]
                kv = keys[v][u]
                if u not in best_key or ku > best_key[u]:
                    best_key[u] = ku
                    best_partner[u] = v
                if v not in best_key or kv > best_key[v]:
                    best_key[v] = kv
                    best_partner[v] = u
        if not best_key:
            break
        # A pair (u, b) is mutually most preferred when u also attains b's
        # best key; cycle-free preferences guarantee one exists.
        chosen = None
        for u in sorted(best_key):
            b = best_partner[u]
            if keys[b][u] == best_key[b]:
                chosen = (u, b)
                break
        if chosen is None:
            raise RuntimeError(
                "no mutual-best pair although edges remain; preferences must contain a cycle"
            )
        pairs.append(chosen)
        scans.append(scanned)
        alive[chosen[0]] = False
        alive[chosen[1]] = False
    return Matching.of(graph.n, pairs), scans


def profile_from_rows(game: ContributionGame, rows: Sequence[Sequence[F]]) -> StrategyProfile:
    """The profile of a dense n x m table, ``rows[v][ei]`` being v's
    contribution to edge ei; every entry off incidence must be zero."""
    for v, row in enumerate(rows):
        for ei, x in enumerate(row):
            assert x == 0 or v in game.graph.edges[ei], (v, game.graph.edges[ei], x)
    return StrategyProfile.build(game, [(rows[u][ei], rows[v][ei]) for ei, (u, v) in enumerate(game.graph.edges)])


def dense_rows(game: ContributionGame, profile: StrategyProfile) -> list[list[F]]:
    """The profile as a dense n x m table, zero off incidence."""
    rows = [[F(0)] * len(game.graph.edges) for _ in range(game.graph.n)]
    for ei, ((u, v), (x_u, x_v)) in enumerate(zip(game.graph.edges, profile.amounts)):
        rows[u][ei], rows[v][ei] = x_u, x_v
    return rows


def ccg_to_json(game: ContributionGame) -> str:
    """A contribution game as the JSON document ``ccg_from_json`` reads."""
    return json.dumps(ccg_to_dict(game), indent=2, sort_keys=True) + "\n"


class NotStableError(ValueError):
    """The supplied matching is not stable in the corresponding game."""


def matching_to_equilibrium(game: ContributionGame, matching: Matching) -> StrategyProfile:
    """Realize a stable matching of the corresponding game as a profile.

    Only meaningful without the spend-everything constraint; the matching
    is checked for stability first.
    """
    if game.mode != ATMOST:
        raise InstanceError("matching_to_equilibrium applies to atmost-mode games")
    verdict = is_stable(corresponding_matching_game(game), matching)
    if not verdict.stable:
        raise NotStableError(f"matching is blocked by {verdict.blocking_pairs}")
    return saturated_profile(game, matching)


def tight_social_optimum(game: ContributionGame, *, exact_max_n: int = DEFAULT_EXACT_LIMIT) -> StrategyProfile:
    """Optimal-value profile that saturates a maximum-weight matching of the
    corresponding game; its total reward equals the matching optimum."""
    instance = corresponding_matching_game(game)
    witness, _ = max_weight_matching(instance, max_n=exact_max_n)
    return saturated_profile(game, witness)
