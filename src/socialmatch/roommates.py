"""Existence machinery for unequal sharing.

Preference lists keyed by raw shares or by friendship stakes (q-values),
staircase-cycle detection over those keys, the greedy mutual-best
algorithm for cycle-free instances, and the roommates reduction that
certifies stability under friendship.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Optional

from .instance import GameInstance
from .matching import Matching, is_stable
from .oracle import DEFAULT_ENUM_LIMIT, enumerate_matchings, require_max_n

MODE_RAW = "raw"
MODE_Q = "q"


class PreferenceCycleError(ValueError):
    """The greedy algorithm requires cycle-free preferences."""

    def __init__(self, cycle: tuple[int, ...]):
        super().__init__(f"preference cycle {cycle}")
        self.cycle = cycle


def _key_table(instance: GameInstance, mode: str) -> tuple[dict[int, int], ...]:
    """Per node x, per neighbour y: the key x assigns to y, as an integer.

    The key is read from ``GameInstance.verdict_table``: the endpoint
    reward (raw) or the stake (q).  Those equal the share and the q-value,
    or twice them under equal sharing, on every edge, times the table's
    one positive scale.  The preference machinery only compares keys, with
    each other and with 0, and a positive factor common to all of them
    keeps every strict order, every tie and every sign.
    """
    if mode == MODE_RAW:
        column = 1  # own endpoint reward
    elif mode == MODE_Q:
        column = 0  # stake
    else:
        raise ValueError(f"unknown preference mode {mode!r}")
    _, rows = instance.verdict_table
    return tuple({y: terms[column] for y, terms in row.items()} for row in rows)


def _components(succ: list[list[int]]) -> list[int]:
    """Strongly connected component label of every vertex of a digraph.

    One iterative pass of Tarjan's algorithm: an explicit stack of
    (vertex, successor iterator) frames stands in for recursion, so the
    depth is not bounded by the interpreter's recursion limit.
    """
    n = len(succ)
    order = [-1] * n  # discovery index
    low = [0] * n
    comp = [-1] * n  # set when a vertex leaves the Tarjan stack
    stack: list[int] = []
    counter = label = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        frames = [(root, iter(succ[root]))]
        while frames:
            v, successors = frames[-1]
            for w in successors:
                if order[w] < 0:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    frames.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = label
                        if w == v:
                            break
                    label += 1
    return comp


def detect_preference_cycle(instance: GameInstance, mode: str = MODE_RAW) -> Optional[tuple[int, ...]]:
    """Find a node cycle along which each node weakly prefers its successor
    edge over its predecessor edge, with at least one strict preference.

    Detection walks the digraph of oriented edges: (a, b) -> (b, c) exists
    when b weakly prefers c over a (c != a), and is strict when the
    preference is strict.  A strict arc lying on a directed cycle of that
    digraph is exactly a staircase cycle, and it lies on one exactly when
    its two ends share a strongly connected component.  One Tarjan pass
    labels the components; a BFS then walks back along the first such arc
    only, for the witness.  The returned witness may revisit nodes on
    contrived instances but always satisfies the defining inequalities.
    """
    return _preference_cycle(instance, _key_table(instance, mode))


def _preference_cycle(instance: GameInstance, keys: tuple[dict[int, int], ...]) -> Optional[tuple[int, ...]]:
    graph = instance.graph
    states = [(u, v) for u, v in graph.edges] + [(v, u) for u, v in graph.edges]
    states.sort()
    index = {s: i for i, s in enumerate(states)}
    succ: list[list[int]] = [[] for _ in states]
    strict_arcs: list[tuple[int, int]] = []
    for si, (a, b) in enumerate(states):
        kb = keys[b]
        kb_a = kb[a]
        for c in graph.adjacency[b]:
            if c == a:
                continue
            kb_c = kb[c]
            if kb_c >= kb_a:
                ti = index[(b, c)]
                succ[si].append(ti)
                if kb_c > kb_a:
                    strict_arcs.append((si, ti))

    comp = _components(succ)
    for si, ti in strict_arcs:
        if comp[si] == comp[ti]:
            # BFS for a state path ti .. si; the strict arc closes si -> ti.
            prev = {ti: -1}
            queue = deque([ti])
            while si not in prev:
                x = queue.popleft()
                for y in succ[x]:
                    if y not in prev:
                        prev[y] = x
                        queue.append(y)
            back = [si]
            while prev[back[-1]] != -1:
                back.append(prev[back[-1]])
            return tuple(states[i][0] for i in reversed(back))
    return None


def greedy_mutual_best(instance: GameInstance, mode: str = MODE_RAW) -> Matching:
    """Repeatedly match a mutually most-preferred adjacent pair and remove it.

    Requires cycle-free preferences, and raises ``PreferenceCycleError``
    otherwise; the output is stable in the key's preference semantics.
    Each extraction takes the smallest node that has a mutually best
    partner.  Every node keeps a pointer to its best live neighbour in its
    sorted preference list, and a heap holds the nodes whose best prefers
    them back; after a pair leaves, only the nodes that pointed at it, and
    the nodes that point at those, are looked at again.  Pointers only move
    forward, so all extractions together read each list entry once; each
    node looked at again costs one heap push, O(log |V|).
    """
    return _greedy(instance, _key_table(instance, mode))[0]


def _greedy(instance: GameInstance, keys: tuple[dict[int, int], ...]) -> tuple[Matching, list[int]]:
    """(matching, scans): per extracted pair, the edges its extraction
    touched.  Each edge is touched at most once, so the scans sum to at most |E|."""
    cycle = _preference_cycle(instance, keys)
    if cycle is not None:
        raise PreferenceCycleError(cycle)
    n = instance.graph.n
    # Each live node points at its best live neighbour: the first live entry
    # of its list, sorted by (-key, id): best key first, ties to smaller id.
    lists = [sorted(row, key=lambda y: (-row[y], y)) for row in keys]
    pos = [0] * n
    best = [lst[0] if lst else -1 for lst in lists]
    fans: list[set[int]] = [set() for _ in range(n)]  # fans[w]: live nodes whose best is w
    for v, b in enumerate(best):
        if b >= 0:
            fans[b].add(v)
    alive = [True] * n

    def ready(v: int) -> bool:
        # v and its best b are mutually most preferred: v ties b's best key.
        b = best[v]
        return b >= 0 and keys[b][v] == keys[b][best[b]]

    # Every ready node is on the heap; an entry that stopped being ready is
    # dropped when popped.  A ready node stays ready until it or its best
    # leaves: its best's next best cannot outrank it.
    heap = [v for v in range(n) if ready(v)]
    pairs: list[tuple[int, int]] = []
    scans: list[int] = []
    while heap:
        u = heapq.heappop(heap)
        if not alive[u] or not ready(u):
            continue
        b = best[u]
        pairs.append((u, b))
        alive[u] = alive[b] = False
        fans[b].discard(u)
        fans[best[b]].discard(b)
        moved = fans[u] | fans[b]  # live nodes whose best just left
        touched = 1  # the pair's edge, then each list entry a pointer passes
        recheck = set(moved)
        for v in moved:
            lst, p = lists[v], pos[v]
            while p < len(lst) and not alive[lst[p]]:
                p += 1
            touched += p - pos[v]
            pos[v] = p
            best[v] = lst[p] if p < len(lst) else -1
            if best[v] >= 0:
                fans[best[v]].add(v)
            recheck |= fans[v]
        for v in recheck:
            if ready(v):
                heapq.heappush(heap, v)
        scans.append(touched)
    if any(alive[v] and best[v] >= 0 for v in range(n)):
        raise RuntimeError("no mutual-best pair although edges remain; preferences must contain a cycle")
    return Matching.of(n, pairs), scans


def _srp_stable(instance: GameInstance, keys: tuple[dict[int, int], ...], matching: Matching) -> bool:
    """Stability in the pure preference-list sense of ``keys``: a pair blocks
    when both sides strictly prefer each other over their current situation,
    and being unmatched has key zero."""
    partner = matching.partner_map
    for u, v in instance.graph.edges:
        pu, pv = partner[u], partner[v]
        if pu == v:
            continue
        if keys[u][v] <= (0 if pu is None else keys[u][pu]):
            continue
        if keys[v][u] > (0 if pv is None else keys[v][pv]):
            return False
    return True


def solve_srp_q(
    instance: GameInstance, *, max_n: int = DEFAULT_ENUM_LIMIT
) -> Optional[Matching]:
    """Stable matching via the q-value roommates reduction.

    Cycle-free q-preferences are solved greedily; otherwise the roommates
    instance is solved exactly by enumeration at desk scale.  Any returned
    matching is verified stable in the friendship game before returning;
    None means the reduction has no stable matching.
    """
    require_max_n(max_n)
    keys = _key_table(instance, MODE_Q)
    try:
        result, _ = _greedy(instance, keys)
    except PreferenceCycleError:
        result = None
        for m in sorted(
            enumerate_matchings(instance.graph, max_n=max_n), key=lambda m: m.sorted_pairs()
        ):
            if _srp_stable(instance, keys, m):
                result = m
                break
        if result is None:
            return None
    verdict = is_stable(instance, result)
    if not verdict.stable:
        raise RuntimeError(
            f"roommates reduction returned {result.sorted_pairs()}, but it is blocked by "
            f"{verdict.blocking_pairs}; this contradicts the reduction guarantee"
        )
    return result
