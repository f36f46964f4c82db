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


def _keys(instance: GameInstance, mode: str) -> list[int]:
    """Per arc (x, y), the key x assigns to y: the column of ``verdict_table``
    that holds x's endpoint reward (raw) or stake (q).  Those are the share
    and the q-value, or twice them under equal sharing, times one positive
    scale, which keeps every strict order, tie and sign."""
    if mode not in (MODE_RAW, MODE_Q):
        raise ValueError(f"unknown preference mode {mode!r}")
    return instance.verdict_table[1][1 if mode == MODE_RAW else 0]


def _components(succ: list[int], lo: list[int], hi: list[int]) -> list[int]:
    """Strongly connected component label of every vertex of a digraph in
    which vertex v has the successors succ[lo[v]:hi[v]].

    One iterative pass of Tarjan's algorithm: a stack of the vertices being
    explored, each resuming at its next successor index ``at[v]``, stands in
    for recursion, so the depth is not bounded by the interpreter's
    recursion limit.
    """
    n = len(lo)
    order = [-1] * n  # discovery index
    low = [0] * n
    comp = [-1] * n  # set when a vertex leaves the Tarjan stack
    at = lo[:]
    stack: list[int] = []
    calls: list[int] = []
    counter = label = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        calls.append(root)
        while calls:
            v = calls[-1]
            i, end = at[v], hi[v]
            w = -1
            while i < end:
                x = succ[i]
                i += 1
                if order[x] < 0:
                    w = x
                    break
                if comp[x] < 0 and order[x] < low[v]:
                    low[v] = order[x]
            at[v] = i
            if w >= 0:
                order[w] = low[w] = counter
                counter += 1
                stack.append(w)
                calls.append(w)
                continue
            calls.pop()
            if calls:
                u = calls[-1]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == order[v]:
                while True:
                    x = stack.pop()
                    comp[x] = label
                    if x == v:
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
    labels the components; then only the states of components with more
    than one state are scanned, in state order, for such an arc, and a BFS
    walks back along the first one only, for the witness.  The returned
    witness may revisit nodes on contrived instances but always satisfies
    the defining inequalities.
    """
    # The states are the arcs of ``Graph``.  (a, b) -> (b, c) for every c != a that b weakly
    # prefers to a: the successors of state s are succ[lo[s]:hi[s]], one flat list.
    key = _keys(instance, mode)
    start, head, twin = instance.graph.start, instance.graph.head, instance.graph.twin
    succ: list[int] = []
    lo, hi = [0] * len(twin), [0] * len(twin)
    for b in range(instance.graph.n):
        row = key[start[b] : start[b + 1]]
        ids = range(start[b], start[b + 1])
        for t, kb_a in zip(ids, row):
            s = twin[t]  # the state (a, b), for t = (b, a)
            lo[s] = len(succ)
            succ += [u for u, kb_c in zip(ids, row) if kb_c >= kb_a and u != t]
            hi[s] = len(succ)

    comp = _components(succ, lo, hi)
    size = [0] * len(twin)
    for label in comp:
        size[label] += 1
    for si, label in enumerate(comp):
        if size[label] < 2:
            continue
        kb_a = key[twin[si]]
        for ti in succ[lo[si] : hi[si]]:
            if comp[ti] == label and key[ti] > kb_a:
                # BFS for a state path ti .. si; the strict arc closes si -> ti.
                prev = {ti: -1}
                queue = deque([ti])
                while si not in prev:
                    x = queue.popleft()
                    for y in succ[lo[x] : hi[x]]:
                        if y not in prev:
                            prev[y] = x
                            queue.append(y)
                back = [si]
                while prev[back[-1]] != -1:
                    back.append(prev[back[-1]])
                return tuple(head[twin[i]] for i in reversed(back))
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
    return _greedy(instance, mode)[0]


def _greedy(instance: GameInstance, mode: str) -> tuple[Matching, list[int]]:
    """(matching, scans): per extracted pair, the edges its extraction
    touched.  Each edge is touched at most once, so the scans sum to at most |E|."""
    cycle = detect_preference_cycle(instance, mode)
    if cycle is not None:
        raise PreferenceCycleError(cycle)
    key = _keys(instance, mode)
    graph = instance.graph
    n, start, head, twin = graph.n, graph.start, graph.head, graph.twin
    # Each live node v points at its best live neighbour by best[v], the first
    # arc of its list with a live head.  A list holds v's arcs sorted by
    # (-key, head): a reversed sort keeps the rising heads of equal keys.
    lists = [sorted(range(start[x], start[x + 1]), key=key.__getitem__, reverse=True) for x in range(n)]
    pos = [0] * n
    best = [lst[0] if lst else -1 for lst in lists]
    fans: list[set[int]] = [set() for _ in range(n)]  # fans[w]: live nodes whose best is w
    for v, a in enumerate(best):
        if a >= 0:
            fans[head[a]].add(v)
    alive = [True] * n

    def ready(v: int) -> bool:
        # v and its best b are mutually most preferred: v ties b's best key.
        a = best[v]
        return a >= 0 and key[twin[a]] == key[best[head[a]]]

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
        b = head[best[u]]
        pairs.append((u, b))
        alive[u] = alive[b] = False
        fans[b].discard(u)
        fans[head[best[b]]].discard(b)
        moved = fans[u] | fans[b]  # live nodes whose best just left
        touched = 1  # the pair's edge, then each list entry a pointer passes
        recheck = set(moved)
        for v in moved:
            lst, p = lists[v], pos[v]
            while p < len(lst) and not alive[head[lst[p]]]:
                p += 1
            touched += p - pos[v]
            pos[v] = p
            best[v] = lst[p] if p < len(lst) else -1
            if best[v] >= 0:
                fans[head[best[v]]].add(v)
            recheck |= fans[v]
        for v in recheck:
            if ready(v):
                heapq.heappush(heap, v)
        scans.append(touched)
    if any(alive[v] and best[v] >= 0 for v in range(n)):
        raise RuntimeError("no mutual-best pair although edges remain; preferences must contain a cycle")
    return Matching.of(n, pairs), scans


def _srp_stable(instance: GameInstance, key: list[int], matching: Matching) -> bool:
    """Stability in the pure preference-list sense of ``key``: a pair blocks
    when both sides strictly prefer each other over their current situation,
    and being unmatched has key zero."""
    graph = instance.graph
    held = [0 if p is None else key[graph.arc[x][p]] for x, p in enumerate(matching.partner_map)]
    return not any(
        key[a] > held[x] and key[graph.twin[a]] > held[y]
        for x, nbrs in enumerate(graph.adjacency)
        for a, y in enumerate(nbrs, graph.start[x])
    )


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
    try:
        result, _ = _greedy(instance, MODE_Q)
    except PreferenceCycleError:
        result = None
        for m in sorted(
            enumerate_matchings(instance.graph, max_n=max_n), key=lambda m: m.sorted_pairs()
        ):
            if _srp_stable(instance, _keys(instance, MODE_Q), m):
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
