"""Existence machinery for unequal sharing.

Preference lists keyed by raw shares or by friendship stakes (q-values),
staircase-cycle detection over those keys, the greedy mutual-best
algorithm for cycle-free instances, and the roommates reduction that
certifies stability under friendship.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
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
    return _preference_cycle(instance, _key_table(instance, mode))


def _preference_cycle(instance: GameInstance, keys: tuple[dict[int, int], ...]) -> Optional[tuple[int, ...]]:
    adjacency = instance.graph.adjacency
    # State (a, b) has id start[a] + the position of b in adjacency[a]: the
    # sorted order of the oriented edges.  twin[s] is the id of s reversed.
    start = [0]
    for nbrs in adjacency:
        start.append(start[-1] + len(nbrs))
    seen = start[:-1]  # per node b, the id of b's next state to be twinned
    twin = []
    for nbrs in adjacency:  # per node a, in rising order
        for b in nbrs:  # so a is the next entry of b's sorted list
            twin.append(seen[b])
            seen[b] += 1
    # key[s] is the key a assigns to b.  (a, b) -> (b, c) for every c != a
    # that b weakly prefers to a: the successors of state s are
    # succ[lo[s]:hi[s]], in state order, one flat list for all states.
    key: list[int] = []
    succ: list[int] = []
    lo = [0] * len(twin)
    hi = [0] * len(twin)
    for b, nbrs in enumerate(adjacency):
        kb = keys[b]
        row = [kb[c] for c in nbrs]
        key += row
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
                return tuple(bisect_right(start, i) - 1 for i in reversed(back))
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
    # A key row runs in rising neighbour id, as verdict_table is built in
    # edge order, and a reversed sort keeps the order of equal keys.
    lists = [sorted(row, key=row.__getitem__, reverse=True) for row in keys]
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
