"""Exact ground truth at desk scale.

Maximum-weight matching by dynamic programming over node subsets,
exhaustive matching enumeration, branch-and-bound stable-set enumeration,
and bound audits.  Limits are hard errors, never sampling fallbacks, so
every oracle claim stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .instance import (
    Edge,
    EqualSharing,
    GameInstance,
    Graph,
    InstanceError,
    TrustSharing,
    compute_Q,
    compute_Q_prime,
)
from .matching import Matching, _pair_check, matching_value
from .rationals import rat_str, rescale

DEFAULT_EXACT_LIMIT = 22
DEFAULT_ENUM_LIMIT = 12


class SizeLimitError(RuntimeError):
    """Instance exceeds the configured exact-computation limit."""


def require_max_n(max_n: int) -> None:
    """A size cap is a count of nodes: a negative one is an input error."""
    if max_n < 0:
        raise InstanceError(f"max_n must be at least 0, got {max_n}")


def _min_frontier_order(graph: Graph) -> list[int]:
    """The nodes in an order that keeps the DP's frontier small.

    The frontier is the set of unplaced neighbours of placed nodes.  Each
    step places the unplaced node that leaves the smallest frontier: the
    fewest new nodes added, less one if the node itself leaves the
    frontier.  Ties go to a node already on it, then to the smaller id.
    """
    n = graph.n
    neighbours = [0] * n
    for u, v in graph.edges:
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
    order: list[int] = []
    todo = list(range(n))
    unplaced = (1 << n) - 1
    frontier = 0
    while todo:
        fresh = unplaced & ~frontier
        best = 2 * n
        for x in todo:
            # (growth, not on the frontier) as one int below 2n; a strict <
            # keeps the smaller id.
            on = frontier >> x & 1
            key = 2 * (neighbours[x] & fresh).bit_count() - 3 * on
            if key < best:
                best, v = key, x
        todo.remove(v)
        order.append(v)
        unplaced ^= 1 << v
        frontier = (frontier | neighbours[v]) & unplaced
    return order


def max_weight_matching(
    instance: GameInstance, *, max_n: int = DEFAULT_EXACT_LIMIT
) -> tuple[Matching, Fraction]:
    """Exact maximum-weight matching via subset dynamic programming.

    The DP runs on integers.  Every reward is multiplied by the lcm of the
    rewards' denominators, which keeps every strict inequality and every
    tie.  Then the edge of rank r among the m sorted edges gets one
    tie-break bit: its weight becomes ``(w << m) | (1 << (m - 1 - r))``.
    The bits sum to less than ``1 << m``, so they decide only between
    matchings of equal value, and there they favour the matching that holds
    the earlier edge at the first edge where two differ.  No two matchings
    share a weight, so the optimum has exactly one witness: among the
    optimal matchings, the one that matches the free node of lowest id to
    its smallest neighbour whenever some optimum allows it.  This is the
    lexicographically least optimal pair list, and the optimum is
    ``total >> m`` divided by the scale.

    Since the witness is unique, the DP may visit the nodes in any order.
    Its state is the set of nodes still free; the lowest in the order is
    either left unmatched or matched to a later free neighbour.  The states
    it reaches grow like 2^frontier, so the order is ``_min_frontier_order``.
    """
    graph = instance.graph
    n = graph.n
    require_max_n(max_n)
    if n > max_n:
        raise SizeLimitError(f"n={n} exceeds exact-optimum limit {max_n}")
    scale, weights = rescale(instance.rewards)
    m = len(weights)
    order = _min_frontier_order(graph)
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    # Per position: (bit of a later neighbour, perturbed weight).  The bits
    # of a state are positions, so its lowest bit is the next node in order.
    arcs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for r, ((u, v), w) in enumerate(zip(graph.edges, weights)):
        lo, hi = position[u], position[v]
        if lo > hi:
            lo, hi = hi, lo
        arcs[lo].append((1 << hi, (w << m) | (1 << (m - 1 - r))))
    memo: dict[int, int] = {0: 0}

    def best(mask: int) -> int:
        low = mask & -mask
        rest = mask ^ low
        value = memo.get(rest)  # leave the node unmatched
        if value is None:
            value = best(rest)
        for bit, w in arcs[low.bit_length() - 1]:
            if mask & bit:
                cand = memo.get(rest ^ bit)
                if cand is None:
                    cand = best(rest ^ bit)
                cand += w
                if cand > value:
                    value = cand
        memo[mask] = value
        return value

    mask = (1 << n) - 1
    total = best(mask) if mask else 0
    # Each state's children are in the memo, and exactly one of them
    # reaches its value.
    pairs = []
    while mask:
        low = mask & -mask
        rest = mask ^ low
        i = low.bit_length() - 1
        for bit, w in arcs[i]:
            if mask & bit and memo[rest ^ bit] + w == memo[mask]:
                pairs.append((order[i], order[bit.bit_length() - 1]))
                mask = rest ^ bit
                break
        else:
            mask = rest
    return Matching.of(n, pairs), Fraction(total >> m, scale)


def enumerate_matchings(graph: Graph, *, max_n: int = DEFAULT_ENUM_LIMIT) -> Iterator[Matching]:
    """Every matching of the graph, in a fixed deterministic order."""
    require_max_n(max_n)
    if graph.n > max_n:
        raise SizeLimitError(f"n={graph.n} exceeds enumeration limit {max_n}")
    adjacency = graph.adjacency
    n = graph.n
    pairs: list[Edge] = []
    used = [False] * n

    def recurse(v: int) -> Iterator[Matching]:
        while v < n and used[v]:
            v += 1
        if v == n:
            yield Matching(n=n, pairs=frozenset(pairs))
            return
        used[v] = True
        # v stays unmatched
        yield from recurse(v + 1)
        # v matches a free higher-indexed neighbor (lower ones were decided)
        for u in adjacency[v]:
            if u > v and not used[u]:
                used[u] = True
                pairs.append((v, u))
                yield from recurse(v + 1)
                pairs.pop()
                used[u] = False
        used[v] = False

    yield from recurse(0)


def enumerate_stable_matchings(
    instance: GameInstance, *, max_n: int = DEFAULT_ENUM_LIMIT
) -> tuple[Matching, ...]:
    """All stable matchings, canonically sorted by their pair lists.

    Branch and bound over the recursion of ``enumerate_matchings``.  A
    pair's verdict reads only the partners of its two endpoints, so it is
    final once both are decided (matched, or passed over as unmatched).
    Each decision checks the edges it makes final and cuts the branch at the
    first blocking one; every completed matching is therefore stable.
    """
    graph = instance.graph
    n = graph.n
    require_max_n(max_n)
    if n > max_n:
        raise SizeLimitError(f"n={n} exceeds enumeration limit {max_n}")
    adjacency = graph.adjacency
    partner: list[Optional[int]] = [None] * n
    decided = [False] * n
    pairs: list[Edge] = []
    found: list[Matching] = []

    def blocked(x: int, skip: Optional[int]) -> bool:
        """Whether an edge from x to a decided node other than ``skip`` blocks."""
        for y in adjacency[x]:
            if decided[y] and y != skip and _pair_check(instance, partner, x, y, False):
                return True
        return False

    def recurse(v: int) -> None:
        while v < n and decided[v]:
            v += 1
        if v == n:
            found.append(Matching(n=n, pairs=frozenset(pairs)))
            return
        decided[v] = True
        if not blocked(v, None):
            recurse(v + 1)
        for u in adjacency[v]:
            if u > v and not decided[u]:
                partner[v], partner[u] = u, v
                if not blocked(v, None) and not blocked(u, v):
                    decided[u] = True
                    pairs.append((v, u))
                    recurse(v + 1)
                    pairs.pop()
                    decided[u] = False
                partner[u] = None
        partner[v] = None
        decided[v] = False

    recurse(0)
    return tuple(sorted(found, key=lambda m: m.sorted_pairs()))


@dataclass(frozen=True)
class BoundCheck:
    """One bound comparison; checked=False when the ratio does not exist."""

    name: str
    bound: Fraction
    checked: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "bound": rat_str(self.bound),
            "checked": self.checked,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class AuditReport:
    optimum: Fraction
    optimum_matching: Matching
    stable_count: int
    stable_values: tuple[Fraction, ...]
    worst_stable: Optional[Fraction]
    best_stable: Optional[Fraction]
    poa: Optional[Fraction]
    pos: Optional[Fraction]
    R: Optional[Fraction]
    Q: Optional[Fraction]
    Q_prime: Optional[Fraction]
    bounds: tuple[BoundCheck, ...]

    @property
    def all_bounds_pass(self) -> bool:
        return all(b.passed for b in self.bounds)

    def to_dict(self) -> dict:
        def opt(x: Optional[Fraction]) -> Optional[str]:
            return None if x is None else rat_str(x)

        return {
            "optimum": rat_str(self.optimum),
            "optimum_matching": self.optimum_matching.to_dict(),
            "stable_count": self.stable_count,
            "stable_values": [rat_str(v) for v in self.stable_values],
            "worst_stable": opt(self.worst_stable),
            "best_stable": opt(self.best_stable),
            "poa": opt(self.poa),
            "pos": opt(self.pos),
            "R": opt(self.R),
            "Q": opt(self.Q),
            "Q_prime": opt(self.Q_prime),
            "bounds": [b.to_dict() for b in self.bounds],
            "all_bounds_pass": self.all_bounds_pass,
        }


def audit_bounds(
    instance: GameInstance,
    *,
    max_n: int = DEFAULT_ENUM_LIMIT,
    exact_max_n: int = DEFAULT_EXACT_LIMIT,
) -> AuditReport:
    """Enumerate the stable set and compare PoA/PoS against every applicable bound.

    A ratio is None when no stable matching exists or its denominator (the
    worst or the best stable value) is 0.  A bound on a ratio that is None,
    or on share ratios that are undefined, is reported as unchecked rather
    than silently passed.
    """
    # The enumeration cap is the tighter one by default: check it before any work.
    stable = enumerate_stable_matchings(instance, max_n=max_n)
    witness, optimum = max_weight_matching(instance, max_n=exact_max_n)
    values = tuple(matching_value(instance, m) for m in stable)
    worst = min(values, default=None)
    best = max(values, default=None)
    poa = optimum / worst if worst else None
    pos = optimum / best if best else None

    r_param = instance.share_ratio
    q_param = compute_Q(instance) if r_param is not None else None
    q_prime = compute_Q_prime(instance) if r_param is not None else None

    a1 = instance.friendship.alpha1
    a2 = instance.friendship.alpha2
    checks: list[BoundCheck] = []

    def add(name: str, bound: Fraction, ratio: Optional[Fraction]) -> None:
        checked = ratio is not None
        checks.append(
            BoundCheck(name=name, bound=bound, checked=checked, passed=(not checked) or ratio <= bound)
        )

    if isinstance(instance.sharing, EqualSharing):
        add("poa_le_2", Fraction(2), poa)
        add("pos_le_equal_bound", (2 + 2 * a1) / (1 + 2 * a1 + a2), pos)
    if isinstance(instance.sharing, TrustSharing) and instance.friendship.is_zero:
        add("poa_le_3", Fraction(3), poa)
    if r_param is not None:
        if instance.friendship.is_zero:
            add("poa_le_1_plus_R", 1 + r_param, poa)
        add("poa_le_1_plus_Q", 1 + q_param, poa)  # type: ignore[operator]
        add("pos_le_1_plus_Q", 1 + q_param, pos)  # type: ignore[operator]
        sandwich_ok = q_param < q_prime <= q_param + 1  # type: ignore[operator]
        checks.append(
            BoundCheck(name="q_prime_sandwich", bound=q_param + 1, checked=True, passed=sandwich_ok)  # type: ignore[operator]
        )

    return AuditReport(
        optimum=optimum,
        optimum_matching=witness,
        stable_count=len(stable),
        stable_values=values,
        worst_stable=worst,
        best_stable=best,
        poa=poa,
        pos=pos,
        R=r_param,
        Q=q_param,
        Q_prime=q_prime,
        bounds=tuple(checks),
    )
