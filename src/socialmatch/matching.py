"""Matchings, utilities, and exact blocking-pair detection.

The improving-deviation conditions are evaluated as exact strict
inequalities in the endpoint-reward convention of the instance (both
endpoints enjoy the full edge reward under equal sharing, shares
otherwise).  Every verdict compares Python ``int``s: the instance's terms
rescaled over one per-instance scale (``GameInstance.verdict_table``);
only a witness is turned back into rationals.  Ties are never improving.
A verdict needs no hop distance: the only friendship term beyond alpha1
is between an endpoint and its partner's old partner, which are one or
two hops apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .instance import ZERO, Edge, GameInstance, InstanceError, node_id, normalize_edge, perceive, require_known_keys
from .rationals import rat_str

SWIVEL = "swivel"
BISWIVEL = "biswivel"
RELAXED_BISWIVEL = "relaxed-biswivel"


class StaleDeviationError(ValueError):
    """Raised when a deviation no longer fits the matching it is applied to."""


@dataclass(frozen=True)
class Matching:
    """A set of disjoint edges; the strategy state of the matching game."""

    n: int
    pairs: frozenset[Edge]

    @staticmethod
    def of(n: int, pairs: Iterable[Edge]) -> "Matching":
        normalized = frozenset(normalize_edge(u, v) for u, v in pairs)
        seen: set[int] = set()
        for u, v in normalized:
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceError(f"matched pair ({u},{v}) outside 0..{n - 1}")
            if u in seen or v in seen:
                raise InstanceError(f"node matched twice in {sorted(normalized)}")
            seen.add(u)
            seen.add(v)
        return Matching(n=n, pairs=normalized)

    @staticmethod
    def empty(n: int) -> "Matching":
        return Matching(n=n, pairs=frozenset())

    @cached_property
    def partner_map(self) -> tuple[Optional[int], ...]:
        partner: list[Optional[int]] = [None] * self.n
        for u, v in self.pairs:
            partner[u] = v
            partner[v] = u
        return tuple(partner)

    def partner(self, v: int) -> Optional[int]:
        return self.partner_map[v]

    def sorted_pairs(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.pairs))

    def validate_against(self, instance: GameInstance) -> None:
        for u, v in self.pairs:
            if not instance.graph.has_edge(u, v):
                raise InstanceError(f"matched pair ({u},{v}) is not an edge of the graph")

    def to_dict(self) -> dict:
        return {"pairs": [list(p) for p in self.sorted_pairs()]}

    @staticmethod
    def from_dict(doc: dict, n: int) -> "Matching":
        try:
            pairs = [(node_id(u), node_id(v)) for u, v in doc["pairs"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceError(f"malformed matching document: {exc}") from exc
        require_known_keys(doc, ("pairs",), "the matching")
        return Matching.of(n, pairs)


@dataclass(frozen=True)
class UtilityProfile:
    """Per-node rewards and perceived utilities for a fixed matching."""

    reward: tuple[Fraction, ...]
    perceived: tuple[Fraction, ...]


@dataclass(frozen=True)
class Deviation:
    """One improving move: the pair that matches, and the edges it breaks."""

    kind: str
    pair: Edge
    removed: tuple[Edge, ...]


@dataclass(frozen=True)
class Condition:
    """One strict inequality backing a verdict; holds iff lhs > rhs."""

    node: int
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs > self.rhs

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "lhs": rat_str(self.lhs),
            "rhs": rat_str(self.rhs),
            "holds": self.holds,
        }


@dataclass(frozen=True)
class PairVerdict:
    """Blocking-pair verdict with the witness inequalities behind it."""

    pair: Edge
    blocking: bool
    kind: Optional[str]
    conditions: tuple[Condition, ...]

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "blocking": self.blocking,
            "kind": self.kind,
            "conditions": [c.to_dict() for c in self.conditions],
        }


@dataclass(frozen=True)
class StabilityResult:
    stable: bool
    blocking_pairs: tuple[Edge, ...]


def node_reward(instance: GameInstance, matching: Matching, v: int) -> Fraction:
    """Reward collected by v: its endpoint reward on the matched edge, 0 if unmatched.

    Equal-sharing instances evaluate in the both-endpoints-get-r convention;
    other rules use the node's share.
    """
    w = matching.partner(v)
    if w is None:
        return ZERO
    scale, columns = instance.verdict_table
    return Fraction(columns[1][instance.graph.arc[v][w]], scale)


def perceived_utility(instance: GameInstance, matching: Matching, v: int) -> Fraction:
    """Own reward plus alpha-weighted rewards of every other node by hop distance."""
    return utility_profile(instance, matching).perceived[v]


def utility_profile(instance: GameInstance, matching: Matching) -> UtilityProfile:
    rewards = tuple(node_reward(instance, matching, v) for v in range(instance.graph.n))
    return UtilityProfile(reward=rewards, perceived=perceive(instance.alpha_rows, rewards))


def matching_value(instance: GameInstance, matching: Matching) -> Fraction:
    """Sum of matched edge rewards.

    This is the welfare measure used for all optimum/ratio purposes; node
    rewards under equal sharing sum to twice it, which rescales every ratio
    identically.
    """
    arc, arc_edge = instance.graph.arc, instance.graph.arc_edge
    return sum((instance.rewards[arc_edge[arc[u][v]]] for u, v in matching.pairs), ZERO)


def _pair_check(
    instance: GameInstance,
    partner: Sequence[Optional[int]],
    u: int,
    v: int,
    relaxed: bool,
    witness: Optional[list[Condition]] = None,
) -> bool:
    """Whether the adjacent pair (u, v) blocks the matching given by ``partner``.

    Each endpoint x (with y the other endpoint) must strictly gain:

        stake_x(xy) > stake_x(x p_x) + alpha1 * r_y(y p_y) + c * r_{p_y}(y p_y)

    where p_x, p_y are the current partners, a term is dropped when its
    partner is None, and c is alpha1 if p_y is adjacent to x, else alpha2
    (x-y-p_y is a path; alpha2 for a relaxed both-matched pair).  Both
    sides are ``int``s over one scale S, read from ``verdict_table``'s
    columns by arc id, and only the partners of u and v are read.  Scans
    stop at u's side when it fails; when ``witness`` is a list, both sides
    are evaluated and appended to it as Conditions, divided back by S.
    Never call this on a pair matched to each other.
    """
    scale, (stake, _, a1_own, a1_other, a2_other) = instance.verdict_table
    pu, pv = partner[u], partner[v]
    ru, rv = instance.graph.arc[u], instance.graph.arc[v]
    # The two sides are written out: this is the innermost call of every scan.
    lhs_u = stake[ru[v]]
    rhs_u = 0 if pu is None else stake[ru[pu]]
    if pv is not None:
        k = rv[pv]
        rhs_u += a1_own[k] + (a2_other[k] if (relaxed and pu is not None) or pv not in ru else a1_other[k])
    if witness is None and lhs_u <= rhs_u:
        return False
    lhs_v = stake[rv[u]]
    rhs_v = 0 if pv is None else stake[rv[pv]]
    if pu is not None:
        k = ru[pu]
        rhs_v += a1_own[k] + (a2_other[k] if (relaxed and pv is not None) or pu not in rv else a1_other[k])
    if witness is not None:
        witness.append(Condition(node=u, lhs=Fraction(lhs_u, scale), rhs=Fraction(rhs_u, scale)))
        witness.append(Condition(node=v, lhs=Fraction(lhs_v, scale), rhs=Fraction(rhs_v, scale)))
    return lhs_u > rhs_u and lhs_v > rhs_v


def _verdict(instance: GameInstance, matching: Matching, u: int, v: int, relaxed: bool) -> PairVerdict:
    pair = normalize_edge(u, v)
    if not instance.graph.has_edge(u, v):
        raise InstanceError(f"({u},{v}) is not an edge")
    partner = matching.partner_map
    w, z = partner[u], partner[v]
    if w == v:
        return PairVerdict(pair=pair, blocking=False, kind=None, conditions=())
    conditions: list[Condition] = []
    blocking = _pair_check(instance, partner, u, v, relaxed, conditions)
    if w is not None and z is not None:
        kind = RELAXED_BISWIVEL if relaxed else BISWIVEL
    else:
        kind = SWIVEL
        if w is None and z is not None:
            conditions.reverse()  # the matched endpoint's condition comes first
    return PairVerdict(pair=pair, blocking=blocking, kind=kind, conditions=tuple(conditions))


def is_improving_pair(instance: GameInstance, matching: Matching, u: int, v: int) -> PairVerdict:
    """Exact blocking-pair verdict for the adjacent pair (u, v).

    Both matched: the biswivel inequalities, with the cross coefficients
    given by the true hop distances between u and v's old partner (and
    vice versa).  One matched: the swivel inequalities.  Both unmatched:
    each side must gain strictly.  A pair matched to each other is never
    blocking.
    """
    return _verdict(instance, matching, u, v, relaxed=False)


def is_relaxed_blocking_pair(instance: GameInstance, matching: Matching, u: int, v: int) -> PairVerdict:
    """Like is_improving_pair, but the biswivel cross terms use alpha2.

    Every blocking pair is also a relaxed blocking pair; improving swivels
    are unchanged.
    """
    return _verdict(instance, matching, u, v, relaxed=True)


def blocking_pairs(instance: GameInstance, matching: Matching, relaxed: bool = False) -> tuple[Edge, ...]:
    partner = matching.partner_map
    return tuple(
        (u, v)
        for u, v in instance.graph.edges
        if partner[u] != v and _pair_check(instance, partner, u, v, relaxed)
    )


def is_stable(instance: GameInstance, matching: Matching) -> StabilityResult:
    """Exhaustive scan over the edges of G for improving pairs."""
    matching.validate_against(instance)
    pairs = blocking_pairs(instance, matching, relaxed=False)
    return StabilityResult(stable=not pairs, blocking_pairs=pairs)


def deviation_for(matching: Matching, u: int, v: int, kind: str) -> Deviation:
    """Build the deviation matching (u, v) against the current matching."""
    return _deviation(matching.partner_map, u, v, kind)


def _deviation(partner: Sequence[Optional[int]], u: int, v: int, kind: str) -> Deviation:
    removed = []
    w = partner[u]
    z = partner[v]
    if w is not None and w != v:
        removed.append(normalize_edge(u, w))
    if z is not None and z != u:
        removed.append(normalize_edge(v, z))
    return Deviation(kind=kind, pair=normalize_edge(u, v), removed=tuple(sorted(removed)))


def apply_deviation(matching: Matching, deviation: Deviation) -> Matching:
    """Remove the edges of the matching containing u and v; add (u, v)."""
    u, v = deviation.pair
    for e in deviation.removed:
        if e not in matching.pairs:
            raise StaleDeviationError(f"deviation removes {e}, not in the matching")
    expected = deviation_for(matching, u, v, deviation.kind)
    if expected.removed != deviation.removed:
        raise StaleDeviationError(
            f"deviation removes {deviation.removed}, current incident edges are {expected.removed}"
        )
    pairs = set(matching.pairs)
    for e in deviation.removed:
        pairs.discard(e)
    pairs.add(deviation.pair)
    return Matching(n=matching.n, pairs=frozenset(pairs))
