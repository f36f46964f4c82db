"""Convex contribution games over budgets and per-edge reward functions.

Players split a budget across incident edges; an edge pays off a function
of both endpoint contributions, shared per the edge's split.  Pairwise
equilibrium is certified against a finite deviation grid that always
contains the full-budget transfers, which are the load-bearing moves for
convex reward families; verdicts are labeled grid-certified to be honest
about that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional, Sequence

from .instance import (
    ONE,
    ZERO,
    Edge,
    EqualSharing,
    FriendshipVector,
    GameInstance,
    Graph,
    InstanceError,
    MatthewSharing,
    ObliviousSharing,
    compute_Q,
    node_id,
    normalize_edge,
    perceive,
    require_known_keys,
)
from .dynamics import run_brbp
from .matching import Matching
from .oracle import DEFAULT_ENUM_LIMIT, DEFAULT_EXACT_LIMIT, enumerate_stable_matchings, max_weight_matching
from .rationals import rat, rat_array, rat_str, rescale

ATMOST = "atmost"
EXACT = "exact"

FAMILY_PRODUCT = "product"
FAMILY_MIN = "min"
FAMILY_POWPROD = "powprod"

SPLIT_EQUAL = "equal"
SPLIT_MATTHEW = "matthew"
SPLIT_PROPORTIONAL = "proportional"

DEFAULT_GRID_K = 8


@dataclass(frozen=True)
class RewardFunction:
    """Total reward of an edge as a function of the two contributions.

    product: c*x*y; min: c*min(x, y); powprod: c*(x*y)**k with integer k >= 1.
    All vanish when either contribution is zero and are nondecreasing in
    each argument; min is not convex in a single argument past its kink.
    """

    family: str
    c: Fraction
    k: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", rat(self.c))
        if self.family not in (FAMILY_PRODUCT, FAMILY_MIN, FAMILY_POWPROD):
            raise InstanceError(f"unknown reward family {self.family!r}")
        if self.c <= 0:
            raise InstanceError("reward coefficient must be positive")
        if type(self.k) is not int or self.k < 1:  # a bool is not an exponent
            raise InstanceError(f"reward exponent must be a positive integer, got {self.k!r}")

    def total(self, x: Fraction, y: Fraction) -> Fraction:
        if self.family == FAMILY_PRODUCT:
            return self.c * x * y
        if self.family == FAMILY_MIN:
            return self.c * min(x, y)
        return self.c * (x * y) ** self.k


@dataclass(frozen=True)
class ContributionGame:
    """Graph, budgets, per-edge reward functions and splits, friendship, budget mode."""

    graph: Graph
    budgets: tuple[Fraction, ...]
    functions: tuple[RewardFunction, ...]
    splits: tuple[str, ...]
    friendship: FriendshipVector
    mode: str = ATMOST
    lam: Optional[tuple[Fraction, ...]] = None  # node brand values for matthew splits

    def __post_init__(self) -> None:
        object.__setattr__(self, "budgets", tuple(rat(b) for b in self.budgets))
        n = self.graph.n
        m = len(self.graph.edges)
        if len(self.budgets) != n:
            raise InstanceError("one budget per node required")
        if any(b < 0 for b in self.budgets):
            raise InstanceError("budgets must be nonnegative")
        if len(self.functions) != m or len(self.splits) != m:
            raise InstanceError("one reward function and one split per edge required")
        for s in self.splits:
            if s not in (SPLIT_EQUAL, SPLIT_MATTHEW, SPLIT_PROPORTIONAL):
                raise InstanceError(f"unknown split {s!r}")
        if any(s == SPLIT_MATTHEW for s in self.splits):
            if self.lam is None or len(self.lam) != n:
                raise InstanceError("matthew splits need one lambda per node")
            if any(x <= 0 for x in self.lam):
                raise InstanceError("lambdas must be positive")
        if self.mode not in (ATMOST, EXACT):
            raise InstanceError(f"unknown budget mode {self.mode!r}")
        if self.mode == EXACT:
            for v in range(n):
                if self.budgets[v] > 0 and not self.graph.adjacency[v]:
                    raise InstanceError(
                        f"exact mode: node {v} has budget {self.budgets[v]} but no incident edge"
                    )

    @cached_property
    def alpha_rows(self) -> tuple[dict[int, Fraction], ...]:
        return self.friendship.rows(self.graph)

    @property
    def local_friendship(self) -> bool:
        return all(a == 0 for a in self.friendship.alpha[1:])

    @property
    def all_equal_split(self) -> bool:
        return all(s == SPLIT_EQUAL for s in self.splits)

    def endpoint_rewards(self, ei: int, x_u: Fraction, x_v: Fraction) -> tuple[Fraction, Fraction]:
        """Node-level rewards of both endpoints, in the same convention as the
        matching side: equal splits pay the full edge reward to both endpoints.
        The other splits divide it, by lambda (matthew) or by contribution
        (proportional)."""
        total = self.functions[ei].total(x_u, x_v)
        split = self.splits[ei]
        if split == SPLIT_EQUAL:
            return total, total
        if split == SPLIT_MATTHEW:
            u, v = self.graph.edges[ei]
            weight_u, weight = self.lam[u], self.lam[u] + self.lam[v]  # type: ignore[index]
        else:
            weight_u, weight = x_u, x_u + x_v
        r_u = weight_u / weight * total if weight else ZERO
        return r_u, total - r_u


@dataclass(frozen=True)
class StrategyProfile:
    """One contribution pair per edge, exact in rationals."""

    amounts: tuple[tuple[Fraction, Fraction], ...]  # [edge index]: (x_u, x_v) on edge (u, v)

    @staticmethod
    def build(game: ContributionGame, amounts: Sequence[Sequence[Fraction]]) -> "StrategyProfile":
        profile = StrategyProfile(amounts=tuple((rat(x_u), rat(x_v)) for x_u, x_v in amounts))
        for v in range(game.graph.n):
            total = ZERO
            for ei, x in zip(game.graph.incident_edges[v], profile.row(game, v)):
                if x < 0:
                    raise InstanceError(f"negative allocation of node {v} on edge {ei}")
                total += x
            if game.mode == EXACT:
                if total != game.budgets[v]:
                    raise InstanceError(
                        f"exact mode: node {v} spends {total}, budget is {game.budgets[v]}"
                    )
            elif total > game.budgets[v]:
                raise InstanceError(f"node {v} overspends: {total} > {game.budgets[v]}")
        return profile

    def row(self, game: ContributionGame, v: int) -> tuple[Fraction, ...]:
        """v's contributions over its incident edges, in order."""
        edges = game.graph.edges
        return tuple(self.amounts[ei][edges[ei].index(v)] for ei in game.graph.incident_edges[v])

    def with_rows(
        self, game: ContributionGame, nodes: Sequence[int], rows: Sequence[Sequence[Fraction]]
    ) -> "StrategyProfile":
        """This profile with each of ``nodes`` contributing its row of ``rows``
        over its incident edges, in order."""
        amounts = [list(pair) for pair in self.amounts]
        for v, row in zip(nodes, rows, strict=True):
            for ei, x in zip(game.graph.incident_edges[v], row, strict=True):
                amounts[ei][game.graph.edges[ei].index(v)] = x
        return StrategyProfile.build(game, amounts)

    def to_dict(self, game: ContributionGame) -> dict:
        entries = []
        for v in range(game.graph.n):
            for ei, x in zip(game.graph.incident_edges[v], self.row(game, v)):
                if x != 0:
                    entries.append({"node": v, "edge": list(game.graph.edges[ei]), "amount": rat_str(x)})
        return {"alloc": entries}

    @staticmethod
    def from_dict(doc: dict, game: ContributionGame) -> "StrategyProfile":
        amounts = [[ZERO, ZERO] for _ in game.graph.edges]
        seen = set()
        try:
            entries = doc["alloc"]
            require_known_keys(doc, ("alloc",), "the profile")
            for entry in entries:
                v = node_id(entry["node"])
                e = normalize_edge(node_id(entry["edge"][0]), node_id(entry["edge"][1]))
                amount = rat(entry["amount"])
                require_known_keys(entry, ("node", "edge", "amount"), "a profile entry")
                if not 0 <= v < game.graph.n or not game.graph.has_edge(*e):
                    raise InstanceError(f"node {v} on edge {e} is not in the game")
                if v not in e:
                    raise InstanceError(f"node {v} allocates to non-incident edge {e}")
                if (v, e) in seen:
                    raise InstanceError(f"node {v} on edge {e} is listed twice")
                seen.add((v, e))
                amounts[game.graph.arc_edge[game.graph.arc[e[0]][e[1]]]][e.index(v)] = amount
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise InstanceError(f"malformed profile document: {exc}") from exc
        return StrategyProfile.build(game, amounts)


def node_rewards(game: ContributionGame, profile: StrategyProfile) -> tuple[Fraction, ...]:
    rewards = [ZERO] * game.graph.n
    for ei, ((u, v), (x_u, x_v)) in enumerate(zip(game.graph.edges, profile.amounts)):
        if x_u == 0 and x_v == 0:
            continue
        r_u, r_v = game.endpoint_rewards(ei, x_u, x_v)
        rewards[u] += r_u
        rewards[v] += r_v
    return tuple(rewards)


def perceived_utilities(game: ContributionGame, profile: StrategyProfile) -> tuple[Fraction, ...]:
    return perceive(game.alpha_rows, node_rewards(game, profile))


def total_reward(game: ContributionGame, profile: StrategyProfile) -> Fraction:
    """Sum of edge rewards; matches matching_value of the corresponding game."""
    total = ZERO
    for f, (x_u, x_v) in zip(game.functions, profile.amounts):
        total += f.total(x_u, x_v)
    return total


def corresponding_matching_game(game: ContributionGame) -> GameInstance:
    """The matching game whose edge rewards are the full-budget payoffs.

    Equal splits give an equal-sharing instance; all-proportional splits
    give a brand-value instance with lambda equal to the budgets; anything
    else becomes fixed oblivious shares.  Requires every edge to pay off
    positively at full budgets (both endpoint budgets positive).
    """
    rewards = []
    for ei, (u, v) in enumerate(game.graph.edges):
        r = game.functions[ei].total(game.budgets[u], game.budgets[v])
        if r <= 0:
            raise InstanceError(
                f"edge {(u, v)} pays {r} at full budgets; the corresponding game needs positive rewards"
            )
        rewards.append(r)

    sharing: object
    if game.all_equal_split:
        sharing = EqualSharing()
    elif all(s == SPLIT_MATTHEW for s in game.splits):
        sharing = MatthewSharing(lam=game.lam)  # type: ignore[arg-type]
    elif all(s == SPLIT_PROPORTIONAL for s in game.splits):
        lam = tuple(
            b if b > 0 else Fraction(1)  # isolated zero-budget nodes never matter
            for b in game.budgets
        )
        sharing = MatthewSharing(lam=lam)
    else:
        shares = []
        for ei, (u, v) in enumerate(game.graph.edges):
            r_u, r_v = game.endpoint_rewards(ei, game.budgets[u], game.budgets[v])
            shares.append((r_u / 2, r_v / 2) if game.splits[ei] == SPLIT_EQUAL else (r_u, r_v))
        sharing = ObliviousSharing(shares=tuple(shares))

    return GameInstance(
        graph=game.graph,
        rewards=tuple(rewards),
        sharing=sharing,  # type: ignore[arg-type]
        friendship=game.friendship,
    )


def saturated_profile(game: ContributionGame, matching: Matching) -> StrategyProfile:
    """Matched nodes put the full budget on the matched edge; unmatched nodes
    allocate nothing (atmost) or spread equally over incident edges (exact)."""
    rows = []
    for v in range(game.graph.n):
        incident = game.graph.incident_edges[v]
        w = matching.partner(v)
        if w is not None:
            matched = game.graph.arc_edge[game.graph.arc[v][w]]
            rows.append([game.budgets[v] if ei == matched else ZERO for ei in incident])
        elif game.mode == EXACT and game.budgets[v] > 0:
            rows.append([game.budgets[v] / len(incident)] * len(incident))
        else:
            rows.append([ZERO] * len(incident))
    idle = StrategyProfile(amounts=((ZERO, ZERO),) * len(game.graph.edges))
    return idle.with_rows(game, range(game.graph.n), rows)


@dataclass(frozen=True)
class DeviationWitness:
    """A concrete improving deviation: who moves, where, and the utility jump."""

    kind: str  # "unilateral" | "bilateral" | "pair-split"
    nodes: tuple[int, ...]
    new_rows: tuple[tuple[Fraction, ...], ...]  # per node, its new row over its incident edges
    utilities_before: tuple[Fraction, ...]
    utilities_after: tuple[Fraction, ...]

    def to_dict(self, game: ContributionGame) -> dict:
        moves = []
        for node, row in zip(self.nodes, self.new_rows):
            alloc = [
                {"edge": list(game.graph.edges[ei]), "amount": rat_str(x)}
                for ei, x in zip(game.graph.incident_edges[node], row)
                if x != 0
            ]
            moves.append({"node": node, "alloc": alloc})
        return {
            "kind": self.kind,
            "nodes": list(self.nodes),
            "moves": moves,
            "utilities_before": [rat_str(x) for x in self.utilities_before],
            "utilities_after": [rat_str(x) for x in self.utilities_after],
        }


@dataclass(frozen=True)
class PEVerdict:
    is_equilibrium: bool
    certificate: str  # "grid-certified" when an equilibrium
    grid_k: int
    witness: Optional[DeviationWitness]

    def to_dict(self, game: ContributionGame) -> dict:
        return {
            "is_equilibrium": self.is_equilibrium,
            "certificate": self.certificate,
            "grid_k": self.grid_k,
            "witness": None if self.witness is None else self.witness.to_dict(game),
        }


class _Checker:
    """Deviation enumeration against a profile, on integers.

    Every candidate contribution is an integer multiple of ``1/scale``, where
    ``scale`` is the lcm of the denominators of the profile entries and the
    budgets, times K: transfers ``t*x`` with ``t = i/K``, the ``(1-t)``
    rescalings and full-budget concentrations all stay on it.  A candidate
    row is therefore an ``int`` list over the node's incident edges, in order.

    Rewards are integer multiples of ``1/reward_unit``, one scale for the
    whole check: ``scale`` to the largest degree of a reward polynomial,
    times the lcm of the denominators of each ``c`` and of ``c`` times each
    matthew fraction, times the lcm of the nonzero current sums ``X_u + X_v``
    of proportional edges.  The friendship rows are scaled to integers by the
    lcm of the alpha denominators, ``alpha_unit``, so utilities are integer
    multiples of ``1/unit``, ``unit = reward_unit * alpha_unit``.  A
    proportional edge's new shares ``X_u/(X_u + X_v)`` are not reduced: its
    reward changes carry the positive denominator ``X_u + X_v``, and sums of
    changes cross-multiply.  A candidate's utility changes are therefore
    integer numerators over one positive integer denominator, it improves
    when every numerator is positive, and only a witness is turned back into
    ``Fraction``s.

    An observer's utility change is a sum of per-edge terms, and only edges
    whose contributions change have a nonzero term.  Two movers share at most
    their common edge, so each mover's other edges are summed once per
    candidate row and the common edge once per pair of rows.
    """

    def __init__(self, game: ContributionGame, profile: StrategyProfile, grid_k: int):
        self.game = game
        self.profile = profile
        self.k = grid_k
        denominators = [x.denominator for pair in profile.amounts for x in pair]
        denominators += [b.denominator for b in game.budgets]
        self.scale = lcm(*denominators) * grid_k
        self.amounts = [(self._to_int(x_u), self._to_int(x_v)) for x_u, x_v in profile.amounts]
        self.rows = [[self._to_int(x) for x in profile.row(game, v)] for v in range(game.graph.n)]
        self.budgets = [self._to_int(b) for b in game.budgets]

        # Per edge: the power of X_u*X_v in the reward (None for min), and the
        # coefficients of poly/scale**degree in u's and v's rewards before a
        # proportional split.
        powers: list[Optional[int]] = []
        coefficients: list[tuple[Fraction, Fraction]] = []
        sums = []
        for ei, (x_u, x_v) in enumerate(self.amounts):
            f = game.functions[ei]
            powers.append(None if f.family == FAMILY_MIN else f.k if f.family == FAMILY_POWPROD else 1)
            c_u = c_v = f.c
            if game.splits[ei] == SPLIT_MATTHEW:
                c_u, c_v = game.endpoint_rewards(ei, ONE, ONE)  # every family pays c at (1, 1)
            elif game.splits[ei] == SPLIT_PROPORTIONAL and x_u + x_v:
                sums.append(x_u + x_v)
            coefficients.append((c_u, c_v))
        degrees = [1 if power is None else 2 * power for power in powers]
        self.reward_unit = (
            self.scale ** max(degrees, default=0)
            * lcm(*(c.denominator for pair in coefficients for c in pair))
            * lcm(*sums)
        )
        self.alpha_unit, alpha = rescale(game.friendship.alpha)
        self.alpha1 = alpha[0] if alpha else 0
        self.alpha = [
            {x: a.numerator * (self.alpha_unit // a.denominator) for x, a in row.items()} for row in game.alpha_rows
        ]
        self.unit = self.reward_unit * self.alpha_unit

        # Per edge: (power, integer coefficient of u, of v, proportional?).
        self.edges = []
        for ei, (power, d, (c_u, c_v)) in enumerate(zip(powers, degrees, coefficients)):
            per_degree = self.reward_unit // self.scale**d
            proportional = game.splits[ei] == SPLIT_PROPORTIONAL
            self.edges.append((power, self._integral(c_u * per_degree), self._integral(c_v * per_degree), proportional))

        self.current: list[tuple[int, int]] = []  # rewards at the profile, in units of 1/reward_unit
        for ei, (x_u, x_v) in enumerate(self.amounts):
            r_u, r_v, den = self._rewards(ei, x_u, x_v)
            self.current.append((self._integral(Fraction(r_u, den)), self._integral(Fraction(r_v, den))))

    @staticmethod
    def _integral(x: Fraction) -> int:
        assert x.denominator == 1, f"{x} is not an integer on the utility scale"
        return x.numerator

    def _to_int(self, x: Fraction) -> int:
        return x.numerator * (self.scale // x.denominator)

    def to_fractions(self, row: Sequence[int]) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.scale) for x in row)

    def utility_changes(self, changes: tuple[Sequence[int], int]) -> tuple[Fraction, ...]:
        """The exact utility changes that a candidate's (numerators, denominator) stand for."""
        numerators, den = changes
        return tuple(Fraction(x, den * self.unit) for x in numerators)

    def _rewards(self, ei: int, x_u: int, x_v: int) -> tuple[int, int, int]:
        """Rewards of edge ei's endpoints at contributions (x_u, x_v): two
        numerators in units of 1/reward_unit over one positive denominator."""
        power, c_u, c_v, proportional = self.edges[ei]
        poly = min(x_u, x_v) if power is None else (x_u * x_v) ** power
        if proportional and x_u + x_v:
            return c_u * poly * x_u, c_v * poly * x_v, x_u + x_v
        return c_u * poly, c_v * poly, 1

    def _gain(self, ei: int, x_u: int, x_v: int) -> tuple[int, int, int, int, int]:
        """Reward changes of edge ei's endpoints at contributions (x_u, x_v),
        what they change in the endpoints' own utilities, and the positive
        denominator of all four."""
        r_u, r_v = self.current[ei]
        new_u, new_v, den = self._rewards(ei, x_u, x_v)
        d_u, d_v = new_u - r_u * den, new_v - r_v * den
        a, w = self.alpha1, self.alpha_unit
        return d_u, d_v, w * d_u + a * d_v, w * d_v + a * d_u, den

    def _side(
        self, v: int, row: Sequence[int], skip: Optional[int], observers: tuple[int, ...]
    ) -> tuple[list[int], int]:
        """Utility changes of the observers from v's row on v's incident edges
        other than ``skip``: numerators over one denominator."""
        edges = self.game.graph.edges
        sums = [0] * len(observers)
        den = 1
        for ej, x, old in zip(self.game.graph.incident_edges[v], row, self.rows[v]):
            if ej == skip or x == old:
                continue
            a, b = edges[ej]
            x_a, x_b = self.amounts[ej]
            d_a, d_b, g_a, g_b, d = self._gain(ej, x, x_b) if a == v else self._gain(ej, x_a, x)
            for i, w in enumerate(observers):
                if w == a:
                    term = g_a
                elif w == b:
                    term = g_b
                else:
                    alpha = self.alpha[w]
                    term = alpha.get(a, 0) * d_a + alpha.get(b, 0) * d_b
                sums[i] = sums[i] * d + term * den
            den *= d
        return sums, den

    # -- candidate generators -------------------------------------------

    def _concentrate(self, v: int, j: int) -> list[int]:
        """v's whole budget on its j-th incident edge."""
        row = [0] * len(self.rows[v])
        row[j] = self.budgets[v]
        return row

    def unilateral(self, v: int):
        """Yield the candidate rows of a single node."""
        k = self.k
        cur = self.rows[v]
        budget = self.budgets[v]
        if not cur or budget == 0:
            return
        nonzero = [j for j, x in enumerate(cur) if x != 0]
        idle = budget - sum(cur)
        for j in range(len(cur)):
            if nonzero == [j] and cur[j] == budget:
                continue  # already concentrated there
            yield self._concentrate(v, j)
        if self.game.mode == ATMOST and idle > 0:
            for j in range(len(cur)):
                for i in range(1, k + 1):
                    row = list(cur)
                    row[j] += i * idle // k
                    yield row
        for e_from in nonzero:
            for e_to in range(len(cur)):
                if e_to == e_from:
                    continue
                for i in range(1, k + 1):
                    moved = i * cur[e_from] // k
                    row = list(cur)
                    row[e_from] -= moved
                    row[e_to] += moved
                    yield row
            if self.game.mode == ATMOST:
                for i in range(1, k + 1):
                    row = list(cur)
                    row[e_from] -= i * cur[e_from] // k
                    yield row

    def _pull_toward(self, v: int, j: int, i: int) -> list[int]:
        """Scale v's other allocations by (1-t), t = i/K, and add the freed budget to its j-th edge."""
        k = self.k
        cur = self.rows[v]
        row = list(cur)
        freed = 0
        for e, x in enumerate(cur):
            if e != j and x != 0:
                moved = i * x // k
                freed += moved
                row[e] -= moved
        if self.game.mode == ATMOST:
            freed += i * (self.budgets[v] - sum(cur)) // k
        row[j] += freed
        return row

    def _pair_moves(self, kind: str, u: int, v: int, shared: Optional[int], rows_u: list, rows_v: list):
        """Candidates pairing each row of u with each row of v, except the
        pair leaving both rows as they are and, for pair-split moves, pairs
        that both move onto the shared edge, which are bilateral moves.

        ``shared`` is the edge of u and v, if any: the only edge that both
        rows can change.
        """
        observers = (u, v)
        sides_u = [self._side(u, row, shared, observers) for row in rows_u]
        sides_v = [self._side(v, row, shared, observers) for row in rows_v]
        cur_u, cur_v = self.rows[u], self.rows[v]
        if shared is not None:
            incident = self.game.graph.incident_edges
            at_u, at_v = incident[u].index(shared), incident[v].index(shared)
        for row_u, ((uu, uv), den_u) in zip(rows_u, sides_u):
            for row_v, ((vu, vv), den_v) in zip(rows_v, sides_v):
                if row_u == cur_u and row_v == cur_v:
                    continue
                if kind == "pair-split" and shared is not None and row_u[at_u] and row_v[at_v]:
                    continue
                du, dv, den = uu * den_v + vu * den_u, uv * den_v + vv * den_u, den_u * den_v
                if shared is not None:
                    _, _, g_u, g_v, d = self._gain(shared, row_u[at_u], row_v[at_v])
                    du, dv, den = du * d + g_u * den, dv * d + g_v * den, den * d
                yield kind, observers, (row_u, row_v), ((du, dv), den)

    def moves(self):
        """Yield (kind, nodes, int rows, utility changes of the nodes) for
        every candidate deviation, in certification order; the changes are
        (numerators, positive denominator) in units of 1/unit."""
        game = self.game
        n = game.graph.n
        incident = game.graph.incident_edges
        # Unilateral moves.
        for v in range(n):
            for row in self.unilateral(v):
                yield "unilateral", (v,), (row,), self._side(v, row, None, (v,))
        # Bilateral moves onto a common edge.
        steps = range(self.k + 1)
        for ei, (u, v) in enumerate(game.graph.edges):
            if self.budgets[u] == 0 or self.budgets[v] == 0:
                continue
            rows_u = [self._pull_toward(u, incident[u].index(ei), i) for i in steps]
            rows_v = [self._pull_toward(v, incident[v].index(ei), i) for i in steps]
            yield from self._pair_moves("bilateral", u, v, ei, rows_u, rows_v)
        # Exact mode: pairs moving their full budgets to two distinct edges.
        if game.mode == EXACT:
            arc, arc_edge = game.graph.arc, game.graph.arc_edge
            full = [[self._concentrate(x, j) for j in range(len(incident[x]))] for x in range(n)]
            for u in range(n):
                if self.budgets[u] == 0:
                    continue
                for v in range(u + 1, n):
                    if self.budgets[v] == 0:
                        continue
                    shared = arc_edge[arc[u][v]] if v in arc[u] else None
                    yield from self._pair_moves("pair-split", u, v, shared, full[u], full[v])

    def check(self) -> Optional[DeviationWitness]:
        for kind, nodes, rows, changes in self.moves():
            if min(changes[0]) > 0:
                utilities = perceived_utilities(self.game, self.profile)
                before = tuple(utilities[v] for v in nodes)
                return DeviationWitness(
                    kind=kind,
                    nodes=nodes,
                    new_rows=tuple(self.to_fractions(row) for row in rows),
                    utilities_before=before,
                    utilities_after=tuple(b + d for b, d in zip(before, self.utility_changes(changes))),
                )
        return None


def _require_grid(grid_k: int) -> None:
    if grid_k < 1:
        raise InstanceError(f"grid_k must be at least 1, got {grid_k}")


def is_pairwise_equilibrium(
    game: ContributionGame, profile: StrategyProfile, *, grid_k: int = DEFAULT_GRID_K
) -> PEVerdict:
    """Certify a profile against unilateral moves, bilateral moves onto a
    common edge, and (exact mode) pair moves onto two distinct edges.

    Transfer fractions run over {1/K, ..., 1}; full-budget transfers, the
    decisive deviations for convex families, are always included.
    """
    _require_grid(grid_k)
    witness = _Checker(game, profile, grid_k).check()
    if witness is None:
        return PEVerdict(is_equilibrium=True, certificate="grid-certified", grid_k=grid_k, witness=None)
    return PEVerdict(is_equilibrium=False, certificate="witness", grid_k=grid_k, witness=witness)


def require_forbidden_edges_defined(game: ContributionGame) -> None:
    """Raise unless the game is in exact mode with equal splits and local friendship."""
    if game.mode != EXACT:
        raise InstanceError("forbidden edges are defined for exact mode")
    if not game.all_equal_split:
        raise InstanceError("forbidden edges are defined for equal splits")
    if not game.local_friendship:
        raise InstanceError("forbidden edges are defined for local friendship")


def detect_forbidden_edges(game: ContributionGame, instance: Optional[GameInstance] = None) -> tuple[Edge, ...]:
    """Edges whose endpoints each have a degree-1 pendant alternative and
    would jointly defect to those pendants even from a saturated edge.

    Defined for exact mode with equal splits and local friendship.
    ``instance`` is the game's corresponding matching game, if already built.
    """
    require_forbidden_edges_defined(game)
    if instance is None:
        instance = corresponding_matching_game(game)

    def best_pendant(node: int, excluded: int) -> Optional[Fraction]:
        pendants = [x for x in game.graph.adjacency[node] if x != excluded and len(game.graph.adjacency[x]) == 1]
        return max((instance.edge_reward(node, x) for x in pendants), default=None)

    a = game.friendship.alpha1
    out = []
    for u, v in game.graph.edges:
        r_ux, r_vy = best_pendant(u, v), best_pendant(v, u)
        if r_ux is None or r_vy is None:
            continue
        lhs = (1 + a) * instance.edge_reward(u, v)
        if lhs < r_ux + a * r_ux + a * r_vy and lhs < r_vy + a * r_vy + a * r_ux:
            out.append((u, v))
    return tuple(out)


def tight_budget_equilibrium(
    game: ContributionGame,
    *,
    exact_max_n: int = DEFAULT_EXACT_LIMIT,
    instance: Optional[GameInstance] = None,
    forbidden: Optional[tuple[Edge, ...]] = None,
) -> StrategyProfile:
    """Spend-everything equilibrium from best-relaxed dynamics on the
    forbidden-edge-free reduction.

    Matched nodes saturate their matched edge; unmatched nodes spread their
    budget equally over all incident edges of the original graph.
    ``instance`` (the corresponding game) and ``forbidden`` are reused if given.
    """
    if instance is None:
        instance = corresponding_matching_game(game)
    if forbidden is None:
        forbidden = detect_forbidden_edges(game, instance)
    if forbidden:
        # Equal sharing holds no per-edge data, so only the edges and rewards shrink.
        keep = [i for i, e in enumerate(game.graph.edges) if e not in forbidden]
        graph = Graph(game.graph.n, tuple(game.graph.edges[i] for i in keep))
        instance = replace(instance, graph=graph, rewards=tuple(instance.rewards[i] for i in keep))
    matched, _ = run_brbp(instance, exact_max_n=exact_max_n)
    return saturated_profile(game, matched)


@dataclass(frozen=True)
class ConstructedProfile:
    """A profile the audit built, with its verdict and total reward."""

    source: str  # "stable-matching-<i>" | "tight-budget"
    profile: StrategyProfile
    verdict: PEVerdict
    total_reward: Fraction


@dataclass(frozen=True)
class CCGAuditReport:
    optimum: Fraction
    equilibrium_values: tuple[Fraction, ...]
    equilibrium_sources: tuple[str, ...]
    worst_ratio: Optional[Fraction]
    Q: Fraction
    bound: Fraction
    checked: bool  # False when no equilibrium was certified; passed is then False too
    passed: bool
    constructed: tuple[ConstructedProfile, ...]  # certified or not; not serialised, like forbidden_edges
    forbidden_edges: Optional[tuple[Edge, ...]]  # None unless the tight-budget profile was built

    def to_dict(self) -> dict:
        return {
            "optimum": rat_str(self.optimum),
            "equilibrium_values": [rat_str(v) for v in self.equilibrium_values],
            "equilibrium_sources": list(self.equilibrium_sources),
            "worst_ratio": None if self.worst_ratio is None else rat_str(self.worst_ratio),
            "Q": rat_str(self.Q),
            "bound": rat_str(self.bound),
            "checked": self.checked,
            "passed": self.passed,
        }


def _local_search(
    game: ContributionGame, start: StrategyProfile, grid_k: int, cap: int = 60
) -> Optional[StrategyProfile]:
    profile = start
    for _ in range(cap):
        verdict = is_pairwise_equilibrium(game, profile, grid_k=grid_k)
        if verdict.is_equilibrium:
            return profile
        witness = verdict.witness
        assert witness is not None
        profile = profile.with_rows(game, witness.nodes, witness.new_rows)
    return None


def ccg_audit(
    game: ContributionGame,
    *,
    max_n: int = DEFAULT_ENUM_LIMIT,
    exact_max_n: int = DEFAULT_EXACT_LIMIT,
    grid_k: int = DEFAULT_GRID_K,
) -> CCGAuditReport:
    """Compare every grid-certified equilibrium we can construct against the
    tight social optimum and flag violations of the anarchy bound 1+Q.

    The report keeps each profile it constructs with its verdict.  An audit
    that certifies no equilibrium is reported as unchecked, and not as passed.
    """
    _require_grid(grid_k)
    instance = corresponding_matching_game(game)
    forbidden: Optional[tuple[Edge, ...]] = None
    found: list[tuple[str, StrategyProfile]] = []
    # Built before the optimum, so an oversized atmost game reports the enumeration cap.
    if game.mode == ATMOST:
        for i, matched in enumerate(enumerate_stable_matchings(instance, max_n=max_n)):
            found.append((f"stable-matching-{i}", saturated_profile(game, matched)))
    elif game.all_equal_split and game.local_friendship:
        forbidden = detect_forbidden_edges(game, instance)
        profile = tight_budget_equilibrium(game, exact_max_n=exact_max_n, instance=instance, forbidden=forbidden)
        found.append(("tight-budget", profile))
    witness, optimum = max_weight_matching(instance, max_n=exact_max_n)
    q_param = compute_Q(instance)

    constructed = tuple(
        ConstructedProfile(source, p, is_pairwise_equilibrium(game, p, grid_k=grid_k), total_reward(game, p))
        for source, p in found
    )
    values = [c.total_reward for c in constructed if c.verdict.is_equilibrium]
    sources = [c.source for c in constructed if c.verdict.is_equilibrium]
    # _local_search returns only a profile it has just certified.
    searched = _local_search(game, saturated_profile(game, witness), grid_k)
    if searched is not None:
        values.append(total_reward(game, searched))
        sources.append("local-search-optimum")

    ratios = [optimum / value for value in values if value > 0]
    # A certified equilibrium of value 0 fails the audit: its ratio is undefined.
    passed = bool(values) and len(ratios) == len(values) and all(r <= 1 + q_param for r in ratios)
    return CCGAuditReport(
        optimum=optimum,
        equilibrium_values=tuple(values),
        equilibrium_sources=tuple(sources),
        worst_ratio=max(ratios, default=None),
        Q=q_param,
        bound=1 + q_param,
        checked=bool(values),
        passed=passed,
        constructed=constructed,
        forbidden_edges=forbidden,
    )


# -- JSON --------------------------------------------------------------------


def ccg_to_dict(game: ContributionGame) -> dict:
    functions = []
    for ei, (u, v) in enumerate(game.graph.edges):
        f = game.functions[ei]
        entry: dict = {"edge": [u, v], "family": f.family, "c": rat_str(f.c), "split": {"kind": game.splits[ei]}}
        if f.family == FAMILY_POWPROD:
            entry["k"] = f.k
        functions.append(entry)
    doc = {
        "nodes": game.graph.n,
        "budgets": [rat_str(b) for b in game.budgets],
        "mode": game.mode,
        "functions": functions,
        "alpha": [rat_str(a) for a in game.friendship.alpha],
    }
    if game.lam is not None:
        doc["lambda"] = [rat_str(x) for x in game.lam]
    return doc


def ccg_from_dict(doc: dict) -> ContributionGame:
    try:
        n = node_id(doc["nodes"])
        budgets = rat_array(doc["budgets"], "budgets")
        mode = doc.get("mode", ATMOST)
        alpha = rat_array(doc.get("alpha", []), "alpha")
        lam = rat_array(doc["lambda"], "lambda") if "lambda" in doc else None
        require_known_keys(doc, ("nodes", "budgets", "mode", "alpha", "lambda", "functions"), "the game")
        entries = []
        for entry in doc["functions"]:
            e = normalize_edge(node_id(entry["edge"][0]), node_id(entry["edge"][1]))
            f = RewardFunction(family=entry["family"], c=rat(entry["c"]), k=entry.get("k", 1))
            split = entry.get("split", {"kind": SPLIT_EQUAL})
            entries.append((e, f, split["kind"]))
            powprod = f.family == FAMILY_POWPROD
            require_known_keys(entry, ("edge", "family", "c", "split") + (("k",) if powprod else ()), "a function")
            require_known_keys(split, ("kind",), "a split")
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise InstanceError(f"malformed contribution game document: {exc}") from exc
    entries.sort(key=lambda t: t[0])
    graph = Graph(n, tuple(e for e, _, _ in entries))
    return ContributionGame(
        graph=graph,
        budgets=budgets,
        functions=tuple(f for _, f, _ in entries),
        splits=tuple(s for _, _, s in entries),
        friendship=FriendshipVector(alpha),
        mode=mode,
        lam=lam,
    )


def ccg_from_json(text: str) -> ContributionGame:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid JSON: {exc}") from exc
    return ccg_from_dict(doc)
