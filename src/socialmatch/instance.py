"""Immutable matching-game instances.

A :class:`GameInstance` bundles the graph topology, per-edge rewards, the
reward-sharing rule, and the friendship vector, together with derived
quantities (shares, sparse friendship rows, the verdict terms, the
share-ratio parameter R and the stake-ratio parameter Q).  All arithmetic
is exact, on rationals or on integers rescaled from them by one positive
factor: stability is defined by strict inequalities, and floating point
would make blocking-pair verdicts nondeterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Optional, Sequence, Union

from .rationals import InstanceError, rat, rat_array, rat_str

ZERO = Fraction(0)
ONE = Fraction(1)

Edge = tuple[int, int]


class UndefinedRatioError(ValueError):
    """Raised when a share ratio is undefined (some share is zero)."""


def trust_rewards(
    edges: Sequence[Edge], beta: Sequence[Fraction], h: Sequence[Fraction]
) -> tuple[int, Iterator[int]]:
    """(D, sums): 2h_e + beta_u + beta_v for every edge e = (u, v) in turn,
    each times D, the lcm of all the denominators of beta and h."""
    unit = math.lcm(*(x.denominator for x in beta), *(x.denominator for x in h))
    b = tuple(x.numerator * (unit // x.denominator) for x in beta)
    return unit, (2 * x.numerator * (unit // x.denominator) + b[u] + b[v] for (u, v), x in zip(edges, h))


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def node_id(value: object) -> int:
    """A node id or node count read from a JSON document, which must be an
    ``int``: a float, a string or a bool is rejected, never truncated."""
    if type(value) is not int:
        raise InstanceError(f"node ids and counts must be integers, got {value!r}")
    return value


def require_known_keys(doc: dict, known: tuple[str, ...], level: str) -> None:
    """Reject a key that this level of a JSON document does not read: a
    misspelled field would otherwise change the input silently."""
    unknown = doc.keys() - known
    if unknown:
        raise InstanceError(f"unknown key {min(unknown)!r} in {level}")


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on dense integer node ids 0..n-1."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InstanceError("node count must be nonnegative")
        seen = set()
        normalized = []
        for u, v in self.edges:
            if u == v:
                raise InstanceError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InstanceError(f"edge ({u},{v}) has endpoint outside 0..{self.n - 1}")
            e = normalize_edge(u, v)
            if e in seen:
                raise InstanceError(f"parallel edge {e}")
            seen.add(e)
            normalized.append(e)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def incident_edges(self) -> tuple[tuple[int, ...], ...]:
        """Per node, indices into ``edges`` of its incident edges."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append(i)
            inc[v].append(i)
        return tuple(tuple(a) for a in inc)

    @cached_property
    def start(self) -> list[int]:
        """Arcs are the edges in both orientations: arc ``start[x] + j`` is (x, adjacency[x][j])."""
        return list(accumulate(map(len, self.adjacency), initial=0))

    @cached_property
    def head(self) -> list[int]:
        """Per arc (x, y), its head y."""
        return [y for nbrs in self.adjacency for y in nbrs]

    @cached_property
    def arc(self) -> tuple[dict[int, int], ...]:
        """Per node x, per neighbour y: the id of arc (x, y)."""
        ids = iter(range(2 * len(self.edges)))  # zip stops at a row's end before taking an id
        return tuple([dict(zip(nbrs, ids)) for nbrs in self.adjacency])

    @cached_property
    def twin(self) -> list[int]:
        """Per arc, the id of its reverse, which is larger exactly when the arc runs from its smaller end."""
        arc = self.arc
        return [arc[y][x] for x, nbrs in enumerate(self.adjacency) for y in nbrs]

    @cached_property
    def arc_edge(self) -> list[int]:
        """Per arc, its edge's index in ``edges``, whose order meets a node's neighbours in rising id."""
        return [i for inc in self.incident_edges for i in inc]

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self.arc[u]


@dataclass(frozen=True)
class FriendshipVector:
    """Distance-indexed caring coefficients, 1 >= a1 >= a2 >= ... >= 0.

    Entries beyond the stored length are zero, so the vector may be shorter
    than the graph diameter.
    """

    alpha: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        values = tuple(rat(a) for a in self.alpha)
        object.__setattr__(self, "alpha", values)
        prev = ONE
        for i, a in enumerate(values):
            if a < 0 or a > 1:
                raise InstanceError(f"alpha_{i + 1}={a} outside [0, 1]")
            if a > prev:
                raise InstanceError("friendship vector must be nonincreasing")
            prev = a

    def at(self, d: Optional[int]) -> Fraction:
        """Coefficient for hop distance d; zero beyond the vector or if disconnected."""
        if d is None or d < 1 or d > len(self.alpha):
            return ZERO
        return self.alpha[d - 1]

    def rows(self, graph: Graph) -> tuple[dict[int, Fraction], ...]:
        """Per node, a sparse {node: coefficient} row of its nonzero coefficients, by BFS."""
        out = []
        for src in range(graph.n):
            row: dict[int, Fraction] = {}
            frontier = [src]
            for a in self.alpha:
                if not a:
                    break  # alpha is nonincreasing, so no later entry is nonzero
                reached = []
                for x in frontier:
                    for y in graph.adjacency[x]:
                        if y != src and y not in row:
                            row[y] = a
                            reached.append(y)
                frontier = reached
            out.append(row)
        return tuple(out)

    @property
    def alpha1(self) -> Fraction:
        return self.at(1)

    @property
    def alpha2(self) -> Fraction:
        return self.at(2)

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.alpha)


@dataclass(frozen=True)
class EqualSharing:
    rule = "equal"


@dataclass(frozen=True)
class ObliviousSharing:
    """Arbitrary fixed nonnegative shares per edge, aligned with Graph.edges.

    ``shares[i]`` is (share of the smaller endpoint, share of the larger
    endpoint) of edge i; the two must sum to the edge reward.
    """

    shares: tuple[tuple[Fraction, Fraction], ...]
    rule = "oblivious"


@dataclass(frozen=True)
class MatthewSharing:
    """Brand-value split: the endpoint with larger lambda takes the larger share."""

    lam: tuple[Fraction, ...]
    rule = "matthew"


@dataclass(frozen=True)
class ParasiteSharing:
    """Opposite of the brand-value split: shares are proportional to the partner's lambda."""

    lam: tuple[Fraction, ...]
    rule = "parasite"


@dataclass(frozen=True)
class TrustSharing:
    """Share of an endpoint is the edge quality plus the partner's trust value."""

    beta: tuple[Fraction, ...]
    h: tuple[Fraction, ...]
    rule = "trust"


SharingRule = Union[EqualSharing, ObliviousSharing, MatthewSharing, ParasiteSharing, TrustSharing]


@dataclass(frozen=True)
class GameInstance:
    """Graph + rewards + sharing rule + friendship vector, immutable and shareable."""

    graph: Graph
    rewards: tuple[Fraction, ...]
    sharing: SharingRule
    friendship: FriendshipVector

    def __post_init__(self) -> None:
        object.__setattr__(self, "rewards", tuple(rat(r) for r in self.rewards))
        m = len(self.graph.edges)
        n = self.graph.n
        if len(self.rewards) != m:
            raise InstanceError("one reward per edge required")
        for i, r in enumerate(self.rewards):
            if r.numerator <= 0:
                raise InstanceError(f"edge {self.graph.edges[i]} has nonpositive reward {r}")
        s = self.sharing
        if isinstance(s, ObliviousSharing):
            if len(s.shares) != m:
                raise InstanceError("oblivious sharing needs one share pair per edge")
            for i, (a, b) in enumerate(s.shares):
                if a.numerator < 0 or b.numerator < 0:
                    raise InstanceError(f"negative share on edge {self.graph.edges[i]}")
                if a + b != self.rewards[i]:
                    raise InstanceError(
                        f"shares on edge {self.graph.edges[i]} sum to {a + b}, reward is {self.rewards[i]}"
                    )
        elif isinstance(s, (MatthewSharing, ParasiteSharing)):
            if len(s.lam) != n:
                raise InstanceError("one lambda per node required")
            for v, lam in enumerate(s.lam):
                if lam.numerator <= 0:
                    raise InstanceError(f"lambda of node {v} must be positive")
        elif isinstance(s, TrustSharing):
            if len(s.beta) != n or len(s.h) != m:
                raise InstanceError("trust sharing needs one beta per node and one h per edge")
            for v, b in enumerate(s.beta):
                if b.numerator < 0:
                    raise InstanceError(f"beta of node {v} must be nonnegative")
            for i, h in enumerate(s.h):
                if h.numerator < 0:
                    raise InstanceError(f"h of edge {self.graph.edges[i]} must be nonnegative")
            unit, sums = trust_rewards(self.graph.edges, s.beta, s.h)
            for i, (r, total) in enumerate(zip(self.rewards, sums)):
                if r.numerator * unit != total * r.denominator:
                    raise InstanceError(
                        f"trust reward of edge {self.graph.edges[i]} must be "
                        f"2h+beta_u+beta_v={Fraction(total, unit)}, got {r}"
                    )
        elif not isinstance(s, EqualSharing):
            raise InstanceError(f"unknown sharing rule {s!r}")

    # -- derived structure ------------------------------------------------

    @cached_property
    def alpha_rows(self) -> tuple[dict[int, Fraction], ...]:
        """Per node, the nonzero friendship coefficients; see ``FriendshipVector.rows``."""
        return self.friendship.rows(self.graph)

    @cached_property
    def shares(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Per edge (u, v) with u < v: the reward shares of u and v.

        Shares always sum to the edge reward; under equal sharing each is half.
        """
        s = self.sharing
        if isinstance(s, EqualSharing):
            return tuple((r / 2, r / 2) for r in self.rewards)
        if isinstance(s, ObliviousSharing):
            return tuple(s.shares)
        values = iter(map(Fraction, *self._endpoint_ratios))
        return tuple(zip(values, values))

    @cached_property
    def _endpoint_ratios(self) -> tuple[list[int], list[int]]:
        """(numerators, denominators) of what u and v collect when edge (u, v)
        is matched, two entries per edge in edge order, each pair reduced.

        That is their share, except under equal sharing, where both matched
        players enjoy the full edge reward r_e.  The two conventions differ
        by a uniform factor of two for equal sharing, so all
        strict-inequality verdicts agree either way.  Derived with ``int``
        operations from the numerators and denominators of the inputs: with
        r = a/b and lambda_x = p_x/q_x, u's matthew share is
        p_u q_v a / ((p_u q_v + p_v q_u) b), parasite swaps the two weights,
        and u's trust share h + beta_v is (h_n d_v + n_v h_d) / (h_d d_v).
        """
        s = self.sharing
        nums: list[int] = []
        dens: list[int] = []
        if isinstance(s, (EqualSharing, ObliviousSharing)):
            ends = ((r, r) for r in self.rewards) if isinstance(s, EqualSharing) else s.shares
            for pair in ends:
                for x in pair:
                    nums.append(x.numerator)
                    dens.append(x.denominator)
            return nums, dens
        gcd = math.gcd
        if isinstance(s, TrustSharing):
            beta = s.beta
            for (u, v), h in zip(self.graph.edges, s.h):
                hn, hd = h.numerator, h.denominator
                for b in (beta[v], beta[u]):
                    num, den = hn * b.denominator + b.numerator * hd, hd * b.denominator
                    g = gcd(num, den)
                    nums.append(num // g)
                    dens.append(den // g)
            return nums, dens
        lam = s.lam
        parasite = isinstance(s, ParasiteSharing)
        for (u, v), r in zip(self.graph.edges, self.rewards):
            wu = lam[u].numerator * lam[v].denominator
            wv = lam[v].numerator * lam[u].denominator
            den = (wu + wv) * r.denominator
            for w in ((wv, wu) if parasite else (wu, wv)):
                num = w * r.numerator
                g = gcd(num, den)
                nums.append(num // g)
                dens.append(den // g)
        return nums, dens

    @cached_property
    def verdict_table(self) -> tuple[int, tuple[list[int], list[int], list[int], list[int], list[int]]]:
        """(S, columns): the verdict terms of every arc, five ``int`` lists by arc id.

        For arc (x, y), with e_x and e_y the endpoint rewards on xy: the
        stake of x (e_x + alpha1 e_y), e_x, alpha1 e_x, alpha1 e_y and
        alpha2 e_y, each times S, the lcm of all endpoint rewards'
        denominators times the lcm of alpha1's and alpha2's.  A positive
        common factor keeps every strict inequality and every tie among the
        entries and their sums; an entry's value is ``Fraction(entry, S)``.
        """
        nums, dens = self._endpoint_ratios
        unit = math.lcm(*dens)
        scaled = [a * (unit // b) for a, b in zip(nums, dens)]
        a1, a2 = self.friendship.alpha1, self.friendship.alpha2
        den = math.lcm(a1.denominator, a2.denominator)
        c1 = a1.numerator * (den // a1.denominator)
        c2 = a2.numerator * (den // a2.denominator)
        arc = self.graph.arc
        ex, ey = [0] * len(scaled), [0] * len(scaled)  # per arc (x, y): e_x and e_y
        for k, (u, v) in enumerate(self.graph.edges):
            a, b = arc[u][v], arc[v][u]
            ex[a] = ey[b] = scaled[2 * k]
            ex[b] = ey[a] = scaled[2 * k + 1]
        return unit * den, (
            [x * den + c1 * y for x, y in zip(ex, ey)],
            [x * den for x in ex],
            [c1 * x for x in ex],
            [c1 * y for y in ey],
            [c2 * y for y in ey],
        )

    @cached_property
    def share_ratio(self) -> Optional[Fraction]:
        """R, the maximum share ratio over ordered endpoint pairs of all edges.

        None when it is undefined: some share is zero, or there is no edge.
        """
        if not self.shares or any(su == 0 or sv == 0 for su, sv in self.shares):
            return None
        return max(max(su / sv, sv / su) for su, sv in self.shares)

    # -- small accessors ---------------------------------------------------

    def edge_reward(self, u: int, v: int) -> Fraction:
        graph = self.graph
        if not graph.has_edge(u, v):
            raise InstanceError(f"({u},{v}) is not an edge")
        return self.rewards[graph.arc_edge[graph.arc[u][v]]]


# -- the public operation surface ------------------------------------------


def perceive(rows: Sequence[dict[int, Fraction]], rewards: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Perceived utilities: each node's reward plus its row's coefficients
    times the other nodes' rewards."""
    out = []
    for v, row in enumerate(rows):
        out.append(rewards[v] + sum((a * rewards[u] for u, a in row.items()), ZERO))
    return tuple(out)


def compute_R(instance: GameInstance) -> Fraction:
    """Maximum share ratio over ordered endpoint pairs of all edges; always >= 1.

    Undefined (raises) when some share is zero.
    """
    r = instance.share_ratio
    if r is not None:
        return r
    for edge, (su, sv) in zip(instance.graph.edges, instance.shares):
        if su == 0 or sv == 0:
            raise UndefinedRatioError(f"zero share on edge {edge}: share ratio undefined")
    raise UndefinedRatioError("instance has no edges: share ratio undefined")


def compute_Q(instance: GameInstance) -> Fraction:
    """Q = (R + alpha1) / (1 + alpha1 * R), the maximum stake ratio parameter."""
    r = compute_R(instance)
    a1 = instance.friendship.alpha1
    return (r + a1) / (1 + a1 * r)


def compute_Q_prime(instance: GameInstance) -> Fraction:
    """Q' = (1 + alpha1)(1 + R) / (1 + alpha1 (R + 1))."""
    r = compute_R(instance)
    a1 = instance.friendship.alpha1
    return (1 + a1) * (1 + r) / (1 + a1 * (r + 1))


# -- JSON ------------------------------------------------------------------


def instance_to_dict(instance: GameInstance) -> dict:
    edges = [
        {"u": u, "v": v, "r": rat_str(instance.rewards[i])}
        for i, (u, v) in enumerate(instance.graph.edges)
    ]
    s = instance.sharing
    sharing: dict = {"rule": s.rule}
    if isinstance(s, ObliviousSharing):
        sharing["shares"] = [{"u": rat_str(a), "v": rat_str(b)} for a, b in s.shares]
    elif isinstance(s, (MatthewSharing, ParasiteSharing)):
        sharing["lambda"] = [rat_str(x) for x in s.lam]
    elif isinstance(s, TrustSharing):
        sharing["beta"] = [rat_str(x) for x in s.beta]
        sharing["h"] = [rat_str(x) for x in s.h]
    return {
        "nodes": instance.graph.n,
        "edges": edges,
        "sharing": sharing,
        "alpha": [rat_str(a) for a in instance.friendship.alpha],
    }


def instance_from_dict(doc: dict) -> GameInstance:
    try:
        n = node_id(doc["nodes"])
        raw_edges = doc["edges"]
        sharing_doc = doc.get("sharing", {"rule": "equal"})
        alpha = rat_array(doc.get("alpha", []), "alpha")
        require_known_keys(doc, ("nodes", "edges", "sharing", "alpha"), "the instance")

        pairs = []
        flipped = []
        for e in raw_edges:
            u, v = node_id(e["u"]), node_id(e["v"])
            require_known_keys(e, ("u", "v", "r"), "an edge")
            pairs.append(normalize_edge(u, v))
            flipped.append(u > v)
        graph = Graph(n, tuple(pairs))
        # Re-align per-edge data with the graph's canonical (sorted) edge order.
        order = sorted(range(len(pairs)), key=lambda i: pairs[i])

        rule = sharing_doc.get("rule", "equal")
        sharing: SharingRule
        if rule == "trust":
            beta = rat_array(sharing_doc["beta"], "beta")
            h_in = rat_array(sharing_doc["h"], "h")
            h = tuple(h_in[i] for i in order)
            sharing = TrustSharing(beta=beta, h=h)
            unit, sums = trust_rewards(graph.edges, beta, h)
            rewards = []
            for i, total in enumerate(sums):
                derived = Fraction(total, unit)
                stated = raw_edges[order[i]].get("r")
                if stated is not None and rat(stated) != derived:
                    raise InstanceError(
                        f"trust edge {graph.edges[i]}: stated reward {stated} != 2h+beta_u+beta_v={derived}"
                    )
                rewards.append(derived)
        else:
            rewards = []
            for i in order:
                if "r" not in raw_edges[i]:
                    raise InstanceError(f"edge {pairs[i]} is missing its reward")
                rewards.append(rat(raw_edges[i]["r"]))
            if rule == "equal":
                sharing = EqualSharing()
            elif rule == "oblivious":
                share_docs = sharing_doc["shares"]
                if len(share_docs) != len(pairs):
                    raise InstanceError("oblivious sharing needs one share pair per edge")
                aligned = []
                for i in order:
                    a, b = rat(share_docs[i]["u"]), rat(share_docs[i]["v"])
                    require_known_keys(share_docs[i], ("u", "v"), "an oblivious share")
                    aligned.append((b, a) if flipped[i] else (a, b))
                sharing = ObliviousSharing(shares=tuple(aligned))
            elif rule == "matthew":
                sharing = MatthewSharing(lam=rat_array(sharing_doc["lambda"], "lambda"))
            elif rule == "parasite":
                sharing = ParasiteSharing(lam=rat_array(sharing_doc["lambda"], "lambda"))
            else:
                raise InstanceError(f"unknown sharing rule {rule!r}")
        fields = {"oblivious": ("shares",), "matthew": ("lambda",), "parasite": ("lambda",), "trust": ("beta", "h")}
        require_known_keys(sharing_doc, ("rule", *fields.get(rule, ())), "the sharing object")
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise InstanceError(f"malformed instance document: {exc}") from exc

    return GameInstance(
        graph=graph,
        rewards=tuple(rewards),
        sharing=sharing,
        friendship=FriendshipVector(alpha),
    )


def instance_to_json(instance: GameInstance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2, sort_keys=True) + "\n"


def instance_from_json(text: str) -> GameInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid JSON: {exc}") from exc
    return instance_from_dict(doc)
