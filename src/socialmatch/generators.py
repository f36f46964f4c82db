"""Reproducible construction of every benchmark gadget plus seeded random instances.

Path gadgets use node ids 0..3 for the path 0-1-2-3 (outer-left,
middle-left, middle-right, outer-right); the middle edge is (1, 2).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from .instance import (
    EqualSharing,
    FriendshipVector,
    GameInstance,
    Graph,
    InstanceError,
    MatthewSharing,
    ObliviousSharing,
    ParasiteSharing,
    TrustSharing,
)
from .rationals import rat

PATH3_EDGES = ((0, 1), (1, 2), (2, 3))


def _alpha(values: Sequence) -> FriendshipVector:
    return FriendshipVector(tuple(rat(a) for a in values))


def _random_graph(rng: random.Random, n: int, density: float) -> Graph:
    """One ``rng.random()`` per node pair in order; the pair is an edge when it falls below density."""
    if not 0 <= density <= 1:  # false for nan as well
        raise InstanceError(f"density must lie in [0, 1], got {density}")
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density))


def _sparse_graph(rng: random.Random, n: int, m: int) -> Graph:
    """Exactly m distinct edges, every m-set of node pairs equally likely.

    The G(n, m) sampler of Batagelj & Brandes 2005 ("Efficient generation
    of large random networks"): draw pair indices with ``rng.randrange``
    until m distinct ones are in hand, or, above half of all pairs, the
    pairs to leave out.  That takes O(n + m) expected time.  Index k is the
    pair (k - v(v-1)/2, v) with v(v-1)/2 <= k < v(v+1)/2.
    """
    if n < 0 or m < 0:
        raise InstanceError(f"node and edge counts must be nonnegative, got n={n}, m={m}")
    pairs = n * (n - 1) // 2
    if m > pairs:
        raise InstanceError(f"m={m} exceeds the {pairs} node pairs of n={n}")
    dense = 2 * m > pairs
    drawn: set[int] = set()
    while len(drawn) < (pairs - m if dense else m):
        drawn.add(rng.randrange(pairs))
    chosen = (k for k in range(pairs) if k not in drawn) if dense else drawn
    edges = []
    for k in chosen:
        v = (1 + math.isqrt(1 + 8 * k)) // 2
        edges.append((k - v * (v - 1) // 2, v))
    return Graph(n, tuple(edges))


def gen_path3_equal(alpha: Sequence = ()) -> GameInstance:
    """3-edge path, equal sharing, all rewards 1."""
    return GameInstance(
        graph=Graph(4, PATH3_EDGES),
        rewards=(Fraction(1), Fraction(1), Fraction(1)),
        sharing=EqualSharing(),
        friendship=_alpha(alpha),
    )


def gen_pos_tight(alpha1, eps) -> GameInstance:
    """Equal-sharing path whose only stable matching is the middle edge.

    Outer rewards are 1 and the middle reward is (1+2*a1+eps)/(1+a1), so the
    price of stability is (2+2*a1)/(1+2*a1+eps).
    """
    a1 = rat(alpha1)
    e = rat(eps)
    if not (0 <= a1 <= 1):
        raise InstanceError("alpha1 must lie in [0, 1]")
    if e <= 0:
        raise InstanceError("eps must be positive")
    middle = (1 + 2 * a1 + e) / (1 + a1)
    return GameInstance(
        graph=Graph(4, PATH3_EDGES),
        rewards=(Fraction(1), middle, Fraction(1)),
        sharing=EqualSharing(),
        friendship=_alpha((a1,)),
    )


def gen_matthew_poa_tight(R, pos_variant: bool = False, eps=Fraction(1, 10)) -> GameInstance:
    """Brand-value path gadget: outer rewards R+1 split 1:R, middle reward 2.

    The worst stable matching is the middle edge, so the anarchy ratio is
    R+1.  The pos variant bumps the middle reward to 2+2*eps, making the
    middle edge the unique stable matching with stability ratio (R+1)/(1+eps).
    """
    r_param = rat(R)
    e = rat(eps)
    if r_param < 1:
        raise InstanceError("R must be at least 1")
    if pos_variant and e <= 0:
        raise InstanceError("eps must be positive")
    middle = 2 + 2 * e if pos_variant else Fraction(2)
    return GameInstance(
        graph=Graph(4, PATH3_EDGES),
        rewards=(r_param + 1, middle, r_param + 1),
        sharing=MatthewSharing(lam=(r_param, Fraction(1), Fraction(1), r_param)),
        friendship=_alpha(()),
    )


def gen_friendship_rs_tight(R, alpha1, variant: str = "poa", eps=Fraction(1, 100)) -> GameInstance:
    """Unequal-sharing path gadget with friendship, share ratio exactly R.

    The poa variant realizes anarchy ratio exactly 1+Q with
    Q=(R+a1)/(1+a1*R).  The pos variant makes the outer pair unstable by an
    eps margin; its stability ratio is
    (1+a1)(1+R) / (1+a1(R+1) + eps(1+a1*R)), approaching Q' from below as
    eps shrinks (strict improvement requirements keep Q' itself out of
    reach).
    """
    r_param = rat(R)
    a1 = rat(alpha1)
    e = rat(eps)
    if r_param < 1:
        raise InstanceError("R must be at least 1")
    if not (0 <= a1 <= 1):
        raise InstanceError("alpha1 must lie in [0, 1]")
    if variant not in ("poa", "pos"):
        raise InstanceError(f"unknown variant {variant!r}")
    if variant == "pos" and e <= 0:
        raise InstanceError("eps must be positive")

    denom_outer = 1 + a1 * r_param
    outer_small = 1 / denom_outer
    outer_big = r_param / denom_outer
    if variant == "poa":
        middle_share = 1 / (1 + a1)
    else:
        middle_share = ((1 + a1 * (r_param + 1)) / denom_outer + e) / (1 + a1)

    # Edge (0,1): node 0 is the outer node w (big share); edge (2,3): node 3 is z.
    shares = (
        (outer_big, outer_small),
        (middle_share, middle_share),
        (outer_small, outer_big),
    )
    rewards = tuple(a + b for a, b in shares)
    return GameInstance(
        graph=Graph(4, PATH3_EDGES),
        rewards=rewards,
        sharing=ObliviousSharing(shares=shares),
        friendship=_alpha((a1,)),
    )


def gen_cyclic_triangle() -> GameInstance:
    """Triangle with rotationally unequal shares: 2 toward the successor,
    1 toward the predecessor.  No stable matching exists without friendship."""
    shares = {
        (0, 1): (Fraction(2), Fraction(1)),
        (1, 2): (Fraction(2), Fraction(1)),
        (0, 2): (Fraction(1), Fraction(2)),
    }
    graph = Graph(3, tuple(shares))
    return GameInstance(
        graph=graph,
        rewards=tuple(sum(shares[e]) for e in graph.edges),
        sharing=ObliviousSharing(shares=tuple(shares[e] for e in graph.edges)),
        friendship=_alpha(()),
    )


# 5-cycle 0-1-2-3-4-0 under brand-value sharing where alpha1 = 4/5 produces
# a strict cyclic q-preference (every node prefers its clockwise neighbor),
# so no matching survives; without friendship a stable matching exists.
# Committed fixture from a seeded randomized search (seed 20240101) over
# integer lambdas and chain-constructed rewards, verified by enumeration.
NONEXISTENCE_ALPHA1 = Fraction(4, 5)
NONEXISTENCE_LAMBDA = tuple(Fraction(x) for x in (2, 1, 10, 14, 5))
NONEXISTENCE_REWARDS = {
    (0, 1): Fraction(30),
    (1, 2): Fraction(32),
    (2, 3): Fraction(36),
    (3, 4): Fraction(35),
    (0, 4): Fraction(32),
}


def gen_nonexistence_friendship_matthew(with_friendship: bool = True) -> GameInstance:
    """Committed 5-cycle brand-value fixture with an empty stable set at
    alpha1 = 4/5 and a nonempty one without friendship."""
    graph = Graph(5, tuple(NONEXISTENCE_REWARDS))
    return GameInstance(
        graph=graph,
        rewards=tuple(NONEXISTENCE_REWARDS[e] for e in graph.edges),
        sharing=MatthewSharing(lam=NONEXISTENCE_LAMBDA),
        friendship=_alpha((NONEXISTENCE_ALPHA1,) if with_friendship else ()),
    )


def augment_with_auxiliary_neighbors(instance: GameInstance, eps) -> GameInstance:
    """Rescale rewards r -> 1 + eps*r and give every node a pendant partner
    of reward 1.

    Requires equal sharing and eps * max(r) < 1, which makes the all-pendant
    matching the unique social optimum while preserving every blocking-pair
    verdict among original nodes in the no-friendship game (the rescale is
    strictly increasing and those verdicts compare single rewards).
    """
    e = rat(eps)
    if not isinstance(instance.sharing, EqualSharing):
        raise InstanceError("auxiliary augmentation is defined for equal sharing")
    if e <= 0:
        raise InstanceError("eps must be positive")
    if instance.rewards and e * max(instance.rewards) >= 1:
        raise InstanceError("eps too large: rescaled rewards must stay below 2")
    n = instance.graph.n
    edges = list(instance.graph.edges) + [(v, n + v) for v in range(n)]
    rewards = [1 + e * r for r in instance.rewards] + [Fraction(1)] * n
    graph = Graph(2 * n, tuple(edges))
    order = {edge: i for i, edge in enumerate(edges)}
    aligned = [rewards[order[edge]] for edge in graph.edges]
    return GameInstance(
        graph=graph,
        rewards=tuple(aligned),
        sharing=EqualSharing(),
        friendship=instance.friendship,
    )


def gen_random_ccg(
    seed: int,
    n: int,
    density: float,
    families: Sequence[str] = ("product", "powprod"),
    split: str = "equal",
    mode: str = "atmost",
    alpha: Sequence = (),
):
    """Seeded random contribution game with positive budgets.

    Families are drawn per edge from the given pool; powprod exponents are
    1 or 2.  Matthew splits draw positive integer lambdas.
    """
    from .ccg import ContributionGame, RewardFunction

    rng = random.Random(seed)
    graph = _random_graph(rng, n, density)
    budgets = tuple(
        Fraction(rng.randint(1, 4)) if graph.adjacency[v] or mode != "exact" else Fraction(0)
        for v in range(n)
    )
    functions = []
    for _ in graph.edges:
        family = families[rng.randrange(len(families))]
        c = Fraction(rng.randint(1, 6), rng.choice((1, 2, 3)))
        k = rng.choice((1, 2)) if family == "powprod" else 1
        functions.append(RewardFunction(family=family, c=c, k=k))
    lam = tuple(Fraction(rng.randint(1, 9)) for _ in range(n)) if split == "matthew" else None
    return ContributionGame(
        graph=graph,
        budgets=budgets,
        functions=tuple(functions),
        splits=tuple(split for _ in graph.edges),
        friendship=_alpha(alpha),
        mode=mode,
        lam=lam,
    )


DEFAULT_REWARD_RANGE = (1, 8)


def gen_random(
    seed: int,
    n: int,
    density: float,
    reward_range: tuple[int, int] = DEFAULT_REWARD_RANGE,
    rule: str = "equal",
    alpha: Sequence = (),
) -> GameInstance:
    """Seeded random instance; identical seeds give identical instances.

    Rewards are rationals with numerators in reward_range and denominators
    in 1..4 (trust instances derive rewards from their h and beta draws).
    """
    rng = random.Random(seed)
    return _random_instance(rng, _random_graph(rng, n, density), reward_range, rule, alpha)


def gen_sparse(
    seed: int,
    n: int,
    m: int,
    rule: str = "equal",
    alpha: Sequence = (),
) -> GameInstance:
    """Seeded random instance with exactly m edges, drawn in O(n + m) expected
    time; rewards and sharing are drawn as in ``gen_random`` at its default
    reward_range."""
    rng = random.Random(seed)
    return _random_instance(rng, _sparse_graph(rng, n, m), DEFAULT_REWARD_RANGE, rule, alpha)


def _random_instance(
    rng: random.Random, graph: Graph, reward_range: tuple[int, int], rule: str, alpha: Sequence
) -> GameInstance:
    """Rewards and the sharing rule's parameters drawn from rng, in this order, for graph."""
    n = graph.n
    lo, hi = reward_range
    if lo < 1:
        raise InstanceError("rewards must stay positive: reward_range[0] >= 1")
    rewards = [Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3, 4))) for _ in graph.edges]

    sharing: object
    if rule == "equal":
        sharing = EqualSharing()
    elif rule in ("matthew", "parasite"):
        lam = tuple(Fraction(rng.randint(1, 9)) for _ in range(n))
        sharing = MatthewSharing(lam=lam) if rule == "matthew" else ParasiteSharing(lam=lam)
    elif rule == "trust":
        beta = tuple(Fraction(rng.randint(0, 5)) for _ in range(n))
        h = tuple(Fraction(rng.randint(1, 6)) for _ in graph.edges)
        rewards = [2 * h[i] + beta[u] + beta[v] for i, (u, v) in enumerate(graph.edges)]
        sharing = TrustSharing(beta=beta, h=h)
    elif rule == "oblivious":
        shares = []
        for r in rewards:
            t = Fraction(rng.randint(1, 7), 8)
            shares.append((t * r, (1 - t) * r))
        sharing = ObliviousSharing(shares=tuple(shares))
    else:
        raise InstanceError(f"unknown rule {rule!r}")

    return GameInstance(
        graph=graph,
        rewards=tuple(rewards),
        sharing=sharing,  # type: ignore[arg-type]
        friendship=_alpha(alpha),
    )
