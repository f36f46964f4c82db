"""Independent restatement of the matching game, used to check answers.

Nothing here imports socialmatch.  A game is rebuilt from its JSON
document, and every verdict comes from the model's definitions: a pair
(u, v) blocks a matching when applying the deviation (u and v leave their
partners and match each other) strictly raises the perceived utility of
both, where a node's perceived utility is its own reward plus the
friendship-weighted rewards of every other node by hop distance.

Arithmetic is exact.  Rewards are scaled by the least common multiple of
their denominators and friendship coefficients by that of theirs; a common
positive scale preserves every strict comparison, so the verdicts are
those of the rational model.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional

Partner = list  # partner[v] is v's partner, or None


def frac(value) -> Fraction:
    return Fraction(str(value))


class Game:
    """A matching game: per-edge rewards, per-endpoint shares, friendship by distance."""

    def __init__(self, n: int, rows, alpha) -> None:
        """``rows`` holds (u, v, reward, share of u, share of v) per edge."""
        self.n = n
        self.alpha = tuple(alpha)
        self.edges: list[tuple[int, int]] = []
        self.reward: dict[tuple[int, int], Fraction] = {}
        self.share: dict[tuple[int, int], Fraction] = {}  # (x, y): what x earns on edge xy
        for u, v, r, su, sv in rows:
            if u > v:
                u, v, su, sv = v, u, sv, su
            self.edges.append((u, v))
            self.reward[(u, v)] = r
            self.share[(u, v)] = su
            self.share[(v, u)] = sv
        self.edges.sort()
        scale = lcm(1, *(s.denominator for s in self.share.values()))
        self.earn = {k: int(s * scale) for k, s in self.share.items()}
        self.own_weight = lcm(1, *(a.denominator for a in self.alpha))
        self.adjacency: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            self.adjacency[u].append(v)
            self.adjacency[v].append(u)
        self.coef = [self._coefficients(v) for v in range(n)]

    def _coefficients(self, src: int) -> list[tuple[int, int]]:
        """(x, scaled alpha of the hop distance src-x) for every x with a nonzero coefficient."""
        dist: list[Optional[int]] = [None] * self.n
        dist[src] = 0
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for y in self.adjacency[x]:
                if dist[y] is None:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        out = []
        for x, d in enumerate(dist):
            if d is not None and 1 <= d <= len(self.alpha) and self.alpha[d - 1] != 0:
                out.append((x, int(self.alpha[d - 1] * self.own_weight)))
        return out

    # -- utilities straight from the definition ---------------------------

    def earnings(self, partner: Partner) -> list[int]:
        return [0 if p is None else self.earn[(x, p)] for x, p in enumerate(partner)]

    def utility(self, v: int, earnings: list[int]) -> int:
        return self.own_weight * earnings[v] + sum(c * earnings[x] for x, c in self.coef[v])

    @staticmethod
    def deviate(partner: Partner, u: int, v: int) -> Partner:
        after = list(partner)
        for x in (u, v):
            if after[x] is not None:
                after[after[x]] = None
        after[u] = v
        after[v] = u
        return after

    def blocks(self, partner: Partner, u: int, v: int, before: Optional[list[int]] = None) -> bool:
        if partner[u] == v:
            return False
        if before is None:
            before = self.earnings(partner)
        after = self.earnings(self.deviate(partner, u, v))
        return self.utility(u, after) > self.utility(u, before) and self.utility(v, after) > self.utility(
            v, before
        )

    def blocking_pairs(self, partner: Partner) -> list[tuple[int, int]]:
        before = self.earnings(partner)
        return [(u, v) for u, v in self.edges if self.blocks(partner, u, v, before)]

    # -- matchings ----------------------------------------------------------

    def matchings(self) -> Iterator[Partner]:
        """Every matching, by including or excluding each edge in turn."""
        partner: Partner = [None] * self.n
        edges = self.edges

        def extend(i: int) -> Iterator[Partner]:
            if i == len(edges):
                yield partner
                return
            yield from extend(i + 1)
            u, v = edges[i]
            if partner[u] is None and partner[v] is None:
                partner[u], partner[v] = v, u
                yield from extend(i + 1)
                partner[u] = partner[v] = None

        yield from extend(0)

    def value(self, partner: Partner) -> Fraction:
        return sum((self.reward[(u, p)] for u, p in enumerate(partner) if p is not None and u < p), Fraction(0))

    def partner_of(self, pairs) -> Partner:
        """Partner list of a pair list; raises ValueError unless it is a matching of this graph."""
        partner: Partner = [None] * self.n
        for u, v in pairs:
            u, v = int(u), int(v)
            if (min(u, v), max(u, v)) not in self.reward:
                raise ValueError(f"({u},{v}) is not an edge")
            if partner[u] is not None or partner[v] is not None:
                raise ValueError(f"node of ({u},{v}) matched twice")
            partner[u], partner[v] = v, u
        return partner

    def share_ratio(self) -> Optional[Fraction]:
        """Largest ratio between the two shares of an edge; None if a share is zero or no edge exists."""
        best: Optional[Fraction] = None
        for u, v in self.edges:
            su, sv = self.share[(u, v)], self.share[(v, u)]
            if su == 0 or sv == 0:
                return None
            ratio = max(su / sv, sv / su)
            best = ratio if best is None or ratio > best else best
        return best

    def alpha_at(self, d: int) -> Fraction:
        return self.alpha[d - 1] if d <= len(self.alpha) else Fraction(0)


def pairs_of(partner: Partner) -> tuple[tuple[int, int], ...]:
    return tuple((u, p) for u, p in enumerate(partner) if p is not None and u < p)


def stable_set(game: Game) -> list[tuple[tuple[tuple[int, int], ...], Fraction]]:
    """(pair list, value) of every stable matching, sorted by pair list."""
    found = [(pairs_of(p), game.value(p)) for p in game.matchings() if not game.blocking_pairs(p)]
    return sorted(found)


def optimum(game: Game) -> Fraction:
    return max(game.value(p) for p in game.matchings())


# -- documents --------------------------------------------------------------


def game_from_instance(doc: dict) -> Game:
    """The game of a socialmatch instance document."""
    sharing = doc.get("sharing", {"rule": "equal"})
    rule = sharing.get("rule", "equal")
    rows = []
    for i, e in enumerate(doc["edges"]):
        u, v = int(e["u"]), int(e["v"])
        if rule == "trust":
            h = frac(sharing["h"][i])
            su, sv = h + frac(sharing["beta"][v]), h + frac(sharing["beta"][u])
            r = su + sv
        else:
            r = frac(e["r"])
            if rule == "equal":
                su = sv = r / 2
            elif rule == "oblivious":
                su, sv = frac(sharing["shares"][i]["u"]), frac(sharing["shares"][i]["v"])
            elif rule in ("matthew", "parasite"):
                lu, lv = frac(sharing["lambda"][u]), frac(sharing["lambda"][v])
                if rule == "parasite":
                    lu, lv = lv, lu
                su, sv = lu / (lu + lv) * r, lv / (lu + lv) * r
            else:
                raise ValueError(f"unknown sharing rule {rule!r}")
        rows.append((u, v, r, su, sv))
    return Game(int(doc["nodes"]), rows, [frac(a) for a in doc.get("alpha", [])])


def edge_total(entry: dict, x: Fraction, y: Fraction) -> Fraction:
    """Total reward of a contribution-game edge at contributions x and y."""
    c = frac(entry["c"])
    family = entry["family"]
    if family == "product":
        return c * x * y
    if family == "powprod":
        return c * (x * y) ** int(entry.get("k", 1))
    raise ValueError(f"unknown family {family!r}")


def game_from_contribution_game(doc: dict) -> Game:
    """The matching game whose edge rewards are a contribution game's full-budget payoffs."""
    budgets = [frac(b) for b in doc["budgets"]]
    lam = [frac(x) for x in doc.get("lambda", [])]
    rows = []
    for entry in doc["functions"]:
        u, v = int(entry["edge"][0]), int(entry["edge"][1])
        bu, bv = budgets[u], budgets[v]
        r = edge_total(entry, bu, bv)
        split = entry.get("split", {"kind": "equal"})["kind"]
        if split == "equal":
            wu, wv = Fraction(1), Fraction(1)
        elif split == "matthew":
            wu, wv = lam[u], lam[v]
        elif split == "proportional":
            wu, wv = bu, bv
        else:
            raise ValueError(f"unknown split {split!r}")
        rows.append((u, v, r, wu / (wu + wv) * r, wv / (wu + wv) * r))
    return Game(int(doc["nodes"]), rows, [frac(a) for a in doc.get("alpha", [])])
