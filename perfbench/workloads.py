"""The benchmark's workloads: seeded inputs, the timed operation, and its checks.

Each workload builds a pool of inputs from the run's seed, writes them to
files and reads them back, so the library only ever sees JSON documents or
files.  The timed operation goes through the library's module-level
functions, looked up on the module at call time so that the tracer's
wrappers apply.  Checks run on the JSON form of each answer, outside the
timed region, against the independent model in ``reference``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import reference
from reference import frac

# The acceptance suite's friendship palette.
ALPHA_PALETTE = ((), ("1/4",), ("1/2",), ("1/2", "1/4"), ("1", "1"), ("2/3", "1/3"), ("1", "1", "1/2"))
# Friendship that only reaches distance one, as exact-mode budget games require.
LOCAL_ALPHAS = ((), ("1/4",), ("1/2",), ("3/4",))
RULES = ("equal", "matthew", "parasite", "trust", "oblivious")
# Edge counts are drawn at these quantiles of the edge-count distribution of
# the stated density, so that every run sees the same mix of graph sizes.
EDGE_LEVELS = (0.1, 0.3, 0.5, 0.7, 0.9)


def edge_targets(n: int, density: float) -> list[int]:
    """Edge counts at EDGE_LEVELS of Binomial(n(n-1)/2, density), at least one."""
    trials = n * (n - 1) // 2
    out = []
    for level in EDGE_LEVELS:
        cdf, k = 0.0, 0
        while True:
            cdf += math.comb(trials, k) * density**k * (1 - density) ** (trials - k)
            if cdf >= level or k == trials:
                break
            k += 1
        out.append(max(1, k))
    return out


def draw(make, edges: int, rng: random.Random):
    """The first instance ``make(seed)`` with the wanted edge count, over seeds drawn from ``rng``."""
    for _ in range(100_000):
        made = make(rng.randrange(2**31))
        if len(made.graph.edges) == edges:
            return made
    raise RuntimeError(f"no seeded instance with {edges} edges")


def write_pool(path: Path, docs: list) -> list:
    path.write_text(json.dumps(docs), encoding="utf-8")
    return json.loads(path.read_text(encoding="utf-8"))


def opt_frac(text):
    return None if text is None else frac(text)


class Workload:
    """One closed-loop workload; ``op_cost_s`` sizes its pool."""

    name = ""
    op_cost_s = 0.1  # mean operation time on the reference machine (2-core Xeon, Python 3.11)
    deep_share = 0.25

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny

    def pool_size(self, seconds: float) -> int:
        """Items such that one pass takes about ``seconds`` on the reference machine."""
        return max(4, round(seconds / self.op_cost_s))

    def build(self, mods, rng: random.Random, workdir: Path, count: int) -> list:
        raise NotImplementedError

    def run(self, mods, item):
        raise NotImplementedError

    def answer(self, result) -> dict:
        """The JSON form of an operation's result; rationals appear as p/q strings."""
        raise NotImplementedError

    def check(self, item, answer: dict, deep: bool, notes: SimpleNamespace) -> list[str]:
        """Problems with the answer; an empty list means it passed."""
        raise NotImplementedError


# -- audit-sweep ---------------------------------------------------------------


def expected_bounds(game: reference.Game, rule: str, poa, pos) -> dict:
    """Name -> (bound, checked, passed) of every bound the paper states for this game."""
    a1, a2 = game.alpha_at(1), game.alpha_at(2)
    alpha_zero = all(a == 0 for a in game.alpha)
    out = {}

    def add(name, bound, ratio):
        out[name] = (bound, ratio is not None, ratio is None or ratio <= bound)

    if rule == "equal":
        add("poa_le_2", Fraction(2), poa)
        add("pos_le_equal_bound", (2 + 2 * a1) / (1 + 2 * a1 + a2), pos)
    if rule == "trust" and alpha_zero:
        add("poa_le_3", Fraction(3), poa)
    r_param = game.share_ratio()
    if r_param is not None:
        q = (r_param + a1) / (1 + a1 * r_param)
        q_prime = (1 + a1) * (1 + r_param) / (1 + a1 * (r_param + 1))
        if alpha_zero:
            add("poa_le_1_plus_R", 1 + r_param, poa)
        add("poa_le_1_plus_Q", 1 + q, poa)
        add("pos_le_1_plus_Q", 1 + q, pos)
        out["q_prime_sandwich"] = (q + 1, True, q < q_prime <= q + 1)
    return out


class AuditSweep(Workload):
    name = "audit-sweep"
    op_cost_s = 0.037
    deep_share = 0.125

    def build(self, mods, rng, workdir, count):
        gen = mods.generators.gen_random
        low = 4 if self.tiny else 7
        targets = {n: edge_targets(n, 0.4) for n in range(low, low + 4)}
        docs = []
        for i in range(count):
            n = low + i % 4
            rule = RULES[i % 5]
            alpha = ALPHA_PALETTE[(i // 20) % len(ALPHA_PALETTE)]
            edges = targets[n][(i // 20) % len(EDGE_LEVELS)]
            made = draw(lambda s: gen(seed=s, n=n, density=0.4, rule=rule, alpha=alpha), edges, rng)
            docs.append(mods.instance.instance_to_dict(made))
        return write_pool(workdir / "audit-sweep.json", docs)

    def run(self, mods, item):
        return mods.oracle.audit_bounds(mods.instance.instance_from_dict(item))

    def answer(self, result):
        return result.to_dict()

    def check(self, item, answer, deep, notes):
        game = reference.game_from_instance(item)
        rule = item.get("sharing", {"rule": "equal"}).get("rule", "equal")
        problems = []
        optimum = frac(answer["optimum"])
        values = [frac(v) for v in answer["stable_values"]]
        witness = game.partner_of(answer["optimum_matching"]["pairs"])
        if game.value(witness) != optimum:
            problems.append("optimum matching does not attain the optimum")
        if answer["stable_count"] != len(values):
            problems.append(f"stable count {answer['stable_count']} with {len(values)} values")
        worst, best = (min(values), max(values)) if values else (None, None)
        poa = optimum / worst if worst else None
        pos = optimum / best if best else None
        if (opt_frac(answer["worst_stable"]), opt_frac(answer["best_stable"])) != (worst, best):
            problems.append("worst/best stable values disagree with the stable values")
        if (opt_frac(answer["poa"]), opt_frac(answer["pos"])) != (poa, pos):
            problems.append("anarchy/stability ratios disagree with optimum and stable values")
        bounds = {b["name"]: (frac(b["bound"]), b["checked"], b["passed"]) for b in answer["bounds"]}
        expected = expected_bounds(game, rule, poa, pos)
        if bounds != expected:
            problems.append(f"bounds {bounds} differ from {expected}")
        if not all(passed for _, _, passed in expected.values()):
            problems.append("a bound of the paper fails")
        if deep:
            if reference.optimum(game) != optimum:
                problems.append("optimum differs from the best enumerated matching")
            truth = [v for _, v in reference.stable_set(game)]
            if truth != values:
                problems.append(f"stable values {values} differ from enumeration {truth}")
        return problems


# -- solve-scale ---------------------------------------------------------------


def check_matching_report(game: reference.Game, doc: dict, deep: bool) -> list[str]:
    problems = []
    partner = game.partner_of(doc["matching"]["pairs"])
    if game.value(partner) != frac(doc["value"]):
        problems.append("reported value is not the matching's value")
    if doc["stable"] is not True:
        problems.append("reported matching is not stable")
    if deep:
        blocking = game.blocking_pairs(partner)
        if blocking:
            problems.append(f"matching is blocked by {blocking[:3]}")
    return problems


def check_dynamics_trace(game: reference.Game, text: str, deep: bool) -> list[str]:
    """Replay an arbitrary-dynamics trace from the empty matching."""
    problems = []
    partner = [None] * game.n
    steps = 0
    end = None
    for line in text.splitlines():
        rec = json.loads(line)
        if rec["kind"] == "phase":
            continue
        if rec["kind"] == "end":
            end = rec
            continue
        u, v = rec["pair"]
        if rec["step"] != steps:
            problems.append(f"step {rec['step']} out of order")
        kind = "biswivel" if partner[u] is not None and partner[v] is not None else "swivel"
        if rec["kind"] != kind:
            problems.append(f"step {steps} is a {kind}, reported {rec['kind']}")
        if deep and not game.blocks(partner, u, v):
            problems.append(f"step {steps}: ({u},{v}) does not block")
        if (min(u, v), max(u, v)) not in game.reward or game.reward[(min(u, v), max(u, v))] != frac(rec["r"]):
            problems.append(f"step {steps}: wrong pair or reward")
            break
        partner = game.deviate(partner, u, v)
        if game.value(partner) != frac(rec["value"]):
            problems.append(f"step {steps}: value after the step is wrong")
        steps += 1
    if end is None or end["termination"] != "stable" or end["steps"] != steps:
        problems.append(f"trace ends with {end}")
    if deep and game.blocking_pairs(partner):
        problems.append("final matching is not stable")
    return problems


class SolveScale(Workload):
    name = "solve-scale"
    op_cost_s = 0.119
    deep_share = 0.34

    def build(self, mods, rng, workdir, count):
        gen = mods.generators.gen_random
        if self.tiny:
            dp_low, dyn_n, greedy_n = 8, 12, 16
        else:
            dp_low, dyn_n, greedy_n = 20, 50, 80
        dp_targets = {n: edge_targets(n, 0.3) for n in range(dp_low, dp_low + 3)}
        items = []
        for i in range(count):
            seed = rng.randrange(2**31)
            kind = i % 3
            if kind == 0:
                n = dp_low + (i // 3) % 3
                alpha = ALPHA_PALETTE[(i // 9) % len(ALPHA_PALETTE)]
                edges = dp_targets[n][(i // 9) % len(EDGE_LEVELS)]
                made = draw(lambda s: gen(seed=s, n=n, density=0.3, rule="equal", alpha=alpha), edges, rng)
                argv = ["solve", "--method", "brbp", "--max-n", "22"]
            elif kind == 1:
                made = gen(seed=seed, n=dyn_n, density=6 / (dyn_n - 1), rule="equal")
                # The cap sits far above the ~n steps these runs take, so a run that stops
                # converging fails quickly instead of stalling the benchmark.
                argv = ["dynamics", "--method", "arbitrary", "--start", "empty", "--cap", "2000"]
                argv += ["--seed", str(rng.randrange(2**31))]
            else:
                rule = ("matthew", "trust")[(i // 3) % 2]
                made = gen(seed=seed, n=greedy_n, density=10 / (greedy_n - 1), rule=rule)
                argv = ["solve", "--method", "greedy"]
            path = workdir / f"solve-{i:04d}.json"
            path.write_text(mods.instance.instance_to_json(made), encoding="utf-8")
            items.append((argv + ["--instance", str(path)], path))
        return [(argv, json.loads(path.read_text(encoding="utf-8"))) for argv, path in items]

    def run(self, mods, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mods.cli.main(item[0])
        return code, out.getvalue(), err.getvalue()

    def answer(self, result):
        code, out, err = result
        return {"exit": code, "stdout": out, "stderr": err}

    def check(self, item, answer, deep, notes):
        argv, doc = item
        if answer["exit"] != 0:
            return [f"exit code {answer['exit']}: {answer['stderr'].strip()[:200]}"]
        game = reference.game_from_instance(doc)
        if argv[0] == "dynamics":
            return check_dynamics_trace(game, answer["stdout"], deep)
        report = json.loads(answer["stdout"])
        problems = check_matching_report(game, report, deep)
        if report["method"] == "brbp" and report["termination"] != "stable":
            problems.append(f"brbp terminated by {report['termination']}")
        return problems


# -- ccg-certify -----------------------------------------------------------------


CCG_KINDS = (("atmost", "equal"), ("atmost", "matthew"), ("atmost", "proportional"), ("exact", "equal"))


class CcgCertify(Workload):
    name = "ccg-certify"
    op_cost_s = 0.136
    deep_share = 0.25

    def build(self, mods, rng, workdir, count):
        gen = mods.generators.gen_random_ccg
        low = 4 if self.tiny else 5
        targets = {n: edge_targets(n, 0.5) for n in range(low, low + 4)}
        docs = []
        for i in range(count):
            n = low + i % 4
            mode, split = CCG_KINDS[(i // 4) % 4]
            palette = LOCAL_ALPHAS if mode == "exact" else ALPHA_PALETTE
            alpha = palette[(i // 16) % len(palette)]
            edges = targets[n][(i // 16) % len(EDGE_LEVELS)]
            made = draw(
                lambda s: gen(
                    seed=s, n=n, density=0.5, families=("product", "powprod"), split=split, mode=mode, alpha=alpha
                ),
                edges,
                rng,
            )
            docs.append(mods.ccg.ccg_to_dict(made))
        return write_pool(workdir / "ccg-certify.json", docs)

    def run(self, mods, item):
        return mods.ccg.ccg_audit(mods.ccg.ccg_from_dict(item))

    def answer(self, result):
        return result.to_dict()

    def check(self, item, answer, deep, notes):
        game = reference.game_from_contribution_game(item)
        problems = []
        optimum = frac(answer["optimum"])
        values = [frac(v) for v in answer["equilibrium_values"]]
        a1 = game.alpha_at(1)
        r_param = game.share_ratio()
        q = (r_param + a1) / (1 + a1 * r_param)
        if (frac(answer["Q"]), frac(answer["bound"])) != (q, 1 + q):
            problems.append("Q or the bound 1+Q is wrong")
        if not values:
            # Certified nothing: neither a pass nor a failure, and counted.
            notes.vacuous += 1
        else:
            if any(v <= 0 for v in values):
                problems.append("an equilibrium has nonpositive value")
            else:
                worst = max(optimum / v for v in values)
                if opt_frac(answer["worst_ratio"]) != worst:
                    problems.append("worst ratio disagrees with optimum and values")
                if worst > 1 + q:
                    problems.append(f"anarchy ratio {worst} exceeds 1+Q")
            if answer["passed"] is not True:
                problems.append("audit reports a failed bound")
        if deep:
            if reference.optimum(game) != optimum:
                problems.append("optimum differs from the best enumerated matching")
            if item.get("mode", "atmost") == "atmost":
                # Every stable matching of the corresponding game saturates to an equilibrium.
                truth = [v for _, v in reference.stable_set(game)]
                from_stable = [
                    v for v, s in zip(values, answer["equilibrium_sources"]) if s.startswith("stable-matching-")
                ]
                if from_stable != truth:
                    problems.append(f"stable-matching equilibria {from_stable} differ from enumeration {truth}")
        return problems


WORKLOADS = {w.name: w for w in (AuditSweep, SolveScale, CcgCertify)}
