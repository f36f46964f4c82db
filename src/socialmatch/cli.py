"""Batch front-end: generate, solve, audit, run dynamics, and check equilibria.

Exit codes: 0 success, 1 usage/IO/limit errors, 2 certified negative result
(no stable matching, or the checked object is not stable / not an
equilibrium).  Output is deterministic: no timestamps, sorted keys, and all
randomness behind explicit seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from . import generators
from .ccg import (
    DEFAULT_GRID_K,
    EXACT,
    StrategyProfile,
    ccg_audit,
    ccg_from_json,
    is_pairwise_equilibrium,
    require_forbidden_edges_defined,
    total_reward,
)
from .dynamics import (
    ConvergenceError,
    assert_trace_lemmas,
    run_arbitrary_dynamics,
    run_best_blocking_pair,
    run_brbp,
)
from .instance import (
    FriendshipVector,
    GameInstance,
    InstanceError,
    UndefinedRatioError,
    instance_from_json,
    instance_to_json,
)
from .matching import Matching, is_stable, matching_value
from .oracle import (
    DEFAULT_ENUM_LIMIT,
    DEFAULT_EXACT_LIMIT,
    SizeLimitError,
    audit_bounds,
    max_weight_matching,
)
from .rationals import rat, rat_str
from .roommates import MODE_Q, MODE_RAW, PreferenceCycleError, greedy_mutual_best, solve_srp_q

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for key in sorted(doc):
            value = doc[key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            print(f"{key}: {value}")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_alpha(text: Optional[str]) -> Optional[FriendshipVector]:
    if text is None:
        return None
    parts = [p for p in text.split(",") if p.strip()]
    return FriendshipVector(tuple(rat(p) for p in parts))


def _with_alpha(args, obj):
    """An instance or game with its friendship vector replaced by ``--alpha``, when given."""
    alpha = _parse_alpha(args.alpha)
    return obj if alpha is None else dataclasses.replace(obj, friendship=alpha)


def _load_instance(args, path: str) -> GameInstance:
    return _with_alpha(args, instance_from_json(_read(path)))


def _caps(args) -> tuple[int, int]:
    """(enumeration cap, exact-optimum cap): ``--max-n`` sets both, else each library default."""
    if args.max_n is None:
        return DEFAULT_ENUM_LIMIT, DEFAULT_EXACT_LIMIT
    return args.max_n, args.max_n


def cmd_gen(args) -> int:
    text = instance_to_json(args.build(args))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _alpha_list(text: Optional[str]) -> tuple:
    fv = _parse_alpha(text)
    return () if fv is None else fv.alpha


# Per gadget: the flags it reads, and how it builds its instance from them.
GADGETS = {
    "path3": (("--alpha",), lambda a: generators.gen_path3_equal(alpha=_alpha_list(a.alpha))),
    "pos-tight": (("--alpha1", "--eps"), lambda a: generators.gen_pos_tight(rat(a.alpha1), rat(a.eps))),
    "matthew-poa": (
        ("--R", "--variant", "--eps"),
        lambda a: generators.gen_matthew_poa_tight(rat(a.R), a.variant == "pos", rat(a.eps)),
    ),
    "friendship-rs": (
        ("--R", "--alpha1", "--variant", "--eps"),
        lambda a: generators.gen_friendship_rs_tight(rat(a.R), rat(a.alpha1), a.variant, rat(a.eps)),
    ),
    "nonexistence": ((), lambda a: generators.gen_nonexistence_friendship_matthew()),
    "cyclic-triangle": ((), lambda a: generators.gen_cyclic_triangle()),
    "random": (
        ("--seed", "--n", "--density", "--rule", "--alpha"),
        lambda a: generators.gen_random(
            seed=a.seed, n=a.n, density=a.density, rule=a.rule, alpha=_alpha_list(a.alpha)
        ),
    ),
    "sparse": (
        ("--seed", "--n", "--m", "--rule", "--alpha"),
        lambda a: generators.gen_sparse(seed=a.seed, n=a.n, m=a.m, rule=a.rule, alpha=_alpha_list(a.alpha)),
    ),
    "aux-augment": (
        ("--instance", "--eps"),
        lambda a: generators.augment_with_auxiliary_neighbors(instance_from_json(_read(a.instance)), rat(a.eps)),
    ),
}

GADGET_FLAGS = {
    "--alpha": dict(help="friendship vector, e.g. '1/2,1/4'"),
    "--alpha1": dict(default="1/2"),
    "--eps": dict(default="1/10"),
    "--R": dict(default="2"),
    "--variant": dict(choices=("poa", "pos"), default="poa"),
    "--seed": dict(type=int, default=0),
    "--n": dict(type=int, default=6),
    "--density": dict(type=float, default=0.5),
    "--m": dict(type=int, required=True, help="number of edges, at most n(n-1)/2"),
    "--rule": dict(default="equal", choices=("equal", "matthew", "parasite", "trust", "oblivious")),
    "--instance": dict(required=True, help="base instance JSON path"),
}


# name -> help line, in the order of the top-level help.
SUBCOMMANDS = {
    "gen": "generate a benchmark instance",
    "solve": "compute a stable matching",
    "audit": "enumerate the stable set and check bounds",
    "dynamics": "run improvement dynamics, stream the trace",
    "ccg": "contribution-game equilibria and audits",
    "check": "certify a matching or a profile",
}


def cmd_solve(args) -> int:
    if args.prefs is not None and args.method != "greedy":
        print(f"--prefs applies only to --method greedy, not {args.method}", file=sys.stderr)
        return EXIT_ERROR
    if args.method == "greedy" and args.max_n is not None:
        print("--max-n does not apply to --method greedy, which has no size cap", file=sys.stderr)
        return EXIT_ERROR
    instance = _load_instance(args, args.instance)
    enum_max_n, exact_max_n = _caps(args)
    report: dict = {"method": args.method}
    if args.method == "brbp":
        matched, trace = run_brbp(instance, exact_max_n=exact_max_n)
        report["deviations"] = len(trace.steps)
        report["termination"] = trace.termination
        if trace.termination == "cap":
            report["note"] = "iteration cap hit; no stable matching certified for this run"
    elif args.method == "greedy":
        mode = MODE_Q if args.prefs == "q" else MODE_RAW
        matched = greedy_mutual_best(instance, mode)
    elif args.method == "srpq":
        result = solve_srp_q(instance, max_n=enum_max_n)
        if result is None:
            _emit({"method": "srpq", "stable_matching": None}, args.format)
            return EXIT_NEGATIVE
        matched = result
    else:
        print(f"unknown method {args.method!r}", file=sys.stderr)
        return EXIT_ERROR
    # solve_srp_q checks its matching's stability and raises if it is blocked.
    stable = args.method == "srpq" or is_stable(instance, matched).stable
    report["matching"] = matched.to_dict()
    report["value"] = rat_str(matching_value(instance, matched))
    report["stable"] = stable
    _emit(report, args.format)
    return EXIT_OK if stable else EXIT_NEGATIVE


def cmd_audit(args) -> int:
    enum_max_n, exact_max_n = _caps(args)
    if args.manifest:
        paths = json.loads(_read(args.manifest))
        if not isinstance(paths, list) or not all(isinstance(p, str) for p in paths):
            print("manifest must be a JSON array of instance paths", file=sys.stderr)
            return EXIT_ERROR
        reports = []
        worst = EXIT_OK
        for path in paths:
            instance = _load_instance(args, path)
            report = audit_bounds(instance, max_n=enum_max_n, exact_max_n=exact_max_n)
            reports.append({"instance": path, **report.to_dict()})
            if report.stable_count == 0 or not report.all_bounds_pass:
                worst = EXIT_NEGATIVE
        _emit({"reports": reports}, args.format)
        return worst
    instance = _load_instance(args, args.instance)
    report = audit_bounds(instance, max_n=enum_max_n, exact_max_n=exact_max_n)
    _emit(report.to_dict(), args.format)
    if report.stable_count == 0:
        return EXIT_NEGATIVE
    if not report.all_bounds_pass:
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_dynamics(args) -> int:
    if args.seed is not None and args.method != "arbitrary":
        print(f"--seed applies only to --method arbitrary, not {args.method}", file=sys.stderr)
        return EXIT_ERROR
    if args.method != "brbp" and args.start not in (None, "opt") and args.max_n is not None:
        print("--max-n applies only to --start opt, which computes the exact optimum", file=sys.stderr)
        return EXIT_ERROR
    instance = _load_instance(args, args.instance)
    _, exact_max_n = _caps(args)
    if args.method == "brbp":
        if args.start is not None:
            print("--start does not apply to --method brbp, which starts from the optimum", file=sys.stderr)
            return EXIT_ERROR
        _, trace = run_brbp(instance, exact_max_n=exact_max_n, cap=args.cap)
    else:
        if args.start in (None, "opt"):
            start, _ = max_weight_matching(instance, max_n=exact_max_n)
        elif args.start == "empty":
            start = Matching.empty(instance.graph.n)
        else:
            start = Matching.from_dict(json.loads(_read(args.start)), instance.graph.n)
        cap = args.cap if args.cap is not None else 1_000_000
        if args.method == "bbp":
            _, trace = run_best_blocking_pair(instance, start, cap=cap)
        else:
            seed = 0 if args.seed is None else args.seed
            _, trace = run_arbitrary_dynamics(instance, start, seed, cap=cap)
    sys.stdout.write(trace.to_jsonl())
    if args.method == "brbp":
        lemmas = assert_trace_lemmas(trace)
        sys.stdout.write(json.dumps({"kind": "lemmas", **lemmas.to_dict()}, sort_keys=True) + "\n")
    return EXIT_OK if trace.termination == "stable" else EXIT_NEGATIVE


def cmd_ccg(args) -> int:
    if args.profile and args.max_n is not None:
        print("--max-n does not apply to --profile, which enumerates nothing", file=sys.stderr)
        return EXIT_ERROR
    game = ccg_from_json(_read(args.game))
    report: dict = {"mode": game.mode}
    if args.profile:
        profile = StrategyProfile.from_dict(json.loads(_read(args.profile)), game)
        verdict = is_pairwise_equilibrium(game, profile, grid_k=args.grid_k)
        report.update(check=verdict.to_dict(game), total_reward=rat_str(total_reward(game, profile)))
        _emit(report, args.format)
        return EXIT_OK if verdict.is_equilibrium else EXIT_NEGATIVE

    if game.mode == EXACT:
        require_forbidden_edges_defined(game)  # before any cap is checked
    enum_max_n, exact_max_n = _caps(args)
    audit = ccg_audit(game, max_n=enum_max_n, exact_max_n=exact_max_n, grid_k=args.grid_k)
    if audit.forbidden_edges is not None:
        report["forbidden_edges"] = [list(e) for e in audit.forbidden_edges]
    if not audit.constructed:
        report.update(equilibrium=None, note="no stable matching in the corresponding game")
        _emit(report, args.format)
        return EXIT_NEGATIVE
    first = audit.constructed[0]  # stable-matching-0, or tight-budget
    report["equilibrium"] = first.profile.to_dict(game)
    report["total_reward"] = rat_str(first.total_reward)
    report["certified"] = first.verdict.to_dict(game)
    report["audit"] = audit.to_dict()
    _emit(report, args.format)
    return EXIT_OK if first.verdict.is_equilibrium else EXIT_NEGATIVE


def cmd_check(args) -> int:
    given = {name for name in ("instance", "matching", "game", "profile") if getattr(args, name) is not None}
    if given == {"instance", "matching"}:
        if args.grid_k is not None:
            print("--grid-k applies only to --game with --profile", file=sys.stderr)
            return EXIT_ERROR
        instance = _load_instance(args, args.instance)
        matched = Matching.from_dict(json.loads(_read(args.matching)), instance.graph.n)
        verdict = is_stable(instance, matched)
        doc = {
            "stable": verdict.stable,
            "blocking_pairs": [list(p) for p in verdict.blocking_pairs],
            "value": rat_str(matching_value(instance, matched)),
        }
        _emit(doc, args.format)
        return EXIT_OK if verdict.stable else EXIT_NEGATIVE
    if given == {"game", "profile"}:
        game = _with_alpha(args, ccg_from_json(_read(args.game)))
        profile = StrategyProfile.from_dict(json.loads(_read(args.profile)), game)
        grid_k = DEFAULT_GRID_K if args.grid_k is None else args.grid_k
        verdict = is_pairwise_equilibrium(game, profile, grid_k=grid_k)
        _emit(verdict.to_dict(game), args.format)
        return EXIT_OK if verdict.is_equilibrium else EXIT_NEGATIVE
    print("check needs --instance with --matching, or --game with --profile", file=sys.stderr)
    return EXIT_ERROR


def build_parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The CLI's parser: all six subcommands are registered, but only
    ``command``'s arguments are built, since each call runs one of them.

    What the others' arguments are does not show in the top-level help or
    its errors.  Likewise only the chosen gadget's parser is built, in main.
    """
    parser = argparse.ArgumentParser(prog="socialmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def max_n(p):
        p.add_argument(
            "--max-n",
            type=int,
            dest="max_n",
            help=f"node cap for both enumeration and the exact optimum "
            f"(default: {DEFAULT_ENUM_LIMIT} and {DEFAULT_EXACT_LIMIT})",
        )

    def common(p, instance_required: bool = True):
        if instance_required:
            p.add_argument("--instance", required=True, help="instance JSON path")
        p.add_argument("--alpha", help="override friendship vector, e.g. '1/2,1/4'")
        max_n(p)

    def gen(p):
        p.add_argument("gadget", choices=GADGETS)
        p.add_argument("flags", nargs=argparse.REMAINDER, help="the gadget's flags; see gen GADGET --help")

    def solve(p):
        common(p)
        p.add_argument("--method", choices=("brbp", "greedy", "srpq"), default="brbp")
        p.add_argument("--prefs", choices=("raw", "q"), help="greedy's keys (default: raw); not with brbp or srpq")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.set_defaults(func=cmd_solve)

    def audit(p):
        common(p, instance_required=False)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--instance", help="instance JSON path")
        source.add_argument("--manifest", help="JSON array of instance paths to audit in order")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.set_defaults(func=cmd_audit)

    def dynamics(p):
        common(p)
        p.add_argument("--method", choices=("brbp", "bbp", "arbitrary"), default="brbp")
        p.add_argument("--start", help="'opt' (default), 'empty', or a matching JSON path; not with brbp")
        p.add_argument("--seed", type=int, help="seed of --method arbitrary (default: 0); not with bbp or brbp")
        p.add_argument("--cap", type=int, default=None)
        p.set_defaults(func=cmd_dynamics)

    def ccg(p):
        p.add_argument("--game", required=True, help="contribution game JSON path")
        p.add_argument("--profile", help="check this profile instead of constructing one; not with --max-n")
        p.add_argument("--grid-k", type=int, default=DEFAULT_GRID_K, dest="grid_k")
        max_n(p)
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.set_defaults(func=cmd_ccg)

    def check(p):
        p.add_argument("--instance", help="instance JSON path")
        p.add_argument("--matching", help="matching JSON path")
        p.add_argument("--game", help="contribution game JSON path")
        p.add_argument("--profile", help="profile JSON path")
        p.add_argument("--alpha", help="override friendship vector")
        p.add_argument("--grid-k", type=int, dest="grid_k", help=f"only with --game (default: {DEFAULT_GRID_K})")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.set_defaults(func=cmd_check)

    for name, build in zip(SUBCOMMANDS, (gen, solve, audit, dynamics, ccg, check)):
        p = sub.add_parser(name, help=SUBCOMMANDS[name])
        if name == command:
            build(p)
    return parser


def gadget_parser(name: str) -> argparse.ArgumentParser:
    """The parser of ``gen <name>``: it accepts only the flags the gadget reads, and ``--out``."""
    flags, build = GADGETS[name]
    # No abbreviations: --alpha must not pass for --alpha1.
    p = argparse.ArgumentParser(prog=f"socialmatch gen {name}", allow_abbrev=False)
    for flag in flags:
        p.add_argument(flag, **GADGET_FLAGS[flag])
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=cmd_gen, build=build)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser takes no option with a value, so its first
    # positional is the subcommand: the first name of one in argv, or an
    # error that prints no subcommand's arguments.
    parser = build_parser(next((a for a in argv if a in SUBCOMMANDS), None))
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            args = gadget_parser(args.gadget).parse_args(args.flags)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (InstanceError, UndefinedRatioError, PreferenceCycleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SizeLimitError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ConvergenceError as exc:
        print(f"convergence guarantee violated: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
