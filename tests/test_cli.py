import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import socialmatch
from socialmatch.ccg import ContributionGame, RewardFunction, ccg_from_json
from socialmatch.cli import gadget_parser, main
from socialmatch.generators import gen_nonexistence_friendship_matthew, gen_random_ccg
from socialmatch.instance import FriendshipVector, InstanceError, instance_from_json

from helpers import ccg_to_json, reference_cli_parser

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_path3_stdout(capsys):
    code, out, _ = run(capsys, "gen", "path3")
    assert code == 0
    inst = instance_from_json(out)
    assert inst.graph.n == 4
    assert inst.rewards == (F(1), F(1), F(1))


def test_gen_to_file_and_solve(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, _ = run(capsys, "gen", "path3", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "solve", "--instance", str(path), "--method", "brbp")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "2"
    assert doc["deviations"] == 0
    assert doc["stable"] is True


def test_solve_pos_gadget_one_deviation(tmp_path, capsys):
    path = tmp_path / "pos.json"
    run(capsys, "gen", "pos-tight", "--alpha1", "1/2", "--eps", "1/10", "--out", str(path))
    code, out, _ = run(capsys, "solve", "--instance", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "7/5"
    assert doc["deviations"] == 1


def test_audit_path3(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "path3", "--out", str(path))
    code, out, _ = run(capsys, "audit", "--instance", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["poa"] == "2"
    assert doc["all_bounds_pass"] is True
    # Round trip: re-serializing the parsed report is identity.
    assert json.loads(json.dumps(doc)) == doc


def test_audit_nonexistence_exit_2(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "nonexistence", "--out", str(path))
    code, out, _ = run(capsys, "audit", "--instance", str(path))
    assert code == 2
    doc = json.loads(out)
    assert doc["poa"] is None
    assert doc["stable_count"] == 0


def test_malformed_json_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "solve", "--instance", str(path))
    assert code == 1
    assert "error" in err


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "solve", "--instance", "/nonexistent/x.json")
    assert code == 1
    assert err


def test_dynamics_stream_and_lemmas(tmp_path, capsys):
    path = tmp_path / "pos.json"
    run(capsys, "gen", "pos-tight", "--out", str(path))
    code, out, _ = run(capsys, "dynamics", "--instance", str(path), "--method", "brbp")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    kinds = [line.get("kind") for line in lines]
    assert "relaxed-biswivel" in kinds
    assert "lemmas" in kinds
    lemma_line = [l for l in lines if l.get("kind") == "lemmas"][0]
    assert lemma_line["passed"] is True


def test_dynamics_arbitrary_seed_replay(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "random", "--seed", "5", "--n", "8", "--density", "0.6", "--out", str(path))
    outs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "dynamics", "--instance", str(path), "--method", "arbitrary",
            "--start", "empty", "--seed", "11",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_gen_seed_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "gen", "random", "--seed", "9", "--n", "7", "--rule", "trust")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_alpha_override(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "path3", "--out", str(path))
    code, out, _ = run(capsys, "audit", "--instance", str(path), "--alpha", "1/2,1/4")
    assert code == 0
    doc = json.loads(out)
    bound = [b for b in doc["bounds"] if b["name"] == "pos_le_equal_bound"][0]
    assert bound["bound"] == "12/9" or F(bound["bound"]) == F(3 * 4, 9)


def test_ccg_atmost_and_check_profile(tmp_path, capsys):
    game = gen_random_ccg(seed=2, n=5, density=0.7, split="equal", alpha=(F(1, 2),))
    gpath = tmp_path / "game.json"
    gpath.write_text(ccg_to_json(game))
    code, out, _ = run(capsys, "ccg", "--game", str(gpath))
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"]["is_equilibrium"] is True
    assert doc["audit"]["passed"] is True
    # Feed the produced equilibrium back through the profile checker.
    ppath = tmp_path / "profile.json"
    ppath.write_text(json.dumps(doc["equilibrium"]))
    code, out, _ = run(capsys, "check", "--game", str(gpath), "--profile", str(ppath))
    assert code == 0


def test_check_matching_not_stable_exit_2(tmp_path, capsys):
    ipath = tmp_path / "inst.json"
    run(capsys, "gen", "path3", "--out", str(ipath))
    mpath = tmp_path / "matching.json"
    mpath.write_text(json.dumps({"pairs": []}))
    code, out, _ = run(capsys, "check", "--instance", str(ipath), "--matching", str(mpath))
    assert code == 2
    doc = json.loads(out)
    assert doc["stable"] is False
    assert doc["blocking_pairs"]


def test_check_usage_error(capsys):
    code, _, err = run(capsys, "check")
    assert code == 1
    assert err


def test_audit_manifest(tmp_path, capsys):
    paths = []
    for i, gadget in enumerate(["path3", "matthew-poa"]):
        p = tmp_path / f"inst{i}.json"
        run(capsys, "gen", gadget, "--out", str(p))
        paths.append(str(p))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(paths))
    code, out, _ = run(capsys, "audit", "--manifest", str(manifest))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["reports"]) == 2
    assert doc["reports"][0]["poa"] == "2"
    assert all(r["all_bounds_pass"] for r in doc["reports"])


def test_audit_requires_instance_or_manifest(capsys):
    code, _, err = run(capsys, "audit")
    assert code == 1
    assert err


def test_dynamics_cap_hit_reported_distinctly(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "random", "--seed", "3", "--n", "7", "--density", "0.7", "--out", str(path))
    code, out, _ = run(
        capsys, "dynamics", "--instance", str(path), "--method", "bbp",
        "--start", "empty", "--cap", "0",
    )
    assert code == 2
    end = [json.loads(line) for line in out.strip().splitlines()][-1]
    assert end["kind"] == "end"
    assert end["termination"] == "cap"


def test_dynamics_negative_cap_exit_1(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "random", "--seed", "3", "--n", "7", "--density", "0.7", "--out", str(path))
    for method, start, cap in (("arbitrary", ["--start", "empty"], "-1"), ("bbp", [], "-2"), ("brbp", [], "-3")):
        code, out, err = run(capsys, "dynamics", "--instance", str(path), "--method", method, *start, "--cap", cap)
        assert code == 1 and out == "", method
        assert err == f"error: cap must be at least 0, got {cap}\n"


def test_ccg_exact_mode_reports_forbidden_and_outer_equilibrium(tmp_path, capsys):
    from fractions import Fraction
    from socialmatch.ccg import ContributionGame, RewardFunction
    from socialmatch.instance import FriendshipVector, Graph

    eps = Fraction(1, 20)
    game = ContributionGame(
        graph=Graph(4, ((0, 1), (1, 2), (2, 3))),
        budgets=(Fraction(1),) * 4,
        functions=(
            RewardFunction("min", 1 - eps),
            RewardFunction("min", Fraction(1)),
            RewardFunction("min", 1 - eps),
        ),
        splits=("equal",) * 3,
        friendship=FriendshipVector((Fraction(1, 2),)),
        mode="exact",
    )
    gpath = tmp_path / "game.json"
    gpath.write_text(ccg_to_json(game))
    code, out, _ = run(capsys, "ccg", "--game", str(gpath))
    assert code == 0
    doc = json.loads(out)
    assert doc["forbidden_edges"] == [[1, 2]]
    alloc = {(e["node"], tuple(e["edge"])): e["amount"] for e in doc["equilibrium"]["alloc"]}
    assert alloc[(0, (0, 1))] == "1" and alloc[(1, (0, 1))] == "1"
    assert alloc[(2, (2, 3))] == "1" and alloc[(3, (2, 3))] == "1"
    assert doc["certified"]["is_equilibrium"] is True

    # A middle-edge profile with pendants forced outward is rejected with a
    # concrete witness deviation.
    profile = {
        "alloc": [
            {"node": 0, "edge": [0, 1], "amount": "1"},
            {"node": 1, "edge": [1, 2], "amount": "1"},
            {"node": 2, "edge": [1, 2], "amount": "1"},
            {"node": 3, "edge": [2, 3], "amount": "1"},
        ]
    }
    ppath = tmp_path / "profile.json"
    ppath.write_text(json.dumps(profile))
    code, out, _ = run(capsys, "ccg", "--game", str(gpath), "--profile", str(ppath))
    assert code == 2
    doc = json.loads(out)
    witness = doc["check"]["witness"]
    assert witness["nodes"] == [1, 2]
    assert witness["utilities_after"] == ["19/10", "19/10"]


def test_table_format(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "path3", "--out", str(path))
    code, out, _ = run(capsys, "audit", "--instance", str(path), "--format", "table")
    assert code == 0
    assert "poa: 2" in out


def test_dynamics_brbp_rejects_start(tmp_path, capsys):
    path = tmp_path / "pos.json"
    run(capsys, "gen", "pos-tight", "--out", str(path))
    for start in ("opt", "empty"):
        code, out, err = run(capsys, "dynamics", "--instance", str(path), "--method", "brbp", "--start", start)
        assert code == 1
        assert out == ""
        assert "--start" in err
    code, _, _ = run(capsys, "dynamics", "--instance", str(path), "--method", "bbp", "--start", "opt")
    assert code == 0


def test_audit_zero_worst_stable_value(tmp_path, capsys):
    # One edge whose smaller endpoint takes no share: the empty matching is
    # stable with value 0, so PoA is undefined while PoS is 1.
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "nodes": 2,
        "edges": [{"u": 0, "v": 1, "r": "1"}],
        "sharing": {"rule": "oblivious", "shares": [{"u": "0", "v": "1"}]},
        "alpha": [],
    }))
    code, out, _ = run(capsys, "audit", "--instance", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["stable_values"] == ["0", "1"]
    assert doc["poa"] is None
    assert doc["pos"] == "1"


def test_max_n_default_applies_each_library_cap(tmp_path, capsys):
    # Without --max-n the exact optimum is capped at 22 and enumeration at 12.
    path = tmp_path / "inst.json"
    run(capsys, "gen", "random", "--seed", "3", "--n", "16", "--density", "0.3", "--out", str(path))
    code, out, err = run(capsys, "solve", "--instance", str(path), "--method", "brbp")
    assert code == 0 and err == ""
    assert json.loads(out)["stable"] is True
    code, out, err = run(capsys, "audit", "--instance", str(path))
    assert code == 1 and out == ""
    assert err == "limit: n=16 exceeds enumeration limit 12\n"


def test_explicit_max_n_caps_the_exact_optimum(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "random", "--seed", "3", "--n", "16", "--density", "0.3", "--out", str(path))
    for command in ("solve", "dynamics"):
        code, out, err = run(capsys, command, "--instance", str(path), "--method", "brbp", "--max-n", "12")
        assert code == 1 and out == ""
        assert err == "limit: n=16 exceeds exact-optimum limit 12\n"


def test_check_has_no_max_n(tmp_path, capsys):
    # check enumerates nothing and computes no optimum, so it takes no cap.
    ipath = tmp_path / "i6.json"
    run(capsys, "gen", "random", "--n", "6", "--out", str(ipath))
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"pairs": []}))
    code, out, err = run(capsys, "check", "--instance", str(ipath), "--matching", str(mpath), "--max-n", "2")
    assert code == 1 and out == ""
    assert err.startswith("usage:") and "unrecognized arguments: --max-n 2" in err


def test_ccg_max_n_default_applies_each_library_cap(tmp_path, capsys):
    # n=14 is over the enumeration cap but within the exact-optimum cap,
    # which is all an exact-mode game needs.
    game = gen_random_ccg(seed=3, n=14, density=0.25, split="equal", mode="exact", alpha=("1/2",))
    gpath = tmp_path / "g14.json"
    gpath.write_text(ccg_to_json(game))
    code, out, err = run(capsys, "ccg", "--game", str(gpath))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["certified"]["is_equilibrium"] is True
    assert doc["audit"]["checked"] is True and doc["audit"]["passed"] is True
    code, out, err = run(capsys, "ccg", "--game", str(gpath), "--max-n", "12")
    assert code == 1 and out == ""
    assert err == "limit: n=14 exceeds exact-optimum limit 12\n"


def test_grid_k_below_one_exit_1(tmp_path, capsys):
    # The empty profile of a one-edge game has an improving deviation, and a
    # grid with no steps must not certify it.
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({
        "nodes": 2, "budgets": ["1", "1"],
        "functions": [{"edge": [0, 1], "family": "powprod", "c": "1", "k": 2}],
    }))
    ppath = tmp_path / "p.json"
    ppath.write_text(json.dumps({"alloc": []}))
    code, out, _ = run(capsys, "ccg", "--game", str(gpath), "--profile", str(ppath))
    assert code == 2 and json.loads(out)["check"]["is_equilibrium"] is False
    for k in ("0", "-2"):
        for command in (["ccg"], ["ccg", "--profile", str(ppath)], ["check", "--profile", str(ppath)]):
            code, out, err = run(capsys, *command, "--game", str(gpath), "--grid-k", k)
            assert code == 1 and out == "", (command, k)
            assert err == f"error: grid_k must be at least 1, got {k}\n"


def test_ccg_malformed_function_entries_exit_1(tmp_path, capsys):
    base = {"edge": [0, 1], "family": "product", "c": "1"}
    bad_entries = (
        {**base, "split": "equal"},  # the split is an object, not a string
        {**base, "edge": [0]},
        {**base, "edge": 3},
        {"edge": [0, 1], "c": "1"},
        {**base, "c": 1.5},
        {**base, "family": "powprod", "k": 2.5},
        {**base, "family": "powprod", "k": True},
        {**base, "family": "powprod", "k": 0},
        "edge",
    )
    gpath = tmp_path / "g.json"
    for entry in bad_entries:
        gpath.write_text(json.dumps({"nodes": 2, "budgets": ["1", "1"], "functions": [entry]}))
        code, out, err = run(capsys, "ccg", "--game", str(gpath))
        assert code == 1 and out == "", entry
        assert err.startswith("error: ") and "Traceback" not in err, entry


def _assert_exit_1(code, out, err, case):
    assert code == 1 and out == "", case
    assert err.startswith("error: ") and "Traceback" not in err, case


def test_non_integer_node_ids_exit_1(tmp_path, capsys):
    # Node ids and counts were truncated with int(): this instance and
    # matching ran as n=3 with edge and pair (0, 1), and check exited 0.
    ipath, mpath = tmp_path / "inst.json", tmp_path / "m.json"
    ipath.write_text(json.dumps({"nodes": 3.7, "edges": [{"u": 0.2, "v": 1.9, "r": "1"}]}))
    mpath.write_text(json.dumps({"pairs": [[0.4, 1.6]]}))
    _assert_exit_1(*run(capsys, "check", "--instance", str(ipath), "--matching", str(mpath)), "float ids")

    for doc in (
        {"nodes": True, "edges": []},
        {"nodes": "3", "edges": []},
        {"nodes": 3, "edges": [{"u": 0, "v": 1.0, "r": "1"}]},
        {"nodes": 3, "edges": [{"u": False, "v": 1, "r": "1"}]},
    ):
        ipath.write_text(json.dumps(doc))
        _assert_exit_1(*run(capsys, "solve", "--instance", str(ipath)), doc)

    ipath.write_text(json.dumps({"nodes": 3, "edges": [{"u": 0, "v": 1, "r": "1"}]}))
    for pairs in ([[0.0, 1]], [[0, True]], [["0", "1"]], [5], 7):
        mpath.write_text(json.dumps({"pairs": pairs}))
        _assert_exit_1(*run(capsys, "check", "--instance", str(ipath), "--matching", str(mpath)), pairs)


_PATH_EDGES = [{"u": 0, "v": 1, "r": "2"}, {"u": 1, "v": 2, "r": "1"}]
_TRUST_EDGES = [{"u": 0, "v": 1}, {"u": 1, "v": 2}]
_GAME = {"nodes": 2, "budgets": ["1", "1"], "functions": [{"edge": [0, 1], "family": "product", "c": "1"}]}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("solve", {"nodes": 3, "edges": _PATH_EDGES, "alpha": "1"}),
        ("solve", {"nodes": 3, "edges": _PATH_EDGES, "sharing": {"rule": "matthew", "lambda": "122"}}),
        ("solve", {"nodes": 3, "edges": _TRUST_EDGES, "sharing": {"rule": "trust", "beta": "120", "h": ["1", "1"]}}),
        ("solve", {"nodes": 3, "edges": _TRUST_EDGES, "sharing": {"rule": "trust", "beta": ["1", "2", "0"], "h": "11"}}),
        ("ccg", {**_GAME, "budgets": "11"}),
        ("ccg", {**_GAME, "alpha": {"1": 0}}),
        (
            "ccg",
            {**_GAME, "lambda": "12", "functions": [{**_GAME["functions"][0], "split": {"kind": "matthew"}}]},
        ),
    ],
    ids=["alpha", "lambda", "beta", "h", "game-budgets", "game-alpha", "game-lambda"],
)
def test_rational_arrays_must_be_json_arrays(tmp_path, capsys, command, doc):
    # A string or an object where an array of rationals belongs used to be
    # read entry by entry: "12" as (1, 2) and {"1": 0} as (1,).
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    flag = "--instance" if command == "solve" else "--game"
    code, out, err = run(capsys, command, flag, str(path))
    _assert_exit_1(code, out, err, doc)
    assert err.count("\n") == 1 and "must be a JSON array" in err


_PATH3 = {"nodes": 4, "edges": [{"u": 0, "v": 1, "r": "1"}, {"u": 1, "v": 2, "r": "1"}, {"u": 2, "v": 3, "r": "1"}]}
_HALVES = {"u": "1/2", "v": "1/2"}
_PRODUCT = _GAME["functions"][0]

# case -> (document kind, document, the key and level the error names)
UNKNOWN_KEYS = {
    "instance": ("instance", {**_PATH3, "alhpa": ["1/2"]}, "'alhpa' in the instance"),
    "edge": (
        "instance",
        {**_PATH3, "edges": [*_PATH3["edges"][:2], {"u": 2, "v": 3, "r": "1", "rr": "2"}]},
        "'rr' in an edge",
    ),
    "sharing": (
        "instance",
        {**_PATH3, "sharing": {"rule": "equal", "lambda": ["1"] * 4}},
        "'lambda' in the sharing object",
    ),
    "oblivious-share": (
        "instance",
        {**_PATH3, "sharing": {"rule": "oblivious", "shares": [_HALVES, _HALVES, {**_HALVES, "w": "1"}]}},
        "'w' in an oblivious share",
    ),
    "game": ("game", {**_GAME, "budget": ["2", "2"]}, "'budget' in the game"),
    "function-k": ("game", {**_GAME, "functions": [{**_PRODUCT, "k": 3}]}, "'k' in a function"),
    "split": (
        "game",
        {**_GAME, "functions": [{**_PRODUCT, "split": {"kind": "equal", "lambda": "1"}}]},
        "'lambda' in a split",
    ),
    "matching": ("matching", {"pairs": [[0, 1]], "pair": [[2, 3]]}, "'pair' in the matching"),
    "profile": ("profile", {"alloc": [], "allocs": []}, "'allocs' in the profile"),
    "profile-entry": (
        "profile",
        {"alloc": [{"node": 0, "edge": [0, 1], "amount": "1", "amuont": "1/2"}]},
        "'amuont' in a profile entry",
    ),
}


@pytest.mark.parametrize("case", UNKNOWN_KEYS)
def test_unknown_keys_exit_1(tmp_path, capsys, case):
    # Each key used to be ignored: the command exited 0, with the output of
    # the document without it.
    kind, doc, named = UNKNOWN_KEYS[case]
    path, ipath, gpath = tmp_path / "doc.json", tmp_path / "path3.json", tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    ipath.write_text(json.dumps(_PATH3))
    gpath.write_text(json.dumps(_GAME))
    argv = {
        "instance": ["solve", "--instance", path, "--method", "brbp"],
        "game": ["ccg", "--game", path],
        "matching": ["check", "--instance", ipath, "--matching", path],
        "profile": ["check", "--game", gpath, "--profile", path],
    }[kind]
    code, out, err = run(capsys, *map(str, argv))
    _assert_exit_1(code, out, err, case)
    assert err == f"error: unknown key {named}\n"


@pytest.mark.parametrize("density", ["1.5", "-0.5", "nan", "inf"])
def test_gen_random_rejects_density_outside_unit_interval(tmp_path, capsys, density):
    # Each used to exit 0: below 0 or nan drew no edge, above 1 every edge.
    path = tmp_path / "inst.json"
    _assert_exit_1(*run(capsys, "gen", "random", "--n", "4", f"--density={density}", "--out", str(path)), density)
    assert not path.exists()
    with pytest.raises(InstanceError, match="density"):
        gen_random_ccg(seed=0, n=4, density=float(density))


def test_profile_repeating_a_node_on_an_edge_exit_1(tmp_path, capsys):
    # The last entry used to win silently: this profile was read as node 0
    # spending 0 on (0, 1), and check certified it.
    gpath, ppath = tmp_path / "g.json", tmp_path / "p.json"
    gpath.write_text(json.dumps(_GAME))
    for second in ([1, 0], [0, 1]):
        alloc = [{"node": 0, "edge": [0, 1], "amount": "1"}, {"node": 0, "edge": second, "amount": "0"}]
        ppath.write_text(json.dumps({"alloc": alloc}))
        code, out, err = run(capsys, "check", "--game", str(gpath), "--profile", str(ppath))
        _assert_exit_1(code, out, err, second)
        assert err == "error: node 0 on edge (0, 1) is listed twice\n"
    # Both endpoints on the same edge is one entry each, and stays valid.
    alloc = [{"node": 0, "edge": [0, 1], "amount": "1"}, {"node": 1, "edge": [1, 0], "amount": "1"}]
    ppath.write_text(json.dumps({"alloc": alloc}))
    code, out, _ = run(capsys, "check", "--game", str(gpath), "--profile", str(ppath))
    assert code == 0 and json.loads(out)["is_equilibrium"] is True


def test_non_integer_node_ids_in_games_and_profiles_exit_1(tmp_path, capsys):
    gpath, ppath = tmp_path / "g.json", tmp_path / "p.json"
    entry = {"edge": [0, 1], "family": "product", "c": "1"}
    for doc in (
        {"nodes": 2.9, "budgets": ["1", "1"], "functions": [{**entry, "edge": [0.7, 1.2]}]},
        {"nodes": 2, "budgets": ["1", "1"], "functions": [{**entry, "edge": [0, 1.0]}]},
    ):
        gpath.write_text(json.dumps(doc))
        _assert_exit_1(*run(capsys, "ccg", "--game", str(gpath)), doc)

    gpath.write_text(json.dumps({"nodes": 3, "budgets": ["1", "1", "1"], "functions": [entry, {**entry, "edge": [1, 2]}]}))
    for alloc in (
        [{"node": 0.0, "edge": [0, 1], "amount": "1"}],
        [{"node": 0, "edge": [0, 1.5], "amount": "1"}],
        [{"node": -1, "edge": [1, 2], "amount": "1"}],  # used to be read as node 2
        [{"node": 3, "edge": [1, 2], "amount": "1"}],
        [{"node": 0, "edge": [0, 2], "amount": "1"}],
        [{"node": 0, "edge": [0, 1], "amount": 0.5}],
        [{"node": 0, "edge": [1, 2], "amount": "0"}],  # used to pass: a zero amount was dropped
        [7],
    ):
        ppath.write_text(json.dumps({"alloc": alloc}))
        _assert_exit_1(*run(capsys, "check", "--game", str(gpath), "--profile", str(ppath)), alloc)
    for amount in ("1", "0"):
        ppath.write_text(json.dumps({"alloc": [{"node": 0, "edge": [1, 2], "amount": amount}]}))
        code, out, err = run(capsys, "check", "--game", str(gpath), "--profile", str(ppath))
        _assert_exit_1(code, out, err, amount)
        assert err == "error: node 0 allocates to non-incident edge (1, 2)\n", amount
    # A negative end must not wrap to node 2, which is adjacent to 1.
    ppath.write_text(json.dumps({"alloc": [{"node": 1, "edge": [-1, 1], "amount": "1"}]}))
    code, out, err = run(capsys, "check", "--game", str(gpath), "--profile", str(ppath))
    _assert_exit_1(code, out, err, "negative end")
    assert err == "error: node 1 on edge (-1, 1) is not in the game\n"


def test_exact_answers_print_at_any_size(tmp_path, capsys):
    # Rewards 1/(10^4000+1) and 1/(10^4000+3): the value (2*10^4000+4) /
    # ((10^4000+1)(10^4000+3)) has a 4,001-digit numerator over an 8,001-digit
    # denominator, past Python's 4,300-digit limit on int-to-str conversion.
    # Every digit string here is written out, not converted from an int.
    zeros = "0" * 3999
    path, mpath = tmp_path / "inst.json", tmp_path / "m.json"
    edges = [{"u": 0, "v": 1, "r": f"1/1{zeros}1"}, {"u": 2, "v": 3, "r": f"1/1{zeros}3"}]
    path.write_text(json.dumps({"nodes": 4, "edges": edges}))
    mpath.write_text(json.dumps({"pairs": [[0, 1], [2, 3]]}))
    value = f"2{zeros}4/1{zeros}4{zeros}3"
    for argv, field in (
        (["solve", "--method", "brbp"], "value"),
        (["solve", "--method", "greedy"], "value"),
        (["solve", "--method", "srpq"], "value"),
        (["check", "--matching", str(mpath)], "value"),
        (["audit"], "optimum"),
    ):
        code, out, err = run(capsys, *argv, "--instance", str(path))
        assert (code, err) == (0, ""), argv
        assert json.loads(out)[field] == value, argv


def test_malformed_rewards_and_sharing_exit_1(tmp_path, capsys):
    # A float reward, lambda, share or trust value used to escape as a
    # TypeError traceback from solve, audit and dynamics, and a bool reward
    # or alpha entry was read as 1 or 0.
    edges = [{"u": 0, "v": 1, "r": "2"}, {"u": 1, "v": 2, "r": "1"}]
    docs = (
        {"nodes": 3, "edges": [{"u": 0, "v": 1, "r": 0.5}]},
        {"nodes": 3, "edges": [{"u": 0, "v": 1, "r": True}]},
        {"nodes": 3, "edges": edges, "alpha": [False]},
        {"nodes": 3, "edges": edges, "sharing": {"rule": "matthew", "lambda": [0.5, "1", "1"]}},
        {"nodes": 3, "edges": edges, "sharing": {"rule": "parasite", "lambda": ["1", "1"]}},
        {"nodes": 3, "edges": edges, "sharing": {"rule": "oblivious", "shares": [{"u": 1.5, "v": "1/2"}, {"u": "1", "v": "0"}]}},
        {"nodes": 3, "edges": edges, "sharing": {"rule": "oblivious", "shares": [{"u": "1"}, {"u": "1", "v": "0"}]}},
        {"nodes": 3, "edges": edges, "sharing": {"rule": "trust", "beta": ["0", "0", "0"], "h": [1.0, "1/2"]}},
        {"nodes": 3, "edges": edges, "sharing": {"rule": "trust", "beta": ["0"], "h": ["1", "1/2"]}},
        {"nodes": 3, "edges": edges, "sharing": "equal"},
        {"nodes": 3, "edges": [[0, 1, "1"]]},
        [],
    )
    path = tmp_path / "inst.json"
    for doc in docs:
        path.write_text(json.dumps(doc))
        for command in ("solve", "audit", "dynamics"):
            _assert_exit_1(*run(capsys, command, "--instance", str(path)), (command, doc))


def test_audit_manifest_applies_alpha(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "path3", "--out", str(path))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([str(path)]))
    code, out, _ = run(capsys, "audit", "--manifest", str(manifest), "--alpha", "1/2")
    assert code == 0
    (report,) = json.loads(out)["reports"]
    bound = [b for b in report["bounds"] if b["name"] == "pos_le_equal_bound"][0]
    assert bound["bound"] == "3/2"
    _, single, _ = run(capsys, "audit", "--instance", str(path), "--alpha", "1/2")
    assert {**json.loads(single), "instance": str(path)} == report


def test_check_profile_applies_alpha(tmp_path, capsys):
    gpath = GOLDEN / "ccg-atmost-equal.game.json"
    ppath = tmp_path / "profile.json"
    ppath.write_text(json.dumps({"alloc": []}))
    code, out, _ = run(capsys, "check", "--game", str(gpath), "--profile", str(ppath), "--alpha", "1")
    assert code == 2
    assert json.loads(out)["witness"]["utilities_after"] == ["5/8", "5/8"]
    # The same as writing alpha 1 into the game itself.
    game = ccg_from_json(gpath.read_text(encoding="utf-8"))
    rewritten = tmp_path / "game.json"
    rewritten.write_text(ccg_to_json(dataclasses.replace(game, friendship=FriendshipVector((F(1),)))))
    assert run(capsys, "check", "--game", str(rewritten), "--profile", str(ppath)) == (code, out, "")


@pytest.mark.parametrize(
    "entry", [None, 1.5, {}, True, 1, 0, ["a.json"]], ids=["null", "float", "object", "true", "one", "zero", "list"]
)
def test_audit_manifest_rejects_non_string_entries(tmp_path, entry):
    # In a child process: an integer entry would otherwise be opened as a
    # file descriptor of the test runner itself.
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([entry]))
    src = str(Path(socialmatch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-m", "socialmatch", "audit", "--manifest", str(manifest)],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "manifest must be a JSON array of instance paths\n"


def test_dynamics_seed_only_with_arbitrary(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "random", "--seed", "5", "--n", "8", "--density", "0.6", "--out", str(path))
    for method in ("bbp", "brbp"):
        code, out, err = run(capsys, "dynamics", "--instance", str(path), "--method", method, "--seed", "3")
        assert (code, out) == (1, "")
        assert err == f"--seed applies only to --method arbitrary, not {method}\n"
    # Without --seed, arbitrary dynamics use seed 0.
    argv = ("dynamics", "--instance", str(path), "--method", "arbitrary", "--start", "empty")
    assert run(capsys, *argv) == run(capsys, *argv, "--seed", "0")


@pytest.mark.parametrize(
    "gadget,flag,value",
    [
        ("path3", "--rule", "trust"),
        ("pos-tight", "--seed", "9"),
        ("pos-tight", "--alpha", "1/4"),
        ("matthew-poa", "--alpha1", "1/4"),
        ("friendship-rs", "--alpha", "1/4"),
        ("random", "--eps", "1/5"),
        ("aux-augment", "--alpha", "1/2"),
        ("nonexistence", "--R", "3"),
        ("cyclic-triangle", "--n", "5"),
        ("sparse", "--density", "0.5"),
    ],
)
def test_gen_rejects_flags_its_gadget_does_not_read(tmp_path, capsys, gadget, flag, value):
    # --alpha is not taken as an abbreviation of --alpha1 either.
    base = tmp_path / "base.json"
    run(capsys, "gen", "path3", "--out", str(base))
    required = {"aux-augment": ["--instance", str(base)], "sparse": ["--m", "4"]}.get(gadget, [])
    code, out, err = run(capsys, "gen", gadget, *required, flag, value)
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: {flag} {value}" in err


def test_gen_accepts_every_flag_its_gadget_reads(tmp_path, capsys):
    # Each flag at its default value gives the same bytes as leaving it out.
    base = tmp_path / "base.json"
    run(capsys, "gen", "path3", "--out", str(base))
    defaults = {
        "--alpha": "", "--alpha1": "1/2", "--eps": "1/10", "--R": "2", "--variant": "poa",
        "--seed": "0", "--n": "6", "--density": "0.5", "--rule": "equal",
    }
    reads = {
        "path3": ["--alpha"],
        "pos-tight": ["--alpha1", "--eps"],
        "matthew-poa": ["--R", "--variant", "--eps"],
        "friendship-rs": ["--R", "--alpha1", "--variant", "--eps"],
        "nonexistence": [],
        "cyclic-triangle": [],
        "random": ["--seed", "--n", "--density", "--rule", "--alpha"],
        "sparse": ["--seed", "--n", "--rule", "--alpha"],
        "aux-augment": ["--eps"],
    }
    for gadget, flags in reads.items():
        required = {"aux-augment": ["--instance", str(base)], "sparse": ["--m", "4"]}.get(gadget, [])
        plain = run(capsys, "gen", gadget, *required)
        assert plain[0] == 0 and plain[2] == ""
        explicit = [arg for flag in flags for arg in (flag, defaults[flag])]
        assert run(capsys, "gen", gadget, *required, *explicit) == plain, gadget


def test_gen_sparse_one_seed_one_document(capsys):
    argv = ("gen", "sparse", "--seed", "3", "--n", "40", "--m", "70", "--rule", "matthew", "--alpha", "1/2")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert run(capsys, *argv) == (0, out, "")
    assert len(instance_from_json(out).graph.edges) == 70
    other = run(capsys, *argv[:3], "4", *argv[4:])
    assert other[0] == 0 and other[1] != out


@pytest.mark.parametrize(
    "n,m,err",
    [
        ("4", "7", "error: m=7 exceeds the 6 node pairs of n=4\n"),
        ("1", "1", "error: m=1 exceeds the 0 node pairs of n=1\n"),
        ("4", "-1", "error: node and edge counts must be nonnegative, got n=4, m=-1\n"),
        ("-3", "2", "error: node and edge counts must be nonnegative, got n=-3, m=2\n"),
    ],
)
def test_gen_sparse_rejects_impossible_counts(tmp_path, capsys, n, m, err):
    path = tmp_path / "inst.json"
    assert run(capsys, "gen", "sparse", f"--n={n}", f"--m={m}", "--out", str(path)) == (1, "", err)
    assert not path.exists()


def test_gen_sparse_requires_m(capsys):
    code, out, err = run(capsys, "gen", "sparse")
    assert (code, out) == (1, "")
    assert "the following arguments are required: --m" in err


def test_gen_aux_augment_requires_instance(capsys):
    code, out, err = run(capsys, "gen", "aux-augment")
    assert (code, out) == (1, "")
    assert "the following arguments are required: --instance" in err


def test_audit_rejects_instance_with_manifest(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "path3", "--out", str(path))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([str(path)]))
    code, out, err = run(capsys, "audit", "--manifest", str(manifest), "--instance", str(path))
    assert (code, out) == (1, "")
    assert "not allowed with argument" in err


@pytest.mark.parametrize(
    "given",
    [("matching",), ("instance", "matching", "game", "profile"), ("instance", "game", "profile"), ("game",)],
    ids=["matching-alone", "both-pairs", "instance-with-game", "game-alone"],
)
def test_check_needs_exactly_one_pair(tmp_path, capsys, given):
    ipath = tmp_path / "inst.json"
    run(capsys, "gen", "path3", "--out", str(ipath))
    mpath = tmp_path / "matching.json"
    mpath.write_text(json.dumps({"pairs": []}))
    ppath = tmp_path / "profile.json"
    ppath.write_text(json.dumps({"alloc": []}))
    paths = {
        "instance": ipath, "matching": mpath, "game": GOLDEN / "ccg-atmost-equal.game.json", "profile": ppath,
    }
    argv = [arg for name in given for arg in (f"--{name}", str(paths[name]))]
    assert run(capsys, "check", *argv) == (
        1, "", "check needs --instance with --matching, or --game with --profile\n"
    )


def test_solve_prefs_only_with_greedy(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "path3", "--alpha", "1/2", "--out", str(path))
    for method in ("brbp", "srpq"):
        code, out, err = run(capsys, "solve", "--instance", str(path), "--method", method, "--prefs", "q")
        assert (code, out) == (1, "")
        assert err == f"--prefs applies only to --method greedy, not {method}\n"
    # Without --prefs, greedy ranks by raw keys.
    argv = ("solve", "--instance", str(path), "--method", "greedy")
    assert run(capsys, *argv) == run(capsys, *argv, "--prefs", "raw")


def test_ccg_profile_rejects_max_n(tmp_path, capsys):
    gpath = GOLDEN / "ccg-atmost-equal.game.json"
    ppath = tmp_path / "profile.json"
    ppath.write_text(json.dumps({"alloc": []}))
    code, out, err = run(capsys, "ccg", "--game", str(gpath), "--profile", str(ppath), "--max-n", "1")
    assert (code, out) == (1, "")
    assert err == "--max-n does not apply to --profile, which enumerates nothing\n"


EDGES_1_1 = [{"u": 0, "v": 1, "r": "1"}, {"u": 1, "v": 2, "r": "1"}]


@pytest.mark.parametrize(
    "argv, doc",
    [
        (("audit",), {"nodes": 3, "edges": [{"u": 0, "v": 1, "r": "1/0"}]}),
        (("audit",), {"nodes": 3, "edges": EDGES_1_1, "alpha": ["1/0"]}),
        (("audit", "--alpha", "1/0"), {"nodes": 3, "edges": EDGES_1_1}),
        (
            ("audit",),
            {"nodes": 3, "edges": EDGES_1_1,
             "sharing": {"rule": "oblivious", "shares": [{"u": "1/0", "v": "1"}, {"u": "1", "v": "0"}]}},
        ),
        (("gen", "pos-tight", "--eps", "1/0"), None),
    ],
    ids=["reward", "alpha-entry", "alpha-flag", "oblivious-share", "gen-eps"],
)
def test_zero_denominator_exit_1(tmp_path, capsys, argv, doc):
    # Each of these escaped as a ZeroDivisionError traceback.
    if doc is not None:
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        argv = (*argv, "--instance", str(path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: zero denominator in '1/0'\n"


def test_check_matching_rejects_grid_k(tmp_path, capsys):
    # --grid-k was ignored on the matching path: --grid-k 0 printed the same
    # bytes as no flag, although it is an error with --game.
    ipath = tmp_path / "inst.json"
    run(capsys, "gen", "path3", "--out", str(ipath))
    mpath = tmp_path / "matching.json"
    mpath.write_text(json.dumps({"pairs": [[1, 2]]}))
    argv = ("check", "--instance", str(ipath), "--matching", str(mpath))
    assert run(capsys, *argv)[0] == 0
    for k in ("0", "8"):
        assert run(capsys, *argv, "--grid-k", k) == (1, "", "--grid-k applies only to --game with --profile\n")


def test_max_n_rejected_where_no_cap_applies(tmp_path, capsys):
    # Each of these ran to exit 0 with --max-n 1 on n=4.
    ipath = tmp_path / "inst.json"
    run(capsys, "gen", "path3", "--alpha", "1/2", "--out", str(ipath))
    mpath = tmp_path / "matching.json"
    mpath.write_text(json.dumps({"pairs": []}))
    base = ("--instance", str(ipath), "--max-n", "1")
    greedy = run(capsys, "solve", *base, "--method", "greedy")
    assert greedy == (1, "", "--max-n does not apply to --method greedy, which has no size cap\n")
    for method in ("bbp", "arbitrary"):
        for start in ("empty", str(mpath)):
            assert run(capsys, "dynamics", *base, "--method", method, "--start", start) == (
                1, "", "--max-n applies only to --start opt, which computes the exact optimum\n"
            ), (method, start)
    # Where a cap applies, the flag still caps.
    limit = "limit: n=4 exceeds exact-optimum limit 1\n"
    assert run(capsys, "dynamics", *base, "--method", "bbp", "--start", "opt") == (1, "", limit)
    assert run(capsys, "dynamics", *base, "--method", "arbitrary") == (1, "", limit)
    assert run(capsys, "solve", *base, "--method", "brbp") == (1, "", limit)
    # srpq enumerates only when its q-preferences are cyclic.
    cpath = tmp_path / "cyclic.json"
    run(capsys, "gen", "cyclic-triangle", "--out", str(cpath))
    code, out, err = run(capsys, "solve", "--instance", str(cpath), "--max-n", "1", "--method", "srpq")
    assert (code, out) == (1, "") and err.startswith("limit: n=3 exceeds")


def test_negative_max_n_exit_1(tmp_path, capsys):
    # solve --method srpq ran to exit 0 on this acyclic instance, and audit
    # reported "n=4 exceeds enumeration limit -2".
    ipath = tmp_path / "inst.json"
    run(capsys, "gen", "path3", "--alpha", "1/2", "--out", str(ipath))
    rejected = (1, "", "error: max_n must be at least 0, got -2\n")
    base = ("--instance", str(ipath), "--max-n", "-2")
    for method in ("brbp", "srpq"):
        assert run(capsys, "solve", *base, "--method", method) == rejected, method
    assert run(capsys, "audit", *base) == rejected
    for method in ("brbp", "bbp", "arbitrary"):
        assert run(capsys, "dynamics", *base, "--method", method) == rejected, method
    assert run(capsys, "dynamics", *base, "--method", "bbp", "--start", "opt") == rejected
    for mode in ("atmost", "exact"):
        game = gen_random_ccg(seed=3, n=5, density=0.6, split="equal", mode=mode, alpha=("1/2",))
        gpath = tmp_path / f"{mode}.json"
        gpath.write_text(ccg_to_json(game))
        assert run(capsys, "ccg", "--game", str(gpath), "--max-n", "-2") == rejected, mode


@pytest.mark.parametrize(
    "kwargs, max_n, err",
    [
        (
            dict(seed=1, n=5, density=0.6, split="matthew", mode="exact", alpha=("1/2",)),
            None,
            "error: forbidden edges are defined for equal splits\n",
        ),
        (
            dict(seed=1, n=5, density=0.6, split="equal", mode="exact", alpha=("1/2", "1/4")),
            None,
            "error: forbidden edges are defined for local friendship\n",
        ),
        (dict(seed=2, n=23, density=0.3, alpha=("1/2",)), None, "limit: n=23 exceeds enumeration limit 12\n"),
        (dict(seed=2, n=8, density=0.3, alpha=("1/2",)), "7", "limit: n=8 exceeds enumeration limit 7\n"),
        (
            dict(seed=2, n=8, density=0.3, mode="exact", alpha=("1/2",)),
            "7",
            "limit: n=8 exceeds exact-optimum limit 7\n",
        ),
    ],
    ids=["exact-matthew", "exact-nonlocal", "atmost-n23", "atmost-max-n-7", "exact-max-n-7"],
)
def test_ccg_rejections_and_which_error_wins(tmp_path, capsys, kwargs, max_n, err):
    # An exact-mode game without equal splits and local friendship is
    # rejected before any cap check, and an atmost game over both caps
    # reports the enumeration cap.
    gpath = tmp_path / "game.json"
    gpath.write_text(ccg_to_json(gen_random_ccg(**kwargs)))
    flags = () if max_n is None else ("--max-n", max_n)
    assert run(capsys, "ccg", "--game", str(gpath), *flags) == (1, "", err)


def nonexistence_game(tmp_path):
    """A game whose corresponding game has no stable matching: the
    brand-value 5-cycle with friendship, as product rewards on unit budgets."""
    gadget = gen_nonexistence_friendship_matthew()
    game = ContributionGame(
        graph=gadget.graph,
        budgets=(F(1),) * gadget.graph.n,
        functions=tuple(RewardFunction("product", r) for r in gadget.rewards),
        splits=("matthew",) * len(gadget.graph.edges),
        friendship=gadget.friendship,
        lam=gadget.sharing.lam,
    )
    gpath = tmp_path / "game.json"
    gpath.write_text(ccg_to_json(game))
    return gpath


def test_ccg_without_stable_matching_exit_2(tmp_path, capsys):
    gpath = nonexistence_game(tmp_path)
    out = '{\n  "equilibrium": null,\n  "mode": "atmost",\n  "note": "no stable matching in the corresponding game"\n}\n'
    assert run(capsys, "ccg", "--game", str(gpath)) == (2, out, "")


@pytest.mark.parametrize(
    "name, checks",
    [("ccg-atmost-equal", 3), ("ccg-atmost-matthew", 7), ("ccg-atmost-proportional", 2), ("ccg-exact-equal", 2)],
)
def test_ccg_command_derives_each_fact_once(monkeypatch, capsys, name, checks):
    # The command reads its equilibrium from the audit's report. It used to
    # build the corresponding game 4 (atmost) or 7 (exact) times and to
    # certify its first profile a second time.
    from socialmatch import ccg, cli

    calls: dict = {}

    def counted(module, fname):
        original = getattr(module, fname)

        def wrapper(*args, **kwargs):
            calls.setdefault(fname, []).append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, fname, wrapper)

    for module in (ccg, cli):
        for fname in (
            "corresponding_matching_game",
            "enumerate_stable_matchings",
            "detect_forbidden_edges",
            "tight_budget_equilibrium",
            "max_weight_matching",  # run_brbp's own start DP is not counted
            "is_pairwise_equilibrium",
        ):
            if hasattr(module, fname):
                counted(module, fname)
    gpath = GOLDEN / f"{name}.game.json"
    game = ccg_from_json(gpath.read_text())
    code, out, _ = run(capsys, "ccg", "--game", str(gpath))
    assert (code, out) == (0, (GOLDEN / f"{name}.out").read_text())
    assert [args[0] for args in calls["corresponding_matching_game"]].count(game) == 1
    assert len(calls.get("enumerate_stable_matchings", [])) <= 1
    assert len(calls.get("detect_forbidden_edges", [])) <= 1
    assert len(calls.get("tight_budget_equilibrium", [])) <= 1
    assert len(calls["max_weight_matching"]) == 1
    assert len(calls["is_pairwise_equilibrium"]) == checks


def test_dynamics_rejects_format(tmp_path, capsys):
    # dynamics always streams JSONL: --format table exited 0 and was ignored.
    path = tmp_path / "inst.json"
    run(capsys, "gen", "path3", "--out", str(path))
    code, out, err = run(capsys, "dynamics", "--instance", str(path), "--format", "table")
    assert (code, out) == (1, "")
    assert err.startswith("usage:") and "unrecognized arguments: --format table" in err


def test_ccg_grid_k_checked_without_stable_matching(tmp_path, capsys):
    # With no stable matching to certify, --grid-k 0 used to be ignored: the
    # command exited 2 with a null equilibrium.
    gpath = nonexistence_game(tmp_path)
    assert run(capsys, "ccg", "--game", str(gpath), "--grid-k", "0") == (
        1, "", "error: grid_k must be at least 1, got 0\n"
    )


# Calls that argparse answers itself: help, and usage errors.
USAGE_ARGV = (
    [],
    ["--help"],
    ["-h"],
    ["bogus"],
    ["--bogus", "solve"],
    ["-1"],
    *([cmd, "--help"] for cmd in ("gen", "solve", "audit", "dynamics", "ccg", "check")),
    ["gen"],
    ["gen", "bogus"],
    ["gen", "random", "--help"],
    ["gen", "pos-tight", "--seed", "9"],
    ["solve"],
    ["solve", "--inst"],
    ["solve", "--instance", "x.json", "--method", "bogus"],
    ["solve", "--instance", "x.json", "--max-n", "abc"],
    ["solve", "--instance", "x.json", "--bogus"],
    ["solve", "--instance", "x.json", "--format", "xml"],
    ["audit"],
    ["audit", "--instance", "a.json", "--manifest", "b.json"],
    ["dynamics", "--instance", "x.json", "--cap", "z"],
    ["dynamics", "--instance", "x.json", "--format", "table"],
    ["ccg"],
    ["ccg", "--game", "g.json", "--grid-k", "q"],
    ["check", "--format", "xml"],
    ["check", "--grid-k"],
)


def _reference_usage(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = reference_cli_parser().parse_args(argv)
            if args.command == "gen":
                gadget_parser(args.gadget).parse_args(args.flags)
            code = None
        except SystemExit as exc:
            code = 1 if exc.code not in (0, None) else 0
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", USAGE_ARGV, ids=" ".join)
def test_help_and_usage_errors_match_full_parser(argv, capsys, monkeypatch):
    # main builds only the chosen subcommand's arguments; what argparse
    # prints, and the exit code, must not tell.
    monkeypatch.setenv("COLUMNS", "80")
    expected = _reference_usage(argv)
    assert expected[0] == (0 if "--help" in argv or "-h" in argv else 1)
    assert run(capsys, *argv) == expected
