"""Byte-for-byte goldens of the CLI's audit, solve, dynamics and ccg output.

Each audit golden is the stdout of ``socialmatch audit --instance <gadget>``
with default flags, where the instance comes from ``socialmatch gen
<gadget>`` with default flags; ``aux-augment`` augments the ``path3``
gadget.  Each solve or dynamics golden runs one command of ``COMMANDS`` on
the instance its ``gen`` arguments make; ``<name>.out`` holds its stdout,
``<name>.err`` its stderr when there is any, and the table pins its exit
code.  Each ccg golden runs ``socialmatch ccg --game <name>.game.json`` on
a committed game made by ``generators.gen_random_ccg`` with the arguments
of ``CCG_GAMES``; ``<name>.out`` holds its stdout.  Each check-ccg golden
runs ``socialmatch check --game --profile`` at n=1000 on a game and profile
that ``check_profile_output`` builds.  The files pin the full output, so a
change that alters it the same way on every run still shows.  Regenerate
them with ``PYTHONPATH=src python tests/test_golden.py``, and only when a
change of output is intended.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from socialmatch.ccg import corresponding_matching_game, saturated_profile
from socialmatch.cli import main
from socialmatch.dynamics import run_arbitrary_dynamics
from socialmatch.generators import gen_random_ccg
from socialmatch.matching import Matching

from helpers import ccg_to_json

GOLDEN = Path(__file__).parent / "golden"
GADGETS = (
    "path3",
    "pos-tight",
    "matthew-poa",
    "friendship-rs",
    "nonexistence",
    "cyclic-triangle",
    "random",
    "aux-augment",
)

# name -> (gen arguments, command and its flags, exit code)
COMMANDS = {
    "solve-brbp-equal": (
        ["random", "--seed", "3", "--n", "8", "--alpha", "1/2"],
        ["solve", "--method", "brbp"],
        0,
    ),
    "solve-brbp-equal-n20": (
        ["random", "--seed", "7", "--n", "20", "--density", "0.3"],
        ["solve", "--method", "brbp", "--max-n", "22"],
        0,
    ),
    # n=22 at the default cap.  The optimum is tied: another optimal matching
    # avoids the DP witness's edge (1, 2), so brbp's start pins the tie rule.
    "solve-brbp-equal-n22": (
        ["random", "--seed", "37", "--n", "22", "--density", "0.3"],
        ["solve", "--method", "brbp"],
        0,
    ),
    "solve-brbp-trust": (
        ["random", "--seed", "5", "--n", "10", "--rule", "trust"],
        ["solve", "--method", "brbp"],
        0,
    ),
    "solve-greedy-matthew": (
        ["random", "--seed", "4", "--n", "12", "--rule", "matthew"],
        ["solve", "--method", "greedy"],
        0,
    ),
    "solve-greedy-trust-q": (
        ["random", "--seed", "6", "--n", "10", "--rule", "trust", "--alpha", "1/2"],
        ["solve", "--method", "greedy", "--prefs", "q"],
        0,
    ),
    # Preference cycles: the witness in stderr pins the detector's output.
    "solve-greedy-cycle": (
        ["random", "--seed", "2", "--n", "12", "--rule", "oblivious"],
        ["solve", "--method", "greedy"],
        1,
    ),
    "solve-greedy-cyclic-triangle": (
        ["cyclic-triangle"],
        ["solve", "--method", "greedy"],
        1,
    ),
    # Equal sharing: the keys are symmetric on every edge, so there is no cycle.
    "solve-greedy-equal": (
        ["random", "--seed", "8", "--n", "12"],
        ["solve", "--method", "greedy"],
        0,
    ),
    # n=2000: pins the verdict's cross coefficient at scale.
    "solve-greedy-n2000": (
        ["random", "--seed", "21", "--n", "2000", "--density", "0.0025", "--alpha", "1/2,1/4"],
        ["solve", "--method", "greedy"],
        0,
    ),
    # n=10⁴, m=50,298 under matthew sharing: pins the greedy extraction order
    # and the integer matthew rewards at scale.  Raw keys ignore friendship,
    # so the 4,558 pairs are not stable under alpha=(1/2, 1/4): exit 2.
    "solve-greedy-matthew-n10000": (
        ["random", "--seed", "5", "--n", "10000", "--density", "0.001", "--rule", "matthew", "--alpha", "1/2,1/4"],
        ["solve", "--method", "greedy"],
        2,
    ),
    # The same n=10⁴ instance: q-keys see friendship, and they have no
    # cycle, so srpq solves it greedily and the matching is stable.
    "solve-srpq-matthew-n10000": (
        ["random", "--seed", "5", "--n", "10000", "--density", "0.001", "--rule", "matthew", "--alpha", "1/2,1/4"],
        ["solve", "--method", "srpq"],
        0,
    ),
    "solve-srpq-equal": (
        ["random", "--seed", "9", "--n", "10", "--alpha", "1/2"],
        ["solve", "--method", "srpq"],
        0,
    ),
    "solve-srpq-matthew": (
        ["random", "--seed", "1", "--n", "8", "--rule", "matthew", "--alpha", "1/2"],
        ["solve", "--method", "srpq"],
        0,
    ),
    # q-preferences with a cycle: solved by enumeration.
    "solve-srpq-cycle": (
        ["random", "--seed", "7", "--n", "8", "--rule", "oblivious", "--alpha", "1/2"],
        ["solve", "--method", "srpq"],
        0,
    ),
    "dynamics-brbp": (
        ["random", "--seed", "17", "--n", "10", "--alpha", "1/2"],
        ["dynamics", "--method", "brbp"],
        0,
    ),
    "dynamics-bbp": (
        ["random", "--seed", "12", "--n", "8", "--rule", "trust"],
        ["dynamics", "--method", "bbp"],
        0,
    ),
    "dynamics-arbitrary": (
        ["random", "--seed", "13", "--n", "10"],
        ["dynamics", "--method", "arbitrary", "--start", "empty", "--seed", "13"],
        0,
    ),
    # m = 608 edges: long runs from empty pin the pick order across many steps.
    "dynamics-arbitrary-m600": (
        ["random", "--seed", "31", "--n", "200", "--density", "0.03", "--alpha", "1/2,1/4"],
        ["dynamics", "--method", "arbitrary", "--start", "empty", "--seed", "5"],
        0,
    ),
    "dynamics-bbp-m600": (
        ["random", "--seed", "31", "--n", "200", "--density", "0.03", "--alpha", "1/2,1/4"],
        ["dynamics", "--method", "bbp", "--start", "empty"],
        0,
    ),
    # Two reward-19 biswivels in a row pin the tie-break; the cap ends the run.
    "dynamics-bbp-cap": (
        ["random", "--seed", "2", "--n", "12", "--rule", "trust"],
        ["dynamics", "--method", "bbp", "--cap", "3"],
        2,
    ),
}

# name -> (gen_random_ccg arguments, exit code)
CCG_GAMES = {
    "ccg-atmost-equal": (
        dict(seed=3, n=6, density=0.6, split="equal", mode="atmost", alpha=("1/2", "1/4")),
        0,
    ),
    "ccg-atmost-matthew": (
        dict(seed=4, n=6, density=0.6, split="matthew", mode="atmost", alpha=("1/2", "1/4")),
        0,
    ),
    "ccg-atmost-proportional": (
        dict(seed=6, n=6, density=0.6, split="proportional", mode="atmost", alpha=("1/2", "1/4")),
        0,
    ),
    # Edge (2, 5) is forbidden.
    "ccg-exact-equal": (
        dict(seed=15, n=6, density=0.35, split="equal", mode="exact", alpha=("1/2",)),
        0,
    ),
}

# name -> exit code.  The game is an atmost equal-split game with n=1000,
# average degree ~3 (m=1,481) and alpha=(1/2,).  "stable" is the saturated
# profile of the stable matching that arbitrary dynamics reach from empty:
# grid-certified after the full candidate scan.  "witness" drops the last
# pair of that matching, and the pair's nodes then gain by a bilateral move.
CHECK_PROFILES = {
    "check-ccg-n1000-stable": 0,
    "check-ccg-n1000-witness": 2,
}


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def audit_output(gadget: str, workdir: Path) -> tuple[int, str]:
    """Exit code and stdout of auditing the gadget's default instance."""
    path = workdir / f"{gadget}.json"
    extra: list[str] = []
    if gadget == "aux-augment":
        base = workdir / "aux-base.json"
        assert _run(["gen", "path3", "--out", str(base)])[0] == 0
        extra = ["--instance", str(base)]
    assert _run(["gen", gadget, "--out", str(path), *extra])[0] == 0
    return _run(["audit", "--instance", str(path)])[:2]


@functools.lru_cache(maxsize=None)
def generated(gen: tuple[str, ...]) -> str:
    """The instance document ``gen`` writes, made once per session: goldens
    that share an instance, like the two at n=10⁴, share its generation."""
    code, text, _ = _run(["gen", *gen])
    assert code == 0
    return text


def command_output(name: str, workdir: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the named command on its instance."""
    gen, (command, *flags), _ = COMMANDS[name]
    path = workdir / f"{name}.json"
    path.write_text(generated(tuple(gen)), encoding="utf-8")
    return _run([command, "--instance", str(path), *flags])


def ccg_output(name: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``ccg`` on the named committed game."""
    return _run(["ccg", "--game", str(GOLDEN / f"{name}.game.json")])


def check_profile_output(name: str, workdir: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``check --game --profile`` on the named case."""
    n = 1000
    game = gen_random_ccg(seed=1, n=n, density=0.003, split="equal", mode="atmost", alpha=("1/2",))
    stable, _ = run_arbitrary_dynamics(corresponding_matching_game(game), Matching.empty(n), 1)
    pairs = stable.sorted_pairs()
    if name.endswith("-witness"):
        pairs = pairs[:-1]
    game_path, profile_path = workdir / "game.json", workdir / "profile.json"
    game_path.write_text(ccg_to_json(game), encoding="utf-8")
    profile_path.write_text(json.dumps(saturated_profile(game, Matching.of(n, pairs)).to_dict(game)), encoding="utf-8")
    return _run(["check", "--game", str(game_path), "--profile", str(profile_path)])


@pytest.mark.parametrize("gadget", GADGETS)
def test_audit_golden(gadget, tmp_path):
    golden = GOLDEN / f"audit-{gadget}.json"
    code, out = audit_output(gadget, tmp_path)
    assert code in (0, 2)
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", COMMANDS)
def test_command_golden(name, tmp_path):
    code, out, err = command_output(name, tmp_path)
    stderr = GOLDEN / f"{name}.err"
    assert code == COMMANDS[name][2]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert err == (stderr.read_text(encoding="utf-8") if stderr.exists() else "")


@pytest.mark.parametrize("name", CCG_GAMES)
def test_ccg_golden(name):
    code, out, err = ccg_output(name)
    assert code == CCG_GAMES[name][1]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert err == ""


@pytest.mark.parametrize("name", CHECK_PROFILES)
def test_check_profile_golden(name, tmp_path):
    code, out, err = check_profile_output(name, tmp_path)
    assert code == CHECK_PROFILES[name]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert err == ""


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for gadget in GADGETS:
            _, text = audit_output(gadget, Path(tmp))
            (GOLDEN / f"audit-{gadget}.json").write_text(text, encoding="utf-8")
            print(f"wrote audit-{gadget}.json", file=sys.stderr)
        for name in COMMANDS:
            _, text, err = command_output(name, Path(tmp))
            (GOLDEN / f"{name}.out").write_text(text, encoding="utf-8")
            (GOLDEN / f"{name}.err").unlink(missing_ok=True)
            if err:
                (GOLDEN / f"{name}.err").write_text(err, encoding="utf-8")
            print(f"wrote {name}", file=sys.stderr)
        for name in CHECK_PROFILES:
            _, text, _ = check_profile_output(name, Path(tmp))
            (GOLDEN / f"{name}.out").write_text(text, encoding="utf-8")
            print(f"wrote {name}", file=sys.stderr)
    for name, (kwargs, _) in CCG_GAMES.items():
        (GOLDEN / f"{name}.game.json").write_text(ccg_to_json(gen_random_ccg(**kwargs)), encoding="utf-8")
        _, text, _ = ccg_output(name)
        (GOLDEN / f"{name}.out").write_text(text, encoding="utf-8")
        print(f"wrote {name}", file=sys.stderr)
