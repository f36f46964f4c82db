"""Byte-for-byte goldens of the CLI's audit report on every gadget.

Each golden is the stdout of ``socialmatch audit --instance <gadget>`` with
default flags, where the instance comes from ``socialmatch gen <gadget>``
with default flags; ``aux-augment`` augments the ``path3`` gadget.  The
files pin the audit's full output, so a change that alters it the same way
on every run still shows.  Regenerate them with
``PYTHONPATH=src python tests/test_golden.py``, and only when a change of
output is intended.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from socialmatch.cli import main

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


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def audit_output(gadget: str, workdir: Path) -> tuple[int, str]:
    """Exit code and stdout of auditing the gadget's default instance."""
    path = workdir / f"{gadget}.json"
    extra: list[str] = []
    if gadget == "aux-augment":
        base = workdir / "aux-base.json"
        assert _run(["gen", "path3", "--out", str(base)])[0] == 0
        extra = ["--instance", str(base)]
    assert _run(["gen", gadget, "--out", str(path), *extra])[0] == 0
    return _run(["audit", "--instance", str(path)])


@pytest.mark.parametrize("gadget", GADGETS)
def test_audit_golden(gadget, tmp_path):
    golden = GOLDEN / f"audit-{gadget}.json"
    code, out = audit_output(gadget, tmp_path)
    assert code in (0, 2)
    assert out == golden.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in GADGETS:
            _, text = audit_output(name, Path(tmp))
            (GOLDEN / f"audit-{name}.json").write_text(text, encoding="utf-8")
            print(f"wrote audit-{name}.json", file=sys.stderr)
