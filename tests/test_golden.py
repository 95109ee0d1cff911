"""Golden CLI outputs: the exit code and the sha256 of stdout of fixed runs
on the sample inputs, over QQ and GF(32003), must stay byte-identical.

Regenerate the stored file (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from bisurf.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
INPUTS = Path(__file__).resolve().parent.parent / "inputs"

CASES = [
    ("segre.ex",),
    ("d2_example.ex", "--saturate"),
    ("mixed23.ex", "--nu", "5"),
]
COMMANDS = ("implicit", "info", "matrix")
FIELDS = ((), ("--mod", "32003"))


def argvs():
    """Every golden argv; the input is named relative to inputs/."""
    return [
        [command, case[0], *case[1:], "--json", *field]
        for case in CASES
        for command in COMMANDS
        for field in FIELDS
    ]


def run(argv):
    """(exit code, sha256 of stdout) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    full = [argv[0], str(INPUTS / argv[1]), *argv[2:]]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(full)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _stored():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_argv():
    assert [entry["argv"] for entry in _stored()] == argvs()


@pytest.mark.parametrize("argv", argvs(), ids=" ".join)
def test_cli_output_is_unchanged(argv):
    entry = next(e for e in _stored() if e["argv"] == argv)
    code, digest = run(argv)
    assert (code, digest) == (entry["exit"], entry["stdout_sha256"])


if __name__ == "__main__":
    records = []
    for argv in argvs():
        code, digest = run(argv)
        records.append({"argv": argv, "exit": code, "stdout_sha256": digest})
        print(code, digest[:12], " ".join(argv), file=sys.stderr)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
