"""Golden CLI outputs: the exit code and the sha256 of stdout and of stderr
of fixed runs on the sample inputs, over QQ and GF(32003), must stay
byte-identical.

Regenerate the stored file (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from random import Random

import pytest

from bisurf.cli import main

from helpers import random_dense

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
INPUTS = Path(__file__).resolve().parent.parent / "inputs"

CASES = [
    ("segre.ex",),
    ("d2_example.ex", "--saturate"),
    ("mixed23.ex", "--nu", "5"),
]
COMMANDS = ("implicit", "info", "matrix")
FIELDS = ((), ("--mod", "32003"))

# Inputs written from random_dense(d, Random(1)), the benchmark's dense
# texts: their syzygy kernels (81x144 for d = 3) are the largest QQ kernels
# the suite pins. One implicit run: dense (2,2) over QQ, the only F here
# whose coefficients (88 bits) take several Dixon steps; it takes about
# 2.2 s, 1.5 s of it the oracle (2-core machine, Python 3.11.7). Over
# GF(32003) it adds nothing the other implicit runs do not pin, and dense
# (3,3) ran past 15 minutes mod 32003.
DENSE = {"dense22.ex": 2, "dense33.ex": 3}
DENSE_CASES = [("dense22.ex",), ("dense22.ex", "--saturate"), ("dense33.ex",)]

# Membership at an image point and an off point of dense (2,2), and at a
# regular image point (rank 8 of 9) and the singular point (1,0,0,0) (rank
# 6 of 9) of d2_example.
MEMBERSHIP_CASES = [
    ("dense22.ex", "--saturate", "--point", "229,93,-507,398"),
    ("dense22.ex", "--saturate", "--point", "1,2,3,4"),
    ("d2_example.ex", "--saturate", "--point", "15,11,40,12"),
    ("d2_example.ex", "--saturate", "--point", "1,0,0,0"),
]


def argvs():
    """Every golden argv; the input is named relative to inputs/, or is one
    of DENSE. The text `matrix` runs pin the printed row basis, and
    common_factor.ex pins the input-gcd warning and its exit code 2."""
    json_runs = [
        [command, case[0], *case[1:], "--json", *field]
        for case in CASES
        for command in COMMANDS
        for field in FIELDS
    ]
    text_runs = [["matrix", case[0], *case[1:], *field] for case in CASES for field in FIELDS]
    warning_runs = [["info", "common_factor.ex", "--json", *field] for field in FIELDS]
    dense_runs = [
        [command, case[0], *case[1:], "--json", *field]
        for case in DENSE_CASES
        for command in ("info", "matrix")
        for field in FIELDS
    ]
    dense_implicit = [["implicit", "dense22.ex", "--json"]]
    membership_runs = [
        ["membership", case[0], *case[1:], "--json", *field]
        for case in MEMBERSHIP_CASES
        for field in FIELDS
    ]
    return json_runs + text_runs + warning_runs + dense_runs + dense_implicit + membership_runs


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv):
    """(exit code, sha256 of stdout, sha256 of stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = INPUTS / argv[1]
        if argv[1] in DENSE:
            path = Path(tmp) / argv[1]
            path.write_text(random_dense(DENSE[argv[1]], Random(1)).to_text(), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), *argv[2:]])
    return code, _sha256(out.getvalue()), _sha256(err.getvalue())


def _stored():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_argv():
    assert [entry["argv"] for entry in _stored()] == argvs()


@pytest.mark.parametrize("argv", argvs(), ids=" ".join)
def test_cli_output_is_unchanged(argv):
    entry = next(e for e in _stored() if e["argv"] == argv)
    expected = (entry["exit"], entry["stdout_sha256"], entry["stderr_sha256"])
    assert run(argv) == expected


if __name__ == "__main__":
    records = []
    for argv in argvs():
        code, out, err = run(argv)
        records.append(
            {"argv": argv, "exit": code, "stdout_sha256": out, "stderr_sha256": err}
        )
        print(code, out[:12], err[:12], " ".join(argv), file=sys.stderr)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
