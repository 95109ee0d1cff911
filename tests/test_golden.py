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
EQUATIONS = Path(__file__).resolve().parent / "equations"

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
# 6 of 9) of d2_example. Dense (3,3) at the image of (1,-1,2,1) (rank 35 of
# 36) and at an off point: one 36x63 block, the membership rank that takes
# exactla's packed elimination, and at the image point the Dixon lift after it.
# Lifted mixed23 at nu = 5, six 6x7 blocks equal up to row and column order:
# at the image of (s,u,t,v) = (2,1,3,1) (scaled by -1; corank 1 in each
# block), at the image of t = 0 (corank 2 in each) and at an off point.
MEMBERSHIP_CASES = [
    ("dense22.ex", "--saturate", "--point", "229,93,-507,398"),
    ("dense22.ex", "--saturate", "--point", "1,2,3,4"),
    ("dense33.ex", "--point", "17,-149,-215,64"),
    ("dense33.ex", "--point", "1,2,3,4"),
    ("d2_example.ex", "--saturate", "--point", "15,11,40,12"),
    ("d2_example.ex", "--saturate", "--point", "1,0,0,0"),
    ("mixed23.ex", "--nu", "5", "--point", "8,-56,-14,64"),
    ("mixed23.ex", "--nu", "5", "--point", "128,-128,-128,-128"),
    ("mixed23.ex", "--nu", "5", "--point", "1,2,3,4"),
]

# Lifted mixed23 at its default nu = 11: six 24x49 blocks, the only
# multi-block minors gcd outside nu = 5. Its `matrix` runs pin the syzygy
# basis merged from six characters at 24x49 blocks, not only at 6x7.
LIFTED_DEFAULT_CASES = [("mixed23.ex",)]

# Lifted mixed23 at nu = 6 and 7, where its six blocks fall into unequal
# classes (sizes 1, 1, 2, 2 and 4, 2): these pin the order of the classes
# in minors_gcd and membership, and the random lines each class draws; the
# info runs pin z1, z2 and z3, each a sum over the classes of its characters.
UNEQUAL_CLASS_RUNS = [
    ["implicit", "mixed23.ex", "--nu", "6", "--json"],
    ["implicit", "mixed23.ex", "--nu", "7", "--json"],
    ["info", "mixed23.ex", "--nu", "6", "--json"],
    ["info", "mixed23.ex", "--nu", "7", "--json"],
    ["membership", "mixed23.ex", "--nu", "6", "--point", "8,-56,-14,64", "--json"],
]

# The only sample inputs whose minors gcd has a residual factor: non_lci.ex
# (D = F*L, L with fractional coefficients once monic) and the cone
# (D = F^2*T4, a power above 1).
NON_LCI_CASES = [("non_lci.ex", "--saturate"), ("non_lci_cone.ex", "--saturate")]

# `info --saturate` on the inputs whose saturation index the other runs do
# not reach: both non-LCI inputs, common_factor.ex (exit 2), dense (3,3), and
# lifted mixed23, the only d = 6 saturation (about 1.5 s mod 32003, 2 s over
# QQ), whose kernels of I_(n+2d), 196x169 to 676x361, are none of full rank.
SATURATE_CASES = ["non_lci.ex", "non_lci_cone.ex", "common_factor.ex", "dense33.ex", "mixed23.ex"]

# four_points.ex, the one sample input whose saturation index (2) reads the
# nonzero entries of the kernel of I_(n+2d): its optimized nu0 = 1 gives the
# paper's square 4 x 4 M, with D = F.
FOUR_POINTS_COMMANDS = ("info", "matrix", "implicit")

# `verify` of each reference equation (copies of perfbench/refs, named
# relative to equations/) on d2_example (F of degree 7) and on unlifted
# mixed23 (mixed bidegree): VERIFIED on its own input, FAILED on the other.
VERIFY_CASES = [(source, equation) for source in ("d2_example.ex", "mixed23.ex")
                for equation in ("d2_example.txt", "mixed23.txt")]

# Primes below the row count of a block of M, so that a line over GF(p) has
# fewer points than a maximal minor's degree: d2_example and non_lci.ex have
# 9-row blocks (8 points on a line over GF(7)), non_lci.ex fits its residual
# on GF(7) lines, and segre.ex has a 4-row block (3 points over GF(2)).
SMALL_PRIME_CASES = [
    ["implicit", "d2_example.ex", "--saturate", "--json", "--mod", "7"],
    ["implicit", "non_lci.ex", "--saturate", "--json", "--mod", "7"],
    ["implicit", "segre.ex", "--json", "--mod", "2"],
]


def argvs():
    """Every golden argv; the input is named relative to inputs/, or is one
    of DENSE, and an equation relative to equations/. The text `matrix`
    runs pin the printed row basis, and common_factor.ex pins the input-gcd
    warning and its exit code 2."""
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
    lifted_default_runs = [
        [command, case[0], *case[1:], "--json", *field]
        for case in LIFTED_DEFAULT_CASES
        for command in ("implicit", "matrix")
        for field in FIELDS
    ]
    non_lci_runs = [
        ["implicit", case[0], *case[1:], "--json", *field]
        for case in NON_LCI_CASES
        for field in FIELDS
    ]
    saturate_runs = [
        ["info", case, "--saturate", "--json", *field] for case in SATURATE_CASES for field in FIELDS
    ]
    four_points_runs = [
        [command, "four_points.ex", "--saturate", "--json", *field]
        for command in FOUR_POINTS_COMMANDS
        for field in FIELDS
    ]
    verify_runs = [
        ["verify", source, "--equation", equation, *json_flag, *field]
        for source, equation in VERIFY_CASES
        for json_flag in ((), ("--json",))
        for field in FIELDS
    ]
    lift_runs = [["lift", "mixed23.ex"], ["lift", "mixed23.ex", "--json"]]
    unequal_class_runs = [[*argv, *field] for argv in UNEQUAL_CLASS_RUNS for field in FIELDS]
    return (json_runs + text_runs + warning_runs + dense_runs + dense_implicit + membership_runs
            + lifted_default_runs + non_lci_runs + saturate_runs + four_points_runs + verify_runs + lift_runs
            + SMALL_PRIME_CASES + unequal_class_runs)


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
        argv = [argv[0], str(path), *argv[2:]]
        if "--equation" in argv:
            at = argv.index("--equation") + 1
            argv[at] = str(EQUATIONS / argv[at])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
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
