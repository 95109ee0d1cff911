"""The benchmark's reads of the package, run in the tier-1 suite.

perfbench/run.py and perfbench/checks.py are imported as they stand. The
traced run (`run.py --trace 1`) counts the blocks of M with
`run.count_blocks`, which reads `M.entries`, and every run checks the
columns of M with `checks.check_columns` on `M.to_json_dict()`. A change to
RepMatrix that breaks either read fails here, not only in the benchmark."""

import importlib.util
import sys
from pathlib import Path

import pytest

from bisurf.biparam import parse_parametrization
from bisurf.fields import PrimeField
from bisurf.matrixrep import _blocks, representation_matrix
from bisurf.zcomplex import SegreIdeal, working_strand

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("p", [0, 32003])
def test_benchmark_reads_the_matrix(run, inputs_dir, p):
    text = (inputs_dir / "d2_example.ex").read_text(encoding="utf-8")
    P = parse_parametrization(text, field_override=PrimeField(p) if p else None)
    I = SegreIdeal.from_parametrization(P)
    M = representation_matrix(I, working_strand(I, None, True)[0])
    assert run.count_blocks(M) == len(_blocks(M))
    bidegree, fs = run.checks.parse_input(text)
    fs_eq, (d, _) = run.checks.lift_affine(fs, bidegree)
    run.checks.check_columns(M.to_json_dict(), fs_eq, d, p)
