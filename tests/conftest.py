from __future__ import annotations

from pathlib import Path

import pytest

from bisurf.biparam import parse_parametrization
from bisurf.matrixrep import implicit_by_interpolation
from bisurf.zcomplex import SegreIdeal

from helpers import monomial

INPUTS = Path(__file__).resolve().parent.parent / "inputs"


def read_input(name: str) -> str:
    return (INPUTS / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def inputs_dir() -> Path:
    return INPUTS


@pytest.fixture(scope="session")
def segre_param():
    return parse_parametrization(read_input("segre.ex"))


@pytest.fixture(scope="session")
def d2_param():
    return parse_parametrization(read_input("d2_example.ex"))


@pytest.fixture(scope="session")
def mixed_param():
    return parse_parametrization(read_input("mixed23.ex"))


@pytest.fixture(scope="session")
def identity_ideal():
    # (X1, X2, X3, X4) = (s*t, s*v, u*t, u*v)
    exps = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))
    return SegreIdeal([monomial(e, 1) for e in exps])


@pytest.fixture(scope="session")
def d2_ideal(d2_param):
    return SegreIdeal.from_parametrization(d2_param)


@pytest.fixture(scope="session")
def d2_equation(d2_param):
    # degree-7 irreducible equation of the bidegree (2,2) example; slow, so
    # computed once per session
    return implicit_by_interpolation(d2_param, 7)
