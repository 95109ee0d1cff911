import json
from pathlib import Path
from random import Random

import pytest

from bisurf import matrixrep
from bisurf.cli import main
from bisurf.fields import PrimeField
from bisurf.matrixrep import implicit_by_interpolation
from bisurf.tpoly import TPoly, parse_tpoly

from helpers import random_dense


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_saturate_d2(capsys, inputs_dir):
    code, out, _ = run(capsys, "info", str(inputs_dir / "d2_example.ex"), "--saturate")
    assert code == 0
    assert "optimized nu0: 2" in out
    assert "saturation indeg 1" in out
    assert "euler characteristic: 0" in out
    assert "expected degree: 7" in out


def test_info_json_round_trip(capsys, inputs_dir):
    code, text_out, _ = run(capsys, "info", str(inputs_dir / "segre.ex"))
    code2, json_out, _ = run(capsys, "info", str(inputs_dir / "segre.ex"), "--json")
    assert code == code2 == 0
    payload = json.loads(json_out)
    assert payload["expected_det_degree"] == 2
    assert f"expected degree: {payload['expected_det_degree']}" in text_out
    assert f"euler characteristic: {payload['euler_char']}" in text_out


def test_info_warns_on_common_factor(capsys, inputs_dir):
    code, out, err = run(capsys, "info", str(inputs_dir / "common_factor.ex"))
    assert code == 2
    assert "not finite" in err


def test_matrix_dimensions(capsys, inputs_dir):
    code, out, _ = run(
        capsys, "matrix", str(inputs_dir / "d2_example.ex"), "--saturate", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 9 and payload["cols"] == 12 and payload["nu"] == 2


def test_membership_output(capsys, inputs_dir):
    code, out, _ = run(
        capsys, "membership", str(inputs_dir / "segre.ex"), "--point", "1,1,1,2"
    )
    assert code == 0
    assert out.strip() == "OFF (rank 4 = k)"
    code, out, _ = run(
        capsys, "membership", str(inputs_dir / "segre.ex"), "--point", "1,1,1,1"
    )
    assert out.strip() == "ON (rank 3 < 4)"


def test_membership_rejects_zero_point(capsys, inputs_dir):
    code, _, err = run(
        capsys, "membership", str(inputs_dir / "segre.ex"), "--point", "0,0,0,0"
    )
    assert code == 1 and "projective" in err


def test_membership_rejects_a_zero_denominator(capsys, inputs_dir):
    # Fraction("1/0") raises ZeroDivisionError, which escaped as a traceback
    for point in ("1/0,1,1,1", "x,1,1,1", "1,1,1"):
        code, out, err = run(capsys, "membership", str(inputs_dir / "segre.ex"), "--point", point)
        assert code == 1 and out == ""
        assert err.startswith("error: --point") and "Traceback" not in err


def test_implicit_segre(capsys, inputs_dir):
    code, out, _ = run(capsys, "implicit", str(inputs_dir / "segre.ex"))
    assert code == 0
    assert out.splitlines()[0] == "T1*T4 - T2*T3"


def test_implicit_text_json_agree(capsys, inputs_dir):
    code, text_out, _ = run(capsys, "implicit", str(inputs_dir / "segre.ex"))
    code2, json_out, _ = run(capsys, "implicit", str(inputs_dir / "segre.ex"), "--json")
    assert code == code2 == 0
    payload = json.loads(json_out)
    assert parse_tpoly(payload["implicit_equation"]) == parse_tpoly(text_out.splitlines()[0])
    assert payload["power"] == 1 and payload["base_points_lci"] is True


def test_implicit_deterministic(capsys, inputs_dir):
    _, out1, _ = run(capsys, "implicit", str(inputs_dir / "segre.ex"), "--seed", "4")
    _, out2, _ = run(capsys, "implicit", str(inputs_dir / "segre.ex"), "--seed", "4")
    assert out1 == out2


def test_implicit_output_passes_verify(capsys, inputs_dir, tmp_path):
    _, out, _ = run(capsys, "implicit", str(inputs_dir / "segre.ex"))
    eq_file = tmp_path / "eq.txt"
    eq_file.write_text(out.splitlines()[0] + "\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "verify", str(inputs_dir / "segre.ex"), "--equation", str(eq_file)
    )
    assert code == 0
    assert out.strip() == "VERIFIED"


def test_verify_rejects_wrong_equation(capsys, inputs_dir, tmp_path):
    eq_file = tmp_path / "eq.txt"
    eq_file.write_text("T1\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "verify", str(inputs_dir / "segre.ex"), "--equation", str(eq_file)
    )
    assert code == 2
    assert "FAILED" in out


@pytest.mark.parametrize("mod", [(), ("--mod", "32003")], ids=["QQ", "GF(32003)"])
def test_verify_non_homogeneous_equations(capsys, inputs_dir, tmp_path, mod):
    # equations need not be homogeneous: F + T1*F vanishes on the image in
    # each of its two degrees, F + 1 in neither
    F = (Path(__file__).resolve().parent / "equations" / "mixed23.txt").read_text(encoding="utf-8")
    F = "".join(line for line in F.splitlines() if not line.startswith("#"))
    eq_file = tmp_path / "eq.txt"
    for text, code, verdict in ((f"{F} + T1*({F})", 0, "VERIFIED"), (f"{F} + 1", 2, "FAILED")):
        eq_file.write_text(text + "\n", encoding="utf-8")
        got, out, _ = run(capsys, "verify", str(inputs_dir / "mixed23.ex"),
                          "--equation", str(eq_file), *mod)
        assert (got, out.split(":")[0].strip()) == (code, verdict)


def test_verify_rejects_zero_equation(capsys, inputs_dir, tmp_path):
    # the zero polynomial vanishes everywhere, so it certifies nothing
    eq_file = tmp_path / "eq.txt"
    for text in ("0\n", "# no terms\n"):
        eq_file.write_text(text, encoding="utf-8")
        code, out, err = run(
            capsys, "verify", str(inputs_dir / "segre.ex"), "--equation", str(eq_file)
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "zero polynomial" in err


def test_lift_round_trips(capsys, inputs_dir, tmp_path):
    code, out, _ = run(capsys, "lift", str(inputs_dir / "mixed23.ex"))
    assert code == 0
    assert out.startswith("degree: 6 6")
    lifted = tmp_path / "lifted.ex"
    lifted.write_text(out, encoding="utf-8")
    code, out2, _ = run(capsys, "lift", str(lifted))
    assert code == 0 and out2 == out


def test_mod_option(capsys, inputs_dir):
    code, out, _ = run(
        capsys, "implicit", str(inputs_dir / "segre.ex"), "--mod", "101"
    )
    assert code == 0
    assert out.splitlines()[0] == "T1*T4 + 100*T2*T3"
    code, _, err = run(
        capsys, "implicit", str(inputs_dir / "segre.ex"), "--mod", "100"
    )
    assert code == 1 and "prime" in err


def test_unreadable_file(capsys, tmp_path):
    code, _, err = run(capsys, "info", str(tmp_path / "missing.ex"))
    assert code == 1


def test_usage_errors_exit_1(capsys, inputs_dir):
    # argparse's own exit status 2 would read as a diagnostic
    for argv in (("implicit", str(inputs_dir / "segre.ex"), "--strategy", "all"), ("implicit",)):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "usage:" in err


def test_nu_with_nonzero_euler_is_a_diagnostic(capsys, inputs_dir):
    # at nu=1 the d2_example matrix is 4x1, so every point would read ON
    d2 = str(inputs_dir / "d2_example.ex")
    for argv in (
        ("membership", d2, "--nu", "1", "--point", "1,2,3,4"),
        ("info", d2, "--nu", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "nu=1" in err and "Euler characteristic 3" in err


def test_info_rejects_negative_nu(capsys, inputs_dir):
    # info used to exit 0 with a base-point degree of 8 on d2_example at -1,
    # and exit 2 on segre at -5 from the Euler characteristic of (nu+1)^2
    # coefficients; matrix and membership already refused
    for name, nu in (("d2_example.ex", "-1"), ("segre.ex", "-5")):
        for command in ("info", "matrix"):
            code, out, err = run(capsys, command, str(inputs_dir / name), "--nu", nu)
            assert code == 1 and out == ""
            assert "negative degree" in err


def test_nu_and_saturate_are_a_usage_error(capsys, inputs_dir):
    # info used to take --nu, drop --saturate and exit 0 without an
    # "optimized nu0" line
    path = str(inputs_dir / "segre.ex")
    for command, extra in (("info", ()), ("matrix", ()), ("implicit", ()),
                           ("membership", ("--point", "1,1,1,1"))):
        for flags in (("--nu", "3", "--saturate"), ("--saturate", "--nu", "3")):
            code, out, err = run(capsys, command, path, *flags, *extra)
            assert code == 1 and out == ""
            assert "not allowed with argument" in err


def _commands(inputs_dir, tmp_path):
    """argv of each subcommand on segre.ex, with only its required flags."""
    path = str(inputs_dir / "segre.ex")
    eq_file = tmp_path / "eq.txt"
    eq_file.write_text("T1*T4 - T2*T3\n", encoding="utf-8")
    return {
        "info": ("info", path),
        "matrix": ("matrix", path),
        "membership": ("membership", path, "--point", "1,1,1,1"),
        "implicit": ("implicit", path),
        "verify": ("verify", path, "--equation", str(eq_file)),
        "lift": ("lift", path),
    }


def _rejected(capsys, argvs, flags):
    for argv in argvs:
        code, out, err = run(capsys, *argv, *flags)
        assert code == 1 and out == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in err


def test_seed_only_on_implicit(capsys, inputs_dir, tmp_path):
    # info --seed 3 and lift --seed 2 used to exit 0 with the seed ignored
    commands = _commands(inputs_dir, tmp_path)
    _rejected(capsys, [argv for name, argv in commands.items() if name != "implicit"],
              ("--seed", "3"))


def test_nu_not_on_verify_or_lift(capsys, inputs_dir, tmp_path):
    # verify ... --nu 7 and lift --nu 4 used to exit 0 with the degree ignored
    commands = _commands(inputs_dir, tmp_path)
    _rejected(capsys, [commands["verify"], commands["lift"]], ("--nu", "7"))


def test_saturate_not_on_verify_or_lift(capsys, inputs_dir, tmp_path):
    commands = _commands(inputs_dir, tmp_path)
    _rejected(capsys, [commands["verify"], commands["lift"]], ("--saturate",))


def test_commands_without_the_rejected_flags_succeed(capsys, inputs_dir, tmp_path):
    for argv in _commands(inputs_dir, tmp_path).values():
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and not err


def test_nu_below_conservative_degree_accepted(capsys, inputs_dir):
    # mixed23 lifts to bidegree (6,6): nu=5 is below 2d-1 = 11, but its strand is exact
    code, out, _ = run(capsys, "info", str(inputs_dir / "mixed23.ex"), "--nu", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["euler_char"] == 0 and payload["expected_det_degree"] == 30


def test_implicit_checks_degree_of_minors_gcd(capsys, inputs_dir):
    # the inputs share the factor s*t. A line on which the gcd of two
    # combinations of maximal minors has degree deg F = 2 certifies D = c*F,
    # which the strand expects; the sampled minors used to stop at degree 3
    # and exit 2. The warning keeps the exit code 2, and with a base locus
    # that is not finite no base point is certified LCI.
    common = str(inputs_dir / "common_factor.ex")
    code, out, err = run(capsys, "implicit", common, "--json")
    assert code == 2 and "not finite" in err
    payload = json.loads(out)
    assert payload["minors_gcd"] == payload["implicit_equation"] == "T1*T4 - T2*T3"
    assert payload["minors_gcd_degree"] == 2 and payload["power"] == 1
    assert payload["residual"] == "1" and payload["base_points_lci"] is False
    code, out, err = run(capsys, "implicit", common)
    assert code == 2 and "not finite" in err
    assert "residual constant: yes" in out


def test_implicit_d2_default_nu(capsys, inputs_dir):
    # at nu=3 about 85% of the 16-column minors vanish; the gcd of the drawn
    # minors used to stop at degree 12 and exit 2
    d2 = str(inputs_dir / "d2_example.ex")
    code, out, _ = run(capsys, "implicit", d2, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["nu"] == 3 and payload["minors_gcd_degree"] == 7
    code, out, _ = run(capsys, "implicit", d2, "--saturate", "--json")
    assert code == 0
    assert payload["implicit_equation"] == json.loads(out)["implicit_equation"]


def test_implicit_equation_not_dividing_minors_gcd(capsys, inputs_dir, monkeypatch):
    monkeypatch.setattr(matrixrep, "implicit_by_interpolation", lambda P, degree: parse_tpoly("T1"))
    code, out, err = run(capsys, "implicit", str(inputs_dir / "segre.ex"))
    assert code == 2 and out == ""
    assert "diagnostic: the implicit equation does not divide the minors gcd" in err


def _reduced(F, p):
    field = PrimeField(p)
    return TPoly({e: field.coerce(c) for e, c in F.terms.items()}, field)


def test_implicit_small_primes(capsys, inputs_dir, segre_param, d2_equation):
    # the oracle used to sample 2*C(deg+3,3) affine points out of p^2 and
    # exit 1 with "could not sample enough surface points"
    cases = (
        (("d2_example.ex", "--mod", "7", "--saturate"), d2_equation, 7),
        (("segre.ex", "--mod", "2"), implicit_by_interpolation(segre_param, 2), 2),
    )
    for (name, *flags), F, p in cases:
        code, out, _ = run(capsys, "implicit", str(inputs_dir / name), *flags, "--json")
        assert code == 0
        payload = json.loads(out)
        assert parse_tpoly(payload["implicit_equation"], PrimeField(p)) == _reduced(F, p)
        assert payload["substitution_ok"] is True


def test_implicit_mod_p_image_not_a_surface(capsys, inputs_dir):
    # mod 2 the coordinates of mixed23 share a factor; three independent
    # linear forms vanish on the image. The shared factor is the gcd
    # warning's hypothesis violation, so the exit code is 2
    code, out, err = run(
        capsys, "implicit", str(inputs_dir / "mixed23.ex"), "--nu", "5", "--mod", "2"
    )
    assert code == 2 and out == ""
    assert "error:" in err and "degree 1" in err and "dimension 3" in err


def test_oracle_error_exits_2_only_after_the_gcd_warning(capsys, inputs_dir, tmp_path):
    # implicit mixed23.ex --mod 2 used to print the warning and then exit 1
    # from the oracle's error, with or without --saturate; both messages
    # stay on stderr. s*t, s*t, u*v, u*v share no factor, so the same error
    # over QQ (a curve: a kernel of dimension 2 in degree 1) still exits 1
    mixed = str(inputs_dir / "mixed23.ex")
    for flags in ((), ("--saturate",)):
        code, out, err = run(capsys, "implicit", mixed, "--mod", "2", *flags)
        assert code == 2 and out == "", flags
        assert "warning:" in err and "not finite" in err
        assert "error:" in err and "dimension 3 over GF(2)" in err
    curve = tmp_path / "curve.ex"
    curve.write_text("degree: 1 1\nf1: s*t\nf2: s*t\nf3: u*v\nf4: u*v\n", encoding="utf-8")
    code, out, err = run(capsys, "implicit", str(curve))
    assert code == 1 and out == ""
    assert "warning" not in err and "error:" in err and "dimension 2 over QQ" in err


def test_implicit_dense_22_mod_p(capsys, tmp_path):
    # one 16 x 28 block with deg D = 8; the sampled minors took more than
    # 27 s here
    path = tmp_path / "dense22.ex"
    path.write_text(random_dense(2, Random(1)).to_text(), encoding="utf-8")
    code, out, _ = run(capsys, "implicit", str(path), "--mod", "32003", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["minors_gcd_degree"] == 8 and payload["power"] == 1
    assert payload["minors_gcd"] == payload["implicit_equation"]
