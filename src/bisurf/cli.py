"""Command-line front end.

Subcommands: info, matrix, membership, implicit, verify, lift. Exit status
is 0 on success, 1 on errors (parsing, validation, usage), and 2 when a
hypothesis-violation diagnostic fires (non-constant input gcd, nonzero Euler
characteristic at the working degree, minors gcd of the wrong degree,
rank-deficient matrix, implicit equation not dividing the minors gcd, failed
verification).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction

from ._expr import ParseError
from .biparam import (
    InputError,
    Parametrization,
    gcd_of_inputs,
    lift_mixed,
    parse_parametrization,
)
from .fields import PrimeField, is_prime
from .matrixrep import (
    InterpolationError,
    RankDeficientError,
    equation_report,
    membership,
    representation_matrix,
    verify_substitution,
)
from .tpoly import ExactDivisionError, parse_tpoly
from .zcomplex import SegreIdeal, StrandError, working_strand

OK, DIAGNOSTIC, ERROR = 0, 2, 1


def _build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="bisurf",
        description="Implicitize surfaces parametrized over P1 x P1 via linear syzygies.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, nu=True, seed=False, point=False, equation=False):
        """The input and the flags the subcommand reads; any other flag is
        a usage error."""
        p.add_argument("input", help="parametrization input file")
        if nu:  # nu is given, or lowered by the saturation index
            group = p.add_mutually_exclusive_group()
            group.add_argument(
                "--nu", type=int, default=None,
                help="override the working degree (its strand must have Euler characteristic 0)",
            )
            group.add_argument("--saturate", action="store_true",
                               help="lower nu via the saturation index")
        p.add_argument("--mod", type=int, default=None, metavar="P", help="work over GF(P)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="seed for all randomized internals")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if point:
            p.add_argument("--point", required=True, help="projective point a,b,c,d")
        if equation:
            p.add_argument("--equation", required=True, help="file with a polynomial in T1..T4")

    common(sub.add_parser("info", help="strand dimensions, Euler characteristic, degrees"))
    common(sub.add_parser("matrix", help="emit the representation matrix"))
    common(sub.add_parser("membership", help="point membership by rank drop"), point=True)
    common(sub.add_parser("implicit", help="implicit equation via gcd of minors"), seed=True)
    common(sub.add_parser("verify", help="check an equation vanishes on the input"),
           nu=False, equation=True)
    common(sub.add_parser("lift", help="rewrite mixed bidegree input to equal bidegree"), nu=False)
    return ap


def _load(args) -> Parametrization:
    with open(args.input, encoding="utf-8") as fh:
        text = fh.read()
    override = None
    if args.mod is not None:
        if not is_prime(args.mod):
            raise InputError(f"--mod {args.mod}: not a prime")
        override = PrimeField(args.mod)
    return parse_parametrization(text, field_override=override)


def _parse_point(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise InputError("--point needs four comma-separated rationals")
    try:
        return [Fraction(p.strip()) for p in parts]
    except (ValueError, ZeroDivisionError):
        raise InputError(f"--point {text}: each coordinate must be a rational") from None


def _hypothesis_warning(P: Parametrization) -> bool:
    """True when gcd(f1..f4) is non-constant: base locus not finite."""
    g = gcd_of_inputs(P)
    if len(g.terms) == 1 and g.bidegree == (0, 0):
        return False
    print(
        f"warning: gcd of the input polynomials is non-constant ({g}); "
        "the base locus is not finite and results are unguaranteed",
        file=sys.stderr,
    )
    return True


def _prepared(args):
    """Parse, warn about hypothesis violations, lift mixed bidegree."""
    P = _load(args)
    code = DIAGNOSTIC if _hypothesis_warning(P) else OK
    lifted = lift_mixed(P)
    if lifted is not P:
        print(
            f"note: lifted bidegree {P.bidegree} input to {lifted.bidegree}",
            file=sys.stderr,
        )
    return P, lifted, code


def _working(args):
    """_prepared, --point if the subcommand takes one, and the working strand
    of the lifted input: (P, I, nu, strand report, point, exit code)."""
    P, lifted, code = _prepared(args)
    point = _parse_point(args.point) if "point" in args else None
    I = SegreIdeal.from_parametrization(lifted)
    return (P, I, *working_strand(I, args.nu, args.saturate), point, code)


def cmd_info(args) -> int:
    P, _, _, rep, _, code = _working(args)
    if args.json:
        payload = rep.as_dict()
        payload["bidegree"] = list(P.bidegree)
        payload["field"] = P.field.name
        print(json.dumps(payload, indent=2))
    else:
        print(f"bidegree: {P.bidegree}  (working degree d = {rep.d})")
        print(f"nu: {rep.nu}   conservative nu0: {rep.nu_conservative}", end="")
        if rep.nu_optimized is not None:
            print(f"   optimized nu0: {rep.nu_optimized} (saturation indeg {rep.sat_indeg})")
        else:
            print()
        print(
            "dimensions: coefficients %d, syzygies %d, 2-cycles %d, 3-cycles %d"
            % (rep.dim_coefficients, rep.dim_syzygies, rep.dim_cycles2, rep.dim_cycles3)
        )
        print(f"euler characteristic: {rep.euler_char}")
        print(f"expected degree: {rep.expected_det_degree}")
        print(f"total base-point degree: {rep.base_points_degree}")
    return code


def cmd_matrix(args) -> int:
    _, I, nu, _, _, code = _working(args)
    M = representation_matrix(I, nu)
    if args.json:
        print(json.dumps(M.to_json_dict(), indent=2))
    else:
        print(f"representation matrix: nu={M.nu}, size {M.rows}x{M.cols}")
        print("row basis: " + ", ".join(M.basis.monomial_texts()))
        for row in M.entries:
            print(" | ".join(map(str, row)))
    return code


def cmd_membership(args) -> int:
    _, I, nu, _, point, code = _working(args)
    M = representation_matrix(I, nu)
    on_surface, r = membership(M, point)
    if args.json:
        print(
            json.dumps(
                {
                    "point": [str(x) for x in point],
                    "rank": r,
                    "k": M.rows,
                    "on_surface": on_surface,
                },
                indent=2,
            )
        )
    elif on_surface:
        print(f"ON (rank {r} < {M.rows})")
    else:
        print(f"OFF (rank {r} = k)")
    return code


def cmd_implicit(args) -> int:
    P, lifted, code = _prepared(args)
    try:
        rep = equation_report(P, nu=args.nu, saturate=args.saturate, seed=args.seed)
    except InterpolationError as exc:  # after the gcd warning, a hypothesis violation
        print(f"error: {exc}", file=sys.stderr)
        return code or ERROR
    if code:  # the base locus is not finite: a constant residual certifies nothing
        rep = replace(rep, lci=False)
    if args.json:
        print(json.dumps(rep.as_dict(), indent=2))
    else:
        print(rep.implicit_poly)
        print(f"minors gcd: {rep.minors_gcd_poly}")
        print(
            f"degree {rep.minors_gcd_poly.total_degree()} = "
            f"{rep.power} x {rep.implicit_poly.total_degree()} + residual degree "
            f"{rep.residual.total_degree()}"
        )
        print(f"power: {rep.power}")
        print(f"residual constant: {'yes' if rep.residual.is_constant() else 'no'}")
        print(f"verified by substitution: {'yes' if rep.substitution_ok else 'no'}")
    return code


def cmd_verify(args) -> int:
    P, _, code = _prepared(args)
    with open(args.equation, encoding="utf-8") as fh:
        eq = parse_tpoly(fh.read(), P.field)
    if eq.is_zero():
        raise InputError("the equation is the zero polynomial, which vanishes everywhere")
    ok = verify_substitution(eq, P)
    if args.json:
        print(json.dumps({"verified": ok}, indent=2))
    else:
        print("VERIFIED" if ok else "FAILED: the equation does not vanish on the image")
    if not ok:
        code = max(code, DIAGNOSTIC)
    return code


def cmd_lift(args) -> int:
    P = _load(args)
    lifted = lift_mixed(P)
    if args.json:
        print(
            json.dumps(
                {
                    "original_bidegree": list(P.bidegree),
                    "bidegree": list(lifted.bidegree),
                    "text": lifted.to_text(),
                },
                indent=2,
            )
        )
    else:
        sys.stdout.write(lifted.to_text())
    return OK


_HANDLERS = {
    "info": cmd_info,
    "matrix": cmd_matrix,
    "membership": cmd_membership,
    "implicit": cmd_implicit,
    "verify": cmd_verify,
    "lift": cmd_lift,
}


def main(argv=None) -> int:
    try:
        args = _build_arg_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error, which argparse exits 2 on
        return ERROR if exc.code else OK
    try:
        return _HANDLERS[args.command](args)
    except (ParseError, InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    except (RankDeficientError, StrandError, ExactDivisionError) as exc:
        print(f"diagnostic: {exc}", file=sys.stderr)
        return DIAGNOSTIC


if __name__ == "__main__":
    sys.exit(main())
