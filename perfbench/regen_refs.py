"""Regenerate the reference equations in refs/ from the program.

    python3 perfbench/regen_refs.py

Runs `bisurf implicit --json` over QQ on each sample input, takes the
implicit equation it prints, and writes it to refs/ only after the
benchmark's own substitution and irreducibility checks accept it. Every
benchmark run checks the stored references again in the same way, so they
stand as certificates, not as copies of one run's output.
"""

from __future__ import annotations

import json
import sys

from run import HERE, ROOT, WORKLOADS, run_cli, set_up

import checks

REFS = {
    "d2_example.txt": ["implicit", "inputs/d2_example.ex", "--saturate", "--json"],
    "mixed23.txt": ["implicit", "inputs/mixed23.ex", "--nu", "5", "--json"],
}


def main():
    sys.path.insert(0, str(ROOT / "src"))
    _, mods, _, _ = set_up(WORKLOADS["worked-example"])  # imports bisurf from ./src
    for name, argv in REFS.items():
        source = ROOT / argv[1]
        result = json.loads(run_cli(mods, [argv[0], str(source)] + argv[2:]))
        F = checks.parse_equation(result["implicit_equation"])
        bidegree, fs = checks.parse_input(source.read_text(encoding="utf-8"))
        checks.check_substitution(F, fs, bidegree)
        checks.check_irreducible(F)
        text = (f"# implicit equation of {argv[1]}, degree {checks.total_degree(F)}; "
                f"made by: bisurf {' '.join(argv)}\n{result['implicit_equation']}\n")
        (HERE / "refs" / name).write_text(text, encoding="utf-8")
        print(f"wrote refs/{name}: degree {checks.total_degree(F)}, {len(F)} terms")


if __name__ == "__main__":
    main()
