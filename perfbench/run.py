"""Benchmark of the bisurf implicitization pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from ./src
and the sample inputs are read from ./inputs. A run sets the workload up
several times (import plus input parsing), runs its operations, checks every
output with the benchmark's own arithmetic (checks.py), and prints one JSON
object as the last line of standard output.

With --trace 0 it reports the end-to-end metrics: the one-time stages run
with light passes on a timer inside them, more light passes follow until S
seconds have passed and every light stage has a sample, and times are scaled
to the machine's faster speed by a calibration kernel timed in every light
pass (see Run.value). With --trace 1 each repetition runs
a fixed round plain and then traced, until S seconds have passed; it reports
per-layer self times and exact counts of the traced round and the traced
minus plain wall time. Details of every run, failed checks included, go to
perfbench/out/. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

PRIME = 32003
# the calibration kernel's time in a tight loop at the faster of this
# machine's two speeds; end-to-end times are scaled to it (see calibrate)
CALIBRATION_S = 0.014
SETUP_REPS = 4  # set-ups at the start of a run, and again at its end
DENSE_SEEDS = {2: 1, 3: 1}


@dataclass(frozen=True)
class Case:
    """One input of a workload and the operations run on it.

    Stages listed in `once` run one time per run; the others are light and
    run in every light pass.
    """

    name: str
    source: str  # a file under inputs/, or "dense:<d>"
    mod: int | None = None
    nu: int | None = None  # explicit working degree; else choose_nu
    saturate: bool = False
    info: bool = False  # choose_nu / strand_report
    matrix: bool = False  # representation_matrix
    queries: int = 0  # membership points on the surface, and as many off it
    implicit: bool = False  # `bisurf implicit --json` through cli.main
    once: tuple = ()
    interleave: bool = False  # run between every two other cases of a pass
    degree: int | None = None  # deg D expected from the strand bookkeeping
    power: int | None = None  # D = c * F^power
    ref: str | None = None  # reference equation under refs/

    @property
    def dense(self):
        return self.source.startswith("dense:")


D2 = dict(source="inputs/d2_example.ex", saturate=True, degree=7, power=1, ref="d2_example.txt")
MIXED = dict(source="inputs/mixed23.ex", nu=5, degree=30, power=6, ref="mixed23.txt")
QUERY_STAGES = dict(info=True, matrix=True)

WORKLOADS = {
    "worked-example": [
        Case("d2_example", **D2, **QUERY_STAGES, queries=40, implicit=True, once=("implicit",)),
    ],
    "lifted-mixed": [
        Case("mixed23", **MIXED, **QUERY_STAGES, queries=10, implicit=True, once=("implicit",)),
    ],
    "queries": [
        Case("d2_example", **D2, **QUERY_STAGES, queries=20),
        Case("mixed23", **MIXED, **QUERY_STAGES, queries=10),
        Case("dense22", "dense:2", saturate=True, degree=8, **QUERY_STAGES, queries=10),
        Case("dense33", "dense:3", saturate=True, degree=18, **QUERY_STAGES, queries=12,
             once=("info", "matrix", "queries")),
        # the pipeline's fixed cost: parsing, argparse and JSON around the
        # 4-row matrix of the standard embedding; one run takes milliseconds,
        # so it runs between the other inputs and its samples spread over
        # the whole pass
        Case("segre", "inputs/segre.ex", degree=2, power=1, implicit=True, interleave=True),
    ],
    "modp": [
        Case("d2_example", **D2, mod=PRIME, **QUERY_STAGES, queries=40, implicit=True,
             once=("implicit",)),
        Case("mixed23", **MIXED, mod=PRIME, **QUERY_STAGES, queries=10, implicit=True,
             once=("implicit",)),
    ],
}


def dense_text(d):
    """Bidegree (d,d) input with every coefficient a nonzero integer in
    [-9, 9], drawn from Random(DENSE_SEEDS[d]) f1 first, s-degree outer."""
    rng = random.Random(DENSE_SEEDS[d])
    lines = [f"degree: {d} {d}"]
    for k in range(1, 5):
        terms = []
        for i in range(d + 1):
            for j in range(d + 1):
                c = 0
                while c == 0:
                    c = rng.randint(-9, 9)
                terms.append(f"({c})*s^{i}*u^{d - i}*t^{j}*v^{d - j}")
        lines.append(f"f{k}: " + " + ".join(terms))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# set-up: import the package, parse or generate the inputs

def set_up(cases):
    for name in [n for n in sys.modules if n == "bisurf" or n.startswith("bisurf.")]:
        del sys.modules[name]
    start = time.perf_counter()
    mods = argparse.Namespace(
        **{m: importlib.import_module(f"bisurf.{m}")
           for m in ("biparam", "cli", "fields", "matrixrep", "zcomplex")}
    )
    texts, ideals = [], []
    for case in cases:
        if case.dense:
            text = dense_text(int(case.source.split(":")[1]))
        else:
            text = (ROOT / case.source).read_text(encoding="utf-8")
        field = mods.fields.PrimeField(case.mod) if case.mod else None
        P = mods.biparam.parse_parametrization(text, field_override=field)
        texts.append(text)
        ideals.append(mods.zcomplex.SegreIdeal.from_parametrization(mods.biparam.lift_mixed(P)))
    elapsed = time.perf_counter() - start
    src = (ROOT / "src").resolve()
    if src not in Path(mods.cli.__file__).resolve().parents:
        raise RuntimeError(f"bisurf was imported from {mods.cli.__file__}, not from {src}")
    return elapsed, mods, texts, ideals


class Inputs:
    """The benchmark's own view of a case: parsed input, reference equation,
    membership points drawn from the seed."""

    def __init__(self, case, text, seed):
        self.bidegree, self.fs = checks.parse_input(text)
        self.fs_eq, (self.d, _) = checks.lift_affine(self.fs, self.bidegree)
        self.ref = None
        if case.ref:
            self.ref = checks.parse_equation((HERE / "refs" / case.ref).read_text("utf-8"))
        rng = random.Random(f"{case.name}:{case.mod}:{seed}")
        self.points = []  # (point, expected ON/OFF or None)
        p = case.mod
        ref = self.ref if self.ref is None or not p else checks.reduce_mod(self.ref, p)
        while len(self.points) < case.queries:
            s, t = rng.randint(-12, 12), rng.randint(-12, 12)
            image = [checks.evaluate(f, (s, t), p) for f in self.fs]
            if any(image):
                self.points.append((image, True))
        while len(self.points) < 2 * case.queries:
            pt = [rng.randint(-40, 40) for _ in range(4)]
            if p:
                pt = [x % p for x in pt]
            if not any(pt):
                continue
            if ref is None:
                self.points.append((pt, None))
            elif checks.evaluate(ref, pt, p):
                self.points.append((pt, False))


# ---------------------------------------------------------------------------
# passes over the inputs

class Ops:
    """Counts operations attempted and failed; keeps the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # an operation that raises is counted, not fatal
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None


def implicit_argv(case):
    argv = ["implicit", str(ROOT / case.source), "--json"]
    if case.nu is not None:
        argv += ["--nu", str(case.nu)]
    if case.saturate:
        argv.append("--saturate")
    if case.mod:
        argv += ["--mod", str(case.mod)]
    return argv


def run_cli(mods, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"bisurf {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def info(mods, case, ideal):
    if case.nu is None:
        return mods.zcomplex.choose_nu(ideal, case.saturate)[1]
    return mods.zcomplex.strand_report(ideal, case.nu)


_CAL = random.Random(7)
CAL_MATRIX = [[_CAL.randint(-99, 99) for _ in range(36)] for _ in range(36)]
CAL_POLY = {tuple(_CAL.randint(0, 3) for _ in range(4)):
            Fraction(_CAL.randint(-9, 9), _CAL.randint(1, 9)) for _ in range(12)}


def calibrate():
    """Seconds the benchmark's own exact arithmetic takes on a fixed input:
    the rank of a 36x36 integer matrix whose last row repeats the first (so
    both the modular screen and the fraction-free elimination run), and the
    cube of a rational polynomial. It shares no code with bisurf, so only
    the machine's speed moves it."""
    start = time.perf_counter()
    checks.rank([row[:] for row in CAL_MATRIX[:-1]] + [CAL_MATRIX[0]])
    checks.poly_pow(CAL_POLY, 3)
    return time.perf_counter() - start


STAGES = ("info", "matrix", "queries", "implicit")
# inside the one-time stages a timer calibrates every quarter second, and runs
# a light pass one second after they start and then six times the last pass
# later, so passes add at most a sixth to the run
PROBE_S = 0.25
TIMER_FIRST_S = 1.0
TIMER_RATIO = 6


class Run:
    """Samples of every (case, stage) and the first output of each."""

    def __init__(self, mods, cases, ideals, inputs):
        self.mods, self.cases, self.ideals, self.inputs = mods, cases, ideals, inputs
        self.ops = Ops()
        # (case, stage) -> [(seconds, calibration of its light pass or None)]
        self.samples = {}
        self.outputs = [{} for _ in cases]
        self.interrupted_s = 0.0  # timer work done inside one-time stages
        self.calibration = []  # light passes: mean calibration around each input
        self.probes = []  # calibrations taken by the timer

    def one_pass(self, light=True):
        """Run every light stage, or every one-time stage, of every case. A
        stage whose input (nu, M) is not built yet is left out of the pass."""
        mods, ops = self.mods, self.ops
        mark = calibrate() if light else None
        taken = []
        between = [k for k, case in enumerate(self.cases) if case.interleave]
        order = []
        for k, case in enumerate(self.cases):
            if not case.interleave:
                order += between + [k]
        sequence = order + between
        for i, k in enumerate(sequence):
            case, ideal, inp, out = self.cases[k], self.ideals[k], self.inputs[k], self.outputs[k]
            for stage in STAGES:
                if not getattr(case, stage) or (stage not in case.once) != light:
                    continue
                nu = out["info"].nu if out.get("info") else case.nu
                if (stage == "matrix" and nu is None) or (
                        stage == "queries" and out.get("matrix") is None):
                    continue
                interrupted, probed = self.interrupted_s, len(self.probes)
                start = time.perf_counter()
                if stage == "info":
                    result = ops.run(info, mods, case, ideal)
                elif stage == "matrix":
                    result = ops.run(mods.matrixrep.representation_matrix, ideal, nu)
                elif stage == "queries":
                    result = [ops.run(mods.matrixrep.membership, out["matrix"], pt)
                              for pt, _ in inp.points]
                else:
                    result = ops.run(run_cli, mods, implicit_argv(case))
                spent = time.perf_counter() - start - (self.interrupted_s - interrupted)
                during = self.probes[probed:]
                taken.append(((case.name, stage), spent,
                              statistics.fmean(during) if during else None))
                out.setdefault(stage, result)
            # in a light pass, calibrate after each input: its samples are
            # scaled by the calibrations just before and after them
            if light and (not case.interleave or i == len(sequence) - 1):
                end = calibrate()
                cal = (mark + end) / 2
                self.calibration.append(cal)
                for key, spent, _ in taken:
                    self.samples.setdefault(key, []).append((spent, cal))
                taken, mark = [], end
        for key, spent, cal in taken:
            self.samples.setdefault(key, []).append((spent, cal))

    @contextlib.contextmanager
    def light_timer(self):
        """Calibrations and light passes on a wall-clock timer while the
        block runs; their time goes to interrupted_s, which the interrupted
        stage subtracts. The handler runs in this thread, between two
        bytecodes of the interrupted stage, and re-arms the timer only when
        its work is done."""
        next_pass = time.perf_counter() + TIMER_FIRST_S

        def on_alarm(signum, frame):
            nonlocal next_pass
            start = time.perf_counter()
            self.probes.append(calibrate())
            if start >= next_pass:
                self.one_pass()
                next_pass = time.perf_counter() + TIMER_RATIO * (time.perf_counter() - start)
            self.interrupted_s += time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, PROBE_S)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def unsampled(self):
        """Light stages without a sample yet."""
        return [(case.name, stage) for case in self.cases for stage in STAGES
                if getattr(case, stage) and stage not in case.once
                and (case.name, stage) not in self.samples]

    def round(self):
        """A fixed sequence for traced runs: the one-time stages, then one
        light pass."""
        self.one_pass(light=False)
        self.one_pass()

    def value(self, stage, scaled=True):
        """Sum over cases: a one-time stage's mean, a light stage's median
        over the passes; with each sample scaled by the calibrations taken
        during it (one-time) or around it (light)."""
        fallback = statistics.fmean(self.calibration + self.probes)
        total = 0.0
        for case in self.cases:
            samples = self.samples.get((case.name, stage))
            if not samples:
                continue
            scaled_samples = [s * CALIBRATION_S / (c or fallback) if scaled else s
                              for s, c in samples]
            total += (statistics.fmean if stage in case.once else statistics.median)(
                scaled_samples)
        return total


# ---------------------------------------------------------------------------
# checks of the first output of every stage

def check_case(case, inp, out, problems):
    p = case.mod

    def attempt(what, fn, *args):
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            problems.append(f"{case.name}: {what}: {exc}")

    ref = inp.ref
    if ref is not None and not p:
        attempt("reference substitution", checks.check_substitution, ref, inp.fs, inp.bidegree)
        attempt("reference irreducible", checks.check_irreducible, ref)
    rep = out.get("info")
    if rep is not None:
        attempt("strand", checks.check_strand, rep.as_dict(), case.degree, case.dense)
    M = out.get("matrix")
    if M is not None:
        attempt("columns", checks.check_columns, M.to_json_dict(), inp.fs_eq, inp.d, p)
    if out.get("queries") is not None and M is not None:
        Mj = M.to_json_dict()
        for (pt, expect), answer in zip(inp.points, out["queries"]):
            if answer is None:
                continue
            own = None
            if expect is None:
                own = checks.rank(checks.evaluate_matrix(Mj, pt, p), p)
            attempt(f"membership at {pt}", checks.check_membership,
                    answer[0], answer[1], M.rows, expect, own)
    if out.get("implicit") is not None:
        attempt("implicit", check_implicit, case, inp, json.loads(out["implicit"]))


def check_implicit(case, inp, result):
    p = case.mod
    checks.require(result["substitution_ok"] is True, "program's own substitution failed")
    checks.require(result["base_points_lci"] is True, "residual is not constant")
    checks.require(result["power"] == case.power,
                   f"power {result['power']}, expected {case.power}")
    # equation_report does not compare deg D with the strand bookkeeping
    checks.require(result["minors_gcd_degree"] == case.degree,
                   f"deg D = {result['minors_gcd_degree']}, strand says {case.degree}")
    F = checks.parse_poly(result["implicit_equation"], checks.T_VARS)
    D = checks.parse_poly(result["minors_gcd"], checks.T_VARS)
    checks.check_substitution(F, inp.fs, inp.bidegree, p)
    if inp.ref is not None:
        checks.require(checks.proportional(checks.reduce_mod(F, p) if p else F,
                                           checks.reduce_mod(inp.ref, p) if p else inp.ref, p),
                       "equation differs from the reference" + (f" mod {p}" if p else ""))
        F = inp.ref
    elif not p:
        checks.check_irreducible(F)
    checks.check_power(D, F, case.power, p)


# ---------------------------------------------------------------------------
# per-layer metrics from the tracer

def count_blocks(M):
    """Connected components of the support graph of M (rows and columns)."""
    parent = list(range(M.rows + M.cols))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, row in enumerate(M.entries):
        for j, entry in enumerate(row):
            if not entry.is_zero():
                parent[find(M.rows + j)] = find(i)
    return len({find(i) for i in range(M.rows)})


def _bump(counts, key, n=1):
    counts[key] = counts.get(key, 0) + n


HOOKS = {
    "exactla.rref": lambda c, a, r: _bump(c, "exactla.rref_cells", a[0].rows * a[0].cols),
    "tpoly.divides": lambda c, a, r: _bump(c, "tpoly.divides_true", 1 if r else 0),
    "matrixrep.minors_gcd": lambda c, a, r: _bump(c, "matrixrep.blocks", count_blocks(a[0])),
    "matrixrep.implicit_by_interpolation":
        lambda c, a, r: _bump(c, "matrixrep.interpolation_degrees", r.total_degree()),
}

SELF_TIMES = (
    "zcomplex.saturation_indeg", "zcomplex.strand_report", "zcomplex.koszul_matrix",
    "zcomplex.linear_syzygies", "exactla.rref", "exactla.nullspace", "exactla.rank",
    "tpoly.polydet", "tpoly.mvgcd", "tpoly.exact_div", "matrixrep.minors_gcd",
    "matrixrep.implicit_by_interpolation", "matrixrep.verify_substitution",
    "matrixrep.lci_diagnostic", "matrixrep.representation_matrix", "matrixrep.membership",
    "biparam.parse_parametrization", "biparam.lift_mixed", "segre.to_segre", "cli.main",
)
CALLS = ("exactla.rref", "exactla.rank", "tpoly.polydet", "tpoly.mvgcd", "tpoly.divides",
         "tpoly.exact_div")
COUNTS = ("exactla.rref_cells", "tpoly.divides_true", "matrixrep.blocks",
          "matrixrep.interpolation_degrees")


def layer_metrics(tracer):
    out = {}
    for name in SELF_TIMES:
        out[f"{name}_s"] = (tracer.spans.get(name, [0, 0.0, 0.0])[2], "s")
    for name in CALLS:
        out[f"{name}_calls"] = (tracer.spans.get(name, [0])[0], "count")
    for name in COUNTS:
        out[name] = (tracer.counts.get(name, 0), "count")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    cases = WORKLOADS[args.workload]

    setup_times, calibration = [], []
    for _ in range(SETUP_REPS):
        elapsed, mods, texts, ideals = set_up(cases)
        setup_times.append(elapsed)
        calibration.append(calibrate())
    inputs = [Inputs(case, text, args.seed) for case, text in zip(cases, texts)]
    run = Run(mods, cases, ideals, inputs)

    traced, overheads = [], []
    phases = {"setup_s": sum(setup_times)}
    start_stages = time.perf_counter()
    if args.trace:
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds:
            t0 = time.perf_counter()
            run.round()
            plain = time.perf_counter() - t0
            tracer = Tracer(HOOKS)
            tracer.install()
            try:
                t0 = time.perf_counter()
                run.round()
                overheads.append(time.perf_counter() - t0 - plain)
            finally:
                tracer.uninstall()
            traced.append(tracer)
    else:
        # light stages take milliseconds to a second, shorter than the phases
        # in which the speed of a shared machine swings, so their passes are
        # spread through the one-time stages
        start = time.perf_counter()
        with run.light_timer():
            run.one_pass(light=False)
        while time.perf_counter() - start < args.seconds:
            run.one_pass()
        if run.unsampled():
            run.one_pass()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for _ in range(SETUP_REPS):
            setup_times.append(set_up(cases)[0])
            calibration.append(calibrate())

    phases["stages_s"] = time.perf_counter() - start_stages
    start_checks = time.perf_counter()
    problems = []
    for case, inp, out in zip(cases, inputs, run.outputs):
        check_case(case, inp, out, problems)
    phases["checks_s"] = time.perf_counter() - start_checks

    if args.trace:
        per_round = [layer_metrics(t) for t in traced]
        counts = [{k: v for k, v in r.items() if v[1] == "count"} for r in per_round]
        if any(c != counts[0] for c in counts):
            problems.append("per-layer counts differ between traced rounds")
        metrics = {k: (statistics.median(r[k][0] for r in per_round), u)
                   for k, (_, u) in per_round[0].items()}
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    else:
        # times at the machine's faster speed: scaled by how much slower the
        # calibration kernel ran than at that speed, in the same light pass
        # for light stages, over the run for one-time stages, and right after
        # each set-up for set-up
        setup = [t * CALIBRATION_S / c for t, c in zip(setup_times, calibration)]
        points = sum(len(inp.points) for inp in inputs)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "implicit_s": (run.value("implicit"), "s"),
            "info_s": (run.value("info"), "s"),
            "matrix_s": (run.value("matrix"), "s"),
            "membership_qps": (points / run.value("queries"), "queries/s"),
        }
        unscaled = {
            "setup_s": statistics.median(setup_times),
            "implicit_s": run.value("implicit", scaled=False),
            "info_s": run.value("info", scaled=False),
            "matrix_s": run.value("matrix", scaled=False),
            "membership_qps": points / run.value("queries", scaled=False),
        }
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    ops = run.ops
    result = {
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, problems=problems,
                  errors=ops.errors[:20], setup_times=setup_times, phases=phases,
                  calibration=run.calibration, setup_calibration=calibration,
                  samples={f"{c}.{s}": [t for t, _ in v] for (c, s), v in run.samples.items()})
    if not args.trace:
        detail.update(unscaled=unscaled)
    if args.trace:
        t = traced[0]
        detail["spans"] = {k: dict(zip(("calls", "total_s", "self_s"), v))
                           for k, v in sorted(t.spans.items())}
        detail["edges"] = [dict(caller=a, callee=b, calls=v[0], total_s=v[1])
                           for (a, b), v in sorted(t.edges.items())]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for error in ops.errors[:5]:
        print(f"operation failed: {error}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
