"""Paired benchmark runs of a base revision against the working tree.

    python3 tools/bench_pairs.py --base HEAD~1 --out BENCH_<n>.json

For every workload of BENCHMARK.json it runs perfbench/run.py for seeds
1..10 on each side, for the benchmark's run_seconds, one process at a time,
alternating which side goes first from one pair to the next. The base side
is the committed tree of --base, extracted with `git archive` into a
temporary directory; the change side is the working tree as it stands. It
writes one JSON file: both revisions, the non-blank line count of
src/bisurf on each side (set-up compiles that source, so `setup_s` moves
with it), a digest of the working tree's uncommitted changes, a machine
note, the seeds, and per workload and metric
the values, medians and quartiles of both sides and the number of pairs the
change won. When a run fails, the pairs finished so far are written, with
the failure under "incomplete", and the error is raised. Standard library
only; run it from anywhere inside the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path


def git(root, *args, binary=False):
    out = subprocess.run(["git", "-C", str(root), *args], check=True, capture_output=True).stdout
    return out if binary else out.decode().strip()


def extract(root, rev, dest):
    """The committed files of rev, unpacked under dest."""
    archive = git(root, "archive", "--format=tar", rev, binary=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def uncommitted_sha256(root):
    """sha256 over the diff against HEAD and the paths and contents of the
    untracked files git does not ignore; None for a clean tree."""
    h = hashlib.sha256()
    diff = git(root, "diff", "HEAD", "--binary", binary=True)
    h.update(diff)
    untracked = git(root, "ls-files", "-z", "--others", "--exclude-standard", binary=True)
    for path in sorted(filter(None, untracked.split(b"\0"))):
        h.update(b"\0" + path + b"\0")
        h.update((root / path.decode()).read_bytes())
    return h.hexdigest() if diff or untracked else None


def source_lines(tree):
    """Non-blank lines of the Python files under tree/src/bisurf."""
    return sum(1 for path in sorted(Path(tree, "src", "bisurf").rglob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def machine_note(extra):
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "note": extra,
    }


def run_once(tree, workload, seed, seconds):
    """The result line of one perfbench run in tree, plus its wall time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        code = proc.returncode
        how = f"was killed by {signal.Signals(-code).name}" if code < 0 else f"exited {code}"
        raise RuntimeError(f"{' '.join(cmd)} in {tree} {how}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(metric, base, change):
    """Medians, quartiles, pairs won and a verdict for one metric.

    "better": the change won at least nine tenths of the pairs, and the
    medians differ by more than the base's interquartile range;
    "unresolved": either side's interquartile range, relative to its median,
    exceeds the bound; "worse": the change's median is worse by more than the
    bound; else "within bound".
    """
    sign = 1 if metric["better"] == "lower" else -1
    b, c = summary(base), summary(change)
    won = sum(sign * (x - y) > 0 for x, y in zip(base, change))
    gain = sign * (b["median"] - c["median"])  # > 0 when the change is better
    rel = (c["median"] - b["median"]) / b["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (b, c))
    if won >= 0.9 * len(base) and gain > b["q3"] - b["q1"]:
        verdict = "better"
    elif spread > metric["bound"]:
        verdict = "unresolved"
    elif -gain > metric["bound"] * b["median"]:
        verdict = "worse"
    else:
        verdict = "within bound"
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "base": b, "change": c, "pairs": len(base), "pairs_won": won,
            "median_change_rel": rel, "spread_rel": spread, "verdict": verdict}


def workload_entry(runs, metrics):
    """Totals and per-metric comparisons over the pairs both sides finished;
    a comparison needs at least two pairs."""
    n = min(len(rs) for rs in runs.values())
    runs = {side: rs[:n] for side, rs in runs.items()}
    entry = {side: {"correct": all(r["correct"] for r in rs),
                    "attempted": sum(r["attempted"] for r in rs),
                    "failed": sum(r["failed"] for r in rs),
                    "wall_s": sum(r["wall_s"] for r in rs)} for side, rs in runs.items()}
    if n >= 2:
        entry["metrics"] = {
            m["name"]: compare(m, [r["metrics"][m["name"]]["value"] for r in runs["base"]],
                               [r["metrics"][m["name"]]["value"] for r in runs["change"]])
            for m in metrics
        }
    return entry


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD~1", help="git revision to compare against")
    ap.add_argument("--note", default="", help="free text for the machine note")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, 11))
    report = {
        "base": {"revision": git(root, "rev-parse", args.base)},
        "change": {"revision": git(root, "rev-parse", "HEAD"),
                   "uncommitted_sha256": uncommitted_sha256(root)},
        "machine": machine_note(args.note),
        "command": spec["command"] + ["--workload", "W", "--seed", "S", "--seconds", str(seconds)],
        "seconds": seconds,
        "seeds": seeds,
        "order": "pair k runs the base first when k is even, the change first when k is odd",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_tree:
        extract(root, args.base, base_tree)
        trees = {"base": base_tree, "change": str(root)}
        for side, tree in trees.items():
            report[side]["src_nonblank_lines"] = source_lines(tree)
        for workload in workloads:
            runs = {"base": [], "change": []}
            try:
                for k, seed in enumerate(seeds):
                    for side in ("base", "change") if k % 2 == 0 else ("change", "base"):
                        result = run_once(trees[side], workload, seed, seconds)
                        runs[side].append(result)
                        print(f"{workload} seed {seed} {side}: "
                              + ", ".join(f"{m}={v['value']:.4g}"
                                          for m, v in result["metrics"].items()),
                              file=sys.stderr)
            except RuntimeError as exc:
                report["incomplete"] = f"{workload} seed {seed} {side}: {exc}"
                raise
            finally:
                report["workloads"][workload] = workload_entry(runs, spec["end_to_end"])
                Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:15} {name:15} {m['base']['median']:10.4g} -> {m['change']['median']:10.4g}"
                  f"  won {m['pairs_won']}/{m['pairs']}  {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
