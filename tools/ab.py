"""Paired A/B benchmark runs of the working tree against a base revision.

    python3 tools/ab.py --out BENCH_<n>.json [--base HEAD]

The change is the checkout this file sits in, as it stands on disk; the
base is a git revision (default HEAD, so run this before committing, or pass
--base HEAD~1 after). The tool

1. exports the base into a temporary directory with `git archive` (removed
   at exit, and no worktree entry is left in .git if the run is cut short);
2. writes the golden file set (tools/golden.py) of both sides and records
   whether `tools/golden.py --compare` finds no difference;
3. for every workload in BENCHMARK.json, runs perfbench/run.py of each
   side in PAIRS alternating pairs (base first in even pairs, change first
   in odd ones) at seed SEED, each run its own process with the
   benchmark's settings;
4. makes one traced run per side and workload for the per-layer counts
   (tensor.nodes, hessian.hvp.calls, models.build.calls, ...), which repeat
   exactly from run to run;
5. writes --out: per workload, each side's failed and attempted
   operations and the failed share, with more_failed set when the change's
   share is larger; per end-to-end metric, every run of each
   side, the medians and quartiles, the pairs the change won (lower is
   better, ties count for neither), whether that is a gain by the rule
   "at least 9 in 10 pairs won and a median gap wider than the base's
   interquartile range", and whether the change's median is worse than the
   base's by more than the benchmark's bound; with the core count, the numpy
   and Python versions and both revisions;
6. prints the verdict to stderr, one line per workload and end-to-end
   metric: the base and change medians, the pairs the change won, and the
   gain and worse_than_bound flags.

Exits 1, after writing --out, if the golden sets differ, if any run of the
change reports "correct": false, or if a larger share of operations fails in
the change on some workload (more_failed); each such finding is also printed
to stderr.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10  # the fewest alternating pairs a gain claim may rest on
SEED = 1


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: str) -> None:
    """The tracked files of rev, written under dest."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"git archive {rev} failed")


def golden(base: str, change: str, tmp: str) -> dict:
    """Write both golden sets and compare them with the change's tool."""
    env = {**os.environ, "OMP_NUM_THREADS": "1"}
    dirs = {}
    for side, root in (("base", base), ("change", change)):
        dirs[side] = os.path.join(tmp, f"golden-{side}")
        print(f"golden set of {side}", file=sys.stderr)
        subprocess.run([sys.executable, os.path.join(root, "tools", "golden.py"),
                        dirs[side]], check=True, env=env, stderr=subprocess.DEVNULL)
    cmp = subprocess.run([sys.executable, os.path.join(change, "tools", "golden.py"),
                          "--compare", dirs["base"], dirs["change"]],
                         capture_output=True, text=True)
    lines = cmp.stdout.strip().splitlines()
    return {"identical": cmp.returncode == 0, "summary": lines[-1] if lines else "",
            "differing": lines[:-1]}


def bench(root: str, workload: str, seconds: float, trace: bool) -> dict:
    """One perfbench/run.py process; its result line."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarize(base: list[float], change: list[float], bound: float) -> dict:
    def stats(xs):
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        return {"runs": xs, "median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}

    b, c = stats(base), stats(change)
    wins = sum(y < x for x, y in zip(base, change))
    return {"base": b, "change": c, "pairs": len(base), "change_wins": wins,
            "change_losses": sum(y > x for x, y in zip(base, change)),
            "median_change": c["median"] / b["median"] - 1.0,
            "gain": wins >= 0.9 * len(base) and b["median"] - c["median"] > b["iqr"],
            "worse_than_bound": c["median"] > b["median"] * (1.0 + bound)}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--base", default="HEAD", help="git revision to compare against")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]

    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    report = {"base": git("rev-parse", args.base),
              "change": git("rev-parse", "HEAD") + (" plus uncommitted edits" if dirty else ""),
              "cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
              "numpy": np.__version__, "python": platform.python_version(),
              "pairs": PAIRS, "seed": SEED, "seconds": spec["run_seconds"],
              "workloads": {}}
    problems = []
    with tempfile.TemporaryDirectory(prefix="fedsim-ab-") as tmp:
        base = os.path.join(tmp, "base")
        export(args.base, base)
        report["golden"] = golden(base, ROOT, tmp)
        print(report["golden"]["summary"], file=sys.stderr)
        if not report["golden"]["identical"]:
            problems.append("the golden sets differ")
        roots = {"base": base, "change": ROOT}
        for wl in (w["name"] for w in spec["workloads"]):
            runs = {"base": [], "change": []}
            for i in range(PAIRS):
                for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                    runs[side].append(bench(roots[side], wl, spec["run_seconds"],
                                            trace=False))
                print(f"{wl}: pair {i + 1}/{PAIRS}", file=sys.stderr)
            traced = {side: bench(roots[side], wl, spec["run_seconds"], trace=True)
                      for side in roots}
            row = {}
            for side, rs in runs.items():
                failed, attempted = (sum(r[k] for r in rs) for k in ("failed", "attempted"))
                row[side] = {"failed": failed, "attempted": attempted,
                             "failed_share": failed / attempted if attempted else 0.0,
                             "all_correct": all(r["correct"] for r in rs)}
            row["more_failed"] = row["change"]["failed_share"] > row["base"]["failed_share"]
            if row["more_failed"]:
                problems.append(f"{wl}: a larger share of operations fails in the change")
            if not (row["change"]["all_correct"] and traced["change"]["correct"]):
                problems.append(f"{wl}: a run of the change failed its own check")
            for metric, bound in bounds.items():
                row[metric] = summarize(
                    [r["metrics"][metric]["value"] for r in runs["base"]],
                    [r["metrics"][metric]["value"] for r in runs["change"]], bound)
            row["counts_per_pass"] = {
                name: {side: traced[side]["metrics"][name]["value"] for side in roots}
                for name in counts}
            report["workloads"][wl] = row
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    for wl, row in report["workloads"].items():
        for metric in bounds:
            m = row[metric]
            print(f"{wl} {metric}: {m['base']['median']:.4g} -> {m['change']['median']:.4g}, "
                  f"won {m['change_wins']}/{m['pairs']}, gain {m['gain']}, "
                  f"worse_than_bound {m['worse_than_bound']}", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
