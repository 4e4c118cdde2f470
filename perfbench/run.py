"""Benchmark entry point for fedsim.

    python3 perfbench/run.py --workload c9-sweep --seed 1 --seconds 25 --trace 0

Runs one workload in this process: a batch of set-ups, whole passes of the
workload's fixed work until the next pass would overrun --seconds (at least
one), a second batch of set-ups, then the correctness checks on the last
pass. setup_s is the median set-up time, wall_s the median pass time. The
last stdout line is a JSON object with correct, attempted, failed and
metrics. With --trace 1 the run makes one untraced pass, then traced
passes, and reports the per-layer metrics per traced pass. Without --workload, every workload runs in turn, each in its own
process. The program is imported from src/ of the checkout this file sits in.
"""
import argparse
import os
import subprocess
import sys

# one BLAS thread: set before numpy loads so the figures do not depend on
# how many cores the BLAS library decides to use
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def import_fedsim():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fedsim", "__init__.py")):
        sys.exit(f"no fedsim sources under {src}")
    sys.path.insert(0, src)
    import fedsim
    import fedsim.cli  # noqa: F401  (the diagnose workload and the tracer use it)
    return fedsim


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def setup_batch(wl) -> list[float]:
    times = []
    while len(times) < wl.SETUP_MIN or sum(times) < wl.SETUP_SECONDS:
        times.append(timed(wl.setup)[0])
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    fedsim = import_fedsim()
    import workloads
    from spans import Tracer

    workdir = os.path.join(OUT, f"{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[name](fedsim, seed, workdir)
        setups = setup_batch(wl)
        ops = {"attempted": 0, "failed": 0}
        digests = set()

        def one_pass():
            dt, result = timed(wl.run_pass)
            ops["attempted"] += result.attempted
            ops["failed"] += result.failed
            digests.add(result.digest)
            print(f"{name}: pass {dt:.3f}s " + " ".join(
                f"{k}={v:.3f}s" for k, v in result.op_seconds.items()), file=sys.stderr)
            return dt, result

        start = time.perf_counter()
        tracer = Tracer(fedsim) if trace else None
        if tracer:
            untraced, _ = one_pass()
            tracer.install()
        passes, result = [], None
        try:
            while not passes or time.perf_counter() - start + max(passes) <= seconds:
                result = None  # free the last pass's outputs: peak memory is per pass
                dt, result = one_pass()
                passes.append(dt)
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for _ in range(wl.SETUP_BATCHES - 1):
            setups += setup_batch(wl)
        print(f"{name}: {len(setups)} set-ups, median {statistics.median(setups):.5f}s",
              file=sys.stderr)

        problems = wl.check(result)
        if len(digests) != 1:
            problems.append("passes ended with different parameters")
        for p in problems:
            print(f"{name}: CHECK FAILED: {p}", file=sys.stderr)
        if tracer:
            tracer.write(os.path.join(OUT, f"{name}-trace.json"))
            values = tracer.values(PER_LAYER, len(passes))
            values["trace.overhead_s"] = statistics.median(passes) - untraced
            units = PER_LAYER
        else:
            values = {"setup_s": statistics.median(setups),
                      "wall_s": statistics.median(passes),
                      "peak_rss_mb": peak_rss_mb}
            units = END_TO_END
        return {"correct": not problems, **ops,
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.workload is None:
        rc = 0
        for w in SPEC["workloads"]:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            rc = max(rc, subprocess.run(cmd).returncode)
        return rc
    os.makedirs(OUT, exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
