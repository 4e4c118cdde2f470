"""Write the golden file set: the outputs a change that keeps every bit of
every trajectory must leave byte-identical.

    python3 tools/golden.py OUT_DIR
    python3 tools/golden.py --compare A B

OUT_DIR must be new or empty. Every run goes through the fedsim command line
with OUT_DIR as the working directory, so the paths inside the outputs are
relative and two OUT_DIRs compare equal with `diff -r`:

- every method on criterion 9's configuration (8 clients, Dir(0.1), 6 local
  epochs, batch 16, seed 0) for 3 rounds;
- moon and gradaug on the same configuration with 2 worker processes, so
  both client generators (moon draws only data order, gradaug also draws
  subnetwork widths and transforms every step) cross the process pool;
- fedprox on the same configuration at sample_fraction 0.3, so 3 of the 8
  clients train each round (partial participation);
- gradaug, fedalign, stochdepth and moon on the benchmark's conv-train
  configuration (seed 3) for 3 rounds, so every BlockNet forward (slimmed,
  final sub-block, stochastic depth, projection head) runs on conv blocks;
- for each run above: `fedsim cost --rounds 20`, and a resume from its
  round-3 checkpoint for 2 more rounds;
- `fedsim diagnose --probes 10 --grid 5` on the fedavg run's round-3
  checkpoint, so the curvature code (hessian-vector products, eigen solve,
  landscape slice) is covered as well as training.

Each run `<name>` leaves `configs/<name>.json`, `<name>/` (metrics.json,
metrics.csv, config_echo.json, checkpoints/), `<name>.run.txt` and
`<name>.cost.txt` (stdout), and the same for its resume `<name>-resumed`.
The diagnosis leaves `c9-fedavg-diagnose/` (diagnostics/*.json,
landscape.csv) and `c9-fedavg-diagnose.txt` (stdout).
The program is imported from src/ of the checkout this file sits in.

--compare lists the files of two such sets that differ or exist on one side
only, and exits 1 if there is any. For a differing checkpoint it says whether
the payload after the manifest line is identical and which manifest keys
were added, removed or changed; for a differing JSON object, which dotted
keys. A change that is meant to move only those keys shows here that nothing
else moved.
"""
import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from fedsim import cli  # noqa: E402
from fedsim.methods import METHODS  # noqa: E402

ROUNDS = 3
RESUMED_ROUNDS = 5
COST_ROUNDS = 20
DIAGNOSED = "c9-fedavg"


def c9_config(method: str) -> dict:
    """Criterion 9's experiment for experiment seed 0."""
    mc = {"method": method, "mu": 0.12} if method == "fedalign" else {"method": method}
    return {"rounds": ROUNDS, "num_clients": 8, "local_epochs": 6, "batch_size": 16,
            "learning_rate": 0.05, "momentum": 0.9, "clip_norm": 5.0, "alpha": 0.1,
            "seed": 0, "eval_every": ROUNDS, "method": mc,
            "dataset": {"num_classes": 8, "dims": [16], "samples_per_class": 80,
                        "separation": 2.5, "test_fraction": 0.5},
            "model": {"widths": [16, 16], "projection_dim": 32}}


def conv_config(method: str) -> dict:
    """The conv-train workload's experiment: a stride-2 conv BlockNet."""
    mc = {"method": method, "mu": 0.12} if method == "fedalign" else {"method": method}
    return {"rounds": ROUNDS, "num_clients": 4, "local_epochs": 1, "batch_size": 32,
            "learning_rate": 0.05, "momentum": 0.9, "clip_norm": 5.0, "alpha": 100.0,
            "seed": 3, "eval_every": 2, "method": mc,
            "dataset": {"num_classes": 8, "dims": [3, 12, 12], "samples_per_class": 60,
                        "separation": 6.0, "test_fraction": 0.5},
            "model": {"widths": [8, 16], "projection_dim": 32}}


def runs() -> dict[str, dict]:
    out = {f"c9-{m}": c9_config(m) for m in METHODS}
    for m in ("moon", "gradaug"):
        out[f"c9-{m}-workers2"] = {**c9_config(m), "workers": 2}
    out["c9-fedprox-partial"] = {**c9_config("fedprox"), "sample_fraction": 0.3}
    for m in ("gradaug", "fedalign", "stochdepth", "moon"):
        out[f"conv-{m}"] = conv_config(m)
    return out


def fedsim(args: list[str], stdout_path: str) -> None:
    """Run the fedsim command line in process; keep its stdout in a file."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(args)
    if rc != 0:
        sys.exit(f"fedsim {' '.join(args)} exited {rc}")
    with open(stdout_path, "w") as f:
        f.write(buf.getvalue())


def write_config(name: str, config: dict) -> str:
    path = os.path.join("configs", f"{name}.json")
    with open(path, "w") as f:
        json.dump({**config, "output_dir": name}, f, indent=1, sort_keys=True)
    return path


def _leaves(d: dict, prefix: str = "") -> dict:
    """Dotted key -> value for every non-object value of a JSON object."""
    out = {}
    for k, v in d.items():
        if isinstance(v, dict):
            out.update(_leaves(v, f"{prefix}{k}."))
        else:
            out[prefix + k] = v
    return out


def _key_changes(a: dict, b: dict) -> str:
    la, lb = _leaves(a), _leaves(b)
    changes = {"added": sorted(lb.keys() - la.keys()),
               "removed": sorted(la.keys() - lb.keys()),
               "changed": sorted(k for k in la.keys() & lb.keys() if la[k] != lb[k])}
    return ", ".join(f"{what} {keys}" for what, keys in changes.items() if keys) or "none"


def _describe(a: bytes, b: bytes, name: str) -> str:
    """How two differing files of one name differ."""
    if name.endswith(".ckpt"):
        (ha, pa), (hb, pb) = a.split(b"\n", 1), b.split(b"\n", 1)
        payload = "identical" if pa == pb else "differs"
        return (f"payload {payload}; manifest keys "
                f"{_key_changes(json.loads(ha), json.loads(hb))}")
    if name.endswith(".json"):
        ja, jb = json.loads(a), json.loads(b)
        if isinstance(ja, dict) and isinstance(jb, dict):
            return f"keys {_key_changes(ja, jb)}"
    return "differs"


def compare(a_dir: str, b_dir: str) -> int:
    """Print how two golden sets differ; 0 if they are identical, else 1."""
    def files(root):
        return {os.path.relpath(os.path.join(d, f), root)
                for d, _, names in os.walk(root) for f in names}

    in_a, in_b = files(a_dir), files(b_dir)
    differ = 0
    for rel in sorted(in_a | in_b):
        if rel not in in_b or rel not in in_a:
            print(f"{rel}: only in {a_dir if rel in in_a else b_dir}")
            differ += 1
            continue
        with open(os.path.join(a_dir, rel), "rb") as f:
            a = f.read()
        with open(os.path.join(b_dir, rel), "rb") as f:
            b = f.read()
        if a != b:
            print(f"{rel}: {_describe(a, b, rel)}")
            differ += 1
    print(f"{differ} of {len(in_a | in_b)} files differ")
    return 1 if differ else 0


def main() -> int:
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        return compare(sys.argv[2], sys.argv[3])
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    out = sys.argv[1]
    if os.path.exists(out) and os.listdir(out):
        sys.exit(f"{out} is not empty")
    os.makedirs(os.path.join(out, "configs"), exist_ok=True)
    os.chdir(out)
    for name, config in runs().items():
        print(name, file=sys.stderr)
        path = write_config(name, config)
        fedsim(["run", "--config", path], f"{name}.run.txt")
        fedsim(["cost", "--config", path, "--rounds", str(COST_ROUNDS)],
               f"{name}.cost.txt")
        resumed = f"{name}-resumed"
        path = write_config(resumed, {**config, "rounds": RESUMED_ROUNDS})
        checkpoint = os.path.join(name, "checkpoints", f"round_{ROUNDS:04d}.ckpt")
        fedsim(["run", "--config", path, "--resume", checkpoint], f"{resumed}.run.txt")
    diagnosis = f"{DIAGNOSED}-diagnose"
    print(diagnosis, file=sys.stderr)
    checkpoint = os.path.join(DIAGNOSED, "checkpoints", f"round_{ROUNDS:04d}.ckpt")
    fedsim(["diagnose", "--checkpoint", checkpoint,
            "--config", os.path.join("configs", f"{DIAGNOSED}.json"),
            "--out", diagnosis, "--probes", "10", "--grid", "5"], f"{diagnosis}.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
