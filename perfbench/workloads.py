"""The four benchmark workloads and the checks made on their outputs.

Each workload has a set-up (timed apart, several times), a pass (the fixed
amount of work a run repeats and times) and a check of the last pass's
outputs. Checks compare against reference.py or against properties the
method must have; none compares against stored output.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import shutil
import time

import numpy as np

import reference as ref

C9_DATASET = {"num_classes": 8, "dims": [16], "samples_per_class": 80,
              "separation": 2.5, "test_fraction": 0.5}
C9_MODEL = {"widths": [16, 16], "projection_dim": 32}


def c9_dict(method: str, rounds: int = 20) -> dict:
    """Criterion 9's experiment: 8 clients, Dir(0.1), 6 local epochs, batch 16."""
    mc = {"method": method, "mu": 0.12} if method == "fedalign" else {"method": method}
    return {"rounds": rounds, "num_clients": 8, "local_epochs": 6, "batch_size": 16,
            "learning_rate": 0.05, "momentum": 0.9, "clip_norm": 5.0, "alpha": 0.1,
            "seed": 0, "eval_every": rounds, "method": mc,
            "dataset": dict(C9_DATASET), "model": dict(C9_MODEL)}


@dataclasses.dataclass
class PassResult:
    attempted: int
    failed: int
    digest: str  # hash of the final parameters, equal across passes
    outputs: dict
    op_seconds: dict = dataclasses.field(default_factory=dict)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _quiet():
    """Keep the program's progress lines off the benchmark's stdout."""
    return contextlib.redirect_stdout(io.StringIO())


class Workload:
    # set-up is timed in batches before and after the passes, each batch
    # repeating it for at least SETUP_SECONDS (and SETUP_MIN times), so
    # setup_s samples the machine at more than one moment of the run
    SETUP_BATCHES = 2
    SETUP_SECONDS = 1.0
    SETUP_MIN = 3

    def __init__(self, fedsim, seed: int, workdir: str):
        self.fs = fedsim
        self.seed = seed
        self.workdir = workdir

    def config(self, d: dict):
        return self.fs.orchestrator.ExperimentConfig.from_dict(d)

    def setup(self) -> None:
        for c in self.configs:
            self.fs.orchestrator.build_state(c)

    # shared checks ---------------------------------------------------------

    def check_model(self, tag: str, state, last, problems: list[str]) -> dict:
        """Re-derive a final model's reported accuracy, loss and traffic."""
        path = os.path.join(self.workdir, f"check-{tag}.ckpt")
        self.fs.orchestrator.save_checkpoint(path, state)
        _, arrays, weights = ref.read_checkpoint(path)
        os.remove(path)
        cfg = state.config
        logits = ref.forward(weights, cfg.model.widths, state.test.inputs)
        acc = ref.accuracy(logits, state.test.labels)
        loss = ref.cross_entropy(logits, state.test.labels)
        if acc != last.test_acc or not ref.close(loss, last.test_loss, 1e-9):
            problems.append(f"{tag}: reference forward gives acc {acc} loss {loss!r}, "
                            f"run reported {last.test_acc} {last.test_loss!r}")
        per_round = int(np.ceil(cfg.sample_fraction * cfg.num_clients))
        bits = float(arrays["global"].size * 32 * per_round * (last.round + 1))
        if last.comm_bits_cum != bits:
            problems.append(f"{tag}: comm_bits_cum {last.comm_bits_cum!r} != {bits!r}")
        return {"acc": acc, "loss": loss, "weights": weights}


class C9Sweep(Workload):
    """Criterion 9's seed-0 experiments and its sharpness solve."""

    name = "c9-sweep"
    FULL = ("fedavg", "fedalign")  # the two methods criterion 9 eigen-solves
    FULL_ROUNDS = 20
    SHORT_ROUNDS = 3  # the other five run 3 of the 20 rounds, so a pass fits a 25 s run
    EIGEN = {"k": 4, "iters": 100, "seed": 1234}

    def __init__(self, fedsim, seed, workdir):
        super().__init__(fedsim, seed, workdir)
        self.configs = [self.config(c9_dict(m, self.FULL_ROUNDS if m in self.FULL
                                                  else self.SHORT_ROUNDS))
                        for m in fedsim.methods.METHODS]

    def run_pass(self) -> PassResult:
        orch, hess = self.fs.orchestrator, self.fs.hessian
        attempted = failed = 0
        runs, eigen, seconds = {}, {}, {}
        for cfg in self.configs:
            m = cfg.method.method
            t0 = time.perf_counter()
            state, metrics = orch.run_experiment(cfg)
            attempted += 1
            if m in self.FULL:
                vals, _, ok = hess.top_eigenpairs(
                    state.model, hess.ce_loss_fn, (state.test.inputs, state.test.labels),
                    **self.EIGEN)
                attempted += len(ok)
                failed += ok.count(False)
                eigen[m] = (vals, ok)
            seconds[m] = time.perf_counter() - t0
            runs[m] = (state, metrics)
        return PassResult(attempted, failed,
                          _digest(s.global_vector.data for s, _ in runs.values()),
                          {"runs": runs, "eigen": eigen}, seconds)

    def check(self, result: PassResult) -> list[str]:
        problems: list[str] = []
        for m, (state, metrics) in result.outputs["runs"].items():
            got = self.check_model(m, state, metrics[-1], problems)
            if not got["acc"] > 1.0 / state.config.dataset.num_classes:
                problems.append(f"{m}: accuracy {got['acc']} does not beat chance")
        for m, (vals, ok) in result.outputs["eigen"].items():
            if len(vals) != self.EIGEN["k"] or not all(np.isfinite(vals)):
                problems.append(f"{m}: eigen solve returned {vals}")
        return problems


class ManyRounds(Workload):
    """A long moon run with every-round I/O, then a resume from mid-run."""

    name = "many-rounds"
    ROUNDS = 100
    RESUME_AT = 50

    def __init__(self, fedsim, seed, workdir):
        super().__init__(fedsim, seed, workdir)
        self.full_dir = os.path.join(workdir, "full")
        self.resume_dir = os.path.join(workdir, "resumed")
        d = {"rounds": self.ROUNDS, "num_clients": 32, "sample_fraction": 0.25,
             "local_epochs": 1, "batch_size": 16, "learning_rate": 0.05,
             "momentum": 0.9, "clip_norm": 5.0, "alpha": 0.5, "seed": seed,
             "eval_every": 1, "method": {"method": "moon"},
             "dataset": dict(C9_DATASET), "model": dict(C9_MODEL),
             "output_dir": self.full_dir}
        self.configs = [self.config(d)]
        self.resume_config = dataclasses.replace(self.configs[0],
                                                 output_dir=self.resume_dir)

    def ckpt(self, out_dir: str, r: int) -> str:
        return os.path.join(out_dir, "checkpoints", f"round_{r:04d}.ckpt")

    def run_pass(self) -> PassResult:
        orch = self.fs.orchestrator
        for d in (self.full_dir, self.resume_dir):
            shutil.rmtree(d, ignore_errors=True)
        t0 = time.perf_counter()
        full, _ = orch.run_experiment(self.configs[0])
        t1 = time.perf_counter()
        resumed, _ = orch.run_experiment(
            self.resume_config, resume_from=self.ckpt(self.full_dir, self.RESUME_AT))
        t2 = time.perf_counter()
        attempted = self.ROUNDS + 1 + (self.ROUNDS - self.RESUME_AT)
        return PassResult(attempted, 0, _digest([full.global_vector.data]),
                          {"full": full, "resumed": resumed},
                          {"full": t1 - t0, "resume": t2 - t1})

    def check(self, result: PassResult) -> list[str]:
        problems: list[str] = []
        cfg = self.configs[0]
        with open(os.path.join(self.full_dir, "metrics.json")) as f:
            records = json.load(f)
        with open(os.path.join(self.resume_dir, "metrics.json")) as f:
            resumed = json.load(f)
        with open(os.path.join(self.full_dir, "metrics.csv")) as f:
            rows = list(csv.DictReader(f))
        if [r["round"] for r in records] != list(range(self.ROUNDS)):
            problems.append("metrics.json does not hold one record per round")
        if len(rows) != len(records):
            problems.append(f"metrics.csv has {len(rows)} rows for {len(records)} records")
        per_round = int(np.ceil(cfg.sample_fraction * cfg.num_clients))
        for row, rec in zip(rows, records):
            ids = [int(i) for i in row["sampled_ids"].split(";")]
            same = (int(row["round"]) == rec["round"] and ids == rec["sampled_ids"]
                    and all(float(row[k]) == rec[k] for k in
                            ("test_acc", "test_loss", "comm_bits_cum", "flops_cum")))
            if not same:
                problems.append(f"metrics.csv row {row['round']} differs from metrics.json")
            if len(set(ids)) != per_round or not all(0 <= i < cfg.num_clients for i in ids):
                problems.append(f"round {rec['round']} sampled {ids}")
        if resumed != records[self.RESUME_AT:]:
            problems.append("resumed metrics differ from the uninterrupted run")
        _, full_arrays, _ = ref.read_checkpoint(self.ckpt(self.full_dir, self.ROUNDS))
        _, res_arrays, _ = ref.read_checkpoint(self.ckpt(self.resume_dir, self.ROUNDS))
        if (full_arrays.keys() != res_arrays.keys()
                or any(full_arrays[k].tobytes() != res_arrays[k].tobytes()
                       for k in full_arrays)):
            problems.append("resumed final checkpoint differs from the uninterrupted run")
        last = self.fs.orchestrator.RoundMetrics.from_dict(records[-1])
        self.check_model("many-rounds", result.outputs["full"], last, problems)
        return problems


class Diagnose(Workload):
    """`fedsim diagnose` on the criterion-9 fedavg checkpoint for seed 0."""

    name = "diagnose"
    SETUP_BATCHES = 1  # each set-up trains the checkpoint again
    SETUP_SECONDS = 0.0
    ROUNDS = 20
    OPTIONS: tuple[str, ...] = ()  # default probes (100) and grid (21)

    def __init__(self, fedsim, seed, workdir):
        super().__init__(fedsim, seed, workdir)
        self.run_dir = os.path.join(workdir, "run")
        self.out_dir = os.path.join(workdir, "diagnose")
        self.config_path = os.path.join(workdir, "config.json")
        self.run_config = {**c9_dict("fedavg", self.ROUNDS), "output_dir": self.run_dir}
        self.checkpoint = os.path.join(self.run_dir, "checkpoints",
                                       f"round_{self.ROUNDS:04d}.ckpt")

    def setup(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        with open(self.config_path, "w") as f:
            json.dump(self.run_config, f)
        with _quiet():
            rc = self.fs.cli.main(["run", "--config", self.config_path])
        if rc != 0:
            raise RuntimeError(f"fedsim run exited {rc}")

    def run_pass(self) -> PassResult:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with _quiet():
            rc = self.fs.cli.main(["diagnose", "--checkpoint", self.checkpoint,
                                   "--config", self.config_path, "--out", self.out_dir,
                                   *self.OPTIONS])
        attempted, failed = 1, int(rc != 0)
        reports = {}
        diag = os.path.join(self.out_dir, "diagnostics")
        for name in sorted(os.listdir(diag)) if os.path.isdir(diag) else []:
            with open(os.path.join(diag, name)) as f:
                reports[name] = json.load(f)
            ok = reports[name].get("eigen_converged", [])
            attempted += len(ok)
            failed += ok.count(False)
        digest = _digest(np.asarray(r.get("diagonal", []), dtype=np.float64)
                         for r in reports.values())
        return PassResult(attempted, failed, digest, {"rc": rc, "reports": reports})

    def check(self, result: PassResult) -> list[str]:
        if result.outputs["rc"] != 0:
            return [f"fedsim diagnose exited {result.outputs['rc']}"]
        problems: list[str] = []
        reports = result.outputs["reports"]
        n = self.run_config["num_clients"]
        clients = [reports.get(f"client_{i}.json") for i in range(n)]
        if None in clients or "global.json" not in reports:
            return [f"diagnostics missing: have {sorted(reports)}"]
        want = ref.cross_client([np.asarray(c["diagonal"]) for c in clients])
        got = reports["cross_client.json"]
        pairs_ok = len(got["per_pair"]) == len(want["pairs"]) and all(
            ref.close(p[k], w, 1e-9) for p, ws in zip(got["per_pair"], want["pairs"])
            for k, w in zip(("norm_gap", "direction", "direction_cosine"), ws))
        if not pairs_ok or not all(ref.close(got[k], want[k], 1e-9)
                                   for k in ("norm_gap", "direction", "direction_cosine")):
            problems.append("cross_client.json disagrees with the client diagonals")
        _, _, weights = ref.read_checkpoint(self.checkpoint)
        test = self.fs.orchestrator.build_state(self.config(self.run_config)).test
        x, y = ref.global_probe_batch(test.inputs, test.labels, self.run_config["seed"])
        loss = ref.cross_entropy(ref.forward(weights, self.run_config["model"]["widths"], x), y)
        with open(os.path.join(self.out_dir, "landscape.csv")) as f:
            centre = [float(r["loss"]) for r in csv.DictReader(f)
                      if float(r["alpha"]) == 0.0 and float(r["beta"]) == 0.0]
        if len(centre) != 1 or not ref.close(centre[0], loss, 1e-9):
            problems.append(f"landscape centre {centre} != probe-batch loss {loss!r}")
        if reports["global.json"]["samples"] != len(y):
            problems.append("global report used another probe batch size")
        return problems


class ConvTrain(Workload):
    """A conv BlockNet with a stride-2 stage on image-shaped inputs."""

    name = "conv-train"
    METHODS = ("fedavg", "gradaug", "fedalign")
    ROUNDS = 4
    FD_STEP = 1e-5  # largest step tried
    FD_TOL = 1e-4  # relative; the gradient oracle gate's tolerance

    def __init__(self, fedsim, seed, workdir):
        super().__init__(fedsim, seed, workdir)
        self.configs = []
        for m in self.METHODS:
            d = {"rounds": self.ROUNDS, "num_clients": 4, "local_epochs": 1, "batch_size": 32,
                 "learning_rate": 0.05, "momentum": 0.9, "clip_norm": 5.0,
                 "alpha": 100.0, "seed": seed, "eval_every": 2,
                 "method": {"method": m, "mu": 0.12} if m == "fedalign" else {"method": m},
                 "dataset": {"num_classes": 8, "dims": [3, 12, 12],
                             "samples_per_class": 60, "separation": 6.0,
                             "test_fraction": 0.5},
                 "model": {"widths": [8, 16], "projection_dim": 32}}
            self.configs.append(self.config(d))

    def run_pass(self) -> PassResult:
        runs, seconds = {}, {}
        for cfg in self.configs:
            t0 = time.perf_counter()
            runs[cfg.method.method] = self.fs.orchestrator.run_experiment(cfg)
            seconds[cfg.method.method] = time.perf_counter() - t0
        return PassResult(len(runs), 0,
                          _digest(s.global_vector.data for s, _ in runs.values()),
                          {"runs": runs}, seconds)

    def check(self, result: PassResult) -> list[str]:
        problems: list[str] = []
        for m, (state, metrics) in result.outputs["runs"].items():
            got = self.check_model(m, state, metrics[-1], problems)
            problems += self.check_gradient(m, state, got["weights"])
        return problems

    def check_gradient(self, tag: str, state, weights: dict) -> list[str]:
        """Directional derivative of the test loss: autodiff vs central FD.

        The step shrinks until no ReLU input changes sign within it, so the
        loss is smooth on the segment and the difference is accurate to the
        square of the step; a kink inside the step would otherwise swamp
        the derivative along a random direction (about |g| / sqrt(n)).
        """
        t = self.fs.tensor
        x, y = state.test.inputs[:64], state.test.labels[:64]
        params = state.model.params
        t.zero_gradients(params)
        grads = t.gradients(t.softmax_cross_entropy(state.model.forward(x), y), params)
        t.zero_gradients(params)
        rng = np.random.default_rng([self.seed, 0xFD])
        direction = {k: rng.standard_normal(w.shape) for k, w in sorted(weights.items())}
        scale = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
        analytic = sum(float((grads[k] * d).sum()) for k, d in direction.items()) / scale

        def loss_at(step: float):
            moved = {k: w + step * direction[k] / scale for k, w in weights.items()}
            masks: list = []
            logits = ref.forward(moved, state.config.model.widths, x, masks)
            return ref.cross_entropy(logits, y), masks

        _, centre = loss_at(0.0)
        step = self.FD_STEP
        while True:
            (up, up_masks), (down, down_masks) = loss_at(step), loss_at(-step)
            smooth = all(np.array_equal(a, c) and np.array_equal(b, c)
                         for a, b, c in zip(up_masks, down_masks, centre))
            if smooth or step < 1e-9:
                break
            step /= 10
        fd = (up - down) / (2 * step)
        if not ref.close(fd, analytic, self.FD_TOL):
            return [f"{tag}: directional derivative {analytic!r} vs finite difference "
                    f"{fd!r} at step {step:g}"]
        return []


WORKLOADS = {w.name: w for w in (C9Sweep, ManyRounds, Diagnose, ConvTrain)}
