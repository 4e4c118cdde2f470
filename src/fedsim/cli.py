"""Command-line front end: run experiments, diagnose checkpoints, cut
partitions, and price compute/communication without running anything.

Exit codes: 0 success, 1 config error, 2 runtime error, 3 I/O error.
"""

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from .data import dirichlet_partition
from .hessian import ce_loss_fn, cross_client_metrics, hessian_report, landscape_slice
from .methods import count_cost
from .models import model_params
from .orchestrator import (
    ConfigError,
    ExperimentConfig,
    _derive_seed,
    _replace_file,
    clients_per_round,
    comm_cost,
    load_checkpoint,
    run_experiment,
)

# substream tags for diagnostics rngs, disjoint from the training tags
_DIAG_CLIENT = 11
_DIAG_GLOBAL = 12

PROBE_SAMPLES = 256


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; bad arguments are config errors here
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json_file(args.config, args.override)
    state, metrics = run_experiment(config, resume_from=args.resume)
    print(f"completed {state.round_idx}/{config.rounds} rounds")
    evaluated = [m for m in metrics if m.test_acc is not None]
    if evaluated:
        last = evaluated[-1]
        print(f"round {last.round}: test_acc={last.test_acc:.4f} "
              f"test_loss={last.test_loss:.4f}")
    print(f"comm_bits={state.comm_bits:.6g} flops={state.flops:.6g}")
    if config.output_dir:
        print(f"outputs in {config.output_dir}")
    return 0


def _probe_batch(inputs, labels, seed_parts):
    n = len(labels)
    if n <= PROBE_SAMPLES:
        return inputs, labels
    rng = np.random.default_rng(list(seed_parts))
    idx = np.sort(rng.choice(n, size=PROBE_SAMPLES, replace=False))
    return inputs[idx], labels[idx]


def _parse_clients(spec: str, num_clients: int) -> list[int]:
    if spec == "all":
        return list(range(num_clients))
    try:
        ids = sorted({int(tok) for tok in spec.split(",") if tok.strip()})
    except ValueError as e:
        raise ConfigError(f"--clients must be 'all' or comma-separated ids: {e}")
    if not ids:
        raise ConfigError("--clients selected no clients")
    bad = [c for c in ids if not 0 <= c < num_clients]
    if bad:
        raise ConfigError(f"client ids out of range [0, {num_clients}): {bad}")
    return ids


def _cmd_diagnose(args) -> int:
    """Curvature reports of a checkpoint; each file appears whole (_replace_file)."""
    if args.probes < 1:
        raise ConfigError("--probes must be at least 1")
    if args.grid < 3 or args.grid % 2 == 0:
        raise ConfigError("--grid must be odd and at least 3")
    if not 0 < args.radius < math.inf:
        raise ConfigError("--radius must be a positive finite number")
    config = ExperimentConfig.from_json_file(args.config)
    state = load_checkpoint(args.checkpoint, config)
    ids = _parse_clients(args.clients, config.num_clients)
    out = args.out or config.output_dir or os.path.dirname(
        os.path.abspath(args.checkpoint))
    diag_dir = os.path.join(out, "diagnostics")
    os.makedirs(diag_dir, exist_ok=True)

    model = state.model  # holds the checkpointed global weights
    gx, gy = _probe_batch(state.test.inputs, state.test.labels,
                          (config.seed, _DIAG_GLOBAL))
    gseed = _derive_seed((config.seed, _DIAG_GLOBAL))

    report = hessian_report(model, ce_loss_fn, (gx, gy), k=2,
                            num_probes=args.probes, seed=gseed)
    _replace_file(os.path.join(diag_dir, "global.json"), json.dumps(
        {"round": state.round_idx, "samples": int(len(gy)), **report.to_dict()}, indent=1))
    print(f"global: lambda_max={report.top_eigenvalues[0]:.6g} "
          f"trace={report.trace_estimate:.6g} (+/- {report.trace_stderr:.2g}) "
          f"converged={report.eigen_converged}")

    diagonals = []
    for cid in ids:
        idx = state.partition.assignments[cid]
        cx, cy = _probe_batch(state.train.inputs[idx], state.train.labels[idx],
                              (config.seed, _DIAG_CLIENT, cid))
        cseed = _derive_seed((config.seed, _DIAG_CLIENT, cid))
        rep = hessian_report(model, ce_loss_fn, (cx, cy), k=2,
                             num_probes=args.probes, seed=cseed)
        _replace_file(os.path.join(diag_dir, f"client_{cid}.json"), json.dumps(
            {"client": cid, "round": state.round_idx, "samples": int(len(cy)),
             **rep.to_dict()}, indent=1))
        diagonals.append(rep.diagonal)
        print(f"client {cid}: lambda_max={rep.top_eigenvalues[0]:.6g} "
              f"trace={rep.trace_estimate:.6g} converged={rep.eigen_converged}")

    try:
        cross = cross_client_metrics(diagonals, client_ids=ids)
    except ValueError as e:  # fewer than two clients with a nonzero diagonal
        print(f"cross-client metrics skipped ({e})")
    else:
        _replace_file(os.path.join(diag_dir, "cross_client.json"),
                      json.dumps({"round": state.round_idx, **cross.to_dict()}, indent=1))
        skipped = f" skipped={cross.skipped} (zero-norm diagonal)" if cross.skipped else ""
        print(f"cross-client: norm_gap={cross.norm_gap:.6g} "
              f"direction_cosine={cross.direction_cosine:.6g}{skipped}")

    # the slice runs along the global report's top-2 eigenvectors
    d1, d2 = report.eigenvectors
    alphas, betas, losses = landscape_slice(model, ce_loss_fn, (gx, gy), d1, d2,
                                            grid=args.grid, radius=args.radius)
    _replace_file(os.path.join(out, "landscape.csv"), "alpha,beta,loss\n" + "".join(
        f"{float(a)!r},{float(b)!r},{float(losses[i, j])!r}\n"
        for i, a in enumerate(alphas) for j, b in enumerate(betas)))
    print(f"wrote diagnostics to {diag_dir} and {os.path.join(out, 'landscape.csv')}")
    return 0


def _load_labels(spec: str) -> np.ndarray:
    if spec.startswith("synthetic:"):
        m = re.fullmatch(r"synthetic:(\d+)x(\d+)", spec)
        if not m:
            raise ConfigError(
                "synthetic labels must look like synthetic:<classes>x<per_class>")
        classes, per_class = int(m.group(1)), int(m.group(2))
        if classes < 1 or per_class < 1:
            raise ConfigError("synthetic labels need positive counts")
        return np.repeat(np.arange(classes), per_class)
    try:
        if spec.endswith(".npy"):
            arr = np.load(spec)
        elif spec.endswith(".json"):
            with open(spec) as f:
                arr = np.asarray(json.load(f))
        else:
            arr = np.loadtxt(spec, ndmin=1)
        arr = np.asarray(arr).ravel()
    except (ValueError, RecursionError) as e:  # unparsable, too deep, ragged or not an array
        raise ConfigError(f"cannot read labels from {spec}: {e}") from e
    if arr.size == 0:
        raise ConfigError("labels file is empty")
    if arr.dtype.kind not in "biuf":  # strings, nulls, objects
        raise ConfigError(f"labels must be numbers, not {arr.dtype} values")
    as_int = arr.astype(np.int64)
    if not np.all(as_int == arr) or as_int.min() < 0:
        raise ConfigError("labels must be non-negative integers")
    return as_int


def _cmd_partition(args) -> int:
    labels = _load_labels(args.labels)
    try:
        part = dirichlet_partition(labels, args.clients, args.alpha,
                                   seed=args.seed)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    payload = part.to_json()
    if args.out:  # the user's path, maybe a pipe, so not replaced by a rename
        with open(args.out, "w") as f:
            f.write(payload + "\n")
        print(f"wrote {args.out}")
    else:
        print(payload)
    sizes = part.sizes()
    print(f"clients={part.num_clients} sizes min={sizes.min()} "
          f"max={sizes.max()} attempts={part.attempts}", file=sys.stderr)
    return 0


def _cmd_cost(args) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    if args.rounds < 0:
        raise ConfigError("rounds must be non-negative")
    spec = config.model_spec()
    flops, params = count_cost(spec, config.method)
    base_flops, _ = count_cost(spec, None)
    per_round = clients_per_round(config.num_clients, config.sample_fraction)
    # a round sends one model per sampled client; params counts every stored copy
    bits = comm_cost(model_params(spec, config.method.needs_projection),
                     args.rounds, per_round)
    print(f"method {config.method.method}")
    print(f"params {params}")
    print(f"flops_per_forward {flops:.6g}")
    print(f"flops_ratio_vs_fedavg {flops / base_flops:.4f}")
    print(f"clients_per_round {per_round}")
    print(f"rounds {args.rounds}")
    print(f"comm_bits {bits:.6g}")
    print(f"comm_gigabits {bits / 1e9:.4f}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="fedsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a federated experiment")
    p_run.add_argument("--config", required=True, help="JSON config path")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="dotted config override, e.g. method.mu=0.5")
    p_run.add_argument("--resume", default=None, metavar="CKPT",
                       help="checkpoint to resume from")
    p_run.set_defaults(func=_cmd_run)

    p_diag = sub.add_parser("diagnose", help="curvature diagnostics for a checkpoint")
    p_diag.add_argument("--checkpoint", required=True)
    p_diag.add_argument("--config", required=True)
    p_diag.add_argument("--clients", default="all",
                        help="'all' or comma-separated client ids")
    p_diag.add_argument("--out", default=None,
                        help="output dir (default: config output_dir, else "
                             "the checkpoint's directory)")
    p_diag.add_argument("--probes", type=int, default=100,
                        help="Hutchinson probe count")
    p_diag.add_argument("--grid", type=int, default=21,
                        help="landscape grid resolution (odd)")
    p_diag.add_argument("--radius", type=float, default=1.0,
                        help="landscape slice half-width")
    p_diag.set_defaults(func=_cmd_diagnose)

    p_part = sub.add_parser("partition", help="cut a Dirichlet non-IID partition")
    p_part.add_argument("--labels", required=True,
                        help="labels file (.npy/.json/text) or synthetic:<classes>x<per_class>")
    p_part.add_argument("--clients", type=int, required=True)
    p_part.add_argument("--alpha", type=float, required=True)
    p_part.add_argument("--seed", type=int, required=True)
    p_part.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_part.set_defaults(func=_cmd_partition)

    p_cost = sub.add_parser("cost", help="price compute and communication")
    p_cost.add_argument("--config", required=True)
    p_cost.add_argument("--rounds", type=int, required=True)
    p_cost.set_defaults(func=_cmd_cost)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # a CheckpointError is an OSError too
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # anything the run itself raises
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
