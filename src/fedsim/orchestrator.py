"""Federated round loop: sampling, local updates, weighted aggregation.

A run is a pure function of (config, seed). Every random draw comes from a
generator keyed by (seed, purpose, round, client), never from shared mutable
state, so client updates can run serially or in a process pool with bitwise
identical results, and a run resumed from a checkpoint continues exactly the
trajectory of an uninterrupted one.
"""
from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import ceil, prod

import numpy as np

from .data import LabeledDataset, Partition, dirichlet_partition, \
    make_synthetic_mixture, num_test_samples, train_test_split
from .fields import ConfigError, Record, decode
from .methods import ClientTask, MethodConfig, client_update, count_cost, process_models
from .models import BlockNet, BlockNetSpec
from .tensor import ParamVector, load_vector, params_to_vector, softmax_cross_entropy

CHECKPOINT_VERSION = 2

# substream tags so independent draws never share a generator
_DATA, _SPLIT, _PARTITION, _INIT, _SAMPLE, _CLIENT_DATA, _CLIENT_METHOD = range(7)


class CheckpointError(IOError):
    """Unreadable, truncated, or incompatible checkpoint file."""


@dataclass(frozen=True)
class DatasetConfig(Record):
    num_classes: int = 8
    dims: tuple[int, ...] = (16,)
    samples_per_class: int = 50
    separation: float = 3.0
    test_fraction: float = 0.5

    def __post_init__(self):
        if (len(self.dims) not in (1, 3) or min(self.dims) < 1
                or prod(self.dims) < self.num_classes):
            raise ConfigError(f"dims {list(self.dims)} must be [features] or [channels, "
                              f"height, width], positive, holding a value per class")
        if self.samples_per_class < 1:
            raise ConfigError("samples_per_class must be positive")
        if not 0.0 < self.test_fraction < 1.0 or min(self.split_sizes()) < 1:
            raise ConfigError(f"test_fraction {self.test_fraction} must be in (0, 1) "
                              f"and leave both training and test samples")

    def split_sizes(self) -> tuple[int, int]:
        """(training, test) sample counts of the synthesized dataset."""
        n = self.num_classes * self.samples_per_class
        n_test = num_test_samples(n, self.test_fraction)
        return n - n_test, n_test


@dataclass(frozen=True)
class ModelConfig(Record):
    widths: tuple[int, ...] = (16, 16, 32)
    projection_dim: int = 64


@dataclass(frozen=True)
class ExperimentConfig(Record):
    error = ConfigError  # a nested config's error surfaces as this too

    rounds: int = 20
    num_clients: int = 8
    sample_fraction: float = 1.0
    local_epochs: int = 2
    batch_size: int = 32
    learning_rate: float = 0.01
    momentum: float = 0.9
    clip_norm: float = 5.0
    alpha: float = 0.5
    seed: int = 0
    eval_every: int = 1
    output_dir: str | None = None
    workers: int = 1
    method: MethodConfig = field(default_factory=MethodConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if self.rounds < 0:
            raise ConfigError("rounds must be non-negative")
        if self.num_clients < 1:
            raise ConfigError("need at least one client")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError("sample_fraction must be in (0, 1]")
        if self.local_epochs < 0:
            raise ConfigError("local_epochs must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if self.clip_norm <= 0:
            raise ConfigError("clip_norm must be positive")
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be positive")
        if self.workers < 1:
            raise ConfigError("workers must be positive")
        n_train, _ = self.dataset.split_sizes()
        if self.num_clients > n_train:
            raise ConfigError(f"{self.num_clients} clients but only {n_train} "
                              f"training samples")
        try:
            self.model_spec()
        except ValueError as e:
            raise ConfigError(f"model: {e}") from e

    @staticmethod
    def from_json_file(path: str, overrides=()) -> "ExperimentConfig":
        """Load a JSON config, then apply dotted key=value overrides."""
        try:
            with open(path, encoding="utf-8") as f:
                d = json.load(f)
        except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, too long or deep
            raise ConfigError(f"config is not readable UTF-8 JSON: {e}") from e
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        for spec in overrides:
            _apply_override(d, spec)
        return ExperimentConfig.from_dict(d)

    def trajectory_hash(self) -> str:
        """Hash of the fields that determine the parameter trajectory.

        Round count, eval cadence, worker count, and output paths change how
        long or where a run executes but not what it computes, so checkpoints
        remain loadable across those choices (resuming with more rounds is
        the whole point).
        """
        d = self.to_dict()
        for k in ("rounds", "eval_every", "output_dir", "workers"):
            d.pop(k)
        blob = json.dumps(d, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def model_spec(self) -> BlockNetSpec:
        return BlockNetSpec(input_shape=self.dataset.dims,
                            num_classes=self.dataset.num_classes,
                            widths=self.model.widths,
                            projection_dim=self.model.projection_dim)


def _apply_override(d: dict, spec: str) -> None:
    """Set one dotted key of a config dict from `key=value` (value as JSON,
    else as a bare string)."""
    if "=" not in spec:
        raise ConfigError(f"override {spec!r} is not of the form key=value")
    key, _, raw = spec.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings stay strings
    except (ValueError, RecursionError) as e:  # too long a number, too deep a nesting
        raise ConfigError(f"override {key!r} value is not readable JSON: {e}") from e
    parts = key.split(".")
    cur = d
    for p in parts[:-1]:
        nxt = cur.setdefault(p, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"override {key!r} descends into a non-object")
        cur = nxt
    cur[parts[-1]] = value


@dataclass
class RoundMetrics(Record):
    round: int
    test_acc: float | None
    test_loss: float | None
    comm_bits_cum: float
    flops_cum: float
    sampled_ids: list[int]
    # NaN is a legal loss: a round of zero epochs records it
    train_loss: dict[int, float] = field(default_factory=dict, metadata={"finite": False})

    CSV_HEADER = "round,test_acc,test_loss,comm_bits_cum,flops_cum,sampled_ids"

    def csv_row(self) -> str:
        acc = "" if self.test_acc is None else repr(self.test_acc)
        loss = "" if self.test_loss is None else repr(self.test_loss)
        ids = ";".join(str(i) for i in self.sampled_ids)
        return f"{self.round},{acc},{loss},{repr(self.comm_bits_cum)},{repr(self.flops_cum)},{ids}"

    def __post_init__(self):
        if self.round < 0 or min(self.sampled_ids, default=0) < 0:
            raise ValueError(f"round {self.round} or a sampled id is negative")
        if not self.train_loss.keys() <= set(self.sampled_ids):
            raise ValueError(f"train_loss keys {list(self.train_loss)} are not all sampled ids")


# -- core server-side ops -----------------------------------------------------


def aggregate(client_vectors: list[ParamVector], counts: list[int]) -> ParamVector:
    """Sample-count weighted average, summed in the given (caller-sorted) order."""
    if not client_vectors:
        raise ValueError("nothing to aggregate")
    if len(client_vectors) != len(counts):
        raise ValueError("weights do not match vectors")
    if any(c <= 0 for c in counts):
        raise ValueError("sample counts must be positive")
    layout = client_vectors[0].layout
    for v in client_vectors[1:]:
        if v.layout != layout:
            raise ValueError("parameter layout mismatch across clients")
    total = float(sum(counts))
    out = np.zeros_like(client_vectors[0].data)
    for v, c in zip(client_vectors, counts):
        out += (c / total) * v.data
    return ParamVector(data=out, layout=layout)


def clients_per_round(num_clients: int, sample_fraction: float) -> int:
    """How many clients train each round: ceil(fraction * C)."""
    return ceil(sample_fraction * num_clients)


def sample_clients(num_clients: int, sample_fraction: float, round_idx: int,
                   seed: int) -> list[int]:
    """clients_per_round distinct ids, ascending, keyed by (seed, round)."""
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError("sample_fraction must be in (0, 1]")
    m = clients_per_round(num_clients, sample_fraction)
    rng = np.random.default_rng([seed, _SAMPLE, round_idx])
    return sorted(int(i) for i in rng.choice(num_clients, size=m, replace=False))


def comm_cost(param_count: int, rounds_completed: int,
              clients_per_round: int) -> float:
    """Total transferred bits: one 32-bit copy of the model per sampled
    client per round (the accounting convention the reference totals use)."""
    if param_count < 0 or rounds_completed < 0 or clients_per_round < 0:
        raise ValueError("counts must be non-negative")
    return float(param_count) * 32.0 * clients_per_round * rounds_completed


def evaluate(model: BlockNet, ds: LabeledDataset) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) over a dataset, single batch.

    Runs this process's gradient-free BlockNet of model's shape
    (methods.process_models) on a copy of model's weights, so the forward
    builds no autodiff graph of the dataset. Its memory beyond the activations is
    bounded by conv2d's column chunks (tensor.COLUMN_CHUNK_BYTES), not by
    the dataset's size.
    """
    frozen = process_models(model.spec, model.with_projection)[1]
    load_vector(frozen.params, params_to_vector(model.params))
    logits = frozen.forward(ds.inputs)
    loss = softmax_cross_entropy(logits, ds.labels)
    acc = float((logits.data.argmax(axis=1) == ds.labels).mean())
    return acc, loss.item()


# -- experiment state ----------------------------------------------------------


@dataclass
class ExperimentState:
    config: ExperimentConfig
    train: LabeledDataset
    test: LabeledDataset
    partition: Partition
    model: BlockNet
    global_vector: ParamVector
    initial_vector: ParamVector
    round_idx: int = 0
    comm_bits: float = 0.0
    flops: float = 0.0
    prev_client_vectors: dict[int, ParamVector] = field(default_factory=dict)
    flops_per_forward: float = 0.0


def build_state(config: ExperimentConfig) -> ExperimentState:
    """Materialize dataset, partition, and the seed-initialized global model."""
    ds = make_synthetic_mixture(
        config.dataset.num_classes, config.dataset.dims,
        config.dataset.samples_per_class, config.dataset.separation,
        seed=_derive_seed((config.seed, _DATA)))
    train, test = train_test_split(ds, config.dataset.test_fraction,
                                   seed=_derive_seed((config.seed, _SPLIT)))
    partition = dirichlet_partition(train.labels, config.num_clients,
                                    config.alpha,
                                    seed=_derive_seed((config.seed, _PARTITION)))
    spec = config.model_spec()
    rng = np.random.default_rng([config.seed, _INIT])
    model = BlockNet(spec, rng=rng,
                     with_projection=config.method.needs_projection)
    fpf, _ = count_cost(spec, config.method)
    vec = params_to_vector(model.params)
    return ExperimentState(
        config=config, train=train, test=test, partition=partition,
        model=model, global_vector=vec,
        initial_vector=ParamVector(data=vec.data.copy(), layout=vec.layout),
        flops_per_forward=fpf)


def _derive_seed(parts) -> int:
    # stable scalar sub-seed for APIs that take a single integer
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# -- client execution (top level so a process pool can pickle it) --------------


def _run_client(task: ClientTask) -> tuple[int, ParamVector, list[dict]]:
    try:
        vec, stats = client_update(task)
    except Exception as e:
        raise RuntimeError(f"client {task.client_id} failed in round "
                           f"{task.round_idx}: {e}") from e
    return task.client_id, vec, stats


def run_round(state: ExperimentState, pool: ProcessPoolExecutor | None = None) -> RoundMetrics:
    """One communication round; updates state in place and returns metrics."""
    config = state.config
    r = state.round_idx
    sampled = sample_clients(config.num_clients, config.sample_fraction, r,
                             config.seed)
    # a contrastive method trains against each client's previous-round model
    keeps_prev = config.method.record.contrastive
    spec = config.model_spec()
    tasks = []
    for cid in sampled:
        idx = state.partition.assignments[cid]
        # a client never sampled before starts from the initial model
        prev = state.prev_client_vectors.get(cid, state.initial_vector) if keeps_prev else None
        # every task of a round shares one global ParamVector and only reads it
        tasks.append(ClientTask(
            client_id=cid, round_idx=r, method=config.method, spec=spec,
            inputs=state.train.inputs[idx], labels=state.train.labels[idx],
            received=state.global_vector, prev=prev,
            data_rng=np.random.default_rng([config.seed, _CLIENT_DATA, r, cid]),
            method_rng=np.random.default_rng([config.seed, _CLIENT_METHOD, r, cid]),
            epochs=config.local_epochs, batch_size=config.batch_size,
            learning_rate=config.learning_rate, momentum=config.momentum,
            clip_norm=config.clip_norm))
    if pool is not None:
        results = list(pool.map(_run_client, tasks))
    else:
        results = [_run_client(t) for t in tasks]
    results.sort(key=lambda t: t[0])  # aggregation order is ascending client id

    counts = [len(state.partition.assignments[cid]) for cid, _, _ in results]
    state.global_vector = aggregate([vec for _, vec, _ in results], counts)
    load_vector(state.model.params, state.global_vector)

    if keeps_prev:
        for cid, vec, _ in results:
            state.prev_client_vectors[cid] = vec

    samples_this_round = sum(counts)
    state.flops += samples_this_round * config.local_epochs * state.flops_per_forward
    state.comm_bits += comm_cost(state.global_vector.size, 1, len(sampled))

    test_acc = test_loss = None
    if (r + 1) % config.eval_every == 0 or r == config.rounds - 1:
        test_acc, test_loss = evaluate(state.model, state.test)
        test_acc, test_loss = float(test_acc), float(test_loss)

    train_loss = {cid: stats[-1]["loss"] if stats else float("nan")
                  for cid, _, stats in results}
    state.round_idx = r + 1
    return RoundMetrics(round=r, test_acc=test_acc, test_loss=test_loss,
                        comm_bits_cum=state.comm_bits, flops_cum=state.flops,
                        sampled_ids=sampled, train_loss=train_loss)


# -- writing files and checkpoints --------------------------------------------------


def _replace_file(path: str, data: str | list[bytes]) -> None:
    """Write data, text or byte chunks one by one, to path.tmp, then rename
    it over path, so a write that fails leaves the file at path as it was
    and removes path.tmp. Every whole file of a run or diagnose directory is
    written here."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in [data.encode()] if isinstance(data, str) else data:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _append(path: str, text: str, overwrite: int = 0) -> None:
    """Write text over the last `overwrite` bytes of path, unbuffered, so a
    failure (a full disk) raises here, not at close; the file is then cut
    back and those bytes restored. Every appended file of a run is written here."""
    with open(path, "r+b", buffering=0) as f:
        end = f.seek(-overwrite, os.SEEK_END)
        tail = f.read()
        f.seek(end)
        try:
            data = memoryview(text.encode())
            while data:
                data = data[f.write(data):]
        except BaseException:
            f.seek(end)
            f.truncate()
            f.write(tail)
            raise


def _array_table(client_ids: list[int], size: int) -> list[dict]:
    """A checkpoint's array entries: the global vector, then one previous
    vector per client in the given order, each `size` float64s, back to back."""
    names = ["global"] + [f"prev_client_{cid}" for cid in client_ids]
    return [{"name": n, "length": size, "offset": 8 * size * i}
            for i, n in enumerate(names)]


def _digest(manifest: dict, payload) -> str:
    """sha256 of the manifest line without its digest, then the payload
    buffers; hashed piece by piece so the payload is never joined."""
    h = hashlib.sha256(json.dumps(manifest).encode() + b"\n")
    for buf in payload:
        h.update(buf)
    return h.hexdigest()


def save_checkpoint(path: str, state: ExperimentState) -> None:
    """Single-file container: one JSON manifest line, then raw little-endian
    float64 arrays at the offsets the manifest declares. The manifest's last
    key, sha256, is the _digest of everything else in the file."""
    ids = sorted(state.prev_client_vectors)
    payload = [np.ascontiguousarray(vec.data, dtype="<f8") for vec in
               [state.global_vector] + [state.prev_client_vectors[c] for c in ids]]
    manifest = {
        "version": CHECKPOINT_VERSION,
        "round": state.round_idx,
        "config_hash": state.config.trajectory_hash(),
        "layout": [[n, list(s), o] for n, s, o in state.global_vector.layout],
        "arrays": _array_table(ids, state.global_vector.size),
        "comm_bits": state.comm_bits,
        "flops": state.flops,
    }
    manifest["sha256"] = _digest(manifest, payload)
    _replace_file(path, [json.dumps(manifest).encode() + b"\n", *payload])


_PREV_ARRAY = re.compile(r"prev_client_(0|[1-9][0-9]*)")


def load_checkpoint(path: str, config: ExperimentConfig) -> ExperimentState:
    """Rebuild run state from a checkpoint; everything else is re-derived
    deterministically from the config. A file that is not byte for byte one
    that save_checkpoint writes, by its digest, raises CheckpointError."""
    try:
        with open(path, "rb") as f:
            header = f.readline()
            blob = f.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint: {e}") from e
    try:
        manifest = json.loads(header.decode())
        if manifest["version"] != CHECKPOINT_VERSION:
            raise CheckpointError(f"checkpoint version {manifest['version']!r} is not "
                                  f"supported (expected {CHECKPOINT_VERSION})")
        sha = manifest.pop("sha256")
        round_idx, config_hash = decode(int, manifest["round"], "round"), manifest["config_hash"]
        declared = tuple((n, tuple(s), o) for n, s, o in manifest["layout"])
        ids = [int(_PREV_ARRAY.fullmatch(e["name"])[1]) for e in manifest["arrays"][1:]]
        comm_bits, flops = (decode(float, manifest[k], k) for k in ("comm_bits", "flops"))
        if min(round_idx, comm_bits, flops) < 0:
            raise ValueError(f"round {round_idx}, comm_bits {comm_bits!r} or flops "
                             f"{flops!r} is negative")
    except (ValueError, TypeError, KeyError, RecursionError) as e:  # UnicodeDecodeError too
        raise CheckpointError(f"checkpoint manifest is corrupt: {e!r}") from e
    if config_hash != config.trajectory_hash():
        raise CheckpointError("checkpoint was produced by a different config")
    state = build_state(config)
    layout, size = state.global_vector.layout, state.global_vector.size
    if declared != layout:
        raise CheckpointError("checkpoint layout does not match the model")
    if (manifest["arrays"] != _array_table(ids, size) or ids != sorted(set(ids))
            or not all(cid < config.num_clients for cid in ids)):
        raise CheckpointError("checkpoint arrays are not a global and per-client "
                              f"vectors of the layout's {size} values, back to back")
    step, want = 8 * size, 8 * size * (len(ids) + 1)  # bytes per vector, in all
    if len(blob) != want:
        raise CheckpointError(f"checkpoint {'truncated' if len(blob) < want else 'too long'}:"
                              f" {len(blob)} payload bytes, not {want}")
    # the digest covers the manifest as re-dumped, so the line must be that dump
    if (header != json.dumps({**manifest, "sha256": sha}).encode() + b"\n"
            or sha != _digest(manifest, [blob])):
        raise CheckpointError("checkpoint contents do not match their sha256")
    vectors = [ParamVector(np.frombuffer(blob[i:i + step], dtype="<f8").astype(np.float64),
                           layout) for i in range(0, want, step)]
    state.global_vector = vectors[0]
    load_vector(state.model.params, state.global_vector)
    state.prev_client_vectors = dict(zip(ids, vectors[1:]))
    state.round_idx, state.comm_bits, state.flops = round_idx, comm_bits, flops
    return state


# -- metrics files ----------------------------------------------------------------


class MetricsError(IOError):
    """An output directory's metrics.json is unreadable or is not a list of
    round records in strictly ascending round order."""


def _render(record: dict) -> str:
    """One record exactly as json.dump(records, f, indent=1) writes a list item."""
    return " " + json.dumps(record, indent=1).replace("\n", "\n ")


def _render_file(items: list[str]) -> str:
    """The file json.dump(records, f, indent=1) writes, from rendered records."""
    return "[\n" + ",\n".join(items) + "\n]" if items else "[]"


def _render_csv(rows: list[str]) -> str:
    """metrics.csv: the header, then one line per row."""
    return "".join(row + "\n" for row in [RoundMetrics.CSV_HEADER] + rows)


@dataclass
class MetricsLog:
    """What an output directory's metrics files hold: metrics.json's rounds,
    ascending, each record as rendered and each as its metrics.csv row. stale
    means metrics.json's bytes are not _render_file(items) or metrics.csv's
    not _render_csv(rows), so the next write replaces both files whole."""

    rounds: list[int] = field(default_factory=list)
    items: list[str] = field(default_factory=list)
    rows: list[str] = field(default_factory=list)
    stale: bool = False


def _read(path: str) -> bytes | None:
    """The bytes of the file at path; None when there is none."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None
    except OSError as e:
        raise MetricsError(f"cannot read {path}: {e}") from e


def read_metrics_log(out_dir: str) -> MetricsLog:
    """The records of out_dir's metrics.json; none when there is no file.

    MetricsError unless the file is a JSON list of records that RoundMetrics
    reads, with non-negative integer rounds in strictly ascending order. A
    metrics.csv that is missing or is not their rows leaves the log stale.
    """
    path = os.path.join(out_dir, "metrics.json")
    raw = _read(path)
    if raw is None:
        return MetricsLog()
    try:
        records = json.loads(raw.decode())  # a UnicodeDecodeError is a ValueError
        if not isinstance(records, list):
            raise TypeError(f"a JSON {type(records).__name__}, not a list")
        rows = [RoundMetrics.from_dict(d).csv_row() for d in records]
        rounds = [d["round"] for d in records]
    except (ValueError, TypeError, RecursionError) as e:
        raise MetricsError(f"{path} is not a list of round records: {e!r}") from e
    if any(a >= b for a, b in zip(rounds, rounds[1:])):  # from_dict checked each
        raise MetricsError(f"{path} rounds {rounds} are not in strictly ascending order")
    items = [_render(d) for d in records]
    csv = _read(os.path.join(out_dir, "metrics.csv"))
    return MetricsLog(rounds, items, rows, stale=raw != _render_file(items).encode()
                      or csv != _render_csv(rows).encode())


def emit_metrics(metrics: list[RoundMetrics], out_dir: str, log: MetricsLog) -> None:
    """Add the rounds not yet written to metrics.json and metrics.csv.

    log is what the files hold (read_metrics_log), kept up to date here, so
    a run reads them once however many rounds it emits. A round already in
    the files is skipped, so a resumed run extends them without duplicating
    the header or earlier rows. metrics.json stays byte for byte
    json.dump(records in round order, f, indent=1), and metrics.csv its
    header, then one row per record in round order. Records after the last
    one are appended to both files in place; a record before it (a resume
    into a directory holding later rounds), or a stale or empty log,
    replaces both files whole. A write that fails leaves the log stale.
    """
    os.makedirs(out_dir, exist_ok=True)
    json_path, csv_path = (os.path.join(out_dir, n) for n in ("metrics.json", "metrics.csv"))
    rewrite = log.stale or not log.rounds
    new = 0
    for m in metrics:
        i = bisect.bisect_left(log.rounds, m.round)
        if i < len(log.rounds) and log.rounds[i] == m.round:
            continue
        rewrite = rewrite or i < len(log.rounds)
        log.rounds.insert(i, m.round)
        log.items.insert(i, _render(m.to_dict()))
        log.rows.insert(i, m.csv_row())
        new += 1
    log.stale = True  # until both files hold the log
    if rewrite:
        _replace_file(json_path, _render_file(log.items))
        _replace_file(csv_path, _render_csv(log.rows))
    elif new:  # over the closing "\n]"
        _append(json_path, "".join(",\n" + item for item in log.items[-new:]) + "\n]", 2)
        _append(csv_path, "".join(row + "\n" for row in log.rows[-new:]))
    log.stale = False


# -- the full loop ----------------------------------------------------------------


def run_experiment(config: ExperimentConfig,
                   resume_from: str | None = None) -> tuple[ExperimentState, list[RoundMetrics]]:
    """Run all configured rounds (or the remainder, when resuming).

    With an output_dir set, persists config echo, checkpoints every
    eval_every rounds plus at completion, and metrics after every round.
    The metrics files there are read once, before anything trains;
    MetricsError if metrics.json is malformed.
    """
    out = config.output_dir
    log = read_metrics_log(out) if out is not None else None
    if resume_from is not None:
        state = load_checkpoint(resume_from, config)
    else:
        state = build_state(config)
    if out is not None:
        os.makedirs(os.path.join(out, "checkpoints"), exist_ok=True)
        _replace_file(os.path.join(out, "config_echo.json"),
                      json.dumps(config.to_dict(), indent=1, sort_keys=True))
    pool = None
    metrics: list[RoundMetrics] = []
    try:
        # a round has no more tasks than the clients it samples
        workers = min(config.workers,
                      clients_per_round(config.num_clients, config.sample_fraction))
        if workers > 1:
            pool = ProcessPoolExecutor(max_workers=workers)
        while state.round_idx < config.rounds:
            m = run_round(state, pool)
            metrics.append(m)
            if out is not None:
                emit_metrics([m], out, log)
                last = state.round_idx == config.rounds
                if state.round_idx % config.eval_every == 0 or last:
                    save_checkpoint(
                        os.path.join(out, "checkpoints",
                                     f"round_{state.round_idx:04d}.ckpt"),
                        state)
    finally:
        if pool is not None:
            pool.shutdown()
    return state, metrics
