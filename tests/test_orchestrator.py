"""Server-side algebra, checkpoint and metrics formats, resume and determinism laws."""
import contextlib
import dataclasses
import errno
import io
import json
import os
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedsim import cli, orchestrator
from fedsim.methods import MethodConfig
from fedsim.orchestrator import (CheckpointError, ConfigError, DatasetConfig,
                                 ExperimentConfig, ModelConfig, RoundMetrics,
                                 aggregate, build_state, comm_cost, evaluate,
                                 emit_metrics, load_checkpoint,
                                 read_metrics_log, run_experiment, run_round, sample_clients,
                                 save_checkpoint)
from fedsim.tensor import ParamVector, load_vector


def _cfg(**kw):
    base = dict(
        rounds=2, num_clients=3, sample_fraction=1.0, local_epochs=1,
        batch_size=8, learning_rate=0.05, alpha=0.5, seed=7,
        dataset=DatasetConfig(num_classes=3, dims=(8,), samples_per_class=12,
                              separation=3.0, test_fraction=0.5),
        model=ModelConfig(widths=(6, 6)))
    base.update(kw)
    return ExperimentConfig(**base)


# -- configuration --------------------------------------------------------------------


def test_config_validation():
    for bad in (dict(rounds=-1), dict(num_clients=0), dict(sample_fraction=0.0),
                dict(sample_fraction=1.5), dict(local_epochs=-1),
                dict(batch_size=0), dict(learning_rate=0.0),
                dict(momentum=1.0), dict(clip_norm=0.0), dict(alpha=0.0),
                dict(eval_every=0), dict(workers=0)):
        with pytest.raises(ConfigError):
            _cfg(**bad)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"roundz": 3})


def test_config_round_trip():
    cfg = _cfg(method=MethodConfig(method="moon"))
    clone = ExperimentConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    assert clone.to_dict() == cfg.to_dict()


def test_trajectory_hash_ignores_execution_only_fields():
    cfg = _cfg()
    same = [_cfg(rounds=50), _cfg(eval_every=5), _cfg(output_dir="/tmp/x"),
            _cfg(workers=4)]
    for other in same:
        assert other.trajectory_hash() == cfg.trajectory_hash()
        assert other.to_dict() != cfg.to_dict()
    diff = [_cfg(seed=8), _cfg(learning_rate=0.1),
            _cfg(method=MethodConfig(method="fedprox")), _cfg(alpha=0.1)]
    for other in diff:
        assert other.trajectory_hash() != cfg.trajectory_hash()


def _config_keys(cfg) -> set:
    """Dotted names of every field of a config and its nested configs."""
    out = set()
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if dataclasses.is_dataclass(v):
            out |= {f"{f.name}.{k}" for k in _config_keys(v)}
        else:
            out.add(f.name)
    return out


def _dict_keys(d: dict) -> set:
    out = set()
    for k, v in d.items():
        out |= {f"{k}.{kk}" for kk in _dict_keys(v)} if isinstance(v, dict) else {k}
    return out


def _perturbed(value):
    """A different valid value of the same kind."""
    if isinstance(value, bool):
        raise TypeError("no bool config fields expected")
    if isinstance(value, str):
        return "fedprox" if value != "fedprox" else "fedavg"
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2 if value else 0.5
    if isinstance(value, tuple):
        return tuple(2 * v for v in value)
    if value is None:
        return "elsewhere"
    raise TypeError(f"unexpected config value {value!r}")


def test_every_field_reaches_the_hash():
    # moon: its default mu is non-zero, so halving it is a change
    cfg = _cfg(method=MethodConfig(method="moon"), output_dir=None)
    assert _dict_keys(cfg.to_dict()) == _config_keys(cfg)
    execution_only = {"rounds", "eval_every", "output_dir", "workers"}
    for name in sorted(_config_keys(cfg)):
        if "." in name:
            part, key = name.split(".")
            sub = getattr(cfg, part)
            other = dataclasses.replace(
                cfg, **{part: dataclasses.replace(sub, **{key: _perturbed(getattr(sub, key))})})
        else:
            other = dataclasses.replace(cfg, **{name: _perturbed(getattr(cfg, name))})
        assert other.to_dict() != cfg.to_dict(), name
        same = other.trajectory_hash() == cfg.trajectory_hash()
        assert same == (name in execution_only), name


# -- aggregation ----------------------------------------------------------------------


def _pv(values):
    arr = np.asarray(values, dtype=np.float64)
    return ParamVector(data=arr, layout=(("w", (len(arr),), len(arr)),))


def test_aggregate_weighted_mean_exact():
    # weights 1:3 -> 0.25 * 2 + 0.75 * 6 = 5, exactly
    out = aggregate([_pv([2.0, 2.0]), _pv([6.0, 6.0])], [1, 3])
    assert np.array_equal(out.data, np.array([5.0, 5.0]))


def test_aggregate_identical_clients_is_identity():
    v = np.random.default_rng(0).normal(size=11)
    out = aggregate([_pv(v), _pv(v), _pv(v)], [5, 1, 94])
    assert np.array_equal(out.data, (v / 3.0) * 3.0) or np.allclose(out.data, v)
    # bitwise identity holds because the weights sum to one exactly
    out2 = aggregate([_pv(v), _pv(v)], [1, 1])
    assert np.array_equal(out2.data, 0.5 * v + 0.5 * v)


def test_aggregate_validation():
    with pytest.raises(ValueError):
        aggregate([], [])
    with pytest.raises(ValueError):
        aggregate([_pv([1.0])], [1, 2])
    with pytest.raises(ValueError):
        aggregate([_pv([1.0]), _pv([2.0])], [1, 0])
    other = ParamVector(data=np.zeros(1), layout=(("b", (1,), 1),))
    with pytest.raises(ValueError):
        aggregate([_pv([1.0]), other], [1, 1])


def test_sample_clients():
    assert sample_clients(5, 1.0, round_idx=0, seed=0) == [0, 1, 2, 3, 4]
    picked = sample_clients(8, 0.25, round_idx=3, seed=1)
    assert len(picked) == 2 and picked == sorted(set(picked))
    assert picked == sample_clients(8, 0.25, round_idx=3, seed=1)
    assert sample_clients(3, 0.5, 0, 0) == sorted(sample_clients(3, 0.5, 0, 0))
    with pytest.raises(ValueError):
        sample_clients(4, 0.0, 0, 0)


def test_comm_cost_values():
    assert comm_cost(1, 1, 1) == 32.0
    assert comm_cost(610_000, 84, 16) == 26_234_880_000.0
    assert comm_cost(10, 0, 5) == 0.0
    with pytest.raises(ValueError):
        comm_cost(-1, 1, 1)


# -- state and rounds -----------------------------------------------------------------


def test_build_state_partitions_everything():
    state = build_state(_cfg())
    n_train = len(state.train.labels)
    covered = np.sort(np.concatenate(state.partition.assignments))
    assert np.array_equal(covered, np.arange(n_train))
    assert len(state.test.labels) == 36 - n_train
    assert np.array_equal(state.initial_vector.data, state.global_vector.data)
    assert state.initial_vector.data is not state.global_vector.data
    assert state.flops_per_forward > 0
    again = build_state(_cfg())
    assert np.array_equal(again.global_vector.data, state.global_vector.data)


def test_evaluate_uniform_logits():
    state = build_state(_cfg())
    zero = ParamVector(data=np.zeros_like(state.global_vector.data),
                       layout=state.global_vector.layout)
    load_vector(state.model.params, zero)
    acc, loss = evaluate(state.model, state.test)
    assert abs(loss - np.log(3.0)) < 1e-12
    assert acc == float((state.test.labels == 0).mean())


def test_evaluate_builds_no_autodiff_graph(monkeypatch):
    state = build_state(_cfg())
    scored = []
    real = orchestrator.softmax_cross_entropy

    def recording(logits, labels):
        scored.append(logits)
        return real(logits, labels)

    monkeypatch.setattr(orchestrator, "softmax_cross_entropy", recording)
    evaluate(state.model, state.test)
    assert not scored[0].requires_grad
    assert scored[0].data.tobytes() == state.model.forward(state.test.inputs).data.tobytes()


def test_run_round_accounting():
    state = build_state(_cfg(eval_every=1))
    m = run_round(state)
    assert m.round == 0 and state.round_idx == 1
    assert m.sampled_ids == [0, 1, 2]
    assert m.comm_bits_cum == state.global_vector.size * 32.0 * 3
    want_flops = len(state.train.labels) * 1 * state.flops_per_forward
    assert m.flops_cum == want_flops
    assert m.test_acc is not None and m.test_loss is not None
    assert set(m.train_loss) == {0, 1, 2}
    m2 = run_round(state)
    assert m2.comm_bits_cum == 2 * m.comm_bits_cum


@pytest.mark.parametrize("method", ["fedprox", "moon"])
def test_round_shares_the_global_vector_read_only(method, monkeypatch):
    state = build_state(_cfg(method=MethodConfig(method=method)))
    given = []
    real_client_update = orchestrator.client_update

    def recording_client_update(tasks):
        given.extend(task.received for task in tasks)
        return real_client_update(tasks)

    monkeypatch.setattr(orchestrator, "client_update", recording_client_update)
    for _ in range(2):  # moon's second round also reads last round's client vectors
        shared = [state.global_vector, state.initial_vector,
                  *state.prev_client_vectors.values()]
        before = [v.data.tobytes() for v in shared]
        given.clear()
        run_round(state)
        assert [v is shared[0] for v in given] == [True] * 3
        assert [v.data.tobytes() for v in shared] == before


def test_eval_cadence():
    state = build_state(_cfg(rounds=3, eval_every=2))
    m0 = run_round(state)
    m1 = run_round(state)
    m2 = run_round(state)
    assert m0.test_acc is None         # (0+1) % 2 != 0, not final
    assert m1.test_acc is not None     # (1+1) % 2 == 0
    assert m2.test_acc is not None     # final round always evaluates


def test_round_metrics_csv_and_json_round_trip():
    m = RoundMetrics(round=3, test_acc=None, test_loss=None,
                     comm_bits_cum=64.0, flops_cum=10.0, sampled_ids=[2, 5],
                     train_loss={2: 0.5, 5: 0.25})
    assert m.csv_row() == "3,,,64.0,10.0,2;5"
    assert RoundMetrics.from_dict(m.to_dict()) == m


def test_round_metrics_with_non_finite_train_losses_round_trip():
    m = RoundMetrics(round=3, test_acc=0.5, test_loss=1.25, comm_bits_cum=64.0,
                     flops_cum=10.0, sampled_ids=[2, 5, 7],
                     train_loss={2: float("nan"), 5: float("inf"), 7: float("-inf")})
    text = json.dumps(m.to_dict())
    assert text == ('{"round": 3, "test_acc": 0.5, "test_loss": 1.25, "comm_bits_cum": 64.0, '
                    '"flops_cum": 10.0, "sampled_ids": [2, 5, 7], '
                    '"train_loss": {"2": NaN, "5": Infinity, "7": -Infinity}}')
    back = RoundMetrics.from_dict(json.loads(text))
    assert json.dumps(back.to_dict()) == text
    assert list(back.train_loss) == [2, 5, 7] and np.isnan(back.train_loss[2])


@pytest.mark.parametrize("edit", [
    {"round": True}, {"round": "7"}, {"round": -1}, {"round": 7.0},
    {"sampled_ids": [-3, 0]}, {"sampled_ids": [2, False]}, {"sampled_ids": 2},
    {"train_loss": {"02": 0.5}}, {"train_loss": {" 2": 0.5}},
    {"train_loss": {"-1": 0.5}}, {"train_loss": {"2.0": 0.5}},
    {"train_loss": {"+2": 0.5}}, {"train_loss": {"1" * 5000: 0.5}},  # too long for int()
    {"train_loss": {"3": 0.5}},  # not a sampled id
    {"wall_s": 1.0},  # an unknown key
])
def test_round_metrics_from_dict_refuses_what_to_dict_never_writes(edit):
    d = RoundMetrics(round=3, test_acc=None, test_loss=None, comm_bits_cum=64.0,
                     flops_cum=10.0, sampled_ids=[2, 5], train_loss={2: 0.5}).to_dict()
    with pytest.raises(ValueError):
        RoundMetrics.from_dict({**d, **edit})


# -- checkpoints ----------------------------------------------------------------------


def _run_rounds(cfg, n):
    state = build_state(cfg)
    for _ in range(n):
        run_round(state)
    return state


def test_checkpoint_round_trip(tmp_path):
    cfg = _cfg(method=MethodConfig(method="moon"))
    state = _run_rounds(cfg, 2)
    path = str(tmp_path / "r2.ckpt")
    save_checkpoint(path, state)
    loaded = load_checkpoint(path, cfg)
    assert np.array_equal(loaded.global_vector.data, state.global_vector.data)
    assert loaded.round_idx == 2
    assert loaded.comm_bits == state.comm_bits
    assert loaded.flops == state.flops
    assert sorted(loaded.prev_client_vectors) == sorted(state.prev_client_vectors)
    for cid, vec in state.prev_client_vectors.items():
        assert np.array_equal(loaded.prev_client_vectors[cid].data, vec.data)


def test_checkpoint_rejects_other_config(tmp_path):
    cfg = _cfg()
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, _run_rounds(cfg, 1))
    with pytest.raises(CheckpointError, match="different config"):
        load_checkpoint(path, _cfg(seed=8))
    # execution-only knobs stay loadable
    load_checkpoint(path, _cfg(rounds=9, eval_every=3, workers=2))


def test_checkpoint_corruption_detected(tmp_path):
    cfg = _cfg()
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, _run_rounds(cfg, 1))
    raw = open(path, "rb").read()

    trunc = str(tmp_path / "trunc.ckpt")
    with open(trunc, "wb") as f:
        f.write(raw[:-16])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(trunc, cfg)

    garbage = str(tmp_path / "garbage.ckpt")
    with open(garbage, "wb") as f:
        f.write(b"\x00\x01not json\n" + raw)
    with pytest.raises(CheckpointError):
        load_checkpoint(garbage, cfg)

    header, blob = raw.split(b"\n", 1)
    manifest = json.loads(header)
    manifest["version"] = 999
    versioned = str(tmp_path / "version.ckpt")
    with open(versioned, "wb") as f:
        f.write(json.dumps(manifest).encode() + b"\n" + blob)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(versioned, cfg)

    deep = str(tmp_path / "deep.ckpt")  # json raises RecursionError on this line
    with open(deep, "wb") as f:
        f.write(b"[" * 200_000 + b"]" * 200_000 + b"\n" + blob)
    with pytest.raises(CheckpointError, match="corrupt"):
        load_checkpoint(deep, cfg)

    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(str(tmp_path / "missing.ckpt"), cfg)


@pytest.fixture(scope="module")
def moon_checkpoint(tmp_path_factory):
    """(config, scratch path, bytes) of a 2-round moon checkpoint."""
    cfg = _cfg(method=MethodConfig(method="moon"))
    path = str(tmp_path_factory.mktemp("fuzz") / "r2.ckpt")
    save_checkpoint(path, _run_rounds(cfg, 2))
    with open(path, "rb") as f:
        return cfg, path, f.read()


def _assert_refused(moon_checkpoint, raw: bytes) -> None:
    cfg, path, _ = moon_checkpoint
    with open(path, "wb") as f:
        f.write(raw)
    with pytest.raises(CheckpointError):
        load_checkpoint(path, cfg)


def _with_manifest_value(raw: bytes, key: str, value) -> bytes:
    """raw with its manifest's key set to value and the sha256 recomputed."""
    header, blob = raw.split(b"\n", 1)
    manifest = json.loads(header)
    del manifest["sha256"]
    manifest[key] = value
    manifest["sha256"] = orchestrator._digest(manifest, [blob])
    return json.dumps(manifest).encode() + b"\n" + blob


@pytest.mark.parametrize("key", ["comm_bits", "flops"])
def test_checkpoint_manifest_numbers_are_finite_non_negative_numbers(
        moon_checkpoint, tmp_path, key):
    cfg, _, raw = moon_checkpoint
    for value in ["Infinity", "12", True, False, None, [1.0], {}, float("inf"),
                  float("-inf"), float("nan"), -1.0, -1, 10 ** 400]:
        _assert_refused(moon_checkpoint, _with_manifest_value(raw, key, value))
    path = str(tmp_path / "int.ckpt")  # an int of a float's value reads as that float
    with open(path, "wb") as f:
        f.write(_with_manifest_value(raw, key, 12))
    assert getattr(load_checkpoint(path, cfg), key) == 12.0


# no example database on disk, and the same cases on every run
_fuzz = settings(database=None, derandomize=True, deadline=None)


@_fuzz
@given(data=st.data())
def test_checkpoint_refuses_any_changed_byte(moon_checkpoint, data):
    raw = moon_checkpoint[2]
    payload_start = raw.index(b"\n") + 1  # half the cases in the small manifest line
    i = data.draw(st.one_of(st.integers(0, payload_start - 1),
                            st.integers(payload_start, len(raw) - 1)), label="offset")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[i]), label="byte")
    _assert_refused(moon_checkpoint, raw[:i] + bytes([byte]) + raw[i + 1:])


@_fuzz
@given(data=st.data())
def test_checkpoint_refuses_truncation(moon_checkpoint, data):
    raw = moon_checkpoint[2]
    _assert_refused(moon_checkpoint, raw[:data.draw(st.integers(0, len(raw) - 1))])


@_fuzz
@given(tail=st.binary(min_size=1, max_size=64))
def test_checkpoint_refuses_appended_bytes(moon_checkpoint, tail):
    _assert_refused(moon_checkpoint, moon_checkpoint[2] + tail)


def test_resume_is_bitwise_equal(tmp_path):
    cfg4 = _cfg(rounds=4, method=MethodConfig(method="moon"))
    straight = _run_rounds(cfg4, 4)

    cfg2 = _cfg(rounds=2, method=MethodConfig(method="moon"))
    half = _run_rounds(cfg2, 2)
    path = str(tmp_path / "half.ckpt")
    save_checkpoint(path, half)
    resumed, metrics = run_experiment(cfg4, resume_from=path)
    assert resumed.round_idx == 4
    assert [m.round for m in metrics] == [2, 3]
    assert np.array_equal(resumed.global_vector.data, straight.global_vector.data)
    assert resumed.comm_bits == straight.comm_bits
    assert resumed.flops == straight.flops


def test_moon_previous_round_fallback_is_initial_model():
    cfg = _cfg(method=MethodConfig(method="moon"))
    a = build_state(cfg)
    run_round(a); run_round(a)

    b = build_state(cfg)
    run_round(b)
    b.prev_client_vectors.clear()  # forget round-0 locals
    run_round(b)

    c = build_state(cfg)
    run_round(c)
    c.prev_client_vectors = {cid: c.initial_vector for cid in range(cfg.num_clients)}
    run_round(c)

    assert np.array_equal(b.global_vector.data, c.global_vector.data)
    assert not np.array_equal(a.global_vector.data, b.global_vector.data)


# -- metrics files and the full loop ----------------------------------------------------


def test_emit_metrics_appends_without_duplicates(tmp_path):
    out = str(tmp_path)
    rows = [RoundMetrics(r, 0.5, 1.0, 32.0 * (r + 1), 10.0, [0]) for r in range(3)]
    emit_metrics(rows[:2], out, read_metrics_log(out))
    emit_metrics(rows[1:], out, read_metrics_log(out))
    assert read_metrics_log(out).rounds == [0, 1, 2]
    lines = open(os.path.join(out, "metrics.csv")).read().splitlines()
    assert lines[0] == RoundMetrics.CSV_HEADER
    assert len(lines) == 4


def test_emit_metrics_appends_in_place_and_renders_like_json_dump(tmp_path):
    out = str(tmp_path)
    rows = [RoundMetrics(r, None if r == 1 else 0.5, float("nan"), 32.0 * (r + 1),
                         1e20, [0, r], {0: 1.5, r: float("inf")}) for r in range(4)]
    log = read_metrics_log(out)
    for m in rows:
        emit_metrics([m], out, log)
    emit_metrics(rows[1:3], out, log)  # rounds on disk are skipped
    _assert_pinned(out, rows)


def test_emit_metrics_rewrites_a_file_it_did_not_render(tmp_path):
    out = str(tmp_path)
    rows = [RoundMetrics(r, 0.5, 1.0, 32.0 * (r + 1), 10.0, [0]) for r in range(3)]
    with open(os.path.join(out, "metrics.json"), "w") as f:
        json.dump([rows[0].to_dict()], f)  # valid, but not as emit_metrics writes it
    emit_metrics(rows[1:], out, read_metrics_log(out))
    assert open(os.path.join(out, "metrics.json")).read() == json.dumps(
        [m.to_dict() for m in rows], indent=1)


class _FullDisk:
    """A file open for writing whose first write takes half of what it is
    given and then fails, as a write to a full disk does; later writes (a
    rollback) go through."""

    def __init__(self, f):
        self.f = f
        self.full = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def __getattr__(self, name):
        return getattr(self.f, name)

    def write(self, data):
        if not self.full:
            return self.f.write(data)
        self.full = False
        self.f.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _fill_disk(monkeypatch, name: str = "") -> None:
    """Make orchestrator's writes to files whose names end in name fail as on a full disk."""

    def full_disk_open(path, mode="r", *args, **kwargs):
        f = open(path, mode, *args, **kwargs)
        return _FullDisk(f) if set(mode) & set("wax+") and path.endswith(name) else f

    monkeypatch.setattr(orchestrator, "open", full_disk_open, raising=False)


def test_a_failed_replace_leaves_the_file_and_no_temporary(tmp_path, monkeypatch):
    path = str(tmp_path / "metrics.json")
    orchestrator._replace_file(path, "[\n]")
    before = open(path, "rb").read()
    _fill_disk(monkeypatch)
    with pytest.raises(OSError) as failure:  # the first write stores half, then fails
        orchestrator._replace_file(path, ["a longer body".encode(), b" in two chunks"])
    assert failure.value.errno == errno.ENOSPC
    assert sorted(os.listdir(tmp_path)) == ["metrics.json"]
    assert open(path, "rb").read() == before


def test_a_failed_metrics_rewrite_leaves_the_files_as_they_were(tmp_path, monkeypatch):
    out = str(tmp_path)
    rows = [RoundMetrics(r, 0.5, 1.0, 32.0 * (r + 1), 10.0, [0]) for r in range(3)]
    emit_metrics([rows[0], rows[2]], out, read_metrics_log(out))
    names = ("metrics.json", "metrics.csv")
    before = [open(os.path.join(out, n), "rb").read() for n in names]
    _fill_disk(monkeypatch)
    with pytest.raises(OSError):  # round 1 goes before round 2: a rewrite
        emit_metrics([rows[1]], out, read_metrics_log(out))
    assert [open(os.path.join(out, n), "rb").read() for n in names] == before
    assert read_metrics_log(out).rounds == [0, 2]


@pytest.mark.parametrize("name", ["metrics.json", "metrics.csv"])
def test_a_failed_metrics_append_leaves_that_file_as_it_was(tmp_path, monkeypatch, name):
    out = str(tmp_path)
    rows = [RoundMetrics(r, 0.5, 1.0, 32.0 * (r + 1), 9.0, [0]) for r in range(3)]
    emit_metrics(rows[:2], out, read_metrics_log(out))
    before = open(os.path.join(out, name), "rb").read()
    log = read_metrics_log(out)
    with monkeypatch.context() as patch:
        _fill_disk(patch, name)
        with pytest.raises(OSError) as failure:
            emit_metrics([rows[2]], out, log)
    assert failure.value.errno == errno.ENOSPC
    assert open(os.path.join(out, name), "rb").read() == before
    # a failed CSV append leaves metrics.json a round ahead; a new read sees that
    assert read_metrics_log(out).stale == (name == "metrics.csv")
    emit_metrics([rows[2]], out, log)  # and the failed write left log stale
    _assert_pinned(out, rows)


def test_metrics_csv_behind_metrics_json_is_rewritten(tmp_path):
    # a run cut between its two appends: metrics.json holds a round the CSV lacks
    out = str(tmp_path)
    rows = [RoundMetrics(r, 0.5, 1.0, 32.0 * (r + 1), 10.0, [0]) for r in range(3)]
    emit_metrics(rows[:2], out, read_metrics_log(out))
    with open(os.path.join(out, "metrics.csv"), "w") as f:
        f.write(RoundMetrics.CSV_HEADER + "\n" + rows[0].csv_row() + "\n")
    emit_metrics(rows[2:], out, read_metrics_log(out))
    _assert_pinned(out, rows)


def _assert_pinned(out: str, metrics: list) -> None:
    """metrics.json is json.dump of the rounds' records in round order, byte for
    byte, and metrics.csv is the header, then one row per round in round order."""
    ordered = sorted(metrics, key=lambda m: m.round)
    with open(os.path.join(out, "metrics.json")) as f:
        assert f.read() == json.dumps([m.to_dict() for m in ordered], indent=1)
    with open(os.path.join(out, "metrics.csv")) as f:
        assert f.read() == "".join(row + "\n" for row in
                                   [RoundMetrics.CSV_HEADER] + [m.csv_row() for m in ordered])


@pytest.fixture(scope="module")
def five_rounds(tmp_path_factory):
    """(config, metrics, run directory) of a 5-round run checkpointed every round."""
    out = str(tmp_path_factory.mktemp("straight") / "run")
    cfg = _cfg(rounds=5, eval_every=1, output_dir=out)
    return cfg, run_experiment(cfg)[1], out


def _checkpoint(run_dir: str, r: int) -> str:
    return os.path.join(run_dir, "checkpoints", f"round_{r:04d}.ckpt")


def test_metrics_files_of_a_fresh_run_are_pinned(five_rounds):
    _, metrics, out = five_rounds
    assert [m.round for m in metrics] == list(range(5))
    _assert_pinned(out, metrics)


def test_metrics_files_after_an_overlapping_resume_are_pinned(five_rounds, tmp_path):
    cfg, metrics, straight = five_rounds
    out = str(tmp_path / "run")
    run_experiment(dataclasses.replace(cfg, rounds=3, output_dir=out))
    # rounds 2 to 4 run again; round 2 is on disk already
    run_experiment(dataclasses.replace(cfg, output_dir=out),
                   resume_from=_checkpoint(straight, 2))
    _assert_pinned(out, metrics)


def test_metrics_files_after_a_resume_into_a_gap_are_pinned(five_rounds, tmp_path):
    cfg, metrics, straight = five_rounds
    out = str(tmp_path / "run")
    run_experiment(dataclasses.replace(cfg, rounds=2, output_dir=out))
    run_experiment(dataclasses.replace(cfg, output_dir=out),
                   resume_from=_checkpoint(straight, 4))
    assert read_metrics_log(out).rounds == [0, 1, 4]
    run_experiment(dataclasses.replace(cfg, output_dir=out),  # rounds 2 and 3 fill the gap
                   resume_from=_checkpoint(straight, 2))
    _assert_pinned(out, metrics)


def test_metrics_csv_without_metrics_json_is_rewritten(five_rounds, tmp_path):
    cfg, metrics, _ = five_rounds
    out = str(tmp_path / "run")
    run_experiment(dataclasses.replace(cfg, rounds=2, output_dir=out))
    os.remove(os.path.join(out, "metrics.json"))
    run_experiment(dataclasses.replace(cfg, output_dir=out))
    _assert_pinned(out, metrics)


def test_a_run_reads_metrics_json_once(five_rounds, tmp_path, monkeypatch):
    cfg, _, straight = five_rounds
    out = str(tmp_path / "run")
    run_experiment(dataclasses.replace(cfg, rounds=2, output_dir=out))
    reads = []
    real = orchestrator.read_metrics_log

    def counting(out_dir):
        reads.append(out_dir)
        return real(out_dir)

    monkeypatch.setattr(orchestrator, "read_metrics_log", counting)
    run_experiment(dataclasses.replace(cfg, output_dir=out),
                   resume_from=_checkpoint(straight, 1))
    assert reads == [out]


# -- a malformed metrics.json -----------------------------------------------------------


def _write_run_config(path: str, cfg: ExperimentConfig) -> str:
    with open(path, "w") as f:
        json.dump(cfg.to_dict(), f)
    return path


def _record(**values) -> bytes:
    """A one-record metrics.json with values in place of a valid record's."""
    record = {"round": 0, "test_acc": 0.5, "test_loss": 1.0, "comm_bits_cum": 64.0,
              "flops_cum": 10.0, "sampled_ids": [0], "train_loss": {}}
    return json.dumps([{**record, **values}]).encode()


@pytest.mark.parametrize("raw", [b'[{"round": 0', b'{"a": 1}', b"", b"\xff[]",
                                 b'[{"round": 1}]', b"[5]",
                                 pytest.param(_record(test_acc="x"), id="test_acc-text"),
                                 pytest.param(_record(test_loss=[1]), id="test_loss-list"),
                                 pytest.param(b"[" * 200_000 + b"]" * 200_000,
                                              id="deeply-nested")])
def test_malformed_metrics_exits_3_before_any_round(tmp_path, capsys, monkeypatch, raw):
    out = tmp_path / "run"
    out.mkdir()
    (out / "metrics.json").write_bytes(raw)
    path = _write_run_config(str(tmp_path / "cfg.json"), _cfg(output_dir=str(out)))
    monkeypatch.setattr(orchestrator, "run_round",
                        lambda *args: pytest.fail("a round trained"))
    assert cli.main(["run", "--config", path]) == 3
    assert "i/o error" in capsys.readouterr().err
    assert (out / "metrics.json").read_bytes() == raw


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """(config path, run directory, final checkpoint, metrics.json bytes) of a
    3-round run; resuming from its checkpoint trains no round."""
    root = tmp_path_factory.mktemp("metrics-fuzz")
    out = str(root / "run")
    cfg = _cfg(rounds=3, eval_every=1, output_dir=out)
    run_experiment(cfg)
    with open(os.path.join(out, "metrics.json"), "rb") as f:
        raw = f.read()
    return _write_run_config(str(root / "cfg.json"), cfg), out, _checkpoint(out, 3), raw


def _resume_with(finished_run, raw: bytes) -> int:
    """Exit code of resuming the finished run with metrics.json set to raw."""
    path, out, checkpoint, _ = finished_run
    with open(os.path.join(out, "metrics.json"), "wb") as f:
        f.write(raw)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["run", "--config", path, "--resume", checkpoint])


def test_resume_with_intact_metrics_exits_0(finished_run):
    assert _resume_with(finished_run, finished_run[3]) == 0


@_fuzz
@given(data=st.data())
def test_truncated_metrics_exit_3(finished_run, data):
    raw = finished_run[3]
    assert _resume_with(finished_run, raw[:data.draw(st.integers(0, len(raw) - 1))]) == 3


@_fuzz
@given(data=st.data())
def test_flipped_metrics_byte_never_exits_2(finished_run, data):
    raw = finished_run[3]
    i = data.draw(st.integers(0, len(raw) - 1), label="offset")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[i]), label="byte")
    flipped = raw[:i] + bytes([byte]) + raw[i + 1:]
    try:
        json.loads(flipped.decode())
        parses = True
    except ValueError:
        parses = False
    # a flip inside a number or a name may leave a valid file, and that resumes
    assert _resume_with(finished_run, flipped) in ((0, 3) if parses else (3,))


# values RoundMetrics.from_dict cannot read, by key
_BAD_VALUES = {
    "round": [None, "1", "7", 1.0, True, -1, [1]],
    "test_acc": ["x", [1], {}, True, float("nan"), float("inf"), 10 ** 400],
    "test_loss": ["x", [1], {}, False, float("nan"), float("-inf")],
    "comm_bits_cum": [None, "x", [1.0], {}, "64.0", True, float("nan"), float("inf"),
                      10 ** 400],
    "flops_cum": [None, "x", [1.0], {}, "1", True, float("-inf")],
    "sampled_ids": [None, 5, [None], ["x"], [[1]], [True], [1.0], "01", [-3, 0],
                    [0, 1, -2]],
    "train_loss": [[], 5, "x", {"x": 1.0}, {"1": None}, {"1": "x"}, {"1": "0.5"},
                   {"1": True}, {"1": [0.5]}, {"1": 10 ** 400}, {"01": 0.5},
                   {" 2": 0.25}, {"-1": 0.1}, {"+1": 0.5}, {"7": 0.5}],
}


@_fuzz
@given(data=st.data())
def test_edited_metrics_exit_3(finished_run, data):
    records = json.loads(finished_run[3])
    i = data.draw(st.integers(0, len(records) - 1), label="record")
    edit = data.draw(st.sampled_from(["value", "missing", "record", "order", "top"]))
    if edit == "value":
        key = data.draw(st.sampled_from(sorted(_BAD_VALUES)), label="key")
        records[i][key] = data.draw(st.sampled_from(_BAD_VALUES[key]), label="value")
    elif edit == "missing":
        del records[i][data.draw(st.sampled_from(
            ["round", "test_acc", "test_loss", "comm_bits_cum", "flops_cum",
             "sampled_ids"]), label="key")]
    elif edit == "record":
        records[i] = data.draw(st.sampled_from([None, 5, "x", [], [records[i]]]))
    elif edit == "order":  # an earlier record's round: repeated or descending
        i = max(i, 1)
        records[i]["round"] = records[data.draw(st.integers(0, i - 1))]["round"]
    else:
        records = data.draw(st.sampled_from([{"a": 1}, 5, "x", None,
                                             {"round": 0}]))
    assert _resume_with(finished_run, json.dumps(records, indent=1).encode()) == 3


# -- --override strings ------------------------------------------------------------------


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return _write_run_config(str(tmp_path_factory.mktemp("override") / "cfg.json"), _cfg())


def _float_values(cfg) -> list:
    """The value of every float field of a config and its nested configs."""
    hints = typing.get_type_hints(type(cfg))
    out = []
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if dataclasses.is_dataclass(v):
            out += _float_values(v)
        elif hints[f.name] in (float, float | None) and v is not None:
            out.append(v)
    return out


def _config_or_config_error(path: str, spec: str) -> None:
    """from_json_file with one override returns a config whose float fields
    all convert to float, or raises ConfigError; any other exception fails
    the test."""
    try:
        cfg = ExperimentConfig.from_json_file(path, [spec])
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
    for v in _float_values(cfg):
        float(v)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8)
    | st.integers() | st.sampled_from([10 ** 400, -(10 ** 400)]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


@_fuzz
@given(spec=st.text())
def test_any_override_text_gives_a_config_or_a_config_error(config_path, spec):
    _config_or_config_error(config_path, spec)


@_fuzz
@given(key=st.sampled_from(sorted(_config_keys(_cfg()) | {"method", "dataset", "model"})),
       value=_JSON_VALUES)
@example(key="learning_rate", value=10 ** 400)  # an int no float can hold
def test_any_json_value_of_a_config_key_gives_a_config_or_a_config_error(
        config_path, key, value):
    _config_or_config_error(config_path, f"{key}={json.dumps(value)}")


def test_run_experiment_outputs(tmp_path):
    out = str(tmp_path / "run")
    cfg = _cfg(rounds=3, eval_every=2, output_dir=out)
    state, metrics = run_experiment(cfg)
    assert state.round_idx == 3 and len(metrics) == 3
    echoed = json.load(open(os.path.join(out, "config_echo.json")))
    assert ExperimentConfig.from_dict(echoed) == cfg
    assert read_metrics_log(out).rounds == [0, 1, 2]
    ckpts = sorted(os.listdir(os.path.join(out, "checkpoints")))
    assert ckpts == ["round_0002.ckpt", "round_0003.ckpt"]


def test_full_determinism_and_seed_sensitivity():
    s1, m1 = run_experiment(_cfg())
    s2, m2 = run_experiment(_cfg())
    assert np.array_equal(s1.global_vector.data, s2.global_vector.data)
    assert [m.to_dict() for m in m1] == [m.to_dict() for m in m2]
    s3, _ = run_experiment(_cfg(seed=8))
    assert not np.array_equal(s1.global_vector.data, s3.global_vector.data)


@pytest.mark.parametrize("method", ["moon", "gradaug"])
def test_parallel_matches_serial_bitwise(method):
    # the round loop builds each task's generators and pickles them to the
    # workers: moon draws only batch order, gradaug also draws every step
    cfg_serial = _cfg(rounds=2, method=MethodConfig(method=method))
    cfg_par = _cfg(rounds=2, workers=2, method=MethodConfig(method=method))
    s_serial, m_serial = run_experiment(cfg_serial)
    s_par, m_par = run_experiment(cfg_par)
    assert np.array_equal(s_serial.global_vector.data, s_par.global_vector.data)
    assert [m.to_dict() for m in m_serial] == [m.to_dict() for m in m_par]


def test_two_workers_train_contiguous_chunks_as_the_serial_round_does(monkeypatch):
    # five clients over two workers: chunks of two and three clients, each
    # trained in lockstep in its worker, give the serial round's every byte
    cfg = _cfg(rounds=2, num_clients=5, method=MethodConfig(method="fedalign"))
    s_serial, m_serial = run_experiment(cfg)
    s_par, m_par = run_experiment(dataclasses.replace(cfg, workers=2))
    assert s_serial.global_vector.data.tobytes() == s_par.global_vector.data.tobytes()
    assert [m.to_dict() for m in m_serial] == [m.to_dict() for m in m_par]

    chunks = []

    class InProcessPool:
        def __init__(self, max_workers):
            pass

        def map(self, fn, tasks):
            tasks = list(tasks)
            chunks.append([[t.client_id for t in chunk] for chunk in tasks])
            return map(fn, tasks)

        def shutdown(self):
            pass

    monkeypatch.setattr(orchestrator, "ProcessPoolExecutor", InProcessPool)
    run_experiment(dataclasses.replace(cfg, workers=2))
    assert chunks == [[[0, 1], [2, 3, 4]]] * 2


@pytest.mark.parametrize("workers,fraction,started", [
    (64, 1.0, [3]), (2, 1.0, [2]), (64, 0.5, [2]), (64, 0.3, [])])
def test_pool_is_capped_at_the_clients_sampled_per_round(monkeypatch, workers,
                                                         fraction, started):
    # 3 clients; a fraction of 0.3 samples one a round, which trains in process
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def map(self, fn, tasks):
            return map(fn, tasks)

        def shutdown(self):
            pass

    monkeypatch.setattr(orchestrator, "ProcessPoolExecutor", RecordingPool)
    run_experiment(_cfg(rounds=1, workers=workers, sample_fraction=fraction))
    assert pools == started
