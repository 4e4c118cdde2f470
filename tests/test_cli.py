"""End-to-end command-line behavior and exit codes."""
import json
import math
import os

import numpy as np
import pytest

from fedsim import cli, hessian
from fedsim.cli import _DIAG_GLOBAL, _derive_seed, _probe_batch, main
from fedsim.methods import METHODS, count_cost
from fedsim.orchestrator import (ExperimentConfig, comm_cost, load_checkpoint,
                                 read_metrics_log)

BASE = {
    "rounds": 1, "num_clients": 3, "local_epochs": 1, "batch_size": 8,
    "learning_rate": 0.05, "seed": 7,
    "dataset": {"num_classes": 3, "dims": [8], "samples_per_class": 12,
                "separation": 3.0, "test_fraction": 0.5},
    "model": {"widths": [6, 6]},
}


def _write_cfg(tmp_path, name="cfg.json", **kw):
    d = dict(BASE)
    d.update(kw)
    path = str(tmp_path / name)
    with open(path, "w") as f:
        json.dump(d, f)
    return path


# -- run ------------------------------------------------------------------------------


def test_run_writes_outputs(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = _write_cfg(tmp_path, output_dir=out)
    assert main(["run", "--config", cfg]) == 0
    printed = capsys.readouterr().out
    assert "completed 1/1 rounds" in printed
    assert "test_acc=" in printed
    assert os.path.exists(os.path.join(out, "metrics.csv"))
    assert os.path.exists(os.path.join(out, "config_echo.json"))
    assert os.path.exists(os.path.join(out, "checkpoints", "round_0001.ckpt"))


def test_run_overrides_reach_the_config(tmp_path):
    out = str(tmp_path / "out")
    cfg = _write_cfg(tmp_path)
    code = main(["run", "--config", cfg,
                 "--override", "method.method=fedprox",
                 "--override", "learning_rate=0.1",
                 "--override", f"output_dir={out}"])
    assert code == 0
    echoed = ExperimentConfig.from_dict(
        json.load(open(os.path.join(out, "config_echo.json"))))
    assert echoed.method.method == "fedprox"
    assert echoed.learning_rate == 0.1


def test_run_resume_extends_metrics(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg2 = _write_cfg(tmp_path, "a.json", rounds=2, output_dir=out)
    assert main(["run", "--config", cfg2]) == 0
    ckpt = os.path.join(out, "checkpoints", "round_0002.ckpt")
    cfg4 = _write_cfg(tmp_path, "b.json", rounds=4, output_dir=out)
    assert main(["run", "--config", cfg4, "--resume", ckpt]) == 0
    assert "completed 4/4 rounds" in capsys.readouterr().out
    assert read_metrics_log(out).rounds == [0, 1, 2, 3]


def test_moon_trains_through_a_zero_norm_representation(tmp_path, capsys):
    # this narrow projection head maps some inputs to all-zero rows, whose
    # cosine is 0 under the norm floor rather than an error
    path = str(tmp_path / "moon.json")
    with open(path, "w") as f:
        json.dump({"num_clients": 3, "method": {"method": "moon"},
                   "dataset": {"num_classes": 4, "dims": [8], "samples_per_class": 10},
                   "model": {"widths": [4, 4], "projection_dim": 8}}, f)
    assert main(["run", "--config", path]) == 0
    assert "completed 20/20 rounds" in capsys.readouterr().out


def test_run_error_exit_codes(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 3

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["run", "--config", str(bad_json)]) == 1

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert main(["run", "--config", str(not_object)]) == 1

    # json raises RecursionError and a plain ValueError for these
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["run", "--config", str(deep)]) == 1
    long_int = tmp_path / "long.json"
    long_int.write_text('{"seed": ' + "1" * 5000 + "}")
    assert main(["run", "--config", str(long_int)]) == 1

    unknown = _write_cfg(tmp_path, "unknown.json", zzz=1)
    assert main(["run", "--config", unknown]) == 1

    cfg = _write_cfg(tmp_path)
    assert main(["run", "--config", cfg, "--override", "rounds"]) == 1
    assert main(["run", "--config", cfg, "--override",
                 "learning_rate.x=1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("override", [
    "rounds=2.5", "method.n_subnets=1.5", "model.widths=[0,8]",
    "model.projection_dim=0", "seed=-1", "num_clients=true", "dataset.dims=[8.5]",
    "dataset.samples_per_class=0", "dataset.test_fraction=1.5",
    "num_clients=40",  # 36 samples, 18 of them for training
    "dataset.dims=[2]",  # fewer dims than the 3 classes
    "dataset.dims=[4,4]", "dataset.dims=[2,2,2,2]",  # neither features nor (C, H, W)
    "learning_rate=NaN", "dataset.separation=NaN", "clip_norm=Infinity",
    "method.power_iters=20", "method.lip_epsilon=1e-8",  # constants, no longer keys
    pytest.param("rounds=" + "[" * 20_000, id="rounds=deeply-nested"),
    pytest.param("seed=" + "1" * 5000, id="seed=5000-digits"),
    # 10**400: an int no float can hold
    pytest.param(f"learning_rate={10 ** 400}", id="learning_rate=401-digits"),
    pytest.param(f"alpha={10 ** 400}", id="alpha=401-digits"),
])
def test_run_rejects_bad_values_before_any_output(tmp_path, capsys, override):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, output_dir=str(out))
    assert main(["run", "--config", cfg, "--override", override]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(b'{"seed": "\xff", "output_dir": "' + str(out).encode() + b'"}')
    assert main(["run", "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def _corrupt_trailing_bytes(manifest, payload):
    return manifest, payload + b"\0" * 4


def _corrupt_no_layout(manifest, payload):
    del manifest["layout"]
    return manifest, payload


def _corrupt_short_global(manifest, payload):
    (entry,) = manifest["arrays"]  # a fedavg checkpoint holds the global array only
    entry["length"] -= 4
    return manifest, payload[:-4 * 8]


def _corrupt_prev_client_name(manifest, payload):
    manifest["arrays"][1]["name"] = "prev_client_x"  # the moon run's first client
    return manifest, payload


@pytest.mark.parametrize("method, corrupt", [
    ("fedavg", _corrupt_trailing_bytes), ("fedavg", _corrupt_no_layout),
    ("fedavg", _corrupt_short_global), ("moon", _corrupt_prev_client_name),
], ids=["trailing-bytes", "no-layout", "short-global", "prev-client-name"])
def test_resume_rejects_a_malformed_checkpoint(tmp_path, capsys, method, corrupt):
    out = str(tmp_path / "out")
    cfg = _write_cfg(tmp_path, "a.json", rounds=1, output_dir=out,
                     method={"method": method})
    assert main(["run", "--config", cfg]) == 0
    ckpt = os.path.join(out, "checkpoints", "round_0001.ckpt")
    with open(ckpt, "rb") as f:
        manifest, payload = json.loads(f.readline()), f.read()
    manifest, payload = corrupt(manifest, payload)
    bad = str(tmp_path / "bad.ckpt")
    with open(bad, "wb") as f:
        f.write(json.dumps(manifest).encode() + b"\n" + payload)
    capsys.readouterr()
    assert main(["run", "--config", cfg, "--resume", bad]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "checkpoint" in err


def test_resume_rejects_a_flipped_or_v1_checkpoint(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = _write_cfg(tmp_path, "a.json", rounds=1, output_dir=out)
    assert main(["run", "--config", cfg]) == 0
    with open(os.path.join(out, "checkpoints", "round_0001.ckpt"), "rb") as f:
        raw = f.read()
    bad = tmp_path / "bad.ckpt"
    flipped = bytearray(raw)
    flipped[-5] ^= 0x01  # one bit of the last payload value
    bad.write_bytes(bytes(flipped))
    capsys.readouterr()
    assert main(["run", "--config", cfg, "--resume", str(bad)]) == 3
    assert "sha256" in capsys.readouterr().err

    header, payload = raw.split(b"\n", 1)
    manifest = json.loads(header)
    del manifest["sha256"]
    manifest["version"] = 1
    bad.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
    assert main(["run", "--config", cfg, "--resume", str(bad)]) == 3
    assert "version 1 is not supported" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["run"]) == 1  # --config is required
    assert main(["run", "--config", "x", "--bogus"]) == 1
    capsys.readouterr()


# -- diagnose -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("diag")
    out = str(tmp_path / "out")
    cfg = _write_cfg(tmp_path, rounds=1, output_dir=out)
    assert main(["run", "--config", cfg]) == 0
    return cfg, os.path.join(out, "checkpoints", "round_0001.ckpt"), out


def test_diagnose_all_clients(finished_run, tmp_path, capsys):
    cfg, ckpt, _ = finished_run
    out = str(tmp_path / "diag_out")
    code = main(["diagnose", "--checkpoint", ckpt, "--config", cfg,
                 "--out", out, "--probes", "8", "--grid", "3",
                 "--radius", "0.5"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "global: lambda_max=" in printed
    assert "cross-client: norm_gap=" in printed

    diag = os.path.join(out, "diagnostics")
    for name in ("global.json", "client_0.json", "client_1.json",
                 "client_2.json", "cross_client.json"):
        assert os.path.exists(os.path.join(diag, name)), name
    # each report line ends with the eigen solve's convergence flags
    for prefix, name in (("global", "global.json"), ("client 0", "client_0.json"),
                         ("client 1", "client_1.json"), ("client 2", "client_2.json")):
        flags = json.load(open(os.path.join(diag, name)))["eigen_converged"]
        line = [ln for ln in printed.splitlines() if ln.startswith(prefix + ":")]
        assert len(line) == 1, prefix
        assert line[0].endswith(f" converged={flags}")
    g = json.load(open(os.path.join(diag, "global.json")))
    assert len(g["top_eigenvalues"]) == 2
    assert g["num_probes"] == 8
    cross = json.load(open(os.path.join(diag, "cross_client.json")))
    assert len(cross["per_pair"]) == 3

    lines = open(os.path.join(out, "landscape.csv")).read().splitlines()
    assert lines[0] == "alpha,beta,loss"
    assert len(lines) == 1 + 9
    cells = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.all(np.isfinite(cells))
    center = cells[(cells[:, 0] == 0.0) & (cells[:, 1] == 0.0)]
    assert len(center) == 1


def test_diagnose_does_each_curvature_solve_once(finished_run, tmp_path,
                                                monkeypatch, capsys):
    cfg, ckpt, _ = finished_run
    counts = {"solves": 0, "hvp_calls": 0, "hvps": 0, "hvps_in_solves": 0,
              "gradients": 0}
    real_hvp, real_solve, real_gradients = (hessian.hvp, hessian.top_eigenpairs,
                                            hessian.gradients)
    solving = []

    def counting_hvp(lin, v):
        products = 1 if np.ndim(v) == 1 else len(v)  # a block's rows are products
        counts["hvp_calls"] += 1
        counts["hvps"] += products
        counts["hvps_in_solves"] += products * bool(solving)
        return real_hvp(lin, v)

    def counting_gradients(*args, **kwargs):
        counts["gradients"] += 1
        return real_gradients(*args, **kwargs)

    def counting_solve(*args, **kwargs):
        counts["solves"] += 1
        solving.append(True)
        try:
            return real_solve(*args, **kwargs)
        finally:
            solving.pop()

    monkeypatch.setattr(hessian, "hvp", counting_hvp)
    monkeypatch.setattr(hessian, "top_eigenpairs", counting_solve)
    monkeypatch.setattr(hessian, "gradients", counting_gradients)
    assert main(["diagnose", "--checkpoint", ckpt, "--config", cfg,
                 "--out", str(tmp_path / "counted"), "--probes", "8",
                 "--grid", "3"]) == 0
    capsys.readouterr()
    reports = 1 + BASE["num_clients"]  # global plus every client
    # one eigen solve per probe batch: the landscape reuses the global one
    assert counts["solves"] == reports
    # one probe pass per report gives both the diagonal and the trace
    assert counts["hvps"] - counts["hvps_in_solves"] == reports * 8
    # one gradient per hvp call, a stacked block of products or a single
    # one, plus the one linearization each report shares
    assert counts["gradients"] == counts["hvp_calls"] + reports
    assert counts["hvp_calls"] < counts["hvps"]  # the probes went in blocks


def test_diagnose_outputs_agree_with_direct_calls(finished_run, tmp_path, capsys):
    cfg, ckpt, _ = finished_run
    out = str(tmp_path / "agree")
    assert main(["diagnose", "--checkpoint", ckpt, "--config", cfg, "--out", out,
                 "--probes", "8", "--grid", "3", "--radius", "0.5"]) == 0
    capsys.readouterr()
    diag = os.path.join(out, "diagnostics")
    names = ["global.json"] + [f"client_{i}.json" for i in range(BASE["num_clients"])]
    for name in names:
        rep = json.load(open(os.path.join(diag, name)))
        total = math.fsum(rep["diagonal"])
        assert abs(rep["trace_estimate"] - total) <= 1e-9 * abs(total), name

    # a slice along eigenpairs solved directly on the same model, batch and seed
    config = ExperimentConfig.from_json_file(cfg)
    state = load_checkpoint(ckpt, config)
    batch = _probe_batch(state.test.inputs, state.test.labels,
                         (config.seed, _DIAG_GLOBAL))
    _, (d1, d2), _ = hessian.top_eigenpairs(
        state.model, hessian.ce_loss_fn, batch, k=2,
        seed=_derive_seed((config.seed, _DIAG_GLOBAL)))
    alphas, betas, losses = hessian.landscape_slice(
        state.model, hessian.ce_loss_fn, batch, d1, d2, grid=3, radius=0.5)
    want = "alpha,beta,loss\n" + "".join(
        f"{float(a)!r},{float(b)!r},{float(losses[i, j])!r}\n"
        for i, a in enumerate(alphas) for j, b in enumerate(betas))
    with open(os.path.join(out, "landscape.csv"), "rb") as f:
        assert f.read() == want.encode()


def test_diagnose_skips_a_client_with_a_zero_diagonal(finished_run, tmp_path,
                                                      capsys, monkeypatch):
    real = cli.hessian_report
    calls = []

    def zero_client_1(*args, **kwargs):
        rep = real(*args, **kwargs)
        calls.append(rep)
        if len(calls) == 3:  # global, client 0, client 1
            rep.diagonal = np.zeros_like(rep.diagonal)
        return rep

    monkeypatch.setattr(cli, "hessian_report", zero_client_1)
    cfg, ckpt, _ = finished_run
    out = str(tmp_path / "zero")
    assert main(["diagnose", "--checkpoint", ckpt, "--config", cfg, "--out", out,
                 "--probes", "4", "--grid", "3"]) == 0
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("cross-client:")]
    assert len(line) == 1 and "skipped=[1]" in line[0]
    cross = json.load(open(os.path.join(out, "diagnostics", "cross_client.json")))
    assert cross["skipped"] == [1]
    assert [p["clients"] for p in cross["per_pair"]] == [[0, 2]]


def test_diagnose_client_subset(finished_run, tmp_path, capsys):
    cfg, ckpt, _ = finished_run
    out = str(tmp_path / "subset")
    code = main(["diagnose", "--checkpoint", ckpt, "--config", cfg,
                 "--clients", "1", "--out", out, "--probes", "4",
                 "--grid", "3"])
    assert code == 0
    assert "skipped" in capsys.readouterr().out
    diag = os.path.join(out, "diagnostics")
    assert os.path.exists(os.path.join(diag, "client_1.json"))
    assert not os.path.exists(os.path.join(diag, "client_0.json"))
    assert not os.path.exists(os.path.join(diag, "cross_client.json"))


def test_diagnose_error_exit_codes(finished_run, tmp_path, capsys):
    cfg, ckpt, _ = finished_run
    assert main(["diagnose", "--checkpoint", str(tmp_path / "no.ckpt"),
                 "--config", cfg]) == 3
    assert main(["diagnose", "--checkpoint", ckpt, "--config", cfg,
                 "--clients", "7"]) == 1
    assert main(["diagnose", "--checkpoint", ckpt, "--config", cfg,
                 "--clients", "zebra"]) == 1
    other = _write_cfg(tmp_path, "other.json", seed=8)
    assert main(["diagnose", "--checkpoint", ckpt, "--config", other]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("flags", [
    ("--probes", "0"), ("--grid", "4"), ("--grid", "1"), ("--radius", "-1"),
    ("--radius", "inf"),
])
def test_diagnose_rejects_bad_flags_before_loading(finished_run, tmp_path, capsys,
                                                   flags):
    cfg, ckpt, _ = finished_run
    out = tmp_path / "bad_flags"
    assert main(["diagnose", "--checkpoint", ckpt, "--config", cfg,
                 "--out", str(out), *flags]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (out / "diagnostics").exists()


# -- partition ------------------------------------------------------------------------


def test_partition_synthetic_stdout(capsys):
    assert main(["partition", "--labels", "synthetic:4x25", "--clients", "4",
                 "--alpha", "1000000", "--seed", "0"]) == 0
    captured = capsys.readouterr()
    part = json.loads(captured.out)
    covered = np.sort(np.concatenate(part["assignments"]))
    assert np.array_equal(covered, np.arange(100))
    assert "clients=4" in captured.err


def test_partition_to_file_and_label_files(tmp_path, capsys):
    out = str(tmp_path / "part.json")
    npy = str(tmp_path / "labels.npy")
    np.save(npy, np.array([0, 0, 1, 1, 2, 2, 0, 1, 2, 0]))
    assert main(["partition", "--labels", npy, "--clients", "2",
                 "--alpha", "0.5", "--seed", "3", "--out", out]) == 0
    part = json.loads(open(out).read())
    assert len(part["assignments"]) == 2
    assert sum(len(a) for a in part["assignments"]) == 10

    txt = str(tmp_path / "labels.txt")
    with open(txt, "w") as f:
        f.write("0\n1\n0\n1\n")
    assert main(["partition", "--labels", txt, "--clients", "2",
                 "--alpha", "10", "--seed", "0"]) == 0
    capsys.readouterr()


def test_partition_error_exit_codes(tmp_path, capsys):
    assert main(["partition", "--labels", "synthetic:4x", "--clients", "2",
                 "--alpha", "1", "--seed", "0"]) == 1
    assert main(["partition", "--labels", str(tmp_path / "nope.txt"),
                 "--clients", "2", "--alpha", "1", "--seed", "0"]) == 3
    bad = str(tmp_path / "frac.txt")
    with open(bad, "w") as f:
        f.write("0.5\n1.5\n")
    assert main(["partition", "--labels", bad, "--clients", "2",
                 "--alpha", "1", "--seed", "0"]) == 1
    assert main(["partition", "--labels", "synthetic:3x10", "--clients", "0",
                 "--alpha", "1", "--seed", "0"]) == 1
    for alpha in ("nan", "inf"):
        assert main(["partition", "--labels", "synthetic:3x10", "--clients", "2",
                     "--alpha", alpha, "--seed", "0"]) == 1, alpha
    # unparsable text, truncated, ragged, too deep or non-numeric JSON, and a
    # .npy that is no array
    for name, content in (("abc.txt", "abc\n"), ("cut.json", "[1, 2"),
                          ("ragged.json", "[[0,1],[2]]"), ("junk.npy", "garbage"),
                          ("deep.json", "[" * 200_000 + "]" * 200_000),
                          ("object.json", '{"a": 1}'), ("strings.json", '["a", "b"]'),
                          ("null.json", "[null, 1]")):
        path = str(tmp_path / name)
        with open(path, "w") as f:
            f.write(content)
        assert main(["partition", "--labels", path, "--clients", "2",
                     "--alpha", "1", "--seed", "0"]) == 1, name
    capsys.readouterr()


# -- cost -----------------------------------------------------------------------------


def _parse_kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        k, _, v = line.partition(" ")
        pairs[k] = v
    return pairs


def test_cost_reports_model_and_comm(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    assert main(["cost", "--config", cfg_path, "--rounds", "10"]) == 0
    got = _parse_kv(capsys.readouterr().out)
    cfg = ExperimentConfig.from_dict(json.loads(open(cfg_path).read()))
    flops, params = count_cost(cfg.model_spec(), cfg.method)
    assert int(got["params"]) == params
    assert got["method"] == "fedavg"
    assert float(got["flops_ratio_vs_fedavg"]) == 1.0
    assert int(got["clients_per_round"]) == 3
    assert float(got["comm_bits"]) == pytest.approx(params * 32.0 * 3 * 10,
                                                    rel=1e-6)


@pytest.mark.parametrize("fraction", [1.0, 0.5])
@pytest.mark.parametrize("method", METHODS)
def test_cost_prices_what_a_run_sends(tmp_path, capsys, monkeypatch, method, fraction):
    # fedsim cost --rounds R prices the bits an R-round run accumulates,
    # compared unrounded: the priced value is read off cli.comm_cost
    rounds = 2
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, rounds=rounds, sample_fraction=fraction,
                     method={"method": method}, output_dir=str(out))
    assert main(["run", "--config", cfg]) == 0
    priced = []

    def spy(*args):
        priced.append(comm_cost(*args))
        return priced[-1]

    monkeypatch.setattr(cli, "comm_cost", spy)
    assert main(["cost", "--config", cfg, "--rounds", str(rounds)]) == 0
    capsys.readouterr()
    with open(out / "metrics.json") as f:
        assert priced == [json.load(f)[-1]["comm_bits_cum"]]


def test_cost_moon_ratio_exceeds_one(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, method={"method": "moon"})
    assert main(["cost", "--config", cfg, "--rounds", "1"]) == 0
    got = _parse_kv(capsys.readouterr().out)
    assert float(got["flops_ratio_vs_fedavg"]) > 2.5


def test_cost_rejects_negative_rounds(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["cost", "--config", cfg, "--rounds", "-1"]) == 1
    capsys.readouterr()
