"""Shortened runs of every benchmark workload must pass the workload's checks.

Each workload is cut down (fewer rounds, probes and grid points) by
subclassing, runs one untraced and one traced pass, and must end both with
the same parameters and with no check failures. Together the traced passes
must exercise every per-layer metric BENCHMARK.json names.
"""
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import fedsim  # noqa: E402
import fedsim.cli  # noqa: E402,F401
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

SHORT = {
    "c9-sweep": type("ShortC9", (wl.C9Sweep,), {
        "FULL_ROUNDS": 2, "SHORT_ROUNDS": 1,
        "EIGEN": {"k": 2, "iters": 5, "seed": 1234}}),
    "many-rounds": type("ShortMany", (wl.ManyRounds,), {"ROUNDS": 6, "RESUME_AT": 3}),
    "diagnose": type("ShortDiagnose", (wl.Diagnose,), {
        "ROUNDS": 2, "OPTIONS": ("--probes", "3", "--grid", "3")}),
    "conv-train": type("ShortConv", (wl.ConvTrain,), {"ROUNDS": 2}),
}

_layer_totals: dict[str, float] = {}


def test_every_workload_has_a_short_form():
    assert sorted(SHORT) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(SHORT))
def test_short_workload_passes_its_checks(name, tmp_path):
    w = SHORT[name](fedsim, 3, str(tmp_path))
    w.setup()
    plain = w.run_pass()
    originals = (fedsim.methods.gradients, fedsim.models.BlockNet.forward,
                 fedsim.tensor.Tensor.__init__)
    tracer = Tracer(fedsim)
    tracer.install()
    try:
        traced = w.run_pass()
    finally:
        tracer.uninstall()
    assert w.check(traced) == []
    assert traced.digest == plain.digest, "tracing changed the trajectory"
    assert (traced.attempted, traced.failed) == (plain.attempted, plain.failed)
    assert plain.attempted >= 1
    assert (fedsim.methods.gradients, fedsim.models.BlockNet.forward,
            fedsim.tensor.Tensor.__init__) == originals, "uninstall left wrappers behind"
    for key, value in tracer.values([m["name"] for m in SPEC["per_layer"]], 1).items():
        _layer_totals[key] = _layer_totals.get(key, 0.0) + value


def test_every_layer_metric_is_exercised():
    if len(_layer_totals) == 0:
        pytest.skip("needs the workload tests in the same session")
    idle = [k for k, v in _layer_totals.items() if v <= 0 and k != "trace.overhead_s"]
    assert idle == []


def test_reference_forward_matches_blocknet():
    rng = np.random.default_rng(0)
    for shape, widths in (((16,), (16, 16)), ((3, 8, 8), (4, 8))):
        spec = fedsim.models.BlockNetSpec(input_shape=shape, num_classes=5, widths=widths)
        net = fedsim.models.BlockNet(spec, rng=rng)
        x = rng.standard_normal((7,) + shape)
        got = ref.forward({k: p.data for k, p in net.params.items()}, widths, x)
        assert np.allclose(got, net.forward(x).data, rtol=1e-12, atol=1e-12)


def test_checkpoint_reader_round_trips(tmp_path):
    cfg = fedsim.orchestrator.ExperimentConfig.from_dict(wl.c9_dict("moon", rounds=1))
    state, _ = fedsim.orchestrator.run_experiment(cfg)
    path = str(tmp_path / "c.ckpt")
    fedsim.orchestrator.save_checkpoint(path, state)
    manifest, arrays, weights = ref.read_checkpoint(path)
    assert manifest["round"] == 1
    assert arrays["global"].tobytes() == state.global_vector.data.tobytes()
    assert len(arrays) == 1 + len(state.prev_client_vectors)
    for name, p in state.model.params.items():
        assert weights[name].tobytes() == p.data.tobytes()
