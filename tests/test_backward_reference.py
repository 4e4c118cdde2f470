"""tensor.gradients against the id()-keyed reference backward, bit for bit.

Gradients summed in another order differ in their last bits, and criterion
9's trajectories amplify that. Each case builds one graph, runs the
reference bookkeeping on it (tests/helpers.py), then tensor.gradients, and
requires every gradient byte to agree. The fused block ops (normalize,
add_relu) are also held to the bytes of their composed forms.
"""
import itertools

import numpy as np
import pytest

from fedsim.methods import METHOD_TABLE, ClientTask, MethodConfig
from fedsim.models import BlockNet, BlockNetSpec
from fedsim.orchestrator import DatasetConfig, ExperimentConfig, ModelConfig, build_state
from fedsim.tensor import (Tensor, add_relu, gradients, load_vector, normalize,
                           params_to_vector, slice_axis, sqrt)

from helpers import composed_add_relu, composed_normalize, reference_gradients

# criterion 9's dense model and its batch size
C9_DATASET = DatasetConfig(num_classes=8, dims=(16,), samples_per_class=80,
                           separation=2.5, test_fraction=0.5)
C9_MODEL = ModelConfig(widths=(16, 16), projection_dim=32)
# the conv-train benchmark's stride-2 conv BlockNet
CONV_SPEC = BlockNetSpec(input_shape=(3, 12, 12), num_classes=8, widths=(8, 16),
                         projection_dim=32)


def _assert_bitwise(loss, params):
    want = reference_gradients(loss, params)
    got = gradients(loss, params)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def _one_step_loss(method, model, x, y, seed=5):
    config = (MethodConfig(method="fedalign", mu=0.12) if method == "fedalign"
              else MethodConfig(method=method))
    vec = params_to_vector(model.params)
    task = ClientTask(client_id=0, round_idx=0, method=config, spec=model.spec,
                      inputs=x, labels=y, received=vec, prev=vec,
                      data_rng=np.random.default_rng([seed, 0]),
                      method_rng=np.random.default_rng([seed, 1]),
                      epochs=1, batch_size=len(x), learning_rate=0.05,
                      momentum=0.9, clip_norm=5.0)
    rec = METHOD_TABLE[method]
    shadows = None
    if rec.contrastive:
        shadows = tuple(BlockNet(model.spec, with_projection=True, requires_grad=False)
                        for _ in range(2))
        for shadow in shadows:
            load_vector(shadow.params, vec)
    loss, _ = rec.step(model, task, x, y, shadows)
    return loss


@pytest.mark.parametrize("method", list(METHOD_TABLE))
def test_every_method_step_on_the_criterion_9_model(method):
    config = ExperimentConfig(num_clients=8, alpha=0.1, seed=0, batch_size=16,
                              method=MethodConfig(method=method),
                              dataset=C9_DATASET, model=C9_MODEL)
    state = build_state(config)
    idx = state.partition.assignments[0][:16]
    x, y = state.train.inputs[idx], state.train.labels[idx]
    model = state.model
    # move off the initial point, where norm scales are 1 and shifts 0
    rng = np.random.default_rng(1)
    for p in model.params.values():
        p.data = p.data + rng.normal(0.0, 0.1, p.data.shape)
    _assert_bitwise(_one_step_loss(method, model, x, y), model.params)


@pytest.mark.parametrize("method", ["fedalign", "gradaug"])
def test_conv_blocknet_steps(method):
    rng = np.random.default_rng(3)
    model = BlockNet(CONV_SPEC, rng=rng)
    x = rng.normal(size=(8,) + CONV_SPEC.input_shape)
    y = rng.integers(0, CONV_SPEC.num_classes, size=8)
    _assert_bitwise(_one_step_loss(method, model, x, y), model.params)


def test_three_consumers_sum_in_backward_order():
    # h feeds three products; element 0's three contributions give a
    # different float sum in some orders, so only one order passes
    a = np.array([1e16, 1.0, 0.1])
    b = np.array([1.0, 1e16, 0.3])
    c = np.array([-1e16, -1e16, 0.7])
    sums = {((p + q) + r).tobytes() for p, q, r in itertools.permutations((a, b, c))}
    assert len(sums) > 1
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    h = x * 2.0
    loss = (h * Tensor(a)).sum() + (h * Tensor(b)).sum() + (h * Tensor(c)).sum()
    _assert_bitwise(loss, {"x": x})


def test_normalization_difference_with_three_consumers():
    # BlockNet._norm's d = x - mean feeds d*d (twice) and d / sqrt(var + eps)
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(16, 16)) * 1e3 + 1e5, requires_grad=True)
    scale = Tensor(rng.normal(size=(1, 16)), requires_grad=True)
    mu = x.mean(axis=(1,), keepdims=True)
    d = x - mu
    var = (d * d).mean(axis=(1,), keepdims=True)
    y = d / sqrt(var + 1e-5)
    loss = ((y * scale) * (y * scale)).mean()
    _assert_bitwise(loss, {"x": x, "scale": scale})


# (x shape, width of scale and shift); x's channel count below the width
# takes scale and shift through slice_axis, as a slimmed block does
NORM_CASES = {
    "dense": ((16, 16), 16),
    "dense-narrowed": ((16, 10), 16),
    "dense-batch-1": ((1, 12), 16),
    "conv": ((4, 8, 5, 5), 8),
    "conv-narrowed": ((4, 6, 5, 5), 8),
    "conv-1x1-map": ((3, 5, 1, 1), 8),
}


def _inputs(kind, shape, rng):
    if kind == "constant":
        return np.full(shape, 3.25)
    # a large common offset makes every reordered sum or product show
    return rng.normal(size=shape) * 1e3 + 1e5


def _assert_fused_matches_composed(fused, composed, leaves, rng):
    """Forward bytes, then reference_gradients bytes of one scalar loss on
    each output, then the library's backward on the fused graph."""
    assert fused.data.tobytes() == composed.data.tobytes()
    u = Tensor(rng.normal(size=fused.shape) * 1e2)
    losses = [(out * u).sum() + (out * out).mean() for out in (fused, composed)]
    got = reference_gradients(losses[0], leaves)
    want = reference_gradients(losses[1], leaves)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
    _assert_bitwise(losses[0], leaves)


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("kind", ["offset", "constant"])
@pytest.mark.parametrize("case", list(NORM_CASES))
def test_normalize_matches_composed_form(case, kind, relu):
    shape, width = NORM_CASES[case]
    rng = np.random.default_rng(11)
    x = Tensor(_inputs(kind, shape, rng), requires_grad=True)
    scale_p = Tensor(rng.normal(size=width), requires_grad=True)
    shift_p = Tensor(rng.normal(size=width), requires_grad=True)
    k = shape[1]
    scale, shift = ((scale_p, shift_p) if k == width else
                    (slice_axis(scale_p, 0, 0, k), slice_axis(shift_p, 0, 0, k)))
    fused = normalize(x, scale, shift, 1e-5, relu=relu)
    composed = composed_normalize(x, scale, shift, 1e-5, relu_after=relu)
    _assert_fused_matches_composed(
        fused, composed, {"x": x, "scale": scale_p, "shift": shift_p}, rng)


@pytest.mark.parametrize("relu", [False, True])
def test_normalize_gives_no_gradient_to_a_constant_parent(relu):
    rng = np.random.default_rng(12)
    x = Tensor(_inputs("offset", (8, 6, 3, 3), rng))
    scale = Tensor(rng.normal(size=6), requires_grad=True)
    shift = Tensor(rng.normal(size=6))
    fused = normalize(x, scale, shift, 1e-5, relu=relu)
    composed = composed_normalize(x, scale, shift, 1e-5, relu_after=relu)
    assert fused._backward(np.ones(fused.shape))[::2] == (None, None)
    _assert_fused_matches_composed(fused, composed, {"scale": scale}, rng)
    frozen = normalize(x, shift, shift, 1e-5, relu=relu)
    assert not frozen.requires_grad and frozen._backward is None


@pytest.mark.parametrize("kind", ["offset", "constant"])
@pytest.mark.parametrize("shape", [(16, 16), (4, 8, 5, 5)])
def test_add_relu_matches_composed_form(shape, kind):
    rng = np.random.default_rng(13)
    x = Tensor(_inputs(kind, shape, rng), requires_grad=True)
    w = Tensor(rng.normal(size=shape), requires_grad=True)
    # the skip is x itself, which also feeds h, as in a block of one width
    h = x * w - x * 1.5
    for skip in (x, Tensor(-x.data)):
        fused = add_relu(h, skip)
        composed = composed_add_relu(h, skip)
        _assert_fused_matches_composed(fused, composed, {"x": x, "w": w}, rng)


def test_add_relu_rejects_broadcasting():
    with pytest.raises(ValueError, match="one shape"):
        add_relu(Tensor(np.ones((4, 3))), Tensor(np.ones(3)))
