"""Residual nets: slimming identities, stochastic depth, analytic cost counts."""
import numpy as np
import pytest

from fedsim import models
from fedsim.models import (BlockNet, BlockNetSpec, keep_probability, layer_cost,
                           model_params, slim_width)
from fedsim.methods import MethodConfig, count_cost
from fedsim.tensor import (ParamVector, Tensor, gradients, load_vector,
                           params_to_vector, softmax_cross_entropy)

DENSE_SPEC = BlockNetSpec(input_shape=(16,), num_classes=4, widths=(8, 8))
CONV_SPEC = BlockNetSpec(input_shape=(2, 8, 8), num_classes=4, widths=(4, 8))


def _dense_net(seed=0, **kw):
    return BlockNet(DENSE_SPEC, rng=np.random.default_rng(seed), **kw)


def _conv_net(seed=0, **kw):
    return BlockNet(CONV_SPEC, rng=np.random.default_rng(seed), **kw)


# -- spec validation and geometry ------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        BlockNetSpec(input_shape=(4, 4), num_classes=4)   # bad rank
    with pytest.raises(ValueError):
        BlockNetSpec(input_shape=(8,), num_classes=4, widths=(8,))
    with pytest.raises(ValueError):
        BlockNetSpec(input_shape=(8,), num_classes=1)
    with pytest.raises(ValueError):
        BlockNetSpec(input_shape=(8,), num_classes=4, projection_dim=0)


def test_default_block_strides_downsample_on_widening():
    staged = BlockNetSpec(input_shape=(3, 16, 16), num_classes=10,
                          widths=(8, 8, 16, 16, 32))
    assert staged.block_strides() == (1, 1, 2, 1, 2)
    assert DENSE_SPEC.block_strides() == (1, 1)  # dense: no spatial notion
    # a learned skip exactly where a block changes width: widths (3, 8, 4)
    # on 3 channels keep, widen (with stride 2 for conv), then narrow
    for spec in (staged, DENSE_SPEC, CONV_SPEC,
                 BlockNetSpec(input_shape=(3, 16, 16), num_classes=4, widths=(3, 8, 4)),
                 BlockNetSpec(input_shape=(3,), num_classes=4, widths=(3, 8, 4))):
        net = BlockNet(spec, rng=None)
        want = [a != b for a, b in zip(spec.block_inputs(), spec.widths)]
        assert [f"block{i}.skip.w" in net.params for i in range(spec.num_blocks)] == want
        assert [spec.projects_skip(i) for i in range(spec.num_blocks)] == want


def test_spatial_sizes():
    spec = BlockNetSpec(input_shape=(3, 8, 8), num_classes=4, widths=(4, 4, 8))
    # 3x3 kernels, padding 1: stride 1 preserves, stride 2 halves via floor
    assert spec.spatial_sizes() == ((8, 8), (8, 8), (4, 4))
    odd = BlockNetSpec(input_shape=(3, 7, 7), num_classes=4, widths=(4, 8))
    assert odd.spatial_sizes() == ((7, 7), (4, 4))


def test_slim_width_ceiling():
    assert slim_width(16, 1.0) == 16
    assert slim_width(16, 0.25) == 4
    assert slim_width(16, 0.7) == 12   # 11.2 rounds up
    assert slim_width(5, 0.5) == 3
    assert slim_width(7, 0.01) == 1    # never zero channels
    with pytest.raises(ValueError):
        slim_width(8, 0.0)
    with pytest.raises(ValueError):
        slim_width(8, 1.5)


def test_keep_probability_linear_decay():
    # depth 4, final keep 0.9: 1 - (l/4)*0.1 for l = 1..4
    want = [0.975, 0.95, 0.925, 0.9]
    got = [keep_probability(i, 4, 0.9) for i in range(4)]
    assert np.allclose(got, want, atol=1e-15)
    assert keep_probability(9, 10, 1.0) == 1.0


# -- forwards ------------------------------------------------------------------------


def test_forward_shapes():
    x = np.random.default_rng(0).normal(size=(5, 16))
    assert _dense_net().forward(x).shape == (5, 4)
    xc = np.random.default_rng(0).normal(size=(5, 2, 8, 8))
    assert _conv_net().forward(xc).shape == (5, 4)


def test_forward_rejects_wrong_shape():
    with pytest.raises(ValueError):
        _dense_net().forward(np.zeros((2, 15)))


def test_forward_with_features_shapes():
    net = _conv_net()
    x = np.random.default_rng(1).normal(size=(3, 2, 8, 8))
    f_prev, f_last, logits = net.forward_with_features(x)
    assert f_prev.shape == (3, 4, 8, 8)
    assert f_last.shape == (3, 8, 4, 4)
    assert logits.shape == (3, 4)


def test_subnetwork_full_width_is_identity():
    for net, x in ((_dense_net(), np.random.default_rng(2).normal(size=(4, 16))),
                   (_conv_net(), np.random.default_rng(2).normal(size=(4, 2, 8, 8)))):
        full = net.forward(x).data
        sub = net.forward_subnetwork(x, 1.0).data
        assert np.array_equal(full, sub)  # bitwise


def test_subnetwork_uses_only_prefix_parameters():
    net = _dense_net(seed=3)
    x = np.random.default_rng(4).normal(size=(4, 16))
    before = net.forward_subnetwork(x, 0.5).data.copy()
    k = slim_width(8, 0.5)
    # wreck everything outside the first k channels of every layer
    for name, p in net.params.items():
        if name.startswith("head"):
            continue
        arr = p.data.copy()
        if name.endswith("fc1.w") or name.endswith("skip.w"):
            arr[:, k:] = 1e6
        elif name.endswith("fc2.w"):
            arr[k:, :] = 1e6
            arr[:, k:] = 1e6
        else:
            arr[k:] = 1e6
        p.data = arr
    net.params["head.w"].data[k:, :] = 1e6
    after = net.forward_subnetwork(x, 0.5).data
    assert np.array_equal(before, after)


def test_subnetwork_prefix_for_conv():
    net = _conv_net(seed=5)
    x = np.random.default_rng(6).normal(size=(2, 2, 8, 8))
    before = net.forward_subnetwork(x, 0.5).data.copy()
    for name, p in net.params.items():
        k = slim_width(p.data.shape[0], 0.5)
        if name.endswith("conv1.w") or name.endswith("conv2.w") or name.endswith("skip.w"):
            arr = p.data.copy()
            arr[k:] = 1e6
            kin = slim_width(arr.shape[1], 0.5)
            if not name.startswith("block0") or name.endswith("conv2.w"):
                arr[:, kin:] = 1e6
            p.data = arr
        elif name.startswith("head"):
            continue
        else:
            arr = p.data.copy()
            arr[k:] = 1e6
            p.data = arr
    net.params["head.w"].data[slim_width(8, 0.5):, :] = 1e6
    after = net.forward_subnetwork(x, 0.5).data
    assert np.array_equal(before, after)


def test_slices_only_narrowed_axes(monkeypatch):
    calls = []
    real = models.slice_axis

    def counting(x, axis, start, stop):
        calls.append((x, axis, stop))
        return real(x, axis, start, stop)

    monkeypatch.setattr(models, "slice_axis", counting)
    for net, x, first in ((_dense_net(), np.ones((2, 16)), "fc1"),
                          (_conv_net(), np.ones((2, 2, 8, 8)), "conv1")):
        net.forward(x)
        net.forward_with_features(x)
        net.stochdepth_forward(x, 0.9, np.random.default_rng(0))
        net.forward_subnetwork(x, 1.0)
        assert calls == []  # full width: no slice node anywhere
        net.forward_subnetwork(x, 0.5)
        assert calls and all(stop < t.shape[axis] for t, axis, stop in calls)
        # block 0 reads the whole input, so its input-side layers slice their
        # output axis only, counted from the right: (..., in, out) for dense,
        # (..., out, in, k, k) for conv
        out_axis = -4 if net.spec.is_conv else -1
        for name in (f"block0.{first}.w", "block0.skip.w"):
            w = net.params[name]
            assert [axis for t, axis, _ in calls if t is w] == [out_axis]
        calls.clear()


def test_dense_step_builds_fourteen_nodes(monkeypatch):
    # criterion 9's model: the input, then per block two layers, the fused
    # normalize (with relu) and normalize, and add_relu, then the head's
    # matmul and bias, then the loss. Undoing a fusion adds nodes here.
    spec = BlockNetSpec(input_shape=(16,), num_classes=8, widths=(16, 16))
    net = BlockNet(spec, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(16, 16)), rng.integers(0, 8, size=16)
    built = []
    real = Tensor.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    logits = net.forward_with_features(x)[2]
    gradients(softmax_cross_entropy(logits, y), net.params)
    assert len(built) == 1 + 2 * 5 + 2 + 1


def test_final_subblock_full_width_matches_last_feature():
    for net, x in ((_dense_net(seed=7), np.random.default_rng(8).normal(size=(3, 16))),
                   (_conv_net(seed=7), np.random.default_rng(8).normal(size=(3, 2, 8, 8)))):
        f_prev, f_last, _ = net.forward_with_features(x)
        redo = net.forward_final_subblock(f_prev, 1.0)
        assert np.array_equal(redo.data, f_last.data)


def test_final_subblock_reduced_width_shape():
    net = _conv_net(seed=9)
    x = np.random.default_rng(10).normal(size=(2, 2, 8, 8))
    f_prev, _, _ = net.forward_with_features(x)
    out = net.forward_final_subblock(f_prev, 0.25)
    assert out.shape == (2, 2, 4, 4)  # ceil(0.25 * 8) = 2 channels


def test_stochdepth_all_keep_is_plain_forward():
    net = _dense_net(seed=11)
    x = np.random.default_rng(12).normal(size=(4, 16))
    logits, mask = net.stochdepth_forward(x, 1.0, np.random.default_rng(0),
                                          training=True)
    assert np.array_equal(mask, np.ones(2))
    assert np.array_equal(logits.data, net.forward(x).data)


def test_stochdepth_eval_mask_is_probabilities():
    net = _dense_net(seed=13)
    x = np.random.default_rng(14).normal(size=(2, 16))
    _, mask = net.stochdepth_forward(x, 0.9, training=False)
    assert np.allclose(mask, [0.95, 0.9])


def test_stochdepth_mask_frequency():
    net = _dense_net(seed=15)
    x = np.random.default_rng(16).normal(size=(1, 16))
    rng = np.random.default_rng(17)
    draws = np.array([net.stochdepth_forward(x, 0.6, rng)[1]
                      for _ in range(2000)])
    freq = draws.mean(axis=0)
    want = [0.8, 0.6]
    # binomial std err at n = 2000 is ~0.011; allow 4 sigma
    assert np.all(np.abs(freq - want) < 0.045)


def test_stochdepth_validates_inputs():
    net = _dense_net()
    x = np.zeros((1, 16))
    with pytest.raises(ValueError):
        net.stochdepth_forward(x, 0.0)
    with pytest.raises(ValueError):
        net.stochdepth_forward(x, 0.9, rng=None, training=True)


def test_projection_head():
    net = BlockNet(DENSE_SPEC, rng=np.random.default_rng(18),
                   with_projection=True)
    x = np.random.default_rng(19).normal(size=(3, 16))
    _, f_last, _ = net.forward_with_features(x)
    z = net.project(f_last)
    assert z.shape == (3, DENSE_SPEC.projection_dim)
    bare = _dense_net()
    with pytest.raises(ValueError):
        bare.project(f_last)


def test_state_round_trip_and_validation():
    net = _dense_net(seed=20)
    vec = params_to_vector(net.params)
    other = _dense_net(seed=21)
    load_vector(other.params, vec)
    assert all(np.array_equal(other.params[k].data, p.data) for k, p in net.params.items())
    assert all(other.params[k].data is not p.data for k, p in net.params.items())
    last = vec.layout[-1][2]  # drop the last parameter and its segment
    with pytest.raises(ValueError):
        load_vector(other.params, ParamVector(vec.data[:last], vec.layout[:-1]))
    bad = dict(net.params)
    bad["head.b"] = Tensor(np.zeros(5))
    with pytest.raises(ValueError):
        load_vector(other.params, params_to_vector(bad))


def test_zero_init_without_rng():
    net = BlockNet(DENSE_SPEC, rng=None)
    assert not np.any(net.params["head.w"].data)
    assert np.all(net.params["block0.norm1.scale"].data == 1.0)


# -- cost model: all expected numbers are worked out by hand here ---------------------


def test_dense_layer_cost_frozen():
    assert layer_cost(10, 5, bias=True) == (100.0, 55)
    assert layer_cost(10, 5) == (100.0, 50)


def test_conv_layer_cost_frozen():
    # 2 * cin * cout * k^2 * H * W = 2*3*8*9*16 = 6912; params 8*3*9 = 216
    assert layer_cost(3, 8, 3, (4, 4)) == (6912.0, 216)


# hand tally for DENSE_SPEC (input 16, widths (8, 8), 4 classes):
#   block0: fc1 16x8, fc2 8x8, skip 16x8 (width change), norms 4*8 params
#   block1: fc1 8x8, fc2 8x8, no skip, norms 4*8 params
#   head:   8x4 + 4
_B0_F = 2 * 16 * 8 + 2 * 8 * 8 + 2 * 16 * 8   # 640
_B1_F = 2 * 8 * 8 + 2 * 8 * 8                 # 256
_HEAD_F = 2 * 8 * 4                           # 64
_BASE_F = _B0_F + _B1_F + _HEAD_F             # 960
_BASE_P = (16 * 8 + 8 * 8 + 16 * 8 + 32) + (8 * 8 + 8 * 8 + 32) + (8 * 4 + 4)  # 548


def test_count_cost_fedavg_dense_frozen():
    assert count_cost(DENSE_SPEC, None) == (_BASE_F, _BASE_P)
    assert count_cost(DENSE_SPEC, MethodConfig(method="fedavg")) == (_BASE_F, _BASE_P)
    assert count_cost(DENSE_SPEC, MethodConfig(method="mixup")) == (_BASE_F, _BASE_P)


def test_count_cost_matches_stored_parameters():
    for spec in (DENSE_SPEC, CONV_SPEC,
                 BlockNetSpec(input_shape=(3, 16, 16), num_classes=10,
                              widths=(8, 8, 16))):
        net = BlockNet(spec, rng=None)
        assert count_cost(spec, None)[1] == params_to_vector(net.params).size
        assert model_params(spec) == params_to_vector(net.params).size
        net = BlockNet(spec, rng=None, with_projection=True)
        assert model_params(spec, with_projection=True) == params_to_vector(net.params).size


def test_count_cost_fedprox_doubles_params():
    f, p = count_cost(DENSE_SPEC, MethodConfig(method="fedprox"))
    assert (f, p) == (_BASE_F, 2 * _BASE_P)


def test_count_cost_moon_frozen():
    # projection head (8 -> 64 -> 64, biased): flops 2*8*64 + 2*64*64 = 9216
    # three passes of blocks+projection, one classifier pass
    proj_f = 2 * 8 * 64 + 2 * 64 * 64
    proj_p = (8 * 64 + 64) + (64 * 64 + 64)
    want_f = 3 * (_BASE_F - _HEAD_F + proj_f) + _HEAD_F
    want_p = 3 * (_BASE_P + proj_p)
    assert count_cost(DENSE_SPEC, MethodConfig(method="moon")) == (want_f, want_p)


def test_count_cost_stochdepth_frozen():
    # keep probs at depth 2, final 0.9: block0 0.95, block1 0.9
    # the skip path always runs; only the residual branch is expected-scaled
    want = 0.95 * (2 * 16 * 8 + 2 * 8 * 8) + 2 * 16 * 8 \
        + 0.9 * (2 * 8 * 8 + 2 * 8 * 8) + _HEAD_F
    f, p = count_cost(DENSE_SPEC, MethodConfig(method="stochdepth"))
    assert f == pytest.approx(want, rel=1e-12)
    assert p == _BASE_P


def test_count_cost_gradaug_full_width_bound_identity():
    # with the width draw pinned to 1, each subnetwork costs a full forward
    cfg = MethodConfig(method="gradaug", omega_b=1.0, n_subnets=2)
    f, p = count_cost(DENSE_SPEC, cfg)
    assert f == pytest.approx(3.0 * _BASE_F, rel=1e-12)
    assert p == _BASE_P


def test_count_cost_gradaug_bounds_and_monotonicity():
    f1, _ = count_cost(DENSE_SPEC, MethodConfig(method="gradaug", n_subnets=1))
    f2, _ = count_cost(DENSE_SPEC, MethodConfig(method="gradaug", n_subnets=2))
    f3, _ = count_cost(DENSE_SPEC, MethodConfig(method="gradaug", n_subnets=3))
    assert _BASE_F < f1 < f2 < f3
    assert f2 < 3.0 * _BASE_F  # subnetworks are cheaper than full passes


def test_count_cost_fedalign_frozen():
    # extra pass: final block at ceil(0.25*8) = 2 channels on its full input
    extra = 2 * 8 * 2 + 2 * 2 * 2   # fc1 8->2, fc2 2->2, no skip layer
    f, p = count_cost(DENSE_SPEC, MethodConfig(method="fedalign"))
    assert f == pytest.approx(_BASE_F + extra, rel=1e-12)
    assert p == _BASE_P


def test_count_cost_conv_frozen():
    # CONV_SPEC: input (2, 8, 8), widths (4, 8), stride (1, 2), classes 4
    # block0 at 8x8: conv1 2->4, conv2 4->4, skip 1x1 2->4 (width change)
    b0 = 2 * 2 * 4 * 9 * 64 + 2 * 4 * 4 * 9 * 64 + 2 * 2 * 4 * 1 * 64
    # block1 at 4x4 (stride 2): conv1 4->8, conv2 8->8, skip 1x1 4->8
    b1 = 2 * 4 * 8 * 9 * 16 + 2 * 8 * 8 * 9 * 16 + 2 * 4 * 8 * 1 * 16
    head = 2 * 8 * 4
    params = (4 * 2 * 9 + 4 * 4 * 9 + 4 * 2 * 1 + 16) \
        + (8 * 4 * 9 + 8 * 8 * 9 + 8 * 4 * 1 + 32) + (8 * 4 + 4)
    assert count_cost(CONV_SPEC, None) == (b0 + b1 + head, params)


def test_count_cost_unknown_method():
    class Fake:
        method = "nope"
    with pytest.raises(ValueError):
        count_cost(DENSE_SPEC, Fake())
