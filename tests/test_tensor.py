"""Autodiff core: op-level oracles, finite-difference checks, optimizer math."""
import tracemalloc

import numpy as np
import pytest

from fedsim import tensor
from fedsim.models import BlockNet, BlockNetSpec
from fedsim.tensor import (ParamVector, Tensor, adaptive_avg_pool2d, add_relu,
                           clamp_min, clip_grad_norm, conv2d, exp, gradients,
                           load_vector, log, log_softmax, mask_tape, matmul, mse,
                           normalize, params_to_vector, relu, sgd_step, slice_axis,
                           softmax_cross_entropy, sqrt, tanh)

from helpers import gathered_conv2d, gathered_conv2d_grads, max_rel_err, numeric_grad


def _fd_check(build, params, tol=1e-6, eps=1e-6):
    """gradients() vs central differences on every parameter."""
    got = gradients(build(), params)
    want = numeric_grad(build, params, eps=eps)
    for name in params:
        assert max_rel_err(got[name], want[name]) < tol, name


# -- arithmetic and broadcasting ------------------------------------------------


def test_add_sub_mul_div_values():
    a = Tensor([1.0, 2.0, 3.0])
    b = Tensor([4.0, 5.0, 6.0])
    assert np.array_equal((a + b).data, [5.0, 7.0, 9.0])
    assert np.array_equal((a - b).data, [-3.0, -3.0, -3.0])
    assert np.array_equal((a * b).data, [4.0, 10.0, 18.0])
    assert np.allclose((a / b).data, [0.25, 0.4, 0.5])
    assert np.array_equal((2.0 + a).data, [3.0, 4.0, 5.0])
    assert np.array_equal((2.0 - a).data, [1.0, 0.0, -1.0])
    assert np.allclose((6.0 / b).data, [1.5, 1.2, 1.0])
    assert np.array_equal((-a).data, [-1.0, -2.0, -3.0])


def test_broadcast_grads_fd():
    rng = np.random.default_rng(0)
    params = {
        "m": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        "row": Tensor(rng.normal(size=(1, 4)), requires_grad=True),
        "col": Tensor(rng.normal(size=(3, 1)), requires_grad=True),
        "s": Tensor(rng.normal(), requires_grad=True),
    }

    def build():
        p = params
        return ((p["m"] + p["row"]) * p["col"] - p["s"] * p["m"]).sum() \
            + (p["m"] / (p["s"] * p["s"] + 2.0)).mean()

    _fd_check(build, params)


def _square(t):
    return t * t


def test_pow_sqrt_exp_log_fd():
    rng = np.random.default_rng(1)
    params = {"x": Tensor(rng.uniform(0.5, 2.0, size=(4, 3)), requires_grad=True)}

    def build():
        x = params["x"]
        return (x * x * x).sum() + sqrt(x).mean() + exp(0.3 * x).sum() + log(x).sum()

    _fd_check(build, params)


def test_matmul_grads_and_shape_errors():
    rng = np.random.default_rng(2)
    params = {
        "a": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        "b": Tensor(rng.normal(size=(4, 2)), requires_grad=True),
    }
    _fd_check(lambda: matmul(params["a"], params["b"]).sum(), params)
    with pytest.raises(ValueError):
        matmul(Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros((2, 2))))


def test_reshape_permute_transpose_fd():
    rng = np.random.default_rng(3)
    params = {"x": Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)}

    def build():
        x = params["x"]
        y = x.permute((2, 0, 1)).reshape(4, 6)
        return (y.T * Tensor(rng_fixed)).sum()

    rng_fixed = np.random.default_rng(4).normal(size=(6, 4))
    _fd_check(build, params)
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 2, 2))).T


def test_slice_axis_backward_zero_pads():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    y = slice_axis(x, 1, 1, 3)
    assert np.array_equal(y.data, x.data[:, 1:3])
    want = np.zeros((3, 4))
    want[:, 1:3] = 1.0
    assert np.array_equal(gradients(y.sum(), {"x": x})["x"], want)


def test_sum_mean_axes_fd():
    rng = np.random.default_rng(5)
    params = {"x": Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)}
    weights = np.random.default_rng(6).normal(size=(2, 4))

    def build():
        x = params["x"]
        a = x.sum(axis=1)                      # (2, 4)
        b = x.mean(axis=(0, 2))                # (3,)
        c = x.sum(axis=2, keepdims=True)       # (2, 3, 1)
        return (a * Tensor(weights)).sum() + (b * b).sum() + c.mean()

    _fd_check(build, params)


def test_relu_values_and_safe_gradient():
    x = Tensor([-2.0, -0.5, 0.5, 3.0], requires_grad=True)
    y = relu(x)
    assert np.array_equal(y.data, [0.0, 0.0, 0.5, 3.0])
    assert np.array_equal(gradients(y.sum(), {"x": x})["x"], [0.0, 0.0, 1.0, 1.0])
    # FD agreement holds when every preactivation sits away from the kink
    params = {"x": Tensor([-1.0, -0.3, 0.4, 2.0], requires_grad=True)}
    _fd_check(lambda: (relu(params["x"]) * Tensor([1.0, 2.0, 3.0, 4.0])).sum(),
              params)


def test_clamp_min_values_and_gradient():
    x = Tensor([-1.0, 0.0, 1e-16, 2.0], requires_grad=True)
    y = clamp_min(x, 1e-16)
    assert np.array_equal(y.data, [1e-16, 1e-16, 1e-16, 2.0])
    grad = gradients((y * Tensor([1.0, 2.0, 3.0, 4.0])).sum(), {"x": x})["x"]
    # the gradient passes only strictly above the floor
    assert np.array_equal(grad, [0.0, 0.0, 0.0, 4.0])


# -- ReLU mask tape ---------------------------------------------------------------

_B = Tensor(np.random.default_rng(30).normal(size=(4, 3)))
_SCALE = Tensor(np.array([1.0, 0.5, 2.0]))
_SHIFT = Tensor(np.array([0.1, -0.2, 0.3]))

# each mask site: (op, the input its mask compares, the floor it compares to)
_MASK_SITES = {
    "relu": (relu, lambda x: x, 0.0),
    "clamp_min": (lambda x: clamp_min(x, 0.25), lambda x: x, 0.25),
    "add_relu": (lambda x: add_relu(x, _B), lambda x: x + _B, 0.0),
    "normalize": (lambda x: normalize(x, _SCALE, _SHIFT, 1e-5, relu=True),
                  lambda x: normalize(x, _SCALE, _SHIFT, 1e-5), 0.0),
}


@pytest.mark.parametrize("site", sorted(_MASK_SITES))
def test_replayed_mask_keeps_the_base_pattern(site):
    op, pre, floor = _MASK_SITES[site]
    x0 = np.random.default_rng(31).normal(size=(4, 3))
    with mask_tape() as tape:
        base = op(Tensor(x0))
    mask0 = pre(Tensor(x0)).data > floor
    assert len(tape.masks) == 1 and np.array_equal(tape.masks[0], mask0)
    assert base.data.tobytes() == op(Tensor(x0)).data.tobytes()
    x1 = Tensor(-x0, requires_grad=True)
    assert np.any((pre(x1).data > floor) != mask0)  # some inputs crossed
    with mask_tape(tape.masks) as replay:
        out = op(x1)
    assert replay.used == 1
    # the output and the gradient follow x0's pattern, not x1's
    assert np.array_equal(out.data, np.where(mask0, pre(x1).data, floor))
    got = gradients(out.sum(), {"x": x1})["x"]
    want = gradients((pre(x1) * Tensor(mask0 * 1.0)).sum(), {"x": x1})["x"]
    assert np.array_equal(got, want)


def test_mask_replay_rejects_a_forward_that_does_not_fit():
    x = Tensor(np.array([[-1.0, 2.0], [3.0, -4.0]]))
    with mask_tape() as tape:
        relu(x)
    with pytest.raises(ValueError, match="more than the 1 recorded"):
        with mask_tape(tape.masks):
            relu(relu(x))
    with pytest.raises(ValueError, match="used 0 of the 1 recorded"):
        with mask_tape(tape.masks):
            x * 2.0
    with pytest.raises(ValueError, match="shape"):
        with mask_tape(tape.masks):
            relu(Tensor(np.ones((1, 2))))
    assert tensor._tape is None


def test_mask_tape_is_cleared_when_the_forward_raises():
    with pytest.raises(ZeroDivisionError):
        with mask_tape():
            relu(Tensor(np.ones(2)))
            raise ZeroDivisionError
    assert tensor._tape is None
    with pytest.raises(RuntimeError):
        with mask_tape():
            with mask_tape():
                pass
    assert tensor._tape is None
    assert np.array_equal(clamp_min(Tensor([np.nan, -1.0]), 0.0).data, [np.nan, 0.0],
                          equal_nan=True)  # no tape: np.maximum, NaN and all


def test_taping_at_the_base_point_moves_no_bit():
    spec = BlockNetSpec(input_shape=(6,), num_classes=4, widths=(5, 3))
    net = BlockNet(spec, rng=np.random.default_rng(32))
    x = np.random.default_rng(33).normal(size=(7, 6))
    y = np.arange(7) % 4

    def run(masks=None, taped=True):
        if not taped:
            loss = softmax_cross_entropy(net.forward(x), y)
            return loss.data.tobytes(), gradients(loss, net.params), None
        with mask_tape(masks) as tape:
            loss = softmax_cross_entropy(net.forward(x), y)
        return loss.data.tobytes(), gradients(loss, net.params), tape.masks

    plain_loss, plain_grads, _ = run(taped=False)
    rec_loss, rec_grads, masks = run()
    assert len(masks) == 4  # two blocks: each a normalization ReLU and a tail
    rep_loss, rep_grads, _ = run(masks)
    assert plain_loss == rec_loss == rep_loss
    for name, g in plain_grads.items():
        assert g.tobytes() == rec_grads[name].tobytes() == rep_grads[name].tobytes(), name


def test_tanh_fd():
    params = {"x": Tensor(np.linspace(-2, 2, 7), requires_grad=True)}
    _fd_check(lambda: _square(tanh(params["x"])).sum(), params)


# -- convolution and pooling -----------------------------------------------------


def _conv_reference(x, w, stride, padding):
    """Triple-loop convolution (really cross-correlation), the slow way."""
    b, cin, hh, ww = x.shape
    cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (hh + 2 * padding - k) // stride + 1
    wo = (ww + 2 * padding - k) // stride + 1
    out = np.zeros((b, cout, ho, wo))
    for bi in range(b):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[bi, :, i * stride:i * stride + k,
                               j * stride:j * stride + k]
                    out[bi, co, i, j] = (patch * w[co]).sum()
    return out


@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 0), (2, 0)])
def test_conv2d_matches_reference(stride, padding):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3, 5, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    got = conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
    want = _conv_reference(x, w, stride, padding)
    assert np.allclose(got, want, atol=1e-12)


def test_conv2d_grads_fd():
    rng = np.random.default_rng(8)
    params = {
        "x": Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True),
        "w": Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True),
    }
    _fd_check(lambda: tanh(conv2d(params["x"], params["w"],
                                  stride=2, padding=1)).sum(), params)


def test_conv2d_grads_fd_stride_1():
    rng = np.random.default_rng(9)
    params = {
        "x": Tensor(rng.normal(size=(2, 2, 4, 5)), requires_grad=True),
        "w": Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True),
    }
    _fd_check(lambda: tanh(conv2d(params["x"], params["w"],
                                  stride=1, padding=1)).sum(), params)


_CONV_CASES = [(k, stride, padding) for k in (1, 3) for stride in (1, 2)
               for padding in (0, 1, 2)]


@pytest.mark.parametrize("x_shape", [(1, 1, 5, 7), (2, 3, 6, 5)])
@pytest.mark.parametrize("k,stride,padding", _CONV_CASES)
def test_conv2d_grads_are_the_reference_adjoint(x_shape, k, stride, padding):
    """conv is bilinear, so for the gradients dx, dw of <conv(x, w), g> and
    any probes u, v: <conv(u, w), g> = <u, dx> and <conv(x, v), g> = <v, dw>;
    with u = x and v = w both equal <conv(x, w), g>."""
    rng = np.random.default_rng(10)
    x = rng.normal(size=x_shape)
    w = rng.normal(size=(2, x_shape[1], k, k))
    g = rng.normal(size=_conv_reference(x, w, stride, padding).shape)
    params = {"x": Tensor(x, requires_grad=True), "w": Tensor(w, requires_grad=True)}
    grads = gradients((conv2d(params["x"], params["w"], stride, padding)
                       * Tensor(g)).sum(), params)
    for u, v in ((x, w), (rng.normal(size=x.shape), rng.normal(size=w.shape))):
        want_x = (_conv_reference(u, w, stride, padding) * g).sum()
        want_w = (_conv_reference(x, v, stride, padding) * g).sum()
        assert abs((u * grads["x"]).sum() - want_x) <= 1e-12 * abs(want_x)
        assert abs((v * grads["w"]).sum() - want_w) <= 1e-12 * abs(want_w)


@pytest.mark.parametrize("x_shape", [(1, 1, 5, 7), (2, 3, 6, 5), (240, 8, 12, 12)])
@pytest.mark.parametrize("k,stride,padding", _CONV_CASES)
def test_conv2d_forward_keeps_the_gathered_bytes(x_shape, k, stride, padding):
    rng = np.random.default_rng(11)
    x = rng.normal(size=x_shape)
    w = rng.normal(size=(16, x_shape[1], k, k))
    got = conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
    assert got.tobytes() == gathered_conv2d(x, w, stride, padding).tobytes()


def _samples_per_chunk(columns_per_sample):
    """The batch chunk conv2d's column budget allows for these columns."""
    return max(1, tensor.COLUMN_CHUNK_BYTES // (8 * columns_per_sample))


@pytest.mark.parametrize("k,stride,padding", _CONV_CASES)
def test_conv2d_chunks_keep_the_whole_batch_bytes(k, stride, padding):
    """Forward, dw and dx bytes equal those of one gather over the whole
    batch at 1 sample, exactly one chunk, one chunk + 1 and three chunks."""
    rng = np.random.default_rng(12)
    cin, cout, side = 4, 3, 16
    hout = (side + 2 * padding - k) // stride + 1
    n = _samples_per_chunk(cin * k * k * hout * hout)
    w = rng.normal(size=(cout, cin, k, k))
    for batch in (1, n, n + 1, 2 * n + 1):
        x = rng.normal(size=(batch, cin, side, side))
        g = rng.normal(size=(batch, cout, hout, hout))
        params = {"x": Tensor(x, requires_grad=True), "w": Tensor(w, requires_grad=True)}
        out = conv2d(params["x"], params["w"], stride, padding)
        grads = gradients((out * Tensor(g)).sum(), params)
        want_w, want_x = gathered_conv2d_grads(x, w, g, stride, padding)
        assert out.data.tobytes() == gathered_conv2d(x, w, stride, padding).tobytes()
        assert grads["w"].tobytes() == want_w.tobytes(), batch
        assert grads["x"].tobytes() == want_x.tobytes(), batch


def _traced(build):
    """build()'s result, the traced bytes it left allocated and its traced
    peak, both counted from the call's start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = build()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, now - start, peak - start


def test_conv2d_graph_keeps_no_columns():
    rng = np.random.default_rng(13)
    cin, side = 4, 12
    batch = 3 * _samples_per_chunk(cin * 9 * side * side)  # three chunks of columns
    x = Tensor(rng.normal(size=(batch, cin, side, side)), requires_grad=True)
    w = Tensor(rng.normal(size=(cin, cin, 3, 3)), requires_grad=True)
    out, kept, _ = _traced(lambda: conv2d(x, w, 1, 1))
    padded = batch * cin * (side + 2) ** 2 * 8
    assert kept < tensor.COLUMN_CHUNK_BYTES + out.data.nbytes + padded


def test_conv2d_forward_peak_does_not_grow_with_the_batch():
    """Without a graph, the traced peak beyond the output is one chunk's
    columns and padded input, at 240 samples (19.9 MB of columns) as at 480."""
    rng = np.random.default_rng(14)
    w = Tensor(rng.normal(size=(16, 8, 3, 3)))
    beyond = []
    for batch in (240, 480):
        x = Tensor(rng.normal(size=(batch, 8, 12, 12)))
        out, _, peak = _traced(lambda: conv2d(x, w, 1, 1))
        beyond.append(peak - out.data.nbytes)
    assert abs(beyond[1] - beyond[0]) < tensor.COLUMN_CHUNK_BYTES


@pytest.mark.parametrize("relu_after", [False, True])
def test_normalize_keeps_only_its_output_and_mask(relu_after):
    """The node holds no x-sized float array besides its output: d and y
    are recomputed in the backward."""
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(64, 8, 12, 12)), requires_grad=True)
    scale = Tensor(rng.normal(size=8), requires_grad=True)
    shift = Tensor(rng.normal(size=8), requires_grad=True)
    out, kept, _ = _traced(lambda: normalize(x, scale, shift, 1e-5, relu=relu_after))
    mask = x.data.size if relu_after else 0  # one byte per element
    assert kept < out.data.nbytes + mask + x.data.nbytes // 4


def _rebinding_changes_no_gradient(build, params):
    """gradients() of build(params) is the same whether or not every
    parameter's .data is rebound to new values after the forward."""
    rng = np.random.default_rng(16)
    want = gradients(build(params), params)
    loss = build(params)
    for p in params.values():
        p.data = rng.normal(size=p.data.shape)
    got = gradients(loss, params)
    for name in params:
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_backward_reads_the_forward_arrays(stride):
    rng = np.random.default_rng(17)
    g = Tensor(rng.normal(size=(3, 4, 6 // stride, 6 // stride)))
    params = {"x": Tensor(rng.normal(size=(3, 2, 6, 6)), requires_grad=True),
              "w": Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)}
    _rebinding_changes_no_gradient(
        lambda p: (conv2d(p["x"], p["w"], stride, 1) * g).sum(), params)


def test_normalize_backward_reads_the_forward_arrays():
    rng = np.random.default_rng(18)
    g = Tensor(rng.normal(size=(3, 4, 5, 5)))
    params = {"x": Tensor(rng.normal(size=(3, 4, 5, 5)), requires_grad=True),
              "scale": Tensor(rng.normal(size=4), requires_grad=True),
              "shift": Tensor(rng.normal(size=4), requires_grad=True)}
    _rebinding_changes_no_gradient(
        lambda p: (normalize(p["x"], p["scale"], p["shift"], 1e-5, relu=True) * g).sum(),
        params)


def test_conv2d_shape_mismatch():
    with pytest.raises(ValueError):
        conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 2, 3, 3))))


def test_adaptive_avg_pool2d_window_oracle():
    # 3 -> 2 uses overlapping windows rows {0,1} and {1,2}, the usual bounds
    x = np.arange(9.0).reshape(1, 1, 3, 3)
    got = adaptive_avg_pool2d(Tensor(x), (2, 2)).data
    want = np.array([[[[2.0, 3.0], [5.0, 6.0]]]])
    assert np.array_equal(got, want)


def test_adaptive_avg_pool2d_identity_and_global():
    x = Tensor(np.arange(8.0).reshape(1, 2, 2, 2), requires_grad=True)
    assert adaptive_avg_pool2d(x, (2, 2)) is x
    g = adaptive_avg_pool2d(x, (1, 1))
    assert np.allclose(g.data[0, :, 0, 0], [1.5, 5.5])


def test_adaptive_avg_pool2d_grads_fd():
    rng = np.random.default_rng(10)
    params = {"x": Tensor(rng.normal(size=(1, 2, 5, 3)), requires_grad=True)}
    _fd_check(lambda: _square(adaptive_avg_pool2d(params["x"], (2, 2))).sum(),
              params)


# -- losses -----------------------------------------------------------------------


def test_softmax_ce_uniform_logits():
    logits = Tensor(np.zeros((4, 5)), requires_grad=True)
    loss = softmax_cross_entropy(logits, np.array([0, 1, 2, 3]))
    assert abs(loss.item() - np.log(5.0)) < 1e-15


def test_softmax_ce_gradient_formula():
    rng = np.random.default_rng(12)
    z = rng.normal(size=(3, 4))
    y = np.array([1, 3, 0])
    logits = Tensor(z, requires_grad=True)
    grad = gradients(softmax_cross_entropy(logits, y), {"z": logits})["z"]
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(3), y] -= 1.0
    assert np.allclose(grad, p / 3.0, atol=1e-12)


def test_softmax_ce_fd():
    rng = np.random.default_rng(13)
    params = {"z": Tensor(rng.normal(size=(5, 3)), requires_grad=True)}
    y = np.array([0, 2, 1, 1, 0])
    _fd_check(lambda: softmax_cross_entropy(params["z"], y), params)


def test_softmax_ce_validation():
    with pytest.raises(ValueError):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(ValueError):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, 0]))
    with pytest.raises(ValueError):
        softmax_cross_entropy(Tensor(np.zeros(3)), np.array([0]))


def test_mse_scalar_and_fd():
    assert mse(Tensor(3.0), Tensor(1.0)).item() == 4.0
    rng = np.random.default_rng(14)
    target = rng.normal(size=(3, 2))
    params = {"a": Tensor(rng.normal(size=(3, 2)), requires_grad=True)}
    _fd_check(lambda: mse(params["a"], Tensor(target)), params)


def test_log_softmax_matches_numpy_and_fd():
    rng = np.random.default_rng(15)
    z = rng.normal(size=(4, 6))
    got = log_softmax(Tensor(z)).data
    want = z - z.max(axis=1, keepdims=True)
    want = want - np.log(np.exp(want).sum(axis=1, keepdims=True))
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(np.exp(got).sum(axis=1), 1.0, atol=1e-12)
    params = {"z": Tensor(z.copy(), requires_grad=True)}
    w = np.random.default_rng(16).normal(size=(4, 6))
    _fd_check(lambda: (log_softmax(params["z"]) * Tensor(w)).sum(), params)


# -- autodiff mechanics -------------------------------------------------------------


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        gradients(x * 2, {"x": x})


def test_tensor_keeps_no_gradient_state():
    for name in ("grad", "zero_grad", "backward"):
        assert not hasattr(Tensor, name), name


def _graph_nodes(root):
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_backward_that_raises_leaves_no_partial_gradient():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)

    def build(closure=None):
        h = tanh(matmul(x, w))
        if closure is not None:
            h = Tensor._op(h.data.copy(), (h,), closure)
        return (w * 2.0).sum() + (h * h).sum()

    want = gradients(build(), {"x": x, "w": w})

    partial = []

    def boom(g):
        partial.append(w._g is not None)  # w already holds a contribution
        raise RuntimeError("boom")

    loss = build(boom)
    with pytest.raises(RuntimeError, match="boom"):
        gradients(loss, {"x": x, "w": w})
    assert partial == [True]
    assert all(n._g is None and n._mark is None for n in _graph_nodes(loss))

    got = gradients(build(), {"x": x, "w": w})
    for k in want:
        assert got[k].tobytes() == want[k].tobytes(), k


def test_backward_clears_its_node_state():
    x = Tensor(np.arange(3.0), requires_grad=True)
    w = Tensor(2.0, requires_grad=True)  # a leaf the caller asks nothing of
    y = x * x
    loss = (y + y * w).sum()
    assert np.array_equal(gradients(loss, {"x": x})["x"], [0.0, 6.0, 12.0])
    nodes = _graph_nodes(loss)
    assert all(n._g is None and n._mark is None for n in nodes)
    assert {id(n) for n in nodes if not n._parents} >= {id(x), id(w)}


def test_binary_ops_skip_the_gradient_of_a_constant():
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    c = Tensor(np.array([[3.0], [4.0]]))
    g = np.ones((1, 2))
    for out in (x + c.T, x - c.T, x * c.T, x / c.T):
        assert out._backward(g)[1] is None
    for out in (c.T + x, c.T - x, c.T * x, c.T / x):
        assert out._backward(g)[0] is None
    assert matmul(x, c)._backward(np.ones((1, 1)))[1] is None
    assert matmul(c, x)._backward(np.ones((2, 2)))[0] is None
    image = Tensor(np.ones((1, 1, 3, 3)))
    kernel = Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
    assert conv2d(image, kernel)._backward(np.ones((1, 1, 3, 3)))[0] is None


def test_wrapping_a_float64_array_keeps_it():
    a = np.arange(3.0)
    assert Tensor(a).data is a
    assert Tensor(np.arange(3)).data.dtype == np.float64
    assert Tensor(np.float64(2.0)).data.shape == ()


def test_shared_subexpression_gradient():
    x = Tensor(3.0, requires_grad=True)
    y = x * x
    assert gradients(y + y, {"x": x})["x"] == 12.0  # d/dx 2x^2 = 4x


def test_detach_blocks_gradient():
    x = Tensor(2.0, requires_grad=True)
    assert gradients(x.detach() * x, {"x": x})["x"] == 2.0  # c*x with c = 2


def test_gradients_fills_zeros_for_unreachable():
    a = Tensor(1.0, requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    out = gradients(a * 3.0, {"a": a, "b": b})
    assert out["a"] == 3.0
    assert np.array_equal(out["b"], np.zeros(3))
    # a second loss gets its own gradient, not one added to the first
    out = gradients(a * 5.0, {"a": a, "b": b})
    assert out["a"] == 5.0
    assert np.array_equal(out["b"], np.zeros(3))


# -- optimizer helpers ---------------------------------------------------------------


def test_clip_grad_norm_scales_to_bound():
    grads = {"a": np.array([3.0, 4.0])}  # norm 5
    clipped, scale = clip_grad_norm(grads, 1.0)
    assert scale == pytest.approx(0.2)
    assert np.allclose(clipped["a"], [0.6, 0.8])
    assert np.isclose(np.linalg.norm(clipped["a"]), 1.0)


def test_clip_grad_norm_noop_below_bound():
    g = np.array([0.3, 0.4])
    clipped, scale = clip_grad_norm({"a": g}, 5.0)
    assert scale == 1.0
    assert clipped["a"] is g  # untouched array


def test_clip_grad_norm_zero_and_nonfinite():
    clipped, scale = clip_grad_norm({"a": np.zeros(2)}, 1.0)
    assert scale == 1.0 and np.array_equal(clipped["a"], np.zeros(2))
    with pytest.raises(FloatingPointError):
        clip_grad_norm({"a": np.array([np.nan])}, 1.0)
    with pytest.raises(FloatingPointError):
        clip_grad_norm({"a": np.array([np.inf])}, 1.0)


def test_sgd_step_two_steps_hand_computed():
    p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
    velocity = {}
    sgd_step(p, {"w": np.array([2.0])}, velocity, 0.1, 0.9)
    # v = 2, w = 1 - 0.1*2 = 0.8
    assert np.allclose(p["w"].data, [0.8])
    sgd_step(p, {"w": np.array([1.0])}, velocity, 0.1, 0.9)
    # v = 0.9*2 + 1 = 2.8, w = 0.8 - 0.28 = 0.52
    assert np.allclose(p["w"].data, [0.52])
    assert np.allclose(velocity["w"], [2.8])


def test_sgd_step_zero_momentum_is_plain_sgd():
    p = {"w": Tensor(np.array([1.0, 2.0]), requires_grad=True)}
    velocity = {}
    sgd_step(p, {"w": np.array([1.0, -1.0])}, velocity, 0.5, 0.0)
    sgd_step(p, {"w": np.array([1.0, -1.0])}, velocity, 0.5, 0.0)
    assert np.allclose(p["w"].data, [0.0, 3.0])


def test_sgd_step_shape_mismatch():
    p = {"w": Tensor(np.zeros(2), requires_grad=True)}
    with pytest.raises(ValueError):
        sgd_step(p, {"w": np.zeros(3)}, {}, 0.01, 0.9)


# -- stacked copies ---------------------------------------------------------------------

_COPIES = 3


def _assert_stack_is_its_copies(op, *inputs):
    """op on its inputs, each (array, stacked): stacked along a leading axis
    of _COPIES copies or shared by every copy, equals op on each copy alone,
    byte for byte: the output, each stacked input's gradient copy by copy,
    and each shared input's gradient as the copies' gradients summed in
    copy order."""
    upstream = np.random.default_rng(40)
    leaves = {i: Tensor(a, requires_grad=True) for i, (a, _) in enumerate(inputs)}
    out = op(*leaves.values())
    g_out = upstream.normal(size=out.shape)
    grads = gradients((out * Tensor(g_out)).sum(), leaves)
    shared = {}
    for c in range(_COPIES):
        mine = {i: Tensor(a[c] if stacked else a, requires_grad=True)
                for i, (a, stacked) in enumerate(inputs)}
        one = op(*mine.values())
        assert one.data.tobytes() == out.data[c].tobytes(), c
        got = gradients((one * Tensor(g_out[c])).sum(), mine)
        for i, (_, stacked) in enumerate(inputs):
            if stacked:
                assert got[i].tobytes() == grads[i][c].tobytes(), (c, i)
            else:
                shared[i] = got[i] if c == 0 else shared[i] + got[i]
    for i, g in shared.items():
        assert g.tobytes() == grads[i].tobytes(), i


def _stacked_cases():
    """name -> (op, its inputs as (shape, stacked)) for every stacked op."""
    p = _COPIES
    y = np.array([0, 3, 1, 3, 2])
    cases = {
        "matmul-shared-input": (matmul, [((4, 5), False), ((p, 5, 6), True)]),
        "matmul-stacked-input": (matmul, [((p, 4, 5), True), ((p, 5, 6), True)]),
        "add_relu-shared-skip": (add_relu, [((p, 4, 6), True), ((4, 6), False)]),
        "softmax_ce": (lambda z: softmax_cross_entropy(z, y), [((p, 5, 4), True)]),
    }
    for relu_after in (False, True):
        for kind, x in (("dense", (p, 4, 6)), ("conv", (p, 4, 3, 5, 5))):
            cases[f"normalize-{kind}-relu={relu_after}"] = (
                lambda x, s, t, r=relu_after: normalize(x, s, t, 1e-5, relu=r),
                [(x, True), ((p, x[2]), True), ((p, x[2]), True)])
    for side in (1, 2):
        cases[f"pool-to-{side}x{side}"] = (
            lambda x, s=side: adaptive_avg_pool2d(x, (s, s)), [((p, 2, 3, 5, 5), True)])
    for stride in (1, 2):
        for stacked in (False, True):
            x = (p, 2, 3, 6, 6) if stacked else (2, 3, 6, 6)
            cases[f"conv2d-stride-{stride}-{'stacked' if stacked else 'shared'}-input"] = (
                lambda x, w, s=stride: conv2d(x, w, s, 1), [(x, stacked), ((p, 4, 3, 3, 3), True)])
    return cases


_STACKED_CASES = _stacked_cases()


@pytest.mark.parametrize("name", sorted(_STACKED_CASES))
def test_a_stacked_op_is_its_copies(name):
    op, inputs = _STACKED_CASES[name]
    rng = np.random.default_rng(41)
    _assert_stack_is_its_copies(op, *[(rng.normal(size=shape), stacked)
                                      for shape, stacked in inputs])


def test_stacked_replays_and_loads_refuse_another_trailing_shape():
    x = np.random.default_rng(42).normal(size=(4, 3))
    with mask_tape() as tape:
        relu(Tensor(x))
    with mask_tape(tape.masks):  # the recorded (4, 3) mask, onto two copies
        out = relu(Tensor(np.stack([-x, x])))
    assert np.array_equal(out.data, np.where(x > 0, np.stack([-x, x]), 0.0))
    for shape in ((2, 3, 4), (2, 4, 2)):
        with pytest.raises(ValueError, match="shape"):
            with mask_tape(tape.masks):
                relu(Tensor(np.ones(shape)))

    params = {"w": Tensor(np.zeros((2, 3)))}
    vec = params_to_vector(params)
    load_vector(params, ParamVector(np.arange(12.0).reshape(2, 6), vec.layout))
    assert np.array_equal(params["w"].data, np.arange(12.0).reshape(2, 2, 3))
    load_vector(params, vec)  # back to one copy
    assert params["w"].data.shape == (2, 3)
    for data in (np.zeros((2, 5)), np.zeros((2, 2, 6))):  # a row too short; two copy axes
        with pytest.raises(ValueError):
            load_vector(params, ParamVector(data, vec.layout))
    with pytest.raises(ValueError):  # copies of a (3, 2) parameter
        load_vector({"w": Tensor(np.zeros((2, 3, 2)))}, vec)

    both = {"b": Tensor(np.zeros(3)), "w": Tensor(np.zeros((2, 3)))}
    vec = params_to_vector(both)
    for b, w in (((5, 3), (2, 3)),  # extra axes on one parameter, not a stacked load
                 ((5, 3), (4, 2, 3)),  # unequal copy counts
                 ((4, 5, 3), (4, 5, 2, 3))):  # two copy axes
        with pytest.raises(ValueError):
            load_vector({"b": Tensor(np.zeros(b)), "w": Tensor(np.zeros(w))}, vec)
    load_vector(both, ParamVector(np.zeros((4, 9)), vec.layout))  # one copy axis each
    load_vector(both, vec)
    assert both["w"].data.shape == (2, 3)


# -- parameter vector bijection ---------------------------------------------------------


def test_param_vector_round_trip_bitwise():
    rng = np.random.default_rng(17)
    params = {
        "b.mat": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        "a.vec": Tensor(rng.normal(size=5), requires_grad=True),
        "c.scalar": Tensor(rng.normal(size=()), requires_grad=True),
    }
    vec = params_to_vector(params)
    assert vec.size == 3 * 4 + 5 + 1
    assert [n for n, _, _ in vec.layout] == ["a.vec", "b.mat", "c.scalar"]
    fresh = {k: Tensor(np.zeros_like(v.data), requires_grad=True)
             for k, v in params.items()}
    load_vector(fresh, vec)
    for name in params:
        assert np.array_equal(fresh[name].data, params[name].data)


def test_load_vector_layout_mismatch():
    p1 = {"w": Tensor(np.zeros(3))}
    p2 = {"w": Tensor(np.zeros(4))}
    with pytest.raises(ValueError):
        load_vector(p2, params_to_vector(p1))
    p3 = {"v": Tensor(np.zeros(3))}
    with pytest.raises(ValueError):
        load_vector(p3, params_to_vector(p1))
    vec = params_to_vector(p1)
    for data in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):  # wrong length or shape
        with pytest.raises(ValueError):
            load_vector(p1, ParamVector(data=data, layout=vec.layout))
    both = params_to_vector({"v": Tensor(np.zeros(3)), "w": Tensor(np.zeros(3))})
    with pytest.raises(ValueError):  # an extra name
        load_vector(p1, both)
    with pytest.raises(ValueError):  # a missing name
        load_vector({"v": Tensor(np.zeros(3)), "w": Tensor(np.zeros(3)),
                     "x": Tensor(np.zeros(3))}, both)


def test_param_vector_layout_deterministic():
    a = {"x": Tensor(np.ones(2)), "y": Tensor(np.ones((2, 2)))}
    b = {"y": Tensor(np.zeros((2, 2))), "x": Tensor(np.zeros(2))}
    assert params_to_vector(a).layout == params_to_vector(b).layout
