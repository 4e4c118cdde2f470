"""Curvature probes against models whose Hessian is known exactly."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

import fedsim.hessian as hessian
import fedsim.tensor as tensor
from fedsim.hessian import (DEFAULT_FD_STEP, ce_loss_fn, cross_client_metrics,
                            hessian_diagonal, hessian_report, hutchinson_trace,
                            hvp, landscape_slice, linearize, top_eigenpairs)
from fedsim.tensor import (ParamVector, gradients, load_vector, mask_tape, matmul,
                           normalize, params_to_vector)
from fedsim.models import NORM_EPS, BlockNet, BlockNetSpec

from helpers import (QuadraticModel, TanhMLP, hvp_hessian, numeric_hessian,
                     random_orthogonal)


def _random_symmetric(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    return scale * (m + m.T) / 2.0


def _quad(a, b=None):
    b = np.zeros(a.shape[0]) if b is None else b
    model = QuadraticModel(a, b)
    return model, model.loss, (None, None)


# -- hessian-vector products ---------------------------------------------------------


def test_hvp_exact_on_quadratic():
    a = _random_symmetric(6, seed=0)
    model, loss_fn, batch = _quad(a, b=np.arange(6.0))
    rng = np.random.default_rng(1)
    theta0 = rng.normal(size=6)
    model.params["theta"].data[:] = theta0
    lin = linearize(model, loss_fn, batch)
    for _ in range(5):
        v = rng.normal(size=6)
        got = hvp(lin, v)
        assert np.max(np.abs(got - a @ v)) < 1e-8
    # parameters restored bitwise after probing
    assert np.array_equal(model.params["theta"].data, theta0)


def test_hvp_zero_direction_and_validation():
    model, loss_fn, batch = _quad(np.eye(3))
    lin = linearize(model, loss_fn, batch)
    assert np.array_equal(hvp(lin, np.zeros(3)), np.zeros(3))
    with pytest.raises(ValueError):
        hvp(lin, np.zeros(4))
    with pytest.raises(ValueError, match="another model"):
        top_eigenpairs(model, lambda *args: loss_fn(*args), batch, lin=lin)


def test_hvp_matches_double_fd_hessian_on_mlp():
    rng = np.random.default_rng(2)
    model = TanhMLP((4, 5, 3), rng)
    x = rng.normal(size=(8, 4))
    y = rng.integers(0, 3, size=8)
    h_dense = numeric_hessian(lambda: ce_loss_fn(model, x, y), model.params)
    n = h_dense.shape[0]
    v = rng.normal(size=n)
    got = hvp(linearize(model, ce_loss_fn, (x, y)), v)
    denom = max(np.max(np.abs(h_dense @ v)), 1e-8)
    assert np.max(np.abs(got - h_dense @ v)) / denom < 1e-4


def _flat_grad(model, loss_fn, batch, layout, masks=None):
    """The gradient in layout order, with the forward's ReLU masks recorded
    (masks=None) or replayed, through the public helpers."""
    with mask_tape(masks) as tape:
        loss = loss_fn(model, batch[0], batch[1])
    gmap = gradients(loss, model.params)
    return np.concatenate([gmap[name].reshape(-1) for name, _, _ in layout]), tape.masks


def _reference_hvp(model, loss_fn, batch, v, h=DEFAULT_FD_STEP):
    """The frozen-mask forward difference: the gradient at theta + h v/|v|
    with theta's ReLU masks replayed, minus the gradient at theta."""
    pv = params_to_vector(model.params)
    theta = pv.data.copy()
    norm = float(np.linalg.norm(v))
    g0, masks = _flat_grad(model, loss_fn, batch, pv.layout)
    load_vector(model.params, ParamVector(data=theta + h * (v / norm), layout=pv.layout))
    g, _ = _flat_grad(model, loss_fn, batch, pv.layout, masks)
    load_vector(model.params, ParamVector(data=theta, layout=pv.layout))
    return (g - g0) * (norm / h)


def test_hvp_bitwise_matches_flat_vector_reference_on_blocknet():
    spec = BlockNetSpec(input_shape=(6,), num_classes=4, widths=(5, 5))
    net = BlockNet(spec, rng=np.random.default_rng(12))
    rng = np.random.default_rng(13)
    x = rng.normal(size=(9, 6))
    y = rng.integers(0, 4, size=9)
    before = {name: p.data.copy() for name, p in net.params.items()}
    lin = linearize(net, ce_loss_fn, (x, y))
    for _ in range(3):
        v = rng.normal(size=params_to_vector(net.params).data.size)
        got = hvp(lin, v)
        for name, p in net.params.items():
            assert p.data.tobytes() == before[name].tobytes(), name
        assert got.tobytes() == _reference_hvp(net, ce_loss_fn, (x, y), v).tobytes()


def _unfrozen_central_hvp(model, loss_fn, batch, v, h=1e-4):
    """The central difference without replayed masks, which crosses kinks."""
    pv = params_to_vector(model.params)
    u = h * v / np.linalg.norm(v)
    grads = []
    for sign in (1.0, -1.0):
        load_vector(model.params, ParamVector(pv.data + sign * u, pv.layout))
        grads.append(_flat_grad(model, loss_fn, batch, pv.layout)[0])
    load_vector(model.params, pv)
    return (grads[0] - grads[1]) * (np.linalg.norm(v) / (2.0 * h))


def test_dense_hessian_is_symmetric_next_to_a_relu_kink():
    spec = BlockNetSpec(input_shape=(4,), num_classes=3, widths=(3, 3))
    net = BlockNet(spec, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    # move block 0's first normalization so sample 0, channel 1 sits 3e-7
    # above its ReLU kink, well inside a step of 1e-4
    pre = normalize(matmul(x, net.params["block0.fc1.w"]), net.params["block0.norm1.scale"],
                    net.params["block0.norm1.shift"], NORM_EPS)
    shift = net.params["block0.norm1.shift"].data.copy()
    shift[1] += 3e-7 - pre.data[0, 1]
    net.params["block0.norm1.shift"].data = shift
    lin = linearize(net, ce_loss_fn, (x, y))

    def asymmetry(dense):
        return np.max(np.abs(dense - dense.T)) / np.max(np.abs(dense))

    assert asymmetry(hvp_hessian(lin)) < 1e-4
    # the same point without replayed masks is visibly asymmetric
    assert asymmetry(np.stack([_unfrozen_central_hvp(net, ce_loss_fn, (x, y), e)
                               for e in np.eye(lin.theta.size)], axis=1)) > 0.1
    assert params_to_vector(net.params).data.tobytes() == lin.theta.data.tobytes()


# -- stacked evaluation ---------------------------------------------------------------


def _assert_restored(net, theta):
    """net's parameters are theta's, unstacked, bit for bit."""
    assert [net.params[name].data.shape for name, _, _ in theta.layout] == [
        shape for _, shape, _ in theta.layout]
    assert params_to_vector(net.params).data.tobytes() == theta.data.tobytes()


def _small_net(conv):
    """A BlockNet whose block 0 keeps its width (an identity skip of the
    shared input) and whose block 1 widens (a projected skip; stride 2 and
    pooling on conv), with a batch of 5 samples."""
    shape, widths = ((2, 6, 6), (2, 4)) if conv else ((6,), (6, 4))
    net = BlockNet(BlockNetSpec(input_shape=shape, num_classes=4, widths=widths),
                   rng=np.random.default_rng(14))
    rng = np.random.default_rng(15)
    return net, (rng.normal(size=(5,) + shape), rng.integers(0, 4, size=5))


@pytest.mark.parametrize("conv", [False, True])
def test_a_stacked_hvp_is_its_rows(conv):
    net, batch = _small_net(conv)
    lin = linearize(net, ce_loss_fn, batch)
    block = np.random.default_rng(16).normal(size=(4, lin.theta.size))
    block[1] = 0.0
    got = hvp(lin, block)
    _assert_restored(net, lin.theta)
    assert not got[1].any()
    for v, hv in zip(block[[0, 2, 3]], got[[0, 2, 3]]):
        assert hv.tobytes() == _reference_hvp(net, ce_loss_fn, batch, v).tobytes()
        assert hv.tobytes() == hvp(lin, v).tobytes()
    # a block with one direction left goes unstacked, with the same bits
    assert hvp(lin, block[:2]).tobytes() == np.stack([hvp(lin, block[0]), got[1]]).tobytes()


def _reference_diagonal(lin, num_probes, seed):
    """hessian_diagonal one probe at a time: each Rademacher probe drawn as
    one rng call, its single hvp folded into Welford sums."""
    rng = np.random.default_rng([seed, 0xD1A6])
    n = lin.theta.size
    mean, m2, totals = np.zeros(n), np.zeros(n), np.empty(num_probes)
    for i in range(num_probes):
        v = rng.integers(0, 2, size=n) * 2.0 - 1.0
        sample = v * hvp(lin, v)
        totals[i] = sample.sum()
        delta = sample - mean
        mean += delta / (i + 1)
        m2 += delta * (sample - mean)
    return mean, np.sqrt(m2 / (num_probes - 1)) / np.sqrt(num_probes), totals


@pytest.mark.parametrize("conv", [False, True])
@pytest.mark.parametrize("stack", [1, 3, 16])
def test_hessian_diagonal_in_stacks_is_the_per_probe_pass(conv, stack):
    net, batch = _small_net(conv)
    lin = dataclasses.replace(linearize(net, ce_loss_fn, batch), stack=stack)
    got = hessian_diagonal(net, ce_loss_fn, batch, num_probes=10, seed=3, lin=lin)
    want = _reference_diagonal(lin, 10, 3)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _reference_landscape(model, loss_fn, batch, dir1, dir2, grid, radius):
    """landscape_slice's losses one unstacked point at a time, from its
    orthonormalized directions."""
    theta = params_to_vector(model.params)
    d1 = dir1 / np.linalg.norm(dir1)
    d2 = dir2 - (d1 @ dir2) * d1
    d2 = d2 / np.linalg.norm(d2)
    axis = np.linspace(-radius, radius, grid)
    losses = np.empty((grid, grid))
    for i, a in enumerate(axis):
        for j, b in enumerate(axis):
            load_vector(model.params, ParamVector(theta.data + a * d1 + b * d2, theta.layout))
            losses[i, j] = loss_fn(model, batch[0], batch[1]).item()
    load_vector(model.params, theta)
    return losses


@pytest.mark.parametrize("conv", [False, True])
@pytest.mark.parametrize("stack", [1, 4, 25])
def test_landscape_in_stacks_is_the_per_point_slice(conv, stack, monkeypatch):
    net, batch = _small_net(conv)
    theta = params_to_vector(net.params)
    d1, d2 = np.random.default_rng(17).normal(size=(2, theta.size))
    want = _reference_landscape(net, ce_loss_fn, batch, d1, d2, grid=5, radius=0.3)
    monkeypatch.setattr(hessian, "stack_size", lambda n, loss, backward: stack)
    _, _, got = landscape_slice(net, ce_loss_fn, batch, d1, d2, grid=5, radius=0.3)
    assert got.tobytes() == want.tobytes()
    _assert_restored(net, theta)
    assert all(p.requires_grad for p in net.params.values())


def test_landscape_restores_the_model_when_a_stack_fails():
    net, batch = _small_net(False)
    theta = params_to_vector(net.params)
    d1, d2 = np.random.default_rng(17).normal(size=(2, theta.size))

    def unstacked_only(model, x, y):
        if model.params["head.b"].ndim > 1:
            raise RuntimeError("no stacks here")
        return ce_loss_fn(model, x, y)

    with pytest.raises(RuntimeError, match="no stacks"):
        landscape_slice(net, unstacked_only, batch, d1, d2, grid=3)
    _assert_restored(net, theta)
    assert all(p.requires_grad for p in net.params.values())


def test_landscape_refuses_a_loss_reduced_over_the_copies():
    net, batch = _small_net(False)
    theta = params_to_vector(net.params)
    d1, d2 = np.random.default_rng(17).normal(size=(2, theta.size))

    def mean_loss(model, x, y):  # one value for the whole stack
        return ce_loss_fn(model, x, y).mean()

    for stack in (1, 4):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hessian, "stack_size", lambda n, loss, backward: stack)
            with pytest.raises(ValueError, match="one value per parameter copy"):
                landscape_slice(net, mean_loss, batch, d1, d2, grid=3)
        _assert_restored(net, theta)
        assert all(p.requires_grad for p in net.params.values())


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("samples", [8, 256])
def test_probe_stacks_keep_to_the_byte_budget(samples):
    """On criterion 9's model, hessian_diagonal's traced peak is at most
    tensor.STACK_BYTES above that of one unstacked product."""
    net = BlockNet(BlockNetSpec(input_shape=(16,), num_classes=8, widths=(16, 16)),
                   rng=np.random.default_rng(18))
    rng = np.random.default_rng(19)
    batch = (rng.normal(size=(samples, 16)), rng.integers(0, 8, size=samples))
    lin = linearize(net, ce_loss_fn, batch)
    assert lin.stack > 1 or samples == 256  # small batches do stack
    one = _traced_peak(lambda: hvp(lin, rng.normal(size=lin.theta.size)))
    stacked = _traced_peak(lambda: hessian_diagonal(net, ce_loss_fn, batch,
                                                    num_probes=2 * lin.stack, lin=lin))
    assert stacked <= tensor.STACK_BYTES + one


# -- leading eigenvalues --------------------------------------------------------------


def test_top_eigenpairs_diagonal_oracle():
    model, loss_fn, batch = _quad(np.diag([5.0, 2.0, -1.0, 0.5]))
    values, vectors, converged = top_eigenpairs(model, loss_fn, batch, k=2,
                                                iters=500, tol=1e-10)
    assert converged == [True, True]
    assert abs(values[0] - 5.0) < 1e-6
    assert abs(values[1] - 2.0) < 1e-6
    assert abs(abs(vectors[0][0]) - 1.0) < 1e-4
    assert abs(abs(vectors[1][1]) - 1.0) < 1e-4


def test_top_eigenvalue_keeps_sign():
    model, loss_fn, batch = _quad(np.diag([-5.0, 1.0, 2.0, 0.1]))
    values, _, converged = top_eigenpairs(model, loss_fn, batch, k=1,
                                          iters=500, tol=1e-10)
    assert converged[0]
    assert abs(values[0] - (-5.0)) < 1e-6


def test_top_eigenpairs_rotated_spectrum():
    rng = np.random.default_rng(3)
    q = random_orthogonal(5, rng)
    lam = np.array([4.0, -2.5, 1.0, 0.3, 0.1])
    a = q @ np.diag(lam) @ q.T
    model, loss_fn, batch = _quad(a)
    values, vectors, _ = top_eigenpairs(model, loss_fn, batch, k=2,
                                        iters=1000, tol=1e-12)
    assert abs(values[0] - 4.0) < 1e-5
    assert abs(values[1] - (-2.5)) < 1e-5
    assert abs(abs(vectors[0] @ q[:, 0]) - 1.0) < 1e-4
    assert abs(abs(vectors[1] @ q[:, 1]) - 1.0) < 1e-4


def test_top_eigenpairs_validation_and_determinism():
    model, loss_fn, batch = _quad(np.eye(3))
    with pytest.raises(ValueError):
        top_eigenpairs(model, loss_fn, batch, k=0)
    with pytest.raises(ValueError, match="exceeds the 3 parameters"):
        top_eigenpairs(model, loss_fn, batch, k=4)
    v1, _, _ = top_eigenpairs(model, loss_fn, batch, k=1, seed=9)
    v2, _, _ = top_eigenpairs(model, loss_fn, batch, k=1, seed=9)
    assert v1 == v2
    rng = np.random.default_rng(4)
    q = random_orthogonal(6, rng)
    model, loss_fn, batch = _quad(q @ np.diag(rng.uniform(-2.0, 2.0, 6)) @ q.T,
                                  b=rng.normal(size=6))
    model.params["theta"].data[:] = rng.normal(size=6)
    first, again = (top_eigenpairs(model, loss_fn, batch, k=3, iters=4, seed=9)
                    for _ in range(2))
    assert first[0] == again[0] and first[2] == again[2]
    assert [v.tobytes() for v in first[1]] == [v.tobytes() for v in again[1]]


def _residuals(a, values, vectors):
    return [float(np.linalg.norm(a @ v - lam * v)) for lam, v in zip(values, vectors)]


def test_top_eigenpairs_separates_close_pairs():
    # 4.101 and 4.011 differ by 2%: a solver that finds one pair at a time and
    # deflates it stops near 4.09 and 4.02 here, and flags pairs converged
    # whose residuals are 0.7-7% of their values
    lam = np.array([4.101, 4.011, 3.0, -2.9])
    for seed in range(3):
        rng = np.random.default_rng(seed)
        spectrum = np.concatenate([lam, rng.uniform(0.01, 1.0, 36)])
        q = random_orthogonal(40, rng)
        a = q @ np.diag(spectrum) @ q.T
        model, loss_fn, batch = _quad(a)
        values, vectors, converged = top_eigenpairs(model, loss_fn, batch, k=4,
                                                    seed=seed)
        assert converged == [True] * 4, seed
        assert np.max(np.abs(np.array(values) - lam)) < 1e-3, (seed, values)
        for lam_i, r in zip(values, _residuals(a, values, vectors)):
            assert r <= 2 * 1e-4 * abs(lam_i), (seed, lam_i, r)


@pytest.mark.parametrize("diagonal,k", [([1.0, 1.0, 1.0], 2), ([3.0, 3.0, 1.0, 1.0], 3)])
def test_top_eigenpairs_when_the_krylov_space_closes_early(diagonal, k):
    # one start vector spans only one direction per distinct eigenvalue, so
    # the solve must grow from fresh draws to reach k pairs
    a = np.diag(diagonal)
    model, loss_fn, batch = _quad(a)
    values, vectors, converged = top_eigenpairs(model, loss_fn, batch, k=k)
    assert converged == [True] * k
    assert np.max(np.abs(np.array(values) - np.array(diagonal[:k]))) < 1e-8
    gram = np.stack(vectors) @ np.stack(vectors).T
    assert np.max(np.abs(gram - np.eye(k))) < 1e-8
    assert max(_residuals(a, values, vectors)) < 1e-8


def test_top_eigenpairs_makes_at_most_n_products(monkeypatch):
    calls = []
    real = hessian.hvp
    monkeypatch.setattr(hessian, "hvp", lambda lin, v: calls.append(1) or real(lin, v))
    rng = np.random.default_rng(5)
    q = random_orthogonal(7, rng)
    model, loss_fn, batch = _quad(q @ np.diag(np.arange(1.0, 8.0)) @ q.T)
    # a tolerance below round-off is met only by spanning all 7 directions
    _, _, converged = top_eigenpairs(model, loss_fn, batch, k=3, iters=500,
                                     tol=1e-15)
    assert converged == [True] * 3
    assert len(calls) == 7


def test_converged_is_a_residual_bound_on_blocknet():
    spec = BlockNetSpec(input_shape=(6,), num_classes=4, widths=(5, 5))
    net = BlockNet(spec, rng=np.random.default_rng(14))
    rng = np.random.default_rng(15)
    batch = (rng.normal(size=(9, 6)), rng.integers(0, 4, size=9))
    lin = linearize(net, ce_loss_fn, batch)
    dense = hvp_hessian(lin)
    tol = 1e-4
    values, vectors, converged = top_eigenpairs(net, ce_loss_fn, batch, k=4, tol=tol,
                                                lin=lin)
    assert converged == [True] * 4
    for lam_i, r in zip(values, _residuals(dense, values, vectors)):
        assert r <= 2 * tol * abs(lam_i), (lam_i, r)


# -- trace and diagonal ---------------------------------------------------------------


def test_hutchinson_exact_for_diagonal_hessian():
    d = np.array([3.0, -1.0, 2.0, 0.5, 4.0])
    model, loss_fn, batch = _quad(np.diag(d))
    trace, stderr = hutchinson_trace(
        hessian_diagonal(model, loss_fn, batch, num_probes=10)[2])
    # v * diag * v sums the diagonal exactly for +-1 probes
    assert abs(trace - d.sum()) < 1e-7
    assert stderr < 1e-7


def test_hutchinson_covers_dense_hessian():
    a = _random_symmetric(8, seed=4, scale=2.0)
    model, loss_fn, batch = _quad(a)
    trace, stderr = hutchinson_trace(
        hessian_diagonal(model, loss_fn, batch, num_probes=500, seed=5)[2])
    assert abs(trace - np.trace(a)) <= 3.0 * stderr + 1e-7


def test_hessian_diagonal_exact_for_diagonal_hessian():
    d = np.array([3.0, -1.0, 2.0, 0.5])
    model, loss_fn, batch = _quad(np.diag(d))
    diag, stderr, _ = hessian_diagonal(model, loss_fn, batch, num_probes=8)
    assert np.max(np.abs(diag - d)) < 1e-7
    assert np.max(stderr) < 1e-7


def test_hessian_diagonal_covers_dense_hessian():
    a = _random_symmetric(6, seed=6)
    model, loss_fn, batch = _quad(a)
    diag, stderr, _ = hessian_diagonal(model, loss_fn, batch, num_probes=800,
                                       seed=7)
    assert np.all(np.abs(diag - np.diag(a)) <= 3.0 * stderr + 1e-7)


def test_probe_count_validation():
    model, loss_fn, batch = _quad(np.eye(2))
    with pytest.raises(ValueError):
        hutchinson_trace(np.zeros(0))
    with pytest.raises(ValueError):
        hessian_diagonal(model, loss_fn, batch, num_probes=0)


def test_trace_on_mlp_matches_double_fd():
    rng = np.random.default_rng(8)
    model = TanhMLP((3, 4, 2), rng)
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 2, size=6)
    h_dense = numeric_hessian(lambda: ce_loss_fn(model, x, y), model.params)
    trace, stderr = hutchinson_trace(
        hessian_diagonal(model, ce_loss_fn, (x, y), num_probes=300, seed=9)[2])
    assert abs(trace - np.trace(h_dense)) <= 3.0 * stderr + 1e-3


def test_report_bundles_everything():
    model, loss_fn, batch = _quad(np.diag([2.0, 1.0, 0.5]))
    rep = hessian_report(model, loss_fn, batch, k=2, num_probes=16, seed=0)
    d = rep.to_dict()
    assert set(d) == {"top_eigenvalues", "eigen_converged", "trace_estimate",
                      "trace_stderr", "diagonal", "diagonal_stderr",
                      "num_probes", "seed"}
    assert abs(d["trace_estimate"] - 3.5) < 1e-7
    assert abs(d["top_eigenvalues"][0] - 2.0) < 1e-4
    assert len(d["diagonal"]) == 3


# -- cross-client comparison ----------------------------------------------------------


def test_cross_client_hand_oracle():
    rep = cross_client_metrics([np.array([1.0, 0.0]),
                                np.array([0.0, 1.0]),
                                np.array([2.0, 0.0])])
    # squared norms 1, 1, 4; pairs (0,1): gap 0 dot 0; (0,2): gap 9 dot 2;
    # (1,2): gap 9 dot 0
    assert abs(rep.norm_gap - 6.0) < 1e-12
    assert abs(rep.direction - (0.5 / 3.0)) < 1e-12
    assert abs(rep.direction_cosine - (1.0 / 3.0)) < 1e-12
    assert len(rep.per_pair) == 3
    assert rep.per_pair[1]["clients"] == [0, 2]
    assert abs(rep.per_pair[1]["norm_gap"] - 9.0) < 1e-12
    assert abs(rep.per_pair[1]["direction"] - 0.5) < 1e-12
    assert abs(rep.per_pair[1]["direction_cosine"] - 1.0) < 1e-12


def test_cross_client_identical_diagonals():
    d = np.array([1.5, -2.0, 0.25])
    rep = cross_client_metrics([d.copy(), d.copy(), d.copy()])
    assert rep.norm_gap == 0.0
    assert abs(rep.direction_cosine - 1.0) < 1e-12


def test_cross_client_validation():
    with pytest.raises(ValueError):
        cross_client_metrics([np.ones(3)])
    with pytest.raises(ValueError):
        cross_client_metrics([np.ones(3), np.zeros(3)])
    with pytest.raises(ValueError):
        cross_client_metrics([np.ones(3), np.ones(3)], client_ids=[0])
    rep = cross_client_metrics([np.ones(2), 2 * np.ones(2)], client_ids=[4, 9])
    assert rep.per_pair[0]["clients"] == [4, 9]
    assert rep.skipped == [] and "skipped" not in rep.to_dict()


def test_cross_client_skips_a_zero_norm_diagonal():
    d0, d2 = np.array([1.0, 2.0, 0.0]), np.array([0.5, -1.0, 3.0])
    rep = cross_client_metrics([d0, np.zeros(3), d2], client_ids=[3, 5, 7])
    want = cross_client_metrics([d0, d2], client_ids=[3, 7])
    assert rep.skipped == [5]
    assert rep.to_dict() == {**want.to_dict(), "skipped": [5]}
    assert [p["clients"] for p in rep.per_pair] == [[3, 7]]
    with pytest.raises(ValueError, match="zero-norm: \\[5, 7\\]"):
        cross_client_metrics([d0, np.zeros(3), np.zeros(3)], client_ids=[3, 5, 7])


# -- landscape slices -----------------------------------------------------------------


def test_landscape_center_is_unperturbed_loss():
    a = np.diag([4.0, 1.0, 0.5])
    model, loss_fn, batch = _quad(a, b=np.array([0.3, -0.2, 0.1]))
    model.params["theta"].data[:] = [0.5, -1.0, 2.0]
    before = model.params["theta"].data.copy()
    want = loss_fn(model, None, None).item()
    _, (d1, d2), _ = top_eigenpairs(model, loss_fn, batch, k=2, seed=0)
    alphas, betas, losses = landscape_slice(model, loss_fn, batch, d1, d2, grid=5,
                                            radius=0.5)
    c = len(alphas) // 2
    assert losses[c, c] == want
    assert alphas[c] == 0.0 and betas[c] == 0.0
    assert np.array_equal(model.params["theta"].data, before)


def test_landscape_curvature_matches_top_eigenvalue():
    # pure quadratic at the origin: L(a*v1 + b*v2) = (lam1 a^2 + lam2 b^2)/2
    model, loss_fn, batch = _quad(np.diag([4.0, 1.0, 0.5]))
    _, (d1, d2), _ = top_eigenpairs(model, loss_fn, batch, k=2, seed=0)
    alphas, betas, losses = landscape_slice(model, loss_fn, batch, d1, d2, grid=5,
                                            radius=1.0)
    c = len(alphas) // 2
    step = alphas[c + 1]
    assert abs((losses[c + 1, c] - losses[c, c]) - 0.5 * 4.0 * step ** 2) < 1e-6
    assert abs((losses[c, c + 1] - losses[c, c]) - 0.5 * 1.0 * step ** 2) < 1e-6
    assert np.max(np.abs(losses - losses[::-1, :][:, ::-1])) < 1e-9  # symmetric


def test_landscape_explicit_directions_orthonormalized():
    model, loss_fn, batch = _quad(np.diag([2.0, 1.0]))
    d1 = np.array([2.0, 0.0])
    d2 = np.array([1.0, 1.0])  # oblique on purpose
    alphas, _, losses = landscape_slice(model, loss_fn, batch, dir1=d1,
                                        dir2=d2, grid=3, radius=1.0)
    # after Gram-Schmidt d2 -> e2, so the corners are L(+-1, +-1)
    assert abs(losses[2, 2] - 1.5) < 1e-12
    assert abs(losses[2, 0] - 1.5) < 1e-12


def test_landscape_validation():
    model, loss_fn, batch = _quad(np.eye(2))
    _, (d1, d2), _ = top_eigenpairs(model, loss_fn, batch, k=2, seed=0)
    with pytest.raises(ValueError):
        landscape_slice(model, loss_fn, batch, d1, d2, grid=4)
    for radius in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            landscape_slice(model, loss_fn, batch, d1, d2, grid=3, radius=radius)
    with pytest.raises(ValueError):
        landscape_slice(model, loss_fn, batch, dir1=np.ones(2),
                        dir2=2 * np.ones(2), grid=3)
    with pytest.raises(ValueError):
        landscape_slice(model, loss_fn, batch, dir1=np.ones(3),
                        dir2=np.ones(3), grid=3)


# -- the probe loss on real models ------------------------------------------------------


def test_ce_loss_fn_on_blocknet():
    spec = BlockNetSpec(input_shape=(6,), num_classes=4, widths=(5, 5))
    net = BlockNet(spec, rng=np.random.default_rng(10))
    x = np.random.default_rng(11).normal(size=(3, 6))
    y = np.array([0, 1, 2])
    assert np.isfinite(ce_loss_fn(net, x, y).item())
    values, _, _ = top_eigenpairs(net, ce_loss_fn, (x, y), k=1, iters=50)
    assert np.isfinite(values[0])
