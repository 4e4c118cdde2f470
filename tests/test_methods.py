"""Local objectives: closed-form values, gradient identities, update-loop laws."""
import tracemalloc

import numpy as np
import pytest

from fedsim import methods
from fedsim.methods import (ClientTask, METHODS, MethodConfig,
                            _kd_divergence, _np_softmax, client_update,
                            loss_ce, loss_fedalign, loss_fedprox, loss_gradaug,
                            loss_moon, spectral_norm, transmitting_matrices)
from fedsim.models import BlockNet, BlockNetSpec
from fedsim.tensor import Tensor, gradients, params_to_vector

from helpers import matrix_with_spectrum

SPEC = BlockNetSpec(input_shape=(12,), num_classes=3, widths=(6, 6))
CONV_SPEC = BlockNetSpec(input_shape=(2, 8, 8), num_classes=3, widths=(4, 8))


def _net(seed=0, **kw):
    return BlockNet(SPEC, rng=np.random.default_rng(seed), **kw)


def _batch(seed=1, n=10, spec=SPEC):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n,) + spec.input_shape)
    y = rng.integers(0, spec.num_classes, size=n)
    return x, y


def _task(net, x, y, seed=2, method=None, epochs=1, with_prev=False, **kw):
    """A task that starts from net's weights (and, with_prev, has them as the
    previous-round weights too), at batch size 4 and the optimizer defaults."""
    received = params_to_vector(net.params)
    sgd = dict(batch_size=4, learning_rate=0.01, momentum=0.9, clip_norm=5.0)
    sgd.update(kw)
    return ClientTask(client_id=0, round_idx=0, method=method or MethodConfig(),
                      spec=net.spec, inputs=x, labels=y, received=received,
                      prev=received if with_prev else None,
                      data_rng=np.random.default_rng([seed, 0]),
                      method_rng=np.random.default_rng([seed, 1]),
                      epochs=epochs, **sgd)


# -- configuration ----------------------------------------------------------------


def test_method_config_defaults():
    assert MethodConfig().mu == 0.0
    assert MethodConfig(method="fedprox").mu == 1e-4
    assert MethodConfig(method="moon").mu == 1.0
    assert MethodConfig(method="fedalign").mu == 0.45
    assert MethodConfig(method="moon").tau == 0.5
    assert MethodConfig(method="stochdepth").gamma_L == 0.9
    assert MethodConfig(method="fedalign").omega_S == 0.25
    assert MethodConfig(method="gradaug").omega_b == 0.8


def test_gradaug_mu_tracks_subnetwork_count():
    assert MethodConfig(method="gradaug", n_subnets=1).mu == 1.5
    assert MethodConfig(method="gradaug", n_subnets=2).mu == 1.75
    assert MethodConfig(method="gradaug", n_subnets=3).mu == 2.0
    assert MethodConfig(method="gradaug", n_subnets=4).mu == 2.25
    assert MethodConfig(method="gradaug", n_subnets=7).mu == 1.75  # fallback
    assert MethodConfig(method="gradaug", mu=0.3).mu == 0.3  # explicit wins


def test_method_config_validation():
    with pytest.raises(ValueError):
        MethodConfig(method="fedsgd")
    with pytest.raises(ValueError):
        MethodConfig(mu=-1.0)
    with pytest.raises(ValueError):
        MethodConfig(gamma_L=0.0)
    with pytest.raises(ValueError):
        MethodConfig(omega_S=1.2)
    with pytest.raises(ValueError):
        MethodConfig(tau=0.0)
    with pytest.raises(ValueError):
        MethodConfig.from_dict({"method": "fedavg", "extra": 1})
    assert MethodConfig.from_dict(MethodConfig(method="moon").to_dict()).mu == 1.0


def test_needs_projection_only_for_contrastive():
    for m in METHODS:
        assert MethodConfig(method=m).needs_projection == (m == "moon")


# -- cross entropy and fedprox -------------------------------------------------------


def test_loss_ce_uniform():
    assert abs(loss_ce(Tensor(np.zeros((5, 3))), np.zeros(5, dtype=int)).item()
               - np.log(3.0)) < 1e-15


def test_fedprox_value_hand_computed():
    params = {"w": Tensor(np.array([1.0, 2.0]), requires_grad=True)}
    anchor = params_to_vector({"w": Tensor(np.array([0.0, 0.0]))})
    base = Tensor(1.0)
    # (mu/2) * (1 + 4) = 0.25
    loss = loss_fedprox(base, params, anchor, mu=0.1)
    assert abs(loss.item() - 1.25) < 1e-15


def test_fedprox_gradient_identity():
    net = _net(seed=3)
    x, y = _batch(seed=4)
    anchor = {k: v.data + 0.1 for k, v in net.params.items()}
    mu = 0.37

    ce = gradients(loss_ce(net.forward(x), y), net.params)
    base = loss_ce(net.forward(x), y)
    anchor_vec = params_to_vector({k: Tensor(a) for k, a in anchor.items()})
    prox = gradients(loss_fedprox(base, net.params, anchor_vec, mu), net.params)
    for name in net.params:
        want = ce[name] + mu * (net.params[name].data - anchor[name])
        assert np.max(np.abs(prox[name] - want)) < 1e-10, name


def test_fedprox_mu_zero_is_base():
    base = Tensor(2.0, requires_grad=True)
    assert loss_fedprox(base, {"w": Tensor(np.ones(2))},
                        params_to_vector({"w": Tensor(np.zeros(2))}), 0.0) is base


# -- contrastive loss -----------------------------------------------------------------


def test_moon_identical_representations_log2():
    z = Tensor(np.random.default_rng(5).normal(size=(4, 8)), requires_grad=True)
    base = Tensor(0.5)
    loss = loss_moon(base, z, Tensor(z.data.copy()), Tensor(z.data.copy()),
                     tau=0.5, mu=1.0)
    assert abs(loss.item() - (0.5 + np.log(2.0))) < 1e-12


def test_moon_opposed_previous_frozen_value():
    # cos(local, global) = 1, cos(local, prev) = -1, tau = 0.5:
    # term = log(e^2 + e^-2) - 2 = log1p(e^-4)
    z = Tensor(np.random.default_rng(6).normal(size=(3, 5)), requires_grad=True)
    loss = loss_moon(Tensor(0.0), z, Tensor(z.data.copy()),
                     Tensor(-z.data.copy()), tau=0.5, mu=2.0)
    want = 2.0 * np.log1p(np.exp(-4.0))
    assert abs(loss.item() - want) < 1e-12


def test_moon_gradient_only_through_local():
    rng = np.random.default_rng(7)
    z_local = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    z_global = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    z_prev = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    loss = loss_moon(Tensor(0.0), z_local, z_global, z_prev, tau=0.5, mu=1.0)
    got = gradients(loss, {"local": z_local, "global": z_global, "prev": z_prev})
    assert np.any(got["local"])
    assert not np.any(got["global"])
    assert not np.any(got["prev"])


def test_moon_mu_zero_and_zero_norm():
    base = Tensor(1.0, requires_grad=True)
    z = Tensor(np.ones((2, 3)))
    assert loss_moon(base, z, z, z, 0.5, 0.0) is base
    # each norm is floored, so a zero row has cosine 0 with anything and the
    # term is log(e^0 + e^0) - 0 = log 2
    zero = Tensor(np.zeros((2, 3)), requires_grad=True)
    loss = loss_moon(base, zero, z, z, 0.5, 1.0)
    assert abs(loss.item() - (1.0 + np.log(2.0))) < 1e-12
    assert np.all(np.isfinite(gradients(loss, {"zero": zero})["zero"]))
    local = Tensor(np.ones((2, 3)), requires_grad=True)
    loss = loss_moon(base, local, Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))),
                     0.5, 1.0)
    assert abs(loss.item() - (1.0 + np.log(2.0))) < 1e-12
    assert np.all(np.isfinite(gradients(loss, {"local": local})["local"]))


# -- distillation pieces -----------------------------------------------------------


def test_kd_divergence_zero_on_self():
    logits = Tensor(np.random.default_rng(8).normal(size=(4, 5)))
    kd = _kd_divergence(logits, _np_softmax(logits.data))
    assert abs(kd.item()) < 1e-12


def test_kd_divergence_nonnegative_and_hand_value():
    q_logits = Tensor(np.array([[np.log(0.5), np.log(0.25), np.log(0.25)]]))
    p = np.array([[0.25, 0.5, 0.25]])
    kd = _kd_divergence(q_logits, p)
    want = 0.5 * np.log(2.0) + 0.25 * np.log(0.5)  # sum q log(q/p)
    assert abs(kd.item() - want) < 1e-12
    rng = np.random.default_rng(9)
    for _ in range(10):
        q = Tensor(rng.normal(size=(3, 4)))
        t = _np_softmax(rng.normal(size=(3, 4)))
        assert _kd_divergence(q, t).item() > -1e-12


def test_gradaug_mu_zero_short_circuits():
    net = _net(seed=10)
    x, y = _batch(seed=11)
    cfg = MethodConfig(method="gradaug", mu=0.0)
    rng = np.random.default_rng(12)
    loss = loss_gradaug(net, x, y, cfg, rng)[0]
    want = loss_ce(net.forward(x), y).item()
    assert loss.item() == want
    # the rng must not have been consumed on the short-circuit path
    assert rng.integers(0, 1 << 30) == np.random.default_rng(12).integers(0, 1 << 30)


def test_gradaug_adds_nonnegative_distillation():
    net = _net(seed=13)
    x, y = _batch(seed=14)
    cfg = MethodConfig(method="gradaug")  # mu = 1.75, 2 subnetworks
    base = loss_ce(net.forward(x), y).item()
    loss = loss_gradaug(net, x, y, cfg, np.random.default_rng(15))[0]
    assert loss.item() >= base - 1e-12
    again = loss_gradaug(net, x, y, cfg, np.random.default_rng(15))[0]
    assert loss.item() == again.item()  # same rng stream, same value


def test_gradaug_zero_subnetworks():
    net = _net(seed=16)
    x, y = _batch(seed=17)
    cfg = MethodConfig(method="gradaug", n_subnets=0, mu=1.75)
    loss = loss_gradaug(net, x, y, cfg, np.random.default_rng(18))[0]
    assert loss.item() == loss_ce(net.forward(x), y).item()


# -- transmitting matrices and spectral norm --------------------------------------------


def test_transmitting_matrix_orthonormal_identity():
    # f with orthonormal columns: f^T f = I exactly
    q, _ = np.linalg.qr(np.random.default_rng(19).normal(size=(8, 4)))
    f = Tensor(q)
    x_full, x_sub = transmitting_matrices(f, f, f)
    assert np.allclose(x_full.data, np.eye(4), atol=1e-12)
    assert np.allclose(x_sub.data, np.eye(4), atol=1e-12)


def test_transmitting_matrix_flat_oracle():
    rng = np.random.default_rng(20)
    a = rng.normal(size=(6, 3))
    b = rng.normal(size=(6, 5))
    x_full, _ = transmitting_matrices(Tensor(a), Tensor(b), Tensor(b))
    assert x_full.shape == (3, 5)
    assert np.allclose(x_full.data, a.T @ b, atol=1e-12)


def test_transmitting_matrix_pools_larger_spatial_map():
    rng = np.random.default_rng(21)
    a = rng.normal(size=(2, 3, 4, 4))
    b = rng.normal(size=(2, 5, 2, 2))
    x_full, _ = transmitting_matrices(Tensor(a), Tensor(b), Tensor(b))
    # oracle: pool a to 2x2 (mean of each 2x2 window), flatten, multiply
    pooled = a.reshape(2, 3, 2, 2, 2, 2).mean(axis=(3, 5))
    fa = pooled.transpose(0, 2, 3, 1).reshape(-1, 3)
    fb = b.transpose(0, 2, 3, 1).reshape(-1, 5)
    assert x_full.shape == (3, 5)
    assert np.allclose(x_full.data, fa.T @ fb, atol=1e-12)


def test_transmitting_matrix_rejects_bad_rank():
    with pytest.raises(ValueError):
        transmitting_matrices(Tensor(np.zeros((2, 3, 4))),
                              Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_spectral_norm_svd_oracle_separated():
    rng = np.random.default_rng(22)
    for _ in range(20):
        m, n = rng.integers(2, 12, size=2)
        k = int(min(m, n))
        sigmas = np.sort(rng.uniform(0.1, 3.0, size=k))[::-1]
        sigmas[0] = sigmas[0] + 1.0  # guarantee a spectral gap
        a = matrix_with_spectrum(int(m), int(n), sigmas, rng)
        got = spectral_norm(Tensor(a), power_iters=60, rng=rng).item()
        want = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(got - want) / want < 1e-9


def test_spectral_norm_gradient_is_rank_one():
    # d(sigma_max)/dX = u1 v1^T; compare against finite differences of the SVD
    rng = np.random.default_rng(23)
    a = matrix_with_spectrum(5, 4, [3.0, 1.0, 0.4, 0.1], rng)
    x = Tensor(a, requires_grad=True)
    grad = gradients(spectral_norm(x, power_iters=100, rng=rng), {"x": x})["x"]
    eps = 1e-6
    fd = np.zeros_like(a)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            up = a.copy(); up[i, j] += eps
            dn = a.copy(); dn[i, j] -= eps
            fd[i, j] = (np.linalg.svd(up, compute_uv=False)[0]
                        - np.linalg.svd(dn, compute_uv=False)[0]) / (2 * eps)
    assert np.max(np.abs(grad - fd)) < 1e-5


def test_spectral_norm_zero_matrix():
    x = Tensor(np.zeros((3, 3)), requires_grad=True)
    s = spectral_norm(x, np.random.default_rng(0))
    assert s.item() == 0.0
    assert np.array_equal(gradients(s, {"x": x})["x"], np.zeros((3, 3)))


def test_spectral_norm_validation():
    with pytest.raises(ValueError):
        spectral_norm(Tensor(np.zeros(3)), np.random.default_rng(0))
    with pytest.raises(ValueError):
        spectral_norm(Tensor(np.zeros((2, 2))), np.random.default_rng(0), power_iters=0)


# -- fedalign -----------------------------------------------------------------------


def test_fedalign_full_width_subblock_collapses_to_ce():
    net = _net(seed=24)
    x, y = _batch(seed=25)
    cfg = MethodConfig(method="fedalign", omega_S=1.0)
    loss = loss_fedalign(net, x, y, cfg, np.random.default_rng(26))[0]
    assert loss.item() == loss_ce(net.forward(x), y).item()


def test_fedalign_mu_zero_is_ce():
    net = _net(seed=27)
    x, y = _batch(seed=28)
    cfg = MethodConfig(method="fedalign", mu=0.0)
    loss = loss_fedalign(net, x, y, cfg, np.random.default_rng(29))[0]
    assert loss.item() == loss_ce(net.forward(x), y).item()


def test_fedalign_relative_scaling_identity():
    # whenever the alignment term survives the epsilon guard, its scaled
    # contribution equals mu times the cross-entropy value
    net = _net(seed=30)
    x, y = _batch(seed=31)
    cfg = MethodConfig(method="fedalign")  # omega_S 0.25, mu 0.45
    base = loss_ce(net.forward(x), y).item()
    loss = loss_fedalign(net, x, y, cfg, np.random.default_rng(32))[0]
    assert loss.item() == pytest.approx(base * (1.0 + cfg.mu), rel=1e-9)


def test_fedalign_conv_path_runs():
    net = BlockNet(CONV_SPEC, rng=np.random.default_rng(33))
    x, y = _batch(seed=34, n=4, spec=CONV_SPEC)
    loss = loss_fedalign(net, x, y, MethodConfig(method="fedalign"),
                         np.random.default_rng(35))[0]
    assert np.isfinite(loss.item())


# -- the update loop ----------------------------------------------------------------


def test_client_update_zero_epochs_is_noop():
    net = _net(seed=36)
    x, y = _batch(seed=37)
    task = _task(net, x, y, epochs=0)
    vec, stats = client_update(task)
    assert stats == []
    assert vec.layout == task.received.layout
    assert np.array_equal(vec.data, task.received.data)


def test_client_update_deterministic():
    x, y = _batch(seed=38)
    outs = [client_update(_task(_net(seed=39), x, y, seed=40, epochs=2))[0].data
            for _ in range(2)]
    assert np.array_equal(outs[0], outs[1])


def test_client_update_reports_weighted_stats():
    net = _net(seed=41)
    x, y = _batch(seed=42, n=6)
    _, stats = client_update(_task(net, x, y, epochs=3, learning_rate=0.05))
    assert len(stats) == 3
    assert all(set(s) == {"loss", "accuracy"} for s in stats)
    assert stats[-1]["loss"] < stats[0]["loss"]  # it does learn something


def test_client_update_validation():
    net = _net()
    x, y = _batch()
    with pytest.raises(ValueError):
        client_update(_task(net, x, y, epochs=-1))
    with pytest.raises(ValueError):
        client_update(_task(net, x, y, batch_size=0))
    with pytest.raises(ValueError):
        client_update(_task(net, x[:0], y[:0]))


def test_moon_update_requires_reference_weights():
    net = _net(seed=43, with_projection=True)
    x, y = _batch(seed=44)
    for mu in (1.0, 0.0):
        with pytest.raises(ValueError):
            client_update(_task(net, x, y, method=MethodConfig(method="moon", mu=mu)))


def _trajectory(method_cfg, seed=45, epochs=2):
    net = BlockNet(SPEC, rng=np.random.default_rng(seed),
                   with_projection=method_cfg.needs_projection)
    x, y = _batch(seed=seed + 1)
    task = _task(net, x, y, seed=seed + 2, method=method_cfg, epochs=epochs,
                 with_prev=True)
    return client_update(task)[0]


def test_mu_zero_trajectories_match_plain_ce_bitwise():
    want = _trajectory(MethodConfig(method="fedavg")).data
    assert np.array_equal(_trajectory(MethodConfig(method="fedprox", mu=0.0)).data, want)
    assert np.array_equal(_trajectory(MethodConfig(method="gradaug", mu=0.0)).data, want)
    assert np.array_equal(
        _trajectory(MethodConfig(method="fedalign", omega_S=1.0)).data, want)
    assert np.array_equal(
        _trajectory(MethodConfig(method="stochdepth", gamma_L=1.0)).data, want)


def test_moon_mu_zero_matches_ce_with_projection():
    # fedavg's model has no projection head; its proj.* entries sort last
    want = _trajectory(MethodConfig(method="fedavg"))
    got = _trajectory(MethodConfig(method="moon", mu=0.0))
    n = len(want.layout)
    assert got.layout[:n] == want.layout
    assert all(name.startswith("proj.") for name, _, _ in got.layout[n:])
    assert np.array_equal(got.data[:want.size], want.data)


def test_every_method_trains_without_error():
    for m in METHODS:
        net = BlockNet(SPEC, rng=np.random.default_rng(46),
                       with_projection=(m == "moon"))
        x, y = _batch(seed=47)
        _, stats = client_update(_task(net, x, y, seed=48,
                                       method=MethodConfig(method=m), with_prev=True))
        assert np.isfinite(stats[0]["loss"]), m


def _traced_peak(task: ClientTask) -> int:
    tracemalloc.start()
    try:
        client_update(task)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_client_update_holds_one_step_graph_at_a_time():
    # a second step's forward must not run beside the first step's graph
    def gradaug_task(steps):
        net = BlockNet(CONV_SPEC, rng=np.random.default_rng(49))
        x, y = _batch(seed=50, n=8 * steps, spec=CONV_SPEC)
        return _task(net, x, y, method=MethodConfig(method="gradaug"), batch_size=8)

    client_update(gradaug_task(1))  # warm-up: this process's models, numpy caches
    one, two = _traced_peak(gradaug_task(1)), _traced_peak(gradaug_task(2))
    assert two <= 1.25 * one, (one, two)


# -- the per-process model store ---------------------------------------------------


def _store_task(kind: str, **kw) -> ClientTask:
    """A fresh task (its generators unused) of one of three shapes and methods."""
    if kind == "moon":
        net, spec = _net(seed=50, with_projection=True), SPEC
        prev = params_to_vector(_net(seed=51, with_projection=True).params)
        kw = {"method": MethodConfig(method="moon"), **kw}
    elif kind == "conv":
        net, spec, prev = BlockNet(CONV_SPEC, rng=np.random.default_rng(52)), CONV_SPEC, None
        kw = {"method": MethodConfig(method="fedalign"), **kw}
    else:
        net, spec, prev = _net(seed=53), SPEC, None
        kw = {"method": MethodConfig(method="gradaug"), **kw}
    x, y = _batch(seed=54, n=10, spec=spec)
    task = _task(net, x, y, seed=55, epochs=2, **kw)
    task.prev = prev
    return task


def _on_fresh_models(task: ClientTask):
    methods._MODELS.clear()
    return client_update(task)


def _same_result(got, want) -> bool:
    (vec, stats), (want_vec, want_stats) = got, want
    return (vec.layout == want_vec.layout and vec.data.tobytes() == want_vec.data.tobytes()
            and stats == want_stats)


def test_reused_models_match_fresh_ones_bitwise():
    kinds = ["moon", "conv", "dense", "moon", "moon", "dense", "conv"]
    want = {k: _on_fresh_models(_store_task(k)) for k in dict.fromkeys(kinds)}
    methods._MODELS.clear()
    for kind in kinds:
        assert _same_result(client_update(_store_task(kind)), want[kind]), kind


def _failing_task() -> ClientTask:
    """A moon task with one infinite sample, reached at its fourth step."""
    task = _store_task("moon", batch_size=1)
    order = np.random.default_rng([55, 0]).permutation(len(task.inputs))  # its data_rng
    task.inputs = task.inputs.copy()
    task.inputs[order[3]] = np.inf
    return task


def test_failed_task_leaves_no_trace_in_the_next():
    for after in ("moon", "dense"):
        want = _on_fresh_models(_store_task(after))
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            client_update(_failing_task())
        assert _same_result(client_update(_store_task(after)), want), after
