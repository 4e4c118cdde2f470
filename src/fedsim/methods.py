"""Local training objectives and the per-client update loop.

Seven local objectives share one loop: plain cross-entropy (fedavg), a
proximal pull toward the received weights (fedprox), model-contrastive
representation alignment (moon), input mixing (mixup), stochastic depth,
self-distillation from the full network into sampled-width subnetworks
(gradaug), and spectral alignment of the final block's transmitting matrices
(fedalign). Every mu-weighted extra term short-circuits at mu = 0 so the
gradient path is then identical to plain cross-entropy.

A method is one record in METHOD_TABLE: its default mu, the step function
that builds one batch's loss, its per-sample cost, and whether it trains
against the received and previous-round models through a projection head.
The update loop, the round loop and the cost model read the record and
nothing else, so adding a method is adding one entry.

One client's local training is one ClientTask, built by the round loop;
client_update loads it into the models this process keeps for the task's
shape (process_models), trains one step(net, task, xb, yb, shadows) at a
time, each step's graph freed before the next step's forward, and returns
the trained ParamVector. shadows are moon's frozen received and
previous-round models, which run no classifier.
"""
from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field

import numpy as np

from .data import DOWNSAMPLE_SCALES, downsample_transform, mixup_batch
from .fields import Record
from .models import (BlockNet, BlockNetSpec, block_cost, keep_probability,
                     layer_cost, model_params, slim_width, stack_cost)
from .tensor import (ParamVector, Tensor, adaptive_avg_pool2d, clamp_min,
                     clip_grad_norm, exp, gradients, load_vector, log, log_softmax,
                     matmul, mse, params_to_vector, softmax_cross_entropy, sgd_step,
                     sqrt)


# -- configs ------------------------------------------------------------------


@dataclass(frozen=True)
class MethodConfig(Record):
    """Hyperparameters for one local-training method.

    mu defaults to the method's standard operating point when left as None.
    """

    method: str = "fedavg"
    mu: float | None = None
    gamma: float = 0.1          # mixup Beta parameter
    gamma_L: float = 0.9        # stochastic depth final keep probability
    omega_b: float = 0.8        # gradaug lower width bound
    n_subnets: int = 2          # gradaug subnetworks per step
    omega_S: float = 0.25       # fedalign sub-block width
    tau: float = 0.5            # moon temperature

    def __post_init__(self):
        if self.method not in METHOD_TABLE:
            raise ValueError(f"unknown method {self.method!r}")
        if self.mu is None:
            rec = self.record
            object.__setattr__(self, "mu", rec.mu_by_subnets.get(self.n_subnets, rec.mu))
        if self.mu < 0:
            raise ValueError("mu must be non-negative")
        if not 0.0 < self.gamma_L <= 1.0:
            raise ValueError("gamma_L must be in (0, 1]")
        if not 0.0 < self.omega_b <= 1.0:
            raise ValueError("omega_b must be in (0, 1]")
        if not 0.0 < self.omega_S <= 1.0:
            raise ValueError("omega_S must be in (0, 1]")
        if self.n_subnets < 0:
            raise ValueError("n_subnets must be non-negative")
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    @property
    def record(self) -> Method:
        return METHOD_TABLE[self.method]

    @property
    def needs_projection(self) -> bool:
        return self.record.contrastive


@dataclass
class ClientTask:
    """One client's local training in one round, as a worker receives it.

    Training starts from `received`, the weights sent this round; fedprox
    anchors to them and moon contrasts against them and `prev`, the client's
    own last model. The round loop keys both generators by (seed, purpose,
    round, client), so where a task runs changes no draw.
    """

    client_id: int
    round_idx: int
    method: MethodConfig
    spec: BlockNetSpec
    inputs: np.ndarray
    labels: np.ndarray
    received: ParamVector
    data_rng: np.random.Generator     # batch order
    method_rng: np.random.Generator   # the method's own draws
    epochs: int
    batch_size: int
    learning_rate: float
    momentum: float
    clip_norm: float
    prev: ParamVector | None = None   # contrastive methods only


# -- individual loss terms --------------------------------------------------


def loss_ce(logits: Tensor, labels: np.ndarray) -> Tensor:
    return softmax_cross_entropy(logits, labels)


def loss_fedprox(base_loss: Tensor, params: dict[str, Tensor],
                 anchor: ParamVector, mu: float) -> Tensor:
    """base + (mu/2) * squared distance to the received weights, summed
    per parameter in the anchor's (sorted-name) layout order."""
    if mu == 0.0 or not params:
        return base_loss
    if len(anchor.layout) != len(params):
        raise ValueError("fedprox anchor does not match the parameters")
    acc = None
    for name, shape, offset in anchor.layout:
        p = params[name]
        d = p - Tensor(anchor.data[offset:offset + p.data.size].reshape(shape))
        s = (d * d).sum()
        acc = s if acc is None else acc + s
    return base_loss + (mu / 2.0) * acc


def _row_cosine(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise cosine similarity of two (batch, dim) tensors.

    As in MOON, each norm is floored at 1e-8, so a zero row has cosine 0; the
    floor is on the squared norm, so no gradient divides by zero.
    """
    na = sqrt(clamp_min((a * a).sum(axis=1, keepdims=True), 1e-16))
    nb = sqrt(clamp_min((b * b).sum(axis=1, keepdims=True), 1e-16))
    dots = (a * b).sum(axis=1, keepdims=True)
    return (dots / (na * nb)).reshape(a.shape[0])


def loss_moon(base_loss: Tensor, z_local: Tensor, z_global: Tensor,
              z_prev: Tensor, tau: float, mu: float) -> Tensor:
    """Contrastive pull toward the global representation, push from the local past.

    Positive pair (local, global), negative pair (local, previous); the
    comparison representations enter detached so gradient flows only through
    z_local. With identical representations the term is exactly log 2.
    """
    if mu == 0.0:
        return base_loss
    s_pos = _row_cosine(z_local, z_global.detach()) * (1.0 / tau)
    s_neg = _row_cosine(z_local, z_prev.detach()) * (1.0 / tau)
    # -log(exp(a) / (exp(a) + exp(b))) = log(exp(a) + exp(b)) - a
    term = log(exp(s_pos) + exp(s_neg)) - s_pos
    return base_loss + mu * term.mean()


def _kd_divergence(student_logits: Tensor, teacher_probs: np.ndarray) -> Tensor:
    """KL(student || teacher) with the teacher held constant."""
    log_q = log_softmax(student_logits)
    q = exp(log_q)
    log_p = np.log(teacher_probs)
    return (q * (log_q - Tensor(log_p))).sum(axis=1).mean()


def _np_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=1, keepdims=True)


def loss_gradaug(net: BlockNet, x: np.ndarray, y: np.ndarray,
                 config: MethodConfig,
                 rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    """Cross-entropy plus distillation into sampled-width subnetworks.

    Each subnetwork sees an independently transformed input at a width drawn
    from U(omega_b, 1) and is pulled toward the full network's detached
    output distribution. mu = 0 skips the subnetworks entirely. Returns
    (loss, full-width logits).
    """
    logits = net.forward(x)
    base = loss_ce(logits, y)
    if config.mu == 0.0 or config.n_subnets == 0:
        return base, logits
    teacher = _np_softmax(logits.data)
    kd = None
    for _ in range(config.n_subnets):
        omega = float(rng.uniform(config.omega_b, 1.0))
        scale = float(rng.choice(DOWNSAMPLE_SCALES))
        xi = downsample_transform(x, scale, rng)
        sub_logits = net.forward_subnetwork(xi, omega)
        term = _kd_divergence(sub_logits, teacher)
        kd = term if kd is None else kd + term
    return base + config.mu * kd, logits


def transmitting_matrices(f_prev: Tensor, f_last: Tensor,
                          f_sub: Tensor) -> tuple[Tensor, Tensor]:
    """Cross-feature products used to estimate the final block's gain.

    Feature maps are flattened so batch (and any spatial positions) form the
    rows and channels the columns; when two maps disagree on spatial size the
    larger is adaptively average-pooled down to the smaller before the
    product. Returns (X_full, X_sub) with shapes (c_prev, c_last) and
    (c_prev, c_sub).
    """
    def flatten(f: Tensor) -> Tensor:
        if f.ndim == 2:
            return f
        if f.ndim == 4:
            b, c = f.shape[0], f.shape[1]
            return f.permute((0, 2, 3, 1)).reshape(b * f.shape[2] * f.shape[3], c)
        raise ValueError("features must be (B, C) or (B, C, H, W)")

    def match(a: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
        if a.ndim == 4 and b.ndim == 4 and a.shape[2:] != b.shape[2:]:
            if a.shape[2] * a.shape[3] >= b.shape[2] * b.shape[3]:
                a = adaptive_avg_pool2d(a, (b.shape[2], b.shape[3]))
            else:
                b = adaptive_avg_pool2d(b, (a.shape[2], a.shape[3]))
        return a, b

    a1, b1 = match(f_prev, f_last)
    x_full = matmul(flatten(a1).T, flatten(b1))
    a2, b2 = match(f_prev, f_sub)
    x_sub = matmul(flatten(a2).T, flatten(b2))
    return x_full, x_sub


POWER_ITERS = 20     # spectral-norm power iterations per fedalign step
LIP_EPSILON = 1e-8   # alignment terms below this are skipped


def spectral_norm(x: Tensor, rng: np.random.Generator,
                  power_iters: int = POWER_ITERS) -> Tensor:
    """Largest singular value by power iteration from a start drawn from rng.

    The singular-vector estimates are built from detached values, so the
    result differentiates through x as u^T x v with u, v held constant (the
    exact gradient of sigma_max when the vectors have converged). A zero
    matrix short-circuits to 0.
    """
    if x.ndim != 2:
        raise ValueError("spectral norm is defined for 2-d tensors")
    if power_iters < 1:
        raise ValueError("power_iters must be positive")
    a = x.data
    if not np.any(a):
        return Tensor(0.0) * x.sum()  # keeps the zero on the graph with zero grad
    v = rng.standard_normal(a.shape[1])
    v /= math.sqrt(v @ v)  # numpy's 1-D norm, bit for bit, without its dispatch
    for _ in range(power_iters):
        u = a @ v
        u /= math.sqrt(u @ u)
        v = a.T @ u
        v /= math.sqrt(v @ v)
    outer = np.outer(u, v)
    return (x * Tensor(outer)).sum()


def loss_fedalign(net: BlockNet, x: np.ndarray, y: np.ndarray,
                  config: MethodConfig,
                  rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    """Cross-entropy plus alignment of full- and sub-width block gains.

    The final block is re-run at width omega_S on its full-width input; the
    squared difference of the two transmitting-matrix spectral norms is added
    after being rescaled so its contribution equals mu * value(cross-entropy)
    at the current point. A sub-epsilon alignment term is skipped outright,
    which also covers omega_S = 1 where both matrices coincide. Returns
    (loss, logits).
    """
    f_prev, f_last, logits = net.forward_with_features(x)
    base = loss_ce(logits, y)
    if config.mu == 0.0:
        return base, logits
    f_sub = net.forward_final_subblock(f_prev, config.omega_S)
    x_full, x_sub = transmitting_matrices(f_prev, f_last, f_sub)
    k_full = spectral_norm(x_full, rng)
    k_sub = spectral_norm(x_sub, rng)
    lip = mse(k_sub, k_full)
    lip_value = lip.item()
    if lip_value < LIP_EPSILON:
        return base, logits
    scale = config.mu * base.item() / lip_value
    return base + scale * lip, logits


# -- one batch's loss per method ---------------------------------------------
# (net, task, xb, yb, shadows) -> (loss, batch accuracy); shadows holds the
# frozen received and previous-round models of a contrastive method, else None


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((logits.argmax(axis=1) == labels).mean())


def _step_fedavg(net, task, xb, yb, shadows):
    logits = net.forward(xb)
    return loss_ce(logits, yb), _accuracy(logits.data, yb)


def _step_fedprox(net, task, xb, yb, shadows):
    logits = net.forward(xb)
    base = loss_ce(logits, yb)
    return (loss_fedprox(base, net.params, task.received, task.method.mu),
            _accuracy(logits.data, yb))


def _step_moon(net, task, xb, yb, shadows):
    config = task.method
    _, f_last, logits = net.forward_with_features(xb)
    base = loss_ce(logits, yb)
    if config.mu == 0.0:
        return base, _accuracy(logits.data, yb)
    z_local = net.project(f_last)
    z_global, z_prev = (shadow.embed(xb) for shadow in shadows)
    return (loss_moon(base, z_local, z_global, z_prev, config.tau, config.mu),
            _accuracy(logits.data, yb))


def _step_mixup(net, task, xb, yb, shadows):
    perm = task.method_rng.permutation(len(xb))
    xm, ya, yb2, beta = mixup_batch(xb, yb, xb[perm], yb[perm],
                                    task.method.gamma, task.method_rng)
    logits = net.forward(xm)
    loss = beta * loss_ce(logits, ya) + (1.0 - beta) * loss_ce(logits, yb2)
    acc = beta * _accuracy(logits.data, ya) + (1 - beta) * _accuracy(logits.data, yb2)
    return loss, acc


def _step_stochdepth(net, task, xb, yb, shadows):
    logits, _ = net.stochdepth_forward(xb, task.method.gamma_L, task.method_rng,
                                       training=True)
    return loss_ce(logits, yb), _accuracy(logits.data, yb)


def _step_gradaug(net, task, xb, yb, shadows):
    loss, logits = loss_gradaug(net, xb, yb, task.method, task.method_rng)
    return loss, _accuracy(logits.data, yb)


def _step_fedalign(net, task, xb, yb, shadows):
    loss, logits = loss_fedalign(net, xb, yb, task.method, task.method_rng)
    return loss, _accuracy(logits.data, yb)


# -- analytic cost per method ------------------------------------------------
# (spec, config) -> (flops per sample forward, stored parameter count)


def _cost_plain(spec, config):
    return stack_cost(spec, spec.widths)


def _cost_fedprox(spec, config):
    f, p = stack_cost(spec, spec.widths)
    return f, 2 * p  # plus the received anchor weights


def _cost_moon(spec, config):
    base_f, _ = stack_cost(spec, spec.widths)
    c, d = spec.widths[-1], spec.projection_dim
    head_f, _ = layer_cost(c, spec.num_classes, bias=True)
    proj_f = layer_cost(c, d, bias=True)[0] + layer_cost(d, d, bias=True)[0]
    # three block-stack+projection passes, one classifier pass, three stored models
    return 3.0 * (base_f - head_f + proj_f) + head_f, 3 * model_params(spec, True)


def _cost_stochdepth(spec, config):
    L = spec.num_blocks
    return stack_cost(spec, spec.widths,
                      [keep_probability(i, L, config.gamma_L) for i in range(L)])


def _cost_gradaug(spec, config):
    # expected subnetwork cost under omega ~ U(omega_b, 1), averaged on a grid
    base_f, base_p = stack_cost(spec, spec.widths)
    grid = np.linspace(config.omega_b, 1.0, 51)
    sub, walked = 0.0, {}  # grid points slimming to the same widths cost the same
    for om in grid:
        ks = tuple(slim_width(w, float(om)) for w in spec.widths)
        if ks not in walked:
            walked[ks] = stack_cost(spec, ks)[0]
        sub += walked[ks]
    return base_f + config.n_subnets * (sub / len(grid)), base_p


def _cost_fedalign(spec, config):
    # one more pass of the final block at omega_S on its full-width input
    base_f, base_p = stack_cost(spec, spec.widths)
    i = spec.num_blocks - 1
    branch, skip, _ = block_cost(spec, i, spec.block_inputs()[i],
                                 slim_width(spec.widths[i], config.omega_S))
    return base_f + (branch + skip), base_p


def count_cost(spec: BlockNetSpec, config=None) -> tuple[float, int]:
    """(flops per sample forward, stored parameter count) for a method.

    config is a MethodConfig-like object (or None for the bare model). Every
    method composes models.stack_cost, one pass of the block walk at given
    widths, and models.block_cost, one block: contrastive training runs three
    model+projection forwards, distillation adds the expected cost of its
    sampled-width subnetworks, the Lipschitz method adds one reduced-width
    pass of the final block, stochastic depth scales each residual branch by
    its keep probability. Parameter counts include extra stored copies
    (anchor weights, previous/global models), so they measure memory; what a
    round sends is models.model_params.
    """
    method = getattr(config, "method", None)
    if method is None:
        return _cost_plain(spec, None)
    if method not in METHOD_TABLE:
        raise ValueError(f"unknown method {method!r}")
    return METHOD_TABLE[method].cost(spec, config)


# -- the method table ----------------------------------------------------------


@dataclass(frozen=True)
class Method:
    """Everything the loop, the server and the cost model know of a method."""

    mu: float                  # default weight of the extra loss term
    step: typing.Callable      # builds one batch's loss, see the step functions
    cost: typing.Callable      # per-sample flops and stored parameters
    # trains against the received and the client's previous-round model
    # through a projection head, so the server keeps each client's last model
    contrastive: bool = False
    # default mu by subnetwork count, where it depends on it
    mu_by_subnets: dict[int, float] = field(default_factory=dict)


METHOD_TABLE: dict[str, Method] = {
    "fedavg": Method(mu=0.0, step=_step_fedavg, cost=_cost_plain),
    "fedprox": Method(mu=1e-4, step=_step_fedprox, cost=_cost_fedprox),
    "moon": Method(mu=1.0, step=_step_moon, cost=_cost_moon, contrastive=True),
    "mixup": Method(mu=0.0, step=_step_mixup, cost=_cost_plain),
    "stochdepth": Method(mu=0.0, step=_step_stochdepth, cost=_cost_stochdepth),
    "gradaug": Method(mu=1.75, step=_step_gradaug, cost=_cost_gradaug,
                      mu_by_subnets={1: 1.5, 2: 1.75, 3: 2.0, 4: 2.25}),
    "fedalign": Method(mu=0.45, step=_step_fedalign, cost=_cost_fedalign),
}

METHODS = tuple(METHOD_TABLE)


# -- the client update loop ---------------------------------------------------


def _batched_indices(n: int, batch_size: int,
                     rng: np.random.Generator) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


# The models of the last task shape, (spec, with_projection), this process
# trained: the trainable one, then two gradient-free ones (moon's shadows).
# Kept per process because a pool worker receives nothing but its task.
# Reuse keeps no state between tasks: load_vector rebinds every parameter to
# a fresh copy, gradients() leaves no state on any tensor, and the velocity
# is the task's own.
_MODELS: dict[tuple[BlockNetSpec, bool], tuple[BlockNet, BlockNet, BlockNet]] = {}


def process_models(spec: BlockNetSpec,
                   with_projection: bool) -> tuple[BlockNet, BlockNet, BlockNet]:
    """(trainable, frozen, frozen) BlockNets of this shape, built once per
    process and shape; whoever uses one loads its weights first."""
    key = (spec, with_projection)
    if key not in _MODELS:
        _MODELS.clear()
        _MODELS[key] = (BlockNet(spec, with_projection=with_projection),
                        *(BlockNet(spec, with_projection=with_projection,
                                   requires_grad=False) for _ in range(2)))
    return _MODELS[key]


def _train_batch(net: BlockNet, task: ClientTask, idx: np.ndarray, shadows,
                 velocity: dict) -> tuple[float, float]:
    """One clipped momentum SGD step on the task's samples idx; the batch's
    loss value and accuracy. The step's graph dies on return (it holds no
    reference cycle), so the next step's forward never runs beside it."""
    loss, acc = task.method.record.step(net, task, task.inputs[idx],
                                        task.labels[idx], shadows)
    grads, _ = clip_grad_norm(gradients(loss, net.params), task.clip_norm)
    sgd_step(net.params, grads, velocity, task.learning_rate, task.momentum)
    return loss.item(), acc


def client_update(task: ClientTask) -> tuple[ParamVector, list[dict]]:
    """Run local epochs of clipped momentum SGD under the task's method.

    Loads the received weights (and, for a contrastive method, frozen copies
    of the received and previous-round models) into this process's models of
    the task's shape, trains, and returns the trained weights and per-epoch
    stats. Zero epochs return the received weights.
    """
    if task.epochs < 0:
        raise ValueError("epochs must be non-negative")
    if task.batch_size < 1:
        raise ValueError("batch_size must be positive")
    if len(task.inputs) == 0:
        raise ValueError("client has no samples")
    config = task.method
    method = config.record
    if method.contrastive and task.prev is None:
        raise ValueError(f"{config.method} needs the client's previous-round weights")
    net, received, prev = process_models(task.spec, config.needs_projection)
    load_vector(net.params, task.received)
    shadows = None
    if method.contrastive and config.mu != 0.0:
        load_vector(received.params, task.received)
        load_vector(prev.params, task.prev)
        shadows = (received, prev)
    velocity = {}
    stats = []
    for _ in range(task.epochs):
        losses, accs, weights = [], [], []
        for idx in _batched_indices(len(task.inputs), task.batch_size, task.data_rng):
            loss, acc = _train_batch(net, task, idx, shadows, velocity)
            losses.append(loss)
            accs.append(acc)
            weights.append(len(idx))
        w = np.asarray(weights, dtype=np.float64)
        stats.append({
            "loss": float(np.average(losses, weights=w)),
            "accuracy": float(np.average(accs, weights=w)),
        })
    return params_to_vector(net.params), stats
