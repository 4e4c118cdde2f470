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

One client's local training is one ClientTask, built by the round loop.
client_update trains a list of them in lockstep, in the models this process
keeps for their shape (process_models): each client's weights and velocity
are flat rows, and the clients whose next batches have one size train as a
group, their rows stacked along a copy axis of the model's parameters
(tensor.py), through one step(net, group, xb, yb, shadow), one gradients()
walk, one row clip and one SGD step. A group of one runs the unstacked ops.
Every op gives each copy the bits of its unstacked run, so a client's
trained ParamVector and stats do not depend on the group it trained in.
Groups are sized by tensor.stack_size, and each group's graph is freed
before the next one's forward. shadow is moon's frozen model, holding the
group's received and previous-round weights as copies, which runs no
classifier.
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
from .tensor import (NonFiniteGradient, ParamVector, Tensor, adaptive_avg_pool2d,
                     clamp_min, clip_grad_norm, exp, gradient_rows, gradients,
                     load_vector, log, log_softmax, matmul, mse, sgd_step,
                     softmax_cross_entropy, sqrt, stack_size)


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
    per parameter in the anchor's (sorted-name) layout order.

    For parameters stacked along a copy axis the anchor holds one row per
    copy, or one row shared by every copy, and each copy's distance is its
    own."""
    if mu == 0.0 or not params:
        return base_loss
    if len(anchor.layout) != len(params):
        raise ValueError("fedprox anchor does not match the parameters")
    rows = anchor.data.shape[:-1]
    acc = None
    for name, shape, offset in anchor.layout:
        p = params[name]
        size = math.prod(shape)
        d = p - Tensor(anchor.data[..., offset:offset + size].reshape(rows + shape))
        s = (d * d).sum(axis=tuple(range(d.ndim - len(shape), d.ndim)))
        acc = s if acc is None else acc + s
    return base_loss + (mu / 2.0) * acc


def _row_cosine(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise cosine similarity of two (..., batch, dim) tensors.

    As in MOON, each norm is floored at 1e-8, so a zero row has cosine 0; the
    floor is on the squared norm, so no gradient divides by zero.
    """
    na = sqrt(clamp_min((a * a).sum(axis=-1, keepdims=True), 1e-16))
    nb = sqrt(clamp_min((b * b).sum(axis=-1, keepdims=True), 1e-16))
    dots = (a * b).sum(axis=-1, keepdims=True)
    return (dots / (na * nb)).reshape(a.shape[:-1])


def loss_moon(base_loss: Tensor, z_local: Tensor, z_global: Tensor,
              z_prev: Tensor, tau: float, mu: float) -> Tensor:
    """Contrastive pull toward the global representation, push from the local past.

    Positive pair (local, global), negative pair (local, previous); the
    comparison representations enter detached so gradient flows only through
    z_local. With identical representations the term is exactly log 2.
    Representations stacked along a copy axis give one term per copy.
    """
    if mu == 0.0:
        return base_loss
    s_pos = _row_cosine(z_local, z_global.detach()) * (1.0 / tau)
    s_neg = _row_cosine(z_local, z_prev.detach()) * (1.0 / tau)
    # -log(exp(a) / (exp(a) + exp(b))) = log(exp(a) + exp(b)) - a
    term = log(exp(s_pos) + exp(s_neg)) - s_pos
    return base_loss + mu * term.mean(axis=-1)


def _kd_divergence(student_logits: Tensor, teacher_probs: np.ndarray) -> Tensor:
    """KL(student || teacher) with the teacher held constant."""
    log_q = log_softmax(student_logits)
    q = exp(log_q)
    log_p = np.log(teacher_probs)
    return (q * (log_q - Tensor(log_p))).sum(axis=-1).mean(axis=-1)


def _np_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


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
    (c_prev, c_sub), with the features' copy axis in front when they are
    stacked: (P, B, C) or (P, B, C, H, W).
    """
    ndim = f_prev.ndim
    if ndim not in (2, 3, 4, 5) or f_last.ndim != ndim or f_sub.ndim != ndim:
        raise ValueError("features must be (B, C) or (B, C, H, W), all alike, "
                         "with or without one leading copy axis")
    conv = ndim >= 4
    lead = tuple(range(ndim - (4 if conv else 2)))  # the copy axis, if any

    def flatten(f: Tensor) -> Tensor:
        if not conv:
            return f
        k = len(lead)
        f = f.permute(lead + (k, k + 2, k + 3, k + 1))
        return f.reshape(f.shape[:k] + (-1, f.shape[-1]))

    def transposed(f: Tensor) -> Tensor:
        return f.permute(lead + (len(lead) + 1, len(lead)))

    def match(a: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
        if conv and a.shape[-2:] != b.shape[-2:]:
            if a.shape[-2] * a.shape[-1] >= b.shape[-2] * b.shape[-1]:
                a = adaptive_avg_pool2d(a, b.shape[-2:])
            else:
                b = adaptive_avg_pool2d(b, a.shape[-2:])
        return a, b

    a1, b1 = match(f_prev, f_last)
    x_full = matmul(transposed(flatten(a1)), flatten(b1))
    a2, b2 = match(f_prev, f_sub)
    x_sub = matmul(transposed(flatten(a2)), flatten(b2))
    return x_full, x_sub


POWER_ITERS = 20     # spectral-norm power iterations per fedalign step
LIP_EPSILON = 1e-8   # alignment terms below this are skipped


def spectral_norm(x: Tensor, rng, power_iters: int = POWER_ITERS) -> Tensor:
    """Largest singular value by power iteration from a start drawn from rng.

    The singular-vector estimates are built from detached values, so the
    result differentiates through x as u^T x v with u, v held constant (the
    exact gradient of sigma_max when the vectors have converged). A zero
    matrix gives 0 with a zero gradient and draws nothing.

    x is one (m, n) matrix, or (P, m, n) stacked copies with rng a sequence
    of one generator per copy; the copies iterate together as stacked
    matrix-vector products, (P, m, n) @ (P, n, 1), whose every slice, like
    each stacked dot, has the bits of the 2-d product, so a copy's value is
    the one it has alone.
    """
    if x.ndim not in (2, 3):
        raise ValueError("spectral norm is defined for 2-d tensors or stacks of them")
    if power_iters < 1:
        raise ValueError("power_iters must be positive")
    stacked = x.ndim == 3
    a = x.data if stacked else x.data[None]
    rngs = list(rng) if stacked else [rng]
    live = np.flatnonzero(a.reshape(len(a), -1).any(axis=1))
    outer = np.zeros(a.shape)
    if len(live):
        b = a if len(live) == len(a) else a[live]
        bt = b.swapaxes(-1, -2)
        v = np.array([rngs[c].standard_normal(a.shape[2]) for c in live])[..., None]
        v /= np.sqrt(v.swapaxes(-1, -2) @ v)
        for _ in range(power_iters):
            u = b @ v
            u /= np.sqrt(u.swapaxes(-1, -2) @ u)
            v = bt @ u
            v /= np.sqrt(v.swapaxes(-1, -2) @ v)
        outer[live] = u * v.swapaxes(-1, -2)
    return (x * Tensor(outer if stacked else outer[0])).sum(axis=(-2, -1))


def loss_fedalign(net: BlockNet, x: np.ndarray, y: np.ndarray,
                  config: MethodConfig, rng) -> tuple[Tensor, Tensor]:
    """Cross-entropy plus alignment of full- and sub-width block gains.

    The final block is re-run at width omega_S on its full-width input; the
    squared difference of the two transmitting-matrix spectral norms is added
    after being rescaled so its contribution equals mu * value(cross-entropy)
    at the current point. A sub-epsilon alignment term is skipped outright,
    which also covers omega_S = 1 where both matrices coincide. Returns
    (loss, logits).

    On a stack of copies (rng then holds one generator per copy) every copy
    has its own rescale, and the skip is decided per copy: a skipped copy's
    term is weighted by 0, which adds only zeros to its gradient, and when
    every copy skips the term is not built at all.
    """
    f_prev, f_last, logits = net.forward_with_features(x)
    base = loss_ce(logits, y)
    if config.mu == 0.0:
        return base, logits
    f_sub = net.forward_final_subblock(f_prev, config.omega_S)
    x_full, x_sub = transmitting_matrices(f_prev, f_last, f_sub)
    k_full = spectral_norm(x_full, rng)
    k_sub = spectral_norm(x_sub, rng)
    lip = mse(k_sub, k_full, axis=())
    keep = ~(lip.data < LIP_EPSILON)  # a NaN term is kept, and so surfaces
    if not keep.any():
        return base, logits
    scale = np.where(keep, config.mu * base.data / np.where(keep, lip.data, 1.0), 0.0)
    return base + lip * scale, logits


# -- one batch's loss per method ---------------------------------------------
# (net, group, xb, yb, shadow) -> (loss, batch accuracy). group holds the
# tasks that train this step together: one task, with net's parameters,
# xb and yb unstacked, or P tasks, with net's parameters stacked along a copy
# axis and xb (P, B, ...) and yb (P, B) one batch per copy, which makes the
# loss and accuracy (P,) arrays, one value per copy. shadow is the frozen
# model of a contrastive method with 2P copies (the received models, then the
# previous-round ones), else None.


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return (logits.argmax(axis=-1) == labels).mean(axis=-1)


def _per_copy(group, values):
    """One value per task of the group, as the step uses it: the one value
    for a group of one, else the values stacked into one array."""
    return values[0] if len(group) == 1 else np.array(values)


def _rngs(group):
    """The group's method generators: one, or a list of one per copy."""
    rngs = [t.method_rng for t in group]
    return rngs[0] if len(group) == 1 else rngs


def _copies(group, batch: np.ndarray) -> list[np.ndarray]:
    """The group's batches, one per task."""
    return [batch] if len(group) == 1 else list(batch)


def _step_fedavg(net, group, xb, yb, shadow):
    logits = net.forward(xb)
    return loss_ce(logits, yb), _accuracy(logits.data, yb)


def _step_fedprox(net, group, xb, yb, shadow):
    logits = net.forward(xb)
    base = loss_ce(logits, yb)
    anchor = ParamVector(_per_copy(group, [t.received.data for t in group]),
                         group[0].received.layout)
    return (loss_fedprox(base, net.params, anchor, group[0].method.mu),
            _accuracy(logits.data, yb))


def _step_moon(net, group, xb, yb, shadow):
    config = group[0].method
    _, f_last, logits = net.forward_with_features(xb)
    base = loss_ce(logits, yb)
    if config.mu == 0.0:
        return base, _accuracy(logits.data, yb)
    z_local = net.project(f_last)
    P = len(group)
    z = shadow.embed(np.stack((xb, xb)) if P == 1 else np.concatenate((xb, xb))).data
    z_global, z_prev = (Tensor(h) for h in ((z[0], z[1]) if P == 1 else (z[:P], z[P:])))
    return (loss_moon(base, z_local, z_global, z_prev, config.tau, config.mu),
            _accuracy(logits.data, yb))


def _step_mixup(net, group, xb, yb, shadow):
    mixed = []
    for task, x, y in zip(group, _copies(group, xb), _copies(group, yb)):
        perm = task.method_rng.permutation(len(x))
        mixed.append(mixup_batch(x, y, x[perm], y[perm], task.method.gamma,
                                 task.method_rng))
    xm, ya, yb2, beta = (_per_copy(group, list(part)) for part in zip(*mixed))
    logits = net.forward(xm)
    loss = loss_ce(logits, ya) * beta + loss_ce(logits, yb2) * (1.0 - beta)
    acc = beta * _accuracy(logits.data, ya) + (1 - beta) * _accuracy(logits.data, yb2)
    return loss, acc


def _step_stochdepth(net, group, xb, yb, shadow):
    logits, _ = net.stochdepth_forward(xb, group[0].method.gamma_L, _rngs(group),
                                       training=True)
    return loss_ce(logits, yb), _accuracy(logits.data, yb)


def _step_gradaug(net, group, xb, yb, shadow):
    (task,) = group  # its subnetworks' drawn widths differ per client
    loss, logits = loss_gradaug(net, xb, yb, task.method, task.method_rng)
    return loss, _accuracy(logits.data, yb)


def _step_fedalign(net, group, xb, yb, shadow):
    loss, logits = loss_fedalign(net, xb, yb, group[0].method, _rngs(group))
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
    # whether its step runs on a group of clients stacked along a copy axis;
    # one whose step draws shapes per client trains each client alone
    stacks: bool = True
    # default mu by subnetwork count, where it depends on it
    mu_by_subnets: dict[int, float] = field(default_factory=dict)


METHOD_TABLE: dict[str, Method] = {
    "fedavg": Method(mu=0.0, step=_step_fedavg, cost=_cost_plain),
    "fedprox": Method(mu=1e-4, step=_step_fedprox, cost=_cost_fedprox),
    "moon": Method(mu=1.0, step=_step_moon, cost=_cost_moon, contrastive=True),
    "mixup": Method(mu=0.0, step=_step_mixup, cost=_cost_plain),
    "stochdepth": Method(mu=0.0, step=_step_stochdepth, cost=_cost_stochdepth),
    "gradaug": Method(mu=1.75, step=_step_gradaug, cost=_cost_gradaug, stacks=False,
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
# trained: a trainable one and a gradient-free one (moon's shadow copies,
# evaluation's model). Kept per process because a pool worker receives
# nothing but its tasks. Reuse keeps no state between calls: load_vector
# rebinds every parameter to a fresh copy, gradients() leaves no state on any
# tensor, and weights and velocities are the call's own rows.
_MODELS: dict[tuple[BlockNetSpec, bool], tuple[BlockNet, BlockNet]] = {}


def process_models(spec: BlockNetSpec, with_projection: bool) -> tuple[BlockNet, BlockNet]:
    """(trainable, frozen) BlockNets of this shape, built once per process
    and shape; whoever uses one loads its weights first."""
    key = (spec, with_projection)
    if key not in _MODELS:
        _MODELS.clear()
        _MODELS[key] = (BlockNet(spec, with_projection=with_projection),
                        BlockNet(spec, with_projection=with_projection,
                                 requires_grad=False))
    return _MODELS[key]


def _check(task: ClientTask, first: ClientTask) -> None:
    if task.epochs < 0:
        raise ValueError("epochs must be non-negative")
    if task.batch_size < 1:
        raise ValueError("batch_size must be positive")
    if len(task.inputs) == 0:
        raise ValueError("client has no samples")
    config = task.method
    if config.record.contrastive and task.prev is None:
        raise ValueError(f"{config.method} needs the client's previous-round weights")
    shared = ("spec", "method", "learning_rate", "momentum", "clip_norm")
    if any(getattr(task, k) != getattr(first, k) for k in shared):
        raise ValueError(f"the tasks of one update must share their {', '.join(shared)}")


def _groups(steps: list[list], cap) -> typing.Iterator[tuple[list[int], list[int]]]:
    """The groups that train together, as (task indices, each one's step
    index), until every task has taken its steps.

    Critical-path list scheduling: each group is led by the task with the
    most steps left (the first such in task order) and runs its next step.
    It takes the tasks whose next batch has the lead's size and that are,
    like the lead, at their first step or past it (the first step starts
    the velocity), those with the most steps left first (ties in task
    order), up to cap() tasks (read before each group). Leading with the
    longest task keeps the others training beside it for as long as they
    have steps; on criterion 9's seed 0 a round's 150 client steps take 73
    groups, where grouping by step index takes 81.
    """
    done = [0] * len(steps)

    def kind(i: int) -> tuple[int, bool]:
        return len(steps[i][done[i]][1]), done[i] == 0

    while True:
        left = [len(batches) - d for batches, d in zip(steps, done)]
        if not any(left):
            return
        lead = max(range(len(steps)), key=left.__getitem__)
        ready = [i for i in range(len(steps)) if left[i] and kind(i) == kind(lead)]
        rows = sorted(sorted(ready, key=lambda i: -left[i])[:cap()])
        yield rows, [done[i] for i in rows]
        for i in rows:
            done[i] += 1


def _train_group(net: BlockNet, shadow: BlockNet, group: list[ClientTask], batches: list,
                 weights: np.ndarray, velocity: np.ndarray | None, spans, price: bool):
    """One clipped momentum SGD step of a group on each task's batch (sample
    indices): net's parameters are loaded from the weight rows, one (n,) row
    or (P, n), and the velocity rows are None at the first step. Returns the
    new weight and velocity rows, each copy's batch loss and accuracy, and,
    when price is set, the copies per stack that this step's graph allows
    (tensor.stack_size), else None. The step's graph dies on return (it holds
    no reference cycle), so the next group's forward never runs beside it."""
    task = group[0]
    layout = task.received.layout
    load_vector(net.params, ParamVector(weights, layout))
    xb = _per_copy(group, [t.inputs[idx] for t, idx in zip(group, batches)])
    yb = _per_copy(group, [t.labels[idx] for t, idx in zip(group, batches)])
    loss, acc = task.method.record.step(net, group, xb, yb, shadow)
    grads = gradient_rows(gradients(loss.sum() if loss.ndim else loss, net.params),
                          layout, loss.shape)
    grads, _ = clip_grad_norm(grads, task.clip_norm, spans)
    weights, velocity = sgd_step(weights, grads, velocity, task.learning_rate, task.momentum)
    return (weights, velocity, loss.data.reshape(-1).tolist(), np.reshape(acc, -1).tolist(),
            stack_size(weights.shape[-1], loss, backward=True) if price else None)


def client_update(tasks: list[ClientTask]) -> list[tuple[ParamVector, list[dict]]]:
    """Run each task's local epochs of clipped momentum SGD under its method,
    the tasks in lockstep; one (trained weights, per-epoch stats) per task.

    Each task's batch order is drawn first, one permutation per epoch from
    its data generator. Then the tasks whose next batches have the same size
    train as groups (see _groups): a group's weight rows are loaded as
    stacked copies of this process's trainable model (a group of one loads
    one unstacked row), and one forward, one gradients() walk, one row clip
    and one SGD step serve the group. A group holds at most as many copies
    as tensor.stack_size allows, priced from the first step's unstacked
    graph (that step trains alone); a method that does not stack (gradaug,
    whose subnetwork widths are drawn per client) trains every task alone.
    Every op gives each copy the bits of its unstacked run, so a task's
    weights and stats do not depend on its group. One group's graph is
    alive at a time.

    The tasks must share their spec, method and optimizer settings. A
    failure while a group trains raises RuntimeError naming the client (the
    one whose gradient norm is not finite, else every client of the group).
    Zero epochs return the received weights.
    """
    for task in tasks:
        _check(task, tasks[0])
    if not tasks:
        return []
    first = tasks[0]
    config = first.method
    method = config.record
    net, frozen = process_models(first.spec, config.needs_projection)
    layout = first.received.layout
    starts = {name: (offset, offset + math.prod(shape)) for name, shape, offset in layout}
    spans = [starts[name] for name in net.params]  # clip sums in parameter order
    weights = np.array([t.received.data for t in tasks])
    velocity = np.empty_like(weights)
    steps = [[(epoch, idx) for epoch in range(t.epochs)
              for idx in _batched_indices(len(t.inputs), t.batch_size, t.data_rng)]
             for t in tasks]
    records = [[] for _ in tasks]  # per task: (epoch, loss, accuracy, samples) per step
    shadowed = None  # the tasks whose weights the shadow holds
    cap = None if method.stacks else 1

    for rows, at in _groups(steps, lambda: cap or 1):
        group = [tasks[i] for i in rows]
        sel = rows[0] if len(rows) == 1 else rows
        try:
            if method.contrastive and config.mu != 0.0 and shadowed != rows:
                load_vector(frozen.params, ParamVector(
                    np.array([t.received.data for t in group] + [t.prev.data for t in group]),
                    layout))
                shadowed = rows
            weights[sel], velocity[sel], losses, accs, priced = _train_group(
                net, frozen, group, [steps[i][s][1] for i, s in zip(rows, at)], weights[sel],
                None if at[0] == 0 else velocity[sel], spans, price=cap is None)
        except NonFiniteGradient as e:
            raise RuntimeError(f"client {group[e.row].client_id} failed in round "
                               f"{group[e.row].round_idx}: {e}") from e
        except Exception as e:
            ids = ", ".join(str(t.client_id) for t in group)
            raise RuntimeError(f"client{'s' if len(group) > 1 else ''} {ids} failed in "
                               f"round {first.round_idx}: {e}") from e
        cap = cap or priced
        for i, s, loss, acc in zip(rows, at, losses, accs):
            epoch, batch = steps[i][s]
            records[i].append((epoch, loss, acc, len(batch)))

    return [(ParamVector(w.copy(), layout), _epoch_stats(rec, t.epochs))
            for w, rec, t in zip(weights, records, tasks)]


def _epoch_stats(records: list[tuple], epochs: int) -> list[dict]:
    """Per epoch, the sample-weighted mean loss and accuracy of its steps."""
    stats = []
    for epoch in range(epochs):
        mine = [r for r in records if r[0] == epoch]
        w = np.asarray([r[3] for r in mine], dtype=np.float64)
        stats.append({
            "loss": float(np.average([r[1] for r in mine], weights=w)),
            "accuracy": float(np.average([r[2] for r in mine], weights=w)),
        })
    return stats
