"""Matrix-free curvature diagnostics over the flat parameter vector.

Hessian-vector products are forward differences of the gradient around a
linearization point. linearize(model, loss_fn, batch) makes one forward at
theta, recording its ReLU masks on a tensor.mask_tape, and one gradient g0.
hvp(lin, v) then costs one gradient: g at theta + h * v/|v| with the masks
replayed, and (g - g0) * |v|/h, with h = DEFAULT_FD_STEP = 1e-6. Replaying
the masks keeps every unit on its base-point branch, so the product is that
of the a.e. Hessian (the one double backprop gives) even where a step would
cross a ReLU kink, and a one-sided difference is safe; the step is the
smallest at which float64 round-off stays near 1e-8 on desk-scale losses.
On top of that: one Lanczos solve for the leading eigenpairs, one pass of
Rademacher (Hutchinson) probes that gives both the diagonal, E[v * Hv],
and the trace, E[v^T H v], from the same products (so the trace
equals the diagonal's sum), pairwise cross-client curvature comparisons, and
a 2-d loss landscape slice of the true loss (no masks replayed), which takes
a report's eigenvectors as its directions.

A model is anything with a `params` dict of Tensors. Every routine reads
theta with tensor.params_to_vector, moves the model with tensor.load_vector,
and loads theta back before it returns, so the parameters are restored
exactly; flat directions and gradients use the vector's layout order.

Independent points are evaluated in stacks: load_vector binds P parameter
points at once as leading copy axes of every parameter, so one forward and
one gradients() walk serve P of them (tensor.py). hvp(lin, v) takes one
direction or a (P, n) block of them and costs one gradient evaluation per
call either way; hessian_diagonal evaluates its probes and landscape_slice
its grid points in stacks. A loss must therefore broadcast over leading
copies of every parameter and return one value per copy (ce_loss_fn on a
BlockNet does); each copy's value and gradient are then the bits of the
unstacked call at that copy's point, so stacking changes no output bit.
A stack holds as many copies as fit in tensor.STACK_BYTES, each priced by
tensor.stack_size at COPY_ARRAYS parameter-sized arrays plus the values of
one unstacked forward graph of the loss, so memory stays bounded whatever
the probe count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import (ParamVector, Tensor, gradient_rows, gradients, load_vector,
                     mask_tape, params_to_vector, softmax_cross_entropy, stack_size)

DEFAULT_FD_STEP = 1e-6


@dataclass(frozen=True)
class Linearization:
    """A loss at theta: its ReLU masks and gradient, for hvp to difference."""

    model: object
    loss_fn: object
    batch: tuple
    theta: ParamVector
    masks: list[np.ndarray]  # the forward's ReLU masks at theta, in order
    grad: np.ndarray  # the gradient at theta, in theta's layout order
    stack: int  # the directions one hvp block holds (tensor.stack_size)


def _grad(model, loss_fn, batch, layout, masks=None) -> tuple[np.ndarray, list, Tensor]:
    """The flat gradient at the model's parameters, one row per copy when
    they are stacked, with the forward's loss and masks: recorded when masks
    is None, replayed otherwise."""
    with mask_tape(masks) as tape:
        loss = loss_fn(model, batch[0], batch[1])
    copies = loss.shape
    gmap = gradients(loss.sum() if copies else loss, model.params)
    return gradient_rows(gmap, layout, copies), tape.masks, loss


def linearize(model, loss_fn, batch) -> Linearization:
    """One recording forward and one gradient at the current parameters."""
    theta = params_to_vector(model.params)
    grad, masks, loss = _grad(model, loss_fn, batch, theta.layout)
    return Linearization(model, loss_fn, batch, theta, masks, grad,
                         stack_size(theta.size, loss, backward=True))


def _moved_grad(lin: Linearization, point: np.ndarray) -> np.ndarray:
    """The flat gradient at point, one (n,) vector or (P, n) stacked copies,
    with lin's masks replayed; the model's parameters are left at lin.theta."""
    params = lin.model.params
    try:
        load_vector(params, ParamVector(point, lin.theta.layout))
        g, _, _ = _grad(lin.model, lin.loss_fn, lin.batch, lin.theta.layout, lin.masks)
    finally:
        load_vector(params, lin.theta)
    if g.shape != point.shape:
        raise ValueError("the loss must return one value per parameter copy")
    return g


def hvp(lin: Linearization, v: np.ndarray) -> np.ndarray:
    """Hessian-vector product at lin's point by a forward difference of the
    gradient with lin's ReLU masks replayed: one gradient evaluation.

    v is one direction, or a (P, n) block of them evaluated as stacked
    copies of the parameters, still one gradient evaluation; row p of the
    result is, bit for bit, hvp(lin, v[p]). Steps DEFAULT_FD_STEP along the
    normalized direction and rescales, so the step size is meaningful
    regardless of |v|. A zero direction returns zeros. The model's
    parameters are left at lin.theta.
    """
    theta = lin.theta
    v = np.asarray(v, dtype=np.float64)
    if v.ndim > 2 or v.shape[-1:] != theta.data.shape:
        raise ValueError("direction length does not match parameter count")
    block = np.atleast_2d(v)
    norms = np.array([math.sqrt(r @ r) for r in block])[:, None]  # numpy's 1-D norm
    live = norms[:, 0] != 0.0
    out = np.zeros_like(block)
    if live.any():
        step = DEFAULT_FD_STEP * (block[live] / norms[live])
        # a single live row goes unstacked
        g = _moved_grad(lin, theta.data + (step if len(step) > 1 else step[0]))
        out[live] = (g - lin.grad) * (norms[live] / DEFAULT_FD_STEP)
    return out if v.ndim == 2 else out[0]


def _linearization(model, loss_fn, batch, lin: Linearization | None) -> Linearization:
    """lin if it linearizes this (model, loss_fn, batch), else a new one."""
    if lin is None:
        return linearize(model, loss_fn, batch)
    if lin.model is not model or lin.loss_fn is not loss_fn or lin.batch is not batch:
        raise ValueError("lin linearizes another model, loss or batch")
    return lin


def top_eigenpairs(model, loss_fn, batch, k: int = 1, iters: int = 100,
                   tol: float = 1e-4, seed: int = 0, *, lin: Linearization | None = None):
    """The k Hessian eigenpairs largest by magnitude: signed values, unit
    vectors and converged flags, as lists.

    Ritz pairs of one Lanczos solve, fully reorthogonalized, at lin (else a
    new linearization): one HVP per Krylov dimension m <= min(max(iters, k),
    n), from a start drawn from seed; a space that closes (beta ~ 0) grows on
    from a fresh orthogonal draw. A pair is converged when its residual bound
    |beta_m s_m| is at most tol * |value|, or when m = n.
    """
    if k < 1:
        raise ValueError("k must be positive")
    lin = _linearization(model, loss_fn, batch, lin)
    rng = np.random.default_rng([seed, 0x5EED])
    n = lin.theta.size
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} parameters")
    vs = np.empty((0, n))  # the Lanczos basis, one row per Krylov dimension
    alphas: list[float] = []
    betas: list[float] = []  # betas[j] couples rows j and j + 1
    w = rng.standard_normal(n)
    while True:
        vs = np.vstack([vs, w / math.sqrt(w @ w)])
        w = hvp(lin, vs[-1])
        alphas.append(float(vs[-1] @ w))
        for _ in range(2):  # Gram-Schmidt twice keeps the basis orthonormal
            w = w - vs.T @ (vs @ w)
        beta, m = math.sqrt(w @ w), len(vs)
        ritz, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        top = np.argsort(-np.abs(ritz), kind="stable")[:k]
        converged = [bool(m == n or abs(beta * s[-1, i]) <= tol * abs(ritz[i])) for i in top]
        if m >= k and (all(converged) or m == min(max(iters, k), n)):
            return [float(ritz[i]) for i in top], [vs.T @ s[:, i] for i in top], converged
        if beta <= 1e-8 * abs(ritz[top[0]]):  # an invariant space: grow from a fresh draw
            beta, w = 0.0, rng.standard_normal(n)
            for _ in range(2):
                w = w - vs.T @ (vs @ w)
        betas.append(beta)


def hessian_diagonal(model, loss_fn, batch, num_probes: int = 100, seed: int = 0,
                     *, lin: Linearization | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal estimate E[v * Hv] over Rademacher probes, with std errors.

    Also returns each probe's total v^T H v, the sum of its v * Hv, which
    hutchinson_trace reduces to the trace; one float per probe is kept.
    Exact in expectation; for a diagonal Hessian each probe is already exact
    because v * (diag * v) = diag when v has unit-magnitude entries. The
    products share one linearization: lin, if given, else a new one. Each
    probe is drawn as one rng call, the probes are evaluated lin.stack at a
    time as one hvp block, and their products are folded into the running
    sums in probe order.
    """
    if num_probes < 1:
        raise ValueError("need at least one probe")
    lin = _linearization(model, loss_fn, batch, lin)
    rng = np.random.default_rng([seed, 0xD1A6])
    n = lin.theta.size
    mean = np.zeros(n)
    m2 = np.zeros(n)
    totals = np.empty(num_probes)
    for start in range(0, num_probes, lin.stack):
        probes = np.array([rng.integers(0, 2, size=n) * 2.0 - 1.0
                           for _ in range(min(lin.stack, num_probes - start))])
        for i, (v, hv) in enumerate(zip(probes, hvp(lin, probes)), start):
            sample = v * hv
            totals[i] = sample.sum()
            delta = sample - mean
            mean += delta / (i + 1)
            m2 += delta * (sample - mean)
    if num_probes > 1:
        stderr = np.sqrt(m2 / (num_probes - 1)) / np.sqrt(num_probes)
    else:
        stderr = np.zeros(n)
    return mean, stderr, totals


def hutchinson_trace(totals: np.ndarray) -> tuple[float, float]:
    """Trace estimate E[v^T H v] from per-probe totals, with its std error."""
    totals = np.asarray(totals, dtype=np.float64)
    if totals.size < 1:
        raise ValueError("need at least one probe")
    stderr = float(totals.std(ddof=1) / np.sqrt(totals.size)) if totals.size > 1 else 0.0
    return float(totals.mean()), stderr


@dataclass
class HessianReport:
    """Bundle of curvature diagnostics for one model and probe batch."""

    top_eigenvalues: list[float]
    eigen_converged: list[bool]
    trace_estimate: float
    trace_stderr: float
    diagonal: np.ndarray
    diagonal_stderr: np.ndarray
    num_probes: int
    seed: int
    # one unit vector per top_eigenvalues entry, for landscape_slice; not in to_dict
    eigenvectors: list[np.ndarray] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "top_eigenvalues": [float(x) for x in self.top_eigenvalues],
            "eigen_converged": [bool(b) for b in self.eigen_converged],
            "trace_estimate": self.trace_estimate,
            "trace_stderr": self.trace_stderr,
            "diagonal": self.diagonal.tolist(),
            "diagonal_stderr": self.diagonal_stderr.tolist(),
            "num_probes": self.num_probes,
            "seed": self.seed,
        }


def hessian_report(model, loss_fn, batch, k: int = 2, num_probes: int = 100,
                   seed: int = 0) -> HessianReport:
    """A k-pair eigen solve and a num_probes probe pass, both at one
    linearization of the loss."""
    lin = linearize(model, loss_fn, batch)
    values, vectors, converged = top_eigenpairs(model, loss_fn, batch, k=k, seed=seed,
                                                lin=lin)
    diag, diag_se, totals = hessian_diagonal(model, loss_fn, batch, num_probes=num_probes,
                                             seed=seed, lin=lin)
    trace, trace_se = hutchinson_trace(totals)
    return HessianReport(values, converged, trace, trace_se, diag, diag_se,
                         num_probes, seed, vectors)


@dataclass
class CrossClientReport:
    """Pairwise curvature-mismatch metrics over client Hessian diagonals.

    norm_gap compares overall curvature magnitude: the squared difference of
    the squared norms of two diagonals. direction is the dot product divided
    by the product of squared norms (the literal normalization this metric is
    defined with); direction_cosine divides by the product of plain norms and
    is 1 for identical diagonals. Each field is the average over unordered
    client pairs; per_pair keeps the individual values. skipped names the
    clients left out because their diagonal has zero norm, which makes both
    direction metrics undefined; to_dict writes it only when it is not empty.
    """

    norm_gap: float
    direction: float
    direction_cosine: float
    per_pair: list[dict] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "norm_gap": self.norm_gap,
            "direction": self.direction,
            "direction_cosine": self.direction_cosine,
            "per_pair": self.per_pair,
        }
        if self.skipped:
            out["skipped"] = self.skipped
        return out


def cross_client_metrics(diagonals: list[np.ndarray],
                         client_ids: list[int] | None = None) -> CrossClientReport:
    """Compare every pair of clients whose diagonal has a nonzero norm.

    A zero-norm diagonal is left out and its id listed in `skipped`;
    ValueError if fewer than two clients remain.
    """
    ids = client_ids if client_ids is not None else list(range(len(diagonals)))
    if len(ids) != len(diagonals):
        raise ValueError("client ids do not match diagonals")
    kept, sq, skipped = [], [], []
    for cid, d in zip(ids, diagonals):
        d = np.asarray(d, dtype=np.float64)
        s = float(d @ d)
        if s == 0.0:
            skipped.append(cid)
        else:
            kept.append((cid, d))
            sq.append(s)
    if len(kept) < 2:
        zero = f"; zero-norm: {skipped}" if skipped else ""
        raise ValueError("need at least two clients with a nonzero diagonal, "
                         f"got {len(kept)}{zero}")
    pairs = []
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            dot = float(kept[i][1] @ kept[j][1])
            pairs.append({
                "clients": [kept[i][0], kept[j][0]],
                "norm_gap": (sq[i] - sq[j]) ** 2,
                "direction": dot / (sq[i] * sq[j]),
                "direction_cosine": dot / np.sqrt(sq[i] * sq[j]),
            })
    return CrossClientReport(
        norm_gap=float(np.mean([p["norm_gap"] for p in pairs])),
        direction=float(np.mean([p["direction"] for p in pairs])),
        direction_cosine=float(np.mean([p["direction_cosine"] for p in pairs])),
        per_pair=pairs,
        skipped=skipped,
    )


def landscape_slice(model, loss_fn, batch, dir1: np.ndarray, dir2: np.ndarray,
                    grid: int = 21, radius: float = 1.0):
    """Loss surface on a 2-d slice through the current parameters.

    The directions are usually a HessianReport's top-2 eigenvectors; dir2 is
    orthonormalized against dir1.
    Returns (alphas, betas, losses) with losses[i, j] evaluated at
    theta + alphas[i]*d1 + betas[j]*d2. The center entry is the unperturbed
    loss. The points are evaluated in stacks of stacked copies, with the
    parameters' requires_grad off so that no stack builds a graph.
    """
    if grid < 2 or grid % 2 == 0:
        raise ValueError("grid must be odd and at least 3")
    if not 0 < radius < math.inf:
        raise ValueError("radius must be a positive finite number")
    theta = params_to_vector(model.params)
    d1 = np.asarray(dir1, dtype=np.float64)
    d2 = np.asarray(dir2, dtype=np.float64)
    if d1.shape != theta.data.shape or d2.shape != theta.data.shape:
        raise ValueError("direction length does not match parameter count")
    d1 = d1 / np.linalg.norm(d1)
    scale2 = np.linalg.norm(d2)
    d2 = d2 - (d1 @ d2) * d1
    n2 = np.linalg.norm(d2)
    if n2 <= 1e-9 * scale2:
        raise ValueError("slice directions are collinear")
    d2 = d2 / n2
    alphas = np.linspace(-radius, radius, grid)
    betas = np.linspace(-radius, radius, grid)
    points = [(a, b) for a in alphas for b in betas]
    losses = np.empty(len(points))
    stack = stack_size(theta.size, loss_fn(model, batch[0], batch[1]), backward=False)
    params = list(model.params.values())
    requires_grad = [p.requires_grad for p in params]
    try:
        for p in params:
            p.requires_grad = False
        for start in range(0, len(points), stack):
            rows = np.array([theta.data + a * d1 + b * d2
                             for a, b in points[start:start + stack]])
            load_vector(model.params, ParamVector(rows, theta.layout))
            out = loss_fn(model, batch[0], batch[1]).data
            if out.shape != (len(rows),):
                raise ValueError("the loss must return one value per parameter copy")
            losses[start:start + len(rows)] = out
    finally:
        for p, flag in zip(params, requires_grad):
            p.requires_grad = flag
        load_vector(model.params, theta)
    return alphas, betas, losses.reshape(grid, grid)


def ce_loss_fn(model, x, y) -> Tensor:
    """Default probe loss: plain cross-entropy of the model on the batch."""
    return softmax_cross_entropy(model.forward(x), y)
