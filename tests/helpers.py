"""Shared test fixtures: tiny models, finite-difference oracles and a reference
backward pass.

The gradient and Hessian oracles here deliberately avoid the library's own
backward pass: they perturb parameters and difference loss (or gradient)
values, so agreement is evidence rather than tautology. Networks built for
finite-difference comparison use tanh activations, which are smooth
everywhere; relu paths are checked separately at points safely away from the
kink. reference_gradients is tensor.gradients' bookkeeping kept in its
id()-keyed dict form, so tests can require the library to sum every
gradient in the same order, bit for bit; composed_normalize and
composed_add_relu are the graphs of primitive ops that tensor.normalize and
tensor.add_relu fuse, kept for the same kind of comparison;
gathered_conv2d is tensor.conv2d's forward as a pad and a per-offset gather
loop, whose output bytes the window-view gather must keep, and
gathered_conv2d_grads its backward over the whole batch's columns at once,
whose gradient bytes the batch-chunked backward must keep;
reference_clip_grad_norm and reference_sgd_step are the optimizer's
per-parameter dict forms, whose bytes the flat-row clip and step must keep. class_counts
tallies a partition's labels per client. hvp_hessian is the one helper built
on the library's curvature code: the dense matrix of hessian.hvp's products,
the operator the eigen solver runs on.
"""
import numpy as np

from fedsim.hessian import hvp
from fedsim.tensor import Tensor, matmul, params_to_vector, relu, sqrt, tanh


class TanhMLP:
    """Dense tanh network over a params dict, shaped like the real models."""

    def __init__(self, dims, rng, scale=0.6, requires_grad=True):
        self.dims = tuple(dims)
        self.params = {}
        for i in range(len(dims) - 1):
            w = rng.normal(0.0, scale / np.sqrt(dims[i]), (dims[i], dims[i + 1]))
            b = rng.normal(0.0, 0.1, dims[i + 1])
            self.params[f"w{i}"] = Tensor(w, requires_grad=requires_grad)
            self.params[f"b{i}"] = Tensor(b, requires_grad=requires_grad)

    def forward(self, x):
        """Logits (B, out), or (P, B, out) for parameters stacked along a
        leading copy axis, whose (P, out) biases meet the batch as (P, 1, out)."""
        h = x if isinstance(x, Tensor) else Tensor(x)
        n = len(self.dims) - 1
        for i in range(n):
            b = self.params[f"b{i}"]
            if b.ndim > 1:
                b = b.reshape(b.shape[:-1] + (1, b.shape[-1]))
            h = matmul(h, self.params[f"w{i}"]) + b
            if i < n - 1:
                h = tanh(h)
        return h

    def param_count(self):
        return int(params_to_vector(self.params).size)


class QuadraticModel:
    """loss(theta) = 0.5 theta^T A theta + b theta, so the Hessian is exactly A.

    A must be symmetric. Exposes the params-dict interface the curvature
    routines expect; the batch argument of the loss is ignored.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        a = np.asarray(a, dtype=np.float64)
        assert np.allclose(a, a.T), "test Hessian must be symmetric"
        self.a = a
        self.b = np.asarray(b, dtype=np.float64)
        self.params = {"theta": Tensor(np.zeros(len(b)), requires_grad=True)}

    def loss(self, model, x, y):
        """One loss, or one per copy of a theta stacked along leading axes."""
        th = self.params["theta"]
        copies = th.shape[:-1]
        row, col = th.reshape(copies + (1, -1)), th.reshape(copies + (-1, 1))
        quad = matmul(row, matmul(Tensor(self.a), col)).sum(axis=(-2, -1))
        lin = (th * Tensor(self.b)).sum(axis=-1)
        return 0.5 * quad + lin


def reference_gradients(loss, params):
    """{name: gradient} of `loss`, from an id()-keyed depth-first backward.

    The same DFS and the same `slot + contribution` order as
    tensor.gradients, with every gradient kept in dicts instead of on the
    nodes. Calls the graph's backward closures but writes no tensor field,
    so tensor.gradients can run on the same graph afterwards.
    Unreached parameters get zeros, as tensor.gradients gives them.
    """
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads = {id(loss): np.ones((), dtype=np.float64)}
    leaves = {}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            leaves[id(node)] = g
            continue
        for p, pg in zip(node._parents, node._backward(g)):
            if pg is None or not p.requires_grad:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg
    return {name: leaves[id(p)] if id(p) in leaves else np.zeros_like(p.data)
            for name, p in params.items()}


def composed_normalize(x, scale, shift, eps, relu_after=False):
    """tensor.normalize built from primitive ops, as BlockNet._norm (and the
    ReLU after its first normalization) ran before the fusion."""
    axes = tuple(range(1, x.ndim))
    mu = x.mean(axis=axes, keepdims=True)
    d = x - mu
    var = (d * d).mean(axis=axes, keepdims=True)
    y = d / sqrt(var + eps)
    shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    out = y * scale.reshape(shape) + shift.reshape(shape)
    return relu(out) if relu_after else out


def composed_add_relu(a, b):
    """tensor.add_relu built from primitive ops: BlockNet's old block tail."""
    return relu(a + b)


def _gathered_columns(xp, k, stride, ho, wo):
    """The k x k windows of a padded (B, C, H, W) at the stride, one strided
    copy per kernel offset, as (B, C k k, ho wo) columns."""
    b, c = xp.shape[:2]
    cols = np.empty((b, c, k, k, ho, wo))
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
    return cols.reshape(b, c * k * k, ho * wo)


def _pad_spatial(a, p):
    """a with p zeros on each side of both spatial axes; p < 0 crops -p."""
    if p < 0:
        return a[:, :, -p:a.shape[2] + p, -p:a.shape[3] + p]
    return np.pad(a, ((0, 0), (0, 0), (p, p), (p, p)))


def gathered_conv2d(x, w, stride, padding):
    """conv2d's output from np.pad and one strided copy per kernel offset
    into (B, Cin k k, Hout Wout) columns, then the same (Cout, Cin k k) matmul."""
    b, cin, hh, ww = x.shape
    cout, _, k, _ = w.shape
    ho = (hh + 2 * padding - k) // stride + 1
    wo = (ww + 2 * padding - k) // stride + 1
    cols = _gathered_columns(_pad_spatial(x, padding), k, stride, ho, wo)
    return (w.reshape(cout, cin * k * k) @ cols).reshape(b, cout, ho, wo)


def gathered_conv2d_grads(x, w, g, stride, padding):
    """(dw, dx) of sum(conv2d(x, w) * g) from the whole batch's columns,
    gathered at once, by conv2d's backward expressions.

    dw sums the per-sample products of g and the transposed columns in one
    reduction over the batch. dx is, at stride 1, the flipped, channel-swapped
    kernel times the columns of g padded by k-1-padding; at larger strides,
    the kernel's transpose times g, scattered back onto the k x k offsets.
    """
    b, cin, hh, ww = x.shape
    cout, _, k, _ = w.shape
    ho, wo = g.shape[2:]
    g2 = g.reshape(b, cout, ho * wo)
    cols = _gathered_columns(_pad_spatial(x, padding), k, stride, ho, wo)
    dw = np.add.reduce(g2 @ cols.transpose(0, 2, 1), 0).reshape(w.shape)
    if stride == 1:
        wf = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, cout * k * k)
        gcols = _gathered_columns(_pad_spatial(g, k - 1 - padding), k, 1, hh, ww)
        return dw, (wf @ gcols).reshape(b, cin, hh, ww)
    dcols = (w.reshape(cout, cin * k * k).T @ g2).reshape(b, cin, k, k, ho, wo)
    dxp = np.zeros((b, cin, hh + 2 * padding, ww + 2 * padding))
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, :, i, j]
    return dw, _pad_spatial(dxp, -padding)


def reference_clip_grad_norm(grads, max_norm):
    """Scale a {name: gradient} dict so its global L2 norm is at most
    max_norm, adding each gradient's squared sum in the dict's order;
    (scaled grads, applied scale)."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    if not np.isfinite(total):
        raise FloatingPointError("non-finite gradient norm; training diverged")
    norm = total ** 0.5
    if norm <= max_norm or norm == 0.0:
        return dict(grads), 1.0
    scale = max_norm / norm
    return {k: g * scale for k, g in grads.items()}, scale


def reference_sgd_step(params, grads, velocity, learning_rate, momentum):
    """One classic-momentum step on a {name: Tensor} dict, in place:
    v <- momentum*v + g (v = g at the first step); w <- w - learning_rate*v."""
    for name, p in params.items():
        g = grads[name]
        v = velocity.get(name)
        v = g.copy() if v is None else momentum * v + g
        velocity[name] = v
        p.data = p.data - learning_rate * v


def class_counts(part, labels, num_classes):
    """(clients, classes) count matrix of a data.Partition over labels."""
    return np.stack([np.bincount(labels[idx], minlength=num_classes)
                     for idx in part.assignments])


def numeric_grad(loss_builder, params, eps=1e-6):
    """Central finite-difference gradient of a rebuildable scalar loss.

    loss_builder() must recompute the loss from the current params data.
    Returns {name: array} with the same shapes as the parameters.
    """
    out = {}
    for name, p in params.items():
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_builder().item()
            flat[i] = orig - eps
            down = loss_builder().item()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * eps)
        out[name] = g
    return out


def numeric_hessian(loss_builder, params, eps=1e-3):
    """Dense Hessian from loss values alone (double central differences).

    H[i, j] = (L(+i+j) - L(+i-j) - L(-i+j) + L(-i-j)) / (4 eps^2), evaluated
    over the flattened parameter vector in params_to_vector order.
    """
    vec = params_to_vector(params)
    layout = vec.layout
    flats = {name: params[name].data.reshape(-1) for name, _, _ in layout}

    def poke(i, delta):
        for name, shape, offset in layout:
            n = flats[name].size
            if offset <= i < offset + n:
                flats[name][i - offset] += delta
                return

    n = vec.size
    h = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            acc = 0.0
            for si, sj, sign in ((eps, eps, 1.0), (eps, -eps, -1.0),
                                 (-eps, eps, -1.0), (-eps, -eps, 1.0)):
                poke(i, si)
                poke(j, sj)
                acc += sign * loss_builder().item()
                poke(i, -si)
                poke(j, -sj)
            h[i, j] = h[j, i] = acc / (4.0 * eps * eps)
    return h


def hvp_hessian(lin):
    """The dense matrix whose column i is hessian.hvp(lin, e_i)."""
    return np.stack([hvp(lin, e) for e in np.eye(lin.theta.size)], axis=1)


def max_rel_err(got, want, floor=1e-8):
    """Largest absolute deviation, scaled by the oracle's largest magnitude."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(float(np.max(np.abs(want))), floor)
    return float(np.max(np.abs(got - want))) / denom


def random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def matrix_with_spectrum(m, n, sigmas, rng):
    """Random matrix with the given leading singular values (rest zero)."""
    k = len(sigmas)
    u = random_orthogonal(m, rng)[:, :k]
    v = random_orthogonal(n, rng)[:, :k]
    return (u * np.asarray(sigmas)) @ v.T
