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
tensor.add_relu fuse, kept for the same kind of comparison, and
gathered_conv2d is tensor.conv2d's forward as a pad and a per-offset gather
loop, whose output bytes the window-view gather must keep. class_counts
tallies a partition's labels per client.
"""
import numpy as np

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
        h = x if isinstance(x, Tensor) else Tensor(x)
        n = len(self.dims) - 1
        for i in range(n):
            h = matmul(h, self.params[f"w{i}"]) + self.params[f"b{i}"]
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
        th = self.params["theta"].reshape(1, -1)
        quad = (matmul(matmul(th, Tensor(self.a)), th.reshape(-1, 1))).sum()
        lin = (self.params["theta"] * Tensor(self.b)).sum()
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


def gathered_conv2d(x, w, stride, padding):
    """conv2d's output from np.pad and one strided copy per kernel offset
    into (B, Cin k k, Hout Wout) columns, then the same (Cout, Cin k k) matmul."""
    b, cin, hh, ww = x.shape
    cout, _, k, _ = w.shape
    ho = (hh + 2 * padding - k) // stride + 1
    wo = (ww + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((b, cin, k, k, ho, wo))
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
    out = w.reshape(cout, cin * k * k) @ cols.reshape(b, cin * k * k, ho * wo)
    return out.reshape(b, cout, ho, wo)


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
