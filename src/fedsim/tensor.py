"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value in the simulator flows through the Tensor type below. Ops build a
DAG as they run; gradients(loss, params) walks it once in reverse
topological order and returns {name: gradient} for a parameter dict, keeping
nothing on any tensor once it returns. Two rules fix every gradient bit:
a node's incoming contributions are summed in the post-order of the walk's
depth-first search (first contribution, then `slot + next`), and an op's
backward closure returns None for a parent that requires no gradient
instead of computing a value that would be dropped. The op set is
intentionally small:
matmul, 2-d convolution, elementwise arithmetic, relu/tanh/exp/log/sqrt,
clamping from below, reductions, slicing and axis permutation, adaptive
average pooling, fused softmax cross-entropy, and mean squared error.

Two fused ops serve BlockNet's blocks: normalize (per-sample normalization
with its per-channel affine, optionally followed by a ReLU) and add_relu
(the residual sum, then a ReLU). Each is one node that runs the numpy steps
of its composed graph in that graph's order, so its output and gradient
bits equal the composed form's (tests/helpers.py keeps those forms).

A ReLU mask (which inputs pass, to the output and to the gradient) is
computed in exactly four places: relu, clamp_min, normalize with relu=True,
and add_relu. Each asks the active mask tape, if any, for its mask. Under
`with mask_tape() as tape:` a forward records its masks in order in
`tape.masks`; under `with mask_tape(masks):` a forward replays them, so the
output and the gradient take the recorded pattern even where an input has
since crossed zero (hessian.py freezes the base point's activation pattern
this way). With no tape active, every op computes what it always has.

Every op BlockNet's forward and backward use also runs on parameters stacked
along leading "copy" axes: P copies of a (in, out) weight are one (P, in, out)
tensor, and the activations they make carry the same leading axes, so one
graph and one gradients() walk serve P parameter points. Each op reads its
natural axes from the right: matmul multiplies the trailing two axes (a
shared left operand broadcasts over the weight's copies), normalize finds
the sample axis from its scale, add_relu broadcasts a shared skip over a
stacked branch, adaptive_avg_pool2d pools the trailing two axes, conv2d
runs each copy of a (P, Cout, Cin, k, k) kernel in turn inside one node,
and softmax_cross_entropy returns one loss per copy, with labels shared or
(P, B), one row per copy. A stacked op's output and gradients equal, byte
for byte, those of the same op run on each copy alone; an unstacked call
runs the numpy calls it always has. stack_size is the one rule that sizes
a stack of copies to the STACK_BYTES budget.

The module also carries the optimizer side, on flat rows: weights,
velocities and gradients in ParamVector layout order, one (n,) row or (P, n)
rows, one per stacked copy. gradient_rows flattens gradients()' dict into
rows, clip_grad_norm clips each row to a global L2 norm (adding its
parameters' squared sums in the model's parameter order), and sgd_step
takes one classic-momentum step elementwise. params_to_vector and
load_vector are the one flattening pair through which weights leave and
enter a parameter dict as a ParamVector; load_vector is also the one loader
of stacked copies: given (P, n) rows, it binds each parameter to its P
copies.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

Array = np.ndarray
_F64 = np.dtype(np.float64)
# conv2d's byte budget for one batch chunk's gathered columns (at least one
# sample per chunk)
COLUMN_CHUNK_BYTES = 4 << 20
# the byte budget of one stack of parameter copies (stack_size), and the
# parameter-sized float64 arrays a copy holds besides its graph (a hessian
# copy: its direction, the stepped point, its parameters and gradient, their
# difference and the product; a client: its weights, velocity, gradient and
# their updates)
STACK_BYTES = 1 << 20
COPY_ARRAYS = 8


def _f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


class MaskTape:
    """The ReLU masks of one forward, recorded in order or replayed.

    With masks=None the tape records: mask() appends each mask it is given
    and returns it. Given a list, it replays: mask() returns the next
    recorded mask in place of the one computed, and raises ValueError when
    the forward asks for more masks than were recorded or for a mask whose
    trailing shape is not the recorded one. A recorded (B, ...) mask thus
    replays onto an activation stacked along leading copy axes, where numpy
    broadcasts it over the copies.
    """

    def __init__(self, masks: list[Array] | None = None):
        self.recording = masks is None
        self.masks: list[Array] = [] if masks is None else masks
        self.used = 0

    def mask(self, computed: Array) -> Array:
        if self.recording:
            self.masks.append(computed)
            return computed
        if self.used == len(self.masks):
            raise ValueError(f"the forward asks for more than the {len(self.masks)} "
                             f"recorded ReLU masks")
        recorded = self.masks[self.used]
        if recorded.shape != computed.shape[computed.ndim - recorded.ndim:]:
            raise ValueError(f"ReLU mask {self.used} has shape {computed.shape}, "
                             f"recorded {recorded.shape}")
        self.used += 1
        return recorded


_tape: MaskTape | None = None  # the active tape, set only by mask_tape


@contextmanager
def mask_tape(masks: list[Array] | None = None):
    """Record (masks=None) or replay (a recorded list) the ReLU masks of the
    forward run inside the block; yields the MaskTape.

    The tape is cleared on exit, also when the forward raises. A replay that
    leaves a recorded mask unused raises ValueError on a normal exit.
    """
    global _tape
    if _tape is not None:
        raise RuntimeError("a mask tape is already active")
    tape = _tape = MaskTape(masks)
    try:
        yield tape
    finally:
        _tape = None
    if not tape.recording and tape.used != len(tape.masks):
        raise ValueError(f"the forward used {tape.used} of the {len(tape.masks)} "
                         f"recorded ReLU masks")


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = np.add.reduce(grad, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = np.add.reduce(grad, axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 array plus the bookkeeping reverse-mode AD needs.

    `requires_grad` marks leaves that should receive gradients and propagates
    through ops. Detached tensors (`detach()`) never receive gradient
    contributions. Value arrays are treated as immutable once wrapped: code
    that changes a parameter (load_vector) binds a new array to `.data`
    instead of writing into the old one. conv2d and normalize rely
    on this: their backward recomputes forward intermediates from the
    arrays the forward read (captured then, not read from `.data` later),
    which gives the forward's bits only if nothing wrote into those arrays.

    A tensor holds no gradient. gradients() keeps its per-call state on the
    nodes themselves: `_mark` holds the call's visit mark and `_g` the
    gradient flowing into the node. Both are None outside a gradients() call.
    Contributions into `_g` are summed in the post-order of the walk's
    depth-first search, and an op's closure (`_backward`) returns None for
    each parent that requires no gradient.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_backward", "_g", "_mark")

    def __init__(self, data, requires_grad: bool = False):
        # an ndarray that is already float64 is what np.asarray would return
        self.data = data if type(data) is np.ndarray and data.dtype is _F64 else _f64(data)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._g: Array | None = None
        self._mark = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def _op(data: Array, parents: tuple["Tensor", ...], backward_fn) -> "Tensor":
        out = Tensor(data)
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward_fn
                break
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = Tensor._wrap(other)
        a, b = self, other
        data = a.data + b.data
        return Tensor._op(data, (a, b), lambda g: (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None))

    __radd__ = __add__

    def __neg__(self):
        a = self
        return Tensor._op(-a.data, (a,), lambda g: (-g,))

    def __sub__(self, other):
        other = Tensor._wrap(other)
        a, b = self, other
        data = a.data - b.data
        return Tensor._op(data, (a, b), lambda g: (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.data.shape) if b.requires_grad else None))

    def __rsub__(self, other):
        return Tensor._wrap(other) - self

    def __mul__(self, other):
        other = Tensor._wrap(other)
        a, b = self, other
        data = a.data * b.data
        return Tensor._op(data, (a, b), lambda g: (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._wrap(other)
        a, b = self, other
        data = a.data / b.data
        return Tensor._op(data, (a, b), lambda g: (
            _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
            if b.requires_grad else None))

    def __rtruediv__(self, other):
        return Tensor._wrap(other) / self

    def __matmul__(self, other):
        return matmul(self, other)

    # -- shape ops --------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.data.shape
        return Tensor._op(a.data.reshape(shape), (a,),
                          lambda g: (g.reshape(old),))

    def permute(self, axes: tuple[int, ...]) -> "Tensor":
        a = self
        inv = tuple(sorted(range(len(axes)), key=axes.__getitem__))
        return Tensor._op(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))

    @property
    def T(self) -> "Tensor":
        if self.ndim != 2:
            raise ValueError("T is defined for 2-d tensors")
        return self.permute((1, 0))

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        data = np.add.reduce(a.data, axis=axis, keepdims=keepdims)  # ndarray.sum's reduction

        def back(g):
            if axis is not None and not keepdims:  # g with the summed axes kept as 1s
                axes = (axis,) if isinstance(axis, int) else axis
                axes = {ax % a.data.ndim for ax in axes}
                g = g.reshape([1 if i in axes else n for i, n in enumerate(a.data.shape)])
            out = np.empty(a.data.shape)  # the C-order copy of the broadcast,
            out[...] = g                  # without np.broadcast_to's dispatch
            return (out,)

        return Tensor._op(data, (a,), back)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        s = self.sum(axis=axis, keepdims=keepdims)
        n = self.data.size / s.data.size
        return s * (1.0 / n)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b over the trailing two axes. The copy axes are b's (a weight's):
    a is 2-d and shared by every copy, or carries the same leading axes."""
    a, b = Tensor._wrap(a), Tensor._wrap(b)
    if a.ndim == 2 and b.ndim == 2:
        data = a.data @ b.data
        return Tensor._op(data, (a, b), lambda g: (
            g @ b.data.T if a.requires_grad else None,
            a.data.T @ g if b.requires_grad else None))
    if a.ndim < 2 or b.ndim < 2 or (a.ndim > 2 and a.shape[:-2] != b.shape[:-2]):
        raise ValueError(f"matmul needs 2-d operands, or a 2-d or equally stacked "
                         f"left operand; got {a.shape} and {b.shape}")
    data = a.data @ b.data
    return Tensor._op(data, (a, b), lambda g: (
        _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape)
        if a.requires_grad else None,
        _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape)
        if b.requires_grad else None))


def relu(x: Tensor) -> Tensor:
    x = Tensor._wrap(x)
    mask = x.data > 0
    if _tape is not None:
        mask = _tape.mask(mask)
    return Tensor._op(np.where(mask, x.data, 0.0), (x,),
                      lambda g: (np.where(mask, g, 0.0),))


def add_relu(a: Tensor, b: Tensor) -> Tensor:
    """relu(a + b) for two tensors of one shape, as one node; b may also be a
    shared (B, ...) skip whose shape is a's without a's leading copy axes.

    The same bits as the composed relu(a + b): a's and b's gradients are
    both the masked upstream gradient (b's summed over the copies it was
    shared by), and parents (a, b) keep the composed sum's depth-first order.
    """
    a, b = Tensor._wrap(a), Tensor._wrap(b)
    if a.data.shape != b.data.shape and (
            b.ndim < 2 or a.data.shape[a.ndim - b.ndim:] != b.data.shape):
        raise ValueError(f"add_relu needs one shape, got {a.data.shape} "
                         f"and {b.data.shape}")
    s = a.data + b.data
    mask = s > 0
    if _tape is not None:
        mask = _tape.mask(mask)

    def back(g):
        gs = np.where(mask, g, 0.0)
        return (gs if a.requires_grad else None,
                _unbroadcast(gs, b.data.shape) if b.requires_grad else None)

    return Tensor._op(np.where(mask, s, 0.0), (a, b), back)


def normalize(x: Tensor, scale: Tensor, shift: Tensor, eps: float,
              relu: bool = False) -> Tensor:
    """Per-sample normalization of x over every axis after the sample axis,
    then a per-channel affine; with relu=True, a ReLU on the result.

    x is (B, C, ...) and scale and shift are (C,), or all three carry the
    same leading copy axes, (P, B, C, ...) and (P, C): the sample axis is
    scale.ndim - 1. The output is y * scale + shift with d = x - mean(x),
    y = d / sqrt(mean(d * d) + eps), each mean over the axes after the
    sample axis. This one node gives the bits of the
    composed graph (x.mean, -, (d * d).mean, + eps, sqrt, /, scale and shift
    reshaped to (1, C, 1, ...), *, +, then relu) by running its numpy steps
    in its order: d's gradient sums the division's contribution, then the
    square's two; x's gradient is the subtraction's, plus the mean's
    broadcast. The composed graph adds those two in x's gradient slot, so
    the bits agree only when x has no other consumer, as in BlockNet.
    Parents (x, scale, shift) make gradients()' depth-first search reach
    them in the composed graph's order.

    The node keeps the output, the ReLU mask, the (B, 1, ...) statistics
    mean(x) and sqrt(var + eps), and x's array as the forward read it; the
    backward recomputes d and y from those by the forward's own
    expressions, so they are the forward's bits without being held between
    the passes.
    """
    x, scale, shift = Tensor._wrap(x), Tensor._wrap(scale), Tensor._wrap(shift)
    xd = x.data
    pshape = scale.data.shape
    sample = len(pshape) - 1
    axes = tuple(range(sample + 1, xd.ndim))
    k = xd.shape[sample + 1]
    shape = pshape[:-1] + (1, k) + (1,) * (xd.ndim - sample - 2)
    s1 = np.add.reduce(xd, axis=axes, keepdims=True)
    inv_n = 1.0 / (xd.size / s1.size)  # as Tensor.mean computes it
    mu = s1 * inv_n
    d = xd - mu
    r = np.sqrt(np.add.reduce(d * d, axis=axes, keepdims=True) * inv_n + eps)
    y = d / r
    sc = scale.data.reshape(shape)
    out = y * sc + shift.data.reshape(shape)
    mask = None
    if relu:
        mask = out > 0
        if _tape is not None:
            mask = _tape.mask(mask)
        out = np.where(mask, out, 0.0)
    # the axes _unbroadcast sums to reach a (B, 1, ...) statistic and a
    # (1, C, 1, ...) affine parameter
    stat_axes = tuple(i for i in axes if xd.shape[i] != 1)
    param_axes = tuple(i for i, n in enumerate(shape) if n == 1 and xd.shape[i] != 1)

    def to_param(g):
        return (np.add.reduce(g, axis=param_axes) if param_axes else g).reshape(pshape)

    def to_stat(g):
        return np.add.reduce(g, axis=stat_axes, keepdims=True) if stat_axes else g

    def back(g):
        if mask is not None:
            g = np.where(mask, g, 0.0)
        gshift = to_param(g) if shift.requires_grad else None
        d = xd - mu
        gscale = to_param(g * (d / r)) if scale.requires_grad else None
        if not x.requires_grad:
            return (None, gscale, gshift)
        gy = g * sc
        gr = to_stat(-gy * d / (r * r))
        t = (gr * 0.5 / r * inv_n) * d
        gd = gy / r + t + t
        return (gd + to_stat(-gd) * inv_n, gscale, gshift)

    return Tensor._op(out, (x, scale, shift), back)


def tanh(x: Tensor) -> Tensor:
    x = Tensor._wrap(x)
    t = np.tanh(x.data)
    return Tensor._op(t, (x,), lambda g: (g * (1.0 - t * t),))


def exp(x: Tensor) -> Tensor:
    x = Tensor._wrap(x)
    e = np.exp(x.data)
    return Tensor._op(e, (x,), lambda g: (g * e,))


def log(x: Tensor) -> Tensor:
    x = Tensor._wrap(x)
    return Tensor._op(np.log(x.data), (x,), lambda g: (g / x.data,))


def sqrt(x: Tensor) -> Tensor:
    x = Tensor._wrap(x)
    s = np.sqrt(x.data)
    return Tensor._op(s, (x,), lambda g: (g * 0.5 / s,))


def clamp_min(x: Tensor, floor: float) -> Tensor:
    """max(x, floor) elementwise; the gradient passes only where x > floor.

    Under a mask tape, x passes where the tape's mask says and floor stands
    elsewhere.
    """
    x = Tensor._wrap(x)
    mask = x.data > floor
    if _tape is None:
        out = np.maximum(x.data, floor)
    else:
        mask = _tape.mask(mask)
        out = np.where(mask, x.data, floor)
    return Tensor._op(out, (x,), lambda g: (np.where(mask, g, 0.0),))


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice along one axis; backward zero-pads the complement."""
    x = Tensor._wrap(x)
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    data = x.data[idx].copy()

    def back(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        return (full,)

    return Tensor._op(data, (x,), back)


def _pad(a: Array, p: int) -> Array:
    """a with p zeros on each side of both spatial axes; p < 0 crops -p."""
    if p <= 0:
        return a[:, :, -p:a.shape[2] + p, -p:a.shape[3] + p]
    out = np.zeros(a.shape[:2] + (a.shape[2] + 2 * p, a.shape[3] + 2 * p))
    out[:, :, p:-p, p:-p] = a
    return out


def _windows(a: Array, k: int, stride: int) -> Array:
    """The k x k windows of a (B, C, H, W) at the stride as (B, C * k * k,
    Hout * Wout) columns, kernel offsets before positions: one copy, or a
    view of a when the columns are a itself (k = stride = 1)."""
    v = np.lib.stride_tricks.sliding_window_view(a, (k, k), axis=(2, 3))
    v = v[:, :, ::stride, ::stride]
    B, C, hout, wout = v.shape[:4]
    return v.transpose(0, 1, 4, 5, 2, 3).reshape(B, C * k * k, hout * wout)


def _chunks(batch: int, columns_per_sample: int) -> list[slice]:
    """Batch slices whose float64 columns, columns_per_sample values per
    sample, fit in COLUMN_CHUNK_BYTES; each holds at least one sample."""
    step = max(1, COLUMN_CHUNK_BYTES // (8 * columns_per_sample))
    return [slice(b, b + step) for b in range(0, batch, step)]


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 1) -> Tensor:
    """2-d convolution, NCHW layout, square kernel, no bias.

    x: (B, Cin, H, W), w: (Cout, Cin, k, k). Each product is a window gather
    and a BLAS matmul per sample (im2col), run over batch chunks whose
    gathered columns fit in COLUMN_CHUNK_BYTES, so no product holds more
    than one chunk's columns at a time:
    - forward: each chunk's zero-padded input, its k x k windows copied
      into (Cin k k, Hout Wout) columns per sample, times the (Cout, Cin k k)
      kernel, written into one preallocated output;
    - weight gradient: the upstream gradient times the transposed columns
      per sample, summed over the whole batch in one reduction;
    - input gradient, stride 1: the transposed-convolution identity, a
      stride-1 correlation of the upstream gradient, padded by k-1-padding
      (cropped where that is negative), with the kernel flipped in both
      spatial axes and its channel axes swapped;
    - input gradient, larger strides: the kernel's transpose times the
      upstream gradient, scattered back onto the k x k offsets, which
      measured faster than the identity on a zero-dilated gradient.
    The node keeps x's and w's arrays as the forward read them, and no
    columns: the backward gathers each chunk's columns again (recomputation
    as in sublinear-memory training, Chen et al. 2016). Every product is a
    per-sample GEMM and the weight gradient's batch sum is one reduction,
    so the chunking changes no bit. The forward's bits are those of a
    per-offset gather into the same columns; the backward's float sums run
    in BLAS order.

    Stacked copies, w: (P, Cout, Cin, k, k) with x shared or (P, B, Cin, H,
    W), run copy by copy inside the one node, forward and backward, so each
    copy's bits are those of its own unstacked call.
    """
    x, w = Tensor._wrap(x), Tensor._wrap(w)
    xd, wd = x.data, w.data
    if wd.ndim == 4:
        out, back = _conv2d(xd, wd, stride, padding)
        return Tensor._op(out, (x, w), lambda g: back(g, x.requires_grad, w.requires_grad))
    if wd.ndim != 5 or xd.ndim not in (4, 5) or xd.ndim == 5 and len(xd) != len(wd):
        raise ValueError(f"conv2d needs (B, Cin, H, W) or (P, B, Cin, H, W) inputs "
                         f"for (P, Cout, Cin, k, k) kernels; got {xd.shape} and {wd.shape}")
    copies = [_conv2d(xd[c] if xd.ndim == 5 else xd, wd[c], stride, padding)
              for c in range(len(wd))]

    def back(g):
        grads = [b(g[c], x.requires_grad, w.requires_grad)
                 for c, (_, b) in enumerate(copies)]
        dx = np.stack([dx for dx, _ in grads]) if x.requires_grad else None
        dw = np.stack([dw for _, dw in grads]) if w.requires_grad else None
        return (None if dx is None else _unbroadcast(dx, xd.shape), dw)

    return Tensor._op(np.stack([out for out, _ in copies]), (x, w), back)


def _conv2d(xd: Array, wd: Array, stride: int, padding: int):
    """conv2d on one (B, Cin, H, W) input and one (Cout, Cin, k, k) kernel:
    the output and its backward, back(g, need_dx, need_dw) -> (dx, dw)."""
    B, Cin, H, W = xd.shape
    Cout, Cin2, k, k2 = wd.shape
    if Cin != Cin2 or k != k2:
        raise ValueError("kernel shape does not match input channels")
    Hout = (H + 2 * padding - k) // stride + 1
    Wout = (W + 2 * padding - k) // stride + 1
    w2 = wd.reshape(Cout, Cin * k * k)
    chunks = _chunks(B, Cin * k * k * Hout * Wout)

    def cols(c):
        return _windows(_pad(xd[c], padding), k, stride)

    out = np.empty((B, Cout, Hout * Wout))
    for c in chunks:
        np.matmul(w2, cols(c), out=out[c])

    def back(g, need_dx, need_dw):
        g2 = g.reshape(B, Cout, Hout * Wout)
        dw = None
        if need_dw:
            gw = np.empty((B, Cout, Cin * k * k))
            for c in chunks:
                np.matmul(g2[c], cols(c).transpose(0, 2, 1), out=gw[c])
            dw = np.add.reduce(gw, 0).reshape(wd.shape)
        if not need_dx:
            return (None, dw)
        if stride == 1:
            wf = wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(Cin, Cout * k * k)
            dx = np.empty((B, Cin, H * W))
            for c in _chunks(B, Cout * k * k * H * W):
                np.matmul(wf, _windows(_pad(g[c], k - 1 - padding), k, 1), out=dx[c])
            return (dx.reshape(B, Cin, H, W), dw)
        dxp = np.zeros((B, Cin, H + 2 * padding, W + 2 * padding))
        for c in chunks:
            dcols = (w2.T @ g2[c]).reshape(-1, Cin, k, k, Hout, Wout)
            for i in range(k):
                for j in range(k):
                    dxp[c, :, i:i + stride * Hout:stride,
                        j:j + stride * Wout:stride] += dcols[:, :, i, j]
        return (_pad(dxp, -padding), dw)

    return out.reshape(B, Cout, Hout, Wout), back


def adaptive_avg_pool2d(x: Tensor, out_hw: tuple[int, int]) -> Tensor:
    """Average pooling of the trailing two axes onto an arbitrary output grid
    (identity when equal)."""
    x = Tensor._wrap(x)
    H, W = x.data.shape[-2:]
    oh, ow = out_hw
    if (oh, ow) == (H, W):
        return x
    rb = [(i * H // oh, -(-(i + 1) * H // oh)) for i in range(oh)]
    cb = [(j * W // ow, -(-(j + 1) * W // ow)) for j in range(ow)]
    data = np.empty(x.data.shape[:-2] + (oh, ow), dtype=np.float64)
    for i, (r0, r1) in enumerate(rb):
        for j, (c0, c1) in enumerate(cb):
            data[..., i, j] = x.data[..., r0:r1, c0:c1].mean(axis=(-2, -1))

    def back(g):
        dx = np.zeros_like(x.data)
        for i, (r0, r1) in enumerate(rb):
            for j, (c0, c1) in enumerate(cb):
                dx[..., r0:r1, c0:c1] += (g[..., i, j] /
                                          ((r1 - r0) * (c1 - c0)))[..., None, None]
        return (dx,)

    return Tensor._op(data, (x,), back)


def softmax_cross_entropy(logits: Tensor, labels: Array) -> Tensor:
    """Mean cross-entropy of integer labels under softmax(logits).

    logits are (batch, classes), or (..., batch, classes) with leading copy
    axes, which give one loss per copy; labels are (batch,), shared by every
    copy, or carry the logits' copy axes, (..., batch). Fused
    forward/backward: grad wrt logits is (softmax - onehot) / batch.
    """
    logits = Tensor._wrap(logits)
    y = np.asarray(labels)
    if logits.ndim < 2:
        raise ValueError("logits must be (batch, classes)")
    B, K = logits.data.shape[-2:]
    if y.ndim == 0 or y.shape[-1] != B or y.shape[:-1] not in ((), logits.data.shape[:-2]):
        raise ValueError("labels must be a (batch,) integer array, or carry the "
                         "logits' copy axes")
    if y.min() < 0 or y.max() >= K:
        raise ValueError("label out of range")
    z = logits.data
    # each label's logit: one index array per label axis, then the labels
    picks = (...,) + tuple(np.arange(n).reshape((n,) + (1,) * (y.ndim - 1 - i))
                           for i, n in enumerate(y.shape)) + (y,)
    m = z.max(axis=-1, keepdims=True)
    lse = m + np.log(np.add.reduce(np.exp(z - m), axis=-1, keepdims=True))
    loss = (lse[..., 0] - z[picks]).mean(axis=-1)

    def back(g):
        p = np.exp(z - lse)
        p[picks] -= 1.0
        return (p * (g / B)[..., None, None],)

    return Tensor._op(loss, (logits,), back)


def mse(a: Tensor, b: Tensor, axis=None) -> Tensor:
    """Mean squared difference over axis (every axis when None); on scalars
    this is just (a - b)^2, and axis=() keeps one value per element, as
    for per-copy scalars stacked along a copy axis."""
    d = Tensor._wrap(a) - Tensor._wrap(b)
    return (d * d).mean(axis=axis)


def log_softmax(logits: Tensor) -> Tensor:
    """Log softmax over the last (class) axis, built from primitive ops (the
    shift is a constant)."""
    m = Tensor(logits.data.max(axis=-1, keepdims=True))
    shifted = logits - m
    lse = log(exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - lse


# -- parameter-dict helpers -----------------------------------------------


def gradients(loss: Tensor, params: dict[str, Tensor]) -> dict[str, Array]:
    """Backward from the scalar `loss`; {name: gradient} for every parameter.

    One depth-first search from `loss` orders the graph, and its reversed
    post-order hands each node's summed `_g` to its closure after every
    consumer has added to it. A leaf is visited after all of its consumers,
    so it keeps its full sum in `_g` until the parameters are read; then
    every visited node's `_g` and `_mark` is None again, also when a closure
    raises. Parameters not reachable from the loss get zero gradients rather
    than an error.
    """
    if loss.data.shape != ():
        raise ValueError("gradients() requires a scalar loss")
    mark = object()  # fresh per call: a stale mark never matches
    topo: list[Tensor] = []
    stack: list[tuple[Tensor, bool]] = [(loss, False)] if loss.requires_grad else []
    try:
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node._mark is mark:
                continue
            node._mark = mark
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and p._mark is not mark:
                    stack.append((p, False))

        if topo:
            loss._g = np.ones((), dtype=np.float64)
        for node in reversed(topo):
            if node._backward is None:
                continue  # a leaf keeps its sum in _g until read below
            g = node._g
            node._g = None
            if g is None:
                continue
            for p, pg in zip(node._parents, node._backward(g)):
                if pg is None or not p.requires_grad:
                    continue
                slot = p._g
                p._g = pg if slot is None else slot + pg
        return {name: p._g if p._g is not None else np.zeros_like(p.data)
                for name, p in params.items()}
    finally:
        # marked nodes are in topo or, if a closure raised, still on the
        # stack awaiting expansion
        for node in topo + [n for n, expanded in stack if expanded]:
            node._g = None
            node._mark = None


def zero_gradients(params: dict[str, Tensor]) -> None:
    """Does nothing: gradients() keeps no state between calls.

    Kept only for perfbench/workloads.py (ConvTrain.check_gradient), which
    still calls it around its gradients() call; it goes once those calls do.
    """


class NonFiniteGradient(FloatingPointError):
    """A gradient row whose norm is not finite: training diverged. `row` is
    the first such row of the rows clip_grad_norm was given."""

    def __init__(self, row: int):
        super().__init__("non-finite gradient norm; training diverged")
        self.row = row


def clip_grad_norm(grads: Array, max_norm: float,
                   spans: list[tuple[int, int]]) -> tuple[Array, list[float]]:
    """Scale each row of flat gradients so its L2 norm is at most max_norm.

    grads is one (n,) row or (P, n) rows, one per stacked copy; spans holds
    each parameter's (start, stop) in the row, in the order the parameters'
    squared sums are added into the row's total (the model's parameter
    order), so each row's norm has the bits of that per-parameter loop.
    Returns (grads, one applied scale per row): grads itself when no row
    clips, else a scaled copy in which an unclipped row is multiplied by
    1.0, which keeps its bits. A non-finite norm raises NonFiniteGradient,
    the divergence signal the training loop relies on.
    """
    sq = grads * grads
    sums = np.array([np.add.reduce(sq[..., a:b], axis=-1) for a, b in spans])
    totals = np.cumsum(sums, axis=0)[-1]  # s0 + s1 + ..., added in span order
    scales = []
    for row, total in enumerate(totals.reshape(-1).tolist()):
        if not math.isfinite(total):
            raise NonFiniteGradient(row)
        norm = total ** 0.5
        scales.append(1.0 if norm <= max_norm or norm == 0.0 else max_norm / norm)
    if all(s == 1.0 for s in scales):
        return grads, scales
    if grads.ndim == 1:
        return grads * scales[0], scales
    return grads * np.array(scales)[:, None], scales


def sgd_step(weights: Array, grads: Array, velocity: Array | None,
             learning_rate: float, momentum: float) -> tuple[Array, Array]:
    """One classic-momentum SGD step on flat rows, (n,) or (P, n), elementwise.

    v = g (a copy) at the first step (velocity None), else momentum*v + g;
    then w - learning_rate*v. Returns the new (weights, velocity) arrays and
    writes into none of its inputs.
    """
    if grads.shape != weights.shape:
        raise ValueError(f"gradient rows {grads.shape} do not match weight rows "
                         f"{weights.shape}")
    v = grads.copy() if velocity is None else momentum * velocity + grads
    return weights - learning_rate * v, v


def gradient_rows(grads: dict[str, Array], layout, copies: tuple[int, ...] = ()) -> Array:
    """gradients()' dict as flat rows in layout order: one (n,) row, or
    copies + (n,) for parameters stacked along leading copy axes."""
    return np.concatenate([grads[name].reshape(copies + (-1,)) for name, _, _ in layout],
                          axis=-1)


def stack_size(n: int, loss: Tensor, backward: bool) -> int:
    """Parameter copies per stack: STACK_BYTES over one copy's price,
    COPY_ARRAYS float64 arrays of its n parameters plus the values in the
    graph of loss, an unstacked forward, counted twice when a backward holds
    a gradient of each. The one sizing rule of every stack of copies:
    hessian's probe and landscape stacks and a round's client groups."""
    graph, seen, todo = 0, set(), [loss]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            graph += node.data.nbytes
            todo.extend(node._parents)
    return max(1, STACK_BYTES // (8 * COPY_ARRAYS * n + (1 + backward) * graph))


@dataclass(frozen=True)
class ParamVector:
    """A parameter dict's values as one flat float64 array plus its layout.

    layout is a tuple of (name, shape, offset) triples sorted by name, which
    makes two models with the same architecture produce identical layouts.
    It is the one form weights take outside the autodiff graph.
    """

    data: Array
    layout: tuple[tuple[str, tuple[int, ...], int], ...]

    @property
    def size(self) -> int:
        return int(self.data.size)


def params_to_vector(params: dict[str, Tensor]) -> ParamVector:
    names = sorted(params)
    layout = []
    chunks = []
    offset = 0
    for name in names:
        arr = params[name].data
        layout.append((name, arr.shape, offset))
        chunks.append(arr.reshape(-1))
        offset += arr.size
    data = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.float64)
    return ParamVector(data=data, layout=tuple(layout))


def load_vector(params: dict[str, Tensor], vec: ParamVector) -> None:
    """Write a flat vector back into a parameter dict, one fresh copy each.

    vec.data is one (n,) vector, or (P, n) rows: P stacked copies, which bind
    each parameter to a (P,) + shape array whose copy p is row p's values.
    ValueError, with `params` untouched, unless vec's layout is the one
    params_to_vector gives for `params` and vec.data holds exactly that; when
    every parameter holds the same number of stacked copies (one copy axis, as
    a stacked load leaves it), the layout is matched against their trailing
    shapes.
    """
    if [name for name, _, _ in vec.layout] != sorted(params):
        raise ValueError("parameter names do not match the layout")
    offset = 0
    sizes = []
    held = set()
    for name, shape, start in vec.layout:
        have = params[name].data.shape
        lead = len(have) - len(shape)
        if lead not in (0, 1) or have[lead:] != shape or start != offset:
            raise ValueError(f"parameter layout mismatch at {name!r}")
        held.add(have[:lead])
        sizes.append(math.prod(shape))
        offset += sizes[-1]
    if len(held) > 1:
        raise ValueError("parameters hold different numbers of stacked copies")
    if vec.data.ndim not in (1, 2) or vec.data.shape[-1] != offset:
        raise ValueError(f"vector of shape {vec.data.shape} does not hold "
                         f"{offset} parameters")
    copies = vec.data.shape[:-1]
    for (name, shape, start), size in zip(vec.layout, sizes):
        params[name].data = vec.data[..., start:start + size].reshape(copies + shape).copy()
