"""Residual block networks with prefix-slimmable widths.

BlockNet is a stack of residual blocks (dense or 3x3-conv, chosen by the
input shape) followed by a linear classifier. Each block is stated once for
both kinds: two bias-free layers, each followed by normalization, and a skip
that is a learned 1x1 layer exactly where the block changes width and the
identity elsewhere. Strides are derived: a conv block that widens downsamples
by 2. Each block can run at a reduced width: the first ceil(omega * width)
channels of every layer are kept and the rest are simply not computed, so a
slimmed forward touches a prefix subset of the full parameter set, and a
layer at full width takes no slice at all. Normalization is statistics-free
(per-sample, over the channels present), which keeps slimmed forwards well
defined and the whole model free of running state.

Every axis is read from the right: channels are axis -1 of a dense
activation and -3 of a conv one, a dense weight is (..., in, out), a kernel
(..., out, in, k, k) and a bias (..., K). So a forward also runs on
parameters stacked along leading copy axes (tensor.py): with every parameter
(P,) + its shape, a (B, ...) input gives (P, B, K) logits, copy p's the bits
of the unstacked forward at copy p's parameters. hessian.py evaluates its
independent parameter points this way.

Also here: stochastic-depth forwarding with linearly decaying keep
probabilities, an optional two-layer projection head for contrastive
training (embed runs the blocks and that head, no classifier), and the
analytic FLOP / parameter counts that the per-method cost model in
methods.py composes: one layer rule (a dense layer is a 1x1 conv on a 1x1
map), one block rule and one walk pricing what _walk and _head run.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .tensor import (Tensor, adaptive_avg_pool2d, add_relu, conv2d, matmul,
                     normalize, relu, slice_axis)

NORM_EPS = 1e-5


@dataclass(frozen=True)
class BlockNetSpec:
    """Architecture description: per-block widths over a fixed input shape.

    input_shape of length 1 selects dense residual blocks, length 3 (C, H, W)
    selects 3x3 conv blocks. Strides are derived, not configured: a conv block
    that widens its input downsamples by 2, mirroring the usual staged layout.
    Block i projects its skip through a learned 1x1 layer exactly when it
    changes width (block_inputs()[i] != widths[i]); otherwise the skip is the
    identity.
    """

    input_shape: tuple[int, ...]
    num_classes: int
    widths: tuple[int, ...] = (16, 16, 32)
    projection_dim: int = 64

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "widths", tuple(self.widths))
        if len(self.input_shape) not in (1, 3):
            raise ValueError("input_shape must be (dims,) or (C, H, W)")
        if len(self.widths) < 2:
            raise ValueError("need at least two blocks")
        if min(self.widths) < 1:
            raise ValueError("widths must be positive")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.projection_dim < 1:
            raise ValueError("projection_dim must be positive")

    @property
    def is_conv(self) -> bool:
        return len(self.input_shape) == 3

    @property
    def kernel_size(self) -> int:
        """Kernel side of the block layers; a dense layer is a 1x1 conv."""
        return 3 if self.is_conv else 1

    @property
    def num_blocks(self) -> int:
        return len(self.widths)

    def block_strides(self) -> tuple[int, ...]:
        if not self.is_conv:
            return (1,) * len(self.widths)
        return (1,) + tuple(2 if b > a else 1
                            for a, b in zip(self.widths, self.widths[1:]))

    def projects_skip(self, i: int) -> bool:
        """Whether block i's skip is a learned 1x1 layer (it changes width)."""
        return self.block_inputs()[i] != self.widths[i]

    def block_inputs(self) -> tuple[int, ...]:
        """Input channel count of each block at full width."""
        first = self.input_shape[0]
        return (first,) + self.widths[:-1]

    def spatial_sizes(self) -> tuple[tuple[int, int], ...]:
        """Output (H, W) of each block for conv specs."""
        if not self.is_conv:
            return ((1, 1),) * len(self.widths)
        h, w = self.input_shape[1], self.input_shape[2]
        out = []
        for s in self.block_strides():
            h = (h + 2 - 3) // s + 1
            w = (w + 2 - 3) // s + 1
            out.append((h, w))
        return tuple(out)


def slim_width(width: int, omega: float) -> int:
    """Channels kept at width fraction omega; ceiling keeps at least one."""
    if not 0.0 < omega <= 1.0:
        raise ValueError("width fraction must be in (0, 1]")
    return ceil(omega * width)


def _prefix(x: Tensor, axis: int, k: int) -> Tensor:
    """The first k entries of x along axis; x itself when it is k wide."""
    return x if x.shape[axis] == k else slice_axis(x, axis, 0, k)


def _affine(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """h @ w + b; a stacked (..., K) bias meets h's batch axis as (..., 1, K)."""
    if b.ndim > 1:
        b = b.reshape(b.shape[:-1] + (1, b.shape[-1]))
    return matmul(h, w) + b


def keep_probability(block_idx: int, num_blocks: int, final_keep: float) -> float:
    """Linearly decaying survival probability, 1 at depth 0 down to final_keep."""
    ell = block_idx + 1
    return 1.0 - (ell / num_blocks) * (1.0 - final_keep)


class BlockNet:
    """A residual network whose parameters live in a flat name->Tensor dict."""

    def __init__(self, spec: BlockNetSpec, rng: np.random.Generator | None = None,
                 with_projection: bool = False, requires_grad: bool = True):
        self.spec = spec
        self.with_projection = with_projection
        self.params: dict[str, Tensor] = {}
        self._kind = "conv" if spec.is_conv else "fc"
        self._channels = -3 if spec.is_conv else -1  # an activation's channel axis
        self._build(rng, requires_grad)

    # -- parameter construction -------------------------------------------

    def _add(self, name: str, arr: np.ndarray, requires_grad: bool) -> None:
        self.params[name] = Tensor(arr, requires_grad=requires_grad)

    def _build(self, rng, requires_grad: bool) -> None:
        spec = self.spec

        def normal(shape, std):
            if rng is None:
                return np.zeros(shape, dtype=np.float64)
            return rng.normal(0.0, std, size=shape)

        def layer(name, cin, cout, k, gain):
            shape = (cout, cin, k, k) if spec.is_conv else (cin, cout)
            self._add(name, normal(shape, (gain / (cin * k * k)) ** 0.5), requires_grad)

        ins = spec.block_inputs()
        for i, w in enumerate(spec.widths):
            p = f"block{i}"
            layer(f"{p}.{self._kind}1.w", ins[i], w, spec.kernel_size, 2.0)
            layer(f"{p}.{self._kind}2.w", w, w, spec.kernel_size, 2.0)
            if spec.projects_skip(i):
                layer(f"{p}.skip.w", ins[i], w, 1, 1.0)
            self._add(f"{p}.norm1.scale", np.ones(w), requires_grad)
            self._add(f"{p}.norm1.shift", np.zeros(w), requires_grad)
            self._add(f"{p}.norm2.scale", np.ones(w), requires_grad)
            self._add(f"{p}.norm2.shift", np.zeros(w), requires_grad)

        c_last = spec.widths[-1]
        self._add("head.w", normal((c_last, spec.num_classes), (1.0 / c_last) ** 0.5), requires_grad)
        self._add("head.b", np.zeros(spec.num_classes), requires_grad)
        if self.with_projection:
            d = spec.projection_dim
            self._add("proj.fc1.w", normal((c_last, d), (2.0 / c_last) ** 0.5), requires_grad)
            self._add("proj.fc1.b", np.zeros(d), requires_grad)
            self._add("proj.fc2.w", normal((d, d), (2.0 / d) ** 0.5), requires_grad)
            self._add("proj.fc2.b", np.zeros(d), requires_grad)

    # -- forward pieces -----------------------------------------------------

    def _norm(self, x: Tensor, prefix: str, k: int, relu: bool = False) -> Tensor:
        """Per-sample normalization over the k active channels (and space),
        then a ReLU when relu is set."""
        scale = _prefix(self.params[f"{prefix}.scale"], -1, k)
        shift = _prefix(self.params[f"{prefix}.shift"], -1, k)
        return normalize(x, scale, shift, NORM_EPS, relu=relu)

    def _layer(self, x: Tensor, name: str, in_k: int, out_k: int,
               stride: int, padding: int) -> Tensor:
        """Bias-free layer on the first in_k input and out_k output channels.

        Conv kernels are (..., out, in, k, k) and dense matrices (..., in,
        out); a dense layer ignores stride and padding.
        """
        w = self.params[name]
        if self.spec.is_conv:
            w = _prefix(_prefix(w, -4, out_k), -3, in_k)
            return conv2d(x, w, stride=stride, padding=padding)
        return matmul(x, _prefix(_prefix(w, -2, in_k), -1, out_k))

    def _block(self, x: Tensor, i: int, out_k: int,
               drop: float | None = None) -> Tensor:
        """One residual block at out_k active channels on all of x's channels.

        drop is a multiplier on the residual branch (stochastic depth mask or
        its expectation); None means no multiplier node at all.
        """
        p = f"block{i}"
        in_k = x.shape[self._channels]
        s = self.spec.block_strides()[i]
        h = self._layer(x, f"{p}.{self._kind}1.w", in_k, out_k, s, 1)
        h = self._norm(h, f"{p}.norm1", out_k, relu=True)
        h = self._layer(h, f"{p}.{self._kind}2.w", out_k, out_k, 1, 1)
        h = self._norm(h, f"{p}.norm2", out_k)
        if self.spec.projects_skip(i):
            skip = self._layer(x, f"{p}.skip.w", in_k, out_k, s, 0)
        else:
            skip = _prefix(x, self._channels, out_k)
        if drop is not None:
            h = h * drop
        return add_relu(h, skip)

    def _pool_flatten(self, f: Tensor) -> Tensor:
        if self.spec.is_conv:
            f = adaptive_avg_pool2d(f, (1, 1))
            return f.reshape(f.shape[:-2])
        return f

    def _walk(self, x, ks, drops=None) -> list[Tensor]:
        """Every block at active widths ks; returns the block outputs.

        drops holds one residual-branch multiplier per block; None builds no
        multiplier node.
        """
        h = x if isinstance(x, Tensor) else Tensor(x)
        if h.shape[1:] != self.spec.input_shape:
            raise ValueError(f"input shape {h.shape[1:]} does not match spec "
                             f"{self.spec.input_shape}")
        feats = []
        for i, k in enumerate(ks):
            h = self._block(h, i, k, None if drops is None else drops[i])
            feats.append(h)
        return feats

    def _head(self, f_last: Tensor) -> Tensor:
        """The classifier on the pooled last feature map, at its active width."""
        w = _prefix(self.params["head.w"], -2, f_last.shape[self._channels])
        return _affine(self._pool_flatten(f_last), w, self.params["head.b"])

    # -- public forwards ----------------------------------------------------

    def forward_with_features(self, x) -> tuple[Tensor, Tensor, Tensor]:
        """Full-width forward returning (next-to-last feature, last feature, logits)."""
        feats = self._walk(x, self.spec.widths)
        return feats[-2], feats[-1], self._head(feats[-1])

    def forward(self, x) -> Tensor:
        return self.forward_with_features(x)[2]

    def forward_subnetwork(self, x, omega: float) -> Tensor:
        """Forward with every block slimmed to ceil(omega * width) channels."""
        ks = [slim_width(w, omega) for w in self.spec.widths]
        return self._head(self._walk(x, ks)[-1])

    def forward_final_subblock(self, f_prev: Tensor, omega_s: float) -> Tensor:
        """Re-run the last block at reduced width on its full-width input.

        The input keeps all of its channels; only the block's own layers are
        slimmed. An identity skip is truncated to the first k channels so the
        residual addition type-checks.
        """
        i = self.spec.num_blocks - 1
        return self._block(f_prev, i, slim_width(self.spec.widths[i], omega_s))

    def stochdepth_forward(self, x, final_keep: float,
                           rng: np.random.Generator | None = None,
                           training: bool = True) -> tuple[Tensor, np.ndarray]:
        """Forward with per-block residual dropping.

        Training samples one Bernoulli(keep_probability) mask entry per block;
        evaluation scales each residual branch by its keep probability.
        Returns (logits, mask) where eval mode reports the probabilities.
        """
        if not 0.0 < final_keep <= 1.0:
            raise ValueError("final keep probability must be in (0, 1]")
        L = self.spec.num_blocks
        probs = np.array([keep_probability(i, L, final_keep) for i in range(L)])
        if training:
            if rng is None:
                raise ValueError("training mode needs an rng for the mask")
            mask = (rng.random(L) < probs).astype(np.float64)
        else:
            mask = probs
        feats = self._walk(x, self.spec.widths, [float(m) for m in mask])
        return self._head(feats[-1]), mask

    def embed(self, x) -> Tensor:
        """Full-width blocks, then the projection head; no classifier."""
        return self.project(self._walk(x, self.spec.widths)[-1])

    def project(self, f_last: Tensor) -> Tensor:
        """Two-layer projection head on the pooled last feature map."""
        if not self.with_projection:
            raise ValueError("model was built without a projection head")
        h = relu(_affine(self._pool_flatten(f_last), self.params["proj.fc1.w"],
                         self.params["proj.fc1.b"]))
        return _affine(h, self.params["proj.fc2.w"], self.params["proj.fc2.b"])


# -- analytic cost counting -------------------------------------------------


def layer_cost(in_ch: int, out_ch: int, k: int = 1,
               out_hw: tuple[int, int] = (1, 1), bias: bool = False) -> tuple[float, int]:
    """(flops, params) of one k x k layer; a dense layer is a 1x1 conv on a
    1x1 map. flops counts each multiply-accumulate twice."""
    flops = 2.0 * in_ch * out_ch * k * k * out_hw[0] * out_hw[1]
    return flops, out_ch * in_ch * k * k + (out_ch if bias else 0)


def block_cost(spec: BlockNetSpec, i: int, cin: int, k: int) -> tuple[float, float, int]:
    """(residual-branch flops, skip flops, params) of block i at k channels on
    cin input channels, as BlockNet._block runs it."""
    hw = spec.spatial_sizes()[i]
    f1, p1 = layer_cost(cin, k, spec.kernel_size, hw)
    f2, p2 = layer_cost(k, k, spec.kernel_size, hw)
    fs, ps = layer_cost(cin, k, 1, hw) if spec.projects_skip(i) else (0, 0)
    return f1 + f2, fs, p1 + p2 + ps + 2 * k + 2 * k  # two norm layers, scale+shift


def stack_cost(spec: BlockNetSpec, ks, weights=None) -> tuple[float, int]:
    """(flops, params) of one BlockNet._walk pass at active widths ks, then
    the classifier head.

    Block 0 reads the full input and block i the ks[i-1] channels before it;
    the head runs at ks[-1]. weights scales each residual branch (its keep
    probability under stochastic depth); the skip always runs.
    """
    flops, params = 0.0, 0
    cin = spec.input_shape[0]
    for i, k in enumerate(ks):
        branch, skip, p = block_cost(spec, i, cin, k)
        flops += branch * (1.0 if weights is None else weights[i]) + skip
        params += p
        cin = k
    head_f, head_p = layer_cost(ks[-1], spec.num_classes, bias=True)
    return flops + head_f, params + head_p


def model_params(spec: BlockNetSpec, with_projection: bool = False) -> int:
    """Size of a BlockNet's flat vector: what a round sends each sampled client."""
    d = spec.projection_dim
    proj = layer_cost(spec.widths[-1], d, bias=True)[1] + layer_cost(d, d, bias=True)[1]
    return stack_cost(spec, spec.widths)[1] + (proj if with_projection else 0)
