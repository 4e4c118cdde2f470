"""Residual block networks with prefix-slimmable widths.

BlockNet is a stack of residual blocks (dense or 3x3-conv, chosen by the
input shape) followed by a linear classifier. Each block can run at a reduced
width: the first ceil(omega * width) channels of every layer are kept and the
rest are simply not computed, so a slimmed forward touches a prefix subset of
the full parameter set. Normalization is statistics-free (per-sample, over
the channels present), which keeps slimmed forwards well defined and the
whole model free of running state.

Also here: stochastic-depth forwarding with linearly decaying keep
probabilities, an optional two-layer projection head for contrastive
training, and the analytic FLOP / parameter counts of forward passes that
the per-method cost model in methods.py is built from.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .tensor import (Tensor, adaptive_avg_pool2d, conv2d, matmul, relu,
                     slice_axis, sqrt)

NORM_EPS = 1e-5


@dataclass(frozen=True)
class BlockNetSpec:
    """Architecture description: per-block widths over a fixed input shape.

    input_shape of length 1 selects dense residual blocks, length 3 (C, H, W)
    selects conv blocks. strides applies to conv blocks only; by default a
    block that increases width downsamples by 2, mirroring the usual staged
    layout.
    """

    input_shape: tuple[int, ...]
    num_classes: int
    widths: tuple[int, ...] = (16, 16, 32)
    strides: tuple[int, ...] | None = None
    slim_granularity: int = 1
    projection_dim: int = 64

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "widths", tuple(self.widths))
        if self.strides is not None:
            object.__setattr__(self, "strides", tuple(self.strides))
        if len(self.input_shape) not in (1, 3):
            raise ValueError("input_shape must be (dims,) or (C, H, W)")
        if len(self.widths) < 2:
            raise ValueError("need at least two blocks")
        if min(self.widths) < 1:
            raise ValueError("widths must be positive")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.slim_granularity < 1:
            raise ValueError("slim_granularity must be positive")
        if any(w % self.slim_granularity for w in self.widths):
            raise ValueError("widths must be divisible by slim_granularity")
        if self.strides is not None and len(self.strides) != len(self.widths):
            raise ValueError("strides must align with widths")

    @property
    def is_conv(self) -> bool:
        return len(self.input_shape) == 3

    @property
    def num_blocks(self) -> int:
        return len(self.widths)

    def block_strides(self) -> tuple[int, ...]:
        if not self.is_conv:
            return tuple(1 for _ in self.widths)
        if self.strides is not None:
            return self.strides
        out = [1]
        for i in range(1, len(self.widths)):
            out.append(2 if self.widths[i] > self.widths[i - 1] else 1)
        return tuple(out)

    def block_inputs(self) -> tuple[int, ...]:
        """Input channel count of each block at full width."""
        first = self.input_shape[0]
        return (first,) + self.widths[:-1]

    def spatial_sizes(self) -> tuple[tuple[int, int], ...]:
        """Output (H, W) of each block for conv specs."""
        if not self.is_conv:
            return tuple((1, 1) for _ in self.widths)
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

        ins = spec.block_inputs()
        for i, w in enumerate(spec.widths):
            cin = ins[i]
            p = f"block{i}"
            if spec.is_conv:
                self._add(f"{p}.conv1.w", normal((w, cin, 3, 3), (2.0 / (cin * 9)) ** 0.5), requires_grad)
                self._add(f"{p}.conv2.w", normal((w, w, 3, 3), (2.0 / (w * 9)) ** 0.5), requires_grad)
                if cin != w or spec.block_strides()[i] != 1:
                    self._add(f"{p}.skip.w", normal((w, cin, 1, 1), (1.0 / cin) ** 0.5), requires_grad)
            else:
                self._add(f"{p}.fc1.w", normal((cin, w), (2.0 / cin) ** 0.5), requires_grad)
                self._add(f"{p}.fc2.w", normal((w, w), (2.0 / w) ** 0.5), requires_grad)
                if cin != w:
                    self._add(f"{p}.skip.w", normal((cin, w), (1.0 / cin) ** 0.5), requires_grad)
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

    def _norm(self, x: Tensor, prefix: str, k: int) -> Tensor:
        """Per-sample normalization over the k active channels (and space)."""
        scale = slice_axis(self.params[f"{prefix}.scale"], 0, 0, k)
        shift = slice_axis(self.params[f"{prefix}.shift"], 0, 0, k)
        axes = tuple(range(1, x.ndim))
        mu = x.mean(axis=axes, keepdims=True)
        d = x - mu
        var = (d * d).mean(axis=axes, keepdims=True)
        y = d / sqrt(var + NORM_EPS)
        shape = (1, k) + (1,) * (x.ndim - 2)
        return y * scale.reshape(shape) + shift.reshape(shape)

    def _dense(self, x: Tensor, name: str, in_k: int, out_k: int) -> Tensor:
        w = self.params[name]
        full_in, full_out = w.shape
        if in_k != full_in or out_k != full_out:
            w = slice_axis(slice_axis(w, 0, 0, in_k), 1, 0, out_k)
        return matmul(x, w)

    def _conv(self, x: Tensor, name: str, in_k: int, out_k: int,
              stride: int = 1, padding: int = 1) -> Tensor:
        w = self.params[name]
        full_out, full_in = w.shape[0], w.shape[1]
        if in_k != full_in or out_k != full_out:
            w = slice_axis(slice_axis(w, 0, 0, out_k), 1, 0, in_k)
        return conv2d(x, w, stride=stride, padding=padding)

    def _block(self, x: Tensor, i: int, in_k: int, out_k: int,
               drop: float | None = None) -> Tensor:
        """One residual block at the given active widths.

        drop is a multiplier on the residual branch (stochastic depth mask or
        its expectation); None means no multiplier node at all.
        """
        spec = self.spec
        p = f"block{i}"
        if spec.is_conv:
            s = spec.block_strides()[i]
            h = self._conv(x, f"{p}.conv1.w", in_k, out_k, stride=s)
            h = relu(self._norm(h, f"{p}.norm1", out_k))
            h = self._conv(h, f"{p}.conv2.w", out_k, out_k)
            h = self._norm(h, f"{p}.norm2", out_k)
            if f"{p}.skip.w" in self.params:
                skip = self._conv(x, f"{p}.skip.w", in_k, out_k, stride=s, padding=0)
            elif in_k == out_k:
                skip = x
            else:
                skip = slice_axis(x, 1, 0, out_k)
        else:
            h = self._dense(x, f"{p}.fc1.w", in_k, out_k)
            h = relu(self._norm(h, f"{p}.norm1", out_k))
            h = self._dense(h, f"{p}.fc2.w", out_k, out_k)
            h = self._norm(h, f"{p}.norm2", out_k)
            if f"{p}.skip.w" in self.params:
                skip = self._dense(x, f"{p}.skip.w", in_k, out_k)
            elif in_k == out_k:
                skip = x
            else:
                skip = slice_axis(x, 1, 0, out_k)
        if drop is not None:
            h = h * drop
        return relu(h + skip)

    def _pool_flatten(self, f: Tensor, k: int) -> Tensor:
        if self.spec.is_conv:
            f = adaptive_avg_pool2d(f, (1, 1))
            return f.reshape(f.shape[0], k)
        return f

    def _head(self, h: Tensor, in_k: int) -> Tensor:
        w = self.params["head.w"]
        if in_k != w.shape[0]:
            w = slice_axis(w, 0, 0, in_k)
        return matmul(h, w) + self.params["head.b"]

    def _check_input(self, x: Tensor) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.shape[1:] != self.spec.input_shape:
            raise ValueError(f"input shape {x.shape[1:]} does not match spec "
                             f"{self.spec.input_shape}")
        return x

    # -- public forwards ----------------------------------------------------

    def forward_with_features(self, x) -> tuple[Tensor, Tensor, Tensor]:
        """Full-width forward returning (next-to-last feature, last feature, logits)."""
        x = self._check_input(x)
        ins = self.spec.block_inputs()
        h = x
        feats = []
        for i, w in enumerate(self.spec.widths):
            h = self._block(h, i, ins[i], w)
            feats.append(h)
        logits = self._head(self._pool_flatten(feats[-1], self.spec.widths[-1]),
                            self.spec.widths[-1])
        return feats[-2], feats[-1], logits

    def forward(self, x) -> Tensor:
        return self.forward_with_features(x)[2]

    def forward_subnetwork(self, x, omega: float) -> Tensor:
        """Forward with every block slimmed to ceil(omega * width) channels."""
        x = self._check_input(x)
        ks = [slim_width(w, omega) for w in self.spec.widths]
        ins = [self.spec.input_shape[0]] + ks[:-1]
        h = x
        for i in range(self.spec.num_blocks):
            h = self._block(h, i, ins[i], ks[i])
        return self._head(self._pool_flatten(h, ks[-1]), ks[-1])

    def forward_final_subblock(self, f_prev: Tensor, omega_s: float) -> Tensor:
        """Re-run the last block at reduced width on its full-width input.

        The input keeps all of its channels; only the block's own layers are
        slimmed. An identity skip is truncated to the first k channels so the
        residual addition type-checks.
        """
        i = self.spec.num_blocks - 1
        in_full = self.spec.block_inputs()[i]
        k = slim_width(self.spec.widths[i], omega_s)
        return self._block(f_prev, i, in_full, k)

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
        x = self._check_input(x)
        L = self.spec.num_blocks
        ins = self.spec.block_inputs()
        probs = np.array([keep_probability(i, L, final_keep) for i in range(L)])
        if training:
            if rng is None:
                raise ValueError("training mode needs an rng for the mask")
            mask = (rng.random(L) < probs).astype(np.float64)
        else:
            mask = probs
        h = x
        for i, w in enumerate(self.spec.widths):
            h = self._block(h, i, ins[i], w, drop=float(mask[i]))
        logits = self._head(self._pool_flatten(h, self.spec.widths[-1]),
                            self.spec.widths[-1])
        return logits, mask

    def project(self, f_last: Tensor) -> Tensor:
        """Two-layer projection head on the pooled last feature map."""
        if not self.with_projection:
            raise ValueError("model was built without a projection head")
        h = self._pool_flatten(f_last, self.spec.widths[-1])
        h = matmul(h, self.params["proj.fc1.w"]) + self.params["proj.fc1.b"]
        h = relu(h)
        return matmul(h, self.params["proj.fc2.w"]) + self.params["proj.fc2.b"]


# -- analytic cost counting -------------------------------------------------


def dense_layer_cost(in_dim: int, out_dim: int, bias: bool = True) -> tuple[float, int]:
    """(flops, params) of one dense layer; flops counts multiply-accumulates twice."""
    flops = 2.0 * in_dim * out_dim
    params = in_dim * out_dim + (out_dim if bias else 0)
    return flops, params


def conv_layer_cost(in_ch: int, out_ch: int, k: int,
                    out_hw: tuple[int, int]) -> tuple[float, int]:
    flops = 2.0 * in_ch * out_ch * k * k * out_hw[0] * out_hw[1]
    params = out_ch * in_ch * k * k
    return flops, params


def _forward_cost(spec: BlockNetSpec, omega: float = 1.0,
                  first_in_full: bool = False,
                  block_range: tuple[int, int] | None = None,
                  block_weights: list[float] | None = None) -> tuple[float, int]:
    """Analytic cost of one forward pass at a uniform width fraction.

    block_range selects a sub-stack [lo, hi); first_in_full keeps the first
    selected block's input at full width (the slimmed-final-block case).
    block_weights scales each block's flops (expected cost under dropping).
    """
    ins = spec.block_inputs()
    strides = spec.block_strides()
    sizes = spec.spatial_sizes()
    lo, hi = block_range if block_range is not None else (0, spec.num_blocks)
    flops = 0.0
    params = 0
    for i in range(lo, hi):
        w = spec.widths[i]
        k = slim_width(w, omega)
        if i == lo and (first_in_full or i == 0):
            cin = ins[i]
        else:
            cin = slim_width(ins[i], omega)
        hw = sizes[i]
        if spec.is_conv:
            f1, p1 = conv_layer_cost(cin, k, 3, hw)
            f2, p2 = conv_layer_cost(k, k, 3, hw)
            fs = ps = 0
            if ins[i] != spec.widths[i] or strides[i] != 1:
                fs, ps = conv_layer_cost(cin, k, 1, hw)
        else:
            f1, p1 = dense_layer_cost(cin, k, bias=False)
            f2, p2 = dense_layer_cost(k, k, bias=False)
            fs = ps = 0
            if ins[i] != spec.widths[i]:
                fs, ps = dense_layer_cost(cin, k, bias=False)
        wt = 1.0 if block_weights is None else block_weights[i - lo]
        flops += (f1 + f2) * wt + fs  # skip path runs even when the branch drops
        params += p1 + p2 + ps + 2 * k + 2 * k  # two norm layers, scale+shift
    return flops, params


def _head_cost(spec: BlockNetSpec, omega: float = 1.0) -> tuple[float, int]:
    k = slim_width(spec.widths[-1], omega)
    return dense_layer_cost(k, spec.num_classes, bias=True)


def _projection_cost(spec: BlockNetSpec) -> tuple[float, int]:
    f1, p1 = dense_layer_cost(spec.widths[-1], spec.projection_dim, bias=True)
    f2, p2 = dense_layer_cost(spec.projection_dim, spec.projection_dim, bias=True)
    return f1 + f2, p1 + p2
