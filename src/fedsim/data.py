"""Synthetic datasets and the client-side data plumbing.

Data is a Gaussian mixture with one component per class, placed on scaled
orthogonal directions so the pairwise mean separation is exact. Partitioning
across clients follows per-class Dirichlet draws with largest-remainder
rounding; a draw that leaves any client empty is redrawn wholesale. Batch
augmentation helpers (mixup pairing, downsample transforms for sampled-width
distillation) live here too, since they act on raw arrays.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import inf, prod

import numpy as np

from .tensor import Tensor, adaptive_avg_pool2d

DOWNSAMPLE_SCALES = (1.0, 0.75, 0.5)
NOISE_BASE = 0.1  # additive-noise fallback strength at scale 0


@dataclass
class LabeledDataset:
    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs and labels disagree on length")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, idx) -> "LabeledDataset":
        idx = np.asarray(idx)
        return LabeledDataset(self.inputs[idx], self.labels[idx], self.num_classes)


def make_synthetic_mixture(num_classes: int, dims, samples_per_class: int,
                           separation: float, seed: int) -> LabeledDataset:
    """Gaussian mixture, unit noise, class means exactly `separation` apart.

    dims is an int for flat features or a (C, H, W) tuple for image-shaped
    inputs; the flattened dimension must be at least num_classes so the means
    can sit on orthogonal axes (scaled by separation / sqrt(2), which makes
    every pairwise mean distance equal the requested separation).
    """
    shape = (dims,) if isinstance(dims, int) else tuple(dims)
    flat = prod(shape)
    if flat < num_classes:
        raise ValueError("need at least as many dims as classes")
    if samples_per_class < 1:
        raise ValueError("samples_per_class must be positive")
    rng = np.random.default_rng(seed)
    means = np.zeros((num_classes, flat))
    means[np.arange(num_classes), np.arange(num_classes)] = separation / np.sqrt(2.0)
    xs, ys = [], []
    for c in range(num_classes):
        xs.append(means[c] + rng.standard_normal((samples_per_class, flat)))
        ys.append(np.full(samples_per_class, c, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    order = rng.permutation(len(y))
    x = x[order].reshape((len(y),) + shape)
    return LabeledDataset(x, y[order], num_classes)


def num_test_samples(n: int, test_fraction: float) -> int:
    """Samples train_test_split holds out of n for testing."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    return int(round(test_fraction * n))


def train_test_split(ds: LabeledDataset, test_fraction: float,
                     seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    n_test = num_test_samples(len(ds), test_fraction)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ds))
    return ds.subset(order[n_test:]), ds.subset(order[:n_test])


@dataclass
class Partition:
    """Client index assignments plus the draw that produced them."""

    assignments: list[np.ndarray]
    alpha: float
    seed: int
    attempts: int = 1

    @property
    def num_clients(self) -> int:
        return len(self.assignments)

    def sizes(self) -> np.ndarray:
        return np.array([len(a) for a in self.assignments])

    def to_json(self) -> str:
        return json.dumps({
            "alpha": self.alpha,
            "seed": self.seed,
            "attempts": self.attempts,
            "assignments": [a.tolist() for a in self.assignments],
        })


def _largest_remainder(p: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to `total` with proportions p (ties by index)."""
    raw = p * total
    base = np.floor(raw).astype(np.int64)
    short = total - int(base.sum())
    if short:
        frac = raw - base
        order = np.lexsort((np.arange(len(p)), -frac))
        base[order[:short]] += 1
    return base


def dirichlet_partition(labels: np.ndarray, num_clients: int, alpha: float,
                        seed: int, max_attempts: int = 100) -> Partition:
    """Per-class Dirichlet split of sample indices across clients.

    Every class's samples are dealt to clients according to an independent
    Dirichlet(alpha) draw, rounded by largest remainder so class totals are
    conserved exactly. If any client ends up with no samples at all the whole
    partition is redrawn, up to max_attempts times.
    """
    labels = np.asarray(labels)
    if num_clients < 1:
        raise ValueError("need at least one client")
    if not 0 < alpha < inf:  # NaN fails both comparisons
        raise ValueError("alpha must be a positive finite number")
    if len(labels) < num_clients:
        raise ValueError("fewer samples than clients")
    classes = np.unique(labels)
    # a config keeps a JSON int as parsed, and numpy holds one beyond int64 as an object
    concentration = np.full(num_clients, float(alpha))
    for attempt in range(1, max_attempts + 1):
        rng = np.random.default_rng([seed, attempt])
        buckets: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
        for k in classes:
            idx = np.flatnonzero(labels == k)
            idx = rng.permutation(idx)
            counts = _largest_remainder(rng.dirichlet(concentration), len(idx))
            stop = np.cumsum(counts)
            start = stop - counts
            for c in range(num_clients):
                buckets[c].append(idx[start[c]:stop[c]])
        assignments = [np.sort(np.concatenate(b)) for b in buckets]
        if all(len(a) for a in assignments):
            return Partition(assignments, alpha, seed, attempts=attempt)
    raise RuntimeError(f"no non-empty partition found in {max_attempts} attempts")


def mixup_batch(x_a: np.ndarray, y_a: np.ndarray, x_b: np.ndarray, y_b: np.ndarray,
                gamma: float, rng: np.random.Generator | None = None,
                beta: float | None = None):
    """Convex combination of two batches with a single Beta(gamma, gamma) draw.

    Returns (x_mixed, y_a, y_b, beta); the loss side weighs the two label
    sets by beta and 1 - beta. Pass beta explicitly to pin the endpoint.
    """
    if x_a.shape != x_b.shape:
        raise ValueError("mixup batches must have identical shapes")
    if beta is None:
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if rng is None:
            raise ValueError("an rng is required when beta is sampled")
        beta = float(rng.beta(gamma, gamma))
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    return beta * x_a + (1.0 - beta) * x_b, y_a, y_b, beta


def downsample_transform(x: np.ndarray, scale: float,
                         rng: np.random.Generator | None = None) -> np.ndarray:
    """Resolution-reducing input transform that preserves the input shape.

    Spatial inputs (batch, C, H, W) are average-pooled to scale * (H, W) and
    carried back up with nearest-neighbor upsampling. Flat inputs have no
    resolution to reduce, so the declared fallback is additive Gaussian noise
    with sigma = (1 - scale) * 0.1. scale = 1.0 is the identity either way.
    """
    if scale not in DOWNSAMPLE_SCALES:
        raise ValueError(f"scale must be one of {DOWNSAMPLE_SCALES}")
    if scale == 1.0:
        return x
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 4:
        h, w = x.shape[2], x.shape[3]
        th, tw = max(1, round(h * scale)), max(1, round(w * scale))
        t = adaptive_avg_pool2d(Tensor(x), (th, tw)).data
        # nearest neighbour: output row i reads pooled row i * th // h
        ri = (np.arange(h) * th) // h
        ci = (np.arange(w) * tw) // w
        return t[:, :, ri][:, :, :, ci]
    if rng is None:
        raise ValueError("flat inputs need an rng for the noise fallback")
    return x + rng.normal(0.0, (1.0 - scale) * NOISE_BASE, size=x.shape)
