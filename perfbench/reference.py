"""Reference implementations the benchmark checks the program against.

Nothing here imports fedsim. The checkpoint reader follows the documented
container format (one JSON manifest line, then little-endian float64 arrays
at the byte offsets the manifest declares), and the forward pass follows the
documented BlockNet architecture: residual blocks of two dense or 3x3-conv
layers, per-sample normalization over the active channels (and space), an
optional skip projection, global average pooling for conv nets, and a linear
head.
"""
from __future__ import annotations

import json
from math import fsum

import numpy as np

NORM_EPS = 1e-5  # the normalization epsilon BlockNet documents
PROBE_SAMPLES = 256  # probe batch size of `fedsim diagnose`
DIAG_GLOBAL_TAG = 12  # rng stream tag of the diagnose global probe batch


def read_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Parse a checkpoint into (manifest, named arrays, global weights by name)."""
    with open(path, "rb") as f:
        header = f.readline()
        payload = f.read()
    manifest = json.loads(header.decode())
    arrays = {}
    for entry in manifest["arrays"]:
        start = entry["offset"]
        end = start + 8 * entry["length"]
        if end > len(payload):
            raise ValueError(f"array {entry['name']!r} runs past the payload")
        arrays[entry["name"]] = np.frombuffer(payload[start:end], dtype="<f8")
    flat = arrays["global"]
    weights = {}
    for name, shape, offset in manifest["layout"]:
        size = int(np.prod(shape)) if shape else 1
        weights[name] = flat[offset:offset + size].reshape(shape)
    if sum(w.size for w in weights.values()) != flat.size:
        raise ValueError("layout does not cover the global array")
    return manifest, arrays, weights


def _norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    axes = tuple(range(1, x.ndim))
    d = x - x.mean(axis=axes, keepdims=True)
    y = d / np.sqrt((d * d).mean(axis=axes, keepdims=True) + NORM_EPS)
    shape = (1, -1) + (1,) * (x.ndim - 2)
    return y * scale.reshape(shape) + shift.reshape(shape)


def _conv(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (B, Cin, Hout, Wout, k, k)
    return np.einsum("bchwij,ocij->bohw", win, w, optimize=True)


def forward(weights: dict[str, np.ndarray], widths, x: np.ndarray,
            masks: list | None = None) -> np.ndarray:
    """Logits of a full-width BlockNet; conv blocks when x is (B, C, H, W).

    A conv block that widens its input downsamples by 2, as BlockNet does
    when no strides are given. When `masks` is a list, the sign pattern of
    every ReLU input is appended to it.
    """
    def _relu(z: np.ndarray) -> np.ndarray:
        if masks is not None:
            masks.append(z > 0)
        return np.maximum(z, 0.0)

    conv = x.ndim == 4
    h = x
    for i, width in enumerate(widths):
        p = f"block{i}."
        if conv:
            s = 2 if i > 0 and width > widths[i - 1] else 1
            a = _relu(_norm(_conv(h, weights[p + "conv1.w"], s, 1),
                            weights[p + "norm1.scale"], weights[p + "norm1.shift"]))
            a = _norm(_conv(a, weights[p + "conv2.w"], 1, 1),
                      weights[p + "norm2.scale"], weights[p + "norm2.shift"])
            skip = (_conv(h, weights[p + "skip.w"], s, 0)
                    if p + "skip.w" in weights else h)
        else:
            a = _relu(_norm(h @ weights[p + "fc1.w"],
                            weights[p + "norm1.scale"], weights[p + "norm1.shift"]))
            a = _norm(a @ weights[p + "fc2.w"],
                      weights[p + "norm2.scale"], weights[p + "norm2.shift"])
            skip = h @ weights[p + "skip.w"] if p + "skip.w" in weights else h
        h = _relu(a + skip)
    if conv:
        h = h.mean(axis=(2, 3))
    return h @ weights["head.w"] + weights["head.b"]


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return fsum(lse - z[np.arange(len(labels)), labels]) / len(labels)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((logits.argmax(axis=1) == labels).mean())


def global_probe_batch(inputs: np.ndarray, labels: np.ndarray, seed: int):
    """The test-set probe batch `fedsim diagnose` documents for a run seed."""
    if len(labels) <= PROBE_SAMPLES:
        return inputs, labels
    rng = np.random.default_rng([seed, DIAG_GLOBAL_TAG])
    idx = np.sort(rng.choice(len(labels), size=PROBE_SAMPLES, replace=False))
    return inputs[idx], labels[idx]


def cross_client(diagonals: list[np.ndarray]) -> dict:
    """Pairwise curvature comparisons, averaged over unordered client pairs."""
    sq = [fsum(d * d) for d in diagonals]
    gaps, dirs, cosines = [], [], []
    for i in range(len(diagonals)):
        for j in range(i + 1, len(diagonals)):
            dot = fsum(diagonals[i] * diagonals[j])
            gaps.append((sq[i] - sq[j]) ** 2)
            dirs.append(dot / (sq[i] * sq[j]))
            cosines.append(dot / (sq[i] * sq[j]) ** 0.5)
    return {"norm_gap": fsum(gaps) / len(gaps), "direction": fsum(dirs) / len(dirs),
            "direction_cosine": fsum(cosines) / len(cosines),
            "pairs": list(zip(gaps, dirs, cosines))}


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
