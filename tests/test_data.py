"""Synthetic data, Dirichlet partitioning, and batch transforms."""
import json

import numpy as np
import pytest

from fedsim.data import (DOWNSAMPLE_SCALES, LabeledDataset, _largest_remainder,
                         dirichlet_partition, downsample_transform,
                         make_synthetic_mixture, mixup_batch, train_test_split)

from helpers import class_counts


# -- synthetic mixture ---------------------------------------------------------


def test_mixture_shapes_and_balance():
    ds = make_synthetic_mixture(4, 10, 25, separation=3.0, seed=0)
    assert ds.inputs.shape == (100, 10)
    assert ds.labels.shape == (100,)
    assert ds.num_classes == 4
    _, counts = np.unique(ds.labels, return_counts=True)
    assert np.array_equal(counts, [25, 25, 25, 25])


def test_mixture_deterministic():
    a = make_synthetic_mixture(3, 6, 10, 2.0, seed=42)
    b = make_synthetic_mixture(3, 6, 10, 2.0, seed=42)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)
    c = make_synthetic_mixture(3, 6, 10, 2.0, seed=43)
    assert not np.array_equal(a.inputs, c.inputs)


def test_mixture_image_shape():
    ds = make_synthetic_mixture(4, (1, 4, 4), 5, 2.0, seed=1)
    assert ds.inputs.shape == (20, 1, 4, 4)


def test_mixture_rejects_too_few_dims():
    with pytest.raises(ValueError):
        make_synthetic_mixture(8, 4, 10, 2.0, seed=0)
    with pytest.raises(ValueError):
        make_synthetic_mixture(4, 8, 0, 2.0, seed=0)


def test_mixture_pairwise_mean_separation():
    # empirical class means should sit `separation` apart, up to noise
    ds = make_synthetic_mixture(3, 8, 4000, separation=10.0, seed=2)
    means = np.stack([ds.inputs[ds.labels == c].mean(axis=0) for c in range(3)])
    for i in range(3):
        for j in range(i + 1, 3):
            d = np.linalg.norm(means[i] - means[j])
            assert abs(d - 10.0) < 0.2


def test_mixture_unit_noise():
    ds = make_synthetic_mixture(2, 6, 5000, separation=5.0, seed=3)
    stds = [ds.inputs[ds.labels == c].std(axis=0, ddof=1) for c in range(2)]
    assert np.all(np.abs(np.concatenate(stds) - 1.0) < 0.06)


def test_mixture_linear_probe_separable():
    # least squares onto one-hot targets; high separation => near-perfect probe
    ds = make_synthetic_mixture(4, 8, 200, separation=10.0, seed=4)
    x = np.hstack([ds.inputs, np.ones((len(ds), 1))])
    t = np.eye(4)[ds.labels]
    w, *_ = np.linalg.lstsq(x, t, rcond=None)
    acc = ((x @ w).argmax(axis=1) == ds.labels).mean()
    assert acc >= 0.99


def test_dataset_validation_and_subset():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.zeros(4, dtype=int), 2)
    ds = LabeledDataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]), 2)
    sub = ds.subset([2, 0])
    assert np.array_equal(sub.inputs, [[4.0, 5.0], [0.0, 1.0]])
    assert np.array_equal(sub.labels, [0, 0])


def test_train_test_split_partitions_everything():
    ds = make_synthetic_mixture(3, 6, 40, 2.0, seed=5)
    train, test = train_test_split(ds, 0.25, seed=6)
    assert len(train) == 90 and len(test) == 30
    joined = np.concatenate([np.sort(train.inputs[:, 0]), np.sort(test.inputs[:, 0])])
    assert np.array_equal(np.sort(joined), np.sort(ds.inputs[:, 0]))
    again = train_test_split(ds, 0.25, seed=6)
    assert np.array_equal(again[0].inputs, train.inputs)
    with pytest.raises(ValueError):
        train_test_split(ds, 0.0, seed=0)


# -- largest remainder rounding ---------------------------------------------------


def test_largest_remainder_frozen_tie():
    # raw 1.5 / 1.5: the tie goes to the lower index
    assert np.array_equal(_largest_remainder(np.array([0.5, 0.5]), 3), [2, 1])


def test_largest_remainder_exact_fractions():
    assert np.array_equal(_largest_remainder(np.array([0.25, 0.75]), 8), [2, 6])
    assert np.array_equal(_largest_remainder(np.array([1.0, 0.0]), 5), [5, 0])


def test_largest_remainder_conserves_total():
    rng = np.random.default_rng(7)
    for _ in range(500):
        k = rng.integers(1, 12)
        p = rng.dirichlet(np.full(k, 0.5))
        total = int(rng.integers(0, 200))
        counts = _largest_remainder(p, total)
        assert counts.sum() == total
        assert np.all(counts >= 0)
        # never off by a full unit from the ideal share
        assert np.all(np.abs(counts - p * total) < 1.0 + 1e-9)


# -- dirichlet partition ---------------------------------------------------------


def test_partition_disjoint_cover():
    labels = make_synthetic_mixture(5, 8, 40, 2.0, seed=8).labels
    part = dirichlet_partition(labels, 6, 0.5, seed=9)
    allidx = np.concatenate(part.assignments)
    assert len(allidx) == len(labels)
    assert len(np.unique(allidx)) == len(labels)
    assert all(len(a) > 0 for a in part.assignments)


def test_partition_deterministic():
    labels = np.repeat(np.arange(4), 30)
    a = dirichlet_partition(labels, 5, 0.3, seed=10)
    b = dirichlet_partition(labels, 5, 0.3, seed=10)
    assert all(np.array_equal(x, y) for x, y in zip(a.assignments, b.assignments))
    c = dirichlet_partition(labels, 5, 0.3, seed=11)
    assert any(not np.array_equal(x, y) for x, y in zip(a.assignments, c.assignments))


def test_partition_class_totals_conserved():
    labels = np.repeat(np.arange(3), [20, 30, 50])
    part = dirichlet_partition(labels, 4, 0.2, seed=12)
    counts = class_counts(part, labels, 3)
    assert np.array_equal(counts.sum(axis=0), [20, 30, 50])
    assert np.array_equal(counts.sum(axis=1), part.sizes())


def test_partition_near_uniform_at_huge_alpha():
    labels = np.repeat(np.arange(10), 100)
    part = dirichlet_partition(labels, 8, 1e6, seed=13)
    sizes = part.sizes()
    assert np.all(np.abs(sizes - 125) <= 125 * 0.05)


def test_partition_skews_at_small_alpha():
    labels = np.repeat(np.arange(10), 50)
    part = dirichlet_partition(labels, 8, 0.1, seed=14)
    counts = class_counts(part, labels, 10)
    assert (counts == 0).any()  # concentration empties some client/class cells


def test_partition_takes_an_int_alpha_beyond_int64():
    # a config's float field keeps a JSON int as written
    labels = np.repeat(np.arange(3), 20)
    a = dirichlet_partition(labels, 4, 10 ** 20, seed=5)
    b = dirichlet_partition(labels, 4, 1e20, seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(a.assignments, b.assignments))


def test_partition_records_redraws():
    # 2 samples over 2 clients at tiny alpha often needs several attempts
    attempts = [dirichlet_partition(np.array([0, 0]), 2, 0.05, seed=s).attempts
                for s in range(40)]
    assert all(a >= 1 for a in attempts)
    assert max(attempts) > 1


def test_partition_validation():
    with pytest.raises(ValueError):
        dirichlet_partition(np.array([0, 1]), 0, 0.5, seed=0)
    with pytest.raises(ValueError):
        dirichlet_partition(np.array([0, 1]), 2, 0.0, seed=0)
    with pytest.raises(ValueError):
        dirichlet_partition(np.array([0]), 2, 0.5, seed=0)


def test_partition_gives_up_eventually():
    with pytest.raises(RuntimeError):
        dirichlet_partition(np.array([0, 0]), 2, 1e-3, seed=0, max_attempts=1)


def test_partition_json_round_trip():
    labels = np.repeat(np.arange(3), 20)
    part = dirichlet_partition(labels, 4, 0.4, seed=15)
    back = json.loads(part.to_json())
    assert back["alpha"] == part.alpha and back["seed"] == part.seed
    assert back["attempts"] == part.attempts
    assert back["assignments"] == [a.tolist() for a in part.assignments]


# -- mixup ------------------------------------------------------------------------


def test_mixup_endpoints():
    xa = np.ones((3, 2))
    xb = np.zeros((3, 2))
    ya, yb = np.array([0, 1, 2]), np.array([2, 1, 0])
    xm, ra, rb, beta = mixup_batch(xa, ya, xb, yb, 0.1, beta=1.0)
    assert np.array_equal(xm, xa) and beta == 1.0
    xm, _, _, beta = mixup_batch(xa, ya, xb, yb, 0.1, beta=0.0)
    assert np.array_equal(xm, xb)
    xm, ra, rb, _ = mixup_batch(xa, ya, xb, yb, 0.1, beta=0.25)
    assert np.allclose(xm, 0.25)
    assert ra is ya and rb is yb


def test_mixup_sampled_beta_symmetric():
    rng = np.random.default_rng(16)
    xa = np.zeros((1, 1))
    draws = [mixup_batch(xa, np.array([0]), xa, np.array([0]), 0.1, rng)[3]
             for _ in range(4000)]
    draws = np.asarray(draws)
    assert np.all((draws >= 0) & (draws <= 1))
    assert abs(draws.mean() - 0.5) < 0.03   # Beta(g, g) has mean 1/2
    # gamma = 0.1 concentrates on the endpoints
    assert (np.minimum(draws, 1 - draws) < 0.1).mean() > 0.7


def test_mixup_validation():
    xa = np.zeros((2, 2))
    with pytest.raises(ValueError):
        mixup_batch(xa, np.zeros(2), np.zeros((3, 2)), np.zeros(3), 0.1, beta=0.5)
    with pytest.raises(ValueError):
        mixup_batch(xa, np.zeros(2), xa, np.zeros(2), 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        mixup_batch(xa, np.zeros(2), xa, np.zeros(2), 0.1, beta=1.5)
    with pytest.raises(ValueError):
        mixup_batch(xa, np.zeros(2), xa, np.zeros(2), 0.1, rng=None)


# -- downsample transform ------------------------------------------------------------


def test_downsample_identity_at_full_scale():
    x = np.random.default_rng(17).normal(size=(2, 1, 4, 4))
    assert downsample_transform(x, 1.0) is x


def test_downsample_halves_then_upsamples_ramp():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    got = downsample_transform(x, 0.5)
    # pool to 2x2 (means 2.5/4.5/10.5/12.5), then nearest back up to 4x4
    want = np.array([[[[2.5, 2.5, 4.5, 4.5],
                       [2.5, 2.5, 4.5, 4.5],
                       [10.5, 10.5, 12.5, 12.5],
                       [10.5, 10.5, 12.5, 12.5]]]])
    assert np.array_equal(got, want)
    assert got.shape == x.shape


def test_downsample_flat_fallback_noise():
    rng = np.random.default_rng(18)
    x = np.zeros((400, 50))
    out = downsample_transform(x, 0.5, rng)
    sigma = (1.0 - 0.5) * 0.1
    assert abs(out.std() - sigma) < sigma * 0.05
    assert abs(out.mean()) < 3 * sigma / np.sqrt(x.size)
    with pytest.raises(ValueError):
        downsample_transform(x, 0.5)  # rng required for the fallback


def test_downsample_validates_scale():
    with pytest.raises(ValueError):
        downsample_transform(np.zeros((1, 1, 4, 4)), 0.3)
    assert 0.75 in DOWNSAMPLE_SCALES
