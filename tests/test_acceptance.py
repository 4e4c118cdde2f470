"""Release gates: ten end-to-end checks, one printed summary line each.

Every test covers one numbered criterion and prints its pass/fail verdict
outside pytest's capture, so a plain ``pytest -v`` run always shows the
full scoreboard. Tolerances are part of each gate's contract; nothing here
is tuned at runtime.
"""
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from fedsim.data import dirichlet_partition
from fedsim.hessian import (ce_loss_fn, cross_client_metrics, hessian_diagonal,
                            hutchinson_trace, top_eigenpairs)
from fedsim.methods import (METHODS, MethodConfig, count_cost, loss_ce, loss_fedprox,
                            spectral_norm)
from fedsim.models import BlockNet, BlockNetSpec
from fedsim.orchestrator import (DatasetConfig, ExperimentConfig, ModelConfig,
                                 aggregate, comm_cost, run_experiment,
                                 save_checkpoint)
from fedsim.tensor import (ParamVector, Tensor, gradients, params_to_vector,
                           softmax_cross_entropy)

from helpers import (TanhMLP, class_counts, matrix_with_spectrum, max_rel_err,
                     numeric_grad, numeric_hessian)


def _report(capsys, num, ok, desc):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


# -- 1: reverse-mode gradients vs central finite differences ---------------------------


def test_criterion_01_gradient_oracle(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        while True:
            depth = int(rng.integers(2, 5))
            dims = [int(rng.integers(2, 9)) for _ in range(depth)]
            n_params = sum(dims[k] * dims[k + 1] + dims[k + 1]
                           for k in range(depth - 1))
            if n_params <= 200 and dims[-1] >= 2:
                break
        model = TanhMLP(tuple(dims), rng)
        x = rng.normal(size=(5, dims[0]))
        y = rng.integers(0, dims[-1], size=5)
        got = gradients(softmax_cross_entropy(model.forward(x), y), model.params)
        want = numeric_grad(lambda: softmax_cross_entropy(model.forward(x), y),
                            model.params)
        for name in model.params:
            worst = max(worst, max_rel_err(got[name], want[name]))
    dt = time.monotonic() - t0
    ok = worst <= 1e-4 and dt < 60.0
    _report(capsys, 1, ok,
            f"gradients on 100 random nets, max rel err {worst:.2e} "
            f"(<= 1e-4), {dt:.1f}s (< 60s)")


# -- 2: power-iteration spectral norm vs dense SVD --------------------------------------


def test_criterion_02_spectral_norm_oracle(capsys):
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 65))
        n = int(rng.integers(2, 65))
        k = min(m, n)
        sig = [float(rng.uniform(0.5, 4.0))]
        for _ in range(k - 1):
            sig.append(sig[-1] * float(rng.uniform(0.2, 0.7)))
        a = matrix_with_spectrum(m, n, np.array(sig), rng)
        got = spectral_norm(Tensor(a), power_iters=100, rng=rng).item()
        want = float(np.linalg.svd(a, compute_uv=False)[0])
        worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-6
    _report(capsys, 2, ok,
            f"spectral norm on 200 matrices up to 64x64, "
            f"max rel err {worst:.2e} (<= 1e-6 at 100 iterations)")


# -- 3: Hessian probes vs brute-force double finite differences -------------------------


def test_criterion_03_hessian_suite(capsys):
    rng = np.random.default_rng(303)
    model = TanhMLP((6, 8, 5), rng)
    n_params = sum(p.data.size for p in model.params.values())
    assert n_params <= 200
    x = rng.normal(size=(16, 6))
    y = rng.integers(0, 5, size=16)

    h_dense = numeric_hessian(lambda: ce_loss_fn(model, x, y), model.params)
    h_dense = 0.5 * (h_dense + h_dense.T)
    evals = np.linalg.eigvalsh(h_dense)
    lam_dense = float(evals[np.argmax(np.abs(evals))])

    vals, _, conv = top_eigenpairs(model, ce_loss_fn, (x, y), k=1, iters=500,
                                   tol=1e-8)
    eig_rel = abs(vals[0] - lam_dense) / abs(lam_dense)
    eig_ok = eig_rel <= 0.01 and conv[0]

    # one probe pass: the trace is the mean of the diagonal probes' totals
    dg, dg_se, totals = hessian_diagonal(model, ce_loss_fn, (x, y), num_probes=1000)
    tr, tr_se = hutchinson_trace(totals)
    tr_exact = float(np.trace(h_dense))
    tr_ok = abs(tr - tr_exact) <= 3.0 * tr_se

    # 1e-6 absolute floor absorbs the finite-difference noise of the oracle
    diag_ok = bool(np.all(np.abs(dg - np.diag(h_dense)) <= 3.0 * dg_se + 1e-6))

    ok = eig_ok and tr_ok and diag_ok
    _report(capsys, 3, ok,
            f"{n_params}-param net: top eig rel {eig_rel:.1e} (<= 1%), "
            f"trace |{tr:.3f}-{tr_exact:.3f}| <= 3se={3*tr_se:.3f}, "
            f"diag within 3se elementwise: {diag_ok}")


# -- 4: cross-client curvature comparisons on hand-evaluated inputs ---------------------


def test_criterion_04_cross_client_hand_values(capsys):
    d0 = np.array([1.0, 0.0])
    d1 = np.array([0.0, 1.0])
    d2 = np.array([2.0, 0.0])
    rep = cross_client_metrics([d0, d1, d2])
    # squared norms 1, 1, 4; pair gaps 0, 9, 9; dots 0, 2, 0
    per_pair_ok = (
        abs(rep.per_pair[0]["norm_gap"] - 0.0) <= 1e-12
        and abs(rep.per_pair[1]["norm_gap"] - 9.0) <= 1e-12
        and abs(rep.per_pair[2]["norm_gap"] - 9.0) <= 1e-12
        and abs(rep.per_pair[1]["direction"] - 0.5) <= 1e-12
        and abs(rep.per_pair[1]["direction_cosine"] - 1.0) <= 1e-12
        and abs(rep.per_pair[0]["direction"]) <= 1e-12
        and abs(rep.per_pair[2]["direction_cosine"]) <= 1e-12
    )
    avg_ok = (abs(rep.norm_gap - 6.0) <= 1e-12
              and abs(rep.direction - 0.5 / 3.0) <= 1e-12
              and abs(rep.direction_cosine - 1.0 / 3.0) <= 1e-12)

    same = np.array([0.3, -1.2, 0.7])
    rep_same = cross_client_metrics([same, same.copy(), same.copy()])
    same_ok = (abs(rep_same.norm_gap) <= 1e-12
               and abs(rep_same.direction_cosine - 1.0) <= 1e-12)

    ok = per_pair_ok and avg_ok and same_ok
    _report(capsys, 4, ok,
            "three hand-chosen diagonals: pairwise and averaged gap/alignment "
            "match hand evaluation to 1e-12; identical diagonals give "
            "gap 0 and cosine 1")


# -- 5: objective identities and mu->0 trajectory collapses -----------------------------


def _c5_config(method_cfg, seed=11):
    return ExperimentConfig(
        rounds=3, num_clients=3, local_epochs=1, batch_size=8,
        learning_rate=0.05, momentum=0.9, clip_norm=5.0, alpha=0.5,
        seed=seed, eval_every=3, method=method_cfg,
        dataset=DatasetConfig(num_classes=3, dims=(8,), samples_per_class=12,
                              separation=3.0, test_fraction=0.5),
        model=ModelConfig(widths=(6, 6)))


def test_criterion_05_objective_identities(capsys):
    spec = BlockNetSpec(input_shape=(12,), num_classes=3, widths=(6, 6))
    net = BlockNet(spec, rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    x = rng.normal(size=(10, 12))
    y = rng.integers(0, 3, size=10)
    anchor = {k: v.data + 0.1 for k, v in net.params.items()}
    mu = 0.37
    ce = gradients(loss_ce(net.forward(x), y), net.params)
    base = loss_ce(net.forward(x), y)
    anchor_vec = params_to_vector({k: Tensor(a) for k, a in anchor.items()})
    prox = gradients(loss_fedprox(base, net.params, anchor_vec, mu), net.params)
    grad_err = max(np.max(np.abs(prox[k] - (ce[k] + mu * (net.params[k].data
                                                          - anchor[k]))))
                   for k in net.params)
    grad_ok = grad_err <= 1e-10

    ref, _ = run_experiment(_c5_config(MethodConfig(method="fedavg")))
    collapses = {
        "fedprox mu=0": MethodConfig(method="fedprox", mu=0.0),
        "gradaug mu=0": MethodConfig(method="gradaug", mu=0.0),
        "fedalign full-width": MethodConfig(method="fedalign", omega_S=1.0),
    }
    same = {}
    for label, mc in collapses.items():
        state, _ = run_experiment(_c5_config(mc))
        same[label] = bool(np.array_equal(state.global_vector.data,
                                          ref.global_vector.data))
    traj_ok = all(same.values())

    ok = grad_ok and traj_ok
    _report(capsys, 5, ok,
            f"proximal gradient identity err {grad_err:.1e} (<= 1e-10); "
            f"bitwise trajectory collapses: {same}")


# -- 6: aggregation algebra, resume, determinism ----------------------------------------


def _pv(arr):
    arr = np.asarray(arr, dtype=np.float64)
    return ParamVector(data=arr.copy(), layout=(("w", (arr.size,), arr.size),))


def _c6_config(seed=9, rounds=4, workers=1):
    return ExperimentConfig(
        rounds=rounds, num_clients=3, local_epochs=1, batch_size=8,
        learning_rate=0.05, momentum=0.9, clip_norm=5.0, alpha=0.5,
        seed=seed, eval_every=2, workers=workers,
        method=MethodConfig(method="moon"),
        dataset=DatasetConfig(num_classes=3, dims=(8,), samples_per_class=12,
                              separation=3.0, test_fraction=0.5),
        model=ModelConfig(widths=(6, 6), projection_dim=8))


def test_criterion_06_protocol_algebra(capsys, tmp_path):
    rng = np.random.default_rng(404)
    v = rng.normal(size=301)
    ident_dyadic = aggregate([_pv(v), _pv(v), _pv(v)], [1, 1, 2])
    ident_odd = aggregate([_pv(v), _pv(v), _pv(v)], [3, 5, 7])
    ident_ok = (np.array_equal(ident_dyadic.data, v)
                and np.max(np.abs(ident_odd.data - v)) <= 1e-14)

    mix = aggregate([_pv(np.full(7, 2.0)), _pv(np.full(7, 6.0))], [1, 3])
    exact_ok = bool(np.all(mix.data == 5.0))

    straight, m_straight = run_experiment(_c6_config(rounds=4))
    half, _ = run_experiment(_c6_config(rounds=2))
    ckpt = str(tmp_path / "half.ckpt")
    save_checkpoint(ckpt, half)
    resumed, m_resumed = run_experiment(_c6_config(rounds=4), resume_from=ckpt)
    resume_ok = (np.array_equal(resumed.global_vector.data,
                                straight.global_vector.data)
                 and resumed.comm_bits == straight.comm_bits
                 and resumed.flops == straight.flops
                 and [m.round for m in m_resumed] == [2, 3])

    again, _ = run_experiment(_c6_config(rounds=4))
    parallel, _ = run_experiment(_c6_config(rounds=4, workers=2))
    det_ok = (np.array_equal(again.global_vector.data,
                             straight.global_vector.data)
              and np.array_equal(parallel.global_vector.data,
                                 straight.global_vector.data))

    ok = ident_ok and exact_ok and resume_ok and det_ok
    _report(capsys, 6, ok,
            f"identical-client aggregate ok={ident_ok}, "
            f"0.25*2+0.75*6=5 exact={exact_ok}, resume bitwise={resume_ok}, "
            f"serial/parallel/replay determinism={det_ok}")


# -- 7: communication accounting --------------------------------------------------------


def test_criterion_07_communication_accounting(capsys):
    bits = comm_cost(610_000, rounds_completed=84, clients_per_round=16)
    assert bits == 26_234_880_000.0
    rel = abs(bits - 26.2e9) / 26.2e9
    ok = rel <= 0.03
    _report(capsys, 7, ok,
            f"0.61M params x 32 bits x 16 clients x 84 rounds = "
            f"{bits/1e9:.2f} Gb, within {rel*100:.2f}% of 26.2 Gb (<= 3%)")


# -- 8: per-method compute/parameter cost ratios -----------------------------------------


def test_criterion_08_cost_model(capsys):
    spec = BlockNetSpec(input_shape=(3, 32, 32), num_classes=100,
                        widths=(16, 16, 16, 32, 32, 32, 64, 64, 64))
    base_f, _ = count_cost(spec, MethodConfig(method="fedavg"))
    fa_f, _ = count_cost(spec, MethodConfig(method="fedalign"))
    moon_f, _ = count_cost(spec, MethodConfig(method="moon"))
    r_fa = fa_f / base_f
    r_moon = moon_f / base_f
    ok = abs(r_fa - 1.02) <= 0.05 and abs(r_moon - 3.0) <= 0.05
    _report(capsys, 8, ok,
            f"forward-cost ratios on a 9-block conv net: "
            f"lipschitz/base {r_fa:.4f} (1.02 +/- 0.05), "
            f"contrastive/base {r_moon:.4f} (3.0 +/- 0.05)")


# -- 9: heterogeneity sweep end to end ---------------------------------------------------


def _c9_config(method, alpha, seed):
    mc = (MethodConfig(method="fedalign", mu=0.12) if method == "fedalign"
          else MethodConfig(method=method))
    return ExperimentConfig(
        rounds=20, num_clients=8, local_epochs=6, batch_size=16,
        learning_rate=0.05, momentum=0.9, clip_norm=5.0, alpha=alpha,
        seed=seed, eval_every=20, method=mc,
        dataset=DatasetConfig(num_classes=8, dims=(16,), samples_per_class=80,
                              separation=2.5, test_fraction=0.5),
        model=ModelConfig(widths=(16, 16), projection_dim=32))


def _c9_run(job):
    method, alpha, seed = job
    state, metrics = run_experiment(_c9_config(method, alpha, seed))
    acc = [m.test_acc for m in metrics if m.test_acc is not None][-1]
    lam = None
    if alpha == 0.1 and method in ("fedavg", "fedalign"):
        vals, _, _ = top_eigenpairs(state.model, ce_loss_fn,
                                    (state.test.inputs, state.test.labels),
                                    k=4, iters=100, seed=1234)
        lam = max(vals)  # top positive curvature of the aggregated model
    return method, alpha, seed, acc, lam


def test_criterion_09_heterogeneity_experiment(capsys):
    t0 = time.monotonic()
    jobs = [(m, alpha, s) for m in METHODS for alpha in (0.1, 1e6)
            for s in range(10)]
    with ProcessPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(_c9_run, jobs))
    wall = time.monotonic() - t0

    acc = {}
    lam = {}
    for method, alpha, seed, a, l in results:
        acc.setdefault((method, alpha), {})[seed] = a
        if l is not None:
            lam.setdefault(method, {})[seed] = l

    fa = np.array([acc[("fedalign", 0.1)][s] for s in range(10)])
    fv = np.array([acc[("fedavg", 0.1)][s] for s in range(10)])
    acc_ok = fa.mean() >= fv.mean()

    la = np.array([lam["fedalign"][s] for s in range(10)])
    lv = np.array([lam["fedavg"][s] for s in range(10)])
    wins = int((la < lv).sum())
    lam_ok = wins >= 8

    margins = {m: (np.mean([acc[(m, 1e6)][s] for s in range(10)])
                   - np.mean([acc[(m, 0.1)][s] for s in range(10)]))
               for m in METHODS}
    trend_ok = all(v >= 0.0 for v in margins.values())

    time_ok = wall < 1800.0
    ok = acc_ok and lam_ok and trend_ok and time_ok
    _report(capsys, 9, ok,
            f"8 clients, Dir(0.1), 20 rounds, 10 seeds: "
            f"mean acc fedalign {fa.mean():.4f} >= fedavg {fv.mean():.4f}; "
            f"sharpness wins {wins}/10 (>= 8); "
            f"homogeneous >= heterogeneous for all methods "
            f"(min margin {min(margins.values()):+.4f}); wall {wall:.0f}s (< 1800s)")


# -- 10: heterogeneity-controlled partition properties -----------------------------------


def test_criterion_10_partition_properties(capsys):
    rng = np.random.default_rng(505)
    for _ in range(1000):
        c = int(rng.integers(2, 11))
        alpha = float(10 ** rng.uniform(-1.0, 3.0))
        n_cls = int(rng.integers(2, 11))
        n = int(rng.integers(30 * c, 500))
        labels = rng.integers(0, n_cls, size=n)
        seed = int(rng.integers(0, 2 ** 31))
        part = dirichlet_partition(labels, c, alpha, seed=seed)
        covered = np.concatenate([a for a in part.assignments if len(a)])
        assert len(covered) == len(np.unique(covered)) == n
    cover_ok = True

    uniform_ok = True
    for seed in range(20):
        labels = np.repeat(np.arange(8), 1000)
        sizes = dirichlet_partition(labels, 8, 1e6, seed=seed).sizes()
        uniform_ok &= bool(np.max(np.abs(sizes - 1000.0)) <= 50.0)

    empty = 0
    for seed in range(200):
        labels = np.repeat(np.arange(8), 1000)
        part = dirichlet_partition(labels, 8, 0.1, seed=seed)
        if (class_counts(part, labels, 8) == 0).any():
            empty += 1
    empty_ok = empty / 200 >= 0.95

    ok = cover_ok and uniform_ok and empty_ok
    _report(capsys, 10, ok,
            f"1000 random partitions are disjoint covers; alpha=1e6 within 5% "
            f"of uniform on 20 seeds; alpha=0.1 empty-cell fraction "
            f"{empty/200:.2f} (>= 0.95)")
