"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import time

import numpy as np

from conftest import (
    FIXTURE_QUERY,
    FIXTURE_SUPPORT,
    IDENTITY,
    centered_pieces,
    kernel_distance,
    random_instance,
    rbf_for,
    rel_close,
)
from oracles import dsn_distance, explicit_feature_distance, protonet_distance, replicated_matrix_distance
from protofilter import (
    AbsoluteLambda,
    EvalConfig,
    FilterKind,
    FilterSpec,
    KernelSpec,
    LinearEmbedding,
    RelativeToMaxEigenvalue,
    SYNTH_PRESETS,
    SynthConfig,
    TrainConfig,
    batch_loss,
    class_probabilities,
    compare_methods,
    episode_loss,
    evaluate,
    finite_difference_gradient,
    symmetric_eig,
    synth_generate,
    train,
)
from protofilter.training import episodes_loss, sample_training_batch

LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
ZERO = FilterSpec(FilterKind.ZERO, AbsoluteLambda(0.0))

#: Paired accuracy margin (Tikhonov relative-0.1 minus zero filter) frozen
#: from the reference run at the fixed seeds: observed +0.0887 over 1000
#: episodes with per-episode std 0.088.
REFERENCE_ABLATION_MARGIN = 0.04


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_01_explicit_feature_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(500):
        support, query = random_instance(rng)
        lam = LAMBDA_GRID[trial % len(LAMBDA_GRID)]
        spec = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(lam))
        direct = kernel_distance(IDENTITY, support, query, spec, lam)
        oracle = explicit_feature_distance(support, query, spec, lam)
        scaled = abs(direct - oracle) / (1e-8 * (1.0 + oracle))
        worst = max(worst, scaled)
    elapsed = time.perf_counter() - started
    _report(1, "explicit-feature oracle equivalence",
            worst <= 1.0 and elapsed < 10.0,
            f"worst error {worst:.3f}x tolerance, {elapsed:.1f}s")


def test_criterion_02_replicated_matrix_oracle_equivalence():
    rng = np.random.default_rng(102)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(600):
        support, query = random_instance(rng)
        kernel = rbf_for(support.shape[1]) if trial % 2 else IDENTITY
        lam = LAMBDA_GRID[trial % len(LAMBDA_GRID)]
        spec = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(lam))
        direct = kernel_distance(kernel, support, query, spec, lam)
        literal = replicated_matrix_distance(support, query, kernel, spec, lam)
        worst = max(worst, abs(direct - literal))
    elapsed = time.perf_counter() - started
    _report(2, "replicated-matrix oracle equivalence (both kernels)",
            worst <= 1e-10 and elapsed < 10.0,
            f"worst |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_prototype_reduction():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(500):
        support, query = random_instance(rng)
        direct = kernel_distance(IDENTITY, support, query, ZERO, 0.0)
        worst = max(worst, abs(direct - protonet_distance(support, query)))
    _report(3, "zero filter reduces to prototype distance",
            worst <= 1e-9, f"worst |diff| {worst:.2e}")


def test_criterion_04_subspace_reduction():
    rng = np.random.default_rng(104)
    worst = 0.0
    checked = 0
    for _ in range(200):
        support, query = random_instance(rng)
        centered = support - support.mean(axis=0)
        values = np.sort(np.linalg.eigvalsh(centered.T @ centered))[::-1]
        values = values[values > 1e-10 * max(values[0], 1.0)]
        rank = len(values)
        for k in range(rank + 1):
            if k == 0:
                lam = 2.0 * values[0]
            elif k == rank:
                lam = 0.5 * values[-1]
            else:
                if values[k] >= 0.999 * values[k - 1]:
                    continue
                lam = float(np.sqrt(values[k - 1] * values[k]))
            spec = FilterSpec(FilterKind.TRUNCATED_SVD, AbsoluteLambda(lam))
            direct = kernel_distance(IDENTITY, support, query, spec, lam)
            worst = max(worst, abs(direct - dsn_distance(support, query, k)))
            checked += 1
    _report(4, "truncated SVD reduces to subspace distance",
            worst <= 1e-8 and checked >= 600,
            f"worst |diff| {worst:.2e} over {checked} truncation ranks")


def test_criterion_05_tikhonov_limits():
    rng = np.random.default_rng(105)
    heavy_ok = True
    light_ok = True
    for _ in range(200):
        support, query = random_instance(rng)
        _, _, _, ktilde, _, q_norm = centered_pieces(IDENTITY, support, query)
        values = symmetric_eig(ktilde).values
        top = float(values[0])
        smallest_nonzero = float(values[values > 0.0].min())
        zero_dist = kernel_distance(IDENTITY, support, query, ZERO, 0.0)
        big = 1e12 * top
        heavy = kernel_distance(
            IDENTITY, support, query, FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(big)), big
        )
        heavy_ok &= rel_close(heavy, zero_dist, q_norm)
        small = 1e-12 * top
        light = kernel_distance(
            IDENTITY, support, query, FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(small)), small
        )
        tsvd_lam = 0.5 * smallest_nonzero
        full_rank = kernel_distance(
            IDENTITY, support, query,
            FilterSpec(FilterKind.TRUNCATED_SVD, AbsoluteLambda(tsvd_lam)), tsvd_lam,
        )
        light_ok &= rel_close(light, full_rank, q_norm)
    _report(5, "Tikhonov limits match zero filter and full-rank truncation",
            heavy_ok and light_ok,
            f"lambda->inf ok={heavy_ok}, lambda->0 ok={light_ok} "
            "(1e-6 relative; values numerically zero at problem scale exempt)")


def test_criterion_06_gram_covariance_spectrum_identity():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(200):
        support, query = random_instance(rng)
        _, _, _, ktilde, _, _ = centered_pieces(IDENTITY, support, query)
        gram_values = symmetric_eig(ktilde).values
        centered = support - support.mean(axis=0)
        cov_values = np.clip(np.linalg.eigvalsh(centered.T @ centered)[::-1], 0.0, None)
        size = max(len(gram_values), len(cov_values))
        a = np.zeros(size)
        a[: len(gram_values)] = gram_values
        b = np.zeros(size)
        b[: len(cov_values)] = cov_values
        worst = max(worst, float(np.max(np.abs(np.sort(a) - np.sort(b)))))
    _report(6, "centered-Gram spectrum equals covariance spectrum",
            worst <= 1e-8, f"worst |diff| {worst:.2e}")


def test_criterion_07_worked_fixture():
    tik = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(2.0))
    tsvd = FilterSpec(FilterKind.TRUNCATED_SVD, AbsoluteLambda(1.0))
    got_tik = kernel_distance(IDENTITY, FIXTURE_SUPPORT, FIXTURE_QUERY, tik, 2.0)
    got_zero = kernel_distance(IDENTITY, FIXTURE_SUPPORT, FIXTURE_QUERY, ZERO, 0.0)
    got_tsvd = kernel_distance(IDENTITY, FIXTURE_SUPPORT, FIXTURE_QUERY, tsvd, 1.0)
    ok = (
        abs(got_tik - 1.25) <= 1e-12
        and abs(got_zero - 2.0) <= 1e-12
        and abs(got_tsvd - 1.0) <= 1e-12
    )
    _report(7, "worked two-point fixture",
            ok, f"tikhonov {got_tik:.6f}, zero {got_zero:.6f}, tsvd {got_tsvd:.6f}")


def test_criterion_08_classifier_contracts():
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(100):
        count = int(rng.integers(2, 9))
        dists = rng.uniform(0.0, 20.0, size=count)
        zeta = float(rng.uniform(0.1, 10.0))
        probs = class_probabilities(dists, zeta)
        ok &= abs(float(probs.sum()) - 1.0) <= 1e-12
        ok &= int(np.argmin(dists)) == int(np.argmax(probs))
    uniform = class_probabilities(np.full(4, 3.7), 2.0)
    ok &= bool(np.all(np.abs(uniform - 0.25) <= 1e-12))
    five = class_probabilities(np.ones(5), 1.0)[None, :]
    loss = episode_loss(five, np.array([0]))
    ok &= abs(loss - np.log(5.0)) <= 1e-12
    _report(8, "probability and loss contracts", ok,
            f"uniform loss {loss:.12f} vs ln5 {np.log(5.0):.12f}")


def test_criterion_09_reference_shrinkage_ablation():
    started = time.perf_counter()
    dataset = synth_generate(SYNTH_PRESETS["reference"])
    base = EvalConfig(way=5, shot=5, query_per_class=10, episode_count=1000, master_seed=0)
    reports = compare_methods(
        dataset,
        base,
        [
            ("zero", KernelSpec(), ZERO),
            ("tikhonov", KernelSpec(), FilterSpec(FilterKind.TIKHONOV, RelativeToMaxEigenvalue(0.1))),
        ],
    )
    elapsed = time.perf_counter() - started
    margin = reports[1].accuracy_mean - reports[0].accuracy_mean
    _report(9, "paired shrinkage benefit on the reference family",
            margin > REFERENCE_ABLATION_MARGIN and margin > 0.0 and elapsed < 120.0,
            f"margin {margin:+.4f} (frozen threshold {REFERENCE_ABLATION_MARGIN}), {elapsed:.0f}s")


def test_criterion_10_trainer_descent_and_gradient_sanity():
    dataset = synth_generate(
        SynthConfig(4, 4, 30, 1.5, (2.0, 1.0, 1.0, 0.5), rotation_seed=3, sample_seed=5)
    )
    cfg = TrainConfig(steps=50, way=2, shot=2, query_per_class=2, batch_episodes=4,
                      learning_rate=0.05, fd_step=1e-5,
                      filter=FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(1.0)),
                      master_seed=0)
    init = LinearEmbedding.identity(4)
    result = train(dataset, cfg, init, 1.0)
    before = batch_loss(init, 1.0, dataset, cfg, np.random.default_rng(99))
    after = batch_loss(result.embedding, result.zeta, dataset, cfg, np.random.default_rng(99))

    episodes = sample_training_batch(dataset, cfg, np.random.default_rng(123))

    def objective(x):
        emb = LinearEmbedding(x[:16].reshape(4, 4))
        return episodes_loss(episodes, emb, float(x[16]), cfg)

    x0 = np.concatenate([init.weights.ravel(), [1.0]])
    g5 = finite_difference_gradient(objective, x0, 1e-5)
    g6 = finite_difference_gradient(objective, x0, 1e-6)
    rel = float(np.linalg.norm(g5 - g6) / np.linalg.norm(g6))
    _report(10, "trainer descent and finite-difference sanity",
            after < before and rel <= 1e-3,
            f"frozen-batch loss {before:.4f} -> {after:.4f}, grad step agreement {rel:.2e}")


def test_criterion_11_parallel_determinism():
    dataset = synth_generate(SYNTH_PRESETS["reference"])
    tik = FilterSpec(FilterKind.TIKHONOV, RelativeToMaxEigenvalue(0.1))
    serial = evaluate(dataset, EvalConfig(way=5, shot=5, query_per_class=5,
                                          episode_count=1000, filter=tik, workers=1))
    parallel = evaluate(dataset, EvalConfig(way=5, shot=5, query_per_class=5,
                                            episode_count=1000, filter=tik, workers=8))
    ok = (
        serial.per_episode_accuracies == parallel.per_episode_accuracies
        and serial.accuracy_mean == parallel.accuracy_mean
        and serial.ci95_halfwidth == parallel.ci95_halfwidth
        and serial.mean_loss == parallel.mean_loss
    )
    _report(11, "1-worker and 8-worker evaluations are bitwise identical",
            ok, f"accuracy {serial.accuracy_mean:.4f} both ways")
