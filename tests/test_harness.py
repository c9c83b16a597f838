"""Episodic evaluation, paired comparisons, and sweeps."""

import dataclasses

import numpy as np
import pytest

from protofilter import (
    AbsoluteLambda,
    ConfigurationError,
    DataError,
    EvalConfig,
    FilterKind,
    FilterSpec,
    Jitter,
    KernelKind,
    KernelSpec,
    NumericalError,
    ProtofilterError,
    RelativeToMaxEigenvalue,
    SYNTH_PRESETS,
    SynthConfig,
    build_episode,
    compare_methods,
    evaluate,
    format_table,
    lambda_sweep,
    report_record,
    synth_generate,
)
from protofilter import classifier, harness

ZERO = FilterSpec(FilterKind.ZERO, AbsoluteLambda(0.0))
TIK_REL = FilterSpec(FilterKind.TIKHONOV, RelativeToMaxEigenvalue(0.1))


def small_dataset(seed=0):
    return synth_generate(SynthConfig(8, 4, 24, 2.0, (2.0, 1.0, 1.0, 1.0), seed, seed + 1))


def small_cfg(**overrides):
    base = dict(way=3, shot=3, query_per_class=2, episode_count=40, filter=TIK_REL)
    base.update(overrides)
    return EvalConfig(**base)


class TestEvaluate:
    def test_separable_dataset_is_perfect(self):
        ds = synth_generate(SYNTH_PRESETS["separable"])
        report = evaluate(ds, small_cfg(way=5, episode_count=30))
        assert report.accuracy_mean == 1.0
        assert report.ci95_halfwidth == 0.0

    def test_single_episode_ci_is_zero(self):
        report = evaluate(small_dataset(), small_cfg(episode_count=1))
        assert report.ci95_halfwidth == 0.0
        assert len(report.per_episode_accuracies) == 1

    def test_way_beyond_class_count_errors(self):
        ds = small_dataset()
        with pytest.raises(DataError):
            evaluate(ds, small_cfg(way=9, episode_count=2))

    def test_error_carries_episode_index(self):
        ds = small_dataset()
        with pytest.raises(DataError) as err:
            evaluate(ds, small_cfg(way=9, episode_count=2))
        assert "episode 0" in str(err.value)

    def test_deterministic_across_calls(self):
        ds = small_dataset()
        a = evaluate(ds, small_cfg())
        b = evaluate(ds, small_cfg())
        assert a.per_episode_accuracies == b.per_episode_accuracies
        assert a.accuracy_mean == b.accuracy_mean
        assert a.mean_loss == b.mean_loss

    def test_parallel_equals_serial(self):
        ds = small_dataset()
        serial = evaluate(ds, small_cfg(episode_count=60, workers=1))
        parallel = evaluate(ds, small_cfg(episode_count=60, workers=4))
        assert serial.per_episode_accuracies == parallel.per_episode_accuracies
        assert serial.accuracy_mean == parallel.accuracy_mean
        assert serial.mean_loss == parallel.mean_loss

    def test_ci_formula(self):
        report = evaluate(small_dataset(), small_cfg())
        accs = np.array(report.per_episode_accuracies)
        expected = 1.96 * accs.std(ddof=1) / np.sqrt(len(accs))
        assert report.ci95_halfwidth == pytest.approx(expected, abs=1e-15)
        assert report.accuracy_mean == pytest.approx(accs.mean(), abs=1e-15)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            small_cfg(episode_count=0)
        with pytest.raises(ConfigurationError):
            small_cfg(zeta=0.0)
        with pytest.raises(ConfigurationError):
            small_cfg(workers=0)

    @pytest.mark.parametrize("zeta", [float("inf"), float("nan")])
    def test_non_finite_zeta_rejected(self, zeta):
        with pytest.raises(ConfigurationError, match="finite"):
            small_cfg(zeta=zeta)


class TestEpisodeStreamPairing:
    def test_method_fields_cannot_change_episodes(self):
        ds = small_dataset()
        cfg_a = small_cfg(filter=ZERO)
        cfg_b = small_cfg(filter=TIK_REL, kernel=KernelSpec(KernelKind.RBF, 4.0), zeta=3.0)
        for index in range(10):
            ep_a = build_episode(ds, cfg_a, index)
            ep_b = build_episode(ds, cfg_b, index)
            assert np.array_equal(ep_a.support_indices, ep_b.support_indices)
            assert np.array_equal(ep_a.query_indices, ep_b.query_indices)
            assert ep_a.class_labels == ep_b.class_labels

    def test_identical_methods_get_identical_reports(self):
        ds = small_dataset()
        reports = compare_methods(
            ds,
            small_cfg(),
            [("first", KernelSpec(), ZERO), ("second", KernelSpec(), ZERO)],
        )
        assert reports[0].per_episode_accuracies == reports[1].per_episode_accuracies

    def test_one_shot_streams_are_paired_too(self):
        ds = small_dataset()
        from protofilter import Jitter

        cfg_a = small_cfg(shot=1, one_shot=Jitter(0.05), filter=ZERO)
        cfg_b = small_cfg(shot=1, one_shot=Jitter(0.05), filter=TIK_REL)
        for index in range(5):
            ep_a = build_episode(ds, cfg_a, index)
            ep_b = build_episode(ds, cfg_b, index)
            assert np.array_equal(ep_a.support[0], ep_b.support[0])


class TestCompareMethods:
    def test_empty_method_list_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_methods(small_dataset(), small_cfg(), [])

    def test_duplicate_names_rejected(self):
        methods = [("m", KernelSpec(), ZERO), ("m", KernelSpec(), TIK_REL)]
        with pytest.raises(ConfigurationError):
            compare_methods(small_dataset(), small_cfg(), methods)

    def test_one_report_per_method(self):
        reports = compare_methods(
            small_dataset(),
            small_cfg(episode_count=10),
            [("zero", KernelSpec(), ZERO), ("tik", KernelSpec(), TIK_REL)],
        )
        assert [r.name for r in reports] == ["zero", "tik"]


class TestLambdaSweep:
    def test_one_row_per_value(self):
        reports = lambda_sweep(
            small_dataset(),
            small_cfg(episode_count=10, filter=FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(1.0))),
            [0.01, 0.1, 1.0, 10.0, 100.0],
        )
        assert [r.name for r in reports] == [
            "lambda=0.01", "lambda=0.1", "lambda=1", "lambda=10", "lambda=100",
        ]

    def test_huge_lambda_matches_zero_filter_per_episode(self):
        ds = small_dataset()
        cfg = small_cfg(episode_count=40, filter=FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(1.0)))
        swept = lambda_sweep(ds, cfg, [1e14])[0]
        zero_report = evaluate(ds, small_cfg(episode_count=40, filter=ZERO))
        diffs = np.abs(
            np.array(swept.per_episode_accuracies) - np.array(zero_report.per_episode_accuracies)
        )
        assert diffs.max() == 0.0

    def test_sweep_deterministic(self):
        ds = small_dataset()
        cfg = small_cfg(episode_count=10, filter=FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(1.0)))
        first = lambda_sweep(ds, cfg, [0.1, 1.0])
        second = lambda_sweep(ds, cfg, [0.1, 1.0])
        for a, b in zip(first, second):
            assert a.per_episode_accuracies == b.per_episode_accuracies

    def test_empty_or_negative_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            lambda_sweep(small_dataset(), small_cfg(), [])
        with pytest.raises(ConfigurationError):
            lambda_sweep(small_dataset(), small_cfg(), [-1.0])


# identity and RBF kernels; zero, Tikhonov and tsvd filters; both policies
MIXED_METHODS = (
    ("zero", KernelSpec(), ZERO),
    ("tik_rel", KernelSpec(), TIK_REL),
    ("rbf_tik_abs", KernelSpec(KernelKind.RBF), FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(1.0))),
    ("tsvd_abs", KernelSpec(), FilterSpec(FilterKind.TRUNCATED_SVD, AbsoluteLambda(0.5))),
    ("rbf_tsvd_rel", KernelSpec(KernelKind.RBF, 4.0),
     FilterSpec(FilterKind.TRUNCATED_SVD, RelativeToMaxEigenvalue(0.2))),
    ("rbf_zero", KernelSpec(KernelKind.RBF), ZERO),
)
SHOTS = [dict(shot=3), dict(shot=1), dict(shot=1, one_shot=Jitter(0.1))]


def per_method_loop(ds, base, methods):
    """Each method evaluated on its own, stopping at the first that raises."""
    return [evaluate(ds, dataclasses.replace(base, kernel=kernel, filter=filter_spec), name=name)
            for name, kernel, filter_spec in methods]


def raised(call):
    try:
        call()
    except ProtofilterError as exc:
        return type(exc), str(exc)
    raise AssertionError("expected a ProtofilterError")


class TestOnePass:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("shape", SHOTS)
    def test_compare_equals_per_method_evaluate(self, shape, workers):
        ds = small_dataset()
        base = small_cfg(episode_count=12, workers=workers, zeta=0.7, **shape)
        reports = compare_methods(ds, base, MIXED_METHODS)
        assert reports == per_method_loop(ds, base, MIXED_METHODS)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("shape", SHOTS)
    @pytest.mark.parametrize("kind", list(FilterKind))
    def test_sweep_equals_per_value_evaluate(self, kind, shape, workers):
        ds = small_dataset()
        values = [0.01, 1.0, 100.0]
        base = small_cfg(episode_count=12, workers=workers, kernel=KernelSpec(KernelKind.RBF),
                         filter=FilterSpec(kind, RelativeToMaxEigenvalue(0.1)), **shape)
        methods = [(f"lambda={v:g}", base.kernel, FilterSpec(kind, AbsoluteLambda(v)))
                   for v in values]
        assert lambda_sweep(ds, base, values) == per_method_loop(ds, base, methods)

    def test_each_episode_and_eigensystem_computed_once(self, monkeypatch):
        counts = {"sample": 0, "eig": 0}

        def counted(module, name, key):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(harness, "sample_episode", "sample")
        counted(classifier, "symmetric_eig", "eig")
        ds = small_dataset()
        cfg = small_cfg(episode_count=7, filter=FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(1.0)))
        lambda_sweep(ds, cfg, [0.01, 0.1, 1.0, 10.0, 100.0])
        assert counts == {"sample": 7, "eig": 7 * 3}
        counts.update(sample=0, eig=0)
        # the default RBF bandwidth resolves to the data dimension, 4: two kernels
        compare_methods(ds, cfg, MIXED_METHODS)
        assert counts == {"sample": 7, "eig": 7 * 3 * 2}

    @pytest.mark.parametrize("workers", [1, 3])
    def test_error_is_the_first_failing_method_in_list_order(self, workers):
        ds = small_dataset()
        base = small_cfg(episode_count=40, workers=workers)
        tik0 = ("tik0", KernelSpec(), FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(0.0)))
        rbf_tik0 = ("rbf_tik0", KernelSpec(KernelKind.RBF), tik0[2])
        methods = [MIXED_METHODS[0], tik0, MIXED_METHODS[1], rbf_tik0]
        want = raised(lambda: per_method_loop(ds, base, methods))
        assert want[0] is NumericalError
        assert want[1].startswith("episode 0: class 0 (")
        assert raised(lambda: compare_methods(ds, base, methods)) == want

    @pytest.mark.parametrize("workers", [1, 3])
    def test_earlier_method_failing_later_wins(self, workers):
        # a large zeta underflows the true-class probability of a confidently
        # misclassified query, which depends on the method's distances
        ds = small_dataset()
        base = small_cfg(episode_count=40, zeta=100.0, workers=workers)
        late = ("tik_rel", KernelSpec(), TIK_REL)
        early = ("tik_abs", KernelSpec(), FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(1.0)))
        methods = [MIXED_METHODS[2], late, early]
        want = raised(lambda: per_method_loop(ds, base, methods))
        sooner = raised(lambda: per_method_loop(ds, base, [early]))
        assert want[0] is NumericalError and sooner[0] is NumericalError
        # "episode <i>: ..." -- the later-listed method fails on an earlier episode
        assert int(sooner[1].split(":")[0][8:]) < int(want[1].split(":")[0][8:])
        assert raised(lambda: compare_methods(ds, base, methods)) == want
        sweep_base = dataclasses.replace(base, filter=early[2])
        sweep_methods = [(f"lambda={v:g}", KernelSpec(), FilterSpec(FilterKind.TIKHONOV,
                                                                   AbsoluteLambda(v)))
                         for v in (1e6, 1.0)]
        assert (raised(lambda: lambda_sweep(ds, sweep_base, [1e6, 1.0]))
                == raised(lambda: per_method_loop(ds, sweep_base, sweep_methods)))

    @pytest.mark.parametrize("policy", [AbsoluteLambda(0.0), RelativeToMaxEigenvalue(0.0)])
    @pytest.mark.parametrize("shot", [1, 3])
    def test_tsvd_that_can_only_resolve_lambda_zero_is_rejected(self, policy, shot):
        # way 9 of 8 classes: drawing an episode would be a DataError
        cfg = small_cfg(way=9, shot=shot, filter=FilterSpec(FilterKind.TRUNCATED_SVD, policy))
        with pytest.raises(ConfigurationError, match="method 'eval': truncated-SVD"):
            evaluate(small_dataset(), cfg)
        with pytest.raises(ConfigurationError, match="method 'lambda=0'"):
            lambda_sweep(small_dataset(), cfg, [0.0])
        # a method listed before it that fails on an episode still comes first
        methods = [("zero", KernelSpec(), ZERO), ("tsvd0", KernelSpec(), cfg.filter)]
        with pytest.raises(DataError, match="episode 0"):
            compare_methods(small_dataset(), cfg, methods)


class TestReportRecord:
    def test_exact_key_set(self):
        report = evaluate(small_dataset(), small_cfg(episode_count=3))
        record = report_record(report)
        assert list(record) == [
            "name", "way", "shot", "episodes", "kernel", "filter",
            "lambda_policy", "accuracy_mean", "ci95", "mean_loss", "seed",
        ]
        assert record["kernel"] == "identity"
        assert record["filter"] == "tikhonov"
        assert record["lambda_policy"] == "relative=0.1"
        assert record["episodes"] == 3
        assert record["seed"] == 0

    def test_table_includes_every_method(self):
        reports = compare_methods(
            small_dataset(),
            small_cfg(episode_count=3),
            [("zero", KernelSpec(), ZERO), ("tik", KernelSpec(), TIK_REL)],
        )
        table = format_table(reports)
        assert "zero" in table and "tik" in table
        assert table.splitlines()[0].startswith("name")


class TestOneShotEvaluation:
    def test_jitter_augmentation_runs_end_to_end(self):
        ds = small_dataset()
        from protofilter import Jitter

        report = evaluate(ds, small_cfg(shot=1, one_shot=Jitter(0.05), episode_count=10))
        assert 0.0 <= report.accuracy_mean <= 1.0

    def test_policy_ignored_for_multi_shot(self):
        ds = small_dataset()
        from protofilter import Jitter

        with_policy = evaluate(ds, small_cfg(one_shot=Jitter(0.05), episode_count=10))
        without = evaluate(ds, small_cfg(episode_count=10))
        assert with_policy.per_episode_accuracies == without.per_episode_accuracies


class TestConfigEcho:
    def test_echo_reflects_resolved_kernel(self):
        ds = small_dataset()
        cfg = small_cfg(kernel=KernelSpec(KernelKind.RBF), episode_count=2)
        report = evaluate(ds, cfg)
        assert report.config_echo["kernel"] == "rbf"
        assert report.config_echo["bandwidth_sq"] == ds.dim

    def test_config_is_frozen(self):
        cfg = small_cfg()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.way = 7
