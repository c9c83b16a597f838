"""Dataset model, CSV loading, synthetic generation, episode sampling,
and one-shot augmentation."""

import numpy as np
import pytest

from protofilter import (
    ConfigurationError,
    DataError,
    Dataset,
    Episode,
    Jitter,
    SYNTH_PRESETS,
    SynthConfig,
    apply_one_shot_policy,
    augment_one_shot,
    center_support,
    gram_support,
    load_csv,
    sample_episode,
    save_csv,
    synth_generate,
)
from conftest import IDENTITY


class TestLoadCsv:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,1,2\nb,3,4\n")
        ds = load_csv(path)
        assert len(ds) == 2
        assert ds.dim == 2
        assert ds.labels == ("a", "b")
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f1,f2\na,1,2\n")
        ds = load_csv(path)
        assert len(ds) == 1

    def test_non_numeric_names_line_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,1,x\n")
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert "line 1" in str(err.value)
        assert "column 3" in str(err.value)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,1,2\nb,3\n")
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert "line 2" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f1\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "nope.csv")

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,1,nan\nb,1,2\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_round_trip_through_save(self, tmp_path):
        ds = synth_generate(SynthConfig(3, 4, 5, 1.0, (1.0,) * 4, 1, 2))
        path = tmp_path / "round.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        assert loaded.labels == ds.labels
        np.testing.assert_allclose(loaded.features, ds.features, rtol=0, atol=0)


class TestSynthGenerate:
    def test_deterministic_for_fixed_seeds(self):
        cfg = SynthConfig(4, 3, 6, 2.0, (1.0, 2.0, 0.5), rotation_seed=9, sample_seed=4)
        a = synth_generate(cfg)
        b = synth_generate(cfg)
        assert np.array_equal(a.features, b.features)
        assert a.labels == b.labels

    def test_sample_count(self):
        ds = synth_generate(SynthConfig(5, 2, 2, 1.0, (1.0, 1.0)))
        assert len(ds) == 10
        assert len(ds.classes) == 5

    def test_means_on_requested_sphere(self):
        cfg = SynthConfig(6, 4, 4000, 50.0, (1.0,) * 4, rotation_seed=2, sample_seed=3)
        ds = synth_generate(cfg)
        for label in ds.classes:
            block = ds.features[ds.class_indices(label)]
            radius = np.linalg.norm(block.mean(axis=0))
            assert radius == pytest.approx(50.0, abs=0.5)

    def test_isotropic_limit(self):
        cfg = SynthConfig(1, 3, 6000, 0.0, (2.0, 2.0, 2.0), rotation_seed=5, sample_seed=6)
        ds = synth_generate(cfg)
        cov = np.cov(ds.features.T)
        values = np.linalg.eigvalsh(cov)
        assert values.max() / values.min() < 1.3

    def test_shared_anisotropy_direction(self):
        # the dominant covariance axis is the same rotated axis in every class
        cfg = SynthConfig(3, 4, 4000, 1.0, (5.0, 1.0, 1.0, 1.0), rotation_seed=8, sample_seed=9)
        ds = synth_generate(cfg)
        axes = []
        for label in ds.classes:
            block = ds.features[ds.class_indices(label)]
            cov = np.cov(block.T)
            _, vectors = np.linalg.eigh(cov)
            axes.append(vectors[:, -1])
        for other in axes[1:]:
            assert abs(float(axes[0] @ other)) > 0.99

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthConfig(0, 2, 4, 1.0, (1.0, 1.0))
        with pytest.raises(ConfigurationError):
            SynthConfig(2, 2, 1, 1.0, (1.0, 1.0))
        with pytest.raises(ConfigurationError):
            SynthConfig(2, 2, 4, 1.0, (1.0,))
        with pytest.raises(ConfigurationError):
            SynthConfig(2, 2, 4, 1.0, (1.0, -1.0))

    @pytest.mark.parametrize("fields, message", [
        ({"class_count": 3.5}, "class_count must be an integer"),
        ({"dim": 2.0}, "dim must be an integer"),
        ({"per_class_count": True}, "per_class_count must be an integer"),
        ({"rotation_seed": "1"}, "rotation_seed must be an integer"),
        ({"sample_seed": 1.5}, "sample_seed must be an integer"),
        ({"anisotropy": ("x", 1.0)}, "anisotropy entries must be numbers"),
        ({"anisotropy": (None, 1.0)}, "anisotropy entries must be numbers"),
    ])
    def test_non_integer_counts_and_non_numeric_anisotropy_rejected(self, fields, message):
        base = dict(class_count=2, dim=2, per_class_count=4, mean_scale=1.0,
                    anisotropy=(1.0, 1.0))
        with pytest.raises(ConfigurationError, match=message):
            SynthConfig(**{**base, **fields})
        # numpy scalars are numbers
        SynthConfig(np.int64(2), 2, 4, 1.0, (np.float32(1.0), 1))

    def test_reference_preset_shape(self):
        cfg = SYNTH_PRESETS["reference"]
        assert (cfg.class_count, cfg.dim, cfg.per_class_count) == (20, 16, 200)
        assert cfg.anisotropy[:2] == (4.0, 4.0)
        assert (cfg.rotation_seed, cfg.sample_seed) == (7, 11)


class TestSampleEpisode:
    def _dataset(self, classes=10, per_class=20, dim=3, seed=0):
        return synth_generate(SynthConfig(classes, dim, per_class, 1.0, (1.0,) * dim, seed, seed + 1))

    def test_counts(self):
        ds = self._dataset()
        ep = sample_episode(ds, 5, 5, 10, np.random.default_rng(1))
        assert ep.way == 5 and ep.shot == 5 and ep.query_count_per_class == 10
        assert sum(s.shape[0] for s in ep.support) == 25
        assert ep.query_features.shape == (50, 3)

    def test_forced_exhaustive_split(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), ["a", "a", "b", "b"])
        ep = sample_episode(ds, 2, 1, 1, np.random.default_rng(2))
        used = {i for cls in ep.support_indices for i in cls} | set(ep.query_indices)
        assert used == {0, 1, 2, 3}

    def test_deterministic_for_same_stream(self):
        ds = self._dataset()
        a = sample_episode(ds, 4, 3, 2, np.random.default_rng(33))
        b = sample_episode(ds, 4, 3, 2, np.random.default_rng(33))
        assert a.class_labels == b.class_labels
        assert a.support_indices == b.support_indices
        assert a.query_indices == b.query_indices
        assert np.array_equal(a.query_features, b.query_features)

    def test_insufficient_classes_names_deficit(self):
        ds = self._dataset(classes=3)
        with pytest.raises(DataError) as err:
            sample_episode(ds, 5, 1, 1, np.random.default_rng(0))
        assert "3" in str(err.value) and "5" in str(err.value)

    def test_insufficient_members_names_deficit(self):
        ds = self._dataset(per_class=4)
        with pytest.raises(DataError) as err:
            sample_episode(ds, 2, 3, 2, np.random.default_rng(0))
        assert "4" in str(err.value) and "5" in str(err.value)

    def test_support_query_disjoint(self):
        ds = self._dataset()
        rng = np.random.default_rng(3)
        for _ in range(200):
            ep = sample_episode(ds, 3, 2, 2, rng)
            support = {i for cls in ep.support_indices for i in cls}
            assert not support & set(ep.query_indices)

    def test_class_sampling_uniform(self):
        ds = self._dataset(classes=10, per_class=6)
        rng = np.random.default_rng(4)
        counts = {label: 0 for label in ds.classes}
        episodes = 10_000
        for _ in range(episodes):
            ep = sample_episode(ds, 5, 2, 1, rng)
            for label in ep.class_labels:
                counts[label] += 1
        for label, count in counts.items():
            assert abs(count / episodes - 0.5) < 0.02, label

    def test_bad_shapes_rejected(self):
        ds = self._dataset()
        with pytest.raises(ConfigurationError):
            sample_episode(ds, 1, 1, 1, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            sample_episode(ds, 2, 0, 1, np.random.default_rng(0))


class TestAugmentOneShot:
    def test_none_policy_is_identity(self):
        vec = np.array([[1.0, -2.0, 0.5]])
        out = augment_one_shot(vec, None, np.random.default_rng(0))
        np.testing.assert_array_equal(out, vec)
        assert out.shape == (1, 3)

    def test_zero_sigma_duplicates_and_centers_to_zero(self):
        vec = np.array([[1.0, 2.0]])
        out = augment_one_shot(vec, Jitter(0.0), np.random.default_rng(0))
        np.testing.assert_array_equal(out[0], out[1])
        centered = center_support(gram_support(IDENTITY, out))
        np.testing.assert_allclose(centered, np.zeros((2, 2)), atol=1e-12)

    def test_deterministic_for_same_stream(self):
        vec = np.array([[1.0, 2.0, 3.0]])
        a = augment_one_shot(vec, Jitter(0.1), np.random.default_rng(17))
        b = augment_one_shot(vec, Jitter(0.1), np.random.default_rng(17))
        assert np.array_equal(a, b)

    def test_derived_sigma_scales_with_magnitude(self):
        small = augment_one_shot(np.array([[0.1, 0.1]]), Jitter(), np.random.default_rng(9))
        large = augment_one_shot(np.array([[100.0, 100.0]]), Jitter(), np.random.default_rng(9))
        small_gap = np.linalg.norm(small[1] - small[0])
        large_gap = np.linalg.norm(large[1] - large[0])
        assert large_gap == pytest.approx(1000.0 * small_gap, rel=1e-9)

    def test_multi_shot_rejected(self):
        with pytest.raises(ConfigurationError):
            augment_one_shot(np.zeros((2, 3)), Jitter(0.1), np.random.default_rng(0))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            Jitter(-0.1)

    def test_apply_policy_builds_two_shot_episode(self):
        ds = synth_generate(SynthConfig(4, 3, 5, 1.0, (1.0,) * 3, 0, 1))
        ep = sample_episode(ds, 3, 1, 2, np.random.default_rng(6))
        augmented = apply_one_shot_policy(ep, Jitter(0.05), np.random.default_rng(7))
        assert augmented.shot == 2
        assert all(idx[-1] == -1 for idx in augmented.support_indices)
        assert np.array_equal(augmented.query_features, ep.query_features)

    def test_apply_policy_on_multi_shot_rejected(self):
        ds = synth_generate(SynthConfig(4, 3, 6, 1.0, (1.0,) * 3, 0, 1))
        ep = sample_episode(ds, 3, 2, 2, np.random.default_rng(6))
        with pytest.raises(ConfigurationError):
            apply_one_shot_policy(ep, Jitter(0.05), np.random.default_rng(7))


class TestEpisodeValidation:
    def test_needs_two_classes(self):
        with pytest.raises(DataError):
            Episode(
                class_labels=("a",),
                support=(np.zeros((1, 2)),),
                support_indices=((0,),),
                query_features=np.zeros((1, 2)),
                query_labels=np.array([0]),
                query_indices=(1,),
            )

    def test_rejects_support_query_overlap(self):
        with pytest.raises(DataError):
            Episode(
                class_labels=("a", "b"),
                support=(np.zeros((1, 2)), np.ones((1, 2))),
                support_indices=((0,), (1,)),
                query_features=np.zeros((1, 2)),
                query_labels=np.array([0]),
                query_indices=(0,),
            )

    def test_rejects_uneven_support_counts(self):
        with pytest.raises(DataError):
            Episode(
                class_labels=("a", "b"),
                support=(np.zeros((1, 2)), np.ones((2, 2))),
                support_indices=((0,), (1, 2)),
                query_features=np.zeros((1, 2)),
                query_labels=np.array([0]),
                query_indices=(3,),
            )

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(DataError):
            Episode(
                class_labels=("a", "b"),
                support=(np.zeros((1, 2)), np.ones((1, 2))),
                support_indices=((0,), (1,)),
                query_features=np.zeros((1, 2)),
                query_labels=np.array([2]),
                query_indices=(2,),
            )


class TestDataset:
    def test_classes_sorted(self):
        ds = Dataset(np.zeros((3, 1)), ["b", "a", "b"])
        assert ds.classes == ("a", "b")
        np.testing.assert_array_equal(ds.class_indices("b"), [0, 2])

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.array([[np.nan]]), ["a"])

    def test_features_read_only(self):
        ds = Dataset(np.ones((2, 2)), ["a", "b"])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0
