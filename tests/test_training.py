"""Finite-difference training of the linear embedding and metric scaling."""

import numpy as np
import pytest

from protofilter import (
    AbsoluteLambda,
    ConfigurationError,
    Dataset,
    FilterKind,
    FilterSpec,
    LinearEmbedding,
    SYNTH_PRESETS,
    SynthConfig,
    TrainConfig,
    batch_loss,
    finite_difference_gradient,
    sample_training_batch,
    save_embedding,
    synth_generate,
    train,
)
from protofilter.training import episodes_loss

TIK1 = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(1.0))
ZERO = FilterSpec(FilterKind.ZERO, AbsoluteLambda(0.0))


def small_task():
    return synth_generate(
        SynthConfig(4, 4, 30, 1.5, (2.0, 1.0, 1.0, 0.5), rotation_seed=3, sample_seed=5)
    )


def small_cfg(**overrides):
    base = dict(steps=5, way=2, shot=2, query_per_class=2, batch_episodes=4,
                learning_rate=0.05, fd_step=1e-5, filter=TIK1, master_seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def forced_dataset():
    """Every sampled episode has identical content: two duplicated points
    per class, so the objective is the same function at every step."""
    x = np.array([1.0, 0.5, -0.3, 0.2])
    y = np.array([-1.0, 0.4, 0.8, -0.6])
    return Dataset(np.vstack([x, x, y, y]), ["a", "a", "b", "b"])


class TestLinearEmbedding:
    def test_identity_constructor(self):
        emb = LinearEmbedding.identity(4)
        np.testing.assert_array_equal(emb.weights, np.eye(4))
        assert emb.d_in == 4 and emb.d_out == 4

    def test_rectangular_projection(self):
        emb = LinearEmbedding.identity(4, 2)
        out = emb.apply(np.arange(8.0).reshape(2, 4))
        np.testing.assert_array_equal(out, [[0.0, 1.0], [4.0, 5.0]])

    def test_output_wider_than_input_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearEmbedding(np.zeros((3, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearEmbedding(np.array([[np.inf]]))


class TestBatchLoss:
    def test_zero_map_gives_log_way(self):
        ds = small_task()
        cfg = small_cfg(way=3)
        zero_map = LinearEmbedding(np.zeros((4, 4)))
        loss = batch_loss(zero_map, 1.0, ds, cfg, np.random.default_rng(0))
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)

    def test_separable_data_saturates(self):
        ds = synth_generate(SYNTH_PRESETS["separable"])
        cfg = small_cfg(way=3, filter=ZERO)
        loss = batch_loss(LinearEmbedding.identity(ds.dim), 10.0, ds, cfg, np.random.default_rng(1))
        assert loss < 0.01

    def test_deterministic_for_fixed_stream(self):
        ds = small_task()
        cfg = small_cfg()
        emb = LinearEmbedding.identity(4)
        a = batch_loss(emb, 1.0, ds, cfg, np.random.default_rng(7))
        b = batch_loss(emb, 1.0, ds, cfg, np.random.default_rng(7))
        assert a == b


class TestFiniteDifferenceGradient:
    def test_matches_analytic_quadratic(self):
        a = np.diag([1.0, 2.0, 3.0])
        b = np.array([0.5, -1.0, 2.0])

        def f(x):
            return float(x @ a @ x + b @ x)

        x0 = np.array([0.3, -0.7, 1.1])
        grad = finite_difference_gradient(f, x0, 1e-6)
        np.testing.assert_allclose(grad, 2.0 * a @ x0 + b, atol=1e-7)

    def test_step_sizes_agree_on_episode_objective(self):
        ds = small_task()
        cfg = small_cfg()
        episodes = sample_training_batch(ds, cfg, np.random.default_rng(123))

        def objective(x):
            emb = LinearEmbedding(x[:16].reshape(4, 4))
            return episodes_loss(episodes, emb, float(x[16]), cfg)

        x0 = np.concatenate([np.eye(4).ravel(), [1.0]])
        g5 = finite_difference_gradient(objective, x0, 1e-5)
        g6 = finite_difference_gradient(objective, x0, 1e-6)
        rel = np.linalg.norm(g5 - g6) / np.linalg.norm(g6)
        assert rel <= 1e-3

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ConfigurationError):
            finite_difference_gradient(lambda x: 0.0, np.zeros(2), 0.0)


class TestTrain:
    def test_zero_steps_returns_init(self):
        ds = small_task()
        init = LinearEmbedding.identity(4)
        result = train(ds, small_cfg(steps=0), init, 1.0)
        assert result.loss_history == ()
        assert np.array_equal(result.embedding.weights, init.weights)
        assert result.zeta == 1.0

    def test_descent_on_frozen_evaluation_batch(self):
        ds = small_task()
        cfg = small_cfg(steps=10)
        init = LinearEmbedding.identity(4)
        result = train(ds, cfg, init, 1.0)
        before = batch_loss(init, 1.0, ds, cfg, np.random.default_rng(99))
        after = batch_loss(result.embedding, result.zeta, ds, cfg, np.random.default_rng(99))
        assert after < before

    def test_zeta_only_descent_is_monotone(self):
        cfg = TrainConfig(steps=12, way=2, shot=1, query_per_class=1, batch_episodes=2,
                          learning_rate=0.2, fd_step=1e-5, train_weights=False,
                          filter=ZERO, master_seed=1)
        result = train(forced_dataset(), cfg, LinearEmbedding.identity(4), 0.5)
        history = np.array(result.loss_history)
        assert np.all(np.diff(history) <= 1e-12)
        # separable data: the loss minimizer pushes the scaling upward
        assert result.zeta > 0.5

    def test_deterministic(self):
        ds = small_task()
        cfg = small_cfg(steps=3)
        a = train(ds, cfg, LinearEmbedding.identity(4), 1.0)
        b = train(ds, cfg, LinearEmbedding.identity(4), 1.0)
        assert a.loss_history == b.loss_history
        assert np.array_equal(a.embedding.weights, b.embedding.weights)
        assert a.zeta == b.zeta

    def test_parameter_guard(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((8, 23)), ["a", "a", "a", "a", "b", "b", "b", "b"])
        cfg = small_cfg(steps=1, shot=1, query_per_class=1)
        with pytest.raises(ConfigurationError):
            train(ds, cfg, LinearEmbedding.identity(23), 1.0)  # 23*23 + 1 > 512

    def test_nothing_to_train_rejected(self):
        with pytest.raises(ConfigurationError):
            small_cfg(train_weights=False, train_zeta=False)

    def test_nonpositive_zeta0_rejected(self):
        with pytest.raises(ConfigurationError):
            train(small_task(), small_cfg(steps=1), LinearEmbedding.identity(4), 0.0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_zeta0_and_rate_rejected(self, value):
        with pytest.raises(ConfigurationError, match="initial zeta must be finite"):
            train(small_task(), small_cfg(steps=1), LinearEmbedding.identity(4), value)
        with pytest.raises(ConfigurationError, match="learning_rate must be finite"):
            small_cfg(learning_rate=value)

    def test_negative_steps_rejected(self):
        with pytest.raises(ConfigurationError):
            small_cfg(steps=-1)


class TestSaveEmbedding:
    def test_file_format(self, tmp_path):
        path = tmp_path / "w.csv"
        emb = LinearEmbedding(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        save_embedding(path, emb, 0.75)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "zeta,0.75"
        assert len(lines) == 3
        row = [float(v) for v in lines[1].split(",")]
        assert row == [1.0, 2.0, 3.0]
