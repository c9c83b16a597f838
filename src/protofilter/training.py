"""Episodic training of a small linear embedding map and the metric
scaling by central finite differences.

Each training step freezes one batch of episodes so all perturbed
evaluations within the step see the same deterministic objective; a
fresh batch is drawn per step from a counter-keyed stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifier import classify_episode
from .data import Dataset, Episode, Jitter, apply_one_shot_policy, sample_episode
from .errors import ConfigurationError, NumericalError
from .kernels import KernelSpec, resolve_kernel
from .spectral import AbsoluteLambda, FilterKind, FilterSpec, _check_method

_TRAIN_DOMAIN = 1
_MAX_PARAMS = 512
_MAX_HALVINGS = 10


@dataclass(frozen=True)
class LinearEmbedding:
    """Trainable linear map applied to raw features before classification."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ConfigurationError(f"weights must be a 2-D matrix, got shape {w.shape}")
        if w.shape[0] > w.shape[1]:
            raise ConfigurationError(
                f"output dimension {w.shape[0]} exceeds input dimension {w.shape[1]}"
            )
        if not np.all(np.isfinite(w)):
            raise ConfigurationError("weights must all be finite")
        object.__setattr__(self, "weights", w)

    @classmethod
    def identity(cls, d_in: int, d_out: int | None = None) -> "LinearEmbedding":
        d_out = d_in if d_out is None else d_out
        return cls(np.eye(d_out, d_in))

    @property
    def d_in(self) -> int:
        return int(self.weights.shape[1])

    @property
    def d_out(self) -> int:
        return int(self.weights.shape[0])

    def apply(self, features) -> np.ndarray:
        return np.asarray(features, dtype=np.float64) @ self.weights.T


@dataclass(frozen=True)
class TrainConfig:
    """Episode shape plus finite-difference training protocol."""

    steps: int
    way: int = 2
    shot: int = 2
    query_per_class: int = 2
    batch_episodes: int = 8
    learning_rate: float = 0.05
    fd_step: float = 1e-5
    train_weights: bool = True
    train_zeta: bool = True
    kernel: KernelSpec = KernelSpec()
    filter: FilterSpec = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(1.0))
    one_shot: Jitter | None = None
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ConfigurationError(f"steps must be >= 0, got {self.steps}")
        if self.way < 2:
            raise ConfigurationError(f"way must be >= 2, got {self.way}")
        if self.shot < 1 or self.query_per_class < 1:
            raise ConfigurationError("shot and query_per_class must be >= 1")
        if self.batch_episodes < 1:
            raise ConfigurationError(f"batch_episodes must be >= 1, got {self.batch_episodes}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if not self.fd_step > 0:
            raise ConfigurationError(f"fd_step must be positive, got {self.fd_step}")
        if not (self.train_weights or self.train_zeta):
            raise ConfigurationError("nothing to train: enable train_weights or train_zeta")
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class TrainResult:
    embedding: LinearEmbedding
    zeta: float
    loss_history: tuple[float, ...]


def finite_difference_gradient(fn, x, step: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    if not step > 0:
        raise ConfigurationError(f"finite-difference step must be positive, got {step}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for j in range(x.shape[0]):
        bumped = x.copy()
        bumped[j] = x[j] + step
        high = fn(bumped)
        bumped[j] = x[j] - step
        low = fn(bumped)
        grad[j] = (high - low) / (2.0 * step)
    return grad


def sample_training_batch(dataset: Dataset, cfg: TrainConfig,
                          rng: np.random.Generator) -> list[Episode]:
    """Draw ``batch_episodes`` raw-feature episodes from one stream."""
    episodes = []
    for _ in range(cfg.batch_episodes):
        episode = sample_episode(dataset, cfg.way, cfg.shot, cfg.query_per_class, rng)
        if cfg.one_shot is not None and cfg.shot == 1:
            episode = apply_one_shot_policy(episode, cfg.one_shot, rng)
        episodes.append(episode)
    return episodes


def _embed_episode(episode: Episode, embedding: LinearEmbedding) -> Episode:
    return Episode(
        class_labels=episode.class_labels,
        support=tuple(embedding.apply(s) for s in episode.support),
        support_indices=episode.support_indices,
        query_features=embedding.apply(episode.query_features),
        query_labels=episode.query_labels,
        query_indices=episode.query_indices,
    )


def episodes_loss(episodes, embedding: LinearEmbedding, zeta: float,
                  cfg: TrainConfig) -> float:
    """Mean episode loss over a fixed list of raw-feature episodes with
    features mapped through the embedding."""
    if not episodes:
        raise ConfigurationError("episode list is empty")
    kernel = resolve_kernel(cfg.kernel, embedding.d_out)
    total = 0.0
    for episode in episodes:
        total += classify_episode(_embed_episode(episode, embedding), kernel,
                                  cfg.filter, zeta).loss
    return total / len(episodes)


def batch_loss(embedding: LinearEmbedding, zeta: float, dataset: Dataset,
               cfg: TrainConfig, rng: np.random.Generator) -> float:
    """Mean episode loss over ``batch_episodes`` freshly sampled episodes."""
    return episodes_loss(sample_training_batch(dataset, cfg, rng), embedding, zeta, cfg)


def _pack(weights: np.ndarray, zeta: float, cfg: TrainConfig) -> np.ndarray:
    parts = []
    if cfg.train_weights:
        parts.append(weights.ravel())
    if cfg.train_zeta:
        parts.append(np.array([zeta]))
    return np.concatenate(parts)


def _unpack(params: np.ndarray, weights: np.ndarray, zeta: float,
            cfg: TrainConfig) -> tuple[np.ndarray, float]:
    offset = 0
    out_w = weights
    out_z = zeta
    if cfg.train_weights:
        size = weights.size
        out_w = params[:size].reshape(weights.shape)
        offset = size
    if cfg.train_zeta:
        out_z = float(params[offset])
    return out_w, out_z


def train(dataset: Dataset, cfg: TrainConfig, init: LinearEmbedding,
          zeta0: float = 1.0) -> TrainResult:
    """Minimize the mean episode loss over (weights, zeta) by central
    finite differences.

    Per step: freeze one batch, record its loss, estimate the gradient
    with step ``fd_step``, and apply a descent update.  An update that
    raises the frozen-batch loss (or produces a non-finite value or a
    nonpositive zeta) halves the learning rate for that step, up to 10
    times, before erroring.  Returns the history of pre-step losses.  A
    truncated-SVD filter whose policy can only resolve lambda = 0 is a
    ConfigurationError, raised before any batch is drawn.
    """
    if not (math.isfinite(zeta0) and zeta0 > 0):
        raise ConfigurationError(f"initial zeta must be finite and positive, got {zeta0}")
    _check_method("train", cfg.filter)
    n_params = init.d_out * init.d_in + 1
    if n_params > _MAX_PARAMS:
        raise ConfigurationError(
            f"{n_params} parameters exceed the finite-difference guard of {_MAX_PARAMS}"
        )
    weights = init.weights.copy()
    zeta = float(zeta0)
    history: list[float] = []
    for step in range(cfg.steps):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(_TRAIN_DOMAIN, step))
        )
        episodes = sample_training_batch(dataset, cfg, rng)
        frozen_w = weights
        frozen_z = zeta

        def objective(params: np.ndarray) -> float:
            w, z = _unpack(params, frozen_w, frozen_z, cfg)
            if not z > 0:
                raise ConfigurationError(f"metric scaling became nonpositive ({z})")
            return episodes_loss(episodes, LinearEmbedding(w), z, cfg)

        x0 = _pack(weights, zeta, cfg)
        loss0 = objective(x0)
        if not np.isfinite(loss0):
            raise NumericalError(f"step {step}: non-finite frozen-batch loss {loss0}")
        history.append(loss0)
        gradient = finite_difference_gradient(objective, x0, cfg.fd_step)
        if not np.all(np.isfinite(gradient)):
            raise NumericalError(f"step {step}: non-finite finite-difference gradient")
        rate = cfg.learning_rate
        accepted = None
        for _ in range(_MAX_HALVINGS + 1):
            candidate = x0 - rate * gradient
            try:
                cand_loss = objective(candidate)
            except ConfigurationError:
                cand_loss = float("inf")
            if np.isfinite(cand_loss) and cand_loss <= loss0:
                accepted = candidate
                break
            rate *= 0.5
        if accepted is None:
            raise NumericalError(
                f"step {step}: frozen-batch loss failed to decrease after "
                f"{_MAX_HALVINGS} learning-rate halvings"
            )
        weights, zeta = _unpack(accepted, weights, zeta, cfg)
        weights = weights.copy()
    return TrainResult(LinearEmbedding(weights), zeta, tuple(history))


def save_embedding(path, embedding: LinearEmbedding, zeta: float) -> None:
    """Write the learned map as CSV: a ``zeta,<value>`` line, then one
    comma-separated row per output dimension."""
    lines = [f"zeta,{zeta:.17g}"]
    for row in embedding.weights:
        lines.append(",".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
