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

from .classifier import score_filters
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
        if d_in < 1 or d_out < 1:
            raise ConfigurationError(f"embedding dimensions must be >= 1, got {d_out} x {d_in}")
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
        if not (math.isfinite(self.fd_step) and self.fd_step > 0):
            raise ConfigurationError(f"fd_step must be finite and positive, got {self.fd_step}")
        if not (self.train_weights or self.train_zeta):
            raise ConfigurationError("nothing to train: enable train_weights or train_zeta")
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class TrainResult:
    embedding: LinearEmbedding
    zeta: float
    loss_history: tuple[float, ...]


def _perturbations(x: np.ndarray, step: float) -> np.ndarray:
    """The (2P, P) stack x + step e_0, x - step e_0, x + step e_1, ..."""
    j = np.arange(x.shape[0])
    stack = np.tile(x, (2 * j.size, 1))
    stack[2 * j, j] = x + step
    stack[2 * j + 1, j] = x - step
    return stack


def _central_differences(values: np.ndarray, step: float) -> np.ndarray:
    """Gradient from the values of :func:`_perturbations`' rows."""
    return (values[0::2] - values[1::2]) / (2.0 * step)


def finite_difference_gradient(fn, x, step: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector:
    ``fn`` is called on x + step e_0, x - step e_0, x + step e_1, ... in
    that order, the rows :func:`train` scores as one stack."""
    if not (math.isfinite(step) and step > 0):
        raise ConfigurationError(f"finite-difference step must be finite and positive, got {step}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ConfigurationError(
            f"finite differences need a nonempty 1-D parameter vector, got shape {x.shape}"
        )
    values = np.array([fn(row) for row in _perturbations(x, step)], dtype=np.float64)
    return _central_differences(values, step)


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


def _stacked_loss(episodes, weights: np.ndarray, zetas: np.ndarray,
                  cfg: TrainConfig) -> np.ndarray:
    """Mean episode loss of each of K (weights, zeta) rows, given as
    (K, d_out, d_in) and (K,) stacks, over a fixed list of raw-feature
    episodes: each episode is embedded for every row by one broadcast
    matmul and scored once."""
    kernel = resolve_kernel(cfg.kernel, weights.shape[-2])
    maps = np.swapaxes(weights, -1, -2)
    total = np.zeros(len(zetas))
    for episode in episodes:
        support = episode.support @ maps[:, None]
        queries = episode.query_features @ maps
        total += score_filters(support, queries, episode.query_labels, episode.class_labels,
                               kernel, [cfg.filter], zetas)[0].loss
    return total / len(episodes)


def episodes_loss(episodes, embedding: LinearEmbedding, zeta: float,
                  cfg: TrainConfig) -> float:
    """Mean episode loss over a fixed list of raw-feature episodes with
    features mapped through the embedding."""
    if not episodes:
        raise ConfigurationError("episode list is empty")
    return float(_stacked_loss(episodes, embedding.weights[None], np.array([zeta]), cfg)[0])


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
            cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """(K, P) parameter rows as (K, d_out, d_in) weights and (K,) zetas;
    the part that is not trained stays at ``weights`` or ``zeta``."""
    rows = params.shape[0]
    out_w = np.broadcast_to(weights, (rows, *weights.shape))
    out_z = np.full(rows, zeta)
    offset = 0
    if cfg.train_weights:
        size = weights.size
        out_w = params[:, :size].reshape(out_w.shape)
        offset = size
    if cfg.train_zeta:
        out_z = params[:, offset]
    return out_w, out_z


def _params_loss(episodes, params: np.ndarray, weights: np.ndarray, zeta: float,
                 cfg: TrainConfig) -> np.ndarray:
    """Frozen-batch loss of each (K, P) parameter row.  A row with a
    nonpositive zeta or non-finite weights is a ConfigurationError."""
    out_w, out_z = _unpack(params, weights, zeta, cfg)
    bad_z = ~(out_z > 0)
    bad = np.flatnonzero(bad_z | ~np.isfinite(out_w).all(axis=(-2, -1)))
    if bad.size:
        row = bad[0]
        if bad_z[row]:
            raise ConfigurationError(f"metric scaling became nonpositive ({float(out_z[row])})")
        raise ConfigurationError("weights must all be finite")
    return _stacked_loss(episodes, out_w, out_z, cfg)


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
        x0 = _pack(weights, zeta, cfg)
        loss0 = float(_params_loss(episodes, x0[None], weights, zeta, cfg)[0])
        if not np.isfinite(loss0):
            raise NumericalError(f"step {step}: non-finite frozen-batch loss {loss0}")
        history.append(loss0)
        # every perturbation of the frozen batch in one stacked evaluation
        stack = _perturbations(x0, cfg.fd_step)
        gradient = _central_differences(_params_loss(episodes, stack, weights, zeta, cfg),
                                        cfg.fd_step)
        if not np.all(np.isfinite(gradient)):
            raise NumericalError(f"step {step}: non-finite finite-difference gradient")
        rate = cfg.learning_rate
        accepted = None
        for _ in range(_MAX_HALVINGS + 1):
            candidate = x0 - rate * gradient
            try:
                cand_loss = float(_params_loss(episodes, candidate[None], weights, zeta, cfg)[0])
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
        new_w, new_z = _unpack(accepted[None], weights, zeta, cfg)
        weights, zeta = new_w[0].copy(), float(new_z[0])
    return TrainResult(LinearEmbedding(weights), zeta, tuple(history))


def save_embedding(path, embedding: LinearEmbedding, zeta: float) -> None:
    """Write the learned map as CSV: a ``zeta,<value>`` line, then one
    comma-separated row per output dimension."""
    lines = [f"zeta,{zeta:.17g}"]
    for row in embedding.weights:
        lines.append(",".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
