"""Plain-numpy recomputation of protofilter outputs, for the benchmark's
output check.

Nothing here calls into the library's numerics.  Episodes are re-drawn
from the documented stream layout (a counter-keyed ``SeedSequence`` split
per episode or per training step, then uniform sampling without
replacement), and distances are recomputed independently: explicit
features and ``np.linalg.eigh`` of the support covariance for the
identity kernel, and ``np.linalg.eigh`` of the centered support Gram for
the RBF kernel.  Only the Tikhonov filter h = 1 / (gamma + lambda) is
needed by the workloads.  Training gradients are recomputed by central
differences of the recomputed loss.
"""

from __future__ import annotations

import numpy as np

# Stream domains of the library's seed split: evaluation episodes are
# keyed (0, episode index), training batches (1, step).
EPISODE_DOMAIN = 0
TRAIN_DOMAIN = 1

# Eigenvalues at or below this share of the largest are treated as the
# null space, whose filtered component is zero for every query.
NULL_SHARE = 1e-12


class Pool:
    """Dataset rows grouped by class, in the library's sorted class order."""

    def __init__(self, features: np.ndarray, labels) -> None:
        self.features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels)
        self.members = [np.flatnonzero(labels == c) for c in sorted(set(labels.tolist()))]


def sample(pool: Pool, way: int, shot: int, query: int, rng: np.random.Generator):
    """One episode: per-class support arrays, stacked queries, dense labels."""
    chosen = rng.choice(len(pool.members), size=way, replace=False)
    supports, queries = [], []
    for class_pos in chosen:
        members = pool.members[int(class_pos)]
        rows = members[rng.choice(members.shape[0], size=shot + query, replace=False)]
        supports.append(pool.features[rows[:shot]])
        queries.append(pool.features[rows[shot:]])
    labels = np.repeat(np.arange(way), query)
    return supports, np.vstack(queries), labels


def eval_episode(pool: Pool, master_seed: int, index: int, way: int, shot: int, query: int):
    root = np.random.SeedSequence(entropy=master_seed, spawn_key=(EPISODE_DOMAIN, index))
    sampling, _ = root.spawn(2)
    return sample(pool, way, shot, query, np.random.default_rng(sampling))


def train_batch(pool: Pool, master_seed: int, step: int, batch: int,
                way: int, shot: int, query: int):
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(TRAIN_DOMAIN, step))
    )
    return [sample(pool, way, shot, query, rng) for _ in range(batch)]


def _lambda(values: np.ndarray, absolute: float | None, relative: float | None) -> float:
    return float(absolute) if absolute is not None else float(relative) * float(values.max())


def identity_distances(support: np.ndarray, queries: np.ndarray,
                       absolute: float | None = None, relative: float | None = None) -> np.ndarray:
    """Tikhonov-filtered squared distances of every query to one class,
    on explicit features."""
    mean = support.mean(axis=0)
    centered = support - mean
    values, vectors = np.linalg.eigh(centered.T @ centered)
    lam = _lambda(values, absolute, relative)
    keep = values > NULL_SHARE * max(float(values.max()), 0.0)
    gamma, basis = values[keep], vectors[:, keep]
    rel = queries - mean
    residual = rel - ((rel @ basis) * (gamma / (gamma + lam))) @ basis.T
    return np.einsum("ij,ij->i", residual, residual)


def rbf_distances(support: np.ndarray, queries: np.ndarray, bandwidth_sq: float,
                  absolute: float | None = None, relative: float | None = None) -> np.ndarray:
    """Tikhonov-filtered squared distances of every query to one class,
    in the Gram domain of the RBF kernel."""

    def gram(x, y):
        sq = (x * x).sum(1)[:, None] + (y * y).sum(1)[None, :] - 2.0 * x @ y.T
        return np.exp(-np.maximum(sq, 0.0) / (2.0 * bandwidth_sq))

    k = gram(support, support)
    kappa = gram(queries, support)
    row, grand = k.mean(axis=1), k.mean()
    ktilde = k - row[:, None] - row[None, :] + grand
    cross = kappa - kappa.mean(axis=1, keepdims=True) - row[None, :] + grand
    query_norm = 1.0 + grand - 2.0 * kappa.mean(axis=1)
    values, vectors = np.linalg.eigh(ktilde)
    lam = _lambda(values, absolute, relative)
    keep = values > NULL_SHARE * max(float(values.max()), 0.0)
    basis = vectors[:, keep]
    filt = (basis / (values[keep] + lam)) @ basis.T
    a = cross @ filt
    return np.einsum("ij,ij->i", a @ ktilde, a) + query_norm - 2.0 * np.einsum("ij,ij->i", a, cross)


def central_difference(fn, x: np.ndarray, step: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    grad = np.empty_like(x)
    for j in range(x.shape[0]):
        bump = np.zeros_like(x)
        bump[j] = step
        grad[j] = (fn(x + bump) - fn(x - bump)) / (2.0 * step)
    return grad


def score(dists: np.ndarray, labels: np.ndarray, zeta: float = 1.0) -> tuple[float, float]:
    """(accuracy, loss) of one episode from its (queries x classes) distances."""
    logits = -zeta * dists
    logits -= logits.max(axis=1, keepdims=True)
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    accuracy = float(np.mean(dists.argmin(axis=1) == labels))
    loss = float(-np.mean(log_probs[np.arange(labels.shape[0]), labels]))
    return accuracy, loss
