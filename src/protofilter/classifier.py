"""Filtered relative-prototype distances, class probabilities, and episode
classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centering import _clamp_negative, center_cross, center_support, centered_query_norm
from .errors import (
    ConfigurationError,
    DataError,
    DimensionMismatchError,
    NumericalError,
    ProtofilterError,
)
from .kernels import KernelSpec, gram_query, gram_support, resolve_kernel
from .spectral import FilterSpec, filter_matrix, resolve_lambda, symmetric_eig

#: Squared distances below -DISTANCE_TOL are an error; within it they clamp to 0.
DISTANCE_TOL = 1e-9


@dataclass(frozen=True)
class EpisodeResult:
    """Per-query squared distances and class probabilities (both m x C),
    argmin-distance predictions, and the mean episode loss."""

    dist_sq: np.ndarray
    probs: np.ndarray
    predicted: np.ndarray
    loss: float


def _with_context(exc: ProtofilterError, context: str) -> ProtofilterError:
    exc.args = (f"{context}: {exc}",)
    return exc


def shrinkage_coefficients(filter_mat, cross) -> np.ndarray:
    """Expansion coefficients of the removed component over the centered
    support features: the filter matrix applied to the cross vector (B G
    for a block of cross rows, as G is symmetric)."""
    g = np.asarray(filter_mat, dtype=np.float64)
    b = np.asarray(cross, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DataError(f"filter matrix must be square, got shape {g.shape}")
    if b.ndim not in (1, 2) or b.shape[-1] != g.shape[0]:
        raise DimensionMismatchError(g.shape[0], b.shape[-1] if b.ndim else -1, "cross vector")
    return b @ g


def distance_sq(coefficients, ktilde_ss, cross, query_norm) -> float | np.ndarray:
    """Squared norm of the filtered relative prototype.

    a^T Kt a + q_norm - 2 a^T b, per row of a block.  Values in
    (-DISTANCE_TOL, 0) clamp to zero; more negative ones raise.
    """
    a = np.asarray(coefficients, dtype=np.float64)
    k = np.asarray(ktilde_ss, dtype=np.float64)
    b = np.asarray(cross, dtype=np.float64)
    qn = np.asarray(query_norm, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise DataError(f"centered Gram must be square, got shape {k.shape}")
    if a.ndim not in (1, 2) or a.shape[-1] != k.shape[0] or b.shape != a.shape:
        raise DataError(
            f"coefficients {a.shape} and cross vector {b.shape} must both have length {k.shape[0]}"
        )
    if qn.shape != a.shape[:-1]:
        raise DataError(f"query norm shape {qn.shape} does not match {a.shape[:-1]}")
    value = np.einsum("...i,...i->...", a @ k, a) + qn - 2.0 * np.einsum("...i,...i->...", a, b)
    return _clamp_negative(value, DISTANCE_TOL, "squared distance")


def class_probabilities(dist_sq, zeta: float) -> np.ndarray:
    """Softmax of -zeta * d^2 over classes (the last axis), max-subtracted."""
    d = np.asarray(dist_sq, dtype=np.float64)
    if d.ndim not in (1, 2) or d.shape[-1] < 2:
        raise DataError(f"need distances for at least two classes, got shape {d.shape}")
    if not zeta > 0:
        raise ConfigurationError(f"metric scaling zeta must be positive, got {zeta}")
    bad = np.flatnonzero(~np.isfinite(d).all(axis=-1))
    if bad.size:
        row = f" in row {bad[0]}" if d.ndim == 2 else ""
        raise NumericalError(f"class distances{row} must all be finite")
    logits = -float(zeta) * d
    logits -= logits.max(axis=-1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=-1, keepdims=True)


def episode_loss(probs, labels) -> float:
    """Mean negative log probability of the true class across queries."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if p.ndim != 2 or p.shape[0] < 1:
        raise DataError(f"need an (m, C) probability array with m >= 1, got shape {p.shape}")
    if y.shape != (p.shape[0],) or not np.issubdtype(y.dtype, np.integer):
        raise DataError("labels must be one integer class index per query")
    if np.any(y < 0) or np.any(y >= p.shape[1]):
        raise DataError(f"labels must lie in [0, {p.shape[1]}), got range [{y.min()}, {y.max()}]")
    true_p = p[np.arange(p.shape[0]), y]
    if np.any(true_p <= 0.0):
        raise NumericalError("true-class probability is exactly zero; cannot take its log")
    return float(-np.mean(np.log(true_p)))


def classify_episode(episode, kernel: KernelSpec, filter_spec: FilterSpec,
                     zeta: float = 1.0) -> EpisodeResult:
    """Classify every query of an episode against its support classes.

    Per class the Gram matrix, centering, eigendecomposition, resolved
    shrinkage parameter, and filter matrix are computed once, then the
    kernel rows, cross vectors, query norms, coefficients and distances of
    the whole query block.  Errors are re-raised with class context; a
    block check names its offending row, which is the query index.
    """
    spec = resolve_kernel(kernel, episode.dim)
    queries = episode.query_features
    dists = np.empty((queries.shape[0], episode.way))
    for c in range(episode.way):
        support = episode.support[c]
        try:
            k_ss = gram_support(spec, support)
            ktilde = center_support(k_ss)
            eigensystem = symmetric_eig(ktilde)
            lam = resolve_lambda(filter_spec.lambda_policy, eigensystem)
            # no spread (1-shot): zero cross vector, nothing to filter, and h
            # may be undefined (a relative policy resolves lambda = gamma = 0)
            g = (filter_matrix(eigensystem, filter_spec, lam) if eigensystem.max_value > 0.0
                 else np.zeros_like(ktilde))
            kappa, k_qq = gram_query(spec, support, queries)
            b = center_cross(k_ss, kappa)
            q_norm = centered_query_norm(k_ss, kappa, k_qq)
            dists[:, c] = distance_sq(shrinkage_coefficients(g, b), ktilde, b, q_norm)
        except ProtofilterError as exc:
            raise _with_context(exc, f"class {c} ({episode.class_labels[c]})")
    probs = class_probabilities(dists, zeta)
    predicted = dists.argmin(axis=1)
    loss = episode_loss(probs, episode.query_labels)
    return EpisodeResult(dists, probs, predicted, loss)

