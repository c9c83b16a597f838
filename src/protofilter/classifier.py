"""Filtered relative-prototype distances, class probabilities, and episode
classification under one filter or several that share each class's
eigensystem."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .centering import _clamp_negative, center_cross, center_support, centered_query_norm
from .errors import ConfigurationError, DataError, NumericalError, ProtofilterError
from .kernels import KernelSpec, gram_query, gram_support, resolve_kernel
from .spectral import FilterSpec, resolve_lambda, shrinkage_weights, symmetric_eig

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


def distance_sq(coords_sq, weights, query_norm) -> float | np.ndarray:
    """Squared norm of the filtered relative prototype.

    q_norm - sum_i c_i^2 w_i, per row of a block, from the squared
    eigen-coordinates c^2 of the centered cross vector (c = b V) and the
    shrinkage weights w (:func:`~protofilter.spectral.shrinkage_weights`).
    Values in (-DISTANCE_TOL, 0) clamp to zero; more negative ones raise.
    """
    c2 = np.asarray(coords_sq, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    qn = np.asarray(query_norm, dtype=np.float64)
    if w.ndim != 1 or c2.ndim not in (1, 2) or c2.shape[-1] != w.shape[0]:
        raise DataError(f"coordinates {c2.shape} do not match 1-D weights {w.shape}")
    if qn.shape != c2.shape[:-1]:
        raise DataError(f"query norm shape {qn.shape} does not match {c2.shape[:-1]}")
    return _clamp_negative(qn - c2 @ w, DISTANCE_TOL, "squared distance")


def class_probabilities(dist_sq, zeta: float) -> np.ndarray:
    """Softmax of -zeta * d^2 over classes (the last axis), max-subtracted."""
    d = np.asarray(dist_sq, dtype=np.float64)
    if d.ndim not in (1, 2) or d.shape[-1] < 2:
        raise DataError(f"need distances for at least two classes, got shape {d.shape}")
    if not (math.isfinite(zeta) and zeta > 0):
        raise ConfigurationError(f"metric scaling zeta must be finite and positive, got {zeta}")
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


def classify_filters(episode, kernel: KernelSpec, filter_specs: Sequence[FilterSpec],
                     zeta: float = 1.0) -> list[EpisodeResult]:
    """Classify every query of an episode once per filter.

    Per class the Gram matrix, centering, eigendecomposition, query kernel
    rows, squared eigen-coordinates of the cross block and query norms are
    computed once and shared by every filter; the resolved shrinkage
    parameter, shrinkage weights, distances, probabilities and loss are
    computed per filter, so each result is bitwise what
    :func:`classify_episode` gives that filter alone.  The first error
    raises, with class context when a class raised it; which filter of
    several fails first is for the caller to find out (by running them
    one at a time).
    """
    spec = resolve_kernel(kernel, episode.dim)
    queries = episode.query_features
    dists = np.empty((len(filter_specs), queries.shape[0], episode.way))
    for c in range(episode.way):
        support = episode.support[c]
        try:
            k_ss = gram_support(spec, support)
            eigensystem = symmetric_eig(center_support(k_ss))
            weights = [shrinkage_weights(eigensystem, f,
                                         resolve_lambda(f.lambda_policy, eigensystem))
                       for f in filter_specs]
            kappa, k_qq = gram_query(spec, support, queries)
            coords_sq = np.square(center_cross(k_ss, kappa) @ eigensystem.vectors)
            q_norm = centered_query_norm(k_ss, kappa, k_qq)
            # one matvec per filter: a result never depends on which
            # other filters share the pass
            for i, w in enumerate(weights):
                dists[i, :, c] = distance_sq(coords_sq, w, q_norm)
        except ProtofilterError as exc:
            exc.args = (f"class {c} ({episode.class_labels[c]}): {exc}",)
            raise
    results = []
    for d in dists:
        probs = class_probabilities(d, zeta)
        results.append(EpisodeResult(d, probs, d.argmin(axis=1),
                                     episode_loss(probs, episode.query_labels)))
    return results


def classify_episode(episode, kernel: KernelSpec, filter_spec: FilterSpec,
                     zeta: float = 1.0) -> EpisodeResult:
    """Classify every query of an episode against its support classes:
    :func:`classify_filters` with one filter.  Errors carry class context;
    a block check names its offending row, which is the query index."""
    return classify_filters(episode, kernel, [filter_spec], zeta)[0]
