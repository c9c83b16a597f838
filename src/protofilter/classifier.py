"""Filtered relative-prototype distances, class probabilities, and episode
classification under one filter or several that share each class's
eigensystem."""

from __future__ import annotations

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
    argmin-distance predictions, and the mean episode loss.  A result of
    :func:`score_filters` on a stack carries its leading axes on every
    field, the loss included."""

    dist_sq: np.ndarray
    probs: np.ndarray
    predicted: np.ndarray
    loss: float | np.ndarray


def distance_sq(coords_sq, weights, query_norm) -> float | np.ndarray:
    """Squared norm of the filtered relative prototype.

    q_norm - sum_i c_i^2 w_i, per row of a block, from the squared
    eigen-coordinates c^2 of the centered cross vector (c = b V) and the
    shrinkage weights w (:func:`~protofilter.spectral.shrinkage_weights`).
    A (..., n) stack of weights takes a (..., m, n) stack of blocks and
    (..., m) query norms.  Values in (-DISTANCE_TOL, 0) clamp to zero; more
    negative ones raise.
    """
    c2 = np.asarray(coords_sq, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    qn = np.asarray(query_norm, dtype=np.float64)
    single = c2.ndim == w.ndim == 1
    if (w.ndim < 1 or not (single or c2.ndim == w.ndim + 1)
            or c2.shape[-1] != w.shape[-1] or c2.shape[:-2] != w.shape[:-1]):
        raise DataError(f"coordinates {c2.shape} do not match weights {w.shape}")
    if qn.shape != c2.shape[:-1]:
        raise DataError(f"query norm shape {qn.shape} does not match {c2.shape[:-1]}")
    # a stack's per-matrix products are bitwise the 1-D weights' matvecs
    filtered = c2 @ w if w.ndim == 1 else (c2 @ w[..., None])[..., 0]
    return _clamp_negative(qn - filtered, DISTANCE_TOL, "squared distance")


def class_probabilities(dist_sq, zeta) -> np.ndarray:
    """Softmax of -zeta * d^2 over classes (the last axis), max-subtracted.

    A (..., m, C) stack of distance blocks takes one zeta or a (...) array
    of them, one per block."""
    d = np.asarray(dist_sq, dtype=np.float64)
    if d.ndim < 1 or d.shape[-1] < 2:
        raise DataError(f"need distances for at least two classes, got shape {d.shape}")
    z = np.asarray(zeta, dtype=np.float64)
    if z.ndim and z.shape != d.shape[:-2]:
        raise DataError(f"zeta shape {z.shape} does not match distance blocks {d.shape}")
    bad_z = ~(np.isfinite(z) & (z > 0))
    if bad_z.any():
        raise ConfigurationError(
            f"metric scaling zeta must be finite and positive, got {float(z[bad_z][0])}"
        )
    bad = np.flatnonzero(~np.isfinite(d).all(axis=-1))
    if bad.size:
        row = f" in row {np.unravel_index(bad[0], d.shape[:-1])[-1]}" if d.ndim > 1 else ""
        raise NumericalError(f"class distances{row} must all be finite")
    logits = -(z[..., None, None] if z.ndim else z) * d
    logits -= logits.max(axis=-1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=-1, keepdims=True)


def episode_loss(probs, labels) -> float | np.ndarray:
    """Mean negative log probability of the true class across queries; one
    per block of a (..., m, C) stack."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if p.ndim < 2 or p.shape[-2] < 1:
        raise DataError(f"need an (m, C) probability array with m >= 1, got shape {p.shape}")
    if y.shape != (p.shape[-2],) or not np.issubdtype(y.dtype, np.integer):
        raise DataError("labels must be one integer class index per query")
    if np.any(y < 0) or np.any(y >= p.shape[-1]):
        raise DataError(f"labels must lie in [0, {p.shape[-1]}), got range [{y.min()}, {y.max()}]")
    # contiguous, so each block's mean sums in the order a 2-D call's does
    true_p = np.ascontiguousarray(p[..., np.arange(p.shape[-2]), y])
    if np.any(true_p <= 0.0):
        raise NumericalError("true-class probability is exactly zero; cannot take its log")
    loss = -np.mean(np.log(true_p), axis=-1)
    return float(loss) if p.ndim == 2 else loss


def score_filters(support, queries, query_labels, class_labels, kernel: KernelSpec,
                  filter_specs: Sequence[FilterSpec], zeta=1.0) -> list[EpisodeResult]:
    """Score a query block against each support class once per filter.

    ``support`` is a (C, n, d) stack of classes and ``queries`` an (m, d)
    block with integer ``query_labels``; ``class_labels`` name the classes
    in errors.  Leading axes (..., C, n, d) and (..., m, d) stack several
    such problems, scored at once with one zeta or one per problem; each
    result then carries those axes.

    Per class the Gram matrix, centering, eigendecomposition, query kernel
    rows, squared eigen-coordinates of the cross block and query norms are
    computed once and shared by every filter; the resolved shrinkage
    parameter, shrinkage weights, distances, probabilities and loss are
    computed per filter, so each result is bitwise what one filter alone
    gives.  The first error raises, with class context when a class raised
    it; which filter of several fails first is for the caller to find out
    (by running them one at a time).
    """
    spec = resolve_kernel(kernel, support.shape[-1])
    # Both kernels are translation-invariant after centering, so each class
    # is scored in coordinates relative to its support mean: raw inner
    # products of far-off features would cancel catastrophically.
    means = support.mean(axis=-2, keepdims=True)
    supports = support - means
    class_queries = queries[..., None, :, :] - means
    way = support.shape[-3]
    dists = np.empty((len(filter_specs), *queries.shape[:-2], queries.shape[-2], way))
    for c in range(way):
        class_support = supports[..., c, :, :]
        try:
            k_ss = gram_support(spec, class_support)
            eigensystem = symmetric_eig(center_support(k_ss))
            weights = [shrinkage_weights(eigensystem, f,
                                         resolve_lambda(f.lambda_policy, eigensystem))
                       for f in filter_specs]
            kappa, k_qq = gram_query(spec, class_support, class_queries[..., c, :, :])
            coords_sq = np.square(center_cross(k_ss, kappa) @ eigensystem.vectors)
            q_norm = centered_query_norm(k_ss, kappa, k_qq)
            # one matvec per filter: a result never depends on which
            # other filters share the pass
            for i, w in enumerate(weights):
                dists[i, ..., c] = distance_sq(coords_sq, w, q_norm)
        except ProtofilterError as exc:
            exc.args = (f"class {c} ({class_labels[c]}): {exc}",)
            raise
    results = []
    for d in dists:
        probs = class_probabilities(d, zeta)
        results.append(EpisodeResult(d, probs, d.argmin(axis=-1),
                                     episode_loss(probs, query_labels)))
    return results


def classify_filters(episode, kernel: KernelSpec, filter_specs: Sequence[FilterSpec],
                     zeta: float = 1.0) -> list[EpisodeResult]:
    """Classify every query of an episode once per filter:
    :func:`score_filters` on the episode's support stack and query block."""
    return score_filters(episode.support, episode.query_features, episode.query_labels,
                         episode.class_labels, kernel, filter_specs, zeta)


def classify_episode(episode, kernel: KernelSpec, filter_spec: FilterSpec,
                     zeta: float = 1.0) -> EpisodeResult:
    """Classify every query of an episode against its support classes:
    :func:`classify_filters` with one filter.  Errors carry class context;
    a block check names its offending row, which is the query index."""
    return classify_filters(episode, kernel, [filter_spec], zeta)[0]
