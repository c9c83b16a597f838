"""Per-class centering of Gram quantities.

Centering subtracts the class prototype (the support mean in feature
space) without ever materializing features: the centered support Gram
holds inner products of mean-subtracted support features, the cross
vector holds inner products of the mean-subtracted query against each of
those, and the centered query norm is the squared feature-space distance
from the query to the prototype.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, DimensionMismatchError, NumericalError

#: Negative centered query norms larger in magnitude than this indicate a
#: non-PSD kernel or numerical corruption rather than roundoff.
QUERY_NORM_TOL = 1e-9


def _validated_gram(k_ss) -> np.ndarray:
    k = np.asarray(k_ss, dtype=np.float64)
    if k.ndim < 2 or k.shape[-1] != k.shape[-2] or 0 in k.shape:
        raise DataError(f"support Gram must be a square matrix, got shape {k.shape}")
    return k


def _validated_cross(k: np.ndarray, kappa_qs) -> np.ndarray:
    kappa = np.asarray(kappa_qs, dtype=np.float64)
    if kappa.ndim != k.ndim and not (kappa.ndim == 1 and k.ndim == 2):
        raise DataError(f"cross kernel values must be 1-D or (m, n), got shape {kappa.shape}")
    if kappa.shape[-1] != k.shape[-1]:
        raise DimensionMismatchError(k.shape[-1], kappa.shape[-1], "cross kernel values")
    if kappa.shape[:-2] != k.shape[:-2]:
        raise DataError(f"cross kernel stack {kappa.shape} does not match Gram stack {k.shape}")
    return kappa


def _grand_mean(k: np.ndarray):
    """Mean of each Gram matrix, shaped to broadcast against per-query
    values: a scalar for one matrix, (..., 1) for a stack."""
    if k.ndim == 2:
        return k.mean()
    return k.mean(axis=(-2, -1))[..., None]


def _clamp_negative(values, tol: float, what: str, hint: str = ""):
    """Zero the entries of ``values`` in (-tol, 0) and raise on any below
    -tol, naming the query row (the last index) of the first such entry of
    a block or stack of blocks.  0-d input gives a float."""
    v = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(v < -tol)
    if bad.size:
        row = f" in row {np.unravel_index(bad[0], v.shape)[-1]}" if v.ndim else ""
        raise NumericalError(
            f"{what} {v.flat[bad[0]]:.3e}{row} is negative beyond tolerance {tol:g}{hint}"
        )
    v = np.where(v < 0.0, 0.0, v)
    return float(v) if v.ndim == 0 else v


def center_support(k_ss) -> np.ndarray:
    """Double-center a support Gram matrix, or each of a (..., n, n) stack.

    Entrywise K[i,j] - rowmean_i - colmean_j + grandmean, equivalently
    H K H with H = I - (1/n) 11^T; re-symmetrized by averaging with the
    transpose.  Every row and column of the result sums to zero.
    """
    k = _validated_gram(k_ss)
    row = k.mean(axis=-1, keepdims=True)
    col = k.mean(axis=-2, keepdims=True)
    centered = k - row - col + k.mean(axis=(-2, -1), keepdims=True)
    return 0.5 * (centered + centered.swapaxes(-1, -2))


def center_cross(k_ss, kappa_qs) -> np.ndarray:
    """Centered query/support cross vector (one row per query for a block,
    one block per Gram matrix for a stack).

    Entry i is kappa[i] - mean(kappa) - rowmean_i(K) + grandmean(K): the
    inner product of the mean-subtracted query feature with the i-th
    mean-subtracted support feature.
    """
    k = _validated_gram(k_ss)
    kappa = _validated_cross(k, kappa_qs)
    row = k.mean(axis=-1)
    if k.ndim > 2:
        row = row[..., None, :]
    return kappa - kappa.mean(axis=-1, keepdims=True) - row + _grand_mean(k)[..., None]


def centered_query_norm(k_ss, kappa_qs, k_qq) -> float | np.ndarray:
    """Squared feature-space distance from the query to the class prototype.

    k_qq + grandmean(K) - 2 mean(kappa), per row of a block (and per block
    of a stack).  Values in (-QUERY_NORM_TOL, 0) clamp to zero; anything
    more negative raises.
    """
    k = _validated_gram(k_ss)
    kappa = _validated_cross(k, kappa_qs)
    qq = np.asarray(k_qq, dtype=np.float64)
    if qq.shape != kappa.shape[:-1]:
        raise DataError(f"query self-kernel shape {qq.shape} does not match {kappa.shape[:-1]}")
    return _clamp_negative(
        qq + _grand_mean(k) - 2.0 * kappa.mean(axis=-1), QUERY_NORM_TOL,
        "centered query norm", "; the kernel may not be positive semidefinite",
    )
