"""Kernel functions and raw Gram-matrix construction.

Two kernels are supported: the identity (linear) kernel <x, y> and the
RBF kernel exp(-||x - y||^2 / (2 sigma^2)).  Everything is float64; the
eigendecompositions downstream are sensitive to Gram-matrix noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, DataError, DimensionMismatchError


class KernelKind(str, Enum):
    IDENTITY = "identity"
    RBF = "rbf"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice plus hyperparameters.

    ``bandwidth_sq`` is the RBF sigma^2, in units of squared embedding
    distance.  ``None`` means "use the default for the data dimension"
    (see :func:`resolve_kernel`); the identity kernel ignores it.
    """

    kind: KernelKind = KernelKind.IDENTITY
    bandwidth_sq: float | None = None

    def __post_init__(self) -> None:
        if self.bandwidth_sq is not None and not (
                math.isfinite(self.bandwidth_sq) and self.bandwidth_sq > 0):
            raise ConfigurationError(
                f"kernel bandwidth_sq must be finite and positive, got {self.bandwidth_sq}"
            )


def default_rbf_bandwidth(dim: int) -> float:
    """Default RBF bandwidth sigma^2: the embedding dimension."""
    if dim < 1:
        raise ConfigurationError(f"embedding dimension must be >= 1, got {dim}")
    return float(dim)


def resolve_kernel(spec: KernelSpec, dim: int) -> KernelSpec:
    """Return ``spec`` with an unset RBF bandwidth filled in for ``dim``."""
    if spec.kind is KernelKind.RBF and spec.bandwidth_sq is None:
        return KernelSpec(KernelKind.RBF, default_rbf_bandwidth(dim))
    return spec


def _rbf_bandwidth(spec: KernelSpec) -> float:
    if spec.bandwidth_sq is None:
        raise ConfigurationError(
            "RBF kernel bandwidth_sq is unset; resolve it against the data dimension first"
        )
    return float(spec.bandwidth_sq)


def _as_stack(support) -> np.ndarray:
    try:
        s = np.asarray(support, dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise DataError(f"support vectors must share one dimension: {exc}") from None
    if s.ndim < 2 or 0 in s.shape:
        raise DataError(
            f"support must be a nonempty sequence of equal-length vectors, got shape {s.shape}"
        )
    return s


def gram_support(spec: KernelSpec, support) -> np.ndarray:
    """n x n support Gram matrix with entry (i, j) = k(s_i, s_j); a stack of
    them for a (..., n, d) stack of support sets.

    Exactly symmetric by construction (averaged with its own transpose).
    """
    s = _as_stack(support)
    if spec.kind is KernelKind.IDENTITY:
        k = s @ s.swapaxes(-1, -2)
    else:
        diff = s[..., :, None, :] - s[..., None, :, :]
        sq = np.einsum("...ijk,...ijk->...ij", diff, diff)
        k = np.exp(-sq / (2.0 * _rbf_bandwidth(spec)))
    return 0.5 * (k + k.swapaxes(-1, -2))


def gram_query(spec: KernelSpec, support, query) -> tuple[np.ndarray, float | np.ndarray]:
    """Kernel values of one query, or of each row of an (m, d) query block,
    against a support set: ``(kappa, k_qq)`` with ``kappa[..., i] = k(s_i, q)``
    and ``k_qq = k(q, q)``, a float for one query and an (m,) vector for a block.

    A (..., n, d) stack of support sets takes a (..., m, d) stack of blocks,
    one per set, and gives (..., m, n) and (..., m).
    """
    s = _as_stack(support)
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != s.ndim and not (q.ndim == 1 and s.ndim == 2):
        raise DataError(f"query must be a vector or an (m, d) block, got shape {q.shape}")
    if q.shape[-1] != s.shape[-1]:
        raise DimensionMismatchError(s.shape[-1], q.shape[-1], "query vector")
    if q.shape[:-2] != s.shape[:-2]:
        raise DataError(f"query stack {q.shape} does not match support stack {s.shape}")
    if spec.kind is KernelKind.IDENTITY:
        kappa, k_qq = q @ s.swapaxes(-1, -2), np.einsum("...j,...j->...", q, q)
    else:
        diff = q[..., None, :] - (s if q.ndim == 1 else s[..., None, :, :])
        sq = np.einsum("...ij,...ij->...i", diff, diff)
        kappa, k_qq = np.exp(-sq / (2.0 * _rbf_bandwidth(spec))), np.ones(q.shape[:-1])
    return kappa, (float(k_qq) if q.ndim == 1 else k_qq)
