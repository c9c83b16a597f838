"""Independent reference implementations of the filtered relative-prototype
distance, used to cross-check the Gram-domain path of the library.

- :func:`explicit_feature_distance` evaluates the filter on explicit
  features with numpy's eigensolver (identity-kernel semantics);
- :func:`protonet_distance` is the prototype-only squared distance that
  the zero filter must reproduce;
- :func:`dsn_distance` is the subspace-projection residual that truncated
  SVD must reproduce at every admissible rank;
- :func:`replicated_matrix_distance` spells out the full n x n blocks and
  works for any kernel, built on the scalar :func:`kernel_eval`.

Both filtered references apply the scalar filter function
:func:`filter_weight` one eigenvalue at a time.
"""

from __future__ import annotations

import numpy as np

from protofilter import (
    EIGENVALUE_CLAMP,
    ConfigurationError,
    DataError,
    DimensionMismatchError,
    FilterKind,
    FilterSpec,
    KernelKind,
    KernelSpec,
    NumericalError,
    resolve_kernel,
)
from protofilter.kernels import _as_stack, _rbf_bandwidth


def _as_matrix(support) -> np.ndarray:
    s = _as_stack(support)
    if s.ndim != 2:
        raise DataError(f"support must be one (n, d) set of vectors, got shape {s.shape}")
    return s


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 1:
        raise DataError(f"{name} must be a nonempty 1-D real vector, got shape {v.shape}")
    return v


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate k(x, y) for one pair of embedding vectors."""
    xv = _as_vector(x, "x")
    yv = _as_vector(y, "y")
    if xv.shape[0] != yv.shape[0]:
        raise DimensionMismatchError(xv.shape[0], yv.shape[0], "kernel arguments")
    if spec.kind is KernelKind.IDENTITY:
        return float(xv @ yv)
    diff = xv - yv
    return float(np.exp(-(diff @ diff) / (2.0 * _rbf_bandwidth(spec))))


def filter_weight(spec: FilterSpec, gamma: float, lam: float) -> float:
    """Filter weight h(gamma, lambda) for one eigenvalue.

    Zero: 0.  Tikhonov: 1 / (gamma + lambda).  Truncated SVD: 1 / gamma
    when gamma >= lambda, else 0.
    """
    if gamma < 0:
        raise NumericalError(f"eigenvalue must be nonnegative, got {gamma}")
    if lam < 0:
        raise ConfigurationError(f"shrinkage parameter must be nonnegative, got {lam}")
    if spec.kind is FilterKind.ZERO:
        return 0.0
    if spec.kind is FilterKind.TIKHONOV:
        denom = gamma + lam
        if denom == 0.0:
            raise NumericalError(
                "Tikhonov filter weight undefined: eigenvalue and shrinkage "
                "parameter are both zero"
            )
        return 1.0 / denom
    if lam <= 0.0:
        raise ConfigurationError(
            "truncated-SVD filtering requires a strictly positive shrinkage parameter"
        )
    return 1.0 / gamma if gamma >= lam else 0.0


def explicit_feature_distance(support, query, filter_spec: FilterSpec, lam: float) -> float:
    """Filtered relative-prototype distance computed on explicit features
    (identity-kernel semantics).

    Builds the class mean, the unnormalized covariance sum r_i r_i^T of
    mean-subtracted support features, takes its eigenpairs with numpy's
    solver, removes h(gamma, lambda) * gamma times each eigencomponent of
    (query - mean), and returns the squared norm of the remainder.  This
    is the brute-force reference for the Gram-domain path.
    """
    s = _as_matrix(support)
    q = _as_vector(query, "query")
    if q.shape[0] != s.shape[1]:
        raise DimensionMismatchError(s.shape[1], q.shape[0], "query vector")
    mean = s.mean(axis=0)
    centered = s - mean
    cov = centered.T @ centered
    values, vectors = np.linalg.eigh(cov)
    rel = q - mean
    removed = np.zeros_like(rel)
    for gamma, w in zip(values, vectors.T):
        if gamma <= EIGENVALUE_CLAMP:
            continue
        removed += filter_weight(filter_spec, float(gamma), lam) * float(gamma) * float(rel @ w) * w
    residual = rel - removed
    return float(residual @ residual)


def protonet_distance(support, query) -> float:
    """Squared distance from the query to the support mean."""
    s = _as_matrix(support)
    q = _as_vector(query, "query")
    if q.shape[0] != s.shape[1]:
        raise DimensionMismatchError(s.shape[1], q.shape[0], "query vector")
    diff = q - s.mean(axis=0)
    return float(diff @ diff)


def dsn_distance(support, query, subspace_dim: int) -> float:
    """Squared residual of (query - mean) after projecting out the top
    ``subspace_dim`` eigenvectors of the centered support covariance."""
    s = _as_matrix(support)
    q = _as_vector(query, "query")
    if q.shape[0] != s.shape[1]:
        raise DimensionMismatchError(s.shape[1], q.shape[0], "query vector")
    if subspace_dim < 0:
        raise ConfigurationError(f"subspace dimension must be >= 0, got {subspace_dim}")
    mean = s.mean(axis=0)
    centered = s - mean
    cov = centered.T @ centered
    values, vectors = np.linalg.eigh(cov)
    values = values[::-1]
    vectors = vectors[:, ::-1]
    top = float(values[0]) if values.size else 0.0
    rank = int(np.sum(values > 1e-10 * max(top, 1.0)))
    if subspace_dim > rank:
        raise ConfigurationError(
            f"subspace dimension {subspace_dim} exceeds the centered support rank {rank}"
        )
    rel = q - mean
    if subspace_dim > 0:
        basis = vectors[:, :subspace_dim]
        rel = rel - basis @ (basis.T @ rel)
    return float(rel @ rel)


def replicated_matrix_distance(support, query, kernel: KernelSpec,
                               filter_spec: FilterSpec, lam: float) -> float:
    """Distance computed through the full replicated-matrix form.

    Spells out the n x n constant-column query/support block, the
    constant query/query block, and the 1/n averaging matrix, centers
    them by full matrix products, and filters through numpy's symmetric
    eigensolver.  Valid for any kernel; the second independent reference
    path for :func:`protofilter.distance_sq`.
    """
    s = _as_matrix(support)
    q = _as_vector(query, "query")
    spec = resolve_kernel(kernel, s.shape[1])
    n = s.shape[0]
    k_ss = np.array([[kernel_eval(spec, s[i], s[j]) for j in range(n)] for i in range(n)])
    kappa = np.array([kernel_eval(spec, s[i], q) for i in range(n)])
    k_qs = np.tile(kappa[:, None], (1, n))
    k_qq = np.full((n, n), kernel_eval(spec, q, q))
    averager = np.full((n, n), 1.0 / n)
    weights_vec = np.full(n, 1.0 / n)
    kt_ss = k_ss - averager @ k_ss - k_ss @ averager + averager @ k_ss @ averager
    kt_qs = k_qs - averager @ k_qs - k_ss + averager @ k_ss
    kt_qq = k_qq + k_ss - k_qs - k_qs.T
    cross = kt_qs @ weights_vec
    q_norm = float(weights_vec @ kt_qq @ weights_vec)
    values, vectors = np.linalg.eigh(0.5 * (kt_ss + kt_ss.T))
    values = np.where(values < EIGENVALUE_CLAMP, 0.0, values)
    h = np.array([filter_weight(filter_spec, float(v), lam) for v in values])
    g = (vectors * h) @ vectors.T
    a = g @ cross
    return float(a @ kt_ss @ a + q_norm - 2.0 * (a @ cross))
