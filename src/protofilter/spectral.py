"""Symmetric eigendecomposition and the spectral filter family.

With a class's centered support Gram K = V diag(gamma) V^T and a query
block's centered cross rows b, the filtered squared distance is

    d = q_norm - sum_i c_i^2 w_i,    c = b V,    w_i = h_i (2 - gamma_i h_i),

where h_i = h(gamma_i, lambda) is the filter function: the relative
prototype loses the fraction h_i gamma_i of its i-th eigencomponent.  The
cross rows have no component along a zero eigenvalue, which gets w_i = 0.
:func:`shrinkage_weights` gives w for a whole spectrum at once.

The eigensolver is a cyclic Jacobi iteration.  Inputs are shot-count
sized (rarely beyond 20 x 20), so robustness and determinism matter more
than asymptotic speed: the sweep order is fixed, eigenvalues are sorted
descending with a stable sort, and each eigenvector's largest-magnitude
entry is made positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, DataError, NumericalError

#: Eigenvalues below this are stored as exactly zero.
EIGENVALUE_CLAMP = 1e-12
#: Eigenvalues below minus this are an error: the input was not PSD.
NEGATIVE_EIGENVALUE_TOL = 1e-9

_SYMMETRY_TOL = 1e-8
_OFFDIAG_TOL = 1e-11
_MAX_SWEEPS = 100


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (descending, clamped nonnegative) and orthonormal
    eigenvectors (columns) of a centered support Gram matrix, or of each
    matrix of a stack."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def max_value(self) -> float | np.ndarray:
        """Largest eigenvalue; one per spectrum of a stack."""
        top = self.values[..., 0]
        return float(top) if top.ndim == 0 else top


class FilterKind(str, Enum):
    ZERO = "zero"
    TIKHONOV = "tikhonov"
    TRUNCATED_SVD = "tsvd"


@dataclass(frozen=True)
class AbsoluteLambda:
    """Use one fixed shrinkage parameter for every class."""

    value: float

    def __post_init__(self) -> None:
        if not self.value >= 0:
            raise ConfigurationError(f"shrinkage parameter must be >= 0, got {self.value}")


@dataclass(frozen=True)
class RelativeToMaxEigenvalue:
    """Per class, use ``ratio`` times the largest eigenvalue of that
    class's centered support Gram."""

    ratio: float

    def __post_init__(self) -> None:
        if not self.ratio >= 0:
            raise ConfigurationError(f"shrinkage ratio must be >= 0, got {self.ratio}")


LambdaPolicy = AbsoluteLambda | RelativeToMaxEigenvalue


@dataclass(frozen=True)
class FilterSpec:
    """Filter-function choice plus the shrinkage-parameter policy.

    The zero filter ignores the policy entirely; truncated SVD requires
    the resolved parameter to be strictly positive.
    """

    kind: FilterKind
    lambda_policy: LambdaPolicy


def _frobenius(a: np.ndarray) -> float:
    """``np.linalg.norm`` of a C-contiguous matrix, bitwise, without its
    dispatch cost (the eigensolver calls it once per sweep per matrix)."""
    x = a.ravel()
    return math.sqrt(x.dot(x))


def _offdiag_norm(a: np.ndarray, offdiag: np.ndarray) -> float:
    # times the 0/1 off-diagonal mask: bitwise ``a - diag(diag(a))``,
    # non-finite entries included
    return _frobenius(a * offdiag)


def _rotate(a: np.ndarray, vecs: np.ndarray, p: int, q: int) -> None:
    apq = a[p, q]
    if apq == 0.0:
        return
    tau = (a[q, q] - a[p, p]) / (2.0 * apq)
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.sqrt(t * t + 1.0)
    s = t * c
    cp = a[:, p].copy()
    cq = a[:, q].copy()
    a[:, p] = c * cp - s * cq
    a[:, q] = s * cp + c * cq
    rp = a[p, :].copy()
    rq = a[q, :].copy()
    a[p, :] = c * rp - s * rq
    a[q, :] = s * rp + c * rq
    # the rotation annihilates this pair analytically
    a[p, q] = 0.0
    a[q, p] = 0.0
    vp = vecs[:, p].copy()
    vq = vecs[:, q].copy()
    vecs[:, p] = c * vp - s * vq
    vecs[:, q] = s * vp + c * vq


def _clamp_spectrum(values: np.ndarray) -> np.ndarray:
    lowest = float(values.min())
    if lowest < -NEGATIVE_EIGENVALUE_TOL:
        raise NumericalError(
            f"eigenvalue {lowest:.3e} below -{NEGATIVE_EIGENVALUE_TOL:g}; "
            "input matrix was not positive semidefinite"
        )
    out = values.copy()
    out[out < EIGENVALUE_CLAMP] = 0.0
    return out


def _jacobi(a: np.ndarray, asymmetry: float) -> tuple[np.ndarray, np.ndarray]:
    """Clamped descending eigenvalues and their eigenvectors (columns, signs
    not yet fixed) of one symmetrized matrix, which is rotated in place;
    ``asymmetry`` is its largest |a - a^T| entry before symmetrizing."""
    if asymmetry > _SYMMETRY_TOL:
        raise DataError(f"matrix is not symmetric within {_SYMMETRY_TOL:g}")
    n = a.shape[0]
    vecs = np.eye(n)
    offdiag = 1.0 - vecs
    tol = _OFFDIAG_TOL * max(1.0, _frobenius(a))
    for _ in range(_MAX_SWEEPS):
        if _offdiag_norm(a, offdiag) <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate(a, vecs, p, q)
    else:
        residual = _offdiag_norm(a, offdiag)
        if residual > tol:
            raise NumericalError(
                f"Jacobi iteration did not converge in {_MAX_SWEEPS} sweeps; "
                f"off-diagonal residual {residual:.3e} exceeds {tol:.3e}"
            )
    values = np.diag(a).copy()
    order = np.argsort(-values, kind="stable")
    return _clamp_spectrum(values[order]), vecs[:, order]


def symmetric_eig(matrix) -> EigenSystem:
    """Eigendecomposition of a symmetric PSD matrix by cyclic Jacobi sweeps;
    of each matrix of a (..., n, n) stack, giving (..., n) values and
    (..., n, n) vectors.

    Converges when the off-diagonal Frobenius norm falls below 1e-11
    (scaled by the matrix Frobenius norm when that exceeds one); errors
    after 100 sweeps otherwise.  Eigenvalues below the clamp threshold
    are stored as exactly zero; values below -1e-9 raise.  Every check
    applies to each matrix of a stack, in order, and the first failing
    matrix raises.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or 0 in a.shape:
        raise DataError(f"matrix must be square, got shape {a.shape}")
    transposed = a.swapaxes(-1, -2)
    asymmetry = np.abs(a - transposed).max(axis=(-2, -1))
    a = 0.5 * (a + transposed)
    values, vectors = np.empty(a.shape[:-1]), np.empty(a.shape)
    for index in np.ndindex(a.shape[:-2]):  # a lone matrix has the one index ()
        values[index], vectors[index] = _jacobi(a[index], float(asymmetry[index]))
    # each eigenvector's largest-magnitude entry (the first of ties) is positive
    largest = np.take_along_axis(vectors, np.argmax(np.abs(vectors), axis=-2)[..., None, :],
                                 axis=-2)
    return EigenSystem(values, np.where(largest < 0.0, -vectors, vectors))


def resolve_lambda(policy: LambdaPolicy, eigensystem: EigenSystem) -> float | np.ndarray:
    """Resolve a shrinkage policy against one class's spectrum (a relative
    policy gives one value per spectrum of a stack)."""
    if isinstance(policy, AbsoluteLambda):
        return float(policy.value)
    if isinstance(policy, RelativeToMaxEigenvalue):
        return float(policy.ratio) * eigensystem.max_value
    raise ConfigurationError(f"unknown shrinkage policy: {policy!r}")


def shrinkage_weights(eigensystem: EigenSystem, spec: FilterSpec, lam) -> np.ndarray:
    """Shrinkage weight w_i = h_i (2 - gamma_i h_i) of each eigencomponent.

    h is evaluated on the whole spectrum at once: zero filter 0, Tikhonov
    1 / (gamma + lambda), truncated SVD 1 / gamma where gamma >= lambda
    and 0 elsewhere.  A zero eigenvalue gets weight 0: the centered cross
    vectors have no component along the null space, so there is nothing
    to filter, and a weight there would only scale the eigensolver's
    error in that component (by 2 / lambda under Tikhonov).  An all-zero
    spectrum (1-shot) gets zeros and is exempt from the checks below,
    which a relative policy (lambda = gamma = 0) would fail.

    A stack of spectra takes one lambda or one per spectrum; the rules
    above, and the checks, apply to each spectrum.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if (lam < 0).any():
        raise ConfigurationError(
            f"shrinkage parameter must be nonnegative, got {float(lam[lam < 0][0])}"
        )
    gamma = eigensystem.values
    if spec.kind is FilterKind.ZERO:
        return np.zeros_like(gamma)
    lam = lam[..., None]
    live = gamma[..., :1] != 0.0  # not an all-zero spectrum, which keeps nothing
    if spec.kind is FilterKind.TIKHONOV:
        denom, kept = gamma + lam, gamma > 0.0
        if not (denom.all() or ((denom != 0.0) | ~live).all()):
            raise NumericalError(
                "Tikhonov filter weight undefined: eigenvalue and shrinkage "
                "parameter are both zero"
            )
    else:
        if ((lam <= 0.0) & live).any():
            raise ConfigurationError(
                "truncated-SVD filtering requires a strictly positive shrinkage parameter"
            )
        denom, kept = gamma, (gamma >= lam) & live
    h = np.divide(1.0, denom, out=np.zeros_like(gamma), where=kept)
    return h * (2.0 - gamma * h)


def _check_method(name: str, filter_spec: FilterSpec) -> None:
    """Reject a method that fails on every episode before any is drawn."""
    policy = filter_spec.lambda_policy
    if (filter_spec.kind is FilterKind.TRUNCATED_SVD
            and policy in (AbsoluteLambda(0.0), RelativeToMaxEigenvalue(0.0))):
        raise ConfigurationError(
            f"method {name!r}: truncated-SVD filtering requires a strictly positive "
            f"shrinkage parameter, and {format_lambda_policy(policy)} always resolves to 0"
        )


def format_lambda_policy(policy: LambdaPolicy) -> str:
    """Canonical text form: ``absolute=<v>`` or ``relative=<v>``."""
    if isinstance(policy, AbsoluteLambda):
        return f"absolute={policy.value:g}"
    if isinstance(policy, RelativeToMaxEigenvalue):
        return f"relative={policy.ratio:g}"
    raise ConfigurationError(f"unknown shrinkage policy: {policy!r}")


def parse_lambda_policy(text: str) -> LambdaPolicy:
    """Parse ``absolute=<v>``, ``relative=<v>``, or ``none`` (= absolute 0)."""
    cleaned = text.strip().lower()
    if cleaned == "none":
        return AbsoluteLambda(0.0)
    name, _, raw = cleaned.partition("=")
    if not raw:
        raise ConfigurationError(
            f"shrinkage policy must look like 'absolute=1' or 'relative=0.1', got {text!r}"
        )
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(f"shrinkage policy value {raw!r} is not a number") from None
    if name == "absolute":
        return AbsoluteLambda(value)
    if name == "relative":
        return RelativeToMaxEigenvalue(value)
    raise ConfigurationError(f"unknown shrinkage policy kind {name!r}")
