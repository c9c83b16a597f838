"""Shared helpers for the test suite."""

import numpy as np

from protofilter import (
    KernelKind,
    KernelSpec,
    center_cross,
    center_support,
    centered_query_norm,
    distance_sq,
    gram_query,
    gram_support,
    resolve_lambda,
    shrinkage_weights,
    symmetric_eig,
)

IDENTITY = KernelSpec()

# worked two-point fixture: support {(0,0), (2,0)}, query (2,1)
FIXTURE_SUPPORT = np.array([[0.0, 0.0], [2.0, 0.0]])
FIXTURE_QUERY = np.array([2.0, 1.0])


def rbf_for(dim: int) -> KernelSpec:
    return KernelSpec(KernelKind.RBF, float(dim))


def random_instance(rng, n=None, d=None):
    """Random support matrix and query vector."""
    n = int(rng.integers(2, 9)) if n is None else n
    d = int(rng.integers(2, 17)) if d is None else d
    return rng.standard_normal((n, d)), rng.standard_normal(d)


def centered_pieces(spec, support, query):
    """All Gram-domain quantities for one (class, query) pair."""
    k_ss = gram_support(spec, support)
    kappa, k_qq = gram_query(spec, support, query)
    ktilde = center_support(k_ss)
    cross = center_cross(k_ss, kappa)
    q_norm = centered_query_norm(k_ss, kappa, k_qq)
    return k_ss, kappa, k_qq, ktilde, cross, q_norm


def kernel_distance(spec, support, query, filter_spec, lam=None):
    """Full Gram-domain distance; resolves the shrinkage policy when
    ``lam`` is None."""
    _, _, _, ktilde, cross, q_norm = centered_pieces(spec, support, query)
    eigensystem = symmetric_eig(ktilde)
    if lam is None:
        lam = resolve_lambda(filter_spec.lambda_policy, eigensystem)
    weights = shrinkage_weights(eigensystem, filter_spec, lam)
    return distance_sq(np.square(cross @ eigensystem.vectors), weights, q_norm)


def rel_close(a, b, scale, rel=1e-6, zero_floor=1e-8):
    """Relative comparison with an escape for values that are both
    numerically zero at the problem scale (where a pure relative check is
    0/0; ``scale`` is the unfiltered squared distance)."""
    if abs(a - b) <= rel * max(abs(a), abs(b)):
        return True
    return max(abs(a), abs(b)) <= zero_floor * (1.0 + scale)
