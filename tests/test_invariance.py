"""Invariances of episode classification: translation, support
permutation and scale covariance, checked against the explicit-feature
oracle and as hypothesis properties over random episodes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import IDENTITY, rbf_for
from oracles import explicit_feature_distance
from protofilter import (
    AbsoluteLambda,
    Episode,
    FilterKind,
    FilterSpec,
    RelativeToMaxEigenvalue,
    classify_episode,
)

TIK1 = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(1.0))
# the oracle bound of criterion 01
ORACLE_RTOL = 1e-8
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)


def _episode(support, queries):
    """A (C, n, d) support stack with queries labelled round-robin."""
    way, shot, _ = support.shape
    m = queries.shape[0]
    return Episode(
        class_labels=tuple(f"k{c}" for c in range(way)),
        support=support,
        support_indices=np.arange(way * shot).reshape(way, shot),
        query_features=queries,
        query_labels=np.arange(m) % way,
        query_indices=way * shot + np.arange(m),
    )


def _random_episode(seed, way=3, shot=4, d=5, queries=6):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((way, shot, d)), rng.standard_normal((queries, d))


def _close(got, want):
    return np.all(np.abs(got - want) <= ORACLE_RTOL * (1.0 + np.abs(want)))


@pytest.mark.parametrize("offset", [1e4, 1e6])
def test_common_offset_matches_explicit_features(offset):
    # 50 random 5 x 16 supports, five classes to an episode; the raw Gram
    # of features this far from the origin cancels catastrophically
    rng = np.random.default_rng(61)
    for _ in range(10):
        support = rng.standard_normal((5, 5, 16)) + offset
        queries = rng.standard_normal((10, 16)) + offset
        result = classify_episode(_episode(support, queries), IDENTITY, TIK1)
        oracle = np.array([[explicit_feature_distance(s, q, TIK1, 1.0) for s in support]
                           for q in queries])
        assert _close(result.dist_sq, oracle)


# every filter kind; tsvd under a relative policy keeps some components
FILTERS = (
    FilterSpec(FilterKind.ZERO, AbsoluteLambda(0.0)),
    FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(0.5)),
    FilterSpec(FilterKind.TIKHONOV, RelativeToMaxEigenvalue(0.1)),
    FilterSpec(FilterKind.TRUNCATED_SVD, RelativeToMaxEigenvalue(0.1)),
)
WAY, SHOT, D = 3, 4, 5
SEEDS = st.integers(0, 2**32 - 1)


def _assert_same(got, want, scale=1.0):
    """``got`` is ``want`` with distances multiplied by ``scale``."""
    assert _close(got.dist_sq / scale, want.dist_sq)
    assert abs(got.loss - want.loss) <= ORACLE_RTOL * (1.0 + want.loss)


@PROPERTY
@given(seed=SEEDS, shift=st.lists(st.floats(-1e6, 1e6), min_size=D, max_size=D))
def test_translation_leaves_results(seed, shift):
    support, queries = _random_episode(seed, WAY, SHOT, D)
    moved = _episode(support + shift, queries + shift)
    for kernel in (IDENTITY, rbf_for(D)):
        for spec in FILTERS:
            _assert_same(classify_episode(moved, kernel, spec),
                         classify_episode(_episode(support, queries), kernel, spec))


@PROPERTY
@given(seed=SEEDS, perms=st.lists(st.permutations(range(SHOT)), min_size=WAY, max_size=WAY))
def test_support_permutation_leaves_results(seed, perms):
    support, queries = _random_episode(seed, WAY, SHOT, D)
    shuffled = support[np.arange(WAY)[:, None], np.array(perms)]
    for kernel in (IDENTITY, rbf_for(D)):
        for spec in FILTERS:
            _assert_same(classify_episode(_episode(shuffled, queries), kernel, spec),
                         classify_episode(_episode(support, queries), kernel, spec))


# Scale covariance holds to the oracle bound for alpha in [0.1, 100]; the
# absolute eigensolver and eigenvalue tolerances break it outside that
# range (a Jacobi residual past 1e-8 below about 0.03, a spurious
# negative-eigenvalue error above about 1e3).
@PROPERTY
@given(seed=SEEDS, log_alpha=st.floats(-1.0, 2.0))
def test_identity_kernel_scale_covariance(seed, log_alpha):
    # d(alpha x; alpha^2 lambda) = alpha^2 d(x; lambda); zeta / alpha^2 keeps
    # the logits, and so the loss, unchanged
    alpha = 10.0 ** log_alpha
    support, queries = _random_episode(seed, WAY, SHOT, D)
    scaled = _episode(alpha * support, alpha * queries)
    for spec in FILTERS:
        policy = spec.lambda_policy
        if isinstance(policy, AbsoluteLambda):
            policy = AbsoluteLambda(alpha**2 * policy.value)
        _assert_same(classify_episode(scaled, IDENTITY, FilterSpec(spec.kind, policy),
                                      zeta=alpha**-2),
                     classify_episode(_episode(support, queries), IDENTITY, spec),
                     scale=alpha**2)
