"""Filtered distances, reference paths, probabilities, and episode
classification."""

import numpy as np
import pytest

from conftest import (
    FIXTURE_QUERY,
    FIXTURE_SUPPORT,
    IDENTITY,
    centered_pieces,
    kernel_distance,
    random_instance,
    rbf_for,
    rel_close,
)
from oracles import dsn_distance, explicit_feature_distance, protonet_distance, replicated_matrix_distance
from protofilter import (
    AbsoluteLambda,
    ConfigurationError,
    DataError,
    Episode,
    FilterKind,
    FilterSpec,
    Jitter,
    NumericalError,
    ProtofilterError,
    RelativeToMaxEigenvalue,
    apply_one_shot_policy,
    center_cross,
    center_support,
    centered_query_norm,
    class_probabilities,
    classify_episode,
    distance_sq,
    episode_loss,
    gram_query,
    gram_support,
    resolve_lambda,
    shrinkage_weights,
    symmetric_eig,
)
from protofilter import classifier

TIK2 = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(2.0))
TSVD1 = FilterSpec(FilterKind.TRUNCATED_SVD, AbsoluteLambda(1.0))
ZERO = FilterSpec(FilterKind.ZERO, AbsoluteLambda(0.0))
LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
# every filter under both shrinkage policies
FILTER_GRID = tuple(
    FilterSpec(kind, policy)
    for kind in FilterKind
    for policy in (AbsoluteLambda(0.5), RelativeToMaxEigenvalue(0.1))
)


def _fixture_coords_sq():
    """Squared eigen-coordinates of the fixture's cross vector, its
    eigensystem and its query norm."""
    _, _, _, ktilde, cross, q_norm = centered_pieces(IDENTITY, FIXTURE_SUPPORT, FIXTURE_QUERY)
    system = symmetric_eig(ktilde)
    return np.square(cross @ system.vectors), system, q_norm


def _two_class_episode(rng, way=2, shot=3, queries=2, d=4):
    labels = tuple(f"k{i}" for i in range(way))
    support = tuple(rng.standard_normal((shot, d)) for _ in range(way))
    support_idx = tuple(
        tuple(range(c * shot, (c + 1) * shot)) for c in range(way)
    )
    m = way * queries
    base = way * shot
    return Episode(
        class_labels=labels,
        support=support,
        support_indices=support_idx,
        query_features=rng.standard_normal((m, d)),
        query_labels=np.repeat(np.arange(way), queries),
        query_indices=tuple(range(base, base + m)),
    )


class TestDistanceSq:
    def test_fixture_eigen_coordinates(self):
        # cross vector (-1, 1) against eigenvectors (1, -1)/sqrt2 (gamma = 2)
        # and (1, 1)/sqrt2 (gamma = 0)
        coords_sq, system, _ = _fixture_coords_sq()
        np.testing.assert_allclose(system.values, [2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(coords_sq, [2.0, 0.0], atol=1e-12)

    def test_zero_coefficients_return_query_norm(self):
        coords_sq, system, q_norm = _fixture_coords_sq()
        weights = shrinkage_weights(system, TIK2, 2.0)
        assert distance_sq(np.zeros(2), weights, q_norm) == q_norm
        assert distance_sq(coords_sq, np.zeros(2), q_norm) == q_norm

    def test_fixture_tikhonov(self):
        coords_sq, system, q_norm = _fixture_coords_sq()
        value = distance_sq(coords_sq, shrinkage_weights(system, TIK2, 2.0), q_norm)
        assert value == pytest.approx(1.25, abs=1e-12)

    def test_query_orthogonal_to_support_direction(self):
        # relative prototype (0, 1) is orthogonal to the support spread
        # direction (1, 0), so shrinkage removes nothing at any lambda
        query = np.array([1.0, 1.0])
        for lam in (0.01, 1.0, 50.0):
            spec = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(lam))
            value = kernel_distance(IDENTITY, FIXTURE_SUPPORT, query, spec, lam)
            assert value == pytest.approx(1.0, abs=1e-10)

    def test_one_shot_is_prototype_distance(self):
        # a single support point has an all-zero spectrum: every filter and
        # policy gives the prototype distance, including a relative policy,
        # which resolves lambda = gamma = 0
        support, query = [[1.0, 2.0, 3.0]], [0.0, 0.0, 0.0]
        expected = protonet_distance(support, query)
        relative = FilterSpec(FilterKind.TIKHONOV, RelativeToMaxEigenvalue(0.1))
        assert kernel_distance(IDENTITY, support, query, relative) == expected
        for spec in FILTER_GRID:
            assert kernel_distance(IDENTITY, support, query, spec) == expected

    def test_tiny_negative_clamps(self):
        assert distance_sq([1.0], [2e-10], 0.0) == 0.0

    def test_large_negative_raises(self):
        with pytest.raises(NumericalError):
            distance_sq([1.0], [1.0], 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            distance_sq([1.0, 2.0], [1.0, 2.0, 3.0], 0.0)
        with pytest.raises(DataError):
            distance_sq([1.0, 2.0], np.eye(2), 0.0)


class TestExplicitFeatureDistance:
    def test_single_support_reduces_to_plain_distance(self):
        support = np.array([[1.0, 2.0]])
        query = np.array([3.0, 4.0])
        for lam in (0.01, 1.0, 100.0):
            spec = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(lam))
            assert explicit_feature_distance(support, query, spec, lam) == pytest.approx(
                8.0, abs=1e-12
            )

    def test_fixture_tikhonov(self):
        assert explicit_feature_distance(
            FIXTURE_SUPPORT, FIXTURE_QUERY, TIK2, 2.0
        ) == pytest.approx(1.25, abs=1e-12)

    def test_fixture_truncated_svd(self):
        assert explicit_feature_distance(
            FIXTURE_SUPPORT, FIXTURE_QUERY, TSVD1, 1.0
        ) == pytest.approx(1.0, abs=1e-12)


class TestProtonetDistance:
    def test_fixture(self):
        assert protonet_distance(FIXTURE_SUPPORT, FIXTURE_QUERY) == pytest.approx(2.0)

    def test_query_at_prototype(self):
        assert protonet_distance(FIXTURE_SUPPORT, [1.0, 0.0]) == 0.0

    def test_single_point(self):
        assert protonet_distance([[1.0, 1.0]], [1.0, 1.0]) == 0.0

    def test_empty_support_rejected(self):
        with pytest.raises(DataError):
            protonet_distance([], [1.0])


class TestDsnDistance:
    def test_zero_subspace_equals_protonet(self):
        rng = np.random.default_rng(41)
        support, query = random_instance(rng)
        assert dsn_distance(support, query, 0) == pytest.approx(
            protonet_distance(support, query), abs=1e-12
        )

    def test_fixture_rank_one(self):
        assert dsn_distance(FIXTURE_SUPPORT, FIXTURE_QUERY, 1) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_relative_prototype_unchanged(self):
        query = np.array([1.0, 1.0])
        assert dsn_distance(FIXTURE_SUPPORT, query, 1) == pytest.approx(
            protonet_distance(FIXTURE_SUPPORT, query), abs=1e-12
        )

    def test_rank_overflow_rejected(self):
        with pytest.raises(ConfigurationError):
            dsn_distance(FIXTURE_SUPPORT, FIXTURE_QUERY, 2)  # centered rank is 1


class TestClassProbabilities:
    def test_equal_distances_split_evenly(self):
        np.testing.assert_allclose(class_probabilities([1.0, 1.0], 1.0), [0.5, 0.5], atol=1e-15)

    def test_log_four_gap(self):
        probs = class_probabilities([0.0, np.log(4.0)], 1.0)
        np.testing.assert_allclose(probs, [0.8, 0.2], atol=1e-12)

    def test_flat_limit_for_tiny_zeta(self):
        probs = class_probabilities([3.0, 17.0, 0.4, 8.0], 1e-12)
        np.testing.assert_allclose(probs, 0.25, atol=1e-9)

    def test_sums_to_one_and_positive(self):
        # gaps kept small enough that exp(-zeta * gap) stays representable;
        # beyond that float64 saturates to exactly 0 and 1
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = rng.uniform(0.0, 5.0, size=int(rng.integers(2, 9)))
            probs = class_probabilities(d, float(rng.uniform(0.1, 5.0)))
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_extreme_distances_stay_finite(self):
        probs = class_probabilities([0.0, 1e6], 100.0)
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0)

    def test_nonpositive_zeta_rejected(self):
        with pytest.raises(ConfigurationError):
            class_probabilities([1.0, 2.0], 0.0)

    @pytest.mark.parametrize("zeta", [float("inf"), float("nan")])
    def test_non_finite_zeta_rejected(self, zeta):
        with pytest.raises(ConfigurationError, match="finite"):
            class_probabilities([1.0, 2.0], zeta)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            class_probabilities([1.0], 1.0)

    def test_non_finite_distances_rejected(self):
        with pytest.raises(NumericalError):
            class_probabilities([1.0, np.inf], 1.0)


class TestEpisodeLoss:
    def test_perfect_predictions(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert episode_loss(probs, np.array([0, 1])) == 0.0

    def test_one_over_e(self):
        probs = np.array([[np.exp(-1.0), 1.0 - np.exp(-1.0)]])
        assert episode_loss(probs, np.array([0])) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_five_way(self):
        probs = class_probabilities(np.ones(5), 1.0)[None, :].repeat(3, axis=0)
        assert episode_loss(probs, np.array([0, 3, 4])) == pytest.approx(np.log(5.0), abs=1e-12)

    def test_zero_probability_at_true_label_raises(self):
        with pytest.raises(NumericalError):
            episode_loss(np.array([[1.0, 0.0]]), np.array([1]))


class TestClassifyEpisode:
    def test_queries_at_prototypes_are_perfect(self):
        support_a = np.array([[0.0, 0.0], [0.0, 2.0]])
        support_b = np.array([[4.0, 0.0], [4.0, 2.0]])
        episode = Episode(
            class_labels=("a", "b"),
            support=(support_a, support_b),
            support_indices=((0, 1), (2, 3)),
            query_features=np.array([[0.0, 1.0], [4.0, 1.0]]),
            query_labels=np.array([0, 1]),
            query_indices=(4, 5),
        )
        result = classify_episode(episode, IDENTITY, TIK2, zeta=1.0)
        np.testing.assert_array_equal(result.predicted, [0, 1])
        assert result.probs[0, 0] > 0.5
        assert result.probs[1, 1] > 0.5
        assert result.dist_sq[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_one_shot_without_augmentation_matches_protonet(self):
        rng = np.random.default_rng(43)
        episode = _two_class_episode(rng, way=3, shot=1, queries=2, d=5)
        tik = classify_episode(episode, IDENTITY, FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(1.0)))
        zero = classify_episode(episode, IDENTITY, ZERO)
        np.testing.assert_array_equal(tik.predicted, zero.predicted)
        np.testing.assert_allclose(tik.dist_sq, zero.dist_sq, atol=1e-12)
        for l in range(episode.query_features.shape[0]):
            for c in range(episode.way):
                expected = protonet_distance(episode.support[c], episode.query_features[l])
                assert tik.dist_sq[l, c] == pytest.approx(expected, abs=1e-9)

    def test_zero_filter_distances_equal_protonet(self):
        rng = np.random.default_rng(44)
        episode = _two_class_episode(rng, way=5, shot=5, queries=2, d=6)
        result = classify_episode(episode, IDENTITY, ZERO)
        for l in range(episode.query_features.shape[0]):
            for c in range(5):
                expected = protonet_distance(episode.support[c], episode.query_features[l])
                assert result.dist_sq[l, c] == pytest.approx(expected, abs=1e-9)

    def test_matches_scalar_operation_composition(self):
        rng = np.random.default_rng(45)
        episode = _two_class_episode(rng, way=3, shot=4, queries=2, d=5)
        m = episode.query_features.shape[0]
        for spec in (IDENTITY, rbf_for(5)):
            for filter_spec in FILTER_GRID:
                result = classify_episode(episode, spec, filter_spec)
                expected = np.array([
                    [kernel_distance(spec, episode.support[c], episode.query_features[l],
                                     filter_spec) for c in range(3)]
                    for l in range(m)
                ])
                np.testing.assert_allclose(result.dist_sq, expected, rtol=1e-12, atol=0.0)
                np.testing.assert_array_equal(result.predicted, expected.argmin(axis=1))

    def test_errors_carry_class_context(self):
        rng = np.random.default_rng(46)
        episode = _two_class_episode(rng)
        bad = FilterSpec(FilterKind.TRUNCATED_SVD, AbsoluteLambda(0.0))
        with pytest.raises(ConfigurationError) as err:
            classify_episode(episode, IDENTITY, bad)
        assert "class 0" in str(err.value)

    def test_block_errors_carry_class_and_row(self, monkeypatch):
        rng = np.random.default_rng(57)
        episode = _two_class_episode(rng, way=3, shot=3, queries=2, d=4)
        real = classifier.gram_query
        calls = []

        def corrupted(spec, support, queries):
            kappa, k_qq = real(spec, support, queries)
            calls.append(spec)
            if len(calls) == 2:  # classes are visited in order: this is class 1
                k_qq = k_qq.copy()
                k_qq[4] -= 1e3  # drives query 4's centered norm negative
            return kappa, k_qq

        monkeypatch.setattr(classifier, "gram_query", corrupted)
        with pytest.raises(NumericalError) as err:
            classify_episode(episode, IDENTITY, TIK2)
        assert "class 1 (k1)" in str(err.value)
        assert "row 4" in str(err.value)

    def test_one_shot_every_filter_and_policy(self):
        rng = np.random.default_rng(58)
        episode = _two_class_episode(rng, way=3, shot=1, queries=2, d=5)
        jittered = apply_one_shot_policy(episode, Jitter(0.1), rng)
        for spec in (IDENTITY, rbf_for(5)):
            zero = classify_episode(episode, spec, ZERO)
            zero_jittered = classify_episode(jittered, spec, ZERO)
            for filter_spec in FILTER_GRID:
                plain = classify_episode(episode, spec, filter_spec)
                np.testing.assert_array_equal(plain.dist_sq, zero.dist_sq)
                np.testing.assert_array_equal(plain.probs, zero.probs)
                shrunk = classify_episode(jittered, spec, filter_spec)
                assert np.all(shrunk.dist_sq >= 0.0)
                assert np.all(shrunk.dist_sq <= zero_jittered.dist_sq + 1e-12)


    @pytest.mark.parametrize("zeta", [1.0, 300.0])
    @pytest.mark.parametrize("fault", [None, "query_norm", "distance"])
    def test_shared_pass_matches_each_filter_alone(self, monkeypatch, zeta, fault):
        rng = np.random.default_rng(59)
        episode = _two_class_episode(rng, way=3, shot=3, queries=2, d=4)
        # the one filter that fails at class 0: centering leaves a zero eigenvalue
        failing = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(0.0))
        filters = FILTER_GRID + (failing,)
        if fault == "query_norm":  # a shared stage fails at class 0, after the filter stage
            real_query = classifier.gram_query

            def corrupted(spec, support, queries):
                # class 0 comes first in every pass and its corruption ends
                # the pass, so every call made is class 0's
                kappa, k_qq = real_query(spec, support, queries)
                k_qq = k_qq - 1e3
                return kappa, k_qq

            monkeypatch.setattr(classifier, "gram_query", corrupted)
            failing, filters = None, FILTER_GRID
        if fault == "distance":  # only the zero filter fails, at class 0
            real_distance = classifier.distance_sq

            def zero_fails(coords_sq, weights, query_norm):
                if not np.any(weights):
                    raise NumericalError("zero weights")
                return real_distance(coords_sq, weights, query_norm)

            monkeypatch.setattr(classifier, "distance_sq", zero_fails)
            failing = ZERO
            filters = (TIK2, ZERO, FilterSpec(FilterKind.TRUNCATED_SVD, RelativeToMaxEigenvalue(0.1)))

        def outcome(group, spec):
            try:
                return classifier.classify_filters(episode, spec, group, zeta)
            except ProtofilterError as exc:
                return type(exc), str(exc)

        succeeded = 0
        for spec in (IDENTITY, rbf_for(4)):
            own = {f: outcome([f], spec) for f in filters}
            ok = [f for f in filters if isinstance(own[f], list)]
            results = classifier.classify_filters(episode, spec, ok, zeta) if ok else []
            for filter_spec, got in zip(ok, results):
                (want,) = own[filter_spec]
                np.testing.assert_array_equal(got.dist_sq, want.dist_sq)
                np.testing.assert_array_equal(got.probs, want.probs)
                np.testing.assert_array_equal(got.predicted, want.predicted)
                assert got.loss == want.loss
            succeeded += len(ok)
            shared = outcome(filters, spec)
            assert shared[0] is NumericalError and shared[1].startswith("class 0 (k0): ")
            if failing is None:  # a shared fault: every filter raises the same error alone
                assert all(own[f] == shared for f in filters)
            else:  # exactly one filter fails at a class: its own error raises
                assert shared == own[failing]
        assert succeeded >= (0 if fault == "query_norm" else 2)
        if fault == "distance":
            assert shared == (NumericalError, "class 0 (k0): zero weights")


class TestQueryBlocks:
    """Every per-query function takes an (m, ...) block; each row of the
    result is what a 1-D call on that row returns.  Every stage function
    also takes a stack with leading axes; each slice of the result is
    bitwise what a call on that slice returns."""

    def test_block_equals_stacked_rows(self):
        rng = np.random.default_rng(59)
        support = rng.standard_normal((5, 4))
        queries = rng.standard_normal((6, 4))
        for spec in (IDENTITY, rbf_for(4)):
            k_ss = gram_support(spec, support)
            ktilde = center_support(k_ss)
            system = symmetric_eig(ktilde)
            for filter_spec in FILTER_GRID:
                lam = resolve_lambda(filter_spec.lambda_policy, system)
                w = shrinkage_weights(system, filter_spec, lam)
                rows = []
                for q in queries:
                    kappa, k_qq = gram_query(spec, support, q)
                    b = center_cross(k_ss, kappa)
                    qn = centered_query_norm(k_ss, kappa, k_qq)
                    c2 = np.square(b @ system.vectors)
                    d = distance_sq(c2, w, qn)
                    assert isinstance(k_qq, float) and isinstance(qn, float)
                    assert isinstance(d, float)
                    rows.append((kappa, k_qq, b, qn, c2, d))
                kappa, k_qq = gram_query(spec, support, queries)
                b = center_cross(k_ss, kappa)
                qn = centered_query_norm(k_ss, kappa, k_qq)
                c2 = np.square(b @ system.vectors)
                d = distance_sq(c2, w, qn)
                for block, stacked in zip((kappa, k_qq, b, qn, c2, d), zip(*rows)):
                    stacked = np.array(stacked)
                    assert block.shape == stacked.shape
                    np.testing.assert_allclose(
                        block, stacked, rtol=1e-12, atol=1e-12 * np.abs(stacked).max()
                    )

    @pytest.mark.parametrize("kernel", ["identity", "rbf"])
    def test_stack_equals_per_slice_calls(self, kernel):
        rng = np.random.default_rng(61)
        spec = IDENTITY if kernel == "identity" else rbf_for(4)
        axes = (2, 3)
        support = rng.standard_normal((*axes, 5, 4))
        support[1, 2] = support[1, 2, 0]  # an all-zero centered spectrum
        queries = rng.standard_normal((*axes, 6, 4))
        k_ss = gram_support(spec, support)
        ktilde = center_support(k_ss)
        system = symmetric_eig(ktilde)
        kappa, k_qq = gram_query(spec, support, queries)
        b = center_cross(k_ss, kappa)
        qn = centered_query_norm(k_ss, kappa, k_qq)
        c2 = np.square(b @ system.vectors)
        assert not system.values[1, 2].any() and system.values[0, 0].any()
        slices = {}
        for i in np.ndindex(axes):
            s_k = gram_support(spec, support[i])
            s_system = symmetric_eig(center_support(s_k))
            s_kappa, s_qq = gram_query(spec, support[i], queries[i])
            s_b = center_cross(s_k, s_kappa)
            slices[i] = (s_system, np.square(s_b @ s_system.vectors),
                         centered_query_norm(s_k, s_kappa, s_qq))
            for block, piece in ((k_ss, s_k), (ktilde, center_support(s_k)),
                                 (system.values, s_system.values),
                                 (system.vectors, s_system.vectors),
                                 (kappa, s_kappa), (k_qq, s_qq), (b, s_b)):
                np.testing.assert_array_equal(block[i], piece)
        labels = np.arange(6) % 3
        zetas = np.array([0.5, 2.0])
        for filter_spec in FILTER_GRID:
            lam = resolve_lambda(filter_spec.lambda_policy, system)
            w = shrinkage_weights(system, filter_spec, lam)
            d = distance_sq(c2, w, qn)
            # the stack's second axis as three classes of one query block
            probs = class_probabilities(np.moveaxis(d, 1, 2), zetas)
            loss = episode_loss(probs, labels)
            for i in np.ndindex(axes):
                s_system, s_c2, s_qn = slices[i]
                s_lam = resolve_lambda(filter_spec.lambda_policy, s_system)
                s_w = shrinkage_weights(s_system, filter_spec, s_lam)
                np.testing.assert_array_equal(np.broadcast_to(lam, axes)[i], s_lam)
                np.testing.assert_array_equal(w[i], s_w)
                np.testing.assert_array_equal(d[i], distance_sq(s_c2, s_w, s_qn))
            for j, zeta in enumerate(zetas):
                s_probs = class_probabilities(d[j].T, zeta)
                np.testing.assert_array_equal(probs[j], s_probs)
                assert loss[j] == episode_loss(s_probs, labels)

    @pytest.mark.parametrize("kernel", ["identity", "rbf"])
    def test_stacked_scoring_equals_each_problem(self, kernel):
        rng = np.random.default_rng(62)
        spec = IDENTITY if kernel == "identity" else rbf_for(4)
        episode = _two_class_episode(rng, way=3, shot=3, queries=3, d=4)
        maps = rng.standard_normal((4, 4, 4))
        support = episode.support @ maps[:, None]
        queries = episode.query_features @ maps
        zetas = np.array([0.5, 1.0, 2.0, 4.0])
        stacked = classifier.score_filters(support, queries, episode.query_labels,
                                           episode.class_labels, spec, FILTER_GRID, zetas)
        for k, zeta in enumerate(zetas):
            alone = classifier.score_filters(support[k], queries[k], episode.query_labels,
                                             episode.class_labels, spec, FILTER_GRID, zeta)
            for got, want in zip(stacked, alone):
                for field in ("dist_sq", "probs", "predicted"):
                    np.testing.assert_array_equal(getattr(got, field)[k], getattr(want, field))
                assert got.loss[k] == want.loss

    def test_probabilities_block_equals_stacked_rows(self):
        rng = np.random.default_rng(60)
        dists = rng.uniform(0.0, 5.0, size=(7, 4))
        block = class_probabilities(dists, 0.8)
        stacked = np.array([class_probabilities(row, 0.8) for row in dists])
        np.testing.assert_allclose(block, stacked, rtol=1e-15, atol=0.0)

    def test_block_checks_name_first_bad_row(self):
        # rows 2 and 3 fail; the message names row 2, the first
        with pytest.raises(NumericalError, match="row 2"):
            centered_query_norm([[1.0]], [[1.0]] * 4, [1.0, 1.0, 1.0 - 1e-6, 0.0])
        with pytest.raises(NumericalError, match="row 1"):
            distance_sq([[0.0], [1.0]], [1.0], [0.0, 0.0])
        with pytest.raises(NumericalError, match="row 3 must"):
            class_probabilities([[1.0, 2.0]] * 3 + [[np.nan, 1.0]], 1.0)
        # a stack names the query row of its first failing entry: (0, 2), not (1, 1)
        with pytest.raises(NumericalError, match="row 2 is"):
            centered_query_norm([[[1.0]]] * 2, [[[1.0]] * 3] * 2,
                                [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        with pytest.raises(NumericalError, match="row 2 is"):
            distance_sq([[[0.0], [0.0], [1.0]], [[1.0], [0.0], [0.0]]], [[1.0], [1.0]],
                        np.zeros((2, 3)))
        distances = np.ones((2, 3, 2))
        distances[0, 2, 1] = distances[1, 1, 0] = np.inf
        with pytest.raises(NumericalError, match="row 2 must"):
            class_probabilities(distances, np.array([1.0, 1.0]))
        with pytest.raises(ConfigurationError, match="got -1.0"):
            class_probabilities(np.ones((2, 3, 2)), np.array([1.0, -1.0]))

    def test_block_clamps_each_row(self):
        value = centered_query_norm([[1.0]], [[1.0]] * 3, [1.0 - 5e-10, 1.0, 3.0])
        np.testing.assert_array_equal(value, [0.0, 0.0, 2.0])
        dist = distance_sq([[1.0], [0.0]], [2e-10], [0.0, 2.5])
        np.testing.assert_array_equal(dist, [0.0, 2.5])

    def test_block_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            centered_query_norm([[1.0]], [[1.0]] * 3, [1.0, 1.0])
        with pytest.raises(DataError):
            distance_sq(np.zeros((3, 2)), np.ones(2), np.zeros(2))
        with pytest.raises(DataError):
            distance_sq(np.zeros((3, 2)), np.ones(2), 0.0)
        with pytest.raises(DataError):
            distance_sq(np.zeros((3, 3)), np.ones(2), np.zeros(3))
        # a stack's leading axes must match
        with pytest.raises(DataError):
            distance_sq(np.zeros((2, 3, 2)), np.ones((3, 2)), np.zeros((2, 3)))
        with pytest.raises(DataError):
            centered_query_norm(np.ones((2, 1, 1)), np.ones((3, 4, 1)), np.ones((3, 4)))
        with pytest.raises(DataError):
            gram_query(IDENTITY, np.ones((2, 3, 4)), np.ones(4))
        with pytest.raises(DataError):
            class_probabilities(np.ones((2, 3, 2)), np.ones(3))


class TestReplicatedMatrixDistance:
    def test_single_support_scalar_arithmetic(self):
        support = np.array([[1.0, 2.0, -1.0]])
        query = np.array([0.5, -0.5, 2.0])
        k_ss = float(support[0] @ support[0])
        k_qs = float(support[0] @ query)
        k_qq = float(query @ query)
        value = replicated_matrix_distance(support, query, IDENTITY, TIK2, 2.0)
        assert value == pytest.approx(k_qq + k_ss - 2.0 * k_qs, abs=1e-12)

    def test_agrees_with_gram_path_identity(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            support, query = random_instance(rng)
            lam = float(rng.choice(LAMBDA_GRID))
            spec = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(lam))
            direct = kernel_distance(IDENTITY, support, query, spec, lam)
            literal = replicated_matrix_distance(support, query, IDENTITY, spec, lam)
            assert abs(direct - literal) <= 1e-10

    def test_agrees_with_gram_path_rbf(self):
        rng = np.random.default_rng(48)
        for _ in range(100):
            support, query = random_instance(rng)
            kernel = rbf_for(support.shape[1])
            lam = float(rng.choice(LAMBDA_GRID))
            spec = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(lam))
            direct = kernel_distance(kernel, support, query, spec, lam)
            literal = replicated_matrix_distance(support, query, kernel, spec, lam)
            assert abs(direct - literal) <= 1e-10


class TestClassifierProperties:
    def test_gram_path_matches_explicit_features(self):
        rng = np.random.default_rng(49)
        for _ in range(100):
            support, query = random_instance(rng)
            lam = float(rng.choice(LAMBDA_GRID))
            spec = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(lam))
            direct = kernel_distance(IDENTITY, support, query, spec, lam)
            oracle = explicit_feature_distance(support, query, spec, lam)
            assert abs(direct - oracle) <= 1e-8 * (1.0 + oracle)

    def test_zero_filter_reduces_to_protonet(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            support, query = random_instance(rng)
            direct = kernel_distance(IDENTITY, support, query, ZERO, 0.0)
            assert abs(direct - protonet_distance(support, query)) <= 1e-9

    def test_truncated_svd_reduces_to_subspace_distance(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            support, query = random_instance(rng)
            centered = support - support.mean(axis=0)
            values = np.sort(np.linalg.eigvalsh(centered.T @ centered))[::-1]
            values = values[values > 1e-10 * max(values[0], 1.0)]
            rank = len(values)
            for k in range(rank + 1):
                if k == 0:
                    lam = 2.0 * values[0]
                elif k == rank:
                    lam = 0.5 * values[-1]
                else:
                    if values[k] >= 0.999 * values[k - 1]:
                        continue  # no strict gap to place lambda in
                    lam = float(np.sqrt(values[k - 1] * values[k]))
                spec = FilterSpec(FilterKind.TRUNCATED_SVD, AbsoluteLambda(lam))
                direct = kernel_distance(IDENTITY, support, query, spec, lam)
                assert abs(direct - dsn_distance(support, query, k)) <= 1e-8

    def test_tikhonov_limits(self):
        rng = np.random.default_rng(52)
        for _ in range(40):
            support, query = random_instance(rng)
            _, _, _, ktilde, _, q_norm = centered_pieces(IDENTITY, support, query)
            values = symmetric_eig(ktilde).values
            top = float(values[0])
            smallest_nonzero = float(values[values > 0.0].min())
            zero_dist = kernel_distance(IDENTITY, support, query, ZERO, 0.0)
            big = 1e12 * top
            tik = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(big))
            heavy = kernel_distance(IDENTITY, support, query, tik, big)
            assert rel_close(heavy, zero_dist, q_norm)
            small = 1e-12 * top
            tik_small = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(small))
            light = kernel_distance(IDENTITY, support, query, tik_small, small)
            tsvd_lam = 0.5 * smallest_nonzero
            tsvd = FilterSpec(FilterKind.TRUNCATED_SVD, AbsoluteLambda(tsvd_lam))
            full_rank = kernel_distance(IDENTITY, support, query, tsvd, tsvd_lam)
            assert rel_close(light, full_rank, q_norm)

    def test_tikhonov_distance_bounded_by_query_norm(self):
        rng = np.random.default_rng(53)
        for trial in range(60):
            support, query = random_instance(rng)
            d = support.shape[1]
            kernel = rbf_for(d) if trial % 2 else IDENTITY
            lam = float(rng.choice(LAMBDA_GRID))
            spec = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(lam))
            _, _, _, _, _, q_norm = centered_pieces(kernel, support, query)
            value = kernel_distance(kernel, support, query, spec, lam)
            assert 0.0 <= value <= q_norm + 1e-9

    def test_prediction_invariant_to_zeta_scale(self):
        # factors kept within the range where the saturated softmax still
        # leaves the true-class probability representable
        rng = np.random.default_rng(54)
        episode = _two_class_episode(rng, way=4, shot=3, queries=3, d=5)
        spec = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(1.0))
        base = classify_episode(episode, IDENTITY, spec, zeta=0.7)
        for factor in (0.01, 3.0, 10.0):
            scaled = classify_episode(episode, IDENTITY, spec, zeta=0.7 * factor)
            np.testing.assert_array_equal(base.predicted, scaled.predicted)

    def test_support_permutation_leaves_distance(self):
        rng = np.random.default_rng(55)
        for trial in range(30):
            support, query = random_instance(rng, n=6)
            d = support.shape[1]
            kernel = rbf_for(d) if trial % 2 else IDENTITY
            spec = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(0.5))
            base = kernel_distance(kernel, support, query, spec, 0.5)
            perm = rng.permutation(6)
            permuted = kernel_distance(kernel, support[perm], query, spec, 0.5)
            assert abs(base - permuted) <= 1e-10

    def test_distance_invariant_to_eigenspace_basis(self):
        # the centered Gram of a regular simplex is (I - 11^T/n) times a
        # scale: one eigenvalue repeated n - 1 times.  The distance depends
        # on the eigenspace, not on the basis an eigensolver picks in it.
        rng = np.random.default_rng(56)
        support = 3.0 * np.eye(5) + rng.standard_normal(5)
        queries = rng.standard_normal((4, 5))
        for spec in (IDENTITY, rbf_for(5)):
            k_ss = gram_support(spec, support)
            kappa, k_qq = gram_query(spec, support, queries)
            cross = center_cross(k_ss, kappa)
            q_norm = centered_query_norm(k_ss, kappa, k_qq)
            system = symmetric_eig(center_support(k_ss))
            repeated = system.values > 0.0
            assert np.ptp(system.values[repeated]) <= 1e-9 * system.max_value
            assert np.count_nonzero(repeated) == 4
            weights = shrinkage_weights(system, TIK2, 2.0)
            base = distance_sq(np.square(cross @ system.vectors), weights, q_norm)
            rotation, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            vectors = system.vectors.copy()
            vectors[:, repeated] = vectors[:, repeated] @ rotation
            rotated = distance_sq(np.square(cross @ vectors), weights, q_norm)
            np.testing.assert_allclose(rotated, base, rtol=1e-12, atol=0.0)
