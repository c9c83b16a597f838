"""Centered Gram quantities and their identities."""

import numpy as np
import pytest

from conftest import FIXTURE_QUERY, FIXTURE_SUPPORT, IDENTITY, centered_pieces, random_instance, rbf_for
from protofilter import (
    DataError,
    DimensionMismatchError,
    NumericalError,
    center_cross,
    center_support,
    centered_query_norm,
    gram_query,
    gram_support,
)


class TestCenterSupport:
    def test_single_point_centers_to_zero(self):
        np.testing.assert_array_equal(center_support([[3.7]]), [[0.0]])

    def test_two_by_two_closed_form(self):
        # ((a - 2b + c) / 4) * [[1, -1], [-1, 1]] for [[a, b], [b, c]]
        np.testing.assert_allclose(
            center_support([[2.0, 1.0], [1.0, 2.0]]),
            [[0.5, -0.5], [-0.5, 0.5]],
            atol=1e-15,
        )

    def test_row_and_column_sums_vanish(self):
        rng = np.random.default_rng(21)
        m = rng.standard_normal((5, 7))
        k = m @ m.T
        centered = center_support(k)
        np.testing.assert_allclose(centered.sum(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(centered.sum(axis=1), 0.0, atol=1e-9)

    def test_result_exactly_symmetric(self):
        rng = np.random.default_rng(22)
        m = rng.standard_normal((6, 6))
        centered = center_support(m @ m.T)
        assert np.array_equal(centered, centered.T)

    def test_non_square_rejected(self):
        with pytest.raises(DataError):
            center_support(np.zeros((2, 3)))


class TestCenterCross:
    def test_single_support_gives_zero(self):
        np.testing.assert_array_equal(center_cross([[4.0]], [2.0]), [0.0])

    def test_fixture_value(self):
        k_ss = gram_support(IDENTITY, FIXTURE_SUPPORT)
        kappa, _ = gram_query(IDENTITY, FIXTURE_SUPPORT, FIXTURE_QUERY)
        np.testing.assert_allclose(center_cross(k_ss, kappa), [-1.0, 1.0], atol=1e-12)

    def test_row_mean_plus_constant_cancels(self):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((4, 4))
        k = m @ m.T
        kappa = k.mean(axis=1) + 3.25
        np.testing.assert_allclose(center_cross(k, kappa), 0.0, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            center_cross(np.eye(3), [1.0, 2.0])


class TestCenteredQueryNorm:
    def test_single_support_distance(self):
        k_ss = gram_support(IDENTITY, [[0.0, 0.0]])
        kappa, k_qq = gram_query(IDENTITY, [[0.0, 0.0]], [1.0, 0.0])
        assert centered_query_norm(k_ss, kappa, k_qq) == 1.0

    def test_query_at_support_point_is_zero(self):
        point = np.array([[1.5, -2.0]])
        k_ss = gram_support(IDENTITY, point)
        kappa, k_qq = gram_query(IDENTITY, point, point[0])
        assert centered_query_norm(k_ss, kappa, k_qq) == 0.0

    def test_fixture_value(self):
        k_ss = gram_support(IDENTITY, FIXTURE_SUPPORT)
        kappa, k_qq = gram_query(IDENTITY, FIXTURE_SUPPORT, FIXTURE_QUERY)
        assert centered_query_norm(k_ss, kappa, k_qq) == pytest.approx(2.0, abs=1e-12)

    def test_tiny_negative_clamps_to_zero(self):
        # value = k_qq + grandmean - 2 mean(kappa) = -5e-10
        assert centered_query_norm([[1.0]], [1.0], 1.0 - 5e-10) == 0.0

    def test_large_negative_raises(self):
        with pytest.raises(NumericalError):
            centered_query_norm([[1.0]], [1.0], 1.0 - 1e-6)


class TestExplicitFeatureAgreement:
    def test_identity_kernel_matches_explicit_features(self):
        rng = np.random.default_rng(24)
        for _ in range(60):
            support, query = random_instance(rng, n=int(rng.integers(2, 9)), d=int(rng.integers(2, 17)))
            _, _, _, ktilde, cross, q_norm = centered_pieces(IDENTITY, support, query)
            mean = support.mean(axis=0)
            centered = support - mean
            rel = query - mean
            np.testing.assert_allclose(ktilde, centered @ centered.T, atol=1e-10)
            np.testing.assert_allclose(cross, centered @ rel, atol=1e-10)
            np.testing.assert_allclose(q_norm, float(rel @ rel), atol=1e-10)


class TestReplicatedMatrixEquivalence:
    def test_full_matrix_centering_matches_compact(self):
        rng = np.random.default_rng(25)
        for trial in range(40):
            support, query = random_instance(rng)
            d = support.shape[1]
            spec = rbf_for(d) if trial % 2 else IDENTITY
            k_ss, kappa, k_qq, ktilde, cross, q_norm = centered_pieces(spec, support, query)
            n = support.shape[0]
            averager = np.full((n, n), 1.0 / n)
            weights = np.full(n, 1.0 / n)
            k_qs = np.tile(kappa[:, None], (1, n))
            k_qq_mat = np.full((n, n), k_qq)
            literal_ss = k_ss - averager @ k_ss - k_ss @ averager + averager @ k_ss @ averager
            literal_qs = k_qs - averager @ k_qs - k_ss + averager @ k_ss
            literal_qq = k_qq_mat + k_ss - k_qs - k_qs.T
            np.testing.assert_allclose(ktilde, literal_ss, atol=1e-12)
            np.testing.assert_allclose(cross, literal_qs @ weights, atol=1e-12)
            np.testing.assert_allclose(q_norm, float(weights @ literal_qq @ weights), atol=1e-12)


class TestPermutationEquivariance:
    def test_support_permutation(self):
        rng = np.random.default_rng(26)
        support, query = random_instance(rng, n=6, d=5)
        perm = rng.permutation(6)
        for spec in (IDENTITY, rbf_for(5)):
            _, _, _, ktilde, cross, q_norm = centered_pieces(spec, support, query)
            _, _, _, ktilde_p, cross_p, q_norm_p = centered_pieces(spec, support[perm], query)
            np.testing.assert_allclose(ktilde_p, ktilde[np.ix_(perm, perm)], atol=1e-12)
            np.testing.assert_allclose(cross_p, cross[perm], atol=1e-12)
            assert q_norm_p == pytest.approx(q_norm, abs=1e-12)


class TestCrossVectorRange:
    def test_cross_has_no_null_space_component(self):
        rng = np.random.default_rng(27)
        for trial in range(40):
            # n > d + 1 guarantees a nontrivial null space for the identity kernel
            support, query = random_instance(rng, n=7, d=3)
            spec = rbf_for(3) if trial % 2 else IDENTITY
            _, _, _, ktilde, cross, _ = centered_pieces(spec, support, query)
            values, vectors = np.linalg.eigh(ktilde)
            null = vectors[:, values < 1e-10]
            projected = null.T @ cross
            assert np.linalg.norm(projected) <= 1e-7 * np.linalg.norm(cross) + 1e-12


class TestCenteredGramBundle:
    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(28)
        for trial in range(30):
            support, query = random_instance(rng)
            d = support.shape[1]
            spec = rbf_for(d) if trial % 2 else IDENTITY
            k_ss = gram_support(spec, support)
            kappa, k_qq = gram_query(spec, support, query)
            ktilde = center_support(k_ss)
            assert np.array_equal(ktilde, ktilde.T)
            assert np.linalg.eigvalsh(ktilde).min() >= -1e-9
            np.testing.assert_allclose(ktilde.sum(axis=0), 0.0, atol=1e-9)
            assert centered_query_norm(k_ss, kappa, k_qq) >= 0.0
