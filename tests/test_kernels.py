"""Kernel evaluation and raw Gram construction."""

import numpy as np
import pytest

from conftest import IDENTITY, rbf_for
from oracles import kernel_eval
from protofilter import (
    ConfigurationError,
    DataError,
    DimensionMismatchError,
    KernelKind,
    KernelSpec,
    default_rbf_bandwidth,
    gram_query,
    gram_support,
    resolve_kernel,
)


class TestKernelEval:
    def test_identity_inner_product(self):
        assert kernel_eval(IDENTITY, [1.0, 2.0], [1.0, 2.0]) == 5.0

    def test_rbf_zero_distance(self):
        assert kernel_eval(KernelSpec(KernelKind.RBF, 2.0), [0.0, 0.0], [0.0, 0.0]) == 1.0

    def test_rbf_formula(self):
        value = kernel_eval(KernelSpec(KernelKind.RBF, 2.0), [0.0, 0.0], [2.0, 0.0])
        np.testing.assert_allclose(value, np.exp(-1.0), rtol=1e-12)

    def test_dimension_mismatch_names_both_lengths(self):
        with pytest.raises(DimensionMismatchError) as err:
            kernel_eval(IDENTITY, [1.0, 2.0], [1.0, 2.0, 3.0])
        assert err.value.expected == 2
        assert err.value.actual == 3
        assert "2" in str(err.value) and "3" in str(err.value)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelSpec(KernelKind.RBF, 0.0)
        with pytest.raises(ConfigurationError):
            KernelSpec(KernelKind.RBF, -2.0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_bandwidth_rejected(self, value):
        with pytest.raises(ConfigurationError, match="bandwidth_sq must be finite"):
            KernelSpec(KernelKind.RBF, value)

    def test_unresolved_rbf_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            kernel_eval(KernelSpec(KernelKind.RBF), [1.0], [2.0])

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(42)
        rbf = KernelSpec(KernelKind.RBF, 3.0)
        for _ in range(1000):
            d = int(rng.integers(1, 12))
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            assert kernel_eval(IDENTITY, x, y) == kernel_eval(IDENTITY, y, x)
            assert kernel_eval(rbf, x, y) == kernel_eval(rbf, y, x)


class TestGramSupport:
    def test_identity_example(self):
        np.testing.assert_array_equal(
            gram_support(IDENTITY, [[0.0, 0.0], [2.0, 0.0]]), [[0.0, 0.0], [0.0, 4.0]]
        )

    def test_rbf_single_point_is_one(self):
        np.testing.assert_array_equal(
            gram_support(KernelSpec(KernelKind.RBF, 7.0), [[1.0, 2.0]]), [[1.0]]
        )

    def test_orthonormal_vectors(self):
        np.testing.assert_allclose(
            gram_support(IDENTITY, [[1.0, 0.0], [0.0, 1.0]]), np.eye(2), atol=1e-15
        )

    def test_empty_support_rejected(self):
        with pytest.raises(DataError):
            gram_support(IDENTITY, [])

    def test_ragged_support_rejected(self):
        with pytest.raises(DataError):
            gram_support(IDENTITY, [[1.0, 2.0], [1.0]])

    def test_exactly_symmetric_and_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            d = int(rng.integers(1, 17))
            support = rng.standard_normal((n, d))
            for spec in (IDENTITY, rbf_for(d)):
                k = gram_support(spec, support)
                assert np.array_equal(k, k.T)
                assert np.linalg.eigvalsh(k).min() >= -1e-9

    def test_identity_matches_explicit_inner_products(self):
        rng = np.random.default_rng(11)
        support = rng.standard_normal((6, 5))
        k = gram_support(IDENTITY, support)
        explicit = np.array(
            [[float(np.dot(a, b)) for b in support] for a in support]
        )
        np.testing.assert_allclose(k, explicit, atol=1e-12)

    def test_entries_match_kernel_eval(self):
        rng = np.random.default_rng(12)
        support = rng.standard_normal((5, 4))
        for spec in (IDENTITY, rbf_for(4)):
            k = gram_support(spec, support)
            for i in range(5):
                for j in range(5):
                    np.testing.assert_allclose(
                        k[i, j], kernel_eval(spec, support[i], support[j]), atol=1e-12
                    )

    def test_rbf_entries_in_unit_interval(self):
        rng = np.random.default_rng(13)
        support = rng.standard_normal((8, 3))
        k = gram_support(rbf_for(3), support)
        assert np.all(k > 0.0)
        assert np.all(k <= 1.0)
        np.testing.assert_array_equal(np.diag(k), np.ones(8))


class TestGramQuery:
    def test_identity_example(self):
        kappa, k_qq = gram_query(IDENTITY, [[0.0, 0.0], [2.0, 0.0]], [2.0, 1.0])
        np.testing.assert_array_equal(kappa, [0.0, 4.0])
        assert k_qq == 5.0

    def test_rbf_query_equals_support_point(self):
        support = np.array([[1.0, -2.0], [0.5, 3.0]])
        kappa, k_qq = gram_query(rbf_for(2), support, support[0])
        assert kappa[0] == 1.0
        assert k_qq == 1.0

    def test_identity_single_support(self):
        kappa, k_qq = gram_query(IDENTITY, [[1.0, 1.0]], [-1.0, -1.0])
        np.testing.assert_array_equal(kappa, [-2.0])
        assert k_qq == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            gram_query(IDENTITY, [[1.0, 2.0]], [1.0, 2.0, 3.0])

    def test_entries_match_kernel_eval(self):
        rng = np.random.default_rng(14)
        support = rng.standard_normal((6, 4))
        query = rng.standard_normal(4)
        for spec in (IDENTITY, rbf_for(4)):
            kappa, k_qq = gram_query(spec, support, query)
            for i in range(6):
                np.testing.assert_allclose(
                    kappa[i], kernel_eval(spec, support[i], query), atol=1e-12
                )
            np.testing.assert_allclose(k_qq, kernel_eval(spec, query, query), atol=1e-12)


class TestBandwidthPolicy:
    def test_default_is_the_dimension(self):
        assert default_rbf_bandwidth(16) == 16.0

    def test_resolve_fills_rbf_default(self):
        resolved = resolve_kernel(KernelSpec(KernelKind.RBF), 8)
        assert resolved.bandwidth_sq == 8.0

    def test_resolve_keeps_explicit_bandwidth(self):
        resolved = resolve_kernel(KernelSpec(KernelKind.RBF, 2.5), 8)
        assert resolved.bandwidth_sq == 2.5

    def test_resolve_identity_untouched(self):
        assert resolve_kernel(IDENTITY, 8) == IDENTITY

