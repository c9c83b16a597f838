"""Jacobi eigendecomposition and the spectral filter family."""

import re

import numpy as np
import pytest

from conftest import IDENTITY, centered_pieces, kernel_distance, random_instance, rbf_for
from oracles import filter_weight
from protofilter import (
    AbsoluteLambda,
    ConfigurationError,
    DataError,
    EigenSystem,
    FilterKind,
    FilterSpec,
    NumericalError,
    RelativeToMaxEigenvalue,
    distance_sq,
    format_lambda_policy,
    parse_lambda_policy,
    resolve_lambda,
    shrinkage_weights,
    symmetric_eig,
)

TIKHONOV = FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(1.0))
TSVD = FilterSpec(FilterKind.TRUNCATED_SVD, AbsoluteLambda(1.0))
ZERO = FilterSpec(FilterKind.ZERO, AbsoluteLambda(0.0))


def _random_centered_psd(rng, n):
    m = rng.standard_normal((n, n + 2))
    k = m @ m.T
    h = np.eye(n) - np.full((n, n), 1.0 / n)
    return h @ k @ h


class TestSymmetricEig:
    def test_one_by_one(self):
        system = symmetric_eig([[0.0]])
        np.testing.assert_array_equal(system.values, [0.0])
        np.testing.assert_array_equal(system.vectors, [[1.0]])

    def test_two_by_two_closed_form(self):
        system = symmetric_eig([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(system.values, [2.0, 0.0], atol=1e-12)
        # sign convention: first largest-magnitude entry positive
        np.testing.assert_allclose(
            system.vectors[:, 0], [1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)], atol=1e-12
        )

    def test_reconstruction_orthonormality_ordering(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            k = _random_centered_psd(rng, n)
            system = symmetric_eig(k)
            recon = system.vectors @ np.diag(system.values) @ system.vectors.T
            assert np.max(np.abs(recon - 0.5 * (k + k.T))) <= 1e-8
            np.testing.assert_allclose(system.vectors.T @ system.vectors, np.eye(n), atol=1e-8)
            assert np.all(np.diff(system.values) <= 0.0)
            assert np.all(system.values >= 0.0)

    def test_small_values_clamped_to_exact_zero(self):
        k = _random_centered_psd(np.random.default_rng(32), 6)
        system = symmetric_eig(k)
        tiny = system.values[system.values < 1e-12]
        assert tiny.size >= 1  # centering guarantees a null direction
        assert np.all(tiny == 0.0)

    def test_deterministic(self):
        k = _random_centered_psd(np.random.default_rng(33), 7)
        first = symmetric_eig(k)
        second = symmetric_eig(k)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)

    def test_sign_convention(self):
        k = _random_centered_psd(np.random.default_rng(34), 6)
        system = symmetric_eig(k)
        for j in range(6):
            column = system.vectors[:, j]
            assert column[int(np.argmax(np.abs(column)))] > 0.0

    def test_non_symmetric_rejected(self):
        with pytest.raises(DataError):
            symmetric_eig([[0.0, 1.0], [0.0, 0.0]])

    def test_negative_definite_rejected(self):
        with pytest.raises(NumericalError):
            symmetric_eig([[-1.0]])


    def test_stack_runs_each_matrix(self):
        rng = np.random.default_rng(39)
        stack = np.stack([_random_centered_psd(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
        system = symmetric_eig(stack)
        assert system.values.shape == (2, 3, 4) and system.vectors.shape == (2, 3, 4, 4)
        for i in np.ndindex(2, 3):
            one = symmetric_eig(stack[i])
            np.testing.assert_array_equal(system.values[i], one.values)
            np.testing.assert_array_equal(system.vectors[i], one.vectors)
        np.testing.assert_array_equal(system.max_value, system.values[..., 0])

    def test_stack_raises_for_its_first_failing_matrix(self):
        psd = _random_centered_psd(np.random.default_rng(40), 3)
        asymmetric = np.triu(np.ones((3, 3)))
        with pytest.raises(NumericalError, match="not positive semidefinite"):
            symmetric_eig(np.stack([psd, -np.eye(3), asymmetric]))
        with pytest.raises(DataError, match="not symmetric"):
            symmetric_eig(np.stack([psd, asymmetric, -np.eye(3)]))
        with pytest.raises(DataError, match="square"):
            symmetric_eig(np.zeros((2, 3, 2)))


class TestFilterWeight:
    """The scalar filter function of the reference oracles."""

    def test_tikhonov(self):
        assert filter_weight(TIKHONOV, 2.0, 0.5) == pytest.approx(0.4, abs=1e-15)

    def test_truncated_svd_indicator(self):
        assert filter_weight(TSVD, 2.0, 1.0) == 0.5
        assert filter_weight(TSVD, 0.5, 1.0) == 0.0

    def test_zero_filter(self):
        assert filter_weight(ZERO, 2.0, 0.5) == 0.0
        assert filter_weight(ZERO, 0.0, 0.0) == 0.0

    def test_tikhonov_double_zero_raises(self):
        with pytest.raises(NumericalError):
            filter_weight(TIKHONOV, 0.0, 0.0)

    def test_tikhonov_zero_eigenvalue_kept(self):
        assert filter_weight(TIKHONOV, 0.0, 2.0) == 0.5

    def test_truncated_svd_needs_positive_lambda(self):
        with pytest.raises(ConfigurationError):
            filter_weight(TSVD, 1.0, 0.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(NumericalError):
            filter_weight(TIKHONOV, -1.0, 1.0)
        with pytest.raises(ConfigurationError):
            filter_weight(TIKHONOV, 1.0, -1.0)


class TestResolveLambda:
    def test_relative_to_max_eigenvalue(self):
        system = EigenSystem(np.array([2.0, 0.0]), np.eye(2))
        assert resolve_lambda(RelativeToMaxEigenvalue(0.1), system) == pytest.approx(0.2)

    def test_absolute_ignores_spectrum(self):
        system = EigenSystem(np.array([123.0]), np.eye(1))
        assert resolve_lambda(AbsoluteLambda(1.0), system) == 1.0

    def test_relative_on_degenerate_spectrum(self):
        system = EigenSystem(np.array([0.0, 0.0]), np.eye(2))
        assert resolve_lambda(RelativeToMaxEigenvalue(10.0), system) == 0.0

    def test_negative_policy_values_rejected(self):
        with pytest.raises(ConfigurationError):
            AbsoluteLambda(-1.0)
        with pytest.raises(ConfigurationError):
            RelativeToMaxEigenvalue(-0.1)


class TestShrinkageWeights:
    def test_zero_filter_gives_zero_weights(self):
        system = symmetric_eig(_random_centered_psd(np.random.default_rng(35), 4))
        np.testing.assert_array_equal(shrinkage_weights(system, ZERO, 0.0), np.zeros(4))

    def test_two_by_two_closed_form(self):
        # gamma = (2, 0), lambda = 2: h = 1/4 and w = h (2 - gamma h) on the
        # nonzero eigenvalue; nothing to filter on the zero one
        system = symmetric_eig([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(shrinkage_weights(system, TIKHONOV, 2.0), [0.375, 0.0],
                                   rtol=1e-15, atol=0.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(36)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            system = symmetric_eig(_random_centered_psd(rng, n))
            nonzero = system.values > 0.0
            assert not nonzero.all()  # clamped null direction
            # relative=1 puts lambda at exactly the top eigenvalue, which
            # truncated SVD keeps
            policies = (AbsoluteLambda(0.0), AbsoluteLambda(0.3),
                        AbsoluteLambda(float(rng.uniform(0.0, 5.0))),
                        RelativeToMaxEigenvalue(0.1), RelativeToMaxEigenvalue(1.0))
            for kind in FilterKind:
                for policy in policies:
                    spec = FilterSpec(kind, policy)
                    lam = resolve_lambda(policy, system)
                    try:
                        fw = np.array([filter_weight(spec, float(g), lam) for g in system.values])
                    except (ConfigurationError, NumericalError) as exc:
                        with pytest.raises(type(exc), match=re.escape(str(exc))):
                            shrinkage_weights(system, spec, lam)
                        continue
                    got = shrinkage_weights(system, spec, lam)
                    # on a zero eigenvalue there is nothing to filter
                    np.testing.assert_array_equal(
                        got, np.where(nonzero, fw * (2.0 - system.values * fw), 0.0)
                    )
                    if kind is FilterKind.TRUNCATED_SVD and policy == RelativeToMaxEigenvalue(1.0):
                        assert got[0] == pytest.approx(1.0 / lam, rel=1e-15)

    def test_all_zero_spectrum_gives_zero_weights(self):
        # 1-shot: h is never evaluated, so lambda = gamma = 0 is no error
        system = symmetric_eig([[0.0]])
        for kind in FilterKind:
            for lam in (0.0, 2.0):
                np.testing.assert_array_equal(
                    shrinkage_weights(system, FilterSpec(kind, AbsoluteLambda(lam)), lam), [0.0]
                )

    def test_errors(self):
        system = symmetric_eig(_random_centered_psd(np.random.default_rng(38), 3))
        for spec in (ZERO, TIKHONOV, TSVD):
            with pytest.raises(ConfigurationError, match="must be nonnegative"):
                shrinkage_weights(system, spec, -1.0)
        with pytest.raises(ConfigurationError, match="strictly positive"):
            shrinkage_weights(system, TSVD, 0.0)
        with pytest.raises(NumericalError, match="both zero"):
            shrinkage_weights(system, TIKHONOV, 0.0)  # the centered null direction
        full_rank = EigenSystem(np.array([4.0, 1.0]), np.eye(2))
        np.testing.assert_array_equal(shrinkage_weights(full_rank, TIKHONOV, 0.0), [0.25, 1.0])

    def test_stack_applies_the_rules_per_spectrum(self):
        # an all-zero (1-shot) spectrum is exempt from the checks that the
        # other spectra of its stack must pass
        vectors = np.stack([np.eye(2)] * 2)
        full = EigenSystem(np.array([[0.0, 0.0], [4.0, 1.0]]), vectors)
        np.testing.assert_array_equal(shrinkage_weights(full, TIKHONOV, 0.0),
                                      [[0.0, 0.0], [0.25, 1.0]])
        np.testing.assert_array_equal(shrinkage_weights(full, TSVD, np.array([0.0, 2.0])),
                                      [[0.0, 0.0], [0.25, 0.0]])
        deficient = EigenSystem(np.array([[0.0, 0.0], [4.0, 0.0]]), vectors)
        with pytest.raises(NumericalError, match="both zero"):
            shrinkage_weights(deficient, TIKHONOV, 0.0)
        with pytest.raises(ConfigurationError, match="strictly positive"):
            shrinkage_weights(full, TSVD, np.array([2.0, 0.0]))
        with pytest.raises(ConfigurationError, match="got -1.0"):
            shrinkage_weights(full, TSVD, np.array([1.0, -1.0]))


class TestSpectralProperties:
    def test_gram_spectrum_matches_covariance_spectrum(self):
        # identity kernel: nonzero eigenvalues of the centered Gram equal
        # those of the centered-feature covariance sum r_i r_i^T
        rng = np.random.default_rng(37)
        for _ in range(30):
            support, query = random_instance(rng)
            _, _, _, ktilde, _, _ = centered_pieces(IDENTITY, support, query)
            system = symmetric_eig(ktilde)
            centered = support - support.mean(axis=0)
            cov_values = np.linalg.eigvalsh(centered.T @ centered)[::-1]
            size = max(len(system.values), len(cov_values))
            a = np.zeros(size)
            a[: len(system.values)] = system.values
            b = np.zeros(size)
            b[: len(cov_values)] = np.clip(cov_values, 0.0, None)
            np.testing.assert_allclose(np.sort(a)[::-1], np.sort(b)[::-1], atol=1e-8)

    def test_tikhonov_monotone_in_lambda(self):
        gamma = 1.7
        lams = np.logspace(-6, 6, 25)
        weights = [filter_weight(TIKHONOV, gamma, lam) for lam in lams]
        assert np.all(np.diff(weights) < 0.0)
        assert weights[0] * gamma == pytest.approx(1.0, abs=1e-5)
        assert weights[-1] * gamma == pytest.approx(0.0, abs=1e-5)

    def test_filter_sandwich(self):
        rng = np.random.default_rng(38)
        for _ in range(200):
            lam = float(10.0 ** rng.uniform(-3, 3))
            gamma = lam * float(10.0 ** rng.uniform(0, 3))  # gamma >= lam
            tsvd_g = filter_weight(TSVD, gamma, lam) * gamma
            tik_g = filter_weight(TIKHONOV, gamma, lam) * gamma
            zero_g = filter_weight(ZERO, gamma, lam) * gamma
            assert tsvd_g == pytest.approx(1.0, abs=1e-12)
            assert 0.0 < tik_g < 1.0
            assert zero_g == 0.0

    def test_null_space_weights_do_not_change_distance(self):
        rng = np.random.default_rng(39)
        support, query = random_instance(rng, n=7, d=3)  # rank-deficient centered Gram
        _, _, _, ktilde, cross, q_norm = centered_pieces(IDENTITY, support, query)
        system = symmetric_eig(ktilde)
        coords_sq = np.square(cross @ system.vectors)
        weights = shrinkage_weights(system, TIKHONOV, 0.5)
        null = system.values == 0.0
        assert np.count_nonzero(null) >= 2
        altered = weights + 1e3 * null
        baseline = distance_sq(coords_sq, weights, q_norm)
        changed = distance_sq(coords_sq, altered, q_norm)
        assert changed == pytest.approx(baseline, abs=1e-9)

    def test_tikhonov_distance_nondecreasing_in_lambda(self):
        # each weight (gamma + 2 lambda) / (gamma + lambda)^2 decreases in lambda
        rng = np.random.default_rng(40)
        lams = np.logspace(-4, 4, 33)
        for trial in range(60):
            support, query = random_instance(rng)
            kernel = rbf_for(support.shape[1]) if trial % 2 else IDENTITY
            path = [kernel_distance(kernel, support, query,
                                    FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(lam)), lam)
                    for lam in lams]
            assert np.all(np.diff(path) >= 0.0), path


class TestLambdaPolicyText:
    def test_round_trip(self):
        assert format_lambda_policy(AbsoluteLambda(1.0)) == "absolute=1"
        assert format_lambda_policy(RelativeToMaxEigenvalue(0.1)) == "relative=0.1"
        assert parse_lambda_policy("absolute=1") == AbsoluteLambda(1.0)
        assert parse_lambda_policy("relative=0.1") == RelativeToMaxEigenvalue(0.1)
        assert parse_lambda_policy("none") == AbsoluteLambda(0.0)

    def test_bad_text_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_lambda_policy("absolute")
        with pytest.raises(ConfigurationError):
            parse_lambda_policy("scaled=1")
        with pytest.raises(ConfigurationError):
            parse_lambda_policy("absolute=abc")
