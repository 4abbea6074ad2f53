"""Tests for the commutative-limit oracle: closed forms, samplers, the
moment identity, and empirical tails."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from qembound import (
    ClassicalGaussian,
    classical_gaussian_qem,
    classical_qem_mc,
    empirical_tail,
    randomized_identity_check,
)
from qembound.classical import classical_gaussian_cgf_and_slope
from qembound.errors import (
    DimensionMismatch,
    RiskParameterTooLarge,
    SuspectedDivergence,
)

STANDARD_1D = ClassicalGaussian(mean=[0.0], cov=[[1.0]])


class TestClosedForm:
    def test_chi_square_mgf(self):
        # E exp(mu X^2 / 2) = (1 - mu)^(-1/2) for X standard normal
        assert classical_gaussian_qem(STANDARD_1D, 0.5) == pytest.approx(
            -0.5 * math.log(0.5), rel=1e-14
        )

    def test_zero_mu(self):
        assert classical_gaussian_qem(STANDARD_1D, 0.0) == 0.0

    def test_shifted_two_dimensional(self):
        g = ClassicalGaussian(mean=[1.0, 0.0], cov=np.eye(2))
        expected = 0.5 + 0.6931472
        assert classical_gaussian_qem(g, 0.5) == pytest.approx(expected, abs=1e-7)
        assert classical_gaussian_qem(g, 0.5) == pytest.approx(
            0.5 * (0.5 / 0.5) - math.log(0.5), rel=1e-14
        )

    def test_beyond_threshold(self):
        with pytest.raises(RiskParameterTooLarge):
            classical_gaussian_qem(STANDARD_1D, 1.0)


SHIFTED_2D = ClassicalGaussian(mean=[0.7, -0.3], cov=[[1.2, 0.4], [0.4, 0.6]])


class TestSlope:
    @pytest.mark.parametrize("mu", [0.05, 0.3, 0.6])
    def test_matches_central_difference(self, mu):
        h = 1e-6 * mu
        value, slope = classical_gaussian_cgf_and_slope(SHIFTED_2D, mu)
        assert value == classical_gaussian_qem(SHIFTED_2D, mu)
        difference = (classical_gaussian_qem(SHIFTED_2D, mu + h)
                      - classical_gaussian_qem(SHIFTED_2D, mu - h)) / (2.0 * h)
        assert slope == pytest.approx(difference, rel=1e-8)

    def test_zero_mu_reads_the_mean_half_quadratic(self):
        value, slope = classical_gaussian_cgf_and_slope(SHIFTED_2D, 0.0)
        assert value == 0.0
        expected = 0.5 * (float(np.trace(SHIFTED_2D.cov)) + float(SHIFTED_2D.mean @ SHIFTED_2D.mean))
        assert slope == pytest.approx(expected, rel=1e-14)

    def test_beyond_threshold(self):
        with pytest.raises(RiskParameterTooLarge):
            classical_gaussian_cgf_and_slope(STANDARD_1D, 1.0)

    def test_threshold_bound_pair(self):
        # ln P(Q >= 2 Upsilon'(mu)) <= Upsilon(mu) - mu Upsilon'(mu); for
        # X ~ N(0, 1), Upsilon = -ln(1 - mu)/2, so at mu = 0.75 the slope is
        # 1/(2(1 - mu)) = 2.
        value, slope = classical_gaussian_cgf_and_slope(STANDARD_1D, 0.75)
        assert slope == pytest.approx(2.0, rel=1e-14)
        assert value - 0.75 * slope == pytest.approx(-(1.5 + 0.5 * math.log(0.25)), rel=1e-14)

    def test_threshold_bound_is_nonpositive(self):
        for mu in np.linspace(0.05, 0.9, 12):
            value, slope = classical_gaussian_cgf_and_slope(STANDARD_1D, mu)
            assert value - mu * slope <= 1e-12


class TestMonteCarlo:
    def test_matches_closed_form(self):
        est, se = classical_qem_mc(STANDARD_1D, 0.5, 100000, seed=5)
        assert abs(est - classical_gaussian_qem(STANDARD_1D, 0.5)) <= 3.0 * se

    def test_zero_mu_exact(self):
        est, se = classical_qem_mc(STANDARD_1D, 0.0, 1000, seed=5)
        assert est == 0.0
        assert se == 0.0

    def test_supercritical_flagged_across_seeds(self):
        triggered = 0
        for seed in range(10):
            try:
                classical_qem_mc(STANDARD_1D, 1.5, 100000, seed=seed)
            except SuspectedDivergence:
                triggered += 1
        assert triggered >= 9

    def test_seed_reproducible(self):
        a = classical_qem_mc(STANDARD_1D, 0.4, 20000, seed=8)
        b = classical_qem_mc(STANDARD_1D, 0.4, 20000, seed=8)
        assert a == b


class TestIdentityCheck:
    def test_isotropic_case(self):
        g = ClassicalGaussian(mean=[0.0, 0.0], cov=np.eye(2))
        check = randomized_identity_check(g, 0.3, 100000, seed=21)
        assert check.passed
        # both sides estimate ln(1/(1-0.3))
        target = -math.log(0.7)
        assert check.log_lhs == pytest.approx(target, abs=4.0 * check.combined_se + 1e-3)

    def test_zero_mu_trivial(self):
        g = ClassicalGaussian(mean=[0.0, 0.0], cov=np.eye(2))
        check = randomized_identity_check(g, 0.0, 100, seed=1)
        assert check.passed
        assert check.log_lhs == 0.0
        assert check.log_rhs == 0.0

    def test_anisotropic_shifted_case(self):
        g = ClassicalGaussian(mean=[1.0, 1.0], cov=np.diag([1.0, 0.5]))
        check = randomized_identity_check(g, 0.4, 100000, seed=22)
        assert check.passed

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            randomized_identity_check(STANDARD_1D, 0.3, 1000, seed=1)


class TestEmpiricalTail:
    def test_standard_normal_two_sigma(self):
        p_hat, se = empirical_tail(STANDARD_1D, 2.0, 200000, seed=31)
        expected = 2.0 * norm.cdf(-2.0)
        assert abs(p_hat - expected) <= 3.0 * se

    def test_zero_threshold(self):
        p_hat, se = empirical_tail(STANDARD_1D, 0.0, 1000, seed=31)
        assert p_hat == 1.0
        assert se == 0.0

    def test_monotone_in_eps(self):
        values = [empirical_tail(STANDARD_1D, eps, 50000, seed=33)[0] for eps in (0.5, 1.0, 2.0)]
        assert values[0] >= values[1] >= values[2]
