"""Tests for Gaussian/mixture states, MGF evaluation, and weighted norms."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from conftest import block_ccr, random_admissible_state, simple_mixture
from qembound import (
    GaussianState,
    J2,
    MixtureMgf,
    WeightMatrix,
    as_mixture,
    log_scalar_norm,
    log_weighted_norm,
    mgf_eval,
    validate_ccr,
)
from qembound.errors import (
    DimensionMismatch,
    NormDivergent,
    NotAdmissible,
)
from qembound.sampling import log_sum_exp
from qembound.states import log_mixture_mgf

CCR2 = validate_ccr(J2)


class TestGaussianState:
    def test_vacuum_on_admissibility_boundary(self):
        state = GaussianState(mean=[0.0, 0.0], cov=np.eye(2), ccr=CCR2)
        np.testing.assert_array_equal(state.cov, np.eye(2))

    def test_psd_but_not_admissible_rejected(self):
        # C = diag(1, 0.5) is PSD yet C + i*J2 has a negative eigenvalue
        cov = np.diag([1.0, 0.5])
        assert np.linalg.eigvalsh(cov)[0] >= 0.0
        with pytest.raises(NotAdmissible):
            GaussianState(mean=[0.0, 0.0], cov=cov, ccr=CCR2)

    @pytest.mark.parametrize("squeeze", [1e3, 1e5, 1e7, 1e9])
    def test_large_pure_states_accepted(self, squeeze):
        # S S^T is pure (min eigenvalue of C + i*J2 exactly 0) for any
        # symplectic S; eigvalsh's rounding of order 1e-16 * |C| must not
        # reject it.  Half the allowed uncertainty product at squeezing 1e4
        # (min eigenvalue -5e-5, far above that rounding) is still rejected.
        rng = np.random.default_rng(11)
        for angles in rng.uniform(0.0, math.pi, size=(20, 2)):
            c, s = np.cos(angles), np.sin(angles)
            sym = (np.array([[c[0], -s[0]], [s[0], c[0]]]) @ np.diag([squeeze, 1.0 / squeeze])
                   @ np.array([[c[1], -s[1]], [s[1], c[1]]]))
            GaussianState(mean=[0.0, 0.0], cov=sym @ sym.T, ccr=CCR2)
        with pytest.raises(NotAdmissible):
            GaussianState(mean=[0.0, 0.0], cov=np.diag([1e4, 0.5e-4]), ccr=CCR2)

    def test_asymmetric_cov_rejected(self):
        cov = np.array([[2.0, 0.1], [0.0, 2.0]])
        with pytest.raises(NotAdmissible):
            GaussianState(mean=[0.0, 0.0], cov=cov, ccr=CCR2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GaussianState(mean=[0.0, 0.0, 0.0], cov=np.eye(2), ccr=CCR2)


class TestMixture:
    def test_weights_must_sum_to_one(self):
        vac = GaussianState(mean=[0.0, 0.0], cov=np.eye(2), ccr=CCR2)
        with pytest.raises(ValueError):
            MixtureMgf(weights=(0.5, 0.4), components=(vac, vac))

    def test_needs_component(self):
        with pytest.raises(ValueError):
            MixtureMgf(weights=(), components=())

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(3)
        mix = simple_mixture(
            CCR2,
            means=[[1.0, 0.0], [-1.0, 0.0]],
            covs=[np.eye(2), 2.0 * np.eye(2)],
        )
        for _ in range(10):
            u = rng.normal(size=2)
            vals = [mgf_eval(c, u) for c in mix.components]
            value = mgf_eval(mix, u)
            assert min(vals) <= value <= max(vals)


class TestMgfEval:
    def test_gaussian_value(self):
        state = GaussianState(mean=[0.0, 0.0], cov=np.eye(2), ccr=CCR2)
        assert mgf_eval(state, [1.0, 0.0]) == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_normalized_at_zero(self):
        mix = simple_mixture(CCR2, means=[[1.0, 0.0], [-1.0, 0.0]], covs=[np.eye(2)] * 2)
        assert mgf_eval(mix, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_mixture_value(self):
        mix = simple_mixture(CCR2, means=[[1.0, 0.0], [-1.0, 0.0]], covs=[np.eye(2)] * 2)
        expected = math.exp(0.5) * math.cosh(1.0)
        assert mgf_eval(mix, [1.0, 0.0]) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        state = GaussianState(mean=[0.0, 0.0], cov=np.eye(2), ccr=CCR2)
        with pytest.raises(DimensionMismatch):
            mgf_eval(state, [1.0, 0.0, 0.0])


def _log_mgf_batch(state, u):
    """log_mixture_mgf on the state's pairs (M_k, C_k / 2), as mgf_eval calls it."""
    mix = as_mixture(state)
    return log_mixture_mgf(np.log(mix.weights), [c.mean for c in mix.components],
                           [0.5 * c.cov for c in mix.components], u)


class TestLogMgfBatch:
    """The batched log-MGF kernel of mgf_eval and the Monte-Carlo route."""

    CCR4 = block_ccr([1.0, 2.0])

    def test_gaussian_is_linear_plus_half_quadratic(self):
        rng = np.random.default_rng(11)
        state = random_admissible_state(rng, self.CCR4)
        u = rng.normal(size=(50, 4))
        expected = [m @ state.mean + 0.5 * m @ state.cov @ m for m in u]
        np.testing.assert_allclose(_log_mgf_batch(state, u), expected, rtol=1e-14, atol=1e-14)

    def test_mixture_is_log_of_weighted_sum(self):
        rng = np.random.default_rng(12)
        comps = [random_admissible_state(rng, self.CCR4) for _ in range(3)]
        mix = MixtureMgf(weights=(0.2, 0.3, 0.5), components=tuple(comps))
        u = rng.normal(size=(50, 4))
        expected = [math.log(sum(w * math.exp(m @ c.mean + 0.5 * m @ c.cov @ m)
                                 for w, c in zip(mix.weights, comps))) for m in u]
        np.testing.assert_allclose(_log_mgf_batch(mix, u), expected, rtol=1e-14, atol=1e-14)

    def test_dimension_mismatch(self):
        state = random_admissible_state(np.random.default_rng(13), self.CCR4)
        with pytest.raises(DimensionMismatch):
            mgf_eval(state, np.ones(3))


class TestLogSumExp:
    def test_reduces_the_first_axis_without_overflow(self):
        # exp(710) overflows; the shift by each column's maximum keeps it finite.
        values = np.array([[700.0, 1.0, -5.0], [710.0, 1.0, -700.0]])
        expected = [710.0 + math.log1p(math.exp(-10.0)), 1.0 + math.log(2.0), -5.0]
        np.testing.assert_allclose(log_sum_exp(values), expected, rtol=1e-15)

    def test_one_dimensional_input_gives_a_scalar(self):
        assert log_sum_exp(np.array([700.0, 710.0])) == pytest.approx(
            710.0 + math.log1p(math.exp(-10.0)), rel=1e-15)


def _quadrature_norm(state, p):
    def integrand(y, x):
        u = np.array([x, y])
        return math.exp(-float(u @ p @ u)) * mgf_eval(state, u) ** 2

    value, _ = dblquad(integrand, -12.0, 12.0, -12.0, 12.0, epsabs=1e-11, epsrel=1e-9)
    return math.sqrt(value)


class TestWeightedNorm:
    def test_vacuum_sqrt_pi(self):
        state = GaussianState(mean=[0.0, 0.0], cov=np.eye(2), ccr=CCR2)
        value = math.exp(log_weighted_norm(state, WeightMatrix(2.0 * np.eye(2))))
        assert value == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_boundary_divergent(self):
        state = GaussianState(mean=[0.0, 0.0], cov=np.eye(2), ccr=CCR2)
        with pytest.raises(NormDivergent):
            log_weighted_norm(state, WeightMatrix(np.eye(2)))

    def test_degenerate_mixture_equals_single(self):
        state = GaussianState(mean=[0.3, -0.2], cov=1.5 * np.eye(2), ccr=CCR2)
        mix = MixtureMgf(weights=(0.25, 0.75), components=(state, state))
        p = WeightMatrix(np.array([[2.5, 0.3], [0.3, 2.2]]))
        assert math.exp(log_weighted_norm(mix, p)) == pytest.approx(
            math.exp(log_weighted_norm(state, p)), rel=1e-12
        )

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_quadrature_oracle_gaussian(self, seed):
        rng = np.random.default_rng(seed)
        state = random_admissible_state(rng, CCR2, mean_scale=0.4, cov_scale=0.3)
        shift = float(np.linalg.eigvalsh(state.cov)[-1])
        base = rng.normal(size=(2, 2))
        p_mat = base @ base.T * 0.2 + (shift + 0.5) * np.eye(2)
        closed = math.exp(log_weighted_norm(state, WeightMatrix(p_mat)))
        assert closed == pytest.approx(_quadrature_norm(state, p_mat), rel=1e-6)

    def test_quadrature_oracle_mixture(self):
        mix = simple_mixture(
            CCR2,
            means=[[0.5, 0.0], [-0.3, 0.4]],
            covs=[np.eye(2), 1.3 * np.eye(2)],
            weights=(0.6, 0.4),
        )
        p_mat = np.array([[2.2, -0.2], [-0.2, 2.6]])
        closed = math.exp(log_weighted_norm(mix, WeightMatrix(p_mat)))
        assert closed == pytest.approx(_quadrature_norm(mix, p_mat), rel=1e-6)

    def test_scalar_sandwich_ordering(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            state = random_admissible_state(rng, CCR2, mean_scale=0.5, cov_scale=0.3)
            lam_cov = float(np.linalg.eigvalsh(state.cov)[-1])
            base = rng.normal(size=(2, 2))
            p_mat = base @ base.T + (lam_cov + 0.4) * np.eye(2)
            lo, hi = np.linalg.eigvalsh(p_mat)[0], np.linalg.eigvalsh(p_mat)[-1]
            mid = log_weighted_norm(state, WeightMatrix(p_mat))
            upper = log_weighted_norm(state, WeightMatrix(lo * np.eye(2)))
            lower = log_weighted_norm(state, WeightMatrix(hi * np.eye(2)))
            assert lower <= mid + 1e-12
            assert mid <= upper + 1e-12


class TestScalarNorm:
    def test_vacuum_value(self):
        state = GaussianState(mean=[0.0, 0.0], cov=np.eye(2), ccr=CCR2)
        value = math.exp(log_scalar_norm(state, 2.0))
        assert value == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_divergent_at_cov_top(self):
        state = GaussianState(mean=[0.0, 0.0], cov=2.0 * np.eye(2), ccr=CCR2)
        with pytest.raises(NormDivergent):
            log_scalar_norm(state, 2.0)
        with pytest.raises(NormDivergent):
            log_scalar_norm(state, 1.5)

    def test_monotone_in_lambda(self):
        state = GaussianState(mean=[0.0, 0.0], cov=np.eye(2), ccr=CCR2)
        assert math.exp(log_scalar_norm(state, 3.0)) < math.exp(log_scalar_norm(state, 2.0))
