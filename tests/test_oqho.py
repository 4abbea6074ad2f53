"""Tests for oscillator dynamics, Gramians, MGF propagation, and the
time-dependent moment bound."""

import math

import numpy as np
import pytest
import scipy.linalg

from conftest import block_ccr, log_propagated_norm, random_admissible_state, simple_mixture
from qembound import (
    GaussianState,
    J2,
    MixtureMgf,
    OqhoModel,
    as_mixture,
    dynamics_matrices,
    gramian_finite,
    gramian_infinite,
    log_scalar_norm,
    propagate_mgf,
    qem_bound_time,
    qem_exact,
    qem_randomized_mc,
    qem_upper_bound_scalar_opt,
    scalar_weight_limit,
    symplectic_eigenbasis,
    validate_ccr,
)
from qembound import states
from qembound.errors import (
    DimensionMismatch,
    EmptyFeasibleWindow,
    ExpmFailure,
    InternalAdmissibilityViolation,
    NotHurwitz,
)
from qembound.oqho import _expm_and_gramian

CCR2 = validate_ccr(J2)
BASIS2 = symplectic_eigenbasis(CCR2)
VACUUM = GaussianState(mean=[0.0, 0.0], cov=np.eye(2), ccr=CCR2)

# Theta = J2, R = 0, N = I gives A = -2I, B = 2*J2, BB^T = 4I
DAMPED = OqhoModel(R=np.zeros((2, 2)), N=np.eye(2), ccr=CCR2)
# Theta = J2, R = I/2, N = 0 gives the closed rotation generator A = J2
ROTOR = OqhoModel(R=0.5 * np.eye(2), N=np.zeros((2, 2)), ccr=CCR2)


def _random_model(rng, ccr):
    n = ccr.n
    r = rng.normal(scale=0.4, size=(n, n))
    r = 0.5 * (r + r.T)
    coupling = rng.normal(scale=0.6, size=(n, n))
    return OqhoModel(R=r, N=coupling, ccr=ccr)


class TestDynamicsMatrices:
    def test_damped_pair(self):
        a, b = dynamics_matrices(DAMPED)
        np.testing.assert_allclose(a, -2.0 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(b, 2.0 * J2, atol=1e-14)

    def test_closed_system(self):
        a, b = dynamics_matrices(ROTOR)
        np.testing.assert_allclose(a, J2, atol=1e-14)
        np.testing.assert_allclose(b, np.zeros((2, 2)), atol=1e-14)

    def test_uncoupled_energy_only(self):
        r = np.array([[0.3, 0.1], [0.1, -0.2]])
        model = OqhoModel(R=r, N=np.zeros((2, 2)), ccr=CCR2)
        a, _ = dynamics_matrices(model)
        np.testing.assert_allclose(a, 2.0 * J2 @ r, atol=1e-14)


class TestGramianFinite:
    def test_damped_golden_value(self):
        a, b = dynamics_matrices(DAMPED)
        result = gramian_finite(a, b, 0.5)
        np.testing.assert_allclose(
            result.sigma, (1.0 - math.exp(-2.0)) * np.eye(2), atol=1e-10
        )

    def test_zero_horizon(self):
        a, b = dynamics_matrices(DAMPED)
        result = gramian_finite(a, b, 0.0)
        np.testing.assert_array_equal(result.sigma, np.zeros((2, 2)))

    def test_orthogonal_drift(self):
        result = gramian_finite(J2, np.eye(2), 1.0)
        np.testing.assert_allclose(result.sigma, np.eye(2), atol=1e-12)

    def test_monotone_in_horizon(self):
        rng = np.random.default_rng(61)
        model = _random_model(rng, CCR2)
        a, b = dynamics_matrices(model)
        grid = np.linspace(0.0, 2.0, 10)
        sigmas = [gramian_finite(a, b, t).sigma for t in grid]
        for s_small, s_big in zip(sigmas, sigmas[1:]):
            assert np.linalg.eigvalsh(s_big - s_small)[0] >= -1e-10

    def test_semigroup_property(self):
        rng = np.random.default_rng(67)
        model = _random_model(rng, CCR2)
        a, b = dynamics_matrices(model)
        s, t = 0.4, 0.7
        combined = gramian_finite(a, b, s + t).sigma
        e_ta = scipy.linalg.expm(t * a)
        stitched = gramian_finite(a, b, t).sigma + e_ta @ gramian_finite(a, b, s).sigma @ e_ta.T
        np.testing.assert_allclose(combined, stitched, atol=1e-9)

    def test_block_gives_propagator_and_gramian(self):
        rng = np.random.default_rng(73)
        model = _random_model(rng, block_ccr([1.0, 1.7]))
        # In the second pair ||BB^T||_1 is far above ||A||_1, so the noise
        # block sets the scaling of the block exponential.
        loud = (0.1 * rng.normal(size=(4, 4)), 30.0 * rng.normal(size=(4, 4)))
        for a, b in (dynamics_matrices(model), loud):
            e_ta, sigma = _expm_and_gramian(a, b, 0.7)
            np.testing.assert_allclose(e_ta, scipy.linalg.expm(0.7 * a), atol=1e-12)
            block = np.block([[-a, b @ b.T], [np.zeros((4, 4)), a.T]])
            reference = scipy.linalg.expm(0.7 * a) @ scipy.linalg.expm(0.7 * block)[:4, 4:]
            assert np.abs(sigma - reference).max() <= 1e-11 * np.abs(reference).max()


    def test_loud_noise_matches_block_expm(self):
        # ||BB^T||_1 far above ||A||_1: scaling by ||A||_1 alone keeps
        # Sigma_t at the accuracy of the reference block exponential.
        rng = np.random.default_rng(2024)
        for _ in range(20):
            a = 0.1 * rng.normal(size=(4, 4))
            b = 30.0 * rng.normal(size=(4, 4))
            sigma = gramian_finite(a, b, 0.7).sigma
            block = np.block([[-a, b @ b.T], [np.zeros((4, 4)), a.T]])
            reference = scipy.linalg.expm(0.7 * a) @ scipy.linalg.expm(0.7 * block)[:4, 4:]
            assert np.abs(sigma - reference).max() <= 1e-13 * np.abs(reference).max()


class TestGramianInfinite:
    def test_damped_golden_value(self):
        a, b = dynamics_matrices(DAMPED)
        result = gramian_infinite(a, b)
        np.testing.assert_allclose(result.sigma, np.eye(2), atol=1e-12)
        assert result.hurwitz is True
        assert result.horizon == math.inf
        residual = a @ result.sigma + result.sigma @ a.T + b @ b.T
        assert np.linalg.norm(residual) < 1e-9 * np.linalg.norm(b @ b.T)

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_matches_lyapunov_solver(self, n):
        rng = np.random.default_rng(n)
        m = rng.normal(size=(n, n))
        a = m - (np.linalg.eigvals(m).real.max() + 0.5) * np.eye(n)
        b = rng.normal(size=(n, n))
        sigma = gramian_infinite(a, b).sigma
        reference = scipy.linalg.solve_continuous_lyapunov(a, -b @ b.T)
        assert np.abs(sigma - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_marginally_stable_rejected(self):
        with pytest.raises(NotHurwitz):
            gramian_infinite(J2, np.eye(2))

    @pytest.mark.parametrize("t", [10.0, 20.0, 100.0])
    def test_long_horizon_matches_lyapunov(self, t):
        # A = 2 J2 (I + J2) has eigenvalues -2 +- 2i: e^{-tA} grows like e^{2t}
        model = OqhoModel(R=np.eye(2), N=np.eye(2), ccr=CCR2)
        a, b = dynamics_matrices(model)
        sigma_t = gramian_finite(a, b, t).sigma
        assert np.abs(sigma_t - gramian_infinite(a, b).sigma).max() < 1e-12

    def test_finite_horizon_limit(self):
        a, b = dynamics_matrices(DAMPED)
        sigma_5 = gramian_finite(a, b, 5.0).sigma
        sigma_inf = gramian_infinite(a, b).sigma
        assert np.abs(sigma_5 - sigma_inf).max() < 1e-8


class TestPropagateMgf:
    def test_zero_time_identity(self):
        mix = as_mixture(VACUUM)
        assert propagate_mgf(mix, DAMPED, 0.0) is mix

    def test_vacuum_steady_state(self):
        out = propagate_mgf(as_mixture(VACUUM), DAMPED, 6.0)
        comp = out.components[0]
        np.testing.assert_allclose(comp.cov, np.eye(2), atol=1e-9)
        np.testing.assert_allclose(comp.mean, np.zeros(2), atol=1e-12)

    def test_rotation(self):
        state = GaussianState(mean=[1.0, 0.0], cov=np.eye(2), ccr=CCR2)
        out = propagate_mgf(as_mixture(state), ROTOR, math.pi / 2.0)
        comp = out.components[0]
        np.testing.assert_allclose(comp.mean, [0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(comp.cov, np.eye(2), atol=1e-12)

    def test_weights_preserved(self):
        mix = simple_mixture(
            CCR2,
            means=[[0.5, 0.0], [-0.5, 0.0]],
            covs=[np.eye(2), 1.5 * np.eye(2)],
            weights=(0.7, 0.3),
        )
        out = propagate_mgf(mix, DAMPED, 0.8)
        assert out.weights == (0.7, 0.3)

    def test_covariance_lyapunov_ode(self):
        # d/dt C_t = A C_t + C_t A^T + BB^T checked by central differences
        rng = np.random.default_rng(71)
        model = _random_model(rng, CCR2)
        a, b = dynamics_matrices(model)
        state = random_admissible_state(rng, CCR2)
        t, h = 0.6, 1e-5
        cov_at = lambda s: propagate_mgf(as_mixture(state), model, s).components[0].cov
        derivative = (cov_at(t + h) - cov_at(t - h)) / (2.0 * h)
        cov_t = cov_at(t)
        rhs = a @ cov_t + cov_t @ a.T + b @ b.T
        assert np.abs(derivative - rhs).max() < 1e-3 * max(1.0, np.abs(rhs).max())


class TestPropagatedCheck:
    """propagate_mgf checks its components in one stacked pass
    (states._gaussian_states) and builds the states GaussianState would."""

    MIX = MixtureMgf(weights=(0.6, 0.4), components=(
        GaussianState(mean=[0.4, -0.1], cov=np.eye(2), ccr=CCR2),
        GaussianState(mean=[-0.2, 0.3], cov=np.array([[1.5, 0.2], [0.2, 1.1]]), ccr=CCR2)))

    # ||A||_1 = 2 for DAMPED: 0.3 takes no doubling, 0.9 one, 7.5 four.
    @pytest.mark.parametrize("t", [0.3, 0.9, 7.5])
    def test_components_are_the_validated_states(self, t):
        out = propagate_mgf(self.MIX, DAMPED, t)
        e_ta, sigma = _expm_and_gramian(*dynamics_matrices(DAMPED), t)
        for got, comp in zip(out.components, self.MIX.components):
            cov_t = e_ta @ comp.cov @ e_ta.T + sigma
            want = GaussianState(mean=e_ta @ comp.mean, cov=0.5 * (cov_t + cov_t.T), ccr=CCR2)
            assert got.mean.tobytes() == want.mean.tobytes()
            assert got.cov.tobytes() == want.cov.tobytes()
            assert got.ccr is CCR2 and not got.mean.flags.writeable and not got.cov.flags.writeable

    def test_an_overflowing_horizon_raises_expm_failure(self):
        # A = +2 I overflows e^{tA} at t = 400.
        unstable = OqhoModel(R=np.zeros((2, 2)), N=np.array([[0.0, 1.0], [1.0, 0.0]]), ccr=CCR2)
        propagate_mgf(self.MIX, unstable, 1.0)
        with pytest.raises(ExpmFailure):
            propagate_mgf(self.MIX, unstable, 400.0)

    def test_an_inadmissible_component_is_a_numerical_fault(self, monkeypatch):
        # A floor no state reaches: the stacked check fails, and t = 0, the
        # initial state itself, is not checked again.
        monkeypatch.setattr(states, "ADMISSIBILITY_FLOOR", 1e3)
        assert propagate_mgf(self.MIX, DAMPED, 0.0) is self.MIX
        with pytest.raises(InternalAdmissibilityViolation, match="admissibility at t = 0.5"):
            propagate_mgf(self.MIX, DAMPED, 0.5)


class TestPropagatedNorm:
    """The norm of propagate_mgf's state against the paper's norm transport
    (the log_propagated_norm oracle)."""

    def test_zero_time_matches_scalar_norm(self):
        mix = simple_mixture(
            CCR2, means=[[0.4, 0.0], [0.0, -0.4]], covs=[np.eye(2), 1.2 * np.eye(2)]
        )
        assert log_propagated_norm(mix, DAMPED, 0.0, 2.0) == pytest.approx(
            log_scalar_norm(mix, 2.0), abs=1e-12
        )

    def test_damped_vacuum_cross_evaluation(self):
        # C_t = I at every t for the damped vacuum, so the time-t norm at
        # lam = 2 is the vacuum norm sqrt(pi)
        value = math.exp(log_propagated_norm(as_mixture(VACUUM), DAMPED, 0.5, 2.0))
        assert value == pytest.approx(math.sqrt(math.pi), rel=1e-10)
        propagated = propagate_mgf(as_mixture(VACUUM), DAMPED, 0.5)
        assert value == pytest.approx(math.exp(log_scalar_norm(propagated, 2.0)), rel=1e-10)

    @pytest.mark.parametrize("seed", [81, 82, 83, 84])
    def test_transport_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        model = _random_model(rng, CCR2)
        mix = MixtureMgf(
            weights=(0.6, 0.4),
            components=(
                random_admissible_state(rng, CCR2),
                random_admissible_state(rng, CCR2),
            ),
        )
        t = rng.uniform(0.1, 1.0)
        propagated = propagate_mgf(mix, model, t)
        lam = 1.3 * max(
            float(np.linalg.eigvalsh(c.cov)[-1]) for c in propagated.components
        ) + 0.2
        lhs = log_propagated_norm(mix, model, t, lam)
        rhs = log_scalar_norm(propagated, lam)
        assert abs(lhs - rhs) <= 1e-8


class TestQemBoundTime:
    def test_zero_time_matches_scalar_opt(self):
        mix = simple_mixture(
            CCR2, means=[[0.3, 0.0], [0.0, 0.3]], covs=[np.eye(2), 1.1 * np.eye(2)]
        )
        timed, lam_t = qem_bound_time(mix, DAMPED, 0.4, 0.0)
        direct, lam_d = qem_upper_bound_scalar_opt(mix, BASIS2, 0.4)
        assert timed.log_qem == pytest.approx(direct.log_qem, abs=1e-10)
        assert lam_t == pytest.approx(lam_d, abs=1e-6)

    def test_dominates_exact_on_grid(self):
        state = GaussianState(mean=[0.5, 0.0], cov=1.2 * np.eye(2), ccr=CCR2)
        for mu in (0.2, 0.4, 0.6):
            for t in (0.0, 0.3, 0.8):
                bound, _ = qem_bound_time(as_mixture(state), DAMPED, mu, t)
                prop = propagate_mgf(as_mixture(state), DAMPED, t).components[0]
                exact = qem_exact(prop, BASIS2, mu).log_qem
                assert bound.log_qem >= exact - 1e-12

    def test_empty_interval_for_large_mu(self):
        # non-normal drift with lambda_max(Sigma_t) > 1: A = [[-2, 4], [0, -2]]
        model = OqhoModel(R=np.array([[0.0, 0.0], [0.0, 2.0]]), N=np.eye(2), ccr=CCR2)
        a, b = dynamics_matrices(model)
        sigma = gramian_finite(a, b, 4.0).sigma
        lam_sigma = float(np.linalg.eigvalsh(sigma)[-1])
        assert lam_sigma > 1.0
        # choose mu with scalar_weight_limit(mu) below lambda_max(Sigma_t),
        # and so below the propagated covariance's top eigenvalue
        mu = 2.0 * math.atanh(1.0 / lam_sigma)
        assert scalar_weight_limit(BASIS2, mu) < lam_sigma
        with pytest.raises(EmptyFeasibleWindow):
            qem_bound_time(as_mixture(VACUUM), model, mu, 4.0)

    def test_divergent_norm_when_state_too_hot(self):
        hot = GaussianState(mean=[0.0, 0.0], cov=3.0 * np.eye(2), ccr=CCR2)
        # the weight limit lambda*(0.5) ~ 2.16 lies below the propagated
        # covariance's top eigenvalue (about 2.9, above lambda_max(Sigma_t) ~ 0.04)
        with pytest.raises(EmptyFeasibleWindow):
            qem_bound_time(as_mixture(hot), DAMPED, 0.5, 0.01)

    def test_mc_cross_check(self):
        mix = simple_mixture(
            CCR2,
            means=[[0.0, 0.0], [0.8, 0.0]],
            covs=[np.eye(2), 1.4 * np.eye(2)],
            weights=(0.5, 0.5),
        )
        for mu, t in ((0.2, 0.3), (0.35, 0.8)):
            bound, _ = qem_bound_time(mix, DAMPED, mu, t)
            propagated = propagate_mgf(mix, DAMPED, t)
            est = qem_randomized_mc(propagated, BASIS2, mu, 50000, seed=90)
            assert est.log_qem <= bound.log_qem + 3.0 * est.rel_std_error


class TestModelContract:
    """A model (and a basis passed with it) must come from the state's CCR
    matrix (equal Theta), not merely one of the same order."""

    STATE = GaussianState(mean=[0.5, 0.0], cov=1.5 * np.eye(2), ccr=CCR2)
    CALLS = {
        "propagate_mgf": lambda s, m: log_scalar_norm(propagate_mgf(s, m, 0.5), 3.0),
        "qem_bound_time_t0": lambda s, m: qem_bound_time(s, m, 0.2, 0.0),
        "qem_bound_time_t05": lambda s, m: qem_bound_time(s, m, 0.2, 0.5),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_model_of_another_ccr_rejected(self, name):
        other = OqhoModel(R=DAMPED.R, N=DAMPED.N, ccr=validate_ccr(3.0 * J2))
        with pytest.raises(DimensionMismatch):
            self.CALLS[name](self.STATE, other)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_basis_of_another_ccr_rejected(self, t):
        other = symplectic_eigenbasis(validate_ccr(3.0 * J2))
        with pytest.raises(DimensionMismatch):
            qem_bound_time(self.STATE, DAMPED, 0.2, t, basis=other)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_model_of_an_equal_ccr_accepted(self, name):
        twin = OqhoModel(R=DAMPED.R, N=DAMPED.N, ccr=validate_ccr(J2))
        assert twin.ccr is not CCR2
        assert self.CALLS[name](self.STATE, twin) == self.CALLS[name](self.STATE, DAMPED)

    def test_basis_of_an_equal_ccr_accepted(self):
        twin = symplectic_eigenbasis(validate_ccr(J2))
        assert (qem_bound_time(self.STATE, DAMPED, 0.2, 0.5, basis=twin)
                == qem_bound_time(self.STATE, DAMPED, 0.2, 0.5, basis=BASIS2))
