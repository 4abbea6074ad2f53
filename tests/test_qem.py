"""Tests for exact, Monte-Carlo, and upper-bound moment computations and
the tail-probability machinery."""

import functools
import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest

from conftest import (block_ccr, eigh_exact_chunk, random_admissible_state, random_ccr,
                      simple_mixture, thermal_state)
from qembound import (
    GaussianState,
    J2,
    WeightMatrix,
    classical_gaussian_qem,
    ClassicalGaussian,
    critical_mu,
    exact_cgf,
    qem_exact,
    qem_randomized_mc,
    qem_upper_bound,
    qem_upper_bound_scalar_opt,
    scalar_bound_cgf,
    scalar_weight_limit,
    symplectic_eigenbasis,
    tail_bound,
    validate_ccr,
)
from qembound.qem import ExactEngine, ScalarBoundEngine, _radius, saturation_mu
from qembound.sampling import log_mean_exp_stats
from qembound.classical import classical_gaussian_cgf_and_slope
from qembound.errors import (
    DimensionMismatch,
    EmptyFeasibleWindow,
    InvalidRange,
    NormDivergent,
    NumericalOverflowDespiteLogSpace,
    RiskParameterTooLarge,
    WeightOutOfInterval,
)

CCR2 = validate_ccr(J2)
BASIS2 = symplectic_eigenbasis(CCR2)
VACUUM = GaussianState(mean=[0.0, 0.0], cov=np.eye(2), ccr=CCR2)
THERMAL3 = GaussianState(mean=[0.0, 0.0], cov=3.0 * np.eye(2), ccr=CCR2)

# scalar reduction of the closed form for C = 3I, Theta = J2
THERMAL3_LOG_QEM_02 = -math.log(math.cosh(0.2) - 3.0 * math.sinh(0.2))


class TestExactGaussian:
    @pytest.mark.parametrize("mu", [0.1, 0.7, 1.3, 2.0])
    def test_vacuum_identity(self, mu):
        value = qem_exact(VACUUM, BASIS2, mu)
        assert value.log_qem == pytest.approx(mu, abs=1e-12)
        assert value.method == "exact_gaussian"

    def test_thermal_value(self):
        value = qem_exact(THERMAL3, BASIS2, 0.2)
        assert value.log_qem == pytest.approx(THERMAL3_LOG_QEM_02, abs=1e-12)

    def test_beyond_critical_raises(self):
        # 3 * tanh(0.4) = 1.14 > 1
        with pytest.raises(RiskParameterTooLarge) as err:
            qem_exact(THERMAL3, BASIS2, 0.4)
        assert "0.34657" in str(err.value)  # reports the critical mu

    @pytest.mark.parametrize("scale, message", [
        (6.0, "exceeds the critical value mu\\* = 0.1732"),
        (2.0, "saturated double precision"),
    ], ids=["finite-mu-star", "infinite-mu-star"])
    def test_mu_theta_overflow_raises_quietly(self, scale, message):
        # On ccr [2.0] at mu = 1e308, mu * theta = inf: the grid's top reads
        # inf there, not the 0 of tanh(x)/x, so the call raises (with no
        # overflow warning) instead of returning NaN.  Cov 6 I has
        # mu* = artanh(1/3)/2; cov 2 I is pure, with mu* = inf.  The slope's
        # sinh(2x)/(2x) reads inf/inf on that row, and stays quiet too.
        basis = symplectic_eigenbasis(block_ccr([2.0]))
        state = GaussianState(mean=[0.0, 0.0], cov=scale * np.eye(2), ccr=basis.ccr)
        with pytest.raises(RiskParameterTooLarge, match=message):
            qem_exact(state, basis, 1e308)
        with pytest.raises(RiskParameterTooLarge, match=message):
            exact_cgf(state, basis)[0](1e308)
        values, slopes, top = ExactEngine(state, basis).grid([0.01, 1e308], slope=True)
        assert np.isfinite([values[0], slopes[0], top[0]]).all() and top[0] < 1.0
        assert np.isnan([values[1], slopes[1]]).all() and top[1] == math.inf

    def test_mean_contribution(self):
        # commuting case reduces per mode; checked against the scalar formula
        state = GaussianState(mean=[1.0, -0.5], cov=2.0 * np.eye(2), ccr=CCR2)
        mu = 0.2
        k = math.tanh(mu) / mu
        weight = mu * k / (1.0 - 2.0 * mu * k)
        # det(cos - mu C sinc) = (cosh mu - 2 sinh mu)^2 for C = 2I
        expected = 0.5 * weight * 1.25 - math.log(math.cosh(mu) - 2.0 * math.sinh(mu))
        value = qem_exact(state, BASIS2, mu)
        assert value.log_qem == pytest.approx(expected, rel=1e-12)

    def test_mixture_linearity_exact(self):
        mix = simple_mixture(
            CCR2, means=[[1.0, 0.0], [-1.0, 0.0]], covs=[np.eye(2)] * 2
        )
        mu = 0.3
        parts = [qem_exact(c, BASIS2, mu).log_qem for c in mix.components]
        expected = math.log(0.5 * math.exp(parts[0]) + 0.5 * math.exp(parts[1]))
        assert qem_exact(mix, BASIS2, mu).log_qem == pytest.approx(expected, rel=1e-12)

    def test_grid_within_rounding_of_mu_star_does_not_raise(self):
        # At the float mu* of this state top reads 1 - 2^-53, and on some
        # BLAS builds the LU of S = I - mu B meets an exact zero pivot there.
        # No mu within 40 ulps of mu* raises: each row is finite, or NaN in
        # both columns (always so where top >= 1).
        state = GaussianState(mean=[0.3, 0.0], cov=[[1.7, -0.5], [-0.5, 1.7]], ccr=CCR2)
        engine = ExactEngine(state, BASIS2)
        mus = engine.mu_star + np.arange(-40, 41) * np.spacing(engine.mu_star)
        values, slopes, top = engine.grid(mus, slope=True)
        assert np.array_equal(np.isnan(values), np.isnan(slopes))
        assert np.isnan(values[top >= 1.0]).all() and np.isfinite(values[0])


def _exact_grid_mixture(seed):
    """The mixture of perfbench's exact_grid workload at seed, rebuilt as in
    perfbench/workloads.py: components c_k |Theta| + W_k W_k^T, c_k in
    [1.1, 1.4], on ccr [1, 1.5, 2, 2.5]."""
    rng = np.random.default_rng([seed, 3])
    freqs = [1.0, 1.5, 2.0, 2.5]
    ccr = block_ccr(freqs)
    comps = []
    for c in rng.uniform(1.1, 1.4, size=4):
        w = rng.normal(scale=0.5 / math.sqrt(8.0), size=(8, 8))
        cov = c * np.diag(np.repeat(freqs, 2)) + w @ w.T
        comps.append(GaussianState(mean=rng.normal(scale=0.3, size=8),
                                   cov=0.5 * (cov + cov.T), ccr=ccr))
    weights = rng.uniform(0.5, 1.5, size=4)
    return simple_mixture(ccr, [c.mean for c in comps], [c.cov for c in comps],
                          weights / weights.sum()), symplectic_eigenbasis(ccr)


def _mp_upsilon(engine, mu):
    """The closed form of ExactEngine's docstring at mu (an mpf) in the
    working precision of mpmath, from the engine's rotated inputs."""
    n = engine.theta.size
    e = [mpmath.sqrt(mpmath.tanh(mu * t) / (mu * t)) for t in engine.theta.tolist()]
    log_cos = 2 * mpmath.fsum(mpmath.log(mpmath.cosh(mu * g)) for g in engine.basis.gamma.tolist())
    terms = []
    for log_w, cov, mean in zip(engine.log_weights.tolist(), engine.covs, engine.means):
        s = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                s[i, j] = (i == j) - mu * e[i] * mpmath.mpf(cov[i, j]) * e[j]
        m = mpmath.matrix([e[i] * mpmath.mpf(mean[i]) for i in range(n)])
        quad = (m.T * mpmath.lu_solve(s, m))[0]
        terms.append(log_w + (mu * quad - mpmath.log(mpmath.det(s)) - log_cos) / 2)
    return mpmath.log(mpmath.fsum(mpmath.exp(t) for t in terms))


def test_grid_near_mu_star_against_50_digits():
    # The seed-1 exact_grid chunk that holds mu* (its last 25 of 100 rows
    # to 1.25 mu*), whose rows below mu* are the worst conditioned of the
    # workload: the stacked solve's values and slopes are no further from a
    # 50-digit evaluation of the closed form than the eigh route's.
    state, basis = _exact_grid_mixture(1)
    engine = ExactEngine(state, basis)
    chunk = (1.25 * engine.mu_star * (np.arange(100) + 0.5) / 100)[75:]
    upsilon = functools.partial(_mp_upsilon, engine)
    below = chunk < engine.mu_star
    assert below.sum() >= 3
    errors = {}
    with mpmath.workdps(50):
        mus = [mpmath.mpf(mu) for mu in chunk[below].tolist()]
        exact = [(upsilon(mu), mpmath.diff(upsilon, mu)) for mu in mus]
        for name, (values, slopes, _) in (("solve", engine.grid(chunk, slope=True)),
                                          ("eigh", eigh_exact_chunk(engine, chunk, True))):
            errors[name] = max(max(float(abs(value / v - 1)), float(abs(slope / s - 1)))
                               for value, slope, (v, s) in zip(values[below].tolist(),
                                                               slopes[below].tolist(), exact))
    assert errors["solve"] <= errors["eigh"] < 1e-11


class TestCriticalMu:
    def test_vacuum_unbounded(self):
        assert critical_mu(VACUUM, BASIS2) == math.inf

    def test_thermal_three(self):
        assert critical_mu(THERMAL3, BASIS2) == pytest.approx(math.atanh(1.0 / 3.0), rel=1e-9)

    def test_thermal_two(self):
        state = GaussianState(mean=[0.0, 0.0], cov=2.0 * np.eye(2), ccr=CCR2)
        assert critical_mu(state, BASIS2) == pytest.approx(math.atanh(0.5), rel=1e-9)

    def test_two_mode_minimum(self):
        ccr = block_ccr([1.0, 2.0])
        basis = symplectic_eigenbasis(ccr)
        # gamma sorted descending, so occupancy 1 lands on the theta=2 mode:
        # crossing at 3 tanh(2 mu) = 1; the pure theta=1 mode never crosses
        state = thermal_state(basis, ccr, occupancies=[1.0, 0.0])
        expected = 0.5 * math.atanh(1.0 / 3.0)
        assert critical_mu(state, basis) == pytest.approx(expected, rel=1e-9)

    @pytest.fixture
    def radius_reads(self, monkeypatch):
        """The mu of every radius that mu_star reads."""
        reads = []

        def spy(covs, theta, mu):
            reads.append(mu)
            return _radius(covs, theta, mu)

        monkeypatch.setattr("qembound.qem._radius", spy)
        return reads

    def test_radius_past_the_span_is_not_trusted(self, radius_reads):
        # The theta = 10 mode (cov 10) has limit radius 1 and reads 1 once
        # tanh(10 mu) rounds to 1, as at mu = 3.2, past the span 14/10.  The
        # radius at the span is below 1, so mu* (in truth atanh(0.5)/0.1 ~
        # 5.49, past the span) is not resolved.
        ccr = block_ccr([0.1, 10.0])
        basis = symplectic_eigenbasis(ccr)
        state = GaussianState(mean=np.zeros(4), cov=np.diag([0.2, 0.2, 10.0, 10.0]), ccr=ccr)
        assert critical_mu(state, basis) == math.inf
        assert ExactEngine(state, basis).mu_max() == saturation_mu(basis) == 1.4
        assert radius_reads and max(radius_reads) <= saturation_mu(basis)

    def test_root_between_the_last_doubling_and_the_span(self, radius_reads):
        # cov c I on ccr [1] with c = 1 + 4e-9 crosses at atanh(1/c) ~ 10.0;
        # the doubling reads below 1 at 8 and stops at the span 14, where it
        # reads 1, and the root is solved on [0, 14].
        c = 1.0 + 4e-9
        state = GaussianState(mean=[0.0, 0.0], cov=c * np.eye(2), ccr=CCR2)
        mu_star = critical_mu(state, BASIS2)
        assert mu_star < saturation_mu(BASIS2)
        assert mu_star == pytest.approx(math.atanh(1.0 / c), rel=1e-8)
        assert radius_reads and max(radius_reads) <= saturation_mu(BASIS2)

    @pytest.mark.parametrize("radius", [0.5, math.nan])
    def test_unreached_bracket_is_not_resolved(self, monkeypatch, radius):
        # If the doubling never reads radius 1, it stops at the span and
        # mu* is not resolved below it (inf, as _verdict, mu_max and
        # _raise_too_large read it); brent_root never gets an unbracketed
        # root.
        monkeypatch.setattr("qembound.qem._radius", lambda covs, theta, mu: radius)
        with mock.patch("qembound.qem.brent_root") as brent:
            assert ExactEngine(THERMAL3, BASIS2).mu_star == math.inf
        brent.assert_not_called()


class TestRandomizedMc:
    def test_vacuum_within_three_se(self):
        est = qem_randomized_mc(VACUUM, BASIS2, 1.0, 100000, seed=42)
        assert abs(est.log_qem - 1.0) <= 3.0 * est.rel_std_error
        assert est.method == "monte_carlo"

    def test_thermal_within_three_se(self):
        est = qem_randomized_mc(THERMAL3, BASIS2, 0.2, 100000, seed=43)
        assert abs(est.log_qem - THERMAL3_LOG_QEM_02) <= 3.0 * est.rel_std_error

    def test_mixture_matches_exact_linearity(self):
        mix = simple_mixture(
            CCR2, means=[[1.0, 0.0], [-1.0, 0.0]], covs=[np.eye(2)] * 2
        )
        mu = 0.3
        est = qem_randomized_mc(mix, BASIS2, mu, 100000, seed=46)
        assert abs(est.log_qem - qem_exact(mix, BASIS2, mu).log_qem) <= 3.0 * est.rel_std_error

    def test_seed_reproducible(self):
        a = qem_randomized_mc(VACUUM, BASIS2, 0.5, 5000, seed=77)
        b = qem_randomized_mc(VACUUM, BASIS2, 0.5, 5000, seed=77)
        assert a.log_qem == b.log_qem
        assert a.rel_std_error == b.rel_std_error
        c = qem_randomized_mc(VACUUM, BASIS2, 0.5, 5000, seed=78)
        assert c.log_qem != a.log_qem

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            qem_randomized_mc(VACUUM, BASIS2, 0.5, 1, seed=1)

    @pytest.mark.parametrize("seed", [2**64 + 5, 2**64, -1, 5.0, True],
                             ids=["2**64+5", "2**64", "negative", "float", "bool"])
    def test_seed_outside_uint64_rejected(self, seed):
        # Masked to 64 bits, 2**64 + 5 would alias seed 5 and -1 seed 2**64 - 1.
        with pytest.raises(ValueError, match="seed"):
            qem_randomized_mc(VACUUM, BASIS2, 0.5, 100, seed=seed)

    @pytest.mark.parametrize("samples", [1e4, 100.0, "100"])
    def test_non_integer_sample_count_rejected(self, samples):
        with pytest.raises(ValueError, match="samples"):
            qem_randomized_mc(VACUUM, BASIS2, 0.5, samples, seed=1)

    def test_numpy_integers_accepted(self):
        a = qem_randomized_mc(VACUUM, BASIS2, 0.5, 100, seed=2**64 - 1)
        b = qem_randomized_mc(VACUUM, BASIS2, 0.5, np.int64(100), seed=np.uint64(2**64 - 1))
        assert a == b

    def test_error_bar_scales_with_mu_down_to_subnormal_squares(self):
        # On a centred state the log summands spread by about mu, so the
        # error bar is linear in mu; at mu = 1e-160 and 1e-300 the squared
        # deviations fall below the normal range unless they are rescaled.
        state = GaussianState(mean=[0.0, 0.0], cov=1.5 * np.eye(2), ccr=CCR2)
        ratios = [qem_randomized_mc(state, BASIS2, mu, 1000, seed=1).rel_std_error / mu
                  for mu in (1e-20, 1e-160, 1e-300)]
        assert ratios[0] > 0.0
        assert ratios[1:] == pytest.approx([ratios[0]] * 2, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("spread", [1e-10, 1e-4, 1.0])
    def test_error_bar_matches_two_pass_reference(self, spread):
        # A one-pass variance n s2/s1^2 - 1 cancels once the log summands
        # spread by less than about 1e-8.
        logs = 3.0 + spread * np.random.default_rng(5).standard_normal(1000)
        shifted = np.exp(logs - logs.max())
        reference = np.std(shifted, ddof=1) / (math.sqrt(logs.size) * shifted.mean())
        log_mean, rel_se = log_mean_exp_stats(logs)
        assert rel_se == pytest.approx(reference, rel=1e-5)
        assert log_mean == pytest.approx(logs.max() + math.log(shifted.mean()), rel=1e-12)


class TestUpperBound:
    def test_dominates_exact_vacuum(self):
        bound = qem_upper_bound(VACUUM, BASIS2, 0.5, WeightMatrix(1.2 * np.eye(2)))
        assert bound.log_qem >= 0.5 - 1e-12
        assert bound.method == "upper_bound"

    def test_chain_value(self):
        # independent recomputation of the closed-form chain at nu=1
        mu, lam = 0.5, 1.2
        log_norm = 0.5 * math.log(math.pi) - 0.5 * math.log(lam - 1.0)
        limit = 1.0 / math.tanh(mu)
        expected = (
            -0.5 * math.log(4.0 * math.pi)
            - math.log(math.sinh(mu))
            + log_norm
            - 0.5 * math.log(limit - lam)
        )
        bound = qem_upper_bound(VACUUM, BASIS2, mu, WeightMatrix(lam * np.eye(2)))
        assert bound.log_qem == pytest.approx(expected, rel=1e-12)

    def test_boundary_weight_rejected(self):
        mu = 0.5
        limit = scalar_weight_limit(BASIS2, mu)
        with pytest.raises(WeightOutOfInterval):
            qem_upper_bound(VACUUM, BASIS2, mu, WeightMatrix(limit * np.eye(2)))

    @pytest.mark.parametrize("order", [1, 4])
    def test_weight_of_another_order_rejected(self, order):
        # A 1x1 weight would broadcast against the 2x2 limit; a 4x4 one would not.
        with pytest.raises(DimensionMismatch, match="weight order"):
            qem_upper_bound(VACUUM, BASIS2, 0.5, WeightMatrix(1.2 * np.eye(order)))

    def test_divergent_norm_propagates(self):
        state = GaussianState(mean=[0.0, 0.0], cov=1.5 * np.eye(2), ccr=CCR2)
        with pytest.raises(NormDivergent):
            qem_upper_bound(state, BASIS2, 0.2, WeightMatrix(1.4 * np.eye(2)))


class TestScalarWeightLimit:
    def test_canonical(self):
        assert scalar_weight_limit(BASIS2, 1.0) == pytest.approx(1.0 / math.tanh(1.0), rel=1e-14)

    def test_small_mu_grows(self):
        assert scalar_weight_limit(BASIS2, 1e-6) == pytest.approx(1e6, rel=0.01)

    def test_min_over_modes(self):
        basis = symplectic_eigenbasis(block_ccr([1.0, 3.0]))
        assert scalar_weight_limit(basis, 1.0) == pytest.approx(1.0 / math.tanh(1.0), rel=1e-14)


class TestScalarOptimizedBound:
    def test_dominates_and_converges(self):
        bound, lam = qem_upper_bound_scalar_opt(VACUUM, BASIS2, 0.5)
        assert bound.log_qem >= 0.5 - 1e-12
        # vacuum objective -ln(lam-1)/2 - ln(L-lam)/2 has its minimum at
        # the midpoint of the window (1, L)
        optimum = 0.5 * (1.0 + scalar_weight_limit(BASIS2, 0.5))
        assert abs(lam - optimum) < 1e-8

    def test_empty_window(self):
        # lambda*(0.5) ~ 2.16 < 3 = lambda_max(C)
        with pytest.raises(EmptyFeasibleWindow):
            qem_upper_bound_scalar_opt(THERMAL3, BASIS2, 0.5)

    def test_bound_cgf_limit_with_huge_covariance_eigenvalue(self):
        # The weight limit 1/tanh(mu) meets lambda_max(C) = 1e13 at
        # mu = atanh(1e-13), far below any fixed bisection start.
        ccr = block_ccr([1.0, 2.0])
        basis = symplectic_eigenbasis(ccr)
        state = GaussianState(mean=np.zeros(4), cov=np.diag([1e13, 3.0, 3.0, 3.0]), ccr=ccr)
        cgf, mu_max = scalar_bound_cgf(state, basis)
        assert 0.99e-13 < mu_max < 1e-13
        assert scalar_weight_limit(basis, mu_max) > 1e13
        assert math.isfinite(cgf(0.5 * mu_max)[0])

    def test_window_a_few_ulps_wide_is_evaluated_strictly_inside(self):
        # At mu = (1 - 1e-15) * edge the window (lam_lo, limit) is a few ulps
        # wide, so the WINDOW_MARGIN shrink rounds back onto its ends; the
        # search must still evaluate strictly inside, with no division by a
        # zero gap, or report the window empty.
        rng = np.random.default_rng(5)
        empty = 0
        for _ in range(300):
            ccr, _ = random_ccr(rng, int(rng.integers(1, 4)))
            state = random_admissible_state(rng, ccr)
            basis = symplectic_eigenbasis(ccr)
            engine = ScalarBoundEngine(state, basis)
            theta_min = float(basis.gamma.min())
            mu = (1.0 - 1e-15) * math.atanh(theta_min / engine.lam_lo) / theta_min
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    value, slope = engine.cgf_and_slope(mu)
                except EmptyFeasibleWindow:
                    empty += 1
                    continue
            assert math.isfinite(value) and math.isfinite(slope)
        assert empty <= 10

    def test_beats_fixed_probes(self):
        state = GaussianState(mean=[0.4, 0.1], cov=1.3 * np.eye(2), ccr=CCR2)
        mu = 0.4
        best, _ = qem_upper_bound_scalar_opt(state, BASIS2, mu)
        lam_lo = 1.3
        lam_hi = scalar_weight_limit(BASIS2, mu)
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            lam = lam_lo + frac * (lam_hi - lam_lo)
            probe = qem_upper_bound(state, BASIS2, mu, WeightMatrix(lam * np.eye(2)))
            assert best.log_qem <= probe.log_qem + 1e-10

    def test_dominance_grid(self):
        rng = np.random.default_rng(59)
        for _ in range(4):
            ccr, _ = random_ccr(rng, 2)
            basis = symplectic_eigenbasis(ccr)
            occ = rng.uniform(0.1, 1.0, size=2)
            state = thermal_state(basis, ccr, occ, mean=rng.normal(scale=0.4, size=4))
            _, mu_max_exact = exact_cgf(state, basis)
            _, mu_max_bound = scalar_bound_cgf(state, basis)
            top = 0.9 * min(mu_max_exact, mu_max_bound)
            for mu in np.linspace(0.1 * top, top, 6):
                exact = qem_exact(state, basis, mu).log_qem
                bound, _ = qem_upper_bound_scalar_opt(state, basis, mu)
                assert bound.log_qem >= exact - 1e-12


CLASSICAL_N1 = ClassicalGaussian(mean=[0.0], cov=[[1.0]])


def classical_pair(mu):
    return classical_gaussian_cgf_and_slope(CLASSICAL_N1, mu)


class TestTailBound:
    def test_vacuum_large_eps_boundary(self):
        # symbolic vacuum CGF: Upsilon(mu) = mu, truncated at 50
        result = tail_bound(lambda mu: (mu, np.ones_like(mu)), eps=2.0, mu_max=50.0)
        assert result.log_prob_bound <= -(2.0 - 1.0) * 50.0
        assert result.argmax_mu == 50.0

    def test_vacuum_small_eps_vacuous(self):
        result = tail_bound(lambda mu: (mu, np.ones_like(mu)), eps=0.5, mu_max=50.0)
        assert result.log_prob_bound == 0.0
        assert result.argmax_mu is None

    def test_classical_gaussian_interior_optimum(self):
        result = tail_bound(classical_pair, eps=2.0, mu_max=0.999)
        assert result.argmax_mu == pytest.approx(0.75, abs=1e-6)
        expected = -(2.0 * 0.75 + 0.5 * math.log(0.25))
        assert result.log_prob_bound == pytest.approx(expected, abs=1e-10)
        assert math.exp(result.log_prob_bound) == pytest.approx(0.44626, abs=1e-4)

    def test_monotone_in_eps(self):
        values = [
            tail_bound(classical_pair, eps, mu_max=0.999).log_prob_bound
            for eps in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(v <= 0.0 for v in values)
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_bound_cgf_dominates_exact_cgf(self):
        state = GaussianState(mean=[0.2, 0.0], cov=1.4 * np.eye(2), ccr=CCR2)
        cgf_e, mu_e = exact_cgf(state, BASIS2)
        cgf_b, mu_b = scalar_bound_cgf(state, BASIS2)
        mu_max = min(mu_e, mu_b)
        for eps in (2.0, 4.0):
            t_exact = tail_bound(cgf_e, eps, mu_max)
            t_bound = tail_bound(cgf_b, eps, mu_max)
            # a larger CGF can only weaken the tail bound
            assert t_bound.log_prob_bound >= t_exact.log_prob_bound - 1e-10

    @pytest.mark.parametrize("engine_class", [ExactEngine, ScalarBoundEngine])
    def test_engine_cgf_solves_the_coarse_grid_in_one_grid_call(self, engine_class):
        # The coarse grid is one grid call holding all its mu; the cubic
        # search's steps and any edge probe stay one-point calls (bound, or
        # a 1-mu grid).
        state = GaussianState(mean=[0.2, 0.0], cov=1.4 * np.eye(2), ccr=CCR2)
        engine = engine_class(state, BASIS2)
        mu_max = engine.mu_max()
        with mock.patch.object(engine, "grid", wraps=engine.grid) as grid:
            if engine_class is ScalarBoundEngine:
                with mock.patch.object(engine, "bound", wraps=engine.bound) as bound:
                    result = tail_bound(engine.cgf_and_slope, 3.0, mu_max, grid_points=12)
                assert 2 <= bound.call_count <= 16
            else:
                result = tail_bound(engine.cgf_and_slope, 3.0, mu_max, grid_points=12)
        sizes = [len(call.args[0]) for call in grid.call_args_list]
        coarse = mu_max * np.arange(1, 13) / 13
        assert sizes.count(12) == 1 and set(sizes) <= {1, 12}
        np.testing.assert_array_equal(grid.call_args_list[sizes.index(12)].args[0], coarse)
        assert result.log_prob_bound < 0.0

    def test_array_cgf_raises_the_one_point_error_past_mu_star(self):
        # THERMAL3 has mu* = atanh(1/3) ~ 0.347; the first mu past it names
        # the error, as the one-point call does there.
        engine = ExactEngine(THERMAL3, BASIS2)
        with pytest.raises(RiskParameterTooLarge) as one_point:
            engine.cgf_and_slope(0.5)
        with pytest.raises(RiskParameterTooLarge) as array:
            engine.cgf_and_slope(np.array([0.1, 0.2, 0.5, 1.0]))
        assert str(array.value) == str(one_point.value)

    @pytest.mark.parametrize("mus, first, error", [
        ([0.1, 0.2, 0.5, 1.0], 0.5, EmptyFeasibleWindow),
        ([1e-310, 0.1, 0.5], 1e-310, NumericalOverflowDespiteLogSpace),
    ], ids=["past-the-window-edge", "overflowing-weight-limit"])
    def test_array_bound_cgf_raises_the_one_point_error(self, mus, first, error):
        # THERMAL3's weight window 1/tanh(mu) > 3 closes at atanh(1/3) ~ 0.347.
        engine = ScalarBoundEngine(THERMAL3, BASIS2)
        with pytest.raises(error) as one_point:
            engine.cgf_and_slope(first)
        with pytest.raises(error) as array:
            engine.cgf_and_slope(np.array(mus))
        assert str(array.value) == str(one_point.value)

    def test_array_cgf_matches_one_point_calls(self):
        mus = np.array([0.05, 0.1, 0.2, 0.3])
        for engine in (ExactEngine(THERMAL3, BASIS2), ScalarBoundEngine(VACUUM, BASIS2)):
            values, slopes = engine.cgf_and_slope(mus)
            assert [engine.cgf_and_slope(mu) for mu in mus.tolist()] == list(
                zip(values.tolist(), slopes.tolist()))

    @pytest.mark.parametrize("cgf, shapes", [
        (lambda mu: (mu, 1.0), r"\(64,\) and \(\)"),
        (lambda mu: (mu[:1], mu[:1]), r"\(1,\) and \(1,\)"),
    ], ids=["float-slope", "short-arrays"])
    def test_array_answer_of_the_wrong_shape_is_rejected(self, cgf, shapes):
        # Every cgf answers the coarse grid's array call; one that answers
        # it with the wrong shape is told the shape it owes.
        with pytest.raises(ValueError, match=r"shape \(64,\).*got " + shapes):
            tail_bound(cgf, eps=2.0, mu_max=50.0)

    def test_classical_pair_solves_the_coarse_grid_in_one_array_call(self):
        # Every callable gets the one array call, so a wrapper around one,
        # such as a call counter, takes the path and gives the bound of the
        # callable it wraps.
        calls = []

        def counted(mu):
            calls.append(np.shape(mu))
            return classical_pair(mu)

        result = tail_bound(counted, eps=2.0, mu_max=0.999, grid_points=12)
        assert calls[0] == (12,) and set(calls[1:]) == {()}
        assert result == tail_bound(classical_pair, eps=2.0, mu_max=0.999, grid_points=12)

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            tail_bound(classical_pair, eps=-1.0, mu_max=0.9)
        with pytest.raises(InvalidRange):
            tail_bound(classical_pair, eps=1.0, mu_max=0.0)

    @pytest.mark.parametrize("grid_points", [0, -3, 2.5, 3.0, True, "3", None])
    def test_grid_needs_a_point(self, grid_points):
        # An integer count of at least 1: a float would space its points by
        # mu_max/(grid_points + 1) without being their number, and a bool
        # or a string is not a count.
        with pytest.raises(InvalidRange, match="grid_points"):
            tail_bound(classical_pair, eps=1.0, mu_max=0.9, grid_points=grid_points)

    def test_grid_points_of_any_integer_type(self):
        assert (tail_bound(classical_pair, eps=2.0, mu_max=0.999, grid_points=np.int64(8))
                == tail_bound(classical_pair, eps=2.0, mu_max=0.999, grid_points=8))

    def test_single_point_grid(self):
        result = tail_bound(classical_pair, eps=2.0, mu_max=0.999, grid_points=1)
        assert result.log_prob_bound == pytest.approx(
            tail_bound(classical_pair, eps=2.0, mu_max=0.999).log_prob_bound, abs=1e-8)

    def test_edge_probe_propagates_program_errors(self):
        # The gain still climbs at mu_max, so the limit value is probed
        # there; only a library error may fall back to the interior best.
        def broken(mu):
            if np.any(mu == 1.0):
                raise ZeroDivisionError("bug at the edge")
            return 0.0 * mu, 0.0 * mu

        with pytest.raises(ZeroDivisionError):
            tail_bound(broken, eps=2.0, mu_max=1.0)

    def test_edge_probe_keeps_interior_best_past_the_limit(self):
        def too_large_at_edge(mu):
            if np.any(mu == 1.0):
                raise RiskParameterTooLarge("edge")
            return 0.0 * mu, 0.0 * mu

        result = tail_bound(too_large_at_edge, eps=2.0, mu_max=1.0)
        assert result.argmax_mu == 1.0
        assert result.log_prob_bound == pytest.approx(-2.0, rel=1e-8)
        assert result.log_prob_bound > -2.0


class TestClassicalLimit:
    def test_quadratic_convergence(self):
        mean = [1.0, -0.5]
        cov = np.diag([0.8, 0.5])
        classical = classical_gaussian_qem(ClassicalGaussian(mean=mean, cov=cov), 0.5)
        gaps = []
        for eta in (1e-1, 1e-2, 1e-3):
            ccr = validate_ccr(eta * J2)
            basis = symplectic_eigenbasis(ccr)
            state = GaussianState(mean=mean, cov=cov, ccr=ccr)
            gaps.append(abs(qem_exact(state, basis, 0.5).log_qem - classical))
        assert 80.0 <= gaps[0] / gaps[1] <= 120.0
        assert 80.0 <= gaps[1] / gaps[2] <= 120.0


def _cgf_at(factory, mu=0.2):
    def call(state, basis):
        cgf, mu_max = factory(state, basis)
        return cgf(mu), mu_max
    return call


class TestBasisContract:
    """A basis must come from the state's CCR matrix (equal Theta), not
    merely one of the same order."""

    STATE = GaussianState(mean=[0.5, 0.0], cov=1.5 * np.eye(2), ccr=CCR2)
    CALLS = {
        "qem_exact": lambda s, b: qem_exact(s, b, 0.2),
        "critical_mu": critical_mu,
        "exact_cgf": _cgf_at(exact_cgf),
        "qem_randomized_mc": lambda s, b: qem_randomized_mc(s, b, 0.2, 1000, seed=3),
        "qem_upper_bound": lambda s, b: qem_upper_bound(s, b, 0.2, WeightMatrix(2.0 * np.eye(2))),
        "qem_upper_bound_scalar_opt": lambda s, b: qem_upper_bound_scalar_opt(s, b, 0.2),
        "scalar_bound_cgf": _cgf_at(scalar_bound_cgf),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_basis_of_another_ccr_rejected(self, name):
        other = symplectic_eigenbasis(validate_ccr(3.0 * J2))
        with pytest.raises(DimensionMismatch):
            self.CALLS[name](self.STATE, other)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_basis_of_an_equal_ccr_accepted(self, name):
        twin = symplectic_eigenbasis(validate_ccr(J2))
        assert twin.ccr is not CCR2
        assert self.CALLS[name](self.STATE, twin) == self.CALLS[name](self.STATE, BASIS2)
