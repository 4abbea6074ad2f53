"""Quadratic-exponential moments and their bounds.

The central quantity is the moment Xi(mu) = E exp((mu/2) X^T X) of quantum
variables with commutation matrix Theta, reported through its logarithm
Upsilon(mu) = ln Xi(mu) (the CGF of the half quadratic form).  Three routes
are provided:

* exact Gaussian closed form, valid while mu * rho(C K(mu)) < 1 with
  K(mu) = tanc(mu*Theta);
* a randomized Monte-Carlo estimator that averages the state's MGF over an
  auxiliary Gaussian vector with covariance K(mu) and divides by
  sqrt(det cos(mu*Theta));
* weighted-norm upper bounds obtained from the Cauchy-Schwarz inequality
  in a weighted L2 space of MGFs, optimized over scalar weights.

Chernoff-type tail bounds ln P(Q >= 2*eps) <= -(sup_mu eps*mu - Upsilon(mu))
close the pipeline.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import logsumexp

from ._search import bisect_nondecreasing, golden_section_maximize, golden_section_minimize
from .ccr import SymplecticBasis, aux_covariance, lnsinh, log_det_cos, mode_matrix, tanhc
from .errors import (
    DimensionMismatch,
    EmptyFeasibleWindow,
    InvalidRange,
    NormDivergent,
    NumericalOverflowDespiteLogSpace,
    RiskParameterTooLarge,
    StepTooLargeNearBoundary,
    WeightOutOfInterval,
)
from .sampling import log_mean_exp_stats, standard_normal_blocks
from .states import (
    GaussianState,
    MixtureMgf,
    WeightMatrix,
    as_mixture,
    log_mgf_batch,
    log_weighted_norm,
)

METHOD_EXACT = "exact_gaussian"
METHOD_MC = "monte_carlo"
METHOD_BOUND = "upper_bound"

#: Relative shrink applied to both ends of scalar-weight windows before
#: optimizing, keeping evaluations away from divergent boundaries.
WINDOW_MARGIN = 1e-9

#: Truncation of sup_{mu>0} searches: fraction of the critical mu for exact
#: CGFs, and span/theta_min otherwise.
CGF_SAFETY = 0.999
CGF_SPAN = 50.0

#: Beyond mu * theta_max of about this size, 1 - tanh(mu*theta) falls under
#: double-precision resolution and the contraction gap in the closed forms
#: is no longer representable; CGF spans are capped accordingly.
SATURATION_SPAN = 14.0


@dataclass(frozen=True)
class QemValue:
    """One computed moment value on the log scale.

    rel_std_error is populated by the Monte-Carlo route only and is the
    relative standard error of the moment estimate (equivalently, the
    absolute standard error of log_qem).
    """

    mu: float
    log_qem: float
    method: str
    rel_std_error: float | None = None

    def __post_init__(self):
        if self.method == METHOD_EXACT and self.log_qem < -1e-12:
            raise ValueError(
                f"exact log-moment must be nonnegative, got {self.log_qem!r}"
            )


@dataclass(frozen=True)
class TailBound:
    """Chernoff-type bound on ln P(Q >= 2*eps); never above 0."""

    eps: float
    log_prob_bound: float
    argmax_mu: float | None


def _check_dims(state, basis: SymplecticBasis):
    if state.n != basis.n:
        raise DimensionMismatch(f"state dimension {state.n} != basis order {basis.n}")


def qem_gaussian_exact(state: GaussianState, basis: SymplecticBasis, mu: float) -> QemValue:
    """Closed-form log-moment of a Gaussian state.

    Upsilon(mu) = (||M||^2_{mu K (I - mu C K)^-1}
                   - ln det(cos(mu*Theta) - mu C sinc(mu*Theta))) / 2,
    evaluated in log space through the factorization
    det(cos - mu C sinc) = det(I - mu C K) det(cos).  Requires
    mu * rho(C K(mu)) < 1; otherwise RiskParameterTooLarge is raised with
    the critical mu found by bisection.
    """
    _check_dims(state, basis)
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    gamma = basis.gamma
    c = state.cov
    k_sqrt = mode_matrix(basis, np.sqrt(tanhc(mu * gamma)))
    w = np.linalg.eigvalsh(mu * k_sqrt @ c @ k_sqrt)
    if w[-1] >= 1.0:
        mu_star = critical_mu(state, basis)
        if math.isfinite(mu_star):
            raise RiskParameterTooLarge(
                f"mu = {mu} exceeds the critical value mu* = {mu_star:.12g} "
                f"(mu * rho(C K(mu)) = {w[-1]:.6g})"
            )
        raise RiskParameterTooLarge(
            f"contraction gap at mu = {mu} saturated double precision "
            "(the moment is finite for all mu, but 1 - mu*rho(C K(mu)) is "
            "below machine resolution here)"
        )
    logdet_contraction = float(np.log1p(-w).sum())
    quad = 0.0
    if np.any(state.mean != 0.0):
        k_inv = mode_matrix(basis, 1.0 / tanhc(mu * gamma))
        factor = cho_factor(k_inv - mu * c, lower=True)
        quad = mu * float(state.mean @ cho_solve(factor, state.mean))
    log_qem = 0.5 * (quad - logdet_contraction - log_det_cos(basis, mu))
    return QemValue(mu=mu, log_qem=log_qem, method=METHOD_EXACT)


def qem_exact(state, basis: SymplecticBasis, mu: float) -> QemValue:
    """Exact log-moment of a Gaussian or Gaussian-mixture state.

    The moment is linear in the density operator, so a mixture's moment is
    the weighted sum of its components' Gaussian closed forms.
    """
    if isinstance(state, GaussianState):
        return qem_gaussian_exact(state, basis, mu)
    mix = as_mixture(state)
    parts = [qem_gaussian_exact(c, basis, mu).log_qem for c in mix.components]
    log_qem = float(logsumexp(np.asarray(parts) + np.log(mix.weights)))
    return QemValue(mu=mu, log_qem=log_qem, method=METHOD_EXACT)


def critical_mu(state, basis: SymplecticBasis) -> float:
    """The unique mu* with mu * rho(C K(mu)) = 1, or infinity if unreachable.

    mu * K(mu) has nondecreasing eigenvalues tanh(mu*theta_k)/theta_k with
    supremum 1/theta_k, so the map is nondecreasing in mu and bounded by
    the spectral radius at the limit matrix; bisection to relative 1e-10.
    For a mixture the minimum over components is returned.
    """
    if isinstance(state, MixtureMgf):
        return min(critical_mu(c, basis) for c in state.components)
    _check_dims(state, basis)
    c = state.cov
    gamma = basis.gamma

    def radius(mu):
        s = mode_matrix(basis, np.sqrt(np.tanh(mu * gamma) / gamma))
        return float(np.linalg.eigvalsh(s @ c @ s)[-1])

    limit_sqrt = mode_matrix(basis, 1.0 / np.sqrt(gamma))
    rho_limit = float(np.linalg.eigvalsh(limit_sqrt @ c @ limit_sqrt)[-1])
    if rho_limit <= 1.0:
        return math.inf
    hi = 1.0 / float(gamma.max())
    lo = 0.0
    for _ in range(200):
        if radius(hi) >= 1.0:
            break
        lo = hi
        hi *= 2.0
    return bisect_nondecreasing(radius, 1.0, lo, hi, rel_tol=1e-10)


def qem_randomized_mc(
    state, basis: SymplecticBasis, mu: float, samples: int, seed: int
) -> QemValue:
    """Monte-Carlo log-moment via the MGF averaging identity

        Xi(mu) = E psi(sqrt(mu) Z) / sqrt(det cos(mu*Theta)),

    with Z ~ N(0, K(mu)) drawn through a Cholesky factor of K(mu).  All
    aggregation is done on max-shifted log summands; the reported
    rel_std_error comes from the sample variance of those summands.
    Deterministic for a fixed seed.
    """
    _check_dims(state, basis)
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    if samples < 2:
        raise ValueError("need at least two samples")
    k_mat = aux_covariance(basis, mu)
    chol = np.linalg.cholesky(k_mat)
    root_mu = math.sqrt(mu)
    logs = []
    for z in standard_normal_blocks(seed, 0, samples, basis.n):
        u = root_mu * (z @ chol.T)
        logs.append(log_mgf_batch(state, u))
    all_logs = np.concatenate(logs)
    if not np.all(np.isfinite(all_logs)):
        raise NumericalOverflowDespiteLogSpace("non-finite log-MGF summand")
    log_mean, rel_se = log_mean_exp_stats(all_logs)
    log_qem = log_mean - 0.5 * log_det_cos(basis, mu)
    if not math.isfinite(log_qem):
        raise NumericalOverflowDespiteLogSpace("non-finite estimate")
    return QemValue(mu=mu, log_qem=log_qem, method=METHOD_MC, rel_std_error=rel_se)


def _log_bound_prefactor(basis: SymplecticBasis, mu: float) -> float:
    """State-independent part -nu/2*ln(4 pi) - ln det(mu sinc(mu*Theta))/2.

    The determinant has eigenvalues sinh(mu*theta_k)/theta_k of double
    multiplicity and is evaluated from the eigenfrequencies in log space.
    """
    gamma = basis.gamma
    logdet = 2.0 * float(np.sum(lnsinh(mu * gamma) - np.log(gamma)))
    return -0.5 * basis.n_modes * math.log(4.0 * math.pi) - 0.5 * logdet


def _scalar_gap_logdet(basis: SymplecticBasis, mu: float, lam: float) -> float:
    """ln det((1/mu) K(mu)^-1 - lam I); eigenvalues theta_k/tanh(mu theta_k)."""
    gaps = basis.gamma / np.tanh(mu * basis.gamma) - lam
    if np.any(gaps <= 0.0):
        raise WeightOutOfInterval(f"lam = {lam} reaches the weight interval boundary")
    return 2.0 * float(np.sum(np.log(gaps)))


def qem_upper_bound(state, basis: SymplecticBasis, mu: float, weight: WeightMatrix) -> QemValue:
    """Weighted-norm upper bound on the log-moment at a fixed weight matrix:

        ln Xi(mu) <= -nu/2 ln(4 pi) - ln det(mu sinc(mu*Theta))/2
                     + ln |||psi|||_P - ln det((1/mu) K(mu)^-1 - P)/4,

    valid for 0 < P < (1/mu) K(mu)^-1 and a finite norm.  Dominates the
    exact value whenever the latter exists.
    """
    _check_dims(state, basis)
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    if not isinstance(weight, WeightMatrix):
        weight = WeightMatrix(weight)
    upper = mode_matrix(basis, basis.gamma / np.tanh(mu * basis.gamma))
    gap = upper - weight.P
    try:
        factor = cho_factor(0.5 * (gap + gap.T), lower=True)
    except np.linalg.LinAlgError as exc:
        raise WeightOutOfInterval(
            "weight does not satisfy P < (1/mu) K(mu)^-1"
        ) from exc
    logdet_gap = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    log_norm = log_weighted_norm(state, weight)
    log_bound = _log_bound_prefactor(basis, mu) + log_norm - 0.25 * logdet_gap
    return QemValue(mu=mu, log_qem=log_bound, method=METHOD_BOUND)


def scalar_weight_limit(basis: SymplecticBasis, mu: float) -> float:
    """Largest admissible scalar weight theta_min / tanh(mu * theta_min).

    Equals the smallest eigenvalue of (1/mu) K(mu)^-1; scalar weights must
    stay strictly below it.
    """
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    theta_min = float(basis.gamma.min())
    return theta_min / math.tanh(mu * theta_min)


def _max_component_cov_eig(state) -> float:
    return max(float(np.linalg.eigvalsh(c.cov)[-1]) for c in as_mixture(state).components)


def qem_upper_bound_scalar_opt(state, basis: SymplecticBasis, mu: float):
    """Minimize the weighted-norm bound over scalar weights lam * I.

    The feasible window is (max_i lambda_max(C_i), theta_min/tanh(mu theta_min)),
    shrunk by a relative margin at both ends; both the norm and the
    determinant gap decrease in lam, so the objective is smooth and the
    golden-section search converges.  Returns (QemValue, lam_opt).
    """
    _check_dims(state, basis)
    lam_lo = _max_component_cov_eig(state)
    lam_hi = scalar_weight_limit(basis, mu)
    if not lam_hi > lam_lo:
        raise EmptyFeasibleWindow(
            f"no scalar weight window: limit {lam_hi:.6g} <= largest covariance "
            f"eigenvalue {lam_lo:.6g}"
        )
    width = lam_hi - lam_lo
    lo = lam_lo + WINDOW_MARGIN * width
    hi = lam_hi - WINDOW_MARGIN * width
    eye = np.eye(basis.n)

    def objective(lam):
        return qem_upper_bound(state, basis, mu, WeightMatrix(lam * eye)).log_qem

    lam_opt, log_bound = golden_section_minimize(objective, lo, hi)
    return QemValue(mu=mu, log_qem=log_bound, method=METHOD_BOUND), lam_opt


def exact_cgf(state, basis: SymplecticBasis, safety: float = CGF_SAFETY):
    """CGF callable for the exact route, with its truncated validity limit.

    Returns (cgf, mu_max) where mu_max = safety * mu_star when the critical
    value is finite; otherwise the span CGF_SPAN / theta_min capped at the
    double-precision saturation limit SATURATION_SPAN / theta_max.
    """
    mu_star = critical_mu(state, basis)
    saturation = SATURATION_SPAN / float(basis.gamma.max())
    if math.isfinite(mu_star):
        mu_max = min(safety * mu_star, saturation)
    else:
        mu_max = min(CGF_SPAN / float(basis.gamma.min()), saturation)

    def cgf(mu):
        return qem_exact(state, basis, mu).log_qem

    return cgf, mu_max


def scalar_bound_cgf(state, basis: SymplecticBasis, safety: float = CGF_SAFETY):
    """Upper-bound CGF callable from the scalar-weight optimizer.

    The bound is finite while scalar_weight_limit(mu) stays above the
    largest component covariance eigenvalue; the returned mu_max truncates
    slightly inside that region (and at CGF_SPAN / theta_min).
    """
    lam_need = _max_component_cov_eig(state)
    theta_min = float(basis.gamma.min())
    span = min(CGF_SPAN / theta_min, SATURATION_SPAN / float(basis.gamma.max()))
    if scalar_weight_limit(basis, span) > lam_need:
        mu_max = span
    else:
        # scalar_weight_limit decreases in mu; find where it hits lam_need
        edge = bisect_nondecreasing(
            lambda mu: -scalar_weight_limit(basis, mu), -lam_need, 1e-12, span
        )
        mu_max = safety * edge

    def cgf(mu):
        return qem_upper_bound_scalar_opt(state, basis, mu)[0].log_qem

    return cgf, mu_max


def tail_bound(cgf, eps: float, mu_max: float, grid_points: int = 64) -> TailBound:
    """Chernoff tail bound ln P(Q >= 2*eps) <= -(sup eps*mu - cgf(mu)).

    cgf may be the exact CGF or any valid upper bound of it; either way
    every evaluated point yields a valid bound, and the search (coarse grid
    plus golden-section refinement, with the last bracket reaching toward
    mu_max) only tightens it.  The result is clamped at 0 since a log
    probability bound cannot be positive.  When the supremum is still
    increasing at the upper truncation, the boundary value is reported and
    argmax_mu is flagged as mu_max itself.
    """
    if not (eps >= 0.0 and math.isfinite(eps)):
        raise InvalidRange(f"eps must be finite and nonnegative, got {eps!r}")
    if not (mu_max > 0.0 and math.isfinite(mu_max)):
        raise InvalidRange(f"mu_max must be finite and positive, got {mu_max!r}")

    def gain(mu):
        return eps * mu - cgf(mu)

    grid = mu_max * np.arange(1, grid_points + 1) / (grid_points + 1)
    values = [gain(mu) for mu in grid]
    j = int(np.argmax(values))
    lo = grid[j - 1] if j > 0 else grid[0] * 1e-6
    boundary = j == grid_points - 1
    hi = mu_max * (1.0 - 1e-9) if boundary else grid[j + 1]
    x, best = golden_section_maximize(gain, lo, hi)
    if best < values[j]:
        x, best = float(grid[j]), values[j]
    argmax = x
    if boundary and hi - x <= 1e-6 * mu_max:
        # still climbing at the truncation point: report the limit value
        try:
            edge = gain(mu_max)
        except Exception:
            edge = best
        if edge >= best:
            best = edge
        argmax = mu_max
    if best <= 0.0:
        return TailBound(eps=eps, log_prob_bound=0.0, argmax_mu=None)
    return TailBound(eps=eps, log_prob_bound=-best, argmax_mu=argmax)


def tail_bound_bregman(cgf, mu: float, derivative_step: float, mu_max: float = math.inf):
    """Threshold-bound pair from the CGF slope at one point:

        ln P(Q >= 2*cgf'(mu)) <= cgf(mu) - mu * cgf'(mu),

    with cgf'(mu) by central difference at the given step.  The right-hand
    side is nonpositive for a convex CGF.  Returns (threshold, log_bound)
    where threshold = 2 * cgf'(mu).
    """
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    if not derivative_step > 0.0:
        raise ValueError("derivative_step must be positive")
    h = derivative_step
    if mu - h <= 0.0 or mu + h >= mu_max:
        raise StepTooLargeNearBoundary(
            f"central difference at mu = {mu} with step {h} leaves (0, {mu_max})"
        )
    try:
        up = cgf(mu + h)
        down = cgf(mu - h)
        mid = cgf(mu)
    except (RiskParameterTooLarge, EmptyFeasibleWindow, NormDivergent) as exc:
        raise StepTooLargeNearBoundary(str(exc)) from exc
    slope = (up - down) / (2.0 * h)
    return 2.0 * slope, mid - mu * slope
