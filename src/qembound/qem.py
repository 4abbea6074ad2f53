"""Quadratic-exponential moments and their bounds.

The central quantity is the moment Xi(mu) = E exp((mu/2) X^T X) of quantum
variables with commutation matrix Theta, reported through its logarithm
Upsilon(mu) = ln Xi(mu) (the CGF of the half quadratic form).  Three routes
are provided:

* exact Gaussian closed form, valid while mu * rho(C K(mu)) < 1 with
  K(mu) = tanc(mu*Theta), evaluated for a whole mixture over a grid of mu
  by ExactEngine from one stacked eigh per grid chunk, which also yields
  the analytic slope Upsilon'(mu);
* a randomized Monte-Carlo estimator that averages the state's MGF over an
  auxiliary Gaussian vector with covariance K(mu) and divides by
  sqrt(det cos(mu*Theta));
* weighted-norm upper bounds obtained from the Cauchy-Schwarz inequality
  in a weighted L2 space of MGFs, optimized over scalar weights.

Chernoff-type tail bounds ln P(Q >= 2*eps) <= -(sup_mu eps*mu - Upsilon(mu))
close the pipeline.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._search import brent_root, newton_minimize, newton_minimize_grid
from .ccr import (SymplecticBasis, _cholesky, _over_x, _require_positive, _same_ccr,
                  aux_covariance, lncosh, lnsinh, log_det_cos, mode_matrix)
from .errors import (
    DimensionMismatch,
    EmptyFeasibleWindow,
    InvalidRange,
    NormDivergent,
    NotPositiveDefinite,
    NumericalOverflowDespiteLogSpace,
    QemBoundError,
    RiskParameterTooLarge,
    WeightOutOfInterval,
)
from .sampling import check_samples, log_mean_exp_stats, standard_normal_blocks
from .states import WeightMatrix, as_mixture, log_mixture_mgf, log_weighted_norm

METHOD_EXACT = "exact_gaussian"
METHOD_MC = "monte_carlo"
METHOD_BOUND = "upper_bound"

#: Relative shrink applied to both ends of scalar-weight windows before
#: optimizing, keeping evaluations away from divergent boundaries.
WINDOW_MARGIN = 1e-9

#: Truncation of sup_{mu>0} searches: the fraction of a finite validity
#: limit (the critical mu*, or the edge of the scalar-weight window) kept.
CGF_SAFETY = 0.999

#: Resolution of the contraction gap in the closed forms is lost near
#: mu * theta ~ 18, where 1 - tanh(mu*theta) falls under double precision;
#: CGF spans are capped at mu * theta_max = 14, a margin before that point.
SATURATION_SPAN = 14.0

#: Most mu values that ExactEngine.grid puts into one stacked eigh, so a
#: long grid never holds more than GRID_CHUNK * K n x n matrices at once.
GRID_CHUNK = 64


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


def _check_basis(state, basis: SymplecticBasis):
    if not _same_ccr(state.ccr, basis.ccr):
        raise DimensionMismatch("state and basis do not come from one CCR matrix")


def saturation_mu(basis: SymplecticBasis) -> float:
    """The mu = SATURATION_SPAN / theta_max at which the closed forms stop
    resolving the contraction gap; every CGF span ends there at the latest."""
    return SATURATION_SPAN / float(basis.gamma.max())


class ExactEngine:
    """Exact closed form of a Gaussian or Gaussian-mixture state, reusable
    across mu.

    With the orthogonal Q = sqrt(2) H of the symplectic basis, K(mu) =
    Q diag(e^2) Q^T where e = sqrt(tanh(mu theta)/(mu theta)) lies in (0, 1]
    (one entry per mode, repeated for its pair).  Each component's
    contraction mu K^(1/2) C K^(1/2) is therefore similar to mu B with the
    unit-scale B = diag(e) C~ diag(e), C~ = Q^T C Q.  With M~ = Q^T M,

        Upsilon = (mu sum p^2/(1 - w) - sum ln(1 - w) - ln det cos(mu Theta)) / 2

    over the spectrum B = V diag(w_unit) V^T, w = mu w_unit and
    p = V^T (e * M~), all finite down to subnormal mu.  Construction
    rotates the covariances and means once; grid evaluates a whole grid of
    mu by one stacked eigh over every (mu, component) pair of each chunk of
    GRID_CHUNK mu, and cgf and cgf_and_slope are its one-point case.  mu*
    is computed on first use and cached.
    """

    def __init__(self, state, basis: SymplecticBasis):
        _check_basis(state, basis)
        mix = as_mixture(state)
        q = math.sqrt(2.0) * basis.H
        self.basis = basis
        self.log_weights = np.log(mix.weights)
        self.covs = np.stack([q.T @ c.cov @ q for c in mix.components])
        self.means = np.stack([c.mean @ q for c in mix.components])
        self.theta = np.repeat(basis.gamma, 2)

    @functools.cached_property
    def mu_star(self) -> float:
        """The critical mu* of the state (see critical_mu): the stacked
        radius of the components whose limit radius exceeds 1 is doubled
        from 1/theta_max until it reaches 1, then brent_root solves
        radius = 1 on [0, hi] (radius(0) = 0).  The other components never
        cross, and are left out so a saturated radius cannot read 1 first.
        A radius read past saturation_mu is not trusted: a mode whose limit
        radius is 1 reads 1 there once tanh(mu theta) rounds to 1.  So a hi
        past the span falls back to the span, and if the radius is below 1
        there mu* is not resolved and inf is returned.  If the doubling
        never reaches 1, its last hi is returned."""
        e_limit = 1.0 / np.sqrt(self.theta)
        limits = np.linalg.eigvalsh(e_limit[:, None] * self.covs * e_limit)[:, -1]
        covs = self.covs[limits > 1.0]
        if not covs.size:
            return math.inf
        radius = functools.partial(_radius, covs, self.theta)
        hi = 1.0 / float(self.theta.max())
        for _ in range(200):
            top = radius(hi)
            if top >= 1.0:
                break
            hi *= 2.0
        if not top >= 1.0:
            return hi
        span = saturation_mu(self.basis)
        if hi > span:
            hi, top = span, radius(span)
            if not top >= 1.0:
                return math.inf
        return brent_root(lambda mu: radius(mu) - 1.0, 0.0, hi, -1.0, top - 1.0)

    def mu_max(self) -> float:
        """Truncated validity limit of the CGF (see exact_cgf)."""
        return min(CGF_SAFETY * self.mu_star, saturation_mu(self.basis))

    def cgf(self, mu: float) -> float:
        """Upsilon(mu); raises RiskParameterTooLarge past the contraction limit."""
        return self.cgf_and_slope(mu, slope=False)[0]

    def cgf_and_slope(self, mu, slope=True):
        """(Upsilon(mu), Upsilon'(mu)) at a float mu, the one-point grid, or
        the arrays (values, slopes) of one grid call over a 1-D array of mu
        (the slope None when slope is false); raises RiskParameterTooLarge
        past the contraction limit, at the first such mu of an array (see
        grid).  tail_bound makes its coarse grid one array call."""
        mus = np.atleast_1d(np.asarray(mu, dtype=float))
        values, slopes, top = self.grid(mus, slope)
        past = np.flatnonzero(top >= 1.0)
        if past.size:
            self._raise_too_large(mus[past[0]].item(), top[past[0]].item())
        if np.ndim(mu):
            return values, slopes
        return values.item(), None if slopes is None else slopes.item()

    def grid(self, mus, slope=False):
        """(values, slopes, top) of Upsilon over the positive mus, in chunks
        of at most GRID_CHUNK mu per stacked eigh.

        top is mu rho(C K(mu)), the largest over the components (the
        Monte-Carlo variance is finite below 1/2), inf where mu theta
        overflows: a finite mu* lies below about 18.4/theta_min, where tanh
        saturates.  values (and slopes) are NaN where top >= 1, the moment
        being infinite there (or, for an infinite mu*, its contraction gap
        below double precision).  slopes is None unless slope is true.  With
        c = 2 mu theta/sinh(2 mu theta) in (0, 1] (-mu e^2 d(e^-2)/dmu for
        e^2 = tanh(mu theta)/theta) and h = V (p/(1 - w)),

            2 Upsilon_k' = sum c (h^2 + sum_j V_ij^2 w_unit_j/(1 - w_j))
                           - 2 sum_modes theta tanh(mu theta),

        where the 1/mu terms of the direct derivative have cancelled
        analytically (sum_j V_ij^2 = 1); the mixture slope is the
        softmax-weighted sum of the component slopes.  At mu -> 0 it tends
        to (tr C + |M|^2)/2.
        """
        mus = np.asarray(mus, dtype=float)
        if not np.all(mus > 0.0):
            raise ValueError("mu must be positive")
        values, slopes, top = zip(*[self._chunk(mus[i:i + GRID_CHUNK], slope)
                                    for i in range(0, max(mus.size, 1), GRID_CHUNK)])
        return np.concatenate(values), np.concatenate(slopes) if slope else None, np.concatenate(top)

    # Past the limit mu theta (and the log cos term) may overflow to inf;
    # those rows read top = inf and are masked below, so no warning is due.
    @np.errstate(over="ignore")
    def _chunk(self, mus, slope):
        x = mus[:, None] * self.theta
        e = np.sqrt(_over_x(np.tanh, x))
        w_unit, v = np.linalg.eigh(e[:, None, :, None] * self.covs * e[:, None, None, :])
        w = mus[:, None, None] * w_unit
        top = np.where(np.isinf(x).any(axis=1), np.inf, w.max(axis=(1, 2)))
        # NaN rows past the limit keep log1p and the divisions quiet.
        w[top >= 1.0] = np.nan
        gap = 1.0 - w
        p = np.matmul((e[:, None, :] * self.means)[:, :, None, :], v)[:, :, 0, :]
        log_cos = 2.0 * lncosh(mus[:, None] * self.basis.gamma).sum(axis=1)
        parts = 0.5 * (mus[:, None] * (p * p / gap).sum(axis=2) - np.log1p(-w).sum(axis=2)
                       - log_cos[:, None])
        x_mix = parts + self.log_weights
        shift = x_mix.max(axis=1)
        mix = np.exp(x_mix - shift[:, None])
        total = mix.sum(axis=1)
        values = shift + np.log(total)
        if not slope:
            return values, None, top
        c = 1.0 / _over_x(np.sinh, 2.0 * x)
        h = np.matmul(v, (p / gap)[..., None])[..., 0]
        spread = (v * v * (w_unit / gap)[:, :, None, :]).sum(axis=3)
        slopes = 0.5 * ((c[:, None, :] * (h * h + spread)).sum(axis=2)
                        - (self.theta * np.tanh(x)).sum(axis=1)[:, None])
        return values, (mix * slopes).sum(axis=1) / total, top

    def _raise_too_large(self, mu, top):
        span = saturation_mu(self.basis)
        if self.mu_star < span:
            raise RiskParameterTooLarge(
                f"mu = {mu} exceeds the critical value mu* = {self.mu_star:.12g} "
                f"(mu * rho(C K(mu)) = {top:.6g})"
            )
        raise RiskParameterTooLarge(
            f"contraction gap at mu = {mu} saturated double precision "
            f"(mu * rho(C K(mu)) reads {top:.6g}; mu* is not resolved below "
            f"saturation_mu = {span:.6g}, past which 1 - mu*rho(C K(mu)) is "
            "below machine resolution)"
        )


def _radius(covs, theta, mu):
    """Largest eigenvalue of the contraction over a stack of covariances, from
    mu e^2 = tanh(mu theta)/theta; only mu_star's Brent solve reads it."""
    d = np.sqrt(np.tanh(mu * theta) / theta)
    return float(np.linalg.eigvalsh(d[:, None] * covs * d).max())


def qem_exact(state, basis: SymplecticBasis, mu: float) -> QemValue:
    """Exact log-moment of a Gaussian or Gaussian-mixture state.

    The moment is linear in the density operator, so a mixture's moment is
    the weighted sum of its components' Gaussian closed forms.
    """
    log_qem = ExactEngine(state, basis).cgf(mu)
    return QemValue(mu=mu, log_qem=log_qem, method=METHOD_EXACT)


def critical_mu(state, basis: SymplecticBasis) -> float:
    """The unique mu* with mu * rho(C K(mu)) = 1, or infinity if it is not
    reached below saturation_mu.

    mu * K(mu) has nondecreasing eigenvalues tanh(mu*theta_k)/theta_k with
    supremum 1/theta_k, so the map is nondecreasing in mu and bounded by
    the spectral radius at the limit matrix; Brent's root-finder on a
    doubling bracket solves it to relative 1e-10 (ExactEngine.mu_star).
    For a mixture the smallest component root is returned.  Past
    saturation_mu a mode whose limit radius is 1 reads radius 1 once
    tanh(mu theta) rounds to 1, so no root there is trusted: infinity
    then means that mu* is infinite or lies at or past saturation_mu.
    """
    return ExactEngine(state, basis).mu_star


def qem_randomized_mc(
    state, basis: SymplecticBasis, mu: float, samples: int, seed: int
) -> QemValue:
    """Monte-Carlo log-moment via the MGF averaging identity

        Xi(mu) = E psi(sqrt(mu) Z) / sqrt(det cos(mu*Theta)),

    with sqrt(mu) Z = a z for a = sqrt(mu) L, L a Cholesky factor of K(mu)
    and z standard normal.  Each component is mapped once per mu,
    psi_k(a z) = exp((a^T M_k)^T z + z^T (a^T C_k a / 2) z), so a block of z
    costs one GEMM per component and no per-sample transform.  All
    aggregation is done on max-shifted log summands; the reported
    rel_std_error comes from their sample variance.  Deterministic for a
    fixed seed.
    """
    _check_basis(state, basis)
    _require_positive(mu, "mu")
    blocks = standard_normal_blocks(seed, 0, check_samples(samples, 2), basis.n)
    a = math.sqrt(mu) * _cholesky(aux_covariance(basis, mu), NotPositiveDefinite,
                                  f"K(mu) is not positive definite at mu = {mu!r}")[0]
    mix = as_mixture(state)
    means = [a.T @ c.mean for c in mix.components]
    half_covs = [0.5 * (a.T @ c.cov @ a) for c in mix.components]
    log_w = np.log(mix.weights)
    logs = [log_mixture_mgf(log_w, means, half_covs, z) for z in blocks]
    all_logs = np.concatenate(logs)
    if not np.all(np.isfinite(all_logs)):
        raise NumericalOverflowDespiteLogSpace("non-finite log-MGF summand")
    log_mean, rel_se = log_mean_exp_stats(all_logs)
    log_qem = log_mean - 0.5 * log_det_cos(basis, mu)
    if not math.isfinite(log_qem):
        raise NumericalOverflowDespiteLogSpace("non-finite estimate")
    return QemValue(mu=mu, log_qem=log_qem, method=METHOD_MC, rel_std_error=rel_se)


def _log_bound_prefactor(basis: SymplecticBasis, mu):
    """State-independent part -nu/2*ln(4 pi) - ln det(mu sinc(mu*Theta))/2,
    at a float mu or over a 1-D array of mu.

    The determinant has eigenvalues sinh(mu*theta_k)/theta_k of double
    multiplicity and is evaluated from the eigenfrequencies in log space.
    """
    gamma = basis.gamma
    logdet = 2.0 * (lnsinh(np.multiply.outer(mu, gamma)) - np.log(gamma)).sum(axis=-1)
    return -0.5 * basis.n_modes * math.log(4.0 * math.pi) - 0.5 * logdet


def qem_upper_bound(state, basis: SymplecticBasis, mu: float, weight: WeightMatrix) -> QemValue:
    """Weighted-norm upper bound on the log-moment at a fixed weight matrix:

        ln Xi(mu) <= -nu/2 ln(4 pi) - ln det(mu sinc(mu*Theta))/2
                     + ln |||psi|||_P - ln det((1/mu) K(mu)^-1 - P)/4,

    valid for 0 < P < (1/mu) K(mu)^-1 and a finite norm.  Dominates the
    exact value whenever the latter exists.
    """
    _check_basis(state, basis)
    _require_positive(mu, "mu")
    if not isinstance(weight, WeightMatrix):
        weight = WeightMatrix(weight)
    upper = mode_matrix(basis, basis.gamma / np.tanh(mu * basis.gamma))
    if weight.P.shape != upper.shape:
        raise DimensionMismatch(f"weight order {weight.P.shape[0]} != state dimension {state.n}")
    _, logdet_gap = _cholesky(upper - weight.P, WeightOutOfInterval,
                              "weight does not satisfy P < (1/mu) K(mu)^-1")
    log_norm = log_weighted_norm(state, weight)
    log_bound = _log_bound_prefactor(basis, mu) + log_norm - 0.25 * logdet_gap
    return QemValue(mu=mu, log_qem=log_bound, method=METHOD_BOUND)


def scalar_weight_limit(basis: SymplecticBasis, mu: float) -> float:
    """Largest admissible scalar weight theta_min / tanh(mu * theta_min).

    Equals the smallest eigenvalue of (1/mu) K(mu)^-1; scalar weights must
    stay strictly below it; raises NumericalOverflowDespiteLogSpace where
    it overflows (at a subnormal mu * theta_min).
    """
    _require_positive(mu, "mu")
    theta_min = float(basis.gamma.min())
    tanh = math.tanh(mu * theta_min)
    limit = theta_min / tanh if tanh > 0.0 else math.inf
    if math.isinf(limit):
        raise NumericalOverflowDespiteLogSpace(f"scalar weight limit overflows at mu = {mu!r}")
    return limit


class ScalarBoundEngine:
    """Scalar-weight bound optimizer for one state, reusable across mu.

    With P = lam * I the (i, j) pair integral of log_weighted_norm reads

        n/2 ln(pi) - sum ln(lam - s)/2 + sum q^2/(lam - s)/4

    over the eigenvalues s of (C_i + C_j)/2 and the coordinates q of
    M_i + M_j in their eigenvectors.  Construction diagonalizes once per
    pair i <= j (rows of s; quad = q^2/4; log_base = ln(w_i w_j), plus ln 2
    off the diagonal, plus n/2 ln(pi)); the norm is finite iff lam exceeds
    lam_lo = max_i lambda_max(C_i).  grid(mus) then minimizes over lam * I
    at every mu with vector arithmetic only: det((1/mu) K(mu)^-1 - lam I)
    has eigenvalues theta_k/tanh(mu theta_k) - lam of double multiplicity.

    The objective is convex in lam: each pair term is a sum of q^2/(lam - s)
    and -ln(lam - s) terms, log-sum-exp of convex functions is convex, and
    so is the gap term -sum ln(theta_k/tanh(mu theta_k) - lam).  Its first
    and second derivatives are closed-form (log_norm_derivatives), so grid
    minimizes it by safeguarded Newton, every mu in lockstep
    (_search.newton_minimize_grid); bound(mu) solves one mu the same way.
    """

    def __init__(self, state, basis: SymplecticBasis):
        _check_basis(state, basis)
        self.basis = basis
        mix = as_mixture(state)
        comps = mix.components
        log_w = np.log(np.asarray(mix.weights))
        constant = 0.5 * mix.n * math.log(math.pi)
        log_base, s_rows, quad_rows = [], [], []
        for i, ci in enumerate(comps):
            for j in range(i, len(comps)):
                cj = comps[j]
                s, v = np.linalg.eigh(0.5 * (ci.cov + cj.cov))
                q = (ci.mean + cj.mean) @ v
                log_base.append(log_w[i] + log_w[j] + constant + (math.log(2.0) if j > i else 0.0))
                s_rows.append(s)
                quad_rows.append(0.25 * q * q)
        self.log_base = np.asarray(log_base)
        self.s = np.asarray(s_rows)
        self.quad = np.asarray(quad_rows)
        self.lam_lo = float(self.s.max())

    def log_norm_derivatives(self, lam):
        """(log_scalar_norm, its first and second lam-derivatives) at lam,
        a float or a 1-D array (one entry per lam), with no matrix
        factorization.

        Each pair term t = log_base + sum(quad/g - ln(g)/2) over g = lam - s
        has t' = -sum(quad/g^2 + 1/(2g)) and t'' = sum(2 quad/g^3 + 1/(2g^2));
        the log-norm is half the log-sum-exp of t, whose first and second
        derivatives are the softmax-weighted E t' and E t'' + Var t'.  The
        lam axis leads, and the pair and mode axes trail it.
        """
        # A float is compared directly: a numpy reduction would add about a
        # tenth to each of tail_bound's one-point evaluations.
        if not (lam.min() if isinstance(lam, np.ndarray) else lam) > self.lam_lo:
            raise NormDivergent(
                "weight does not dominate the covariances; norm integral diverges"
            )
        gaps = np.subtract.outer(lam, self.s)
        ratio = self.quad / gaps
        terms = self.log_base + (ratio - 0.5 * np.log(gaps)).sum(axis=-1)
        top = terms.max(axis=-1)
        weights = np.exp(terms - top[..., None])
        total = weights.sum(axis=-1)
        inv = 1.0 / gaps
        t1 = -((ratio + 0.5) * inv).sum(axis=-1)
        t2 = ((2.0 * ratio + 0.5) * inv * inv).sum(axis=-1)
        m1 = np.vecdot(weights, t1) / total
        m2 = np.vecdot(weights, t2 + t1 * t1) / total
        return 0.5 * (top + np.log(total)), 0.5 * m1, 0.5 * (m2 - m1 * m1)

    def mu_max(self) -> float:
        """Truncated validity limit of the bound CGF (see scalar_bound_cgf)."""
        theta_min = float(self.basis.gamma.min())
        span = saturation_mu(self.basis)
        if scalar_weight_limit(self.basis, span) > self.lam_lo:
            return span
        # scalar_weight_limit(mu) = lam_lo, inverted in closed form;
        # here lam_lo > theta_min, so the atanh argument is below 1.
        return CGF_SAFETY * math.atanh(theta_min / self.lam_lo) / theta_min

    def cgf(self, mu: float) -> float:
        """The optimized bound on Upsilon(mu) (see bound)."""
        return self.bound(mu)[0].log_qem

    def cgf_and_slope(self, mu):
        """(B(mu), B'(mu)) for the optimized bound B at a float mu, from
        bound, or the arrays (values, slopes) over a 1-D array of mu, from
        one grid call; raises, at the first mu of an array where bound
        raises, bound's error there (EmptyFeasibleWindow or
        NumericalOverflowDespiteLogSpace).  tail_bound makes its coarse grid
        one array call.  The slope costs nothing beyond the bound: by the
        envelope theorem (Milgrom & Segal, Econometrica 70(2), 2002),
        B' = -sum u + sum theta^2/(sinh^2(mu theta) (u - lam_opt))/2 at the
        bound's lam_opt, with u = theta/tanh(mu theta)."""
        if not np.ndim(mu):
            value, lam_opt = self.bound(mu)
            return value.log_qem, float(self._envelope_slope(mu, lam_opt))
        mus = np.asarray(mu, dtype=float)
        values, lams, _ = self.grid(mus)
        # lam_opt is NaN exactly at the empty windows and the overflowing
        # weight limits, where bound raises.
        failed = np.flatnonzero(np.isnan(lams))
        if failed.size:
            self.bound(mus[failed[0]].item())
        return values, self._envelope_slope(mus, lams)

    def _envelope_slope(self, mu, lam_opt):
        """B'(mu) of cgf_and_slope at a float mu and its lam_opt, or over 1-D
        arrays of both."""
        gamma = self.basis.gamma
        x = np.multiply.outer(mu, gamma)
        upper = gamma / np.tanh(x)
        terms = (gamma / np.sinh(x)) ** 2 / (upper - np.expand_dims(lam_opt, -1))
        return 0.5 * terms.sum(axis=-1) - upper.sum(axis=-1)

    def _window(self, lam_hi, u_min):
        """(lo, hi): the feasible window (lam_lo, lam_hi) shrunk by
        WINDOW_MARGIN at both ends but never onto them, nor onto the
        smallest u, min u = u_min (so no evaluation divides by a zero gap);
        None when no double lies strictly inside."""
        width = lam_hi - self.lam_lo
        lo = max(self.lam_lo + WINDOW_MARGIN * width, math.nextafter(self.lam_lo, math.inf))
        hi = min(lam_hi - WINDOW_MARGIN * width, math.nextafter(u_min, -math.inf))
        return (lo, hi) if lo < hi else None

    def _objective(self, lam, upper):
        """(f, f', f'') of the convex objective f(lam) = N(lam) - sum_k ln(u_k - lam)/2,
        with the log-norm N and u = theta/tanh(mu theta): at a float lam with
        upper the u of its mu, or over a 1-D array of lam with one column of
        upper per entry.  f' = N' + sum 1/(u - lam)/2 and
        f'' = N'' + sum 1/(u - lam)^2/2."""
        value, slope, curvature = self.log_norm_derivatives(lam)
        gap = upper - lam
        inv = 1.0 / gap
        return (value - 0.5 * np.log(gap).sum(axis=0), slope + 0.5 * inv.sum(axis=0),
                curvature + 0.5 * (inv * inv).sum(axis=0))

    def bound(self, mu: float):
        """The grid's bound at one mu: returns (QemValue, lam_opt); raises
        EmptyFeasibleWindow when the window is empty and
        NumericalOverflowDespiteLogSpace where the weight limit overflows (see
        scalar_weight_limit).  Its search evaluates the objective at a float
        lam, which costs less than the grid's one-entry array would on
        tail_bound's one-point calls."""
        lam_hi = scalar_weight_limit(self.basis, mu)
        gamma = self.basis.gamma
        upper = gamma / np.tanh(mu * gamma)
        window = self._window(lam_hi, min(upper.tolist()))
        if window is None:
            raise EmptyFeasibleWindow(
                f"no scalar weight window: limit {lam_hi:.6g} is not above the largest "
                f"covariance eigenvalue {self.lam_lo:.6g} by more than rounding"
            )
        lam_opt, inner = newton_minimize(lambda lam: self._objective(lam, upper), *window)
        log_bound = _log_bound_prefactor(self.basis, mu) + inner
        return QemValue(mu=mu, log_qem=float(log_bound), method=METHOD_BOUND), lam_opt

    def grid(self, mus):
        """(values, lam_opt, empty) of the weighted-norm bound over the
        positive mus, each minimized over lam in its feasible window
        (lam_lo, theta_min/tanh(mu theta_min)) (see _window and _objective).

        Every window goes to newton_minimize_grid, so each round evaluates
        the objective once, on the lam of every window still open; lam_opt
        is Newton-refined (see _search._newton_search).  empty is true where
        the window is empty; values and lam_opt are NaN there and where the
        weight limit overflows (at a subnormal mu).
        """
        mus = np.asarray(mus, dtype=float)
        if not np.all(mus > 0.0):
            raise ValueError("mu must be positive")
        gamma = self.basis.gamma
        # u overflows to inf where the weight limit does; those rows are skipped.
        with np.errstate(divide="ignore", over="ignore"):
            upper = gamma / np.tanh(np.multiply.outer(mus, gamma))
        values, lams = np.full(mus.shape, np.nan), np.full(mus.shape, np.nan)
        empty = np.zeros(mus.shape, dtype=bool)
        rows, windows = [], []
        for i, (mu, u_min) in enumerate(zip(mus.tolist(), upper.min(axis=1).tolist())):
            try:
                window = self._window(scalar_weight_limit(self.basis, mu), u_min)
            except NumericalOverflowDespiteLogSpace:
                continue
            if window is None:
                empty[i] = True
            else:
                rows.append(i)
                windows.append(window)
        if rows:
            columns = upper[rows].T
            solved = newton_minimize_grid(lambda points, open_rows: self._objective(
                np.array(points), columns[:, open_rows]), *zip(*windows))
            lam_opt, inner = zip(*solved)
            values[rows] = _log_bound_prefactor(self.basis, mus[rows]) + inner
            lams[rows] = lam_opt
        return values, lams, empty


#: The cgf callables whose array form tail_bound uses for its coarse grid.
_GRID_CGFS = (ExactEngine.cgf_and_slope, ScalarBoundEngine.cgf_and_slope)


def qem_upper_bound_scalar_opt(state, basis: SymplecticBasis, mu: float):
    """Minimize the weighted-norm bound over scalar weights lam * I by
    ScalarBoundEngine.bound, whose objective equals qem_upper_bound at
    WeightMatrix(lam * I); returns (QemValue, lam_opt)."""
    return ScalarBoundEngine(state, basis).bound(mu)


def exact_cgf(state, basis: SymplecticBasis):
    """CGF callable for the exact route, with its truncated validity limit.

    Returns (ExactEngine.cgf_and_slope, mu_max), the pair tail_bound takes;
    mu_max = min(CGF_SAFETY * mu_star, SATURATION_SPAN / theta_max), the
    saturation limit alone when mu* is infinite (or not resolved below it).
    The callable also takes a 1-D array of mu, so tail_bound evaluates its
    coarse grid in one call.
    """
    engine = ExactEngine(state, basis)
    return engine.cgf_and_slope, engine.mu_max()


def scalar_bound_cgf(state, basis: SymplecticBasis):
    """Upper-bound CGF callable from the scalar-weight optimizer:
    (ScalarBoundEngine.cgf_and_slope, mu_max), the pair tail_bound takes.

    The bound is finite while scalar_weight_limit(mu) stays above the
    largest component covariance eigenvalue; mu_max is CGF_SAFETY times that
    window edge, or the saturation limit SATURATION_SPAN / theta_max when
    the window stays open that far.  The callable also takes a 1-D array of
    mu, so tail_bound solves its coarse grid in one ScalarBoundEngine.grid
    call.
    """
    engine = ScalarBoundEngine(state, basis)
    return engine.cgf_and_slope, engine.mu_max()


def tail_bound(cgf, eps: float, mu_max: float, grid_points: int = 64) -> TailBound:
    """Chernoff tail bound ln P(Q >= 2*eps) <= -(sup eps*mu - Upsilon(mu)).

    cgf(mu) returns (value, slope) of the exact CGF or any upper bound of
    it, as exact_cgf and scalar_bound_cgf give them, so every evaluated
    point yields a valid bound.  The sign of the gain's slope eps - slope at
    the best of grid_points grid points picks the neighbouring half-bracket
    (the outer ones end at grid[0] * 1e-6 and mu_max * (1 - 1e-9)), where
    brent_root solves slope = eps.  The best gain evaluated is reported,
    clamped at 0; if it still climbs at the upper end, mu_max itself is
    probed and flagged as argmax_mu.

    When cgf is an engine's cgf_and_slope (what exact_cgf and
    scalar_bound_cgf return), the grid points are independent and take one
    array call; its first failing point raises the error the one-point
    call raises there.  Brent's steps and the edge probe stay one-point
    calls, as every call of any other callable does.  With grid_points=8
    on the benchmark's bound states this takes 35/29/28 objective
    evaluations, against 64/56/55 one point at a time.
    """
    if not (eps >= 0.0 and math.isfinite(eps)):
        raise InvalidRange(f"eps must be finite and nonnegative, got {eps!r}")
    if not (mu_max > 0.0 and math.isfinite(mu_max)):
        raise InvalidRange(f"mu_max must be finite and positive, got {mu_max!r}")
    if grid_points < 1:
        raise InvalidRange(f"grid_points must be at least 1, got {grid_points!r}")
    evaluated = []

    def record(mu, value, slope):
        evaluated.append((eps * mu - value, mu))
        return eps - slope

    def gain_slope(mu):
        return record(mu, *cgf(mu))

    mus = mu_max * np.arange(1, grid_points + 1) / (grid_points + 1)
    grid = mus.tolist()
    if getattr(cgf, "__func__", None) in _GRID_CGFS:
        values, grid_slopes = cgf(mus)
        coarse = map(record, grid, values.tolist(), grid_slopes.tolist())
    else:
        coarse = map(gain_slope, grid)
    slopes = dict(zip(grid, coarse))
    j = int(np.argmax([gain for gain, _ in evaluated]))
    ends = [grid[0] * 1e-6] + grid + [mu_max * (1.0 - 1e-9)]
    k = j + 1 if slopes[grid[j]] < 0.0 else j + 2
    a, b = ends[k - 1], ends[k]
    fa = slopes[a] if a in slopes else gain_slope(a)
    fb = slopes[b] if b in slopes else gain_slope(b)
    if fa >= 0.0 >= fb:
        brent_root(gain_slope, a, b, fa, fb)
    best, argmax = max(evaluated, key=lambda point: point[0])
    if k == grid_points + 1 and fb > 0.0:
        # still climbing at the truncation point: report the limit value
        try:
            edge = eps * mu_max - cgf(mu_max)[0]
        except QemBoundError:
            edge = best
        best = max(best, edge)
        argmax = mu_max
    if best <= 0.0:
        return TailBound(eps=eps, log_prob_bound=0.0, argmax_mu=None)
    return TailBound(eps=eps, log_prob_bound=-best, argmax_mu=argmax)
