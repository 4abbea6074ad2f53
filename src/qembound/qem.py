"""Quadratic-exponential moments and their bounds.

The central quantity is the moment Xi(mu) = E exp((mu/2) X^T X) of quantum
variables with commutation matrix Theta, reported through its logarithm
Upsilon(mu) = ln Xi(mu) (the CGF of the half quadratic form).  Three routes
are provided:

* exact Gaussian closed form, valid while mu * rho(C K(mu)) < 1 with
  K(mu) = tanc(mu*Theta), evaluated for a whole mixture over a grid of mu
  by ExactEngine from one batched LDL^T elimination per grid chunk, whose
  pivots also decide feasibility and yield the analytic slope Upsilon'(mu);
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
from typing import NamedTuple

import numpy as np

from ._search import brent_root, cubic_minimize, newton_minimize_grid
from .ccr import (TINY, SymplecticBasis, _cholesky, _over_x, _require_positive, _same_ccr,
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
from .sampling import _integer_in, check_samples, log_mean_exp_stats, standard_normal_blocks
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

#: Most mu values that ExactEngine.grid puts into one batched elimination
#: (and ExactEngine.top into one stacked eigvalsh), so a long grid never
#: holds more than GRID_CHUNK * K n x n matrices at once.
GRID_CHUNK = 64

#: Row statuses: one per mu in each engine grid's status column and the report's.
STATUS_OK = "ok"
STATUS_INFEASIBLE = "infeasible_mu"
STATUS_EMPTY = "empty_interval"
STATUS_NUMERICAL = "numerical_error"
STATUS_INFINITE_VARIANCE = "infinite_variance"
STATUSES = (STATUS_OK, STATUS_INFEASIBLE, STATUS_EMPTY, STATUS_NUMERICAL, STATUS_INFINITE_VARIANCE)


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


#: The engines' grid results, one entry (and one status) per mu.
ExactGrid = NamedTuple("ExactGrid", [("values", np.ndarray), ("slopes", np.ndarray | None),
                                     ("status", np.ndarray)])
BoundGrid = NamedTuple("BoundGrid", [("values", np.ndarray), ("lam_opt", np.ndarray),
                                     ("status", np.ndarray)])


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

        Upsilon = (mu m^T S^-1 m - ln det S - ln det cos(mu Theta)) / 2

    with S = I - mu B and m = e * M~, all finite down to subnormal mu.
    Construction rotates the covariances and means once; grid evaluates
    each chunk of GRID_CHUNK mu by one batched LDL^T elimination of S over
    its (mu, component) pairs (see _chunk), whose pivots give ln det S, the
    mean term, the slope and each row's feasibility.  top gives top =
    mu rho(C K(mu)) itself, from a bare stacked eigvalsh, to mu_star and
    mc_status.  Each row's status is decided here alone (_status), and
    every exact entry point raises from it.  mu* is computed on first use
    and cached.
    """

    def __init__(self, state, basis: SymplecticBasis):
        _check_basis(state, basis)
        mix = as_mixture(state)
        q = math.sqrt(2.0) * basis.H
        self.basis = basis
        self.log_weights = np.log(mix.weights)
        self.covs = np.stack([q.T @ c.cov @ q for c in mix.components])
        self.means = np.stack([c.mean @ q for c in mix.components])
        # C~ with the component axis last, for the batched elimination.
        self._covs_last = np.ascontiguousarray(self.covs.transpose(1, 2, 0))[..., None]
        self.theta = np.repeat(basis.gamma, 2)

    @functools.cached_property
    def mu_star(self) -> float:
        """The critical mu* of the state (see critical_mu), from a bracket on
        the engine's own top.  mu B = T^(1/2) D C~ D T^(1/2) for
        T = diag(tanh(mu theta)) and D = diag(theta)^(-1/2), so over the
        largest eigenvalue r of D C~ D (largest over the components)
        tanh(mu theta_min) r <= top(mu) <= tanh(mu theta_max) r, and mu* lies
        in [atanh(1/r)/theta_max, atanh(1/r)/theta_min].  r - 1 is read in
        gap form, from D (C~ - Theta) D, and atanh(1/r) as log1p(2/(r - 1))/2,
        so a near-pure state keeps its digits.  For one frequency the bracket
        is a point, the closed form; otherwise brent_root solves top = 1
        inside it, clipped below saturation_mu, where top reads inf.  inf
        where r <= 1, where the bracket starts at or past saturation_mu, or
        where top still reads below 1 at the clipped end."""
        d = 1.0 / np.sqrt(self.theta)
        excess = np.linalg.eigvalsh(d[:, None] * (self.covs - np.diag(self.theta)) * d)[:, -1].max()
        reach = 0.5 * math.log1p(2.0 / float(excess)) if excess > 0.0 else math.inf
        lo, hi = reach / float(self.theta.max()), reach / float(self.theta.min())
        end = min(hi, math.nextafter(saturation_mu(self.basis), 0.0))
        if lo == hi or not lo <= end:
            return lo if lo <= end else math.inf

        def top_minus_one(mu):
            return self.top([mu]).item() - 1.0

        # top(lo) <= 1 <= top(hi); a read past 1 at lo, or below 1 at an
        # unclipped hi (the root when the top eigenvector lies in the slowest
        # modes), is rounding and puts the root there.
        if not (f_end := top_minus_one(end)) >= 0.0 and end < hi:
            return math.inf
        return brent_root(top_minus_one, lo, end, min(top_minus_one(lo), 0.0), max(f_end, 0.0))

    def mu_max(self) -> float:
        """Truncated validity limit of the CGF (see exact_cgf)."""
        return min(CGF_SAFETY * self.mu_star, saturation_mu(self.basis))

    def cgf_and_slope(self, mu):
        """(Upsilon(mu), Upsilon'(mu)) as floats at a float mu, or as arrays
        over a 1-D array of mu, from one _checked_grid(mus, slope=True) call."""
        values, slopes = self._checked_grid(mu, slope=True)
        if np.ndim(mu):
            return values, slopes
        return values.item(), slopes.item()

    def _checked_grid(self, mus, slope=False):
        """(values, slopes) of grid over mus (a float or 1-D); raises at the first row not ok."""
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        values, slopes, status = self.grid(mus, slope)
        refused = np.flatnonzero(status != STATUS_OK)
        if not refused.size:
            return values, slopes
        mu = mus[refused[0]].item()
        # top is inf by construction from saturation_mu on, so only a finite
        # top is quoted.
        top = self.top([mu]).item()
        read = f" (mu * rho(C K(mu)) = {top:.6g})" if math.isfinite(top) else ""
        if status[refused[0]] == STATUS_NUMERICAL and mu < saturation_mu(self.basis):
            raise NumericalOverflowDespiteLogSpace(f"the closed form overflows at mu = {mu}{read}")
        if math.isfinite(self.mu_star):
            raise RiskParameterTooLarge(
                f"mu = {mu} exceeds the critical value mu* = {self.mu_star:.12g}{read}")
        raise RiskParameterTooLarge(
            f"contraction gap at mu = {mu} saturated double precision{read}: from "
            f"saturation_mu = {saturation_mu(self.basis):.6g} on, 1 - mu rho(C K(mu)) is "
            "below machine resolution, and no mu* is resolved below it")

    def _unit_scale(self, mus):
        """(x, e) at the 1-D mus: x = mu theta and e = sqrt(tanh(x)/x), the
        scale of the unit-scale B = diag(e) C~ diag(e)."""
        x = mus[:, None] * self.theta
        return x, np.sqrt(_over_x(np.tanh, x))

    def _stacked_b(self, e, out=None):
        """B = diag(e) C~ diag(e) of every (component, mu) pair over the rows
        of e, in the (row, column, component, mu) layout of the batched
        elimination (into out if given); eigvalsh reads its transpose.  So
        grid's pivots and top read the same B, and a pure, uncoupled mode
        gives both the same deficit."""
        e_t = e.T
        return np.multiply(e_t[:, None, None] * self._covs_last, e_t[None, :, None], out=out)

    # From saturation_mu on mu theta may overflow; those rows read top = inf,
    # so no warning is due.
    @np.errstate(over="ignore")
    def top(self, mus):
        """top = mu rho(C K(mu)) over the positive 1-D mus, the largest over
        the components (the Monte-Carlo variance is finite below 1/2), from
        one bare stacked eigvalsh of mu B per GRID_CHUNK mu; inf from
        saturation_mu on, where it does not keep its digits.  grid reads
        feasibility (top < 1) from its pivots instead; this serves the
        callers that need the number itself."""
        mus = np.asarray(mus, dtype=float)
        if not np.all(mus > 0.0):
            raise ValueError("mu must be positive")
        tops = []
        for i in range(0, max(mus.size, 1), GRID_CHUNK):
            chunk = mus[i:i + GRID_CHUNK]
            b = self._stacked_b(self._unit_scale(chunk)[1]).transpose(3, 2, 0, 1)
            w = chunk[:, None, None] * np.linalg.eigvalsh(b)
            tops.append(w.max(axis=(1, 2)))
        return np.where(mus >= saturation_mu(self.basis), np.inf, np.concatenate(tops))

    def grid(self, mus, slope=False, cut=False):
        """ExactGrid(values, slopes, status) of Upsilon over the positive
        mus, in chunks of at most GRID_CHUNK mu per batched elimination
        (_chunk); slopes is None unless slope is true.

        A row is feasible where top < 1, by the pivots of S = I - mu B, and
        never from saturation_mu on, where 1 - tanh(mu theta_max) nears
        double precision; values and slopes are NaN where it is not.  With
        cut, rows from mu_max on are not ok either (see _status); mu_max is
        read only if a row is near (_chunk), since mu* >= mu/top.

        With x = mu theta, c = 2x/sinh(2x) in (0, 1]
        (-mu e^2 d(e^-2)/dmu for e^2 = tanh(x)/theta) and h = S^-1 m,

            2 Upsilon_k' = sum c (h^2 + diag(S^-1 B)) - 2 sum_modes theta tanh(x),

        where the 1/mu terms of the direct derivative have cancelled
        analytically.  The mixture slope is the softmax-weighted sum of the
        component slopes.  At mu -> 0 it tends to (tr C + |M|^2)/2.
        """
        mus = np.asarray(mus, dtype=float)
        if not np.all(mus > 0.0):
            raise ValueError("mu must be positive")
        chunks = zip(*[self._chunk(mus[i:i + GRID_CHUNK], slope, cut)
                       for i in range(0, max(mus.size, 1), GRID_CHUNK)])
        values, slopes, feasible, near = (None if part[0] is None else np.concatenate(part)
                                          for part in chunks)
        ok = feasible & (mus < self.mu_max()) if cut and near.any() else feasible
        # Finite where the value is, and with slope mu Upsilon' (so the tail's
        # bound Upsilon - mu Upsilon' too, whose terms are both nonnegative).
        with np.errstate(over="ignore"):  # a term past the double range is flagged
            finite = np.isfinite(values) & (slopes is None or np.isfinite(mus * slopes))
        return ExactGrid(values, slopes, self._status(mus, feasible, ok, finite))

    def mc_status(self, mus):
        """Monte-Carlo statuses from one top call (_status); infinite_variance at top >= 1/2."""
        top = self.top(mus)
        return self._status(mus, top < 1.0, top < 1.0, top < 0.5, STATUS_INFINITE_VARIANCE)

    def _status(self, mus, feasible, ok, good, fault=STATUS_NUMERICAL):
        """ok on the ok rows that are good (grid: finite), else fault; the
        rest read infeasible_mu if mu* is finite, else numerical_error.  mu*
        is solved (once) only if a row is not ok and no row not feasible
        below saturation_mu proves it."""
        status = np.where(good, STATUS_OK, fault)
        if not ok.all():
            proved = (~feasible & (np.asarray(mus) < saturation_mu(self.basis))).any()
            status[~ok] = (STATUS_INFEASIBLE if proved or math.isfinite(self.mu_star)
                           else STATUS_NUMERICAL)
        return status

    # Past the span mu theta (and the log cos term) may overflow to inf, and
    # the slope's sinh(2x)/(2x) reads inf/inf; a pivot at or below 0 is
    # divided by and leaves log1p an argument at or below -1.  All those
    # rows are not feasible, and a feasible row that overflows is not ok
    # (grid), so no warning is due.
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def _chunk(self, mus, slope, cut):
        """(values, slopes, feasible, near) of grid over one chunk, near (with
        cut) the rows with CGF_SAFETY <= top < 1, by one LDL^T elimination
        of S = I - mu B over the whole (mu, component) stack, with a Python
        loop over the n pivots only.  It runs on B itself: pivot k is 1 - d_k for the
        deficit d_k = mu B_kk of the updated B, and the trailing block takes
        B_22 += mu b_21 b_21^T/(1 - d_k), the Schur complement of S written
        as its deficit.  So ln det S = sum log1p(-d_k) keeps its digits at
        small mu, and a row is feasible iff every d_k < 1.  The carried
        columns [m | I] become y = L^-1 m (the mean term is sum y^2/(1 - d))
        and Z = L^-1, unit lower triangular, whose strictly lower part N is
        O(mu).  Then h = Z^T (y/(1 - d)) and, from diag(S^-1) - 1 =
        diag(S^-1 mu B), diag(S^-1 B)_i = B_ii/(1 - d_i) +
        sum_k N_ki^2/(1 - d_k)/mu, with no cancellation.  The stack axis
        runs last, so every update is one contiguous elementwise pass."""
        n, components = self.theta.size, self.log_weights.size
        x, e = self._unit_scale(mus)
        cols = components * mus.size
        # Each (component, mu) pair's B, then the carried columns m and, for
        # the slope, I, in the (row, column, pair) layout.
        width = n + (n + 1 if slope else 1)
        both = np.empty((n, width, components, mus.size))
        self._stacked_b(e, out=both[:, :n])
        both[:, n] = self.means.T[:, :, None] * e.T[:, None]
        if slope:
            both[:, n + 1:] = np.eye(n)[:, :, None, None]
        both = both.reshape(n, width, cols)
        scale = np.concatenate([mus] * components)
        # Rows whose smallest deficit mu B_kk lies below TINY, the smallest
        # normal double, read ln det S from the eigenvalues of mu B, as the
        # eigh route did: there each eigenvalue rounds on the subnormal grid
        # by itself, which no eigenvalue-free route reproduces.  Without
        # this, over random one- to three-frequency Gaussians, the value was
        # a third off that route's at mu = 5e-324 and 3e-12 relative off at
        # 1e-312, and within 4e-14 from 1e-310 on.
        smallest = np.diagonal(both).min(axis=1).reshape(components, mus.size).min(axis=0)
        tiny = mus * smallest < TINY
        copies = 2 if cut else 1
        if cut:
            # A copy of every pair whose B is scaled by 1/CGF_SAFETY.  Its
            # carried columns are eliminated along, unread: one update over
            # every pair per pivot costs less than a second update that
            # skips them, which made the tail's grid calls on the
            # exact_grid states 11% slower.
            both = np.concatenate([both, both], axis=2)
            scale = np.concatenate([scale, scale / CGF_SAFETY])
        # pivot/mu = 1/mu - B_kk; where 1/mu overflows, the ratio mu B_ik/pivot
        # reads 0 in place of a product below the normal range.
        inv_scale = 1.0 / scale
        for k in range(n):
            row = both[k]
            ratio = row[k + 1:n] / (inv_scale - row[k])
            # B's trailing block, y and the columns of Z = L^-1 up to its
            # diagonal (row k of Z is zero right of it) in one update.
            trailing = both[k + 1:, k + 1:n + k + 2]
            trailing += ratio[:, None] * row[k + 1:n + k + 2]
        unit, carried = both[:, :n], both[:, n:, :cols]
        deficits = scale[:, None] * np.diagonal(unit)
        worst = deficits.max(axis=1).reshape(copies, components, mus.size).max(axis=1)
        # With cut, the copy's row of worst marks the rows with top < CGF_SAFETY.
        feasible, *safe = (worst < 1.0) & (mus < saturation_mu(self.basis))
        near = feasible & ~safe[0] if cut else None
        deficits = deficits[:cols].T
        inv_gap = 1.0 / (1.0 - deficits)
        log_det = np.log1p(-deficits).sum(axis=0).reshape(components, mus.size)
        if tiny.any():
            b = self._stacked_b(e[tiny]).transpose(3, 2, 0, 1)
            w = mus[tiny, None, None] * np.linalg.eigvalsh(b)
            log_det[:, tiny] = np.log1p(-w).sum(axis=2).T
        y = carried[:, 0]
        scaled = y * inv_gap
        log_cos = 2.0 * lncosh(mus[:, None] * self.basis.gamma).sum(axis=1)
        mean = (y * scaled).sum(axis=0).reshape(components, mus.size)
        parts = 0.5 * (mus * mean - log_det - log_cos)
        # NaN rows carry NaN into every column.
        parts[:, ~feasible] = np.nan
        x_mix = parts + self.log_weights[:, None]
        shift = x_mix.max(axis=0)
        mix = np.exp(x_mix - shift)
        total = mix.sum(axis=0)
        values = shift + np.log(total)
        if not slope:
            return values, None, feasible, near
        z = carried[:, 1:]
        h = (z * scaled[:, None]).sum(axis=0)
        z[range(n), range(n)] = 0.0
        beta = np.diagonal(unit)[:cols].T
        spread = beta * inv_gap + (z * z * inv_gap[:, None]).sum(axis=0) / scale[:cols]
        terms = ((h * h + spread).reshape(n, components, mus.size)
                 / _over_x(np.sinh, 2.0 * x).T[:, None]).sum(axis=0)
        slopes = 0.5 * (terms - (self.theta * np.tanh(x)).sum(axis=1))
        return values, (mix * slopes).sum(axis=0) / total, feasible, near


def qem_exact(state, basis: SymplecticBasis, mu: float) -> QemValue:
    """Exact log-moment of a Gaussian or Gaussian-mixture state.

    The moment is linear in the density operator, so a mixture's moment is
    the weighted sum of its components' Gaussian closed forms: the value that
    ExactEngine.grid gives a gaussian_exact row, and it raises wherever
    that row is not ok (see exact_cgf).
    """
    log_qem = ExactEngine(state, basis)._checked_grid(mu)[0].item()
    return QemValue(mu=mu, log_qem=log_qem, method=METHOD_EXACT)


def critical_mu(state, basis: SymplecticBasis) -> float:
    """The unique mu* with mu * rho(C K(mu)) = 1, or infinity if it is not
    reached below saturation_mu.

    mu * K(mu) has nondecreasing eigenvalues tanh(mu*theta_k)/theta_k with
    supremum 1/theta_k, so the map is nondecreasing in mu and bounded by
    the spectral radius r at the limit matrix, which puts mu* in a
    closed-form bracket (ExactEngine.mu_star).  On one frequency the
    bracket is a point and mu* = atanh(1/r)/theta is exact; otherwise
    Brent's root-finder closes it to a width of 1e-10 relative.  For a
    mixture the smallest component root is returned.  No top is read from
    saturation_mu on, where it reads inf: infinity means that mu* is
    infinite or lies at or past saturation_mu.
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
    M_i + M_j in their eigenvectors.  Construction diagonalizes every pair
    i <= j in one stacked eigh (rows of s; quad = q^2/4; log_base =
    ln(w_i w_j), plus ln 2 off the diagonal, plus n/2 ln(pi)); the norm is
    finite iff lam exceeds lam_lo = max_i lambda_max(C_i).  grid(mus) then
    minimizes over lam * I at every mu with vector arithmetic only:
    det((1/mu) K(mu)^-1 - lam I) has eigenvalues theta_k/tanh(mu theta_k) -
    lam of double multiplicity.

    The objective is convex in lam: each pair term is a sum of q^2/(lam - s)
    and -ln(lam - s) terms, log-sum-exp of convex functions is convex, and
    so is the gap term -sum ln(theta_k/tanh(mu theta_k) - lam).  Its first
    and second derivatives are closed-form (log_norm_derivatives), so grid
    minimizes it by safeguarded Newton, every mu in lockstep
    (_search.newton_minimize_grid); bound(mu) is its one-window case.
    """

    def __init__(self, state, basis: SymplecticBasis):
        _check_basis(state, basis)
        self.basis = basis
        mix = as_mixture(state)
        log_w = np.log(mix.weights).tolist()
        k = len(log_w)
        # The pairs i <= j, in the order of the loop over i, then j.
        i, j = zip(*[(a, b) for a in range(k) for b in range(a, k)])
        means = np.array([c.mean for c in mix.components])
        covs = np.array([c.cov for c in mix.components])
        s, v = np.linalg.eigh(0.5 * (covs[i, :] + covs[j, :]))
        with np.errstate(over="ignore", invalid="ignore"):  # bound and grid flag it
            q = ((means[i, :] + means[j, :])[:, None, :] @ v)[:, 0]
            self.quad = 0.25 * q * q
        constant = 0.5 * mix.n * math.log(math.pi)
        self.log_base = np.array([log_w[a] + log_w[b] + constant + (math.log(2.0) if b > a else 0.0)
                                  for a, b in zip(i, j)])
        self.s = s
        self.lam_lo = float(s.max())

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

    def cgf_and_slope(self, mu):
        """(B(mu), B'(mu)) for the optimized bound B as floats at a float mu,
        from bound, or as arrays over a 1-D array of mu, from one grid call;
        at the first row whose status is not ok, or whose slope is not
        finite, it raises what the float call raises there: bound's error, or
        NumericalOverflowDespiteLogSpace where the slope overflows (as at
        mu = 1e-200, where theta^2/sinh^2(mu theta) does).
        The slope costs nothing beyond the bound: by the envelope theorem
        (Milgrom & Segal, Econometrica 70(2), 2002),
        B' = -sum u + sum theta^2/(sinh^2(mu theta) (u - lam_opt))/2 at the
        bound's lam_opt, with u = theta/tanh(mu theta)."""
        if not np.ndim(mu):
            value, lam_opt = self.bound(mu)
            slope = float(self._envelope_slope(mu, lam_opt))
            if not math.isfinite(slope):
                raise NumericalOverflowDespiteLogSpace(f"the bound's slope at mu = {mu!r} overflows")
            return value.log_qem, slope
        mus = np.asarray(mu, dtype=float)
        values, lams, status = self.grid(mus)
        failed = np.flatnonzero(status != STATUS_OK)
        if failed.size:
            self.bound(mus[failed[0]].item())
        slopes = self._envelope_slope(mus, lams)
        failed = np.flatnonzero(~np.isfinite(slopes))
        if failed.size:
            self.cgf_and_slope(mus[failed[0]].item())
        return values, slopes

    # A slope that overflows raises in cgf_and_slope, so no warning is due.
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def _envelope_slope(self, mu, lam_opt):
        """B'(mu) of cgf_and_slope at a float mu and its lam_opt, or over 1-D
        arrays of both."""
        gamma = self.basis.gamma
        x = np.multiply.outer(mu, gamma)
        upper = gamma / np.tanh(x)
        terms = (gamma / np.sinh(x)) ** 2 / (upper - np.expand_dims(lam_opt, -1))
        return 0.5 * terms.sum(axis=-1) - upper.sum(axis=-1)

    def _window(self, u_min):
        """(lo, hi): the feasible window (lam_lo, u_min), for the smallest u =
        theta/tanh(mu theta), which is the weight limit, shrunk by
        WINDOW_MARGIN at both ends but never onto them (so no evaluation
        divides by a zero gap); None when no double lies strictly inside."""
        width = u_min - self.lam_lo
        lo = max(self.lam_lo + WINDOW_MARGIN * width, math.nextafter(self.lam_lo, math.inf))
        hi = min(u_min - WINDOW_MARGIN * width, math.nextafter(u_min, -math.inf))
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

    # A bound that overflows is flagged, so no warning is due.
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def bound(self, mu: float):
        """The grid's bound at one mu: returns (QemValue, lam_opt); raises
        EmptyFeasibleWindow when the window is empty and
        NumericalOverflowDespiteLogSpace where the weight limit (see
        scalar_weight_limit) or the bound overflows.  It is the grid's
        one-window case, with the objective evaluated at a float lam, which
        costs less than a one-entry grid on tail_bound's one-point calls:
        answering them from grid made perfbench's tail_bound step 12-16%
        slower, for the same bits."""
        scalar_weight_limit(self.basis, mu)  # raises where the limit overflows
        gamma = self.basis.gamma
        upper = gamma / np.tanh(mu * gamma)
        u_min = min(upper.tolist())
        window = self._window(u_min)
        if window is None:
            raise EmptyFeasibleWindow(
                f"no scalar weight window: limit {u_min:.6g} is not above the largest "
                f"covariance eigenvalue {self.lam_lo:.6g} by more than rounding"
            )
        [(lam_opt, inner)] = newton_minimize_grid(
            lambda lams, _: [self._objective(lams[0], upper)], *zip(window))
        log_bound = float(_log_bound_prefactor(self.basis, mu) + inner)
        if not math.isfinite(log_bound):
            raise NumericalOverflowDespiteLogSpace(f"the bound at mu = {mu!r} is not finite")
        return QemValue(mu=mu, log_qem=log_bound, method=METHOD_BOUND), lam_opt

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def grid(self, mus):
        """BoundGrid(values, lam_opt, status) of the weighted-norm bound over
        the positive mus, each minimized over lam in its feasible window
        (lam_lo, min u) with u = theta/tanh(mu theta) (see _window and
        _objective).

        Every window goes to newton_minimize_grid, so each round evaluates
        the objective once, on the lam of every window still open; lam_opt
        is Newton-refined (see _search._newton_search).  A row reads
        empty_interval where the window is empty (values and lam_opt NaN)
        and numerical_error where either is not finite (as at a subnormal mu).
        """
        mus = np.asarray(mus, dtype=float)
        if not (mus > 0.0).all():
            raise ValueError("mu must be positive")
        gamma = self.basis.gamma
        # u overflows to inf where the weight limit does; those rows are skipped.
        upper = gamma / np.tanh(np.multiply.outer(mus, gamma))
        values, lams = np.full(mus.shape, np.nan), np.full(mus.shape, np.nan)
        status = np.full(mus.shape, STATUS_NUMERICAL)
        rows, windows = [], []
        for i, (u_min, finite) in enumerate(zip(upper.min(axis=1).tolist(),
                                                np.isfinite(upper).all(axis=1).tolist())):
            if not finite:
                continue
            window = self._window(u_min)
            if window is None:
                status[i] = STATUS_EMPTY
            else:
                rows.append(i)
                windows.append(window)
        if rows:
            columns = upper[rows].T
            # Python floats: the driver's per-window steps run faster on them.
            solved = newton_minimize_grid(lambda lams, open_rows: zip(*(x.tolist() for x in
                self._objective(np.array(lams), columns[:, open_rows]))), *zip(*windows))
            lam_opt, inner = zip(*solved)
            values[rows] = _log_bound_prefactor(self.basis, mus[rows]) + inner
            lams[rows] = lam_opt
        status[np.isfinite(values) & np.isfinite(lams)] = STATUS_OK
        return BoundGrid(values, lams, status)


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
    The callable raises RiskParameterTooLarge past mu* and from
    saturation_mu on, NumericalOverflowDespiteLogSpace where it overflows.
    """
    engine = ExactEngine(state, basis)
    return engine.cgf_and_slope, engine.mu_max()


def scalar_bound_cgf(state, basis: SymplecticBasis):
    """Upper-bound CGF callable from the scalar-weight optimizer:
    (ScalarBoundEngine.cgf_and_slope, mu_max), the pair tail_bound takes.

    The bound is finite while scalar_weight_limit(mu) stays above the
    largest component covariance eigenvalue; mu_max is CGF_SAFETY times that
    window edge, or the saturation limit SATURATION_SPAN / theta_max when
    the window stays open that far.
    """
    engine = ScalarBoundEngine(state, basis)
    return engine.cgf_and_slope, engine.mu_max()


def tail_bound(cgf, eps: float, mu_max: float, grid_points: int = 64) -> TailBound:
    """Chernoff tail bound ln P(Q >= 2*eps) <= -(sup eps*mu - Upsilon(mu)).

    cgf is the exact CGF or any upper bound of it, so every evaluated point
    yields a valid bound: at a float mu it returns (value, slope) floats,
    and at a 1-D array of mu two arrays of that shape, as the callables of
    exact_cgf, scalar_bound_cgf and classical_gaussian_cgf_and_slope do.
    The grid_points coarse points (an integer of at least 1) take one array
    call (a ValueError names the expected shape if the answer does not have
    it); the sign of the gain's slope eps - slope at the best of them picks
    the neighbouring half-bracket (the outer ones end at grid[0] * 1e-6 and
    mu_max * (1 - 1e-9)), where cubic_minimize minimizes the convex
    Upsilon(mu) - eps*mu from the values and slopes of float calls.  The
    best gain evaluated is reported, clamped at 0; if it still climbs at the
    upper end, mu_max itself is probed and flagged as argmax_mu.
    """
    if not (eps >= 0.0 and math.isfinite(eps)):
        raise InvalidRange(f"eps must be finite and nonnegative, got {eps!r}")
    if not (mu_max > 0.0 and math.isfinite(mu_max)):
        raise InvalidRange(f"mu_max must be finite and positive, got {mu_max!r}")
    try:
        grid_points = _integer_in(grid_points, "grid_points", 1)
    except ValueError as exc:
        raise InvalidRange(str(exc)) from None
    evaluated = []

    def record(mu, value, slope):
        """(phi, phi') of phi = Upsilon - eps*mu at mu, whose gain -phi is kept."""
        phi = value - eps * mu
        evaluated.append((-phi, mu))
        return phi, slope - eps

    def loss(mu):
        return record(mu, *cgf(mu))

    mus = mu_max * np.arange(1, grid_points + 1) / (grid_points + 1)
    values, grid_slopes = (np.asarray(x, dtype=float) for x in cgf(mus))
    if values.shape != mus.shape or grid_slopes.shape != mus.shape:
        raise ValueError(f"cgf of a mu array of shape {mus.shape} must return (values, slopes) "
                         f"of that shape, got {values.shape} and {grid_slopes.shape}")
    grid = mus.tolist()
    known = dict(zip(grid, map(record, grid, values.tolist(), grid_slopes.tolist())))
    j = int(np.argmax([gain for gain, _ in evaluated]))
    ends = [grid[0] * 1e-6] + grid + [mu_max * (1.0 - 1e-9)]
    k = j + 1 if known[grid[j]][1] > 0.0 else j + 2
    a, b = ends[k - 1], ends[k]
    fa, da = known[a] if a in known else loss(a)
    fb, db = known[b] if b in known else loss(b)
    if da < 0.0 < db:
        cubic_minimize(loss, a, b, fa, da, fb, db)
    best, argmax = max(evaluated, key=lambda point: point[0])
    if k == grid_points + 1 and db < 0.0:
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
