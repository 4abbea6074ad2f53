"""Commutative-limit oracle: classical Gaussian moments, samplers, the
randomized moment identity, and empirical tail probabilities.

This module is an independent verification layer for the quantum pipeline:
it never imports the quantum implementation, only the shared sampling and
log-sum-exp machinery.  With a zero commutation matrix the moment
E exp((mu/2)|X|^2) has the classical risk-sensitive closed form, the
averaging identity reduces to a standard-normal average of the MGF, and
tail probabilities can be estimated directly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RiskParameterTooLarge, SuspectedDivergence
from .sampling import (check_samples, log_mean_exp_stats, standard_normal_blocks,
                       top_weight_fraction)

COV_FLOOR = -1e-12
TOP_WEIGHT_FRACTION = 0.001
TOP_WEIGHT_LIMIT = 0.5


@dataclass(frozen=True)
class ClassicalGaussian:
    """Classical Gaussian law with mean vector and PSD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.array(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise DimensionMismatch(
                f"cov shape {cov.shape} does not match mean size {mean.size}"
            )
        scale = max(1.0, float(np.abs(cov).max()))
        if float(np.abs(cov - cov.T).max()) > 1e-12 * scale:
            raise ValueError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        if float(np.linalg.eigvalsh(cov)[0]) < COV_FLOOR * scale:
            raise ValueError("covariance must be positive semidefinite")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n(self):
        return self.mean.size


def _cov_factor(cov):
    """Square root L with L L^T = cov, valid for singular PSD matrices."""
    vals, vecs = np.linalg.eigh(cov)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def classical_gaussian_qem(g: ClassicalGaussian, mu: float) -> float:
    """Closed-form log of E exp((mu/2)|X|^2) for X ~ g:

        (||M||^2_{mu (I - mu C)^-1} - ln det(I - mu C)) / 2,

    finite for mu < 1 / lambda_max(C).
    """
    if not mu >= 0.0:
        raise ValueError("mu must be nonnegative")
    if mu == 0.0:
        return 0.0
    eigs = np.linalg.eigvalsh(g.cov)
    if mu * eigs[-1] >= 1.0:
        raise RiskParameterTooLarge(
            f"mu = {mu} is not below 1/lambda_max(C) = {1.0 / eigs[-1]:.12g}"
        )
    logdet = float(np.log1p(-mu * eigs).sum())
    quad = 0.0
    if np.any(g.mean != 0.0):
        y = np.linalg.solve(np.linalg.cholesky(np.eye(g.n) - mu * g.cov), g.mean)
        quad = mu * float(y @ y)
    return 0.5 * (quad - logdet)


def classical_gaussian_cgf_and_slope(g: ClassicalGaussian, mu):
    """(classical_gaussian_qem(g, mu), its slope), the pair tail_bound takes:
    floats at a float mu, or arrays over a 1-D array of mu, one float call
    per entry.  Over C = V diag(c) V^T the slope
    (|(I - mu C)^-1 M|^2 + sum c/(1 - mu c))/2 reads (tr C + |M|^2)/2 at
    mu = 0."""
    if np.ndim(mu):
        pairs = [classical_gaussian_cgf_and_slope(g, m) for m in np.asarray(mu, float).tolist()]
        return np.array([value for value, _ in pairs]), np.array([slope for _, slope in pairs])
    value = classical_gaussian_qem(g, mu)
    c, v = np.linalg.eigh(g.cov)
    gap = 1.0 - mu * c
    y = (g.mean @ v) / gap
    return value, 0.5 * (float(y @ y) + float((c / gap).sum()))


def classical_qem_mc(g: ClassicalGaussian, mu: float, samples: int, seed: int):
    """Monte-Carlo estimate of ln E exp((mu/2)|X|^2) with X ~ g.

    Returns (log_estimate, rel_se).  Deterministic per seed.  When the top
    0.1% of summands carry more than half the total weight the expectation
    is flagged as divergent instead of returning a meaningless estimate.
    """
    if not mu >= 0.0:
        raise ValueError("mu must be nonnegative")
    blocks = standard_normal_blocks(seed, 0, check_samples(samples, 2), g.n)
    if mu == 0.0:
        return 0.0, 0.0
    chol = _cov_factor(g.cov)
    logs = []
    for z in blocks:
        x = z @ chol.T + g.mean
        logs.append(0.5 * mu * np.einsum("bi,bi->b", x, x))
    all_logs = np.concatenate(logs)
    if top_weight_fraction(all_logs, TOP_WEIGHT_FRACTION) > TOP_WEIGHT_LIMIT:
        raise SuspectedDivergence(
            "top 0.1% of summands carry more than 50% of the total weight; "
            f"mu = {mu} is likely beyond the finiteness threshold"
        )
    log_mean, rel_se = log_mean_exp_stats(all_logs)
    return log_mean, rel_se


@dataclass(frozen=True)
class IdentityCheck:
    """Two-sided Monte-Carlo comparison of the moment identity, log scale."""

    log_lhs: float
    log_rhs: float
    combined_se: float
    passed: bool


def randomized_identity_check(
    g: ClassicalGaussian, mu: float, samples: int, seed: int
) -> IdentityCheck:
    """Check E exp((mu/2)|X|^2) = E_Z Lambda(sqrt(mu) Z) with Z standard normal.

    The left side is estimated by direct sampling of X, the right side by
    sampling Z and evaluating the Gaussian MGF Lambda in closed form; both
    run through the same log-sum-exp machinery on independent substreams.
    Passes when the log estimates agree within 3 combined standard errors.
    """
    if g.n % 2:
        raise DimensionMismatch("identity check requires an even dimension")
    log_lhs, se_lhs = classical_qem_mc(g, mu, samples, seed)
    if mu == 0.0:
        return IdentityCheck(0.0, 0.0, 0.0, True)
    root_mu = math.sqrt(mu)
    logs = []
    for z in standard_normal_blocks(seed, 1, samples, g.n):
        u = root_mu * z
        logs.append(u @ g.mean + 0.5 * np.einsum("bi,ij,bj->b", u, g.cov, u))
    log_rhs, se_rhs = log_mean_exp_stats(np.concatenate(logs))
    combined = math.hypot(se_lhs, se_rhs)
    passed = abs(log_lhs - log_rhs) <= 3.0 * combined
    return IdentityCheck(log_lhs, log_rhs, combined, passed)


def empirical_tail(g: ClassicalGaussian, eps: float, samples: int, seed: int):
    """Empirical probability of |X|^2 >= 2*eps with its Wald standard error."""
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    blocks = standard_normal_blocks(seed, 0, check_samples(samples, 1), g.n)
    chol = _cov_factor(g.cov)
    hits = 0
    for z in blocks:
        x = z @ chol.T + g.mean
        hits += int(np.count_nonzero(np.einsum("bi,bi->b", x, x) >= 2.0 * eps))
    p_hat = hits / samples
    se = math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return p_hat, se
