"""Gaussian and Gaussian-mixture states represented through their MGFs,
with closed-form weighted L2 norms.

A Gaussian state with mean M and real covariance C has the everywhere
finite MGF psi(u) = exp(M^T u + ||u||_C^2 / 2), subject to the quantum
admissibility constraint C + i*Theta >= 0.  Finite mixtures of Gaussians
keep both the MGF and all weighted norms in closed form, which is what
makes them usable as exactly checkable non-Gaussian states.  The
scalar-weight reduction of these norms lives in qem.ScalarBoundEngine.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ccr import (CcrMatrix, _cholesky, _readonly, _require_finite, _require_positive,
                  _same_ccr, _symmetric)
from .errors import (
    DimensionMismatch,
    NormDivergent,
    NotAdmissible,
    NotPositiveDefinite,
)
from .sampling import log_sum_exp

#: Least eigenvalue of C + i*Theta accepted: ADMISSIBILITY_FLOOR, less
#: ADMISSIBILITY_RTOL * max(1, max|C|) for eigvalsh's rounding error, which
#: grows with the covariance's scale.
ADMISSIBILITY_FLOOR = -1e-10
ADMISSIBILITY_RTOL = 1e-14
WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state given by mean, real covariance and its CCR matrix."""

    mean: np.ndarray
    cov: np.ndarray
    ccr: CcrMatrix

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        n = self.ccr.n
        if mean.size != n or cov.shape != (n, n):
            raise DimensionMismatch(
                f"mean/cov shapes {mean.shape}/{cov.shape} do not match CCR order {n}"
            )
        _require_finite(mean, "mean")
        _require_finite(cov, "covariance")
        cov = _symmetric(cov, NotAdmissible, "covariance is not symmetric within tolerance")
        w = np.linalg.eigvalsh(cov + 1j * self.ccr.theta)
        if w[0] < ADMISSIBILITY_FLOOR - ADMISSIBILITY_RTOL * max(1.0, float(np.abs(cov).max())):
            raise NotAdmissible(
                f"min eigenvalue of C + i*Theta is {w[0]:.3e}; state is not quantum-admissible"
            )
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "cov", _readonly(cov))

    @property
    def n(self):
        return self.ccr.n


@dataclass(frozen=True)
class MixtureMgf:
    """Convex combination of Gaussian states sharing one CCR matrix."""

    weights: tuple
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        w = np.asarray(self.weights, dtype=float)
        if w.size != len(comps):
            raise DimensionMismatch("one weight per component required")
        _require_finite(w, "mixture weight vector")
        if np.any(w <= 0.0):
            raise ValueError("mixture weights must be positive")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"mixture weights sum to {w.sum()!r}, expected 1")
        if not all(_same_ccr(c.ccr, comps[0].ccr) for c in comps[1:]):
            raise DimensionMismatch("all components must share one CCR matrix")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "components", comps)

    @property
    def ccr(self):
        return self.components[0].ccr

    @property
    def n(self):
        return self.components[0].n


def as_mixture(state) -> MixtureMgf:
    """View a single Gaussian as a one-component mixture; pass mixtures through."""
    if isinstance(state, MixtureMgf):
        return state
    return MixtureMgf(weights=(1.0,), components=(state,))


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric positive definite weighting matrix for MGF norms."""

    P: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.P, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise DimensionMismatch(f"weight must be square, got shape {p.shape}")
        p = _symmetric(p, NotPositiveDefinite, "weight matrix is not symmetric")
        _cholesky(p, NotPositiveDefinite, "weight matrix is not positive definite")
        object.__setattr__(self, "P", _readonly(p))


def log_mgf_batch(state, u) -> np.ndarray:
    """Log-MGF of a Gaussian or mixture at each row of u (shape (m, n))."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != state.n:
        raise DimensionMismatch(f"argument dimension {u.shape[1]} != state dimension {state.n}")
    if isinstance(state, GaussianState):
        return u @ state.mean + 0.5 * ((u @ state.cov) * u).sum(axis=1)
    mix = as_mixture(state)
    cols = np.stack([log_mgf_batch(c, u) for c in mix.components], axis=1)
    return log_sum_exp(cols + np.log(mix.weights))


def mgf_eval(state, u) -> float:
    """MGF value E exp(u^T X); strictly positive, equal to 1 at u = 0."""
    u = np.asarray(u, dtype=float).reshape(-1)
    return float(np.exp(log_mgf_batch(state, u[None, :])[0]))


def gaussian_moment_integral(a, precision) -> float:
    """Log of the Gaussian MGF identity in terms of the precision matrix:

        ln[(2 pi)^(-m/2) sqrt(det N) * integral exp(a^T u - ||u||_N^2 / 2) du]
        = ||a||^2_{N^-1} / 2,

    from a Cholesky factor of N.  A reference identity: the norm and bound
    closed forms evaluate their own integrals.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    n_mat = np.asarray(precision, dtype=float)
    if n_mat.shape != (a.size, a.size):
        raise DimensionMismatch(
            f"precision shape {n_mat.shape} does not match vector size {a.size}"
        )
    n_mat = _symmetric(n_mat, NotPositiveDefinite, "precision matrix is not symmetric")
    chol, _ = _cholesky(n_mat, NotPositiveDefinite, "precision matrix is not positive definite")
    y = np.linalg.solve(chol, a)
    return 0.5 * float(y @ y)


def _pair_log_integral(m_i, m_j, c_i, c_j, p):
    """Log of integral exp((M_i+M_j)^T u - ||u||^2_{P-(C_i+C_j)/2}) du."""
    chol, logdet = _cholesky(p - 0.5 * (c_i + c_j), NormDivergent,
                             "weight does not dominate the covariances; norm integral diverges")
    y = np.linalg.solve(chol, m_i + m_j)
    quad = float(y @ y)
    n = p.shape[0]
    return 0.5 * n * math.log(math.pi) - 0.5 * logdet + 0.25 * quad


def log_weighted_norm(state, weight) -> float:
    """Log of the weighted L2 norm of the state's MGF,

        |||psi|||_P = sqrt( integral exp(-||u||_P^2) psi(u)^2 du ).

    For a single Gaussian this is pi^(nu/2) * exp(||M||^2_{(P-C)^-1}/2)
    / det(P-C)^(1/4), finite iff P > C; mixtures expand into pairwise
    cross terms of the same Gaussian-integral form.
    """
    p = weight.P if isinstance(weight, WeightMatrix) else WeightMatrix(weight).P
    mix = as_mixture(state)
    if p.shape[0] != mix.n:
        raise DimensionMismatch(f"weight order {p.shape[0]} != state dimension {mix.n}")
    comps = mix.components
    log_w = np.log(np.asarray(mix.weights))
    terms = []
    for i, ci in enumerate(comps):
        for j, cj in enumerate(comps):
            terms.append(
                log_w[i]
                + log_w[j]
                + _pair_log_integral(ci.mean, cj.mean, ci.cov, cj.cov, p)
            )
    return 0.5 * float(log_sum_exp(np.asarray(terms)))


def log_scalar_norm(state, lam: float) -> float:
    """log_weighted_norm with the scalar weight P = lam * I."""
    _require_positive(lam, "lam")
    return log_weighted_norm(state, WeightMatrix(lam * np.eye(as_mixture(state).n)))

