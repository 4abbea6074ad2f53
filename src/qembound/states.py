"""Gaussian and Gaussian-mixture states represented through their MGFs,
with closed-form weighted L2 norms.

A Gaussian state with mean M and real covariance C has the everywhere
finite MGF psi(u) = exp(M^T u + ||u||_C^2 / 2), subject to the quantum
admissibility constraint C + i*Theta >= 0.  Finite mixtures of Gaussians
keep both the MGF and all weighted norms in closed form, which is what
makes them usable as exactly checkable non-Gaussian states.  The
scalar-weight reduction of these norms lives in qem.ScalarBoundEngine.

Batched log-MGFs take each component as a (linear, half-quadratic) pair
(log_mixture_mgf), so a change of variables is applied to the pairs once.
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


def _least_eigenvalue_and_floor(covs, theta):
    """(least eigenvalue of C + i*Theta, the least one admissible) for each
    symmetric covariance C of covs, one matrix or a stack (K, n, n), from one
    eigvalsh: the floor is ADMISSIBILITY_FLOOR less ADMISSIBILITY_RTOL *
    max(1, max|C|)."""
    least = np.linalg.eigvalsh(covs + 1j * theta)[..., 0]
    scale = np.maximum(1.0, np.abs(covs).max(axis=(-2, -1)))
    return least, ADMISSIBILITY_FLOOR - ADMISSIBILITY_RTOL * scale


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
        least, floor = _least_eigenvalue_and_floor(cov, self.ccr.theta)
        if least < floor:
            raise NotAdmissible(
                f"min eigenvalue of C + i*Theta is {least:.3e}; state is not quantum-admissible"
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


def _gaussian_states(means, covs, ccr):
    """The GaussianStates of the rows of means (K, n) and of the exactly
    symmetric covs (K, n, n), with GaussianState's checks that can fail on
    them (finiteness, then the admissibility floor for all K in one stacked
    eigvalsh) and no others; raises as GaussianState does."""
    _require_finite(means, "mean")
    _require_finite(covs, "covariance")
    least, floor = _least_eigenvalue_and_floor(covs, ccr.theta)
    below = np.flatnonzero(least < floor)
    if below.size:
        raise NotAdmissible(f"min eigenvalue of C + i*Theta is {least[below[0]]:.3e}; "
                            "state is not quantum-admissible")
    states = []
    for mean, cov in zip(means, covs):
        state = object.__new__(GaussianState)
        for name, value in (("mean", _readonly(mean)), ("cov", _readonly(cov)), ("ccr", ccr)):
            object.__setattr__(state, name, value)
        states.append(state)
    return tuple(states)


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


def log_mixture_mgf(log_w, means, half_covs, z) -> np.ndarray:
    """ln sum_k w_k exp(b_k^T z + z^T G_k z) at each row of z (shape (m, n)), for
    b_k = means[k], G_k = half_covs[k]: one GEMM per component, the K exponents
    stacked along the first axis for log_sum_exp."""
    terms = np.empty((len(log_w), z.shape[0]))
    for row, lw, b, g in zip(terms, log_w, means, half_covs):
        np.einsum("ij,ij->i", z @ g, z, out=row)
        row += z @ b
        row += lw
    return log_sum_exp(terms)


def mgf_eval(state, u) -> float:
    """MGF value E exp(u^T X); strictly positive, equal to 1 at u = 0."""
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.size != state.n:
        raise DimensionMismatch(f"argument dimension {u.size} != state dimension {state.n}")
    mix = as_mixture(state)
    return float(np.exp(log_mixture_mgf(np.log(mix.weights), [c.mean for c in mix.components],
                                        [0.5 * c.cov for c in mix.components], u[None, :])[0]))


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

