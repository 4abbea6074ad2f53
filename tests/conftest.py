"""Shared construction helpers and reference oracles for the test suite."""

import math

import numpy as np
import scipy.linalg

from qembound import (
    CcrMatrix,
    GaussianState,
    J2,
    MixtureMgf,
    mode_matrix,
    validate_ccr,
)
from qembound._search import SEARCH_MAX_ITER, SEARCH_RTOL

GOLDEN_INV = (math.sqrt(5.0) - 1.0) / 2.0


def block_ccr(freqs) -> CcrMatrix:
    """Commutation matrix as a direct sum of freq * J2 blocks."""
    return validate_ccr(scipy.linalg.block_diag(*[float(f) * J2 for f in freqs]))


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_ccr(rng, n_modes, freq_range=(0.5, 2.0)):
    """Random commutation matrix built from a random orthogonal basis.

    Returns (ccr, freqs_sorted_desc) so tests can check recovered spectra.
    """
    freqs = np.sort(rng.uniform(*freq_range, size=n_modes))[::-1]
    q = random_orthogonal(rng, 2 * n_modes)
    core = np.kron(np.diag(freqs), J2)
    theta = q @ core @ q.T
    return validate_ccr(theta), freqs


def random_admissible_state(rng, ccr, mean_scale=0.5, cov_scale=0.5) -> GaussianState:
    """Gaussian state with C = W W^T + ||Theta|| I, admissible by construction."""
    n = ccr.n
    w = rng.normal(scale=cov_scale, size=(n, n))
    shift = float(np.linalg.norm(ccr.theta, 2))
    cov = w @ w.T + shift * np.eye(n)
    mean = rng.normal(scale=mean_scale, size=n)
    return GaussianState(mean=mean, cov=cov, ccr=ccr)


def thermal_state(basis, ccr, occupancies, mean=None) -> GaussianState:
    """State commuting with the CCR matrix: C has mode values
    theta_k * (2*n_k + 1); admissible for any occupancy n_k >= 0."""
    occ = np.asarray(occupancies, dtype=float)
    cov = mode_matrix(basis, basis.gamma * (2.0 * occ + 1.0))
    if mean is None:
        mean = np.zeros(ccr.n)
    return GaussianState(mean=mean, cov=cov, ccr=ccr)


def simple_mixture(ccr, means, covs, weights=None) -> MixtureMgf:
    comps = tuple(GaussianState(mean=m, cov=c, ccr=ccr) for m, c in zip(means, covs))
    if weights is None:
        weights = tuple(1.0 / len(comps) for _ in comps)
    return MixtureMgf(weights=tuple(weights), components=comps)


def golden_section_minimize(f, lo, hi):
    """Minimize a scalar function on [lo, hi] by golden-section search; the
    value-only oracle for the Newton and root-finding searches.

    Assumes near-unimodality but tracks the best evaluated point, so the
    returned (x_best, f_best) never degrades if the assumption is off.
    """
    if not hi > lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    a, b = float(lo), float(hi)
    c = b - GOLDEN_INV * (b - a)
    d = a + GOLDEN_INV * (b - a)
    fc, fd = f(c), f(d)
    if fc <= fd:
        best_x, best_f = c, fc
    else:
        best_x, best_f = d, fd
    for _ in range(SEARCH_MAX_ITER):
        if (b - a) <= SEARCH_RTOL * max(1.0, abs(a), abs(b)):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN_INV * (b - a)
            fc = f(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN_INV * (b - a)
            fd = f(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def bisect_nondecreasing(g, target, lo, hi):
    """Solve g(x) = target for nondecreasing g with g(lo) <= target <= g(hi)."""
    a, b = float(lo), float(hi)
    for _ in range(SEARCH_MAX_ITER):
        if (b - a) <= SEARCH_RTOL * max(abs(a), abs(b)):
            break
        mid = 0.5 * (a + b)
        if g(mid) < target:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
