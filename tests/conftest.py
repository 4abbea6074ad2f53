"""Shared construction helpers and reference oracles for the test suite."""

import math

import numpy as np
import scipy.linalg

from qembound import (
    CcrMatrix,
    GaussianState,
    J2,
    MixtureMgf,
    aux_covariance,
    dynamics_matrices,
    gramian_finite,
    log_det_cos,
    log_weighted_norm,
    mode_matrix,
    validate_ccr,
)
from qembound._search import SEARCH_MAX_ITER, SEARCH_RTOL, brent_root
from qembound.ccr import _over_x, lncosh
from qembound.errors import QemBoundError
from qembound.qem import TailBound
from qembound.sampling import log_mean_exp_stats, standard_normal_blocks

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


def brent_tail(cgf, eps, mu_max, grid_points):
    """(TailBound, (a, b)): tail_bound's coarse grid call, half-bracket
    [a, b], edge probe and clamp, with the supremum inside [a, b] found by
    brent_root on the gain's slope eps - slope alone instead of from values
    and slopes; the oracle for tail_bound's cubic search."""

    def gain_slope(mu):
        value, slope = cgf(mu)
        evaluated.append((eps * mu - value, mu))
        return eps - slope

    mus = mu_max * np.arange(1, grid_points + 1) / (grid_points + 1)
    values, grid_slopes = (np.asarray(x, dtype=float).tolist() for x in cgf(mus))
    grid = mus.tolist()
    evaluated = [(eps * mu - value, mu) for mu, value in zip(grid, values)]
    slopes = {mu: eps - slope for mu, slope in zip(grid, grid_slopes)}
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
        try:
            edge = eps * mu_max - cgf(mu_max)[0]
        except QemBoundError:
            edge = best
        best = max(best, edge)
        argmax = mu_max
    if best <= 0.0:
        return TailBound(eps=eps, log_prob_bound=0.0, argmax_mu=None), (a, b)
    return TailBound(eps=eps, log_prob_bound=-best, argmax_mu=argmax), (a, b)


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


def per_sample_log_mgf(state, u):
    """Log-MGF at each row of u, one component at a time, combined by a
    log-sum-exp over the last (component) axis."""
    if isinstance(state, GaussianState):
        return u @ state.mean + 0.5 * ((u @ state.cov) * u).sum(axis=1)
    cols = np.stack([per_sample_log_mgf(c, u) for c in state.components], axis=1)
    cols = cols + np.log(state.weights)
    top = np.maximum.reduce(cols, axis=-1)
    return top + np.log(np.add.reduce(np.exp(cols - top[..., None]), axis=-1))


def per_sample_randomized_mc(state, basis, mu, samples, seed):
    """Monte-Carlo (log_qem, rel_std_error) with every draw mapped to
    u = sqrt(mu) L z before the MGF is evaluated; the oracle for
    qem_randomized_mc, which maps the components instead."""
    chol = np.linalg.cholesky(aux_covariance(basis, mu))
    root_mu = math.sqrt(mu)
    logs = []
    for z in standard_normal_blocks(seed, 0, samples, basis.n):
        u = root_mu * (z @ chol.T)
        logs.append(per_sample_log_mgf(state, u))
    log_mean, rel_se = log_mean_exp_stats(np.concatenate(logs))
    return log_mean - 0.5 * log_det_cos(basis, mu), rel_se


def log_propagated_norm(initial, model, t, lam):
    """Log of the scalar-weighted norm of the time-t MGF, evaluated on the
    initial state (the paper's norm transport):

        ln |||psi_t|||_lam = -(t/2) tr A + ln |||psi_0|||_{Pi(t, lam)},

    with Pi(t, lam) = e^{-tA} (lam I - Sigma_t) e^{-tA^T} for
    lam > lambda_max(Sigma_t), and e^{-tA} from scipy.linalg.expm; the
    oracle for the static norm of propagate_mgf's state.
    """
    a, b = dynamics_matrices(model)
    e_neg = scipy.linalg.expm(-t * a)
    weight = e_neg @ (lam * np.eye(a.shape[0]) - gramian_finite(a, b, t).sigma) @ e_neg.T
    return -0.5 * t * float(np.trace(a)) + log_weighted_norm(initial, 0.5 * (weight + weight.T))


@np.errstate(over="ignore", invalid="ignore")
def eigh_exact_chunk(engine, mus, slope):
    """(values, slopes, top) over one chunk of mus from one stacked eigh of
    the unit-scale B = V diag(w_unit) V^T: the mean term mu sum p^2/(1 - w)
    with p = V^T (e * M~), and the slope's h = V (p/(1 - w)) and spread
    sum_j V_ij^2 w_unit_j/(1 - w_j); the oracle for ExactEngine.grid's
    values, slopes and feasibility mask (top < 1) and for ExactEngine.top.
    It knows no saturation span."""
    mus = np.asarray(mus, dtype=float)
    x = mus[:, None] * engine.theta
    e = np.sqrt(_over_x(np.tanh, x))
    w_unit, v = np.linalg.eigh(e[:, None, :, None] * engine.covs * e[:, None, None, :])
    w = mus[:, None, None] * w_unit
    top = np.where(np.isinf(x).any(axis=1), np.inf, w.max(axis=(1, 2)))
    w[top >= 1.0] = np.nan
    gap = 1.0 - w
    p = np.matmul((e[:, None, :] * engine.means)[:, :, None, :], v)[:, :, 0, :]
    log_cos = 2.0 * lncosh(mus[:, None] * engine.basis.gamma).sum(axis=1)
    parts = 0.5 * (mus[:, None] * (p * p / gap).sum(axis=2) - np.log1p(-w).sum(axis=2)
                   - log_cos[:, None])
    x_mix = parts + engine.log_weights
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
                    - (engine.theta * np.tanh(x)).sum(axis=1)[:, None])
    return values, (mix * slopes).sum(axis=1) / total, top
