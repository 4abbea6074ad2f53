"""Open quantum harmonic oscillators: linear dynamics from energy and
coupling data, controllability Gramians, MGF propagation, and
time-dependent moment bounds.

The dynamics dX = A X dt + B dW with vacuum input fields has
A = 2*Theta*(R + N^T J N) and B = 2*Theta*N^T.  The MGF then evolves by
psi_t(u) = psi_0(e^{tA^T} u) * exp(||u||^2_{Sigma_t}/2) with the
finite-horizon controllability Gramian Sigma_t, so Gaussian mixtures stay
Gaussian mixtures and every norm and bound of the initial state transports
to time t in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._search import golden_section_minimize
from .ccr import CcrMatrix, J2, SymplecticBasis, _readonly, symplectic_eigenbasis
from .errors import (
    DimensionMismatch,
    EmptyInterval,
    ExpmFailure,
    InternalAdmissibilityViolation,
    LambdaTooSmall,
    NormDivergent,
    NotAdmissible,
    NotHurwitz,
)
from .qem import (
    METHOD_BOUND,
    QemValue,
    WINDOW_MARGIN,
    _log_bound_prefactor,
    _scalar_gap_logdet,
    scalar_weight_limit,
)
from .states import GaussianState, MixtureMgf, as_mixture, log_weighted_norm

HURWITZ_MARGIN = -1e-10
PSD_FLOOR = -1e-10
LYAPUNOV_RESIDUAL_RTOL = 1e-9


@dataclass(frozen=True)
class OqhoModel:
    """Oscillator parameterized by an energy matrix R and coupling matrix N."""

    R: np.ndarray
    N: np.ndarray
    ccr: CcrMatrix

    def __post_init__(self):
        r = np.asarray(self.R, dtype=float)
        nc = np.asarray(self.N, dtype=float)
        n = self.ccr.n
        if r.shape != (n, n):
            raise DimensionMismatch(f"energy matrix shape {r.shape}, expected ({n}, {n})")
        if nc.ndim != 2 or nc.shape[1] != n:
            raise DimensionMismatch(f"coupling matrix shape {nc.shape}, expected (m, {n})")
        if nc.shape[0] % 2:
            raise DimensionMismatch("coupling matrix must have an even number of rows")
        scale = max(1.0, float(np.abs(r).max()))
        if float(np.abs(r - r.T).max()) > 1e-12 * scale:
            raise DimensionMismatch("energy matrix must be symmetric")
        object.__setattr__(self, "R", _readonly(0.5 * (r + r.T)))
        object.__setattr__(self, "N", _readonly(nc))

    @property
    def m(self):
        return self.N.shape[0]

    @property
    def J(self):
        """Field commutation matrix I_{m/2} (x) J2."""
        return np.kron(np.eye(self.m // 2), J2)


@dataclass(frozen=True)
class GramianResult:
    """Controllability Gramian at a finite or infinite horizon."""

    sigma: np.ndarray
    horizon: float
    hurwitz: bool | None = None


def dynamics_matrices(model: OqhoModel):
    """Drift and input matrices A = 2 Theta (R + N^T J N), B = 2 Theta N^T."""
    theta = model.ccr.theta
    a = 2.0 * theta @ (model.R + model.N.T @ model.J @ model.N)
    b = 2.0 * theta @ model.N.T
    return a, b


def _expm_and_gramian(a, b, t):
    """e^{tA} and Sigma_t from one block matrix exponential.

    exp(t * [[-A, BB^T], [0, A^T]]) has upper-right block
    e^{-tA} * Sigma_t and lower-right block e^{tA^T}, so both outputs come
    from a single scaling-and-squaring call.
    """
    n = a.shape[0]
    noise = b @ b.T
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -a
    block[:n, n:] = noise
    block[n:, n:] = a.T
    try:
        big = scipy.linalg.expm(block * t)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise ExpmFailure(f"matrix exponential failed: {exc}") from exc
    if not np.all(np.isfinite(big)):
        raise ExpmFailure("matrix exponential produced non-finite entries")
    e_ta = big[n:, n:].T
    sigma = e_ta @ big[:n, n:]
    sigma = 0.5 * (sigma + sigma.T)
    return e_ta, sigma


def gramian_finite(a, b, t: float) -> GramianResult:
    """Finite-horizon Gramian Sigma_t = int_0^t e^{sA} BB^T e^{sA^T} ds."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if t < 0.0:
        raise ValueError("horizon must be nonnegative")
    if t == 0.0:
        return GramianResult(sigma=_readonly(np.zeros_like(a)), horizon=0.0)
    _, sigma = _expm_and_gramian(a, b, t)
    floor = PSD_FLOOR * max(1.0, float(np.abs(sigma).max()))
    if float(np.linalg.eigvalsh(sigma)[0]) < floor:
        raise ExpmFailure("computed Gramian is not positive semidefinite")
    return GramianResult(sigma=_readonly(sigma), horizon=float(t))


def gramian_infinite(a, b) -> GramianResult:
    """Infinite-horizon Gramian via the Lyapunov equation A S + S A^T + BB^T = 0.

    Requires A Hurwitz (max real part of eigenvalues below -1e-10); the
    solution is checked against a relative residual of 1e-9.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    spectrum = np.linalg.eigvals(a)
    if float(spectrum.real.max()) >= HURWITZ_MARGIN:
        raise NotHurwitz(
            f"max real part of eigenvalues is {spectrum.real.max():.3e}; "
            "infinite-horizon Gramian needs a strictly stable drift"
        )
    noise = b @ b.T
    sigma = scipy.linalg.solve_continuous_lyapunov(a, -noise)
    sigma = 0.5 * (sigma + sigma.T)
    residual = np.linalg.norm(a @ sigma + sigma @ a.T + noise)
    if residual > LYAPUNOV_RESIDUAL_RTOL * max(1.0, np.linalg.norm(noise)):
        raise ExpmFailure(f"Lyapunov residual {residual:.3e} too large")
    return GramianResult(sigma=_readonly(sigma), horizon=math.inf, hurwitz=True)


def propagate_mgf(initial, model: OqhoModel, t: float) -> MixtureMgf:
    """State at time t: each component (M, C) maps to
    (e^{tA} M, e^{tA} C e^{tA^T} + Sigma_t); weights are unchanged.

    Output components are re-validated against the commutation matrix;
    failure there signals a numerical fault, not a user error.
    """
    mix = as_mixture(initial)
    if mix.n != model.ccr.n:
        raise DimensionMismatch("state and model dimensions differ")
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    if t == 0.0:
        return mix
    a, b = dynamics_matrices(model)
    e_ta, sigma = _expm_and_gramian(a, b, t)
    comps = []
    for comp in mix.components:
        mean_t = e_ta @ comp.mean
        cov_t = e_ta @ comp.cov @ e_ta.T + sigma
        cov_t = 0.5 * (cov_t + cov_t.T)
        try:
            comps.append(GaussianState(mean=mean_t, cov=cov_t, ccr=model.ccr))
        except NotAdmissible as exc:
            raise InternalAdmissibilityViolation(
                f"propagated covariance violates admissibility at t = {t}: {exc}"
            ) from exc
    return MixtureMgf(weights=mix.weights, components=tuple(comps))


def _initial_weight(a_inv_exp, sigma, lam, n):
    """Weight e^{-tA} (lam I - Sigma_t) e^{-tA^T} for the initial-state norm."""
    core = lam * np.eye(n) - sigma
    out = a_inv_exp @ core @ a_inv_exp.T
    return 0.5 * (out + out.T)


def log_propagated_norm(initial, model: OqhoModel, t: float, lam: float) -> float:
    """Log of the scalar-weighted norm of the time-t MGF, evaluated on the
    initial state:

        ln |||psi_t|||_lam = -(t/2) tr A + ln |||psi_0|||_{Pi(t, lam)},

    with Pi(t, lam) = e^{-tA} (lam I - Sigma_t) e^{-tA^T}, valid for
    lam > lambda_max(Sigma_t).
    """
    mix = as_mixture(initial)
    if mix.n != model.ccr.n:
        raise DimensionMismatch("state and model dimensions differ")
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    a, b = dynamics_matrices(model)
    if t == 0.0:
        sigma = np.zeros_like(a)
        a_inv_exp = np.eye(a.shape[0])
    else:
        _, sigma = _expm_and_gramian(a, b, t)
        a_inv_exp = scipy.linalg.expm(-t * a)
    lam_sigma = float(np.linalg.eigvalsh(sigma)[-1])
    if lam <= lam_sigma:
        raise LambdaTooSmall(
            f"lam = {lam} must exceed lambda_max(Sigma_t) = {lam_sigma:.12g}"
        )
    weight = _initial_weight(a_inv_exp, sigma, lam, a.shape[0])
    return -0.5 * t * float(np.trace(a)) + log_weighted_norm(mix, weight)


def propagated_norm(initial, model: OqhoModel, t: float, lam: float) -> float:
    """Scalar-weighted norm of the time-t MGF; see log_propagated_norm."""
    return float(math.exp(log_propagated_norm(initial, model, t, lam)))


def qem_bound_time(
    initial, model: OqhoModel, mu: float, t: float, basis: SymplecticBasis | None = None
):
    """Time-dependent moment bound, minimized over scalar weights:

        ln Xi_t(mu) <= -nu/2 ln(4 pi) - (t/2) tr A - ln det(mu sinc(mu Theta))/2
                       + inf_lam [ ln |||psi_0|||_{Pi(t,lam)}
                                   - ln det((1/mu) K(mu)^-1 - lam I)/4 ],

    over lam in (lambda_max(Sigma_t), theta_min/tanh(mu theta_min)) further
    restricted so the initial-state norm stays finite.  Returns
    (QemValue, lam_opt).  EmptyInterval is raised when the weight limit
    falls below lambda_max(Sigma_t) (mu too large for the horizon);
    NormDivergent when the interval is nonempty but no weight keeps the
    norm finite.
    """
    mix = as_mixture(initial)
    if mix.n != model.ccr.n:
        raise DimensionMismatch("state and model dimensions differ")
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    if basis is None:
        basis = symplectic_eigenbasis(model.ccr)
    a, b = dynamics_matrices(model)
    n = a.shape[0]
    if t == 0.0:
        e_ta = np.eye(n)
        sigma = np.zeros((n, n))
        a_inv_exp = np.eye(n)
    else:
        e_ta, sigma = _expm_and_gramian(a, b, t)
        a_inv_exp = scipy.linalg.expm(-t * a)

    lam_hi = scalar_weight_limit(basis, mu)
    lam_sigma = float(np.linalg.eigvalsh(sigma)[-1])
    if lam_hi <= lam_sigma:
        raise EmptyInterval(
            f"scalar weight limit {lam_hi:.6g} <= lambda_max(Sigma_t) = "
            f"{lam_sigma:.6g}; mu = {mu} is too large for horizon t = {t}"
        )
    lam_lo = lam_sigma
    for comp in mix.components:
        cov_t = e_ta @ comp.cov @ e_ta.T + sigma
        lam_lo = max(lam_lo, float(np.linalg.eigvalsh(0.5 * (cov_t + cov_t.T))[-1]))
    if lam_hi <= lam_lo:
        raise NormDivergent(
            f"no scalar weight below {lam_hi:.6g} keeps the norm finite "
            f"(needs > {lam_lo:.6g})"
        )
    width = lam_hi - lam_lo
    lo = lam_lo + WINDOW_MARGIN * width
    hi = lam_hi - WINDOW_MARGIN * width
    prefactor = _log_bound_prefactor(basis, mu) - 0.5 * t * float(np.trace(a))

    def objective(lam):
        weight = _initial_weight(a_inv_exp, sigma, lam, n)
        return (
            log_weighted_norm(mix, weight)
            - 0.25 * _scalar_gap_logdet(basis, mu, lam)
        )

    lam_opt, inner = golden_section_minimize(objective, lo, hi)
    value = QemValue(mu=mu, log_qem=prefactor + inner, method=METHOD_BOUND)
    return value, lam_opt
