"""Open quantum harmonic oscillators: linear dynamics from energy and
coupling data, controllability Gramians, MGF propagation, and
time-dependent moment bounds.

The dynamics dX = A X dt + B dW with vacuum input fields has
A = 2*Theta*(R + N^T J N) and B = 2*Theta*N^T.  The MGF then evolves by
psi_t(u) = psi_0(e^{tA^T} u) * exp(||u||^2_{Sigma_t}/2) with the
finite-horizon controllability Gramian Sigma_t, so Gaussian mixtures stay
Gaussian mixtures and every norm and bound of the initial state transports
to time t in closed form.

The time-t moment bound is the static scalar-weight bound on the
propagated mixture: Pi(t, lam) - (C_i + C_j)/2 is congruent under e^{-tA}
to lam I - (C_i(t) + C_j(t))/2, so the initial-state norm at Pi(t, lam)
carries a -2t tr A log-det shift that cancels the -(t/2) tr A prefactor.
It is therefore computed by qem.ScalarBoundEngine on propagate_mgf's
state, and the static bound is its t = 0 case.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ccr import (CcrMatrix, SymplecticBasis, _diag_kron_j2, _readonly, _require_finite,
                  _require_positive, _same_ccr, _symmetric, symplectic_eigenbasis)
from .errors import (
    DimensionMismatch,
    ExpmFailure,
    InternalAdmissibilityViolation,
    NotAdmissible,
    NotHurwitz,
)
from .qem import ScalarBoundEngine
from .states import MixtureMgf, _gaussian_states, as_mixture

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
        _require_finite(r, "energy matrix")
        _require_finite(nc, "coupling matrix")
        r = _symmetric(r, DimensionMismatch, "energy matrix must be symmetric")
        object.__setattr__(self, "R", _readonly(r))
        object.__setattr__(self, "N", _readonly(nc))

    @property
    def m(self):
        return self.N.shape[0]

    @property
    def J(self):
        """Field commutation matrix I_{m/2} (x) J2."""
        return _diag_kron_j2(np.ones(self.m // 2))


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

    exp(s * [[-A, BB^T], [0, A^T]]) has upper-left block e^{-sA},
    upper-right block e^{-sA} * Sigma_s and lower-right block e^{sA^T}.
    Recovering Sigma_s = e^{sA} (e^{-sA} Sigma_s) cancels catastrophically
    once e^{-sA} grows, so a degree-18 Taylor series is taken at s = t / 2^k
    with s ||A||_1 <= 1 and the horizon is doubled k times:
    Sigma_2s = Sigma_s + e^{sA} Sigma_s e^{sA^T}, with e^{2sA} squared.
    The block is block-triangular, so its diagonal blocks keep a remainder
    below e/19! ~ 2e-17 and the off-diagonal one, relative to Sigma_s, one
    set by ||sA|| alone; BB^T needs no scaling.  Raises ExpmFailure when
    t ||A||_1 or the result is not finite.
    """
    t_norm = t * float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(t_norm):
        raise ExpmFailure(f"t * ||A||_1 = {t_norm} is not finite at t = {t}")
    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -a
    block[:n, n:] = b @ b.T
    block[n:, n:] = a.T
    k = math.ceil(math.log2(max(1.0, t_norm)))
    scaled = block * math.ldexp(t, -k)
    # The first Horner step, eye + (scaled @ eye)/18, is eye + scaled/18 bit
    # for bit: the product with eye adds only zeros to each entry.
    eye = np.eye(2 * n)
    big = eye + scaled / 18
    for j in range(17, 0, -1):
        big = eye + (scaled @ big) / j
    e_ta = big[n:, n:].T
    sigma = e_ta @ big[:n, n:]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k):
            sigma = sigma + e_ta @ sigma @ e_ta.T
            e_ta = e_ta @ e_ta
    if not (np.all(np.isfinite(e_ta)) and np.all(np.isfinite(sigma))):
        raise ExpmFailure("matrix exponential produced non-finite entries")
    return e_ta, 0.5 * (sigma + sigma.T)


def gramian_finite(a, b, t: float) -> GramianResult:
    """Finite-horizon Gramian Sigma_t = int_0^t e^{sA} BB^T e^{sA^T} ds."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if t < 0.0:
        raise ValueError("horizon must be nonnegative")
    _, sigma = _expm_and_gramian(a, b, t)
    floor = PSD_FLOOR * max(1.0, float(np.abs(sigma).max()))
    if float(np.linalg.eigvalsh(sigma)[0]) < floor:
        raise ExpmFailure("computed Gramian is not positive semidefinite")
    return GramianResult(sigma=_readonly(sigma), horizon=float(t))


def gramian_infinite(a, b) -> GramianResult:
    """Infinite-horizon Gramian, the solution of A S + S A^T + BB^T = 0, for
    A Hurwitz (max real part of eigenvalues below -1e-10): Sigma_s at
    s = 1/max(1, ||A||_1), horizon doubled as in _expm_and_gramian until a
    step adds at most 1e-17 max|Sigma| (at most 200 times), then checked
    against the equation to a relative residual of 1e-9."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    spectrum = np.linalg.eigvals(a)
    if float(spectrum.real.max()) >= HURWITZ_MARGIN:
        raise NotHurwitz(
            f"max real part of eigenvalues is {spectrum.real.max():.3e}; "
            "infinite-horizon Gramian needs a strictly stable drift"
        )
    e_sa, sigma = _expm_and_gramian(a, b, 1.0 / max(1.0, float(np.abs(a).sum(axis=0).max())))
    for _ in range(200):
        step = e_sa @ sigma @ e_sa.T
        sigma = sigma + step
        if np.abs(step).max() <= 1e-17 * np.abs(sigma).max():
            break
        e_sa = e_sa @ e_sa
    sigma = 0.5 * (sigma + sigma.T)
    noise = b @ b.T
    residual = np.linalg.norm(a @ sigma + sigma @ a.T + noise)
    if not residual <= LYAPUNOV_RESIDUAL_RTOL * max(1.0, np.linalg.norm(noise)):
        raise ExpmFailure(f"Lyapunov residual {residual:.3e} too large")
    return GramianResult(sigma=_readonly(sigma), horizon=math.inf, hurwitz=True)


def propagate_mgf(initial, model: OqhoModel, t: float) -> MixtureMgf:
    """State at time t: each component (M, C) maps to
    (e^{tA} M, e^{tA} C e^{tA^T} + Sigma_t); weights are unchanged.

    Output components are re-validated against the commutation matrix,
    all at once (states._gaussian_states; their covariances are symmetrized
    exactly, so GaussianState's symmetry test cannot fail on them); failure
    there signals a numerical fault, not a user error.
    """
    mix = as_mixture(initial)
    if not _same_ccr(mix.ccr, model.ccr):
        raise DimensionMismatch("state and model do not come from one CCR matrix")
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    if t == 0.0:
        return mix
    a, b = dynamics_matrices(model)
    e_ta, sigma = _expm_and_gramian(a, b, t)
    means = np.array([e_ta @ comp.mean for comp in mix.components])
    covs = e_ta @ np.array([comp.cov for comp in mix.components]) @ e_ta.T + sigma
    try:
        comps = _gaussian_states(means, 0.5 * (covs + covs.swapaxes(1, 2)), model.ccr)
    except NotAdmissible as exc:
        raise InternalAdmissibilityViolation(
            f"propagated covariance violates admissibility at t = {t}: {exc}"
        ) from exc
    return MixtureMgf(weights=mix.weights, components=comps)


def qem_bound_time(
    initial, model: OqhoModel, mu: float, t: float, basis: SymplecticBasis | None = None
):
    """Time-dependent moment bound, minimized over scalar weights:

        ln Xi_t(mu) <= -nu/2 ln(4 pi) - (t/2) tr A - ln det(mu sinc(mu Theta))/2
                       + inf_lam [ ln |||psi_0|||_{Pi(t,lam)}
                                   - ln det((1/mu) K(mu)^-1 - lam I)/4 ],

    over lam in (lambda_max(Sigma_t), theta_min/tanh(mu theta_min)) further
    restricted so the initial-state norm stays finite.  By the congruence
    in the module docstring this is the static bound on
    propagate_mgf(initial, model, t), and it is evaluated that way, by
    ScalarBoundEngine; at t = 0 it is the static bound itself.  Each
    propagated covariance is e^{tA} C e^{tA^T} + Sigma_t with C > 0, so its
    top eigenvalue exceeds lambda_max(Sigma_t) and the window is the static
    one, (max_i lambda_max(C_i(t)), theta_min/tanh(mu theta_min)).  Returns
    (QemValue, lam_opt); raises EmptyFeasibleWindow when that window is
    empty (mu too large for the horizon), as the static bound does.
    """
    _require_positive(mu, "mu")
    if basis is None:
        basis = symplectic_eigenbasis(model.ccr)
    return ScalarBoundEngine(propagate_mgf(initial, model, t), basis).bound(mu)
