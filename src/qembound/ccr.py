"""Canonical commutation structure: validation, symplectic eigenstructure,
and symmetric analytic functions of antisymmetric matrices.

A commutation matrix Theta is real, antisymmetric and nonsingular, so its
spectrum is {+-i*theta_k} with eigenfrequencies theta_k > 0.  Every symmetric
analytic function f satisfies f(mu*Theta) = 2*H*(f(i*mu*Gamma) (x) I_2)*H^T
for the orthonormal-scaled eigenbasis H computed here, which reduces all
matrix functions to scalar evaluations at the eigenfrequencies.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenSolverFailure,
    NonFiniteInput,
    NotAntisymmetric,
    OddDimension,
    SingularCcr,
    UnsupportedFunction,
)

#: 2x2 skew-symmetric unit; building block of all commutation matrices.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
J2.setflags(write=False)

ANTISYM_RTOL = 1e-12
SINGULAR_RTOL = 1e-10
BASIS_ATOL = 1e-10
#: Largest |a - a^T| accepted by _symmetric, relative to max(1, max|a|).
SYMMETRY_RTOL = 1e-12
#: Least positive normal double.
TINY = np.finfo(float).tiny


def _readonly(a):
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


# Input rules shared by every module that takes matrices or parameters
# (classical.py keeps its own, independent of the quantum modules).

def _require_finite(a, name):
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput(f"{name} has a NaN or infinite entry")


def _require_positive(value, name):
    if not value > 0.0:
        raise ValueError(f"{name} must be positive")


def _doubled_text(x: float) -> str:
    """format(2 x, ".3e") for a positive double x, also where 2 x is past
    the double range (the product is exact at 800 digits).  Only error
    messages call it, so decimal is imported here, not with the package."""
    from decimal import Context, Decimal

    mantissa, exponent = format(Context(prec=800).multiply(Decimal(x), 2), ".3e").split("e")
    return f"{mantissa}e{int(exponent):+03d}"


def _symmetric(a, error, message):
    """The symmetric part of a, as 0.5 a + 0.5 a^T; raises error(message)
    when |a - a^T| exceeds SYMMETRY_RTOL * max(1, max|a|).  Neither the
    part nor the check (|0.5 a - 0.5 a^T| against half the tolerance)
    overflows, and halving is exact in the normal range."""
    half = 0.5 * a
    if float(np.abs(half - half.T).max()) > 0.5 * SYMMETRY_RTOL * max(1.0, float(np.abs(a).max())):
        raise error(message)
    return half + half.T


def _cholesky(a, error, message):
    """(lower Cholesky factor, ln det) of the symmetric part of a (as in
    _symmetric); raises error(message) when it is not positive definite."""
    try:
        chol = np.linalg.cholesky(0.5 * a + 0.5 * a.T)
    except np.linalg.LinAlgError as exc:
        raise error(message) from exc
    return chol, 2.0 * float(np.sum(np.log(np.diag(chol))))


def _same_ccr(a, b):
    """Whether two CcrMatrix values hold the same commutation matrix."""
    return a is b or np.array_equal(a.theta, b.theta)


# Scalar helpers.

def _over_x(f, x):
    """f(x)/x for f = sinh or tanh, read as its limit 1 below TINY (mu*theta at subnormal mu)."""
    x = np.maximum(x, TINY)
    return f(x) / x


def lncosh(x):
    """ln(cosh(x)) without overflow for large |x|."""
    x = np.abs(np.asarray(x, dtype=float))
    return x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)


def lnsinh(x):
    """ln(sinh(x)) for x > 0, without overflow or (by expm1) cancellation."""
    x = np.asarray(x, dtype=float)
    if (x <= 0.0).any():
        raise ValueError("lnsinh requires x > 0")
    return x + np.log(-np.expm1(-2.0 * x)) - math.log(2.0)


@dataclass(frozen=True)
class CcrMatrix:
    """Validated antisymmetric nonsingular commutation matrix."""

    theta: np.ndarray
    n: int
    n_modes: int


@dataclass(frozen=True)
class SymplecticBasis:
    """Eigenfrequencies and real orthonormal-scaled eigenbasis of the CCR matrix ccr.

    Satisfies Theta @ H == H @ kron(diag(gamma), J2) and H.T @ H == I/2,
    with gamma sorted in descending order.  sqrt(2)*H is orthogonal.
    """

    H: np.ndarray
    gamma: np.ndarray
    ccr: CcrMatrix

    @property
    def n(self):
        return self.ccr.n

    @property
    def n_modes(self):
        return self.gamma.size


def _diag_kron_j2(values) -> np.ndarray:
    """diag(values) (x) J2, built by slicing: bit for bit np.kron(np.diag(values), J2),
    whose off-diagonal blocks 0 * J2 hold a -0.0, at a fraction of its cost."""
    values = np.asarray(values, dtype=float)
    m = values.size
    out = np.zeros((m, 2, m, 2))
    out[:, 1, :, 0] = -0.0
    k = np.arange(m)
    out[k, :, k, :] = values[:, None, None] * J2
    return out.reshape(2 * m, 2 * m)


def validate_ccr(theta) -> CcrMatrix:
    """Validate a commutation matrix and canonicalize its antisymmetric part.

    The input must be finite, square of even order, antisymmetric within
    1e-12 * max|entry|, and nonsingular (smallest singular value above
    1e-10 times the largest).  The antisymmetric part is formed as
    0.5 theta - 0.5 theta^T, and the check reads |0.5 theta + 0.5 theta^T|
    against half the tolerance, so neither overflows for entries near the
    double range (halving is exact in the normal range).
    """
    theta = np.asarray(theta, dtype=float)
    _require_finite(theta, "commutation matrix")
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {theta.shape}")
    n = theta.shape[0]
    if n == 0 or n % 2:
        raise OddDimension(f"commutation matrix must have even positive order, got {n}")
    scale = float(np.abs(theta).max())
    if scale == 0.0:
        raise SingularCcr("zero matrix")
    half = 0.5 * theta
    half_asym = float(np.abs(half + half.T).max())
    if half_asym > 0.5 * ANTISYM_RTOL * scale:
        raise NotAntisymmetric(
            f"max |theta + theta^T| = {_doubled_text(half_asym)} "
            f"exceeds {ANTISYM_RTOL:.0e} * max|entry|"
        )
    theta = half - half.T
    sv = np.linalg.svd(theta, compute_uv=False)
    if sv[-1] <= SINGULAR_RTOL * sv[0]:
        raise SingularCcr(
            f"singular value ratio {sv[-1] / sv[0]:.3e} below {SINGULAR_RTOL:.0e}"
        )
    return CcrMatrix(theta=_readonly(theta), n=n, n_modes=n // 2)


def symplectic_eigenbasis(ccr: CcrMatrix) -> SymplecticBasis:
    """Compute eigenfrequencies and a deterministic real eigenbasis.

    A Theta equal to diag(theta) (x) J2 with every theta_k finite and
    positive (every frequency-list ccr, and any such block-diagonal literal)
    has its basis in closed form: gamma is theta sorted in descending order,
    stably on ties, and H the permutation to that order scaled by
    1/sqrt(2), which is the basis _eigh_basis gives for distinct
    frequencies.  Any other Theta takes _eigh_basis.  Either basis is
    verified (orthonormality, eigenrelation and reconstruction).
    """
    theta = ccr.theta
    n = ccr.n
    # Plain lists: on a scenario's small Theta they cost less than the
    # numpy calls they replace.
    rows = theta.tolist()
    freqs = [rows[k][k + 1] for k in range(0, n, 2)]
    block = [[0.0] * n for _ in range(n)]
    for k, f in zip(range(0, n, 2), freqs):
        block[k][k + 1], block[k + 1][k] = f, -f
    if 0.0 < min(freqs) and max(freqs) < math.inf and rows == block:
        order = sorted(range(n // 2), key=freqs.__getitem__, reverse=True)  # stable
        h = [[0.0] * n for _ in range(n)]
        for j, k in enumerate(order):
            # eigh's normalisation; math.sqrt(0.5) is one ulp above it.
            h[2 * k][2 * j] = h[2 * k + 1][2 * j + 1] = 1.0 / math.sqrt(2.0)
        basis = SymplecticBasis(H=_readonly(h), gamma=_readonly([freqs[k] for k in order]),
                                ccr=ccr)
    else:
        basis = _eigh_basis(ccr)
    _verify_basis(theta, basis, float(np.abs(theta).max()))
    return basis


def _eigh_basis(ccr: CcrMatrix) -> SymplecticBasis:
    """The basis of any Theta from one Hermitian eigensolve, unverified.

    The Hermitian i*Theta has eigenvalues +-theta_k; the n/2 largest, in
    descending order, have unit eigenvectors z = x + i*y whose parts (u_k,
    v_k) = (y, x) have norm 1/sqrt(2), satisfy Theta u_k = -theta_k v_k,
    Theta v_k = theta_k u_k, and stay orthogonal within degenerate
    eigenspaces.  Each phase is fixed by making the first entry of z above
    1e-12 * max|z| read i*|z_j|, so that entry of u_k is positive.
    """
    theta = ccr.theta
    n = ccr.n
    try:
        w, z = np.linalg.eigh(1j * theta)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverFailure(f"Hermitian eigensolver failed: {exc}") from exc
    gamma = w[::-1][: n // 2]
    z = z[:, ::-1][:, : n // 2]
    size = np.abs(z)
    lead = z[(size > 1e-12 * size.max(axis=0)).argmax(axis=0), np.arange(n // 2)]
    z = z * (1j * np.abs(lead) / lead)
    # Columns (u_k, v_k) = (Im z_k, Re z_k), interleaved.
    h = np.empty((n, n))
    h[:, 0::2], h[:, 1::2] = z.imag, z.real
    h.setflags(write=False)
    return SymplecticBasis(H=h, gamma=_readonly(gamma), ccr=ccr)


def _verify_basis(theta, basis, scale):
    """Raise EigenSolverFailure unless every check's error is at most
    BASIS_ATOL * max(1, scale); one that is not finite (a NaN basis) fails."""
    tol = BASIS_ATOL * max(1.0, scale)
    h, gamma = basis.H, basis.gamma
    if not np.abs(h.T @ h - 0.5 * np.eye(basis.n)).max() <= tol:
        raise EigenSolverFailure("basis orthonormality H^T H = I/2 violated")
    # H (Gamma (x) J2) has the columns (-gamma_k v_k, gamma_k u_k) for H's (u_k, v_k).
    h_core = np.empty_like(h)
    h_core[:, 0::2] = -gamma * h[:, 1::2]
    h_core[:, 1::2] = gamma * h[:, 0::2]
    if not np.abs(theta @ h - h_core).max() <= tol:
        raise EigenSolverFailure("eigenrelation Theta H = H (Gamma (x) J2) violated")
    # Doubled after the product, which then overflows only where Theta does.
    if not np.abs(2.0 * (h_core @ h.T) - theta).max() <= tol:
        raise EigenSolverFailure("reconstruction 2 H (Gamma (x) J2) H^T = Theta violated")


def mode_matrix(basis: SymplecticBasis, values) -> np.ndarray:
    """Assemble the symmetric matrix 2*H*(diag(values) (x) I_2)*H^T.

    `values` holds one scalar per mode; the result has each value as a
    doubly degenerate eigenvalue.  This is the common backend for every
    symmetric function of the commutation matrix.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (basis.n_modes,):
        raise DimensionMismatch(
            f"expected {basis.n_modes} mode values, got shape {values.shape}"
        )
    d = np.repeat(values, 2)
    out = 2.0 * (basis.H * d) @ basis.H.T
    return 0.5 * (out + out.T)


# Named symmetric scalar functions.  Evaluation of f at the matrix mu*Theta
# reduces to f(i*mu*theta_k) at the eigenfrequencies, so each trigonometric
# name maps to its hyperbolic counterpart.
_FUNCTION_TABLE = {
    "cos": np.cosh,
    "sinc": lambda x: _over_x(np.sinh, x),
    "tanc": lambda x: _over_x(np.tanh, x),
    "one": lambda x: np.ones_like(np.asarray(x, dtype=float)),
}


def matrix_function(basis: SymplecticBasis, f: str, mu: float) -> np.ndarray:
    """Evaluate a named symmetric function at mu * Theta.

    Supported names: cos, sinc, tanc and the constant "one"; they are
    evaluated as cosh, sinh(x)/x and tanh(x)/x at mu * theta_k.  The result
    is a real symmetric n x n matrix.
    """
    if f not in _FUNCTION_TABLE:
        raise UnsupportedFunction(
            f"unsupported function {f!r}; expected one of {sorted(_FUNCTION_TABLE)}"
        )
    _require_positive(mu, "mu")
    return mode_matrix(basis, _FUNCTION_TABLE[f](mu * basis.gamma))


def aux_covariance(basis: SymplecticBasis, mu: float) -> np.ndarray:
    """Covariance tanc(mu*Theta) of the Gaussian averaging vector used by
    the randomized moment estimator.

    Its spectrum is {tanh(mu*theta_k)/(mu*theta_k)}, strictly inside (0, 1), so the
    result is a symmetric positive definite contraction.
    """
    return matrix_function(basis, "tanc", mu)


def log_det_cos(basis: SymplecticBasis, mu: float) -> float:
    """ln det cos(mu*Theta) = 2 * sum_k ln cosh(mu*theta_k), always >= 0.

    Computed from the eigenfrequencies; forming cos(mu*Theta) and taking a
    determinant would overflow for large mu*theta_k.
    """
    _require_positive(mu, "mu")
    return float(2.0 * np.sum(lncosh(mu * basis.gamma)))
