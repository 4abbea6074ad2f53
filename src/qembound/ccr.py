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


def _readonly(a):
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _require_finite(a, name):
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput(f"{name} has a NaN or infinite entry")


# Scalar helpers, extended by continuity to 1 at zero where applicable.

def sinhc(x):
    """sinh(x)/x, equal to 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    return np.where(x == 0.0, 1.0, np.sinh(np.where(x == 0.0, 1.0, x)) / np.where(x == 0.0, 1.0, x))


def tanhc(x):
    """tanh(x)/x, equal to 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    return np.where(x == 0.0, 1.0, np.tanh(np.where(x == 0.0, 1.0, x)) / np.where(x == 0.0, 1.0, x))


def lncosh(x):
    """ln(cosh(x)) without overflow for large |x|."""
    x = np.abs(np.asarray(x, dtype=float))
    return x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)


def lnsinh(x):
    """ln(sinh(x)) for x > 0, without overflow or (by expm1) cancellation."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
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
    """Eigenfrequencies and real orthonormal-scaled eigenbasis of a CCR matrix.

    Satisfies Theta @ H == H @ kron(diag(gamma), J2) and H.T @ H == I/2,
    with gamma sorted in descending order.  sqrt(2)*H is orthogonal.
    """

    H: np.ndarray
    gamma: np.ndarray
    n: int

    @property
    def n_modes(self):
        return self.gamma.size

    def reconstruct(self):
        """Rebuild the commutation matrix 2*H*(diag(gamma) (x) J2)*H^T."""
        core = np.kron(np.diag(self.gamma), J2)
        return 2.0 * self.H @ core @ self.H.T


def validate_ccr(theta) -> CcrMatrix:
    """Validate a commutation matrix and canonicalize its antisymmetric part.

    The input must be finite, square of even order, antisymmetric within
    1e-12 * max|entry|, and nonsingular (smallest singular value above
    1e-10 times the largest).
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
    asym = float(np.abs(theta + theta.T).max())
    if asym > ANTISYM_RTOL * scale:
        raise NotAntisymmetric(
            f"max |theta + theta^T| = {asym:.3e} exceeds {ANTISYM_RTOL:.0e} * max|entry|"
        )
    theta = 0.5 * (theta - theta.T)
    sv = np.linalg.svd(theta, compute_uv=False)
    if sv[-1] <= SINGULAR_RTOL * sv[0]:
        raise SingularCcr(
            f"singular value ratio {sv[-1] / sv[0]:.3e} below {SINGULAR_RTOL:.0e}"
        )
    return CcrMatrix(theta=_readonly(theta), n=n, n_modes=n // 2)


def symplectic_eigenbasis(ccr: CcrMatrix) -> SymplecticBasis:
    """Compute eigenfrequencies and a deterministic real eigenbasis.

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
    lead = z[np.argmax(np.abs(z) > 1e-12 * np.abs(z).max(axis=0), axis=0), np.arange(n // 2)]
    z = z * (1j * np.abs(lead) / lead)
    # Columns (u_k, v_k) = (Im z_k, Re z_k), interleaved.
    h = np.stack((z.imag, z.real), axis=2).reshape(n, n)
    basis = SymplecticBasis(H=_readonly(h), gamma=_readonly(gamma), n=n)
    _verify_basis(theta, basis, float(np.abs(theta).max()))
    return basis


def _verify_basis(theta, basis, scale):
    tol = BASIS_ATOL * max(1.0, scale)
    h, gamma = basis.H, basis.gamma
    if np.abs(h.T @ h - 0.5 * np.eye(basis.n)).max() > tol:
        raise EigenSolverFailure("basis orthonormality H^T H = I/2 violated")
    core = np.kron(np.diag(gamma), J2)
    if np.abs(theta @ h - h @ core).max() > tol:
        raise EigenSolverFailure("eigenrelation Theta H = H (Gamma (x) J2) violated")
    if np.abs(2.0 * h @ core @ h.T - theta).max() > tol:
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
    "sinc": sinhc,
    "tanc": tanhc,
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
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    return mode_matrix(basis, _FUNCTION_TABLE[f](mu * basis.gamma))


def aux_covariance(basis: SymplecticBasis, mu: float) -> np.ndarray:
    """Covariance tanc(mu*Theta) of the Gaussian averaging vector used by
    the randomized moment estimator.

    Its spectrum is {tanhc(mu*theta_k)}, strictly inside (0, 1), so the
    result is a symmetric positive definite contraction.
    """
    return matrix_function(basis, "tanc", mu)


def log_det_cos(basis: SymplecticBasis, mu: float) -> float:
    """ln det cos(mu*Theta) = 2 * sum_k ln cosh(mu*theta_k), always >= 0.

    Computed from the eigenfrequencies; forming cos(mu*Theta) and taking a
    determinant would overflow for large mu*theta_k.
    """
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    return float(2.0 * np.sum(lncosh(mu * basis.gamma)))
