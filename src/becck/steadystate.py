"""Stationary covariance matrix and Gaussian observables.

The stationary covariance V (V_ij = <du_i du_j + du_j du_i>/2 over the basis
(dX, dY, dQ, dP)) solves the Lyapunov equation A V + V A^T = -D. It is
computed by a direct linear solve on the 10 independent entries of the
symmetric 4x4 matrix; a fixed-step 4th-order moment-ODE integrator provides
an independent time-domain oracle for the same fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import (DriftDiffusion, InternalConsistencyError,
                       StabilityReport, classify_stability)

RESIDUAL_BOUND = 1e-10      # times ||D||_max
PHYSICALITY_SLACK = 1e-9    # allowed dip of symplectic eigenvalues below 1/2

# (i, j) index pairs of the upper triangle, fixing the unknown ordering
_PAIRS = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3),
          (2, 2), (2, 3), (3, 3)]


class UnstableDriftError(ValueError):
    """Lyapunov solve refused: the drift matrix is not strictly stable."""


@dataclass(frozen=True)
class CovarianceMatrix:
    V: np.ndarray
    residual: float  # ||A V + V A^T + D||_max


@dataclass(frozen=True)
class ObservableSet:
    E_N: float
    eta_minus: float
    S_Q: float
    S_P: float
    n_incoherent: float
    omega_B: float
    n_c: float


def _sym_vec(M: np.ndarray) -> np.ndarray:
    return np.array([M[i, j] for i, j in _PAIRS])


def _sym_unvec(v: np.ndarray) -> np.ndarray:
    M = np.empty((4, 4))
    for val, (i, j) in zip(v, _PAIRS):
        M[i, j] = val
        M[j, i] = val
    return M


def _lyapunov_operator(A: np.ndarray) -> np.ndarray:
    """Matrix of V -> A V + V A^T acting on sym-vectorized V (10x10)."""
    L = np.empty((10, 10))
    for col, (i, j) in enumerate(_PAIRS):
        E = np.zeros((4, 4))
        E[i, j] = 1.0
        E[j, i] = 1.0
        L[:, col] = _sym_vec(A @ E + E @ A.T)
    return L


def solve_lyapunov(dd: DriftDiffusion,
                   report: Optional[StabilityReport] = None) -> CovarianceMatrix:
    """Unique symmetric solution of A V + V A^T = -D for a stable drift.

    Refuses unstable or marginal drift matrices, judged by ``report`` (the
    caller's ``classify_stability(dd)``) or, when it is None, by classifying
    ``dd`` here. The system is scaled by ||A||_max before solving and one
    iterative-refinement pass is applied, keeping the residual well under
    1e-10*||D||_max.
    """
    if report is None:
        report = classify_stability(dd)
    if not report.stable or report.marginal:
        kind = "marginal" if report.marginal else "unstable"
        raise UnstableDriftError(
            f"drift matrix is {kind} (max_real_part="
            f"{report.max_real_part:.6e} rad/s); no stationary covariance")

    scale = float(np.max(np.abs(dd.A)))
    An = dd.A / scale
    Dn = dd.D / scale
    L = _lyapunov_operator(An)
    rhs = -_sym_vec(Dn)
    v = np.linalg.solve(L, rhs)
    v += np.linalg.solve(L, rhs - L @ v)  # one refinement pass
    V = _sym_unvec(v)

    resid = float(np.max(np.abs(dd.A @ V + V @ dd.A.T + dd.D)))
    bound = RESIDUAL_BOUND * float(np.max(np.abs(dd.D)))
    if resid > bound:
        raise InternalConsistencyError(
            f"Lyapunov residual {resid:.3e} exceeds bound {bound:.3e}")
    return CovarianceMatrix(V=V, residual=resid)


def integrate_moment_ode(dd: DriftDiffusion, V0: np.ndarray,
                         t_final: float) -> np.ndarray:
    """Integrate dV/dt = A V + V A^T + D with fixed-step classical RK4.

    The step obeys h <= 1e-2/||A||_max. Because the right-hand side is affine
    in V with constant coefficients, one RK4 step is an affine map on the
    sym-vectorized state; the map is applied n times by exact binary
    composition, which reproduces the literal n-step recursion (associativity)
    at any step count. Deterministic.
    """
    if not (t_final > 0.0) or not np.isfinite(t_final):
        raise ValueError("t_final must be positive and finite")
    scale = float(np.max(np.abs(dd.A)))
    h_max = 1e-2 / scale if scale > 0.0 else t_final
    n_steps = max(1, int(math.ceil(t_final / h_max)))
    if n_steps > 2 ** 62:
        raise OverflowError("step-size underflow: required step count "
                            f"{t_final / h_max:.3e} is not representable")
    h = t_final / n_steps

    L = _lyapunov_operator(dd.A)
    d_vec = _sym_vec(dd.D)
    hL = h * L
    eye = np.eye(10)
    # classical RK4 propagator for v' = L v + d over one step
    P = eye + hL @ (eye + hL @ (eye / 2.0 + hL @ (eye / 6.0 + hL / 24.0)))
    q = h * (eye + hL @ (eye / 2.0 + hL @ (eye / 6.0 + hL / 24.0))) @ d_vec

    # affine map power by binary doubling
    acc_P, acc_q = eye, np.zeros(10)
    base_P, base_q = P, q
    k = n_steps
    while k:
        if k & 1:
            acc_q = base_P @ acc_q + base_q
            acc_P = base_P @ acc_P
        k >>= 1
        if k:
            base_q = base_P @ base_q + base_q
            base_P = base_P @ base_P
    v = acc_P @ _sym_vec(np.asarray(V0, dtype=float)) + acc_q
    return _sym_unvec(v)


def _rk4_literal(dd: DriftDiffusion, V0: np.ndarray, t_final: float,
                 n_steps: int) -> np.ndarray:
    """Plain step-by-step RK4 on the 4x4 matrix ODE (test reference)."""
    A, D = dd.A, dd.D
    V = np.array(V0, dtype=float)
    h = t_final / n_steps

    def f(M):
        return A @ M + M @ A.T + D

    for _ in range(n_steps):
        k1 = f(V)
        k2 = f(V + 0.5 * h * k1)
        k3 = f(V + 0.5 * h * k2)
        k4 = f(V + h * k3)
        V = V + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return V


def symplectic_eigenvalues(V: np.ndarray) -> np.ndarray:
    """Both symplectic eigenvalues of a two-mode covariance matrix.

    Computed as the absolute values of the (pairwise) eigenvalues of
    i*Omega*V with the standard two-mode symplectic form Omega.
    """
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    Omega = np.block([[J, np.zeros((2, 2))], [np.zeros((2, 2)), J]])
    ev = np.linalg.eigvals(1j * Omega @ V)
    nu = np.sort(np.abs(ev.real))  # spectrum is {+nu1, -nu1, +nu2, -nu2}
    return np.array([0.5 * (nu[0] + nu[1]), 0.5 * (nu[2] + nu[3])])


def check_physical(V: np.ndarray) -> np.ndarray:
    """Validate the uncertainty relation; returns the symplectic eigenvalues."""
    nus = symplectic_eigenvalues(V)
    if np.any(nus < 0.5 - PHYSICALITY_SLACK):
        raise InternalConsistencyError(
            f"covariance violates the uncertainty relation: "
            f"symplectic eigenvalues {nus}")
    return nus


def logarithmic_negativity(V: np.ndarray) -> tuple[float, float]:
    """(E_N, eta_minus) from the 2x2 block determinants of V.

    Sigma = det V_oo + det V_aa - 2 det V_oa, and eta_minus is the lowest
    symplectic eigenvalue of the partial transpose,
    eta_minus = 2^{-1/2} * sqrt(Sigma - sqrt(Sigma^2 - 4 det V)).
    E_N = max(0, -ln(2*eta_minus)).
    """
    Voo = V[:2, :2]
    Vaa = V[2:, 2:]
    Voa = V[:2, 2:]
    sigma = (np.linalg.det(Voo) + np.linalg.det(Vaa)
             - 2.0 * np.linalg.det(Voa))
    detV = np.linalg.det(V)
    disc = sigma * sigma - 4.0 * detV
    if disc < -1e-12:
        raise InternalConsistencyError(
            f"negative discriminant {disc:.3e} in symplectic spectrum")
    disc = max(disc, 0.0)
    inner = sigma - math.sqrt(disc)
    if inner <= 0.0:
        raise InternalConsistencyError(
            f"nonpositive partial-transpose eigenvalue (inner={inner:.3e})")
    eta_minus = math.sqrt(inner) / math.sqrt(2.0)
    e_n = max(0.0, -math.log(2.0 * eta_minus))
    return e_n, eta_minus


def squeezing_and_excitation(V: np.ndarray) -> tuple[float, float]:
    """(S_Q, n_incoherent) with S_Q = 2 V_33 - 1, n_inc = (V_33 + V_44 - 1)/2.

    Indices are 1-based on the (dX, dY, dQ, dP) ordering, so V_33 is the dQ
    variance. Squeezing of dQ is declared when S_Q < 0.
    """
    s_q = 2.0 * V[2, 2] - 1.0
    n_inc = 0.5 * (V[2, 2] + V[3, 3] - 1.0)
    return s_q, n_inc


def observable_set(dd: DriftDiffusion, cov: CovarianceMatrix) -> ObservableSet:
    """All Gaussian observables for one stable branch."""
    check_physical(cov.V)
    e_n, eta_minus = logarithmic_negativity(cov.V)
    s_q, n_inc = squeezing_and_excitation(cov.V)
    s_p = 2.0 * cov.V[3, 3] - 1.0
    return ObservableSet(E_N=e_n, eta_minus=eta_minus, S_Q=s_q, S_P=s_p,
                         n_incoherent=n_inc, omega_B=dd.omega_B, n_c=dd.n_c)
