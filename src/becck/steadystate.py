"""Stationary covariance matrix and Gaussian observables.

The stationary covariance V (V_ij = <du_i du_j + du_j du_i>/2 over the basis
(dX, dY, dQ, dP)) solves the Lyapunov equation A V + V A^T = -D. It is
computed by a direct linear solve on the 10 independent entries of the
symmetric 4x4 matrix; a fixed-step 4th-order moment-ODE integrator provides
an independent time-domain oracle for the same fixed point.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import (DriftDiffusion, InternalConsistencyError,
                       StabilityReport, classify_stability, record_items,
                       record_stack)

RESIDUAL_BOUND = 1e-10      # times ||D||_max
PHYSICALITY_SLACK = 1e-9    # allowed dip of symplectic eigenvalues below 1/2

# (i, j) index pairs of the upper triangle, fixing the unknown ordering
_PAIRS = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3),
          (2, 2), (2, 3), (3, 3)]


class UnstableDriftError(InternalConsistencyError, ValueError):
    """Lyapunov solve refused: the drift matrix is not strictly stable."""


class CovarianceMatrix(NamedTuple):
    V: np.ndarray
    residual: float  # ||A V + V A^T + D||_max


class ObservableSet(NamedTuple):
    E_N: float
    eta_minus: float
    S_Q: float
    S_P: float
    n_incoherent: float
    omega_B: float
    n_c: float


_ROWS, _COLS = np.array(_PAIRS).T
# position in the sym-vector of each entry (i, j) of the 4x4 matrix
_UNVEC = np.empty((4, 4), np.intp)
_UNVEC[_ROWS, _COLS] = _UNVEC[_COLS, _ROWS] = range(10)


def _sym_vec(M: np.ndarray) -> np.ndarray:
    return M[..., _ROWS, _COLS]


def _sym_unvec(v: np.ndarray) -> np.ndarray:
    return v[..., _UNVEC]


# the 16 unit matrices times the ten unit symmetric matrices E_k; table
# entry (4m+n, 10r+k) is the coefficient of A_mn in operator entry (r, k)
_AE = np.eye(16).reshape(16, 1, 4, 4) @ _sym_unvec(np.eye(10))
_LYAPUNOV_TABLE = _sym_vec(_AE + _AE.swapaxes(-1, -2)).swapaxes(-1, -2) \
    .reshape(16, 100)


def _lyapunov_operator(A: np.ndarray) -> np.ndarray:
    """Matrix of V -> A V + V A^T acting on sym-vectorized V (10x10).

    Accepts one drift matrix or a stack (..., 4, 4). Each entry is a sum of
    at most two entries of A, so the table product is exact.
    """
    lead = A.shape[:-2]
    return (A.reshape(lead + (16,)) @ _LYAPUNOV_TABLE).reshape(lead + (10, 10))


def strictly_stable(report) -> np.ndarray:
    """Mask of the stable, non-marginal items of a StabilityReport stack."""
    return report.stable & ~report.marginal


def lyapunov_batch(dd, report) -> CovarianceMatrix:
    """``solve_lyapunov`` of the DriftDiffusion stacks ``dd`` with their
    ``classify_batch`` report in one stacked solve: the CovarianceMatrix
    stacks. A failing item's error carries its position as ``item``."""
    if False in (grade := strictly_stable(report).tolist()):
        i = grade.index(False)
        kind = "marginal" if report.marginal[i] else "unstable"
        raise UnstableDriftError(
            f"drift matrix is {kind} (max_real_part="
            f"{report.max_real_part[i]:.6e} rad/s); no stationary covariance",
            i)
    A, D = dd.A, dd.D
    scale = np.abs(A).max(axis=(1, 2))[:, None, None]
    L = _lyapunov_operator(A / scale)
    rhs = -_sym_vec(D / scale)[..., None]
    v = np.linalg.solve(L, rhs)
    v += np.linalg.solve(L, rhs - L @ v)  # one refinement pass
    V = _sym_unvec(v[..., 0])

    resid = np.abs(A @ V + V @ A.transpose(0, 2, 1) + D).max(axis=(1, 2))
    bound = RESIDUAL_BOUND * np.abs(D).max(axis=(1, 2))
    if False in (passed := (resid <= bound).tolist()):  # NaN fails too
        i = passed.index(False)
        raise InternalConsistencyError(
            f"Lyapunov residual {resid[i]:.3e} exceeds bound {bound[i]:.3e}",
            i)
    return CovarianceMatrix(V, resid)


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
    return record_items(
        lyapunov_batch(record_stack(dd), record_stack(report)))[0]


def integrate_moment_ode(dd: DriftDiffusion, V0: np.ndarray,
                         t_final: float) -> np.ndarray:
    """Integrate dV/dt = A V + V A^T + D with fixed-step classical RK4.

    The step obeys h <= 1e-2/||A||_max. Because the right-hand side is affine
    in V with constant coefficients, one RK4 step is an affine map on the
    sym-vectorized state v, a matrix on (v, 1); its n-th power comes from
    ``np.linalg.matrix_power`` (binary composition), which reproduces the
    literal n-step recursion (associativity) at any step count.
    Deterministic.
    """
    if not (t_final > 0.0) or not np.isfinite(t_final):
        raise ValueError("t_final must be positive and finite")
    scale = float(np.max(np.abs(dd.A)))
    h_max = 1e-2 / scale if scale > 0.0 else t_final
    if not (steps := t_final / h_max) <= 2 ** 62:  # inf where it overflows
        raise OverflowError("step-size underflow: required step count "
                            f"{steps:.3e} is not representable")
    n_steps = max(1, int(math.ceil(steps)))
    h = t_final / n_steps

    hL = h * _lyapunov_operator(dd.A)
    eye = np.eye(10)
    # classical RK4 step for v' = L v + d: v -> (eye + hL S) v + h S d
    S = eye + hL @ (eye / 2.0 + hL @ (eye / 6.0 + hL / 24.0))
    step = np.eye(11)
    step[:10, :10] = eye + hL @ S
    step[:10, 10] = h * S @ _sym_vec(dd.D)
    v = np.linalg.matrix_power(step, n_steps) @ np.append(
        _sym_vec(np.asarray(V0, dtype=float)), 1.0)
    return _sym_unvec(v[:10])


# i times the two-mode symplectic form
_I_OMEGA = 1j * np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def symplectic_eigenvalues(V: np.ndarray) -> np.ndarray:
    """Both symplectic eigenvalues of a two-mode covariance matrix.

    Computed as the absolute values of the (pairwise) eigenvalues of
    i*Omega*V with the standard two-mode symplectic form Omega. A stack
    (..., 4, 4) gives (..., 2).
    """
    ev = np.linalg.eigvals(_I_OMEGA @ V)
    # spectrum is {+nu1, -nu1, +nu2, -nu2}
    nu = np.sort(np.abs(ev.real), axis=-1)
    return 0.5 * np.stack([nu[..., 0] + nu[..., 1], nu[..., 2] + nu[..., 3]],
                          axis=-1)


def _positive_definite(M: np.ndarray) -> bool:
    """True when every matrix of the stack M has a finite Cholesky factor."""
    try:
        return bool(np.isfinite(np.linalg.cholesky(M)).all())
    except np.linalg.LinAlgError:
        return False


def _require_physical(V: np.ndarray) -> None:
    """Raise InternalConsistencyError at the first covariance of V (one or a
    stack; its position is the error's ``item``) that is not finite or has a
    symplectic eigenvalue at or below 1/2 - PHYSICALITY_SLACK.

    All exceed 1/2 - slack exactly when V + i(1/2 - slack)Omega is positive
    definite (Simon, Mukunda & Dutta, PRA 49, 1567 (1994)): one stacked
    Cholesky factorization decides a batch, and only a failing batch is
    factorized again item by item.
    """
    V = np.reshape(V, (-1, 4, 4))
    M = V + (0.5 - PHYSICALITY_SLACK) * _I_OMEGA
    if _positive_definite(M):
        return
    for i, Mi in enumerate(M):
        if not _positive_definite(Mi):
            nus = (symplectic_eigenvalues(V[i]) if np.isfinite(V[i]).all()
                   else "undefined (covariance not finite)")
            raise InternalConsistencyError(
                "covariance violates the uncertainty relation: "
                f"symplectic eigenvalues {nus}", i)


def logarithmic_negativity(V: np.ndarray) -> tuple:
    """(E_N, eta_minus) from the 2x2 block determinants of V.

    Sigma = det V_oo + det V_aa - 2 det V_oa, and eta_minus is the lowest
    symplectic eigenvalue of the partial transpose,
    eta_minus = 2^{-1/2} * sqrt(Sigma - sqrt(Sigma^2 - 4 det V)).
    E_N = max(0, -ln(2*eta_minus)). A stack (..., 4, 4) gives arrays, and
    an error the flat position of its failing item as ``item``.
    """
    # blocks[..., a, b] = det of the 2x2 block (a, b), mode 0 the cavity
    blocks = np.linalg.det(
        V.reshape(V.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -2))
    sigma = blocks[..., 0, 0] + blocks[..., 1, 1] - 2.0 * blocks[..., 0, 1]
    disc = sigma * sigma - 4.0 * np.linalg.det(V)
    if True in (bad := (disc < -1e-12).ravel().tolist()):
        i = bad.index(True)
        raise InternalConsistencyError(
            f"negative discriminant {np.ravel(disc)[i]:.3e} in "
            "symplectic spectrum", i)
    inner = sigma - np.sqrt(np.maximum(disc, 0.0))
    if True in (bad := (inner <= 0.0).ravel().tolist()):
        i = bad.index(True)
        raise InternalConsistencyError(
            "nonpositive partial-transpose eigenvalue "
            f"(inner={np.ravel(inner)[i]:.3e})", i)
    eta_minus = np.sqrt(inner) / math.sqrt(2.0)
    return np.maximum(0.0, -np.log(2.0 * eta_minus)), eta_minus


def squeezing_and_excitation(V: np.ndarray) -> tuple[float, float]:
    """(S_Q, n_incoherent) with S_Q = 2 V_33 - 1, n_inc = (V_33 + V_44 - 1)/2.

    Indices are 1-based on the (dX, dY, dQ, dP) ordering, so V_33 is the dQ
    variance. Squeezing of dQ is declared when S_Q < 0. Elementwise on a
    stack of covariance matrices.
    """
    s_q = 2.0 * V[..., 2, 2] - 1.0
    n_inc = 0.5 * (V[..., 2, 2] + V[..., 3, 3] - 1.0)
    return s_q, n_inc


def observables_batch(dd, cov) -> ObservableSet:
    """``observable_set`` of the DriftDiffusion and CovarianceMatrix stacks
    ``dd`` and ``cov`` at once; a failing item's position is the ``item``
    of the error."""
    V = cov.V
    _require_physical(V)
    e_n, eta_minus = logarithmic_negativity(V)
    s_q, n_inc = squeezing_and_excitation(V)
    return ObservableSet(e_n, eta_minus, s_q, 2.0 * V[:, 3, 3] - 1.0, n_inc,
                         dd.omega_B, dd.n_c)


def observable_set(dd: DriftDiffusion, cov: CovarianceMatrix) -> ObservableSet:
    """All Gaussian observables for one stable branch."""
    return record_items(
        observables_batch(record_stack(dd), record_stack(cov)))[0]
