"""Linearized fluctuation dynamics: drift matrix, diffusion matrix, stability.

Quadratures use the 1/sqrt(2) convention, X = (a + a*)/sqrt(2) etc., so the
vacuum variance is 1/2 and the diffusion matrix carries kappa (not 2 kappa).
The fluctuation basis is u = (dX, dY, dQ, dP).
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .meanfield import MeanFieldBranch
from .model import (DerivedParams, InternalConsistencyError,
                    thermal_occupation)

MARGINAL_BAND = 1e-6  # in units of kappa


class DriftDiffusion(NamedTuple):
    """Drift matrix A and diffusion matrix D for one mean-field branch, with
    kappa, omega_B and n_c; A[3,0], A[0,2], A[2,0], A[2,1] are the couplings
    -G_R, G_I, F_R, F_I. Each stage record holds one branch or a stack."""

    A: np.ndarray
    D: np.ndarray
    kappa: float
    omega_B: float
    n_c: float


class StabilityReport(NamedTuple):
    eigenvalues: tuple
    max_real_part: float
    routh_hurwitz_pass: bool
    stable: bool        # max_real_part < 0
    marginal: bool      # |max_real_part| <= 1e-6 * kappa


def record_items(record) -> list:
    """The items of a record of stacks as records of one branch: matrices
    stay arrays, eigenvalues become tuples, scalars Python numbers."""
    columns = (list(x) if x.ndim == 3 else map(tuple, x.tolist())
               if x.ndim == 2 else x.tolist() for x in record)
    return [record._make(item) for item in zip(*columns)]


def record_stack(record):
    """The record of one branch as a record of stacks of one item."""
    return record._make(np.array([x]) for x in record)


def drift_matrix(Delta, Omega_plus, Omega_minus, kappa, gamma,
                 G_R, G_I, F_R, F_I) -> np.ndarray:
    """The 4x4 drift matrix of its coefficients; (N,) arrays give (4,4,N)."""
    return np.array([
        [-kappa,  Delta,   G_I,          F_I],
        [-Delta, -kappa,  -G_R,         -F_R],
        [F_R,     F_I,    -gamma,        Omega_minus],
        [-G_R,   -G_I,    -Omega_plus,  -gamma],
    ])


def drift_diffusion_stacks(pairs) -> DriftDiffusion:
    """The DriftDiffusion stacks of the (DerivedParams, MeanFieldBranch)
    ``pairs``.

    Couplings: G = 2*alpha*(zeta + g*beta_R) splits into (G_R, G_I) by the
    real/imaginary parts of alpha; F = 2*g*alpha*beta_I likewise. Thermal
    occupation n_c is evaluated at the dressed frequency omega_B (the
    undressed omega_c when g=0); a pair whose omega_B is not real and
    positive, or whose mode is inverted (Omega_minus and Omega_plus both
    negative; g < 0), raises InternalConsistencyError, its position as item.
    """
    entries = []
    for i, (d, b) in enumerate(pairs):
        _, _, zeta, g, _, _, k, gm, _, _, T, _, _ = d
        _, alpha, beta, Delta, Omega_plus, Omega_minus, _, _ = b
        aR, aI = alpha.real, alpha.imag
        bR, bI = beta.real, beta.imag
        G_R = 2.0 * aR * (zeta + g * bR)
        G_I = 2.0 * aI * (zeta + g * bR)
        F_R = 2.0 * g * aR * bI
        F_I = 2.0 * g * aI * bI
        if not (product := Omega_minus * Omega_plus) > 0.0:
            raise InternalConsistencyError(
                "the dressed Bogoliubov frequency is not real and positive "
                f"(Omega_minus*Omega_plus = {product:.6e} rad^2/s^2)", i)
        if Omega_minus <= 0.0:  # and Omega_plus < 0, as the product is > 0
            raise InternalConsistencyError(
                "the dressed Bogoliubov mode is inverted (Omega_minus = "
                f"{Omega_minus:.6e}, Omega_plus = {Omega_plus:.6e} rad/s)", i)
        omega_B = math.sqrt(product)
        n_c = thermal_occupation(omega_B, T)
        therm = gm * (2.0 * n_c + 1.0)
        # A and D row by row (the layout of drift_matrix), then the scalars
        entries.append((-k, Delta, G_I, F_I, -Delta, -k, -G_R, -F_R,
                        F_R, F_I, -gm, Omega_minus,
                        -G_R, -G_I, -Omega_plus, -gm,
                        k, 0.0, 0.0, 0.0, 0.0, k, 0.0, 0.0,
                        0.0, 0.0, therm, 0.0, 0.0, 0.0, 0.0, therm,
                        k, omega_B, n_c))
    table = np.array(entries).reshape(-1, 35)
    AD = table[:, :32].reshape(-1, 2, 4, 4)
    return DriftDiffusion(AD[:, 0], AD[:, 1], *table[:, 32:].T)


def build_drift_diffusion(d: DerivedParams, b: MeanFieldBranch) -> DriftDiffusion:
    """Drift and diffusion matrices at one mean-field branch: the
    ``drift_diffusion_stacks`` of the single pair (d, b)."""
    return record_items(drift_diffusion_stacks([(d, b)]))[0]


def langevin_drift_field(d: DerivedParams, state) -> np.ndarray:
    """Noise-free nonlinear drift of the quadrature vector (X, Y, Q, P).

    This is the full nonlinear Langevin right-hand side in complex-amplitude
    form, mapped to quadratures via a = (X + iY)/sqrt(2), c = (Q + iP)/sqrt(2).
    It serves as the fixed-point and Jacobian oracle for the linearized drift:
    its value vanishes at a mean-field branch and its Jacobian there equals
    the drift matrix.
    """
    X, Y, Q, P = state
    a = complex(X, Y) / math.sqrt(2.0)
    c = complex(Q, P) / math.sqrt(2.0)
    da = (-(1j * d.delta_c + d.kappa) * a
          - 1j * d.zeta * a * (c + c.conjugate())
          - 1j * d.g * a * abs(c) ** 2
          - d.eta)
    dc = (-(1j * d.Omega_c + d.gamma) * c
          - 0.5j * d.omega_sw * c.conjugate()
          - 1j * d.zeta * abs(a) ** 2
          - 1j * d.g * abs(a) ** 2 * c)
    s2 = math.sqrt(2.0)
    return np.array([s2 * da.real, s2 * da.imag, s2 * dc.real, s2 * dc.imag])


def quadrature_fixed_point(b: MeanFieldBranch) -> np.ndarray:
    s2 = math.sqrt(2.0)
    return np.array([s2 * b.alpha.real, s2 * b.alpha.imag,
                     s2 * b.beta.real, s2 * b.beta.imag])


def finite_difference_jacobian(d: DerivedParams, state) -> np.ndarray:
    """Central-difference Jacobian of the Langevin drift field, with the
    step 1e-6*max(|u_j|, 1) in each quadrature u_j."""
    state = np.asarray(state, dtype=float)
    n = state.size
    J = np.empty((n, n))
    for j in range(n):
        h = 1e-6 * max(abs(state[j]), 1.0)
        up = state.copy()
        dn = state.copy()
        up[j] += h
        dn[j] -= h
        J[:, j] = (langevin_drift_field(d, up) - langevin_drift_field(d, dn)) / (2.0 * h)
    return J


# flat positions in a 4x4 matrix of its 2x2 and 3x3 principal submatrices
_PAIRS, _TRIPLES = (np.array([[[4 * i + j for j in rows] for i in rows]
                              for rows in itertools.combinations(range(4), n)])
                    for n in (2, 3))


def characteristic_coefficients(A: np.ndarray) -> tuple:
    """Coefficients (a3, a2, a1, a0) of det(sI - A): -tr A, the sum of the
    2x2 principal minors, minus that of the 3x3 ones, and det A (Horn &
    Johnson, Matrix Analysis, 2nd ed., sec. 1.2). The determinants are LU
    factorizations, not eigenvalues. A stack (..., 4, 4) gives arrays."""
    flat = A.reshape(A.shape[:-2] + (16,))
    p = flat.take(_PAIRS, axis=-1)
    a2 = (p[..., 0, 0] * p[..., 1, 1] - p[..., 0, 1] * p[..., 1, 0]).sum(-1)
    a1 = -np.linalg.det(flat.take(_TRIPLES, axis=-1)).sum(-1)
    return -np.trace(A, axis1=-2, axis2=-1), a2, a1, np.linalg.det(A)


def routh_hurwitz_quartic(a3, a2, a1, a0):
    """Hurwitz conditions for s^4 + a3 s^3 + a2 s^2 + a1 s + a0.

    Elementwise on arrays of coefficients.
    """
    c1 = a3
    c2 = a3 * a2 - a1
    c3 = c2 * a1 - a3 * a3 * a0
    return (c1 > 0.0) & (c2 > 0.0) & (c3 > 0.0) & (a0 > 0.0)


def classify_batch(A, kappa) -> StabilityReport:
    """Eigenvalue and Routh-Hurwitz stability verdicts (StabilityReport
    stacks) of each drift matrix of the (N,4,4) stack ``A``, with ``kappa``
    the (N,) cavity decay rates. A drift matrix that is not finite or is
    zero, or whose verdicts disagree outside the 1e-6*kappa marginal band,
    raises InternalConsistencyError with its position as ``item``."""
    # scale out the rate magnitude so the quartic coefficients stay O(1)
    scale = np.abs(A).max(axis=(1, 2))
    if True in (bad := ((scale == 0.0) | ~np.isfinite(scale)).tolist()):
        raise InternalConsistencyError(
            "drift matrix must be finite and nonzero", bad.index(True))
    eigs = np.linalg.eigvals(A).astype(complex, copy=False)
    max_real = eigs.real.max(axis=1)
    coefficients = characteristic_coefficients(A / scale[:, None, None])
    rh = routh_hurwitz_quartic(*coefficients)
    stable = max_real < 0.0
    marginal = np.abs(max_real) <= MARGINAL_BAND * kappa
    if True in (bad := (~marginal & (rh != stable)).tolist()):
        i = bad.index(True)
        c = tuple(float(x[i]) for x in coefficients)
        # a zero, subnormal or infinite coefficient: the quartic is lost
        lost = not all(np.finfo(float).tiny <= abs(x) < math.inf for x in c)
        raise InternalConsistencyError(
            f"Routh-Hurwitz verdict {rh[i]} contradicts eigenvalue "
            f"verdict {stable[i]} (max_real_part={max_real[i]:.6e} rad/s)"
            + lost * ("; the scaled characteristic coefficients (%.3e, %.3e, "
                      "%.3e, %.3e) leave the float range" % c), i)
    return StabilityReport(eigs, max_real, rh, stable, marginal)
