"""Steady-state mean fields and bistable branch enumeration.

The coupled steady-state conditions

    alpha = -eta / (i*Delta + kappa)
    beta  = -zeta*|alpha|^2 * (Omega_minus + i*gamma) / (Omega_plus*Omega_minus + gamma^2)
    Delta = delta_c + 2*zeta*beta_R + g*|beta|^2

close under substitution into a single scalar unknown n = |alpha|^2. Roots of

    f(n) = n * (Delta(n)^2 + kappa^2) - eta^2

are exactly the self-consistent photon numbers, all on [0, eta^2/kappa^2].
Clearing the denominator den(n) = Omega_minus(n)*Omega_plus(n) + gamma^2
turns f(n)*den(n)^4 into a polynomial of degree 9 (a cubic without
the cross-Kerr term), so its companion-matrix eigenvalues give every branch,
including all bistable ones. Each candidate is kept only where f changes sign
around it and is then polished by bisection on f itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DerivedParams, InternalConsistencyError, omega_pm

BISECT_RTOL = 1e-12  # residual reached at the paper's parameters, not a bound
# companion-matrix roots kept as candidates: |Im x| <= IMAG_TOL*max(1, |x|)
IMAG_TOL = 1e-6


@dataclass(frozen=True)
class MeanFieldBranch:
    """One self-consistent mean-field solution."""

    n_photon: float
    alpha: complex
    beta: complex
    Delta: float
    Omega_plus: float
    Omega_minus: float
    branch_index: int
    residual: float


@dataclass(frozen=True)
class BranchSet:
    """Branches sorted by ascending photon number, plus solver warnings.

    Behaves as an ordered sequence of MeanFieldBranch.
    """

    branches: tuple[MeanFieldBranch, ...]
    warnings: tuple[str, ...] = ()

    def __iter__(self):
        return iter(self.branches)

    def __len__(self):
        return len(self.branches)

    def __getitem__(self, i):
        return self.branches[i]


def _beta_of_n(d: DerivedParams, n):
    om, op = d.Omega_c - 0.5 * d.omega_sw + d.g * n, d.Omega_c + 0.5 * d.omega_sw + d.g * n
    den = op * om + d.gamma * d.gamma
    scale = -d.zeta * n / den
    return scale * om, scale * d.gamma  # (beta_R, beta_I)


def _delta_of_n(d: DerivedParams, n):
    bR, bI = _beta_of_n(d, n)
    return d.delta_c + 2.0 * d.zeta * bR + d.g * (bR * bR + bI * bI)


def consistency_residual(d: DerivedParams, n):
    """Scalar root function f(n) = n*(Delta(n)^2 + kappa^2) - eta^2.

    Accepts a scalar or an ndarray of trial photon numbers.
    """
    D = _delta_of_n(d, n)
    return n * (D * D + d.kappa * d.kappa) - d.eta * d.eta


def upper_bound_photons(d: DerivedParams) -> float:
    """Rigorous bound n = eta^2/(Delta^2+kappa^2) <= eta^2/kappa^2 (or inf)."""
    r = d.eta / d.kappa
    return r * r


def _branch_from_root(d: DerivedParams, n: float, index: int) -> MeanFieldBranch:
    n = float(n)
    bR, bI = _beta_of_n(d, n)
    D = _delta_of_n(d, n)
    den = D * D + d.kappa * d.kappa
    aR = -d.eta * d.kappa / den
    aI = d.eta * D / den
    om, op = omega_pm(d, n)
    resid = abs(consistency_residual(d, n))
    if d.eta * d.eta > 0.0:
        resid /= d.eta * d.eta
    return MeanFieldBranch(
        n_photon=n,
        alpha=complex(aR, aI),
        beta=complex(bR, bI),
        Delta=D,
        Omega_plus=op,
        Omega_minus=om,
        branch_index=index,
        residual=resid,
    )


def _bisect(d: DerivedParams, lo: float, hi: float, flo: float, fhi: float) -> float:
    # endpoints guaranteed to straddle a sign change (flo*fhi <= 0);
    # runs to floating-point exhaustion
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = consistency_residual(d, mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) != (fmid < 0.0):
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _branch_polynomial(d: DerivedParams, n_hi: float) -> np.ndarray:
    """Coefficients (highest power first) of a positive multiple of
    f(n_hi*x)*den^4 as a polynomial in x.

    Rates are taken in units of kappa and the dressed frequencies
    Omega_pm(x) in units of s = max(|g|*n_hi, Omega_minus(0)), which keeps
    the coefficients finite far outside the physical parameter range. With
    P = Delta*den^2 (a quartic) the product is
    x*(P^2 + den^4)*n_hi/eta^2 - den^4.
    """
    k = d.kappa
    gx = d.g * n_hi / k
    om0 = (d.Omega_c - 0.5 * d.omega_sw) / k
    s = max(abs(gx), om0)
    om = np.array([gx, om0]) / s
    op = np.array([gx, (d.Omega_c + 0.5 * d.omega_sw) / k]) / s
    gam2 = (d.gamma / (k * s)) ** 2
    zx = (d.zeta / k) ** 2 * n_hi / s
    x = np.array([1.0, 0.0])
    den = np.polyadd(np.convolve(om, op), [gam2])
    den2 = np.convolve(den, den)
    den4 = np.convolve(den2, den2)
    # P = delta_c*den^2 - 2*zeta^2*n*om*den + g*zeta^2*n^2*(om^2 + gamma^2)
    cross = np.convolve(x, np.convolve(om, den))
    kerr = np.convolve(np.convolve(x, x), np.polyadd(np.convolve(om, om), [gam2]))
    P = np.polyadd(d.delta_c / k * den2,
                   np.polysub(zx * gx / s * kerr, 2.0 * zx * cross))
    c = n_hi / (d.eta / k) ** 2
    return np.polysub(c * np.convolve(x, np.polyadd(np.convolve(P, P), den4)), den4)


def enumerate_branches(d: DerivedParams) -> BranchSet:
    """Find every self-consistent branch as a root of one polynomial.

    With den(n) = Omega_minus(n)*Omega_plus(n) + gamma^2, the product
    P(n) = Delta(n)*den(n)^2 is a quartic, so f(n)*den(n)^4 is a polynomial
    of degree 9 whose roots on n >= 0 are exactly those of f (where den = 0
    it equals n*P^2 != 0); it is a cubic when the cross-Kerr term is off
    (g = 0). Its roots in the scaled variable
    x = n/n_hi, n_hi = (eta/kappa)^2*(1+1e-6), come from companion-matrix
    eigenvalues (``np.roots``). Candidates with |Im x| <= 1e-6*max(1, |x|)
    and Re x in [0, 1] are sorted; separators sit at 0, midway between
    neighbouring candidates and at n_hi. A root is accepted only where f
    changes sign between two neighbouring separators, so a near-fold
    complex pair adds nothing, and it is polished by bisection on f to
    floating-point exhaustion. Since f(0) < 0 < f(n_hi), at least one branch
    is always found.

    The relative residual |f(n)|/eta^2 left at a root is the rounding error
    of f there, about eps*n*(2|Delta|*S + Delta^2 + kappa^2)/eta^2 with S
    the sum of the magnitudes of the three terms of Delta(n). It grows where
    they cancel: at delta_a = -7.5e8 rad/s, delta_c = -5 kappa, eta = 2 kappa
    S/|Delta| = 2.9e4 on the upper branches, whose residuals are 7.8e-12
    and 3.0e-12 (estimate 1.3e-11).

    A warning is attached rather than raised:

    * ``branch-count=<k>``: branch count outside {1, 3}.

    Raises InternalConsistencyError when eta^2/kappa^2, a coefficient of
    the polynomial or its companion matrix overflows (from about
    eta = 1e150 kappa), or when f overflows so that no sign change is left.
    """
    n_hi = upper_bound_photons(d) * (1.0 + 1e-6)
    if n_hi == 0.0:  # no drive, or one too weak to lift n above underflow
        return BranchSet(branches=(_branch_from_root(d, 0.0, 0),))
    poly = _branch_polynomial(d, n_hi) if math.isfinite(n_hi) else [n_hi]
    finite = np.isfinite(poly).all()
    try:
        x = np.roots(poly) if finite else None
    except np.linalg.LinAlgError:  # its companion matrix overflows
        finite = False
    if not finite:
        raise InternalConsistencyError(
            f"branch polynomial overflows at eta = {d.eta:.6e} rad/s")
    keep = ((np.abs(x.imag) <= IMAG_TOL * np.maximum(1.0, np.abs(x)))
            & (x.real >= 0.0) & (x.real <= 1.0))
    cand = np.sort(x.real[keep])
    seps = n_hi * np.concatenate(([0.0], 0.5 * (cand[:-1] + cand[1:]), [1.0]))
    fs = consistency_residual(d, seps)

    roots: list[float] = []
    seps, fs = seps.tolist(), fs.tolist()
    for lo, hi, flo, fhi in zip(seps, seps[1:], fs, fs[1:]):
        if flo == 0.0:
            roots.append(lo)
        elif fhi != 0.0 and (flo < 0.0) != (fhi < 0.0):
            roots.append(_bisect(d, lo, hi, flo, fhi))

    if not roots:  # f(0) < 0 < f(n_hi) unless f overflows there
        raise InternalConsistencyError(
            f"no sign change of f found at eta = {d.eta:.6e} rad/s")
    warnings: tuple[str, ...] = ()
    if len(roots) not in (1, 3):
        warnings = (f"branch-count={len(roots)}",)
    branches = tuple(_branch_from_root(d, r, i) for i, r in enumerate(roots))
    return BranchSet(branches=branches, warnings=warnings)
