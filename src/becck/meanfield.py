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
around it and is then polished on f itself by Illinois regula falsi.

``branch_candidates`` solves the companion matrices of a whole batch of
points with one stacked ``np.linalg.eigvals`` call per matrix size (two for a
paired sweep: degree 9 with the cross-Kerr term, 3 without), and
``enumerate_branches`` takes one point's candidates. The eigenvalue places a
root to about 1e-12 relative (Edelman & Murakami, Math. Comp. 64, 763
(1995)), so f at r*(1 -/+ 1e-12) around each candidate r first narrows the
sign-change bracket; Illinois regula falsi (Dowell & Jarratt, BIT 11, 168
(1971)) then polishes a root in 3.9 evaluations of f on average over the
nine presets (at most 9), against 14.3 by bisection. Both steps avoid
NumPy's per-call overhead: the coefficients are Python floats with the
fixed-degree products written out, the companion matrices are built by
hand, and f is one closure over the point's constants
(``consistency_residual`` evaluates it too). The written-out sums round in
another order than ``np.convolve``, so the coefficients match the
``np.roots`` build of tests/polynomial_oracle.py to 1e-12 of the largest
one, not bitwise. The polish ends on some float where f changes sign, and
which one depends on the bracket and the method, so a photon number can
differ in its last bits from that of bisection to exhaustion (over the
nine presets by at most 3.2e-15 relative).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import DerivedParams, InternalConsistencyError

# companion-matrix roots kept as candidates: |Im x| <= IMAG_TOL*max(1, |x|)
IMAG_TOL = 1e-6
# relative half-width of the bracket tried around each companion root, a few
# times the accuracy of the eigenvalue (Edelman & Murakami 1995)
BRACKET_RTOL = 1e-12


class MeanFieldBranch(NamedTuple):
    """One self-consistent mean-field solution."""

    n_photon: float
    alpha: complex
    beta: complex
    Delta: float
    Omega_plus: float
    Omega_minus: float
    branch_index: int
    residual: float


class BranchSet(tuple):
    """MeanFieldBranch records sorted by ascending photon number."""

    __slots__ = ()

    @property
    def warnings(self) -> tuple[str, ...]:
        """``("branch-count=<k>",)`` when the count k is not 1 or 3."""
        return () if len(self) in (1, 3) else (f"branch-count={len(self)}",)


def consistency_residual(d: DerivedParams, n):
    """Scalar root function f(n) = n*(Delta(n)^2 + kappa^2) - eta^2.

    Accepts a scalar or an ndarray of trial photon numbers.
    """
    return _root_function(d)(n)


def upper_bound_photons(d: DerivedParams) -> float:
    """Rigorous bound n = eta^2/(Delta^2+kappa^2) <= eta^2/kappa^2 (or inf)."""
    r = d.eta / d.kappa
    return r * r


def _root_function(d: DerivedParams):
    """f(n) at the point ``d``, for a float or an ndarray n, as one closure
    over the subexpressions that do not depend on n; ``f(n, state=True)``
    also gives the mean-field state at n, as (f(n), Omega_minus, Omega_plus,
    beta, Delta). It raises ZeroDivisionError at a float n where den(n) = 0.
    """
    om0, op0 = d.Omega_c - 0.5 * d.omega_sw, d.Omega_c + 0.5 * d.omega_sw
    g, gam, gam2, dc = d.g, d.gamma, d.gamma * d.gamma, d.delta_c
    mzeta, zeta2 = -d.zeta, 2.0 * d.zeta
    k2, e2 = d.kappa * d.kappa, d.eta * d.eta

    def f(n, state=False):
        gn = g * n
        om, op = om0 + gn, op0 + gn
        scale = mzeta * n / (op * om + gam2)
        bR, bI = scale * om, scale * gam
        D = dc + zeta2 * bR + g * (bR * bR + bI * bI)
        fn = n * (D * D + k2) - e2
        return (fn, om, op, complex(bR, bI), D) if state else fn

    return f


def _branch_from_root(d: DerivedParams, n: float, index: int,
                      f) -> MeanFieldBranch:
    n = float(n)
    try:
        fn, om, op, beta, D = f(n, state=True)
        den = D * D + d.kappa * d.kappa
        aR = -d.eta * d.kappa / den
        aI = d.eta * D / den
    except ZeroDivisionError:  # den(n) underflows to 0 at the root
        raise InternalConsistencyError(
            f"division by zero in the branch at n = {n:.6e}, "
            f"eta = {d.eta:.6e} rad/s") from None
    resid = abs(fn)
    if d.eta * d.eta > 0.0:
        resid /= d.eta * d.eta
    return MeanFieldBranch(n, complex(aR, aI), beta, D, op, om, index, resid)


def _bisect(f, lo: float, hi: float, flo: float, fhi: float,
            tries=()) -> float:
    # flo = f(lo) and fhi = f(hi) are nonzero and of opposite sign; each of
    # ``tries`` inside (lo, hi) narrows the bracket first, then Illinois
    # regula falsi runs until f is 0 or the bracket is two adjacent floats
    for x in tries:
        if lo < x < hi:
            fx = f(x)
            if fx == 0.0:
                return x
            if (fx < 0.0) == (flo < 0.0):
                lo, flo = x, fx
            else:
                hi, fhi = x, fx
    kept = slow = 0  # the end the last step kept (-1 lo, 1 hi); stalls
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        # the secant point, the float next to the end it rounds onto, or
        # the midpoint where it is NaN or after two stalls in a row
        x = lo + (hi - lo) * (flo / (flo - fhi))
        if slow >= 2 or x != x:
            x = mid
        elif not lo < x < hi:
            x = math.nextafter(lo, hi) if x <= lo else math.nextafter(hi, lo)
        fx, width = f(x), hi - lo
        if fx == 0.0:
            return x
        # an end kept for a second step in a row has its f halved; a step
        # stalls when it halves neither the bracket nor the smaller end |f|
        stalled = abs(fx) > 0.5 * min(abs(flo), abs(fhi))
        if (fx < 0.0) == (flo < 0.0):
            lo, flo, fhi = x, fx, fhi * 0.5 if kept == 1 else fhi
            kept = 1
        else:
            hi, fhi, flo = x, fx, flo * 0.5 if kept == -1 else flo
            kept = -1
        slow = slow + 1 if stalled and hi - lo > 0.5 * width else 0


def _square_quartic(q0, q1, q2, q3, q4) -> tuple:
    """Coefficients of the square of a quartic, highest power first."""
    return (q0 * q0, 2.0 * (q0 * q1), 2.0 * (q0 * q2) + q1 * q1,
            2.0 * (q0 * q3 + q1 * q2), 2.0 * (q0 * q4 + q1 * q3) + q2 * q2,
            2.0 * (q1 * q4 + q2 * q3), 2.0 * (q2 * q4) + q3 * q3,
            2.0 * (q3 * q4), q4 * q4)


def _branch_polynomial(d: DerivedParams, n_hi: float) -> list:
    """Coefficients (highest power first) of a positive multiple of
    f(n_hi*x)*den^4 as a polynomial in x, as ten floats.

    Rates are taken in units of kappa and the dressed frequencies
    Omega_pm(x) = a1*x + (a0, b0) in units of s = max(|g|*n_hi,
    Omega_minus(0)), which keeps the coefficients finite far outside the
    physical parameter range. With P = Delta*den^2 (a quartic) the product
    is x*(P^2 + den^4)*n_hi/eta^2 - den^4. Raises ZeroDivisionError where
    a scale underflows to 0; an overflow leaves an inf or nan coefficient.
    """
    k = d.kappa
    gx = d.g * n_hi / k
    om0 = (d.Omega_c - 0.5 * d.omega_sw) / k
    s = max(abs(gx), om0)
    a1, a0, b0 = gx / s, om0 / s, (d.Omega_c + 0.5 * d.omega_sw) / k / s
    t = d.gamma / (k * s)
    gam2 = t * t
    t = d.zeta / k
    zx = t * t * n_hi / s
    # den = e0*x^2 + e1*x + e2 and its square
    e0, e1, e2 = a1 * a1, a1 * b0 + a0 * a1, a0 * b0 + gam2
    q = (e0 * e0, 2.0 * (e0 * e1), 2.0 * (e0 * e2) + e1 * e1,
         2.0 * (e1 * e2), e2 * e2)
    den4 = _square_quartic(*q)
    # P = delta_c*den^2 - 2*zeta^2*n*om*den + g*zeta^2*n^2*(om^2 + gamma^2)
    dk, zg, z2 = d.delta_c / k, zx * gx / s, 2.0 * zx
    P = (dk * q[0] + (zg * (a1 * a1) - z2 * (a1 * e0)),
         dk * q[1] + (zg * (2.0 * (a1 * a0)) - z2 * (a1 * e1 + a0 * e0)),
         dk * q[2] + (zg * (a0 * a0 + gam2) - z2 * (a1 * e2 + a0 * e1)),
         dk * q[3] - z2 * (a0 * e2),
         dk * q[4])
    r = d.eta / k
    c = n_hi / (r * r)
    Q = [pp + dd for pp, dd in zip(_square_quartic(*P), den4)]
    return ([c * Q[0]] + [c * qq - dd for qq, dd in zip(Q[1:], den4)]
            + [-den4[8]])


# unit subdiagonals of the companion matrices, by degree
_COMPANION = tuple(np.eye(m, k=-1) for m in range(10))


def _companion_roots(polys) -> list:
    """Roots of each polynomial of ``polys`` (coefficients highest power
    first), found as ``np.roots`` finds them: leading zeros lower the
    degree, each trailing zero is a root at 0, and the others are the
    eigenvalues of the companion matrix. The matrices are stacked by size,
    one ``np.linalg.eigvals`` call per size. A polynomial that is None, or
    whose coefficients or companion row are not finite, gets None; so do
    all of a stack on which the eigen-solve does not converge.
    """
    out, stacks = [], {}
    for p in polys:
        roots = None
        if p is not None and all(map(math.isfinite, p)):
            nonzero = [i for i, c in enumerate(p) if c != 0.0]
            first, last = (nonzero[0], nonzero[-1]) if nonzero else (0, -1)
            roots = [0.0] * (len(p) - 1 - last) if nonzero else []
            if last > first:
                row = [-c / p[first] for c in p[first + 1:last + 1]]
                if all(map(math.isfinite, row)):
                    stacks.setdefault(last - first, []).append(
                        (len(out), row))
                else:
                    roots = None
        out.append(roots)
    for m, items in stacks.items():
        A = np.empty((len(items), m, m))
        A[:] = _COMPANION[m]
        A[:, 0] = [row for _, row in items]
        try:
            ws = np.linalg.eigvals(A).tolist()
        except np.linalg.LinAlgError:
            ws = [None] * len(items)
        for (i, _), w in zip(items, ws):
            out[i] = None if w is None else w + out[i]
    return out


def _point_polynomial(d: DerivedParams):
    """``_branch_polynomial`` of the point at its n_hi; [] without drive,
    None where n_hi overflows or a scale of the polynomial underflows."""
    n_hi = upper_bound_photons(d) * (1.0 + 1e-6)
    if n_hi == 0.0:
        return []
    try:
        return _branch_polynomial(d, n_hi) if math.isfinite(n_hi) else None
    except ZeroDivisionError:
        return None


def branch_candidates(ds) -> list:
    """The companion-matrix roots, in x = n/n_hi, of the branch polynomial
    of each point of ``ds`` (DerivedParams), with one
    ``np.linalg.eigvals`` call per companion size for the whole batch: []
    at a point without drive, and None at one whose roots it cannot give
    (``enumerate_branches`` raises there).
    """
    return _companion_roots(map(_point_polynomial, ds))


def enumerate_branches(d: DerivedParams, roots=None) -> BranchSet:
    """Find every self-consistent branch as a root of one polynomial.

    With den(n) = Omega_minus(n)*Omega_plus(n) + gamma^2, the product
    P(n) = Delta(n)*den(n)^2 is a quartic, so f(n)*den(n)^4 is a polynomial
    of degree 9 whose roots on n >= 0 are exactly those of f (where den = 0
    it equals n*P^2 != 0); it is a cubic when the cross-Kerr term is off
    (g = 0). Its roots in the scaled variable
    x = n/n_hi, n_hi = (eta/kappa)^2*(1+1e-6), come from companion-matrix
    eigenvalues (found as ``np.roots`` finds them): ``roots``, the point's
    entry of ``branch_candidates``, which is called for ``d`` alone when
    ``roots`` is None. Candidates with
    |Im x| <= 1e-6*max(1, |x|) and Re x in [0, 1] are sorted; separators
    sit at 0, midway between neighbouring candidates and at n_hi. A root is
    accepted only where f changes sign between two neighbouring separators,
    so a near-fold complex pair adds nothing. After f at
    r*(1 -/+ BRACKET_RTOL), with r the candidate, has narrowed the bracket
    wherever it lies inside, Illinois regula falsi polishes it until f is 0
    or the bracket is two adjacent floats; a secant point rounded onto an
    end moves one float inside, and a NaN one, or any after two stalls in a
    row (steps that halve neither the bracket nor |f|), is a midpoint.
    Since f(0) < 0 < f(n_hi), at least one branch is always found.

    The relative residual |f(n)|/eta^2 left at a root is the rounding error
    of f there, about eps*n*(2|Delta|*S + Delta^2 + kappa^2)/eta^2 with S
    the sum of the magnitudes of the three terms of Delta(n). It grows where
    they cancel: at delta_a = -7.5e8 rad/s, delta_c = -5 kappa, eta = 2 kappa
    S/|Delta| = 2.9e4 on the upper branches, whose residuals are 7.8e-12
    and 3.0e-12 (estimate 1.3e-11).

    A branch count outside {1, 3} is not raised: the BranchSet's
    ``warnings`` property derives ``branch-count=<k>`` from its length.

    Raises InternalConsistencyError when eta^2/kappa^2, a coefficient of
    the polynomial or its companion matrix overflows (from about
    eta = 1e152 kappa at the paper's parameters; from about 1e148 kappa f
    itself overflows at the root, which leaves a residual that is not
    finite), when a scale of the polynomial underflows to 0, when f
    overflows so that no sign change is left, or when a branch record
    divides by zero (den(0) underflows to 0 at the vacuum branch of a
    drive too weak to lift n above underflow). Like
    ``consistency_residual`` at a float, it raises ZeroDivisionError where
    den(n) = 0 exactly at a bracket point or a point of the polish.
    """
    if roots is None:
        (roots,) = branch_candidates([d])
    n_hi = upper_bound_photons(d) * (1.0 + 1e-6)
    f = _root_function(d)
    if n_hi == 0.0:  # no drive, or one too weak to lift n above underflow
        return BranchSet((_branch_from_root(d, 0.0, 0, f),))
    if roots is None:
        raise InternalConsistencyError(
            f"branch polynomial overflows at eta = {d.eta:.6e} rad/s")
    cand = sorted(z.real for z in roots if 0.0 <= z.real <= 1.0
                  and abs(z.imag) <= IMAG_TOL * max(1.0, abs(z)))
    seps = ([0.0] + [n_hi * (0.5 * (a + b)) for a, b in zip(cand, cand[1:])]
            + [n_hi])
    try:
        fs = [f(n) for n in seps]
    except ZeroDivisionError:  # den = 0 at a separator: inf or nan, as arrays
        fs = f(np.array(seps)).tolist()

    found: list[float] = []
    # the interval between two separators holds one candidate, or is
    # [0, n_hi] with none
    for lo, hi, flo, fhi, x in zip(seps, seps[1:], fs, fs[1:],
                                   cand or [None]):
        if flo == 0.0:
            found.append(lo)
        elif fhi != 0.0 and (flo < 0.0) != (fhi < 0.0):
            tries = () if x is None else (n_hi * x * (1.0 - BRACKET_RTOL),
                                          n_hi * x * (1.0 + BRACKET_RTOL))
            found.append(_bisect(f, lo, hi, flo, fhi, tries))

    if not found:  # f(0) < 0 < f(n_hi) unless f overflows there
        raise InternalConsistencyError(
            f"no sign change of f found at eta = {d.eta:.6e} rad/s")
    return BranchSet(_branch_from_root(d, r, i, f)
                     for i, r in enumerate(found))
