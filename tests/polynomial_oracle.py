"""Reference branch polynomial built with NumPy polynomial products, used as
a test oracle.

This is how becck built the degree-9 branch polynomial before it wrote the
fixed-degree products out as floats: ten ``np.convolve`` calls and four
``np.polyadd``/``np.polysub`` calls on coefficient arrays, followed by
``np.roots``. ``branch_count`` repeats that enumeration's bracketing step
(separators between the candidate roots, f evaluated on them as one array)
and so gives the branch count and warnings that enumeration reported.
``reference_f`` writes the root function f through the two helpers
beta(n) and Delta(n), apart from the package's closure of f; it is the f of
both oracles, so they share no code of f with the package they check.
"""

import numpy as np

from becck import upper_bound_photons
from becck.meanfield import IMAG_TOL


def beta_of_n(d, n):
    """(beta_R, beta_I) of the steady state at photon number n."""
    om = d.Omega_c - 0.5 * d.omega_sw + d.g * n
    op = d.Omega_c + 0.5 * d.omega_sw + d.g * n
    den = op * om + d.gamma * d.gamma
    scale = -d.zeta * n / den
    return scale * om, scale * d.gamma


def delta_of_n(d, n):
    bR, bI = beta_of_n(d, n)
    return d.delta_c + 2.0 * d.zeta * bR + d.g * (bR * bR + bI * bI)


def reference_f(d, n):
    """f(n) = n*(Delta(n)^2 + kappa^2) - eta^2 for a float or an ndarray n."""
    D = delta_of_n(d, n)
    return n * (D * D + d.kappa * d.kappa) - d.eta * d.eta


def branch_polynomial(d, n_hi):
    """Coefficients (highest power first) of a positive multiple of
    f(n_hi*x)*den^4 as a polynomial in x; see ``becck.meanfield``."""
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


def branch_count(d):
    """Number of branches and the warnings of the ``np.roots`` enumeration
    at a driven point (eta^2/kappa^2 finite and above underflow)."""
    n_hi = upper_bound_photons(d) * (1.0 + 1e-6)
    x = np.roots(branch_polynomial(d, n_hi))
    keep = ((np.abs(x.imag) <= IMAG_TOL * np.maximum(1.0, np.abs(x)))
            & (x.real >= 0.0) & (x.real <= 1.0))
    cand = np.sort(x.real[keep])
    seps = n_hi * np.concatenate(([0.0], 0.5 * (cand[:-1] + cand[1:]), [1.0]))
    fs = reference_f(d, seps)
    count = sum(1 for flo, fhi in zip(fs, fs[1:])
                if flo == 0.0 or (fhi != 0.0 and (flo < 0.0) != (fhi < 0.0)))
    return count, (() if count in (1, 3) else (f"branch-count={count}",))
