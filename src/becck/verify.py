"""Independent-oracle cross checks of the pipeline (``becck verify``).

Each suite takes a NumPy Generator and returns (ok, detail, where), where
``where`` is the (delta_c, eta, omega_sw, ck) point of the worst case or
None. Branches and covariances come from ``sweep.evaluate_points``, the
step behind ``steady`` and ``sweep``, so the oracles check what those
commands report; only the mean-field substitution suite calls
``enumerate_branches`` itself (on one ``branch_candidates`` batch).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .dynamics import (InternalConsistencyError, classify_batch,
                       drift_matrix, finite_difference_jacobian,
                       quadrature_fixed_point)
from .meanfield import branch_candidates, enumerate_branches
from .model import SystemParams, derive_params
from .steadystate import integrate_moment_ode, logarithmic_negativity
from .sweep import evaluate_points

DEFAULT_SEED = 20260813  # of ``becck verify`` without ``--seed``
# the default base keeps about one strictly stable branch per draw
MAX_DRAWS_PER_BRANCH = 100


def _random_point(rng, base: SystemParams, eta_min: float):
    """DerivedParams of one random draw around ``base``."""
    k, wr = base.kappa, base.omega_R
    return derive_params(dataclasses.replace(
        base,
        delta_c=float(rng.uniform(-15.0, 15.0)) * k,
        eta=float(rng.uniform(eta_min, 4.0)) * k,
        omega_sw=float(rng.uniform(0.0, 20.0)) * wr,
        ck_enabled=bool(rng.integers(0, 2)),
    ))


def _random_stable_points(rng, count, base: SystemParams) -> list:
    """The first ``count`` strictly stable branches of random parameter
    points, in draw order, as ``evaluate_points`` reports them: per branch
    its point, branch, DriftDiffusion item, max real part and covariance.

    Points are drawn and evaluated in blocks of as many points as branches
    are still missing; the draws past the last kept branch are discarded.
    A base whose draws keep too few branches within ``MAX_DRAWS_PER_BRANCH``
    times ``count`` draws raises InternalConsistencyError.
    """
    kept, drawn = [], 0
    while len(kept) < count:
        if drawn >= MAX_DRAWS_PER_BRANCH * count:
            raise InternalConsistencyError(
                f"{len(kept)} of {count} strictly stable branches found in "
                f"{drawn} draws")
        ds = [_random_point(rng, base, 0.1) for _ in range(count - len(kept))]
        drawn += len(ds)
        _, dd, report, evaluated = evaluate_points(ds)
        kept += [(ds[p], b, dd._make(x[i] for x in dd),
                  report.max_real_part[i], state[0])
                 for i, p, b, state in evaluated if state]
    return kept[:count]


def verify_jacobian(rng, base: SystemParams, count: int = 100,
                    perturb: float = 0.0):
    """Analytic drift matrix against a finite-difference Jacobian."""
    errs, where = [], []
    for d, b, dd, _, _ in _random_stable_points(rng, count, base):
        drift = dd.A * (1.0 + perturb)
        J = finite_difference_jacobian(d, quadrature_fixed_point(b))
        errs.append(float(np.max(np.abs(drift - J)) / np.max(np.abs(drift))))
        where.append((d.delta_c, d.eta, d.omega_sw, d.ck_enabled))
    i = int(np.argmax(errs))  # the first NaN deviation, if any, is the worst
    return errs[i] <= 1e-6, f"max relative deviation {errs[i]:.3e}", where[i]


def verify_lyapunov_ode(rng, base: SystemParams, count: int = 12):
    """Reported covariance against the moment ODE integrated from vacuum."""
    errs, where = [], []
    for d, _, dd, max_real, V in _random_stable_points(rng, count, base):
        W = integrate_moment_ode(dd, 0.5 * np.eye(4), 50.0 / abs(max_real))
        errs.append(float(np.max(np.abs(W - V)) / np.max(np.abs(V))))
        where.append((d.delta_c, d.eta, d.omega_sw, d.ck_enabled))
    i = int(np.argmax(errs))  # the first NaN deviation, if any, is the worst
    return errs[i] <= 1e-6, f"max relative deviation {errs[i]:.3e}", where[i]


def verify_routh_hurwitz(rng, base: SystemParams, count: int = 2000):
    """Verdict agreement on random drift-parameter draws.

    One array of ``count`` draws per coefficient, built and classified in
    one batch; the first draw whose Routh-Hurwitz verdict contradicts its
    eigenvalues off the marginal band raises an error named ``draw <i>``.
    """
    def draw(lo, hi):
        return rng.uniform(lo, hi, count) * base.kappa
    kappa = np.full(count, base.kappa)
    A = np.moveaxis(drift_matrix(
        Delta=draw(-20, 20), Omega_plus=draw(0.001, 0.2),
        Omega_minus=draw(0.001, 0.2), kappa=kappa, gamma=draw(1e-4, 1e-2),
        G_R=draw(-1, 1), G_I=draw(-1, 1), F_R=draw(-0.01, 0.01),
        F_I=draw(-0.01, 0.01)), -1, 0)
    try:
        classify_batch(A, kappa)
    except InternalConsistencyError as exc:
        raise InternalConsistencyError(f"draw {exc.item}: {exc}") from exc
    return True, f"0 disagreements in {count} draws", None


def verify_meanfield(rng, base: SystemParams, count: int = 50):
    """Every enumerated branch satisfies the steady-state equations."""
    errs = []
    ds = [_random_point(rng, base, 0.0) for _ in range(count)]
    for d, roots in zip(ds, branch_candidates(ds)):
        for b in enumerate_branches(d, roots):
            # alpha and beta closed forms, photon-number consistency
            den = b.Delta ** 2 + d.kappa ** 2
            alpha_ref = complex(-d.eta * d.kappa / den, d.eta * b.Delta / den)
            den2 = b.Omega_plus * b.Omega_minus + d.gamma ** 2
            beta_ref = (-d.zeta * b.n_photon
                        * complex(b.Omega_minus, d.gamma) / den2)
            scale = max(abs(alpha_ref), abs(beta_ref), 1e-30)
            err = max(abs(b.alpha - alpha_ref), abs(b.beta - beta_ref)) / scale
            nerr = abs(abs(b.alpha) ** 2 - b.n_photon) / max(b.n_photon, 1e-30)
            errs += (err, nerr if b.n_photon else 0.0, b.residual)
    worst = float(np.max(errs, initial=0.0))  # a NaN error propagates
    return worst <= 1e-9, f"max substitution error {worst:.3e}", None


def verify_gaussian(rng):
    """Analytic Gaussian-state cases for the entanglement formulas."""
    def two_mode_squeezed(r):
        c, s = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
        return np.block([[c * np.eye(2), s * np.diag([1.0, -1.0])],
                         [s * np.diag([1.0, -1.0]), c * np.eye(2)]])

    checks = []
    e0, eta0 = logarithmic_negativity(0.5 * np.eye(4))
    checks.append(abs(e0) <= 1e-12 and abs(eta0 - 0.5) <= 1e-12)
    for r in (0.1, 0.5, 1.0):
        e_n, _ = logarithmic_negativity(two_mode_squeezed(r))
        checks.append(abs(e_n - 2 * r) <= 1e-9)
    # invariance under local phase-space rotations
    th, ph = rng.uniform(0, 2 * math.pi, size=2)
    R = np.zeros((4, 4))
    R[:2, :2] = [[math.cos(th), math.sin(th)], [-math.sin(th), math.cos(th)]]
    R[2:, 2:] = [[math.cos(ph), math.sin(ph)], [-math.sin(ph), math.cos(ph)]]
    V = two_mode_squeezed(0.5)
    e1, _ = logarithmic_negativity(V)
    e2, _ = logarithmic_negativity(R @ V @ R.T)
    checks.append(abs(e1 - e2) <= 1e-9)
    ok = all(checks)
    return ok, f"{sum(checks)}/{len(checks)} analytic cases", None


def run_suites(base: SystemParams, seed: int = DEFAULT_SEED,
               perturb_drift: float = 0.0) -> tuple[bool, list]:
    """Run every suite on a generator seeded with ``seed``; return True when
    all pass, and one PASS/FAIL line per suite followed by a verdict line.

    A suite that raises InternalConsistencyError fails with its message.
    """
    suites = [
        ("jacobian", lambda rng: verify_jacobian(rng, base,
                                                 perturb=perturb_drift)),
        ("lyapunov_ode", lambda rng: verify_lyapunov_ode(rng, base)),
        ("routh_hurwitz", lambda rng: verify_routh_hurwitz(rng, base)),
        ("meanfield_substitution", lambda rng: verify_meanfield(rng, base)),
        ("gaussian_cases", verify_gaussian),
    ]
    all_ok, lines = True, []
    for name, fn in suites:
        try:
            ok, detail, where = fn(np.random.default_rng(seed))
        except InternalConsistencyError as exc:
            ok, detail, where = False, str(exc), None
        all_ok &= ok
        line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
        if not ok and where is not None:
            line += f" at delta_c={where[0]:.6e}, eta={where[1]:.6e}, " \
                    f"omega_sw={where[2]:.6e}, ck={where[3]}"
        lines.append(line)
    lines.append("verify: " + ("PASS" if all_ok else "FAIL"))
    return all_ok, lines
