import math

import numpy as np
import pytest

from becck import (DriftDiffusion, InternalConsistencyError,
                   UnstableDriftError, build_drift_diffusion, check_physical,
                   classify_stability, derive_params, enumerate_branches,
                   integrate_moment_ode, logarithmic_negativity,
                   observable_set, omega_pm, paper_base_params,
                   solve_lyapunov, squeezing_and_excitation,
                   symplectic_eigenvalues)
from becck.steadystate import RESIDUAL_BOUND, _rk4_literal

KAPPA = paper_base_params().kappa


def _stable_dd(delta_c_mult=5.0, eta_mult=2.0, index=0, **over):
    p = paper_base_params(delta_c=delta_c_mult * KAPPA,
                          eta=eta_mult * KAPPA, **over)
    d = derive_params(p)
    b = enumerate_branches(d)[index]
    return d, b, build_drift_diffusion(d, b)


def _synthetic_dd(A, D):
    return DriftDiffusion(A=A, D=D, G_R=0.0, G_I=0.0, F_R=0.0, F_I=0.0,
                          n_c=0.0, kappa=KAPPA, gamma=0.0, omega_B=1.0)


def tms_covariance(r):
    c, s = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
    Z = np.diag([1.0, -1.0])
    return np.block([[c * np.eye(2), s * Z], [s * Z, c * np.eye(2)]])


def test_isotropic_relaxation_closed_form():
    # A = -kappa*I gives V = D/(2 kappa) exactly
    D = np.diag([1.0, 2.0, 3.0, 4.0])
    dd = _synthetic_dd(-KAPPA * np.eye(4), D)
    cov = solve_lyapunov(dd)
    assert np.allclose(cov.V, D / (2.0 * KAPPA), rtol=1e-13, atol=0.0)
    assert cov.residual <= RESIDUAL_BOUND * np.max(np.abs(D))


def test_lyapunov_solves_branch_point():
    _, _, dd = _stable_dd()
    cov = solve_lyapunov(dd)
    resid = np.max(np.abs(dd.A @ cov.V + cov.V @ dd.A.T + dd.D))
    assert resid <= RESIDUAL_BOUND * np.max(np.abs(dd.D))
    assert np.allclose(cov.V, cov.V.T, rtol=0.0, atol=0.0)
    check_physical(cov.V)


def test_lyapunov_refuses_unstable_naming_rate():
    _, _, dd = _stable_dd(index=1)  # middle branch
    with pytest.raises(UnstableDriftError, match="max_real_part"):
        solve_lyapunov(dd)


def test_lyapunov_refuses_marginal():
    A = np.diag([-1e-8 * KAPPA, -KAPPA, -KAPPA, -KAPPA])
    dd = _synthetic_dd(A, np.eye(4))
    with pytest.raises(UnstableDriftError, match="marginal"):
        solve_lyapunov(dd)


def test_lyapunov_uses_the_callers_report():
    _, _, dd = _stable_dd()
    rep = classify_stability(dd)
    assert np.array_equal(solve_lyapunov(dd, rep).V, solve_lyapunov(dd).V)
    _, _, middle = _stable_dd(index=1)
    with pytest.raises(UnstableDriftError, match="unstable"):
        solve_lyapunov(middle, classify_stability(middle))


def test_composed_rk4_equals_literal_recursion():
    _, _, dd = _stable_dd()
    scale = float(np.max(np.abs(dd.A)))
    t_final = 40 * 1e-2 / scale
    n_steps = max(1, int(math.ceil(t_final * scale / 1e-2)))
    V0 = np.diag([0.5, 0.5, 2.0, 0.1])
    W = integrate_moment_ode(dd, V0, t_final)
    ref = _rk4_literal(dd, V0, t_final, n_steps)
    assert np.max(np.abs(W - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_moment_ode_converges_from_any_start():
    _, _, dd = _stable_dd()
    rep = classify_stability(dd)
    t_final = 50.0 / abs(rep.max_real_part)
    V = solve_lyapunov(dd).V
    for V0 in (np.zeros((4, 4)), 10.0 * np.eye(4), 0.5 * np.eye(4)):
        W = integrate_moment_ode(dd, V0, t_final)
        assert np.max(np.abs(W - V)) <= 1e-8 * np.max(np.abs(V))


def test_moment_ode_rejects_bad_horizon():
    _, _, dd = _stable_dd()
    with pytest.raises(ValueError):
        integrate_moment_ode(dd, np.eye(4), 0.0)
    with pytest.raises(ValueError):
        integrate_moment_ode(dd, np.eye(4), math.inf)


def test_symplectic_eigenvalues_diagonal_states():
    assert np.allclose(symplectic_eigenvalues(0.5 * np.eye(4)), [0.5, 0.5])
    V = np.diag([0.7, 0.7, 1.9, 1.9])
    assert np.allclose(symplectic_eigenvalues(V), [0.7, 1.9])


def test_symplectic_eigenvalues_squeezed_mode():
    # single-mode squeezing leaves the symplectic eigenvalue at 1/2
    V = np.diag([0.5 * math.exp(-1.2), 0.5 * math.exp(1.2), 0.5, 0.5])
    assert np.allclose(symplectic_eigenvalues(V), [0.5, 0.5], rtol=1e-12)


def test_check_physical_raises_below_vacuum():
    V = np.diag([0.4, 0.4, 0.5, 0.5])
    with pytest.raises(InternalConsistencyError):
        check_physical(V)


def test_log_negativity_two_mode_squeezed():
    for r in (0.3, 0.8):
        e_n, eta_minus = logarithmic_negativity(tms_covariance(r))
        assert e_n == pytest.approx(2.0 * r, abs=1e-10)
        assert eta_minus == pytest.approx(0.5 * math.exp(-2.0 * r),
                                          rel=1e-10)


def test_log_negativity_separable_product_state():
    e_n, eta_minus = logarithmic_negativity(np.diag([0.9, 0.9, 1.4, 1.4]))
    assert e_n == 0.0
    assert eta_minus >= 0.5


def test_log_negativity_local_rotation_invariant():
    rng = np.random.default_rng(11)
    V = tms_covariance(0.6)
    e_ref, _ = logarithmic_negativity(V)
    for _ in range(5):
        th, ph = rng.uniform(0.0, 2.0 * math.pi, size=2)
        R = np.zeros((4, 4))
        R[:2, :2] = [[math.cos(th), math.sin(th)],
                     [-math.sin(th), math.cos(th)]]
        R[2:, 2:] = [[math.cos(ph), math.sin(ph)],
                     [-math.sin(ph), math.cos(ph)]]
        e_n, _ = logarithmic_negativity(R @ V @ R.T)
        assert e_n == pytest.approx(e_ref, rel=1e-9)


def test_squeezing_and_excitation_from_diagonal():
    V = np.diag([0.5, 0.5, 0.3, 1.1])
    s_q, n_inc = squeezing_and_excitation(V)
    assert s_q == pytest.approx(2.0 * 0.3 - 1.0)
    assert n_inc == pytest.approx((0.3 + 1.1 - 1.0) / 2.0)
    s_q0, n0 = squeezing_and_excitation(0.5 * np.eye(4))
    assert s_q0 == 0.0
    assert n0 == 0.0


def test_observable_set_fields():
    d, b, dd = _stable_dd()
    cov = solve_lyapunov(dd)
    obs = observable_set(dd, cov)
    assert obs.S_Q == pytest.approx(2.0 * cov.V[2, 2] - 1.0)
    assert obs.S_P == pytest.approx(2.0 * cov.V[3, 3] - 1.0)
    assert obs.n_incoherent == pytest.approx(
        (cov.V[2, 2] + cov.V[3, 3] - 1.0) / 2.0)
    assert obs.omega_B == dd.omega_B
    assert obs.n_c == dd.n_c
    assert obs.E_N >= 0.0
    assert obs.eta_minus > 0.0


def test_undriven_squeezing_closed_form():
    """At eta=0 the s-wave term still squeezes the condensate quadrature:
    S_Q = (2 n_c + 1) * (1 - Omega_minus*omega_sw
                         / (2*(Omega_plus*Omega_minus + gamma^2))) - 1.
    The atomic and optical blocks decouple, so E_N vanishes."""
    for T in (0.0, 1e-7):
        p = paper_base_params(eta=0.0, T=T)
        d = derive_params(p)
        b = enumerate_branches(d)[0]
        dd = build_drift_diffusion(d, b)
        obs = observable_set(dd, solve_lyapunov(dd))
        om, op = omega_pm(d, 0.0)
        expected = ((2.0 * dd.n_c + 1.0)
                    * (1.0 - om * d.omega_sw
                       / (2.0 * (op * om + d.gamma ** 2))) - 1.0)
        assert obs.S_Q == pytest.approx(expected, rel=1e-9)
        assert obs.E_N <= 1e-12
    # and with scattering off as well, the state is exactly vacuum/thermal
    p = paper_base_params(eta=0.0, omega_sw=0.0, T=0.0)
    d = derive_params(p)
    dd = build_drift_diffusion(d, enumerate_branches(d)[0])
    obs = observable_set(dd, solve_lyapunov(dd))
    assert obs.S_Q == pytest.approx(0.0, abs=1e-12)
    assert obs.S_P == pytest.approx(0.0, abs=1e-12)
    assert obs.n_incoherent == pytest.approx(0.0, abs=1e-12)
