import math

import numpy as np
import pytest

from becck import (DriftDiffusion, InternalConsistencyError, SystemParams,
                   build_drift_diffusion, characteristic_coefficients,
                   derive_params, drift_matrix, enumerate_branches,
                   finite_difference_jacobian, langevin_drift_field,
                   paper_base_params, quadrature_fixed_point,
                   routh_hurwitz_quartic, thermal_occupation)
from becck.dynamics import (MARGINAL_BAND, classify_batch,
                            drift_diffusion_stacks, record_items)

KAPPA = paper_base_params().kappa


def _classify(dd):
    """The StabilityReport of one DriftDiffusion, classified as a stack of
    one."""
    return record_items(classify_batch(dd.A[None], np.array([dd.kappa])))[0]


def _branch_dd(delta_c_mult, eta_mult, ck=True, index=0):
    p = paper_base_params(delta_c=delta_c_mult * KAPPA,
                          eta=eta_mult * KAPPA, ck_enabled=ck)
    d = derive_params(p)
    b = enumerate_branches(d)[index]
    return d, b, build_drift_diffusion(d, b)


def test_drift_matrix_layout():
    A = drift_matrix(Delta=1.0, Omega_plus=2.0, Omega_minus=3.0, kappa=4.0,
                     gamma=5.0, G_R=6.0, G_I=7.0, F_R=8.0, F_I=9.0)
    expected = np.array([
        [-4.0, 1.0, 7.0, 9.0],
        [-1.0, -4.0, -6.0, -8.0],
        [8.0, 9.0, -5.0, 3.0],
        [-6.0, -7.0, -2.0, -5.0],
    ])
    assert np.array_equal(A, expected)


def test_coupling_coefficients_from_branch():
    d, b, dd = _branch_dd(5.0, 2.0)
    aR, aI = b.alpha.real, b.alpha.imag
    bR, bI = b.beta.real, b.beta.imag
    # the couplings are entries of A: -G_R, G_I, F_R and F_I
    G_R, G_I, F_R, F_I = -dd.A[3, 0], dd.A[0, 2], dd.A[2, 0], dd.A[2, 1]
    assert G_R == pytest.approx(2.0 * aR * (d.zeta + d.g * bR), rel=1e-12)
    assert G_I == pytest.approx(2.0 * aI * (d.zeta + d.g * bR), rel=1e-12)
    assert F_R == pytest.approx(2.0 * d.g * aR * bI, rel=1e-12)
    assert F_I == pytest.approx(2.0 * d.g * aI * bI, rel=1e-12)
    assert np.array_equal(dd.A, drift_matrix(
        b.Delta, b.Omega_plus, b.Omega_minus, d.kappa, d.gamma,
        G_R, G_I, F_R, F_I))


def test_cross_kerr_off_kills_f_couplings():
    _, _, dd = _branch_dd(5.0, 2.0, ck=False)
    assert dd.A[2, 0] == 0.0  # F_R
    assert dd.A[2, 1] == 0.0  # F_I


def test_diffusion_matrix_diagonal():
    d, b, dd = _branch_dd(5.0, 2.0)
    n_c = thermal_occupation(dd.omega_B, d.T)
    therm = d.gamma * (2.0 * n_c + 1.0)
    assert np.array_equal(
        dd.D, np.diag([d.kappa, d.kappa, therm, therm]))
    assert dd.n_c == pytest.approx(n_c)


def test_fixed_point_zeroes_langevin_field():
    d, b, _ = _branch_dd(5.0, 2.0)
    state = quadrature_fixed_point(b)
    field = langevin_drift_field(d, state)
    assert np.max(np.abs(field)) <= 1e-9 * d.eta


def test_analytic_drift_matches_finite_difference():
    for dc, eta, ck, idx in ((5.0, 2.0, True, 0), (5.0, 2.0, True, 2),
                             (-7.0, 1.0, False, 0), (0.0, 0.5, True, 0)):
        d, b, dd = _branch_dd(dc, eta, ck, idx)
        J = finite_difference_jacobian(d, quadrature_fixed_point(b))
        err = np.max(np.abs(J - dd.A)) / np.max(np.abs(dd.A))
        assert err <= 1e-7


def test_characteristic_coefficients_match_eigensolver():
    rng = np.random.default_rng(7)
    for _ in range(50):
        A = rng.normal(size=(4, 4))
        a3, a2, a1, a0 = characteristic_coefficients(A)
        ref = np.poly(A)  # [1, a3, a2, a1, a0] via eigenvalues
        assert np.allclose([1.0, a3, a2, a1, a0], ref, rtol=1e-9, atol=1e-9)


def test_characteristic_coefficients_of_rates_decades_apart():
    # with no drive A is block diagonal, so det(sI - A) is the product of
    # s^2 + 2 kappa s + kappa^2 + Delta^2 and s^2 + 2 gamma s + gamma^2
    # + Omega_minus Omega_plus; kappa = 1e-20 rad/s puts the rates 24
    # decades below gamma, where sums of powers of A cancel
    d = derive_params(SystemParams(kappa=1e-20))
    (b,) = enumerate_branches(d)
    A = build_drift_diffusion(d, b).A
    p, q = 2.0 * d.kappa, d.kappa ** 2 + b.Delta ** 2
    r, t = 2.0 * d.gamma, d.gamma ** 2 + b.Omega_minus * b.Omega_plus
    expected = (p + r, q + t + p * r, p * t + q * r, q * t)
    for got, want in zip(characteristic_coefficients(A), expected):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_routh_hurwitz_known_polynomials():
    # (s+1)^4: stable
    assert routh_hurwitz_quartic(4.0, 6.0, 4.0, 1.0) is True
    # (s-1)(s+1)^3 = s^4 + 2s^3 - 2s - 1: one right-half-plane root
    assert routh_hurwitz_quartic(2.0, 0.0, -2.0, -1.0) is False
    # pure rotations s^4 + (w1^2+w2^2) s^2 + (w1 w2)^2: marginal, not Hurwitz
    assert routh_hurwitz_quartic(0.0, 5.0, 0.0, 4.0) is False


def test_routh_hurwitz_matches_dejesus_kaufman_conditions():
    # s^4 + c1 s^3 + c2 s^2 + c3 s + c4 is Hurwitz iff c1, c3, c4 > 0 and
    # c1 c2 c3 > c3^2 + c1^2 c4 (DeJesus & Kaufman, PRA 35, 5288 (1987))
    rng = np.random.default_rng(11)
    c1, c3, c4 = rng.uniform(-1.0, 3.0, size=(3, 20000))
    c2 = rng.uniform(-1.0, 6.0, 20000)
    hurwitz = ((c1 > 0) & (c3 > 0) & (c4 > 0)
               & (c1 * c2 * c3 > c3 * c3 + c1 * c1 * c4))
    assert 0 < hurwitz.sum() < hurwitz.size
    assert np.array_equal(routh_hurwitz_quartic(c1, c2, c3, c4), hurwitz)


def test_routh_hurwitz_on_quartics_from_known_roots():
    rng = np.random.default_rng(12)
    size = 20000

    def quadratic():
        """s^2 + p s + q of a conjugate pair or of two real roots, each
        real part at least 1e-3 from the imaginary axis."""
        re1, re2 = (rng.choice([-1.0, 1.0], (2, size))
                    * 10.0 ** rng.uniform(-3.0, 0.5, (2, size)))
        im = rng.uniform(0.0, 5.0, size)
        real = rng.random(size) < 0.3
        p = np.where(real, -(re1 + re2), -2.0 * re1)
        q = np.where(real, re1 * re2, re1 * re1 + im * im)
        return p, q, (re1 < 0.0) & (~real | (re2 < 0.0))

    (p1, q1, left1), (p2, q2, left2) = quadratic(), quadratic()
    stable = left1 & left2
    assert 0 < stable.sum() < size
    verdict = routh_hurwitz_quartic(p1 + p2, q1 + q2 + p1 * p2,
                                    p1 * q2 + p2 * q1, q1 * q2)
    assert np.array_equal(verdict, stable)


def _similar_drift(rng, slow_re):
    """A drift matrix similar to a slow pair slow_re +/- i w and a fast pair
    with imaginary part up to 20 kappa, both in units of kappa."""
    def rotation(re, im):
        return np.array([[re, im], [-im, re]])

    B = np.zeros((4, 4))
    B[:2, :2] = rotation(slow_re, rng.uniform(0.01, 2.0))
    B[2:, 2:] = rotation(-rng.uniform(0.1, 2.0), rng.uniform(0.0, 20.0))
    S = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
    return DriftDiffusion(A=S @ (B * KAPPA) @ np.linalg.inv(S),
                          D=KAPPA * np.eye(4), kappa=KAPPA, omega_B=1.0,
                          n_c=0.0)


def test_routh_hurwitz_near_the_marginal_band():
    rng = np.random.default_rng(13)
    slow = [sign * x for x in (1.5e-6, 3e-6, 1e-5, 1e-4)
            for sign in (-1.0, 1.0) for _ in range(225)]
    A = np.stack([_similar_drift(rng, x).A for x in slow])
    _, _, rh, stable, marginal = classify_batch(A, np.full(len(A), KAPPA))
    assert list(zip(stable.tolist(), rh.tolist(), marginal.tolist())) \
        == [(x < 0.0, x < 0.0, False) for x in slow]
    inside = rng.uniform(-0.5, 0.5, 500) * MARGINAL_BAND
    A = np.stack([_similar_drift(rng, x).A for x in inside])
    _, _, _, _, marginal = classify_batch(A, np.full(len(A), KAPPA))
    assert all(marginal)


def test_classify_stable_branch():
    _, _, dd = _branch_dd(5.0, 2.0, index=0)
    rep = _classify(dd)
    assert rep.stable is True
    assert rep.marginal is False
    assert rep.routh_hurwitz_pass is True
    assert rep.max_real_part < 0.0
    assert rep.max_real_part == pytest.approx(
        max(z.real for z in rep.eigenvalues))
    assert len(rep.eigenvalues) == 4


def test_classify_middle_branch_unstable():
    _, _, dd = _branch_dd(5.0, 2.0, index=1)
    rep = _classify(dd)
    assert rep.stable is False
    assert rep.routh_hurwitz_pass is False
    assert rep.max_real_part > 0.0


def test_classify_marginal_band():
    slow = 0.5 * MARGINAL_BAND * KAPPA
    A = np.diag([-slow, -KAPPA, -KAPPA, -KAPPA])
    dd = DriftDiffusion(A=A, D=np.eye(4), kappa=KAPPA, omega_B=1.0, n_c=0.0)
    rep = _classify(dd)
    assert rep.marginal is True
    assert rep.stable is True


def test_eigenvalues_conjugate_pairs_weak_drive():
    d, _, dd = _branch_dd(-3.0, 0.01)
    rep = _classify(dd)
    reals = sorted(z.real for z in rep.eigenvalues)
    # weakly driven: two cavity-like and two condensate-like decay rates
    assert reals[0] == pytest.approx(-d.kappa, rel=1e-3)
    assert reals[1] == pytest.approx(-d.kappa, rel=1e-3)
    assert reals[2] == pytest.approx(-d.gamma, rel=1e-3)
    assert reals[3] == pytest.approx(-d.gamma, rel=1e-3)
    ims = sorted(z.imag for z in rep.eigenvalues)
    assert ims[0] == pytest.approx(-ims[3], rel=1e-9)
    assert ims[1] == pytest.approx(-ims[2], rel=1e-9)


def test_classify_rejects_nonfinite():
    A = np.full((4, 4), np.nan)
    dd = DriftDiffusion(A=A, D=np.eye(4), kappa=KAPPA, omega_B=1.0, n_c=0.0)
    with pytest.raises(InternalConsistencyError,
                       match="^drift matrix must be finite and nonzero$"):
        _classify(dd)
    stack = np.stack([-KAPPA * np.eye(4), A, np.zeros((4, 4))])
    with pytest.raises(InternalConsistencyError) as exc:
        classify_batch(stack, np.full(3, KAPPA))
    assert exc.value.item == 1


def _flip_last_verdict(monkeypatch):
    import becck.dynamics
    honest = becck.dynamics.routh_hurwitz_quartic

    def flipped(*coefficients):
        verdict = np.array(honest(*coefficients))
        verdict[-1] = ~verdict[-1]
        return verdict

    monkeypatch.setattr(becck.dynamics, "routh_hurwitz_quartic", flipped)


@pytest.mark.parametrize("kind", ["not-finite", "zero", "routh-hurwitz"])
def test_classify_batch_refusals_name_the_last_of_three(monkeypatch, kind):
    # only the item at position 2 fails; each refusal keeps its text
    A = np.stack([_branch_dd(5.0, 2.0, index=i)[2].A for i in (0, 2, 0)])
    kappa = np.full(3, KAPPA)
    max_real = classify_batch(A, kappa).max_real_part[2]
    message = "drift matrix must be finite and nonzero"
    if kind == "not-finite":
        A[2, 1, 3] = np.inf
    elif kind == "zero":
        A[2] = 0.0
    else:
        _flip_last_verdict(monkeypatch)
        message = ("Routh-Hurwitz verdict False contradicts eigenvalue "
                   f"verdict True (max_real_part={max_real:.6e} rad/s)")
    with pytest.raises(InternalConsistencyError) as exc:
        classify_batch(A, kappa)
    assert (str(exc.value), exc.value.item) == (message, 2)


@pytest.mark.parametrize("omega_minus, omega_plus, message", [
    (-1.0, None, "Bogoliubov frequency is not real"),
    (0.0, None, "Bogoliubov frequency is not real"),
    # both negative: the product is positive again, but the mode is inverted
    (-2.0, -1.0, r"Bogoliubov mode is inverted \(Omega_minus = -2\.000000e"
                 r"\+00, Omega_plus = -1\.000000e\+00 rad/s\)$"),
], ids=["-1.0", "0.0", "both-negative"])
def test_stacks_refuse_a_dressed_frequency_that_is_not_real(
        omega_minus, omega_plus, message):
    d, b, _ = _branch_dd(5.0, 2.0)
    bad = b._replace(Omega_minus=omega_minus,
                     Omega_plus=omega_plus or b.Omega_plus)
    with pytest.raises(InternalConsistencyError, match=message) as exc:
        drift_diffusion_stacks([(d, b), (d, bad), (d, b)])
    assert exc.value.item == 1


def test_thermal_occupation_enters_at_dressed_frequency():
    # cross-Kerr on: omega_B shifts with n, so n_c differs between branches
    _, b0, dd0 = _branch_dd(5.0, 2.0, index=0)
    _, b2, dd2 = _branch_dd(5.0, 2.0, index=2)
    assert dd2.omega_B > dd0.omega_B
    assert dd2.n_c < dd0.n_c
    expected = math.sqrt(b2.Omega_plus * b2.Omega_minus)
    assert dd2.omega_B == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("delta_c_mult, grows", [(8.0, True), (9.5, False)])
def test_upper_branch_envelope_follows_leading_eigenvalue(delta_c_mult,
                                                          grows):
    """Nonlinear oracle for the linear stability verdict on the upper fig2b
    branch (eta=2*kappa, cross-Kerr off). A small kick off the fixed point is
    integrated through the full Langevin field; once the cavity-like pair
    has died out, the envelope of the deviation must grow (8*kappa) or decay
    (9.5*kappa) at max Re lambda of the drift matrix."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    d, b, dd = _branch_dd(delta_c_mult, 2.0, ck=False, index=2)
    rate = float(np.max(np.linalg.eigvals(dd.A).real))
    assert (rate > 0.0) == grows
    x0 = quadrature_fixed_point(b)
    t = np.linspace(0.0, 5e-3, 20001)
    sol = solve_ivp(lambda _, y: langevin_drift_field(d, y), (t[0], t[-1]),
                    x0 + np.array([0.0, 0.0, 1e-5, 0.0]), method="DOP853",
                    t_eval=t, rtol=1e-11, atol=1e-14, max_step=2e-7)
    assert sol.success
    dev = np.linalg.norm(sol.y - x0[:, None], axis=0)
    # envelope: the deviation's maximum over 0.2 ms windows (about ten
    # periods), after the first 0.4 ms of transients
    t_mid = t[:-1].reshape(25, 800).mean(axis=1)[2:]
    peaks = dev[:-1].reshape(25, 800).max(axis=1)[2:]
    measured = np.polyfit(t_mid, np.log(peaks), 1)[0]
    assert measured == pytest.approx(rate, rel=0.1)
