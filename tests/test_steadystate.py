import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import becck.steadystate
from becck import (CovarianceMatrix, DriftDiffusion,
                   InternalConsistencyError, ObservableSet, StabilityReport,
                   UnstableDriftError, bogoliubov_frequency,
                   build_drift_diffusion, derive_params, enumerate_branches,
                   integrate_moment_ode, logarithmic_negativity,
                   observable_set, omega_pm, paper_base_params, preset_spec,
                   run_sweep, solve_lyapunov, squeezing_and_excitation,
                   symplectic_eigenvalues)
from becck.cli import main
from becck.dynamics import (classify_batch, drift_diffusion_stacks,
                            record_items)
from becck.steadystate import (PHYSICALITY_SLACK, RESIDUAL_BOUND,
                               _require_physical, lyapunov_batch,
                               observables_batch)
from becck.sweep import evaluate_points

KAPPA = paper_base_params().kappa


def _classify(dd):
    """The StabilityReport of one DriftDiffusion, classified as a stack of
    one."""
    return record_items(classify_batch(dd.A[None], np.array([dd.kappa])))[0]


def _stable_dd(delta_c_mult=5.0, eta_mult=2.0, index=0, **over):
    p = paper_base_params(delta_c=delta_c_mult * KAPPA,
                          eta=eta_mult * KAPPA, **over)
    d = derive_params(p)
    b = enumerate_branches(d)[index]
    return d, b, build_drift_diffusion(d, b)


def _synthetic_dd(A, D):
    return DriftDiffusion(A=A, D=D, kappa=KAPPA, omega_B=1.0, n_c=0.0)


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
    _require_physical(cov.V)


def test_lyapunov_refuses_unstable_naming_rate():
    _, _, dd = _stable_dd(index=1)  # middle branch
    with pytest.raises(UnstableDriftError, match="max_real_part"):
        solve_lyapunov(dd)


def test_lyapunov_refuses_marginal():
    A = np.diag([-1e-8 * KAPPA, -KAPPA, -KAPPA, -KAPPA])
    dd = _synthetic_dd(A, np.eye(4))
    with pytest.raises(UnstableDriftError, match="marginal"):
        solve_lyapunov(dd)


def test_lyapunov_judges_the_middle_branch_by_its_own_drift():
    _, _, middle = _stable_dd(index=1)
    with pytest.raises(UnstableDriftError, match="unstable"):
        solve_lyapunov(middle)


def _rk4_literal(dd: DriftDiffusion, V0: np.ndarray, t_final: float,
                 n_steps: int) -> np.ndarray:
    """Plain step-by-step RK4 on the 4x4 matrix ODE (reference for the
    composed propagator of integrate_moment_ode)."""
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


@pytest.mark.parametrize("steps", [1, 2, 37, 40])
def test_composed_rk4_equals_literal_recursion(steps):
    # one step, and even and odd powers of the one-step map
    _, _, dd = _stable_dd()
    scale = float(np.max(np.abs(dd.A)))
    t_final = steps * 1e-2 / scale
    n_steps = max(1, int(math.ceil(t_final / (1e-2 / scale))))
    assert n_steps == steps
    V0 = np.diag([0.5, 0.5, 2.0, 0.1])
    W = integrate_moment_ode(dd, V0, t_final)
    ref = _rk4_literal(dd, V0, t_final, n_steps)
    assert np.max(np.abs(W - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_moment_ode_converges_from_any_start():
    _, _, dd = _stable_dd()
    rep = _classify(dd)
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
        _require_physical(V)


def _random_symplectic(rng, squeeze=0.3):
    """A random two-mode symplectic matrix on (x1, p1, x2, p2): local
    rotations, local and two-mode squeezers of at most ``squeeze`` and a
    beam splitter, then local rotations again."""
    def rotations():
        a, b = rng.uniform(0.0, 2 * math.pi, size=2)
        R = np.zeros((4, 4))
        R[:2, :2] = [[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]]
        R[2:, 2:] = [[math.cos(b), math.sin(b)], [-math.sin(b), math.cos(b)]]
        return R
    r1, r2, r = rng.uniform(-squeeze, squeeze, size=3)
    local = np.diag([math.exp(r1), math.exp(-r1), math.exp(r2), math.exp(-r2)])
    Z = np.diag([1.0, -1.0])
    tms = np.block([[math.cosh(r) * np.eye(2), math.sinh(r) * Z],
                    [math.sinh(r) * Z, math.cosh(r) * np.eye(2)]])
    theta = rng.uniform(0.0, math.pi)
    c, s = math.cos(theta), math.sin(theta)
    bs = np.block([[c * np.eye(2), s * np.eye(2)],
                   [-s * np.eye(2), c * np.eye(2)]])
    return rotations() @ bs @ tms @ local @ rotations()


def _williamson(rng, nu1, nu2):
    """V = S diag(nu1, nu1, nu2, nu2) S^T for a random symplectic S."""
    S = _random_symplectic(rng)
    Omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(S @ Omega @ S.T, Omega, rtol=0.0, atol=1e-13)
    return S @ np.diag([nu1, nu1, nu2, nu2]) @ S.T


def test_physicality_accepts_states_just_above_vacuum():
    # near-pure states, some with nearly coincident symplectic eigenvalues,
    # pass the stacked Cholesky test and the eigen-solve alike
    rng = np.random.default_rng(9)
    margins = 10.0 ** rng.uniform(-14.0, -6.0, size=400)
    gaps = np.where(rng.random(400) < 0.5, 0.0, rng.uniform(0.0, 2.0, 400))
    V = np.stack([_williamson(rng, 0.5 + m, 0.5 + m + g)
                  for m, g in zip(margins, gaps)])
    _require_physical(V)
    nus = symplectic_eigenvalues(V)
    assert np.all(nus.min(axis=-1) >= 0.5 - PHYSICALITY_SLACK)
    assert np.allclose(nus[:, 0], 0.5 + margins, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dip", [1e-8, 1e-6, 1e-4, 1e-2, 1e-1])
def test_physicality_rejects_states_below_vacuum(dip):
    rng = np.random.default_rng(int(-math.log10(dip)))
    good = [_williamson(rng, 0.5 + 1e-12, 0.5 + g)
            for g in rng.uniform(0.0, 1.0, size=6)]
    bad = _williamson(rng, 0.5 - dip, 0.5 + rng.uniform(0.0, 1.0))
    assert symplectic_eigenvalues(bad).min() < 0.5 - PHYSICALITY_SLACK
    with pytest.raises(InternalConsistencyError, match="^covariance violates"):
        _require_physical(bad)
    V = np.stack(good[:4] + [bad] + good[4:])
    pattern = r"^covariance violates the uncertainty relation: " \
              r"symplectic eigenvalues \["
    with pytest.raises(InternalConsistencyError, match=pattern) as exc:
        _require_physical(V)
    assert exc.value.item == 4


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_physicality_rejects_a_nonfinite_covariance(value):
    V = np.stack([0.5 * np.eye(4)] * 3)
    V[1, 2, 3] = V[1, 3, 2] = value
    with pytest.raises(InternalConsistencyError,
                       match="^covariance violates.*not finite") as exc:
        _require_physical(V)
    assert exc.value.item == 1
    with pytest.raises(InternalConsistencyError):
        _require_physical(np.full((4, 4), value))


def test_observables_run_no_eigen_solve(monkeypatch, tmp_path):
    # a steady point and a paired two-value fig2b sweep call eigvals only for
    # the companion matrices and the drift classification
    callers = []
    eigvals = np.linalg.eigvals

    def counting(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return eigvals(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    config = tmp_path / "point.json"
    config.write_text('{"delta_c": "5*kappa", "eta": "2*kappa"}')
    assert main(["steady", "--config", str(config)]) == 0
    assert sorted(callers) == ["_companion_roots", "classify_batch"]
    callers.clear()
    spec = replace(preset_spec("fig2b"), start=4 * KAPPA, stop=5 * KAPPA,
                   count=2)
    rows = run_sweep(spec)
    assert sum(row.covariance is not None for row in rows) >= 4
    assert sorted(set(callers)) == ["_companion_roots", "classify_batch"]
    assert callers.count("classify_batch") == 1


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


# ------------------------------------------------------------ batched engine

def _random_stable_dds(seed, count):
    """Drift/diffusion pairs of strictly stable branches at seeded random
    parameter points (both cross-Kerr settings, bistable region included)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        p = paper_base_params(delta_c=float(rng.uniform(-15.0, 15.0)) * KAPPA,
                              eta=float(rng.uniform(0.1, 6.0)) * KAPPA,
                              omega_sw=float(rng.uniform(0.0, 30.0)) * 2.37e4,
                              ck_enabled=bool(rng.integers(0, 2)))
        d = derive_params(p)
        for b in enumerate_branches(d):
            dd = build_drift_diffusion(d, b)
            rep = _classify(dd)
            if rep.stable and not rep.marginal:
                out.append((dd, rep))
    return out[:count]


def _stacks(dds) -> DriftDiffusion:
    """A list of DriftDiffusion as one DriftDiffusion of stacks, as the batch
    functions take it."""
    return DriftDiffusion(*(np.array(x) for x in zip(*dds)))


def _report(report, i) -> StabilityReport:
    """Item ``i`` of a StabilityReport of stacks as the report of one
    branch."""
    return StabilityReport(tuple(report.eigenvalues[i].tolist()),
                           *(x[i].item() for x in report[1:]))


def _observables(observables, i) -> ObservableSet:
    """Item ``i`` of an ObservableSet of stacks as the set of one branch."""
    return ObservableSet(*(x[i].item() for x in observables))


def test_batched_covariance_matches_scipy_lyapunov_solver():
    linalg = pytest.importorskip("scipy.linalg")
    pairs = _random_stable_dds(11, 60)
    stacks = _stacks([dd for dd, _ in pairs])
    V = lyapunov_batch(stacks, classify_batch(stacks.A, stacks.kappa)).V
    for (dd, _), cov in zip(pairs, V):
        ref = linalg.solve_continuous_lyapunov(dd.A, -dd.D)
        assert np.max(np.abs(cov - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_batch_of_k_is_bitwise_k_batches_of_one():
    pairs = _random_stable_dds(12, 25)
    dds = [dd for dd, _ in pairs]
    stacks = _stacks(dds)
    report = classify_batch(stacks.A, stacks.kappa)
    covs = lyapunov_batch(stacks, report)
    obs = observables_batch(stacks, covs)
    # each stack function returns the record type of its stage
    d, b, single_dd = _stable_dd()
    built = drift_diffusion_stacks([(d, b)])
    assert [type(r) for r in (built, report, covs, obs)] \
        == [DriftDiffusion, StabilityReport, CovarianceMatrix, ObservableSet]
    assert np.array_equal(built.A[0], single_dd.A)
    for i, dd in enumerate(dds):
        rep = _report(report, i)
        assert _classify(dd) == rep
        single = solve_lyapunov(dd)
        assert np.array_equal(single.V, covs.V[i])
        assert single.residual == covs.residual[i]
        assert observable_set(dd, single) == _observables(obs, i)


def _single_branch_chain(d, index):
    """Branch ``index`` of ``d`` through the single-branch API: the branch,
    its DriftDiffusion and StabilityReport, and, on a strictly stable
    branch, its CovarianceMatrix and ObservableSet (else None, None)."""
    b = enumerate_branches(d)[index]
    dd = build_drift_diffusion(d, b)
    rep = _classify(dd)
    if not rep.stable or rep.marginal:
        return b, dd, rep, None, None
    cov = solve_lyapunov(dd)
    return b, dd, rep, cov, observable_set(dd, cov)


@pytest.mark.parametrize("preset", ["fig2b", "fig6", "fig8"])
def test_sweep_rows_equal_the_single_branch_chain_bitwise(preset):
    spec = replace(preset_spec(preset), count=41)
    rows = run_sweep(spec)
    assert {r.ck_enabled for r in rows} == {False, True}
    assert sum(r.covariance is not None for r in rows) >= 41
    for r in rows:
        d = derive_params(replace(spec.base, ck_enabled=r.ck_enabled,
                                  **{spec.var: r.sweep_value}))
        b, dd, rep, cov, obs = _single_branch_chain(d, r.branch_index)
        assert (r.n_photon, r.alpha, r.beta, r.Delta) \
            == (b.n_photon, b.alpha, b.beta, b.Delta)
        assert r.omega_B == dd.omega_B
        assert r.omega_B_ratio == dd.omega_B / bogoliubov_frequency(d, 0.0)
        assert r.max_real_part == rep.max_real_part
        assert r.stable == (cov is not None)
        if cov is None:
            assert r.covariance is None
            assert (r.E_N, r.S_Q, r.S_P, r.n_incoherent) == (None,) * 4
        else:
            assert np.array_equal(r.covariance, cov.V)
            assert (r.E_N, r.S_Q, r.S_P, r.n_incoherent) \
                == (obs.E_N, obs.S_Q, obs.S_P, obs.n_incoherent)


def test_steady_report_equals_the_single_branch_chain_bitwise(tmp_path,
                                                              capsys):
    config = tmp_path / "point.json"
    config.write_text('{"delta_c": "5*kappa", "eta": "2*kappa"}')
    assert main(["steady", "--config", str(config)]) == 0
    report = json.loads(capsys.readouterr().out)
    d = derive_params(paper_base_params(delta_c=5 * KAPPA, eta=2 * KAPPA))
    assert len(report["branches"]) == 3
    for i, branch in enumerate(report["branches"]):
        b, dd, rep, cov, obs = _single_branch_chain(d, i)
        assert branch["n_photon"] == b.n_photon
        assert branch["stability"] == {
            "eigenvalues_re": [z.real for z in rep.eigenvalues],
            "eigenvalues_im": [z.imag for z in rep.eigenvalues],
            "max_real_part": rep.max_real_part,
            "routh_hurwitz_pass": rep.routh_hurwitz_pass,
            "stable": rep.stable, "marginal": rep.marginal}
        assert branch["observables"] == (None if obs is None else {
            name.lower(): value for name, value in obs._asdict().items()})
    assert [b["observables"] is None for b in report["branches"]] \
        == [False, True, False]


def _unit_matrix_operator(A):
    """The Lyapunov operator built from the ten unit symmetric matrices E_k,
    column k being sym_vec(A E_k + (A E_k)^T): the reference for the
    table-built ``_lyapunov_operator``."""
    rows, cols = np.triu_indices(4)
    units = np.zeros((10, 4, 4))
    units[np.arange(10), rows, cols] = 1.0
    units[np.arange(10), cols, rows] = 1.0
    AE = A[..., None, :, :] @ units
    return (AE + AE.swapaxes(-1, -2))[..., rows, cols].swapaxes(-1, -2)


def test_table_lyapunov_operator_equals_the_unit_matrix_product(monkeypatch):
    rng = np.random.default_rng(21)
    for shape in ((4, 4), (1, 4, 4), (37, 4, 4), (3, 5, 4, 4)):
        # entries over many decades, as in a drift matrix
        A = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 8, size=shape)
        L = becck.steadystate._lyapunov_operator(A)
        assert L.shape == shape[:-2] + (10, 10)
        assert np.array_equal(L, _unit_matrix_operator(A))
    for A in (_stable_dd()[2].A, _stable_dd(eta_mult=7.0)[2].A):
        assert np.array_equal(becck.steadystate._lyapunov_operator(A),
                              _unit_matrix_operator(A))

    # the moment-ODE oracle gives the same array with either operator
    _, _, dd = _stable_dd()
    t_final = 50.0 / abs(_classify(dd).max_real_part)
    W = integrate_moment_ode(dd, 0.5 * np.eye(4), t_final)
    monkeypatch.setattr(becck.steadystate, "_lyapunov_operator",
                        _unit_matrix_operator)
    assert np.array_equal(W, integrate_moment_ode(dd, 0.5 * np.eye(4),
                                                  t_final))


def test_a_sweep_makes_one_stacked_linalg_call_per_stage(monkeypatch):
    # a paired two-value fig2b sweep: two companion eigen-solves (degree 9
    # and 3) and one classification, the Lyapunov solve and its refinement,
    # the physicality factorization, and the block and full determinants
    calls = dict.fromkeys(("eigvals", "solve", "cholesky", "det"), 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name,
                            counting(name, getattr(np.linalg, name)))
    spec = replace(preset_spec("fig2b"), start=4 * KAPPA, stop=5 * KAPPA,
                   count=2)
    rows = run_sweep(spec)
    assert sum(row.covariance is not None for row in rows) >= 4
    assert calls == {"eigvals": 3, "solve": 2, "cholesky": 1, "det": 2}


def test_batch_failure_raises_the_loop_exception_naming_the_branch(
        monkeypatch):
    _, _, low = _stable_dd(index=0)
    _, _, middle = _stable_dd(index=1)  # unstable saddle
    _, _, high = _stable_dd(index=2)
    dds = [low, middle, high]
    with pytest.raises(UnstableDriftError) as loop_exc:
        solve_lyapunov(middle)
    assert loop_exc.value.item == 0
    stacks = _stacks(dds)
    report = classify_batch(stacks.A, stacks.kappa)
    with pytest.raises(UnstableDriftError) as batch_exc:
        lyapunov_batch(stacks, report)
    assert str(batch_exc.value) == str(loop_exc.value)
    assert batch_exc.value.item == 1
    # an UnstableDriftError is both an InternalConsistencyError and a
    # ValueError
    assert isinstance(batch_exc.value, InternalConsistencyError)
    assert isinstance(batch_exc.value, ValueError)
    # evaluate_points solves the strictly stable branches among those it
    # selects: of the bistable point's three, of its highest stable one, and
    # of none where no branch is stable and the first is selected
    d = derive_params(paper_base_params(delta_c=5.0 * KAPPA, eta=2.0 * KAPPA))

    def solved(pick):
        return [(i, state is not None)
                for i, _, _, state in evaluate_points([d], pick)[3]]
    assert solved(None) == [(0, True), (1, False), (2, True)]
    assert solved(-1) == [(2, True)]
    with monkeypatch.context() as m:
        m.setattr("becck.sweep.classify_batch", lambda A, kappa: classify_batch(
            A, kappa)._replace(stable=np.zeros(len(A), bool)))
        assert solved(0) == [(0, False)]

    pair = _stacks([low, high])
    covs = lyapunov_batch(pair, classify_batch(pair.A, pair.kappa))
    bad = CovarianceMatrix(V=0.1 * np.eye(4), residual=0.0)
    with pytest.raises(InternalConsistencyError):
        observable_set(low, bad)
    covs.V[1] = bad.V
    with pytest.raises(InternalConsistencyError, match="^covariance") as exc:
        observables_batch(pair, covs)
    assert exc.value.item == 1

    # a Routh-Hurwitz verdict that contradicts the eigenvalues of one item
    import becck.dynamics
    honest = becck.dynamics.routh_hurwitz_quartic

    def flipped(*coefficients):
        verdict = np.array(honest(*coefficients))
        verdict[-1] = ~verdict[-1]
        return verdict

    monkeypatch.setattr(becck.dynamics, "routh_hurwitz_quartic", flipped)
    with pytest.raises(InternalConsistencyError) as loop_exc:
        _classify(high)
    with pytest.raises(InternalConsistencyError,
                       match="^Routh-Hurwitz verdict") as batch_exc:
        classify_batch(stacks.A, stacks.kappa)
    assert str(batch_exc.value) == str(loop_exc.value)
    assert batch_exc.value.item == 2


def test_lyapunov_residual_over_its_bound_is_refused():
    # a NaN in the diffusion matrix gives a NaN residual, which fails too
    stacks = _stacks([_stable_dd()[2]])
    stacks.D[0, 0, 0] = math.nan
    report = classify_batch(stacks.A, stacks.kappa)
    with pytest.raises(InternalConsistencyError,
                       match="^Lyapunov residual nan exceeds bound nan$") as exc:
        lyapunov_batch(stacks, report)
    assert exc.value.item == 0


def test_unrepresentable_step_count_is_refused():
    _, _, dd = _stable_dd()
    for t_final, steps in ((1e30, r"\d\.\d{3}e\+\d+"), (1e300, "inf")):
        with pytest.raises(OverflowError, match=f"required step count "
                           f"{steps} is not representable"):
            integrate_moment_ode(dd, 0.5 * np.eye(4), t_final)


@pytest.mark.parametrize("x, y, c, message", [
    (1.0, 2.0, 2.0, r"negative discriminant -7\.000e\+00"),
    (1.0, 1.0, 2.0, r"nonpositive partial-transpose eigenvalue "
                    r"\(inner=-6\.000e\+00\)"),
], ids=["negative-discriminant", "nonpositive-partial-transpose"])
def test_logarithmic_negativity_refusals(x, y, c, message):
    I2 = np.eye(2)
    V = np.block([[x * I2, c * I2], [c * I2, y * I2]])
    with pytest.raises(InternalConsistencyError, match="^" + message) as exc:
        logarithmic_negativity(np.stack([0.5 * np.eye(4), V]))
    assert exc.value.item == 1


def _three_branch_stacks():
    """The stacks and report of the three fig2b branches at delta_c = 5
    kappa (low, middle, high; the middle one is an unstable saddle)."""
    stacks = _stacks([_stable_dd(index=i)[2] for i in range(3)])
    return stacks, classify_batch(stacks.A, stacks.kappa)


@pytest.mark.parametrize("kind", ["unstable", "marginal", "residual"])
def test_lyapunov_refusals_name_the_last_of_three(kind):
    stacks, report = _three_branch_stacks()
    order = [0, 2, 1] if kind == "unstable" else [0, 2, 0]
    stacks = stacks._make(x[order] for x in stacks)
    report = report._make(x[order] for x in report)
    rate = report.max_real_part[2]
    if kind == "unstable":
        message = (f"drift matrix is unstable (max_real_part={rate:.6e} "
                   "rad/s); no stationary covariance")
    elif kind == "marginal":
        report.marginal[2] = True
        message = (f"drift matrix is marginal (max_real_part={rate:.6e} "
                   "rad/s); no stationary covariance")
    else:
        stacks.D[2, 0, 0] = math.nan
        message = "Lyapunov residual nan exceeds bound nan"
    with pytest.raises(InternalConsistencyError) as exc:
        lyapunov_batch(stacks, report)
    assert (str(exc.value), exc.value.item) == (message, 2)


@pytest.mark.parametrize("x, y, c, message", [
    (1.0, 2.0, 2.0, "negative discriminant -7.000e+00 in symplectic "
                    "spectrum"),
    (1.0, 1.0, 2.0, "nonpositive partial-transpose eigenvalue "
                    "(inner=-6.000e+00)"),
], ids=["negative-discriminant", "nonpositive-partial-transpose"])
def test_logarithmic_negativity_refusals_name_the_last_of_three(x, y, c,
                                                                 message):
    I2 = np.eye(2)
    V = np.block([[x * I2, c * I2], [c * I2, y * I2]])
    with pytest.raises(InternalConsistencyError) as exc:
        logarithmic_negativity(np.stack([0.5 * np.eye(4),
                                         tms_covariance(0.3), V]))
    assert (str(exc.value), exc.value.item) == (message, 2)


def test_evaluate_points_of_a_wholly_stable_stack_equal_a_copying_selection():
    # every branch of these points is strictly stable, so evaluate_points
    # solves its stacks without copying them
    ds = [derive_params(paper_base_params(delta_c=x * KAPPA, eta=2.0 * KAPPA,
                                          ck_enabled=ck))
          for x in (-3.0, 0.0, 12.0) for ck in (False, True)]
    _, stacks, report, evaluated = evaluate_points(ds)
    every = np.arange(len(report.stable))
    assert [(i, state is not None) for i, _, _, state in evaluated] \
        == [(i, True) for i in every]
    copied = stacks._make(x[every] for x in stacks)
    want_covs = lyapunov_batch(copied, report._make(x[every] for x in report))
    want_obs = observables_batch(copied, want_covs)
    for i, _, _, (V, obs) in evaluated:
        assert np.array_equal(V, want_covs.V[i])
        assert obs == _observables(want_obs, i)
