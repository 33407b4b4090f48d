import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from becck import (BranchSet, InternalConsistencyError, MeanFieldBranch,
                   SystemParams, consistency_residual, derive_params,
                   enumerate_branches, omega_pm, paper_base_params,
                   upper_bound_photons)
from becck import meanfield
from becck.cli import preset_names, preset_spec
from becck.meanfield import (_branch_polynomial, _companion_roots,
                             _root_function, branch_candidates)
from polynomial_oracle import branch_count, branch_polynomial, reference_f
from scan_oracle import scan_roots

KAPPA = paper_base_params().kappa
OMEGA_R = paper_base_params().omega_R
# the scaled root residual reached at the paper's parameters, not a bound
BISECT_RTOL = 1e-12
# delta_a < 0 (g < 0): five self-consistent photon numbers
FIVE_BRANCH = dict(delta_c=12.2 * KAPPA, eta=8.0 * KAPPA,
                   omega_sw=1.57 * OMEGA_R, delta_a=-7.5e11)


def test_undriven_cavity_single_vacuum_branch():
    d = derive_params(paper_base_params(eta=0.0))
    bs = enumerate_branches(d)
    assert len(bs) == 1
    b = bs[0]
    assert b.n_photon == 0.0
    assert b.alpha == 0.0
    assert b.beta == 0.0
    assert b.Delta == d.delta_c
    assert bs.warnings == ()


def test_underflowing_drive_single_vacuum_branch():
    # eta^2 underflows to 0: the vacuum branch, not a division by zero
    d = derive_params(paper_base_params(delta_c=KAPPA, eta=1e-200 * KAPPA))
    bs = enumerate_branches(d)
    assert [b.n_photon for b in bs] == [0.0]
    assert bs.warnings == ()


def test_monostable_point_single_branch():
    d = derive_params(paper_base_params(delta_c=-5 * KAPPA, eta=2 * KAPPA))
    bs = enumerate_branches(d)
    assert len(bs) == 1
    assert bs.warnings == ()


def test_bistable_point_three_ordered_branches():
    d = derive_params(paper_base_params(delta_c=5 * KAPPA, eta=2 * KAPPA))
    bs = enumerate_branches(d)
    assert len(bs) == 3
    assert bs.warnings == ()
    ns = [b.n_photon for b in bs]
    assert ns == sorted(ns)
    assert [b.branch_index for b in bs] == [0, 1, 2]


def test_branch_fields_satisfy_closed_forms():
    d = derive_params(paper_base_params(delta_c=5 * KAPPA, eta=2 * KAPPA))
    for b in enumerate_branches(d):
        den = b.Delta ** 2 + d.kappa ** 2
        assert b.alpha.real == pytest.approx(-d.eta * d.kappa / den,
                                             rel=1e-12)
        assert b.alpha.imag == pytest.approx(d.eta * b.Delta / den, rel=1e-12)
        den2 = b.Omega_plus * b.Omega_minus + d.gamma ** 2
        beta = -d.zeta * b.n_photon * complex(b.Omega_minus, d.gamma) / den2
        assert b.beta == pytest.approx(beta, rel=1e-12)
        assert abs(b.alpha) ** 2 == pytest.approx(b.n_photon, rel=1e-12)
        assert b.Omega_plus - b.Omega_minus == pytest.approx(d.omega_sw)


def test_residuals_tiny_and_normalized():
    d = derive_params(paper_base_params(delta_c=5 * KAPPA, eta=2 * KAPPA))
    for b in enumerate_branches(d):
        assert b.residual <= BISECT_RTOL
        # residual is |f(n)|/eta^2, confirm against the raw root function
        raw = abs(consistency_residual(d, b.n_photon)) / d.eta ** 2
        assert b.residual == pytest.approx(raw, abs=1e-300)


def test_roots_respect_upper_bound():
    for mult in (-8.0, 0.0, 5.0, 12.0):
        d = derive_params(paper_base_params(delta_c=mult * KAPPA,
                                            eta=3 * KAPPA))
        bound = upper_bound_photons(d) * (1.0 + 1e-6)
        for b in enumerate_branches(d):
            assert 0.0 <= b.n_photon <= bound


def test_against_independent_cubic_solver_ck_off():
    """With the cross-Kerr term off, Delta is affine in n and the root
    function is an exact cubic; numpy's companion-matrix solver provides an
    independent cross-check of the bracket-and-bisect enumeration."""
    d = derive_params(paper_base_params(delta_c=5 * KAPPA, eta=2 * KAPPA,
                                        ck_enabled=False))
    om = d.Omega_c - 0.5 * d.omega_sw
    op = d.Omega_c + 0.5 * d.omega_sw
    c1 = -2.0 * d.zeta ** 2 * om / (op * om + d.gamma ** 2)
    poly = [c1 ** 2, 2.0 * d.delta_c * c1,
            d.delta_c ** 2 + d.kappa ** 2, -d.eta ** 2]
    roots = np.roots(poly)
    real = sorted(r.real for r in roots
                  if abs(r.imag) <= 1e-9 * max(abs(r), 1.0) and r.real >= 0)
    mine = [b.n_photon for b in enumerate_branches(d)]
    assert len(real) == len(mine) == 3
    for a, b in zip(real, mine):
        assert b == pytest.approx(a, rel=1e-9)


def test_consistency_residual_vectorized():
    d = derive_params(paper_base_params(delta_c=5 * KAPPA, eta=2 * KAPPA))
    grid = np.linspace(0.0, upper_bound_photons(d), 7)
    vec = consistency_residual(d, grid)
    assert vec.shape == grid.shape
    for g, v in zip(grid, vec):
        assert consistency_residual(d, float(g)) == pytest.approx(v)


def test_near_fold_root_pair_matches_scan_oracle():
    # near a fold two roots sit closer than one cell of a 101-point scan
    # (the scan needs its refinement pass and flags the pair); the
    # polynomial enumeration must find all three without a warning
    d = derive_params(paper_base_params(delta_c=5 * KAPPA,
                                        eta=1.4789473 * KAPPA))
    _, coarse_warnings = scan_roots(d, grid_points=101)
    assert "adjacent-brackets" in coarse_warnings
    ref, ref_warnings = scan_roots(d)
    assert len(ref) == 3 and ref_warnings == ()
    bs = enumerate_branches(d)
    assert len(bs) == 3
    assert bs.warnings == ()
    for b, r in zip(bs, ref):
        assert b.n_photon == pytest.approx(r, rel=1e-9)
        assert b.residual <= BISECT_RTOL


def test_random_points_match_scan_oracle():
    base = paper_base_params()
    rng = np.random.default_rng(0)
    for _ in range(300):
        p = replace(base, delta_c=float(rng.uniform(-20.0, 20.0)) * KAPPA,
                    eta=float(rng.uniform(0.0, 8.0)) * KAPPA,
                    omega_sw=float(rng.uniform(0.0, 40.0)) * base.omega_R)
        for ck in (False, True):
            d = derive_params(replace(p, ck_enabled=ck))
            ref, _ = scan_roots(d)
            mine = [b.n_photon for b in enumerate_branches(d)]
            assert len(mine) == len(ref), (p, ck)
            for a, r in zip(mine, ref):
                assert a == pytest.approx(r, rel=1e-9), (p, ck)


def test_branch_set_sequence_protocol():
    d = derive_params(paper_base_params(delta_c=5 * KAPPA, eta=2 * KAPPA))
    bs = enumerate_branches(d)
    assert len(list(bs)) == len(bs) == 3
    assert bs[0].n_photon < bs[1].n_photon < bs[2].n_photon
    assert bs[-1].n_photon == bs[2].n_photon


@pytest.mark.parametrize("k", range(6))
def test_branch_set_is_a_tuple_that_warns_off_one_or_three(k):
    branches = tuple(MeanFieldBranch(float(i), 0j, 0j, 0.0, 1.0, 1.0, i, 0.0)
                     for i in range(k))
    bs = BranchSet(iter(branches))
    assert bs == branches and len(bs) == k
    assert list(bs) == [bs[i] for i in range(k)] == list(branches)
    assert bs.warnings == (() if k in (1, 3) else (f"branch-count={k}",))


def test_ck_shift_is_small_but_nonzero():
    base = dict(delta_c=2 * KAPPA, eta=1 * KAPPA)
    d_on = derive_params(paper_base_params(ck_enabled=True, **base))
    d_off = derive_params(paper_base_params(ck_enabled=False, **base))
    n_on = enumerate_branches(d_on)[0].n_photon
    n_off = enumerate_branches(d_off)[0].n_photon
    assert n_on != n_off
    assert abs(n_on - n_off) / n_off < 0.05


def _preset_points(rng, per_preset):
    """DerivedParams at random sweep values of every preset, ck off and on."""
    for name in preset_names():
        spec = preset_spec(name)
        for value in rng.uniform(spec.start, spec.stop, per_preset).tolist():
            for ck in (False, True):
                yield derive_params(replace(spec.base, ck_enabled=ck,
                                            **{spec.var: value}))


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def test_branch_polynomial_matches_convolve_oracle():
    points = list(_preset_points(np.random.default_rng(1), 20))
    points.append(derive_params(replace(paper_base_params(), **FIVE_BRANCH)))
    for d in points:
        n_hi = upper_bound_photons(d) * (1.0 + 1e-6)
        ref = branch_polynomial(d, n_hi)
        mine = np.array(_branch_polynomial(d, n_hi))
        assert np.max(np.abs(mine - ref)) <= 1e-12 * np.max(np.abs(ref)), d
        if not d.ck_enabled:  # g = 0: exact leading zeros leave a cubic
            assert not mine[:6].any() and mine[6] != 0.0


def test_root_function_bitwise_equals_reference_f():
    rng = np.random.default_rng(2)
    for d in _preset_points(rng, 10):
        n_hi = upper_bound_photons(d) * (1.0 + 1e-6)
        ns = np.concatenate(([0.0, n_hi], rng.uniform(0.0, n_hi, 20)))
        f = _root_function(d)
        assert np.array_equal(_bits(f(ns)), _bits(reference_f(d, ns)))
        for n in ns.tolist():
            assert _bits(f(n)) == _bits(reference_f(d, n)), (d, n)


def test_root_function_where_den_vanishes():
    # Omega_minus(0)*Omega_plus(0) underflows to 0 and gamma = 0: den(0) = 0
    d = derive_params(SystemParams(omega_R=1e-300, omega_sw=0.0, gamma=0.0,
                                   eta=KAPPA))
    f = _root_function(d)
    for fn in (f, lambda n: reference_f(d, n)):
        with pytest.raises(ZeroDivisionError):
            fn(0.0)
    ns = np.array([0.0, 1.0])
    with np.errstate(all="ignore"):
        assert np.array_equal(_bits(f(ns)), _bits(reference_f(d, ns)))
    # with g = zeta = 0 as well, den = 0 everywhere and f is nan on every
    # separator, as on an array: no sign change, not ZeroDivisionError
    d = derive_params(SystemParams(g0=1e-200, omega_R=1e-300, omega_sw=0.0,
                                   gamma=0.0, eta=KAPPA))
    with np.errstate(all="ignore"), pytest.raises(
            InternalConsistencyError, match="no sign change"):
        enumerate_branches(d)


def test_branch_counts_and_warnings_match_oracle_on_every_preset_point(
        preset_rows):
    for name in preset_names():
        spec = preset_spec(name)
        points = {(r.sweep_value, r.ck_enabled): (r.n_branches, tuple(
            w for w in r.warnings if w.startswith("branch-count")))
            for r in preset_rows(name)}
        for (value, ck), got in points.items():
            d = derive_params(replace(spec.base, ck_enabled=ck,
                                      **{spec.var: value}))
            # fig5 starts at eta = 0, the vacuum branch
            want = (1, ()) if d.eta == 0.0 else branch_count(d)
            assert got == want, (name, value, ck)


def test_branch_count_warning_matches_oracle():
    d = derive_params(replace(paper_base_params(), **FIVE_BRANCH))
    bs = enumerate_branches(d)
    assert (len(bs), bs.warnings) == branch_count(d) == (5, ("branch-count=5",))
    ns = [b.n_photon for b in bs]
    assert ns == sorted(ns) and max(b.residual for b in bs) <= BISECT_RTOL


@pytest.mark.parametrize("p", [
    [0.0, 0.0, 1.0, -3.0, 2.0],
    [1.0, -3.0, 2.0, 0.0, 0.0],
    [0.0, 2.0, 0.0, -1.0, 0.0],
    [0.0, 1.0, 1.0, 1.0],
    [0.0, 0.0, 5.0, 0.0],
    [0.0, 0.0, 0.0],
    [3.0],
    np.random.default_rng(3).normal(size=10).tolist(),
], ids=["leading-zeros", "trailing-zeros", "both", "complex-pair",
        "constant-times-x", "zero", "constant", "degree-9"])
def test_companion_roots_match_np_roots(p):
    (roots,) = _companion_roots([p])
    assert np.array_equal(np.array(roots), np.roots(p))


def _complex_bits(roots):
    z = np.asarray(roots, dtype=complex)
    return np.stack([_bits(z.real), _bits(z.imag)])


def test_stacked_companion_roots_bitwise_equal_np_roots():
    rng = np.random.default_rng(4)
    polys = [[0.0, 0.0, 1.0, -3.0, 2.0], [1.0, -3.0, 2.0, 0.0, 0.0],
             [0.0, 2.0, 0.0, -1.0, 0.0], [0.0, 1.0, 1.0, 1.0], [3.0],
             [0.0, 0.0, 0.0]]
    polys += [rng.normal(size=m).tolist() for m in (10, 10, 4, 7, 10, 4)]
    # branch polynomials: degree 9 with cross-Kerr on, a cubic (six leading
    # zeros) with it off
    for d in _preset_points(np.random.default_rng(5), 2):
        polys.append(_branch_polynomial(d, upper_bound_photons(d)
                                        * (1.0 + 1e-6)))
    p = list(polys[-1])
    p[-2:] = [0.0, 0.0]  # two roots at 0 after a degree-7 companion
    polys.append(p)
    rng.shuffle(polys)
    stacked = _companion_roots(polys)
    assert len(stacked) == len(polys)
    for p, roots in zip(polys, stacked):
        (alone,) = _companion_roots([p])
        assert np.array_equal(_complex_bits(roots), _complex_bits(alone)), p
        assert np.array_equal(_complex_bits(roots),
                              _complex_bits(np.roots(p))), p


def test_stacked_eigen_solve_once_per_companion_size(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(meanfield.np.linalg, "eigvals", counted)
    ds = list(_preset_points(np.random.default_rng(6), 1))
    branch_candidates(ds)
    assert sorted(calls) == [(9, 3, 3), (9, 9, 9)]


def test_unconverged_stack_falls_back_to_points_alone(monkeypatch):
    ds = list(_preset_points(np.random.default_rng(7), 1))
    want = [enumerate_branches(d) for d in ds]
    eigvals = np.linalg.eigvals

    def stack_fails(a):
        if a.shape[0] > 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(meanfield.np.linalg, "eigvals", stack_fails)
    candidates = branch_candidates(ds)
    assert candidates == [None] * len(ds)
    assert [enumerate_branches(d, x) for d, x in zip(ds, candidates)] == want


def test_overflowing_point_in_a_batch_raises_its_own_error():
    base = paper_base_params(delta_c=5 * KAPPA)
    ds = [derive_params(replace(base, ck_enabled=ck) if eta is None else
                        replace(base, eta=eta, ck_enabled=ck))
          for eta in (2 * KAPPA, 1e160 * KAPPA, 1e154 * KAPPA, None)
          for ck in (False, True)]
    candidates = branch_candidates(ds)
    assert [x is None for x in candidates] == [False] * 2 + [True] * 4 + [
        False] * 2
    k = 2  # the first overflowing point
    with pytest.raises(InternalConsistencyError) as alone:
        enumerate_branches(ds[k])
    with pytest.raises(InternalConsistencyError) as batched:
        [enumerate_branches(d, x) for d, x in zip(ds, candidates)]
    assert str(batched.value) == str(alone.value)
    assert "overflows at eta = " in str(alone.value)


def test_bracket_polish_cuts_root_function_calls(monkeypatch):
    counts = []

    def counting(d):
        f = _root_function(d)

        def counted(n, state=False):
            counts[-1] += 1
            return f(n, state=state)

        return counted

    monkeypatch.setattr(meanfield, "_root_function", counting)
    spec = preset_spec("fig2b")
    ds = [derive_params(replace(spec.base, ck_enabled=ck, delta_c=value))
          for value in spec.grid().tolist() for ck in (False, True)]
    per_run = []
    for _ in range(2):
        counts.append(0)
        roots = sum(len(enumerate_branches(d)) for d in ds)
        per_run.append(counts[-1] / roots)
    assert per_run[0] == per_run[1] <= 20.0


def test_huge_drives_warn_nothing_and_overflows_name_eta():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # f overflows at the root: one branch, with a residual that is not
        # finite (``steady`` refuses it, see tests/test_cli.py)
        bs = enumerate_branches(derive_params(paper_base_params(
            eta=1e150 * KAPPA)))
        assert len(bs) == 1 and not math.isfinite(bs[0].residual)
        # the branch polynomial overflows: its drive term, and zeta/kappa
        # squared
        for params in (paper_base_params(eta=1e154 * KAPPA),
                       paper_base_params(eta=1e160 * KAPPA),
                       paper_base_params(kappa=1e-150, eta=1e-150)):
            with pytest.raises(InternalConsistencyError,
                               match="overflows at eta = "):
                enumerate_branches(derive_params(params))


@pytest.mark.parametrize("omega_sw_mult,eta_c_kappa", [(1.0, 0.775629),
                                                       (10.0, 1.438668)])
def test_kerr_cusp_closed_form(omega_sw_mult, eta_c_kappa):
    # Cross-Kerr off: Delta = delta_c - chi*n, the Kerr bistability cubic,
    # whose cusp sits at delta_c = sqrt(3)*kappa and
    # eta_c^2 = 8*kappa^3/(3*sqrt(3)*chi) (Drummond & Walls, J. Phys. A 13,
    # 725 (1980))
    base = paper_base_params(ck_enabled=False,
                             omega_sw=omega_sw_mult * OMEGA_R)
    d = derive_params(base)
    om, op = omega_pm(d, 0.0)
    chi = 2.0 * d.zeta ** 2 * om / (op * om + d.gamma ** 2)
    eta_c = math.sqrt(8.0 * KAPPA ** 3 / (3.0 * math.sqrt(3.0) * chi))
    assert abs(eta_c / KAPPA - eta_c_kappa) <= 1e-6
    grid = np.linspace(1.70, 1.80, 201) * KAPPA
    for factor, bistable in ((0.99, False), (1.01, True)):
        counts = {dc: len(enumerate_branches(derive_params(replace(
            base, eta=factor * eta_c, delta_c=dc)))) for dc in grid.tolist()}
        three = [dc for dc, c in counts.items() if c == 3]
        assert set(counts.values()) == ({1, 3} if bistable else {1}), factor
        assert all(dc > math.sqrt(3.0) * KAPPA for dc in three)


# ------------------------------------------------- Illinois root polish

def _recording(f):
    """``f`` that records each point it is called at, in ``.points``."""
    def g(x):
        g.points.append(x)
        return f(x)

    g.points = []
    return g


def _bisect_to_exhaustion(f, lo, hi, flo, fhi, tries=()):
    """The reference polish: ``tries`` as in ``_bisect``, then bisection
    until f is 0 or the bracket is two adjacent floats."""
    for x in tries:
        if lo < x < hi:
            fx = f(x)
            if fx == 0.0:
                return x
            if (fx < 0.0) == (flo < 0.0):
                lo = x
            else:
                hi = x
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid


def test_polish_returns_an_exact_zero_at_a_try_or_a_secant_point():
    f = _recording(lambda x: x - 0.25)
    assert meanfield._bisect(f, 0.0, 1.0, -0.25, 0.75, (0.5, 0.25)) == 0.25
    assert f.points == [0.5, 0.25]
    # the secant point of a line is its root
    f = _recording(lambda x: x - 0.25)
    assert meanfield._bisect(f, 0.0, 1.0, -0.25, 0.75) == 0.25
    assert f.points == [0.25]
    # a try outside the bracket is skipped
    f = _recording(lambda x: 0.25 - x)
    assert meanfield._bisect(f, 0.0, 1.0, 0.25, -0.75, (2.0,)) == 0.25
    assert f.points == [0.25]


@pytest.mark.parametrize("flo, fhi", [(-math.inf, 1.0), (math.nan, -1.0)])
def test_a_secant_point_not_strictly_inside_gives_the_midpoint(flo, fhi):
    # the secant point is NaN
    f = _recording(lambda x: x - 1.25 if flo < 0.0 else 1.25 - x)
    assert meanfield._bisect(f, 1.0, 2.0, flo, fhi) == 1.25
    assert f.points[0] == 1.5


@pytest.mark.parametrize("flo, fhi, first", [
    (-1e-300, 1.0, math.nextafter(1.0, 2.0)),
    (-1.0, math.inf, math.nextafter(1.0, 2.0)),
    (-1.0, 1e-300, math.nextafter(2.0, 1.0))],
    ids=["tiny-flo", "infinite-fhi", "tiny-fhi"])
def test_a_secant_point_on_an_end_moves_one_float_inside(flo, fhi, first):
    f = _recording(lambda x: x - 1.25)
    assert meanfield._bisect(f, 1.0, 2.0, flo, fhi) == 1.25
    assert f.points[0] == first


def _adjacent_sign_change(f, root):
    """True when f changes sign between ``root`` and a float neighbour."""
    below, above = np.nextafter(root, -math.inf), np.nextafter(root, math.inf)
    return ((f(below) < 0.0) != (f(root) < 0.0)
            or (f(root) < 0.0) != (f(above) < 0.0))


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: x * x - 2.0, 1.0, 2.0),
    (lambda x: math.exp(x) - 3.0, 0.0, 4.0),
    (lambda x: 1.0 / 3.0 - x ** 9, 0.0, 1.0),
])
def test_polish_ends_on_two_adjacent_floats_with_a_sign_change(f, lo, hi):
    got = meanfield._bisect(f, lo, hi, f(lo), f(hi))
    want = _bisect_to_exhaustion(f, lo, hi, f(lo), f(hi))
    assert f(got) != 0.0 and _adjacent_sign_change(f, got)
    assert abs(got - want) <= 4 * np.spacing(want)


def test_the_cap_bounds_a_polish_that_stalls_regula_falsi():
    # f is -1 below 0.7 and huge above: every secant point lands next to
    # lo, so regula falsi (and Illinois halving, which needs about 1000
    # halvings of f(hi)) creeps; two steps in a row that halve neither the
    # bracket nor |f| force a midpoint, at most three calls per halving
    f = _recording(lambda x: -1.0 if x < 0.7 else 1e300)
    got = meanfield._bisect(f, 0.0, 1.0, -1.0, 1e300)
    assert f(got) == 1e300 and f(np.nextafter(got, 0.0)) == -1.0
    assert len(f.points) <= 3 * 55


def test_polish_matches_bisection_to_exhaustion_on_every_preset(monkeypatch):
    # over the nine presets (both cross-Kerr settings) the polish finds the
    # branches that bisection to exhaustion finds, each photon number within
    # 1e-14 relative (measured: 3.2e-15), with 3.93 f calls per root on
    # average and at most 9 (measured)
    illinois, calls = meanfield._bisect, []

    def counted(f, *args):
        def g(n):
            calls[-1] += 1
            return f(n)

        calls.append(0)
        return illinois(g, *args)

    for name in preset_names():
        spec = preset_spec(name)
        for value in spec.grid().tolist():
            for ck in (False, True):
                d = derive_params(replace(spec.base, ck_enabled=ck,
                                          **{spec.var: value}))
                monkeypatch.setattr(meanfield, "_bisect", counted)
                got = enumerate_branches(d)
                monkeypatch.setattr(meanfield, "_bisect",
                                    _bisect_to_exhaustion)
                want = enumerate_branches(d)
                assert len(got) == len(want), (name, value, ck)
                for a, b in zip(got, want):
                    assert a.n_photon == pytest.approx(b.n_photon, rel=1e-14,
                                                       abs=0.0)
                    assert a.residual <= BISECT_RTOL
    assert len(calls) > 11000
    assert sum(calls) / len(calls) <= 4.5 and max(calls) <= 11
