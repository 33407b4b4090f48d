from dataclasses import replace

import numpy as np
import pytest

from becck import (consistency_residual, derive_params, enumerate_branches,
                   paper_base_params, upper_bound_photons)
from becck.meanfield import BISECT_RTOL
from scan_oracle import scan_roots

KAPPA = paper_base_params().kappa


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
            d = derive_params(p.with_ck(ck))
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


def test_ck_shift_is_small_but_nonzero():
    base = dict(delta_c=2 * KAPPA, eta=1 * KAPPA)
    d_on = derive_params(paper_base_params(ck_enabled=True, **base))
    d_off = derive_params(paper_base_params(ck_enabled=False, **base))
    n_on = enumerate_branches(d_on)[0].n_photon
    n_off = enumerate_branches(d_off)[0].n_photon
    assert n_on != n_off
    assert abs(n_on - n_off) / n_off < 0.05
