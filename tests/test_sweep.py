import json
import random
import time
from dataclasses import fields, replace
from typing import NamedTuple

import numpy as np
import pytest

from becck import (DerivedParams, DomainError, InternalConsistencyError,
                   StabilityReport, SweepSpec, derive_params,
                   paper_base_params, run_sweep)
from becck.cli import main, preset_names, preset_spec, row_to_csv
from becck.sweep import (MAX_GRID_COUNT, _grid_params, _rows_for_points,
                         classify_points)
from criteria import bistable_window, ck_comparison_metrics

KAPPA = paper_base_params().kappa


def _spec(lo, hi, count, policy="all", ck_mode="paired", var="delta_c",
          **base_overrides):
    base = paper_base_params(eta=2 * KAPPA, **base_overrides)
    return SweepSpec(var=var, start=lo * KAPPA, stop=hi * KAPPA, count=count,
                     base=base, ck_mode=ck_mode, branch_policy=policy)


def test_preset_table():
    assert preset_names() == ("fig2a", "fig2b", "fig3a", "fig3b", "fig4",
                              "fig5", "fig6", "fig7", "fig8")
    for name in preset_names():
        spec = preset_spec(name)
        assert spec.count == 501
        assert spec.ck_mode == "paired"
    assert preset_spec("fig5").var == "eta"
    assert preset_spec("fig8").var == "omega_sw"
    with pytest.raises(ValueError, match="unknown preset"):
        preset_spec("fig99")


def test_preset_spec_is_cached_and_equals_a_fresh_build():
    for name in preset_names():
        cached, fresh = preset_spec(name), preset_spec.__wrapped__(name)
        assert preset_spec(name) is cached
        for field in fields(SweepSpec):
            assert getattr(cached, field.name) == getattr(fresh, field.name)


def test_config_overrides_leave_the_cached_preset_unchanged():
    from becck.cli import build_config, sweep_spec_from_config
    cfg = build_config({"preset": "fig2a", "sweep_count": 7,
                        "sweep_min": "-3*kappa"})
    spec = sweep_spec_from_config(cfg)
    assert (spec.count, spec.start) == (7, -3 * KAPPA)
    assert preset_spec("fig2a") == preset_spec.__wrapped__("fig2a")
    assert (preset_spec("fig2a").count, preset_spec("fig2a").start) == (
        501, -10 * KAPPA)


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(0.0, 1.0, 1)  # single-point grid
    with pytest.raises(ValueError):
        _spec(1.0, 1.0, 5)  # empty interval
    with pytest.raises(ValueError):
        _spec(0.0, 1.0, 5, policy="best")
    with pytest.raises(ValueError):
        _spec(0.0, 1.0, 5, ck_mode="both")
    with pytest.raises(ValueError):
        _spec(0.0, 1.0, 5, var="tuning")


@pytest.mark.parametrize("count", [MAX_GRID_COUNT + 1, 10 ** 400])
def test_spec_rejects_grids_above_the_bound(count):
    # rejected in __post_init__, before a grid is allocated
    with pytest.raises(ValueError, match=str(MAX_GRID_COUNT)):
        _spec(0.0, 1.0, count)
    assert _spec(0.0, 1.0, MAX_GRID_COUNT).count == MAX_GRID_COUNT


def test_grid_endpoints():
    g = _spec(-1.0, 2.0, 7).grid()
    assert g[0] == -1.0 * KAPPA
    assert g[-1] == 2.0 * KAPPA
    assert len(g) == 7


def test_row_ordering_paired_all():
    rows = run_sweep(_spec(4.9, 5.1, 3))
    values = sorted({r.sweep_value for r in rows})
    assert len(values) == 3
    cursor = 0
    for v in values:
        chunk = [r for r in rows if r.sweep_value == v]
        # grid-major: each value's rows form one contiguous block
        block = rows[cursor:cursor + len(chunk)]
        assert [id(r) for r in block] == [id(r) for r in chunk]
        # branch-major, cross-Kerr off before on inside each branch
        key = [(r.branch_index, r.ck_enabled) for r in chunk]
        assert key == sorted(key)
        assert [r.branch_index for r in chunk] == [0, 0, 1, 1, 2, 2]
        cursor += len(chunk)
    assert all(a.sweep_value <= b.sweep_value
               for a, b in zip(rows, rows[1:]))


def test_branch_policies():
    lowest = run_sweep(_spec(4.9, 5.1, 2, policy="lowest", ck_mode="on"))
    highest = run_sweep(_spec(4.9, 5.1, 2, policy="highest", ck_mode="on"))
    assert [r.branch_index for r in lowest] == [0, 0]
    assert [r.branch_index for r in highest] == [2, 2]
    assert all(r.stable for r in lowest + highest)
    assert all(r.n_branches == 3 for r in lowest + highest)


def test_parallel_run_is_bitwise_deterministic():
    spec = _spec(3.8, 4.4, 5)
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert row_to_csv(a) == row_to_csv(b)
        assert a.warnings == b.warnings
        if a.covariance is None:
            assert b.covariance is None
        else:
            assert np.array_equal(a.covariance, b.covariance)


def test_unstable_middle_branch_has_no_observables():
    rows = run_sweep(_spec(4.9, 5.1, 2))
    middles = [r for r in rows if r.branch_index == 1]
    assert middles
    for r in middles:
        assert r.stable is False
        assert r.E_N is None and r.S_Q is None and r.S_P is None
        assert r.n_incoherent is None
        assert r.covariance is None
        assert r.max_real_part > 0.0
        assert r.bogoliubov_ok is None


def test_omega_b_ratio_is_unity_without_cross_kerr():
    rows = run_sweep(_spec(4.9, 5.1, 3))
    for r in rows:
        if not r.ck_enabled:
            assert r.omega_B_ratio == 1.0
        elif r.n_photon > 0:
            assert r.omega_B_ratio > 1.0


def test_eta_sweep_variable():
    spec = _spec(0.0, 1.0, 3, var="eta", ck_mode="on", policy="lowest")
    rows = run_sweep(spec)
    assert [r.sweep_var for r in rows] == ["eta"] * 3
    assert rows[0].sweep_value == 0.0
    assert rows[0].n_photon == 0.0
    assert rows[0].stable is True


def test_bistable_window_detection():
    rows = run_sweep(_spec(4.9, 5.1, 3))
    win = bistable_window(rows)
    assert win == (4.9 * KAPPA, 5.1 * KAPPA)
    off_only = bistable_window([r for r in rows if not r.ck_enabled])
    assert off_only == win
    none_rows = run_sweep(_spec(-5.0, -4.0, 3))
    assert bistable_window(none_rows) is None


def test_ck_comparison_metrics_paired_lowest():
    m = ck_comparison_metrics(
        run_sweep(_spec(-2.0, 0.0, 5, policy="lowest")))
    assert m.values.shape == (5,)
    assert m.differences.shape == (5,)
    assert np.all(m.differences >= 0.0)
    assert m.max_difference == m.differences.max()
    assert m.argmax_value in m.values
    assert m.skipped == ()


class _PairedRow(NamedTuple):
    sweep_value: float
    ck_enabled: bool
    n_photon: float
    warnings: tuple = ()


def test_ck_comparison_keeps_first_seen_order_of_shuffled_rows():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    rows = [_PairedRow(v, ck, v * (1.0 + 0.5 * ck),
                       ("no-stable-branch",) * (v == 4.0 and ck))
            for v in values for ck in (False, True)]
    random.Random(1).shuffle(rows)
    seen = list(dict.fromkeys(r.sweep_value for r in rows))
    m = ck_comparison_metrics(rows)
    assert m.values.tolist() == [v for v in seen if v != 4.0]
    assert m.skipped == (4.0,)
    assert m.differences.tolist() == [0.5] * 4
    assert (m.max_difference, m.argmax_value) == (0.5, m.values[0])


def test_ck_comparison_is_linear_in_the_grid_size():
    # first-seen order was once a list searched per row: 32000 points took
    # 16.5 s, so a grid of MAX_GRID_COUNT points would take minutes
    rows = [_PairedRow(float(i), ck, 1.0 + ck) for i in range(MAX_GRID_COUNT)
            for ck in (False, True)]
    start = time.perf_counter()
    m = ck_comparison_metrics(rows)
    assert time.perf_counter() - start < 10.0
    assert m.values.size == MAX_GRID_COUNT
    assert m.max_difference == 1.0


def test_ck_comparison_rejects_multibranch_rows():
    rows = run_sweep(_spec(4.9, 5.1, 2))  # policy 'all' at a bistable point
    with pytest.raises(ValueError):
        ck_comparison_metrics(rows)


def test_no_stable_branch_marker(monkeypatch):
    def verdict_unstable(A, kappa):
        n = len(A)
        return StabilityReport(
            eigenvalues=np.full((n, 4), 1.0 + 0j), max_real_part=np.ones(n),
            routh_hurwitz_pass=np.zeros(n, bool), stable=np.zeros(n, bool),
            marginal=np.zeros(n, bool))

    monkeypatch.setattr("becck.sweep.classify_batch", verdict_unstable)
    rows = run_sweep(_spec(-1.0, 0.0, 2, policy="lowest", ck_mode="on"),
                     workers=1)
    assert len(rows) == 2
    for r in rows:
        assert r.branch_index == 0
        assert r.stable is False
        assert "no-stable-branch" in r.warnings
        assert r.E_N is None
        assert r.covariance is None


def test_one_batch_gives_the_rows_of_one_batch_per_point():
    spec = _spec(3.8, 5.1, 6)
    batched = run_sweep(spec)
    single = [row for v in spec.grid() for row in _rows_for_points(spec, [v])]
    assert len(batched) == len(single)
    for a, b in zip(batched, single):
        assert row_to_csv(a) == row_to_csv(b)
        assert a.warnings == b.warnings
        assert a.max_real_part == b.max_real_part
        if a.covariance is None:
            assert b.covariance is None
        else:
            assert np.array_equal(a.covariance, b.covariance)


def test_sweep_failure_names_the_point_and_branch(monkeypatch):
    # with no slack below 1/2 + 1 every covariance fails the physicality
    # check; the first solved branch of the batch is named
    monkeypatch.setattr("becck.steadystate.PHYSICALITY_SLACK", -1.0)
    with pytest.raises(InternalConsistencyError,
                       match=r"^delta_c=-\d.*ck=False branch 0: covariance"):
        run_sweep(_spec(-1.0, 0.0, 2, policy="lowest"))


_STAGE_FAILURES = {"physicality": "covariance violates the uncertainty "
                   "relation: symplectic eigenvalues [",
                   "residual": "Lyapunov residual nan exceeds bound nan"}


@pytest.mark.parametrize("kind", _STAGE_FAILURES)
def test_a_failure_past_the_first_solved_branch_names_its_own_branch(
        monkeypatch, tmp_path, capsys, kind):
    # only the second solved branch fails: at a bistable point that is
    # branch 2, position 1 of the solved items but 2 of the branch stack
    import becck.sweep
    honest = becck.sweep.lyapunov_batch

    def spoiled(dd, report):
        if kind == "residual":
            dd.D[1, 0, 0] = np.nan
        cov = honest(dd, report)
        if kind == "physicality":
            cov.V[1] = 0.1 * np.eye(4)
        return cov

    monkeypatch.setattr(becck.sweep, "lyapunov_batch", spoiled)
    with pytest.raises(InternalConsistencyError) as exc:
        run_sweep(_spec(4.9, 5.1, 3))
    assert str(exc.value).startswith(
        f"delta_c={4.9 * KAPPA!r} eta={2 * KAPPA!r} omega_sw=23700.0 "
        f"ck=False branch 2: {_STAGE_FAILURES[kind]}")
    config = tmp_path / "steady.json"
    config.write_text(json.dumps({"delta_c": "5*kappa", "eta": "2*kappa"}))
    assert main(["steady", "--config", str(config)]) == 3
    assert capsys.readouterr().err.startswith(
        f"internal consistency error: delta_c={5 * KAPPA!r} "
        f"eta={2 * KAPPA!r} omega_sw=23700.0 ck=True branch 2: "
        f"{_STAGE_FAILURES[kind]}")


def test_ck_comparison_rejects_mismatched_grids():
    rows = run_sweep(_spec(-2.0, 0.0, 3, policy="lowest"))
    on = [i for i, r in enumerate(rows) if r.ck_enabled]
    del rows[on[-1]]
    with pytest.raises(ValueError, match="mismatched grids"):
        ck_comparison_metrics(rows)


def test_ck_comparison_skips_a_point_without_a_stable_branch():
    rows = run_sweep(_spec(-2.0, 0.0, 3, policy="lowest"))
    flagged = rows[2]._replace(warnings=rows[2].warnings + (
        "no-stable-branch",))
    rows[2] = flagged
    m = ck_comparison_metrics(rows)
    assert m.skipped == (flagged.sweep_value,)
    assert flagged.sweep_value not in m.values
    assert m.values.shape == (2,)


@pytest.mark.parametrize("ck", [False, True])
@pytest.mark.parametrize("preset", ["fig2b", "fig5", "fig8"])
def test_grid_points_equal_their_own_derivation_bitwise(preset, ck):
    # one derivation per ck setting, over a delta_c, an eta and an omega_sw
    # grid; repr tells every float apart, -0.0 from 0.0 included
    spec = preset_spec(preset)
    grid = spec.grid()
    points = _grid_params(spec, grid, ck)
    assert len(points) == len(grid)
    for d, value in zip(points, grid):
        own = derive_params(replace(spec.base, ck_enabled=ck,
                                    **{spec.var: float(value)}))
        assert type(d) is DerivedParams
        assert [(type(x), repr(x)) for x in d] == [
            (type(x), repr(x)) for x in own]


@pytest.mark.parametrize("var, lo, hi", [
    ("delta_c", -1e308, 1e308),  # the step overflows: nan, inf, 1e308
    ("eta", -1e308, 1e308),      # nan first, though the range starts < 0
    ("eta", -1.0, 1.0),
    ("omega_sw", -1.0, 1.0),
    ("eta", 1.0, np.inf),
])
def test_a_grid_outside_the_domain_raises_the_first_points_refusal(var, lo,
                                                                   hi):
    base = paper_base_params()
    with np.errstate(all="ignore"):
        grid = np.linspace(lo, hi, 3)
    messages = []
    for value in grid:  # the parameters of each point, in grid order
        try:
            replace(base, **{var: float(value)})
        except DomainError as exc:
            messages.append(str(exc))
    with pytest.raises(DomainError) as exc:
        SweepSpec(var=var, start=lo, stop=hi, count=3, base=base)
    assert str(exc.value) == messages[0]


def test_branch_names_are_made_when_read(monkeypatch):
    # a stage reports the stack position of its failing branch, which
    # classify_points names from the branch's own point
    spec = _spec(4.0, 5.0, 2)
    ds = [derive_params(replace(spec.base, ck_enabled=ck, delta_c=float(v)))
          for v in spec.grid() for ck in (False, True)]
    _, branches, _, _ = classify_points(ds)
    assert len(branches) > len(ds)
    expected = [f"delta_c={ds[p].delta_c!r} eta={ds[p].eta!r} "
                f"omega_sw={ds[p].omega_sw!r} ck={ds[p].ck_enabled} "
                f"branch {b.branch_index}" for p, b in branches]
    for i, name in enumerate(expected):
        def failing(A, kappa, i=i):
            raise InternalConsistencyError("stage failure", i)

        monkeypatch.setattr("becck.sweep.classify_batch", failing)
        with pytest.raises(InternalConsistencyError) as exc:
            classify_points(ds)
        assert str(exc.value) == f"{name}: stage failure"
        assert exc.value.item is None
