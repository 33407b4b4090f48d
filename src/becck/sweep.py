"""Parameter-sweep engine with figure presets.

A sweep varies one of (delta_c, eta, omega_sw) over a uniform grid, optionally
for both cross-Kerr settings (paired mode), enumerates every mean-field
branch at each point, classifies stability, and computes Gaussian observables
on stable branches. Points are independent; the engine may fan them out to a
process pool, and the assembled row list is deterministic (bitwise) for a
given spec regardless of worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dynamics import build_drift_diffusion, classify_stability
from .meanfield import enumerate_branches
from .model import (SystemParams, bogoliubov_frequency, derive_params,
                    validity_flags)
from .steadystate import observable_set, solve_lyapunov

SWEEP_VARS = ("delta_c", "eta", "omega_sw")
CK_MODES = ("on", "off", "paired")
BRANCH_POLICIES = ("all", "lowest", "highest")
DEFAULT_GRID_COUNT = 501


@dataclass(frozen=True)
class SweepSpec:
    var: str
    start: float
    stop: float
    count: int
    base: SystemParams
    ck_mode: str = "paired"
    branch_policy: str = "all"
    preset: Optional[str] = None

    def __post_init__(self):
        if self.var not in SWEEP_VARS:
            raise ValueError(f"unknown sweep variable {self.var!r}")
        if self.ck_mode not in CK_MODES:
            raise ValueError(f"unknown ck_mode {self.ck_mode!r}")
        if self.branch_policy not in BRANCH_POLICIES:
            raise ValueError(f"unknown branch_policy {self.branch_policy!r}")
        if self.count < 2:
            raise ValueError("grid count must be >= 2")
        if not self.start < self.stop:
            raise ValueError("grid start must be below stop")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepRow:
    """One (grid point, branch, ck setting) record.

    Observable fields are None on branches without a strictly stable,
    non-marginal drift. ``covariance`` and ``max_real_part`` are carried for
    programmatic consumers and are not part of the CSV schema.
    """

    sweep_var: str
    sweep_value: float
    ck_enabled: bool
    branch_index: int
    n_branches: int
    n_photon: float
    alpha: complex
    beta: complex
    Delta: float
    omega_B: float
    omega_B_ratio: float
    stable: bool
    E_N: Optional[float]
    S_Q: Optional[float]
    S_P: Optional[float]
    n_incoherent: Optional[float]
    lattice_ok: bool
    bogoliubov_ok: Optional[bool]
    warnings: tuple
    covariance: Optional[np.ndarray]
    max_real_part: float


def paper_base_params(**overrides) -> SystemParams:
    """The experimental parameter set used by all figure presets."""
    kappa = 2.0 * math.pi * 1.3e6
    defaults = dict(
        N=100_000,
        g0=2.0 * math.pi * 14.1e6,
        delta_a=7.5e11,
        omega_R=2.37e4,
        omega_sw=2.37e4,
        kappa=kappa,
        gamma=1e-3 * kappa,
        delta_c=0.0,
        eta=kappa,
        T=1e-7,
        ck_enabled=True,
    )
    defaults.update(overrides)
    return SystemParams(**defaults)


def _preset(var, lo, hi, policy, **base_overrides) -> "SweepSpec":
    base = paper_base_params(**base_overrides)
    return SweepSpec(var=var, start=lo, stop=hi, count=DEFAULT_GRID_COUNT,
                     base=base, ck_mode="paired", branch_policy=policy)


def preset_spec(name: str) -> SweepSpec:
    """Expand a figure preset name into a full SweepSpec.

    Sweep ranges are generous supersets of the plotted axes. The fig6, fig7
    and fig8 presets mark multi-branch points explicitly through their branch
    rows; fig6 additionally restricts its range to the region where both
    cross-Kerr settings have a unique stable branch, since observables there
    are compared pointwise between the two settings.
    """
    k = 2.0 * math.pi * 1.3e6
    wr = 2.37e4
    table = {
        "fig2a": lambda: _preset("delta_c", -10 * k, 15 * k, "lowest",
                                 eta=1 * k, omega_sw=wr),
        "fig2b": lambda: _preset("delta_c", -10 * k, 15 * k, "all",
                                 eta=2 * k, omega_sw=wr),
        "fig3a": lambda: _preset("delta_c", -10 * k, 15 * k, "lowest",
                                 eta=2 * k, omega_sw=5 * wr),
        "fig3b": lambda: _preset("delta_c", -10 * k, 15 * k, "lowest",
                                 eta=2 * k, omega_sw=10 * wr),
        "fig4": lambda: _preset("delta_c", -10 * k, 15 * k, "all",
                                eta=2 * k, omega_sw=wr),
        "fig5": lambda: _preset("eta", 0.0, 3 * k, "highest",
                                delta_c=5 * k, omega_sw=wr),
        "fig6": lambda: _preset("delta_c", -10 * k, 9 * k, "lowest",
                                eta=7 * k, omega_sw=wr),
        "fig7": lambda: _preset("delta_c", -20 * k, 20 * k, "all",
                                eta=2 * k, omega_sw=wr),
        "fig8": lambda: _preset("omega_sw", 0.0, 40 * wr, "lowest",
                                delta_c=-15 * k, eta=5 * k),
    }
    if name not in table:
        raise ValueError(f"unknown preset {name!r}; "
                         f"choose from {sorted(table)}")
    spec = table[name]()
    return replace(spec, preset=name)


def preset_names() -> tuple:
    return ("fig2a", "fig2b", "fig3a", "fig3b", "fig4",
            "fig5", "fig6", "fig7", "fig8")


def _point_params(spec: SweepSpec, value: float, ck: bool) -> SystemParams:
    return replace(spec.base, ck_enabled=ck, **{spec.var: float(value)})


def _rows_for_point(spec: SweepSpec, value: float, ck: bool) -> list:
    p = _point_params(spec, value, ck)
    d = derive_params(p)
    bset = enumerate_branches(d)
    point_warnings = bset.warnings
    omega_c = bogoliubov_frequency(d, 0.0)

    reports = []
    for b in bset:
        dd = build_drift_diffusion(d, b)
        rep = classify_stability(dd)
        reports.append((b, dd, rep))

    # a branch only counts as stable for covariance purposes when it is
    # strictly stable and outside the near-marginal band
    def covariance_grade(rep):
        return rep.stable and not rep.marginal

    if spec.branch_policy == "all":
        selected = list(range(len(reports)))
    else:
        stable_ids = [i for i, (_, _, rep) in enumerate(reports)
                      if covariance_grade(rep)]
        if not stable_ids:
            selected = [0]
            point_warnings = point_warnings + ("no-stable-branch",)
        else:
            pick = stable_ids[0] if spec.branch_policy == "lowest" else stable_ids[-1]
            selected = [pick]

    rows = []
    for i in selected:
        b, dd, rep = reports[i]
        stable = covariance_grade(rep)
        obs = None
        cov = None
        if stable:
            cov = solve_lyapunov(dd, rep)
            obs = observable_set(dd, cov)
        omega_b = dd.omega_B
        flags = validity_flags(d, b.n_photon,
                               obs.n_incoherent if obs else None)
        rows.append(SweepRow(
            sweep_var=spec.var,
            sweep_value=float(value),
            ck_enabled=ck,
            branch_index=b.branch_index,
            n_branches=len(bset),
            n_photon=b.n_photon,
            alpha=b.alpha,
            beta=b.beta,
            Delta=b.Delta,
            omega_B=omega_b,
            omega_B_ratio=omega_b / omega_c,
            stable=stable,
            E_N=obs.E_N if obs else None,
            S_Q=obs.S_Q if obs else None,
            S_P=obs.S_P if obs else None,
            n_incoherent=obs.n_incoherent if obs else None,
            lattice_ok=flags["lattice_depth_ok"],
            bogoliubov_ok=flags["bogoliubov_ok"],
            warnings=point_warnings,
            covariance=cov.V if cov else None,
            max_real_part=rep.max_real_part,
        ))
    return rows


def _evaluate_point(args) -> list:
    spec, value = args
    cks = {"on": (True,), "off": (False,), "paired": (False, True)}[spec.ck_mode]
    per_ck = {ck: _rows_for_point(spec, value, ck) for ck in cks}
    # deterministic order: branch index, then ck off before on
    rows = [row for ck_rows in per_ck.values() for row in ck_rows]
    rows.sort(key=lambda r: (r.branch_index, r.ck_enabled))
    return rows


def resolve_workers(workers: Optional[int] = None) -> int:
    if workers is None:
        env = os.environ.get("BECCK_WORKERS", "").strip()
        workers = int(env) if env else 1
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


def run_sweep(spec: SweepSpec, workers: Optional[int] = None) -> list:
    """Evaluate the sweep and return rows in deterministic grid order."""
    workers = resolve_workers(workers)
    tasks = [(spec, v) for v in spec.grid()]
    if workers == 1:
        chunks = map(_evaluate_point, tasks)
        return [row for chunk in chunks for row in chunk]
    chunksize = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunks = pool.map(_evaluate_point, tasks, chunksize=chunksize)
        return [row for chunk in chunks for row in chunk]


def bistable_window(rows) -> Optional[tuple]:
    """Swept-value interval on which the branch count is 3, or None.

    For paired sweeps the window of the baseline (cross-Kerr off) rows is
    reported; filter rows by ``ck_enabled`` first to interrogate one setting.
    """
    cks = {r.ck_enabled for r in rows}
    if len(cks) > 1:
        rows = [r for r in rows if not r.ck_enabled]
    by_value: dict = {}
    for r in rows:
        by_value[r.sweep_value] = r.n_branches
    tristable = sorted(v for v, count in by_value.items() if count == 3)
    if not tristable:
        return None
    return (tristable[0], tristable[-1])


@dataclass(frozen=True)
class CkComparison:
    values: np.ndarray          # grid values with a selected branch on both sides
    differences: np.ndarray     # |n_on - n_off| / max(n_off, eps)
    max_difference: float
    argmax_value: float
    skipped: tuple              # grid values lacking a selected branch


def ck_comparison_metrics(rows, eps: float = 1e-12) -> CkComparison:
    """Pointwise relative photon-number differences between ck settings.

    Requires paired rows produced under a selecting branch policy (lowest or
    highest), so that each grid value carries exactly one branch per setting.
    """
    on: dict = {}
    off: dict = {}
    seen: list = []
    for r in rows:
        table = on if r.ck_enabled else off
        if r.sweep_value in table:
            raise ValueError("multiple branches per point; run the sweep "
                             "with branch_policy 'lowest' or 'highest'")
        table[r.sweep_value] = r
        if r.sweep_value not in seen:
            seen.append(r.sweep_value)
    if set(on) != set(off):
        raise ValueError("mismatched grids between ck settings")

    values, diffs, skipped = [], [], []
    for v in seen:
        r_on, r_off = on[v], off[v]
        if "no-stable-branch" in r_on.warnings or "no-stable-branch" in r_off.warnings:
            skipped.append(v)
            continue
        values.append(v)
        diffs.append(abs(r_on.n_photon - r_off.n_photon)
                     / max(r_off.n_photon, eps))
    values = np.asarray(values)
    diffs = np.asarray(diffs)
    imax = int(np.argmax(diffs)) if diffs.size else 0
    return CkComparison(
        values=values,
        differences=diffs,
        max_difference=float(diffs[imax]) if diffs.size else math.nan,
        argmax_value=float(values[imax]) if diffs.size else math.nan,
        skipped=tuple(skipped),
    )
