"""Parameter-sweep engine.

A sweep varies one of (delta_c, eta, omega_sw) over a uniform grid, optionally
for both cross-Kerr settings (paired mode), enumerates every mean-field
branch at each point, classifies stability, and computes Gaussian observables
on stable branches. All branches of a sweep are evaluated as one array batch
in one process; the row list is deterministic (bitwise) for a given spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import (InternalConsistencyError, classify_batch,
                       drift_diffusion_stacks, record_items)
from .meanfield import branch_candidates, enumerate_branches
from .model import (DerivedParams, SystemParams, bogoliubov_frequency,
                    derive_params, validity_flags)
from .steadystate import (ObservableSet, lyapunov_batch, observables_batch,
                          strictly_stable)

SWEEP_VARS = ("delta_c", "eta", "omega_sw")
# per ck_mode its cross-Kerr settings; per branch_policy the evaluate_points
# pick (None every branch, else 0 the lowest or -1 the highest stable one)
CK_MODES = {"on": (True,), "off": (False,), "paired": (False, True)}
BRANCH_POLICIES = {"all": None, "lowest": 0, "highest": -1}
DEFAULT_GRID_COUNT = 501
# a sweep holds all its rows in memory, about 3.4 kB each at peak (measured
# on a 20001-point paired fig2a sweep), so the largest grid stays near 1 GB
MAX_GRID_COUNT = 100_000


@dataclass(frozen=True)
class SweepSpec:
    var: str
    start: float
    stop: float
    base: SystemParams
    count: int = DEFAULT_GRID_COUNT
    ck_mode: str = "paired"
    branch_policy: str = "all"

    def __post_init__(self):
        if self.var not in SWEEP_VARS:
            raise ValueError(f"unknown sweep variable {self.var!r}")
        if self.ck_mode not in CK_MODES:
            raise ValueError(f"unknown ck_mode {self.ck_mode!r}")
        if self.branch_policy not in BRANCH_POLICIES:
            raise ValueError(f"unknown branch_policy {self.branch_policy!r}")
        if not 2 <= self.count <= MAX_GRID_COUNT:
            raise ValueError(
                f"grid count must be between 2 and {MAX_GRID_COUNT}")
        if not self.start < self.stop:
            raise ValueError("grid start must be below stop")
        # SystemParams bounds each input to an interval, so on a monotone grid
        # its ends decide every point; ``grid`` is not finite exactly where
        # stop - start overflows, and then starts with nan
        span = float(self.stop) - float(self.start)
        for value in (self.start if math.isfinite(span) else math.nan,
                      self.stop):
            SystemParams(**{**vars(self.base), self.var: float(value)})

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


class SweepRow(NamedTuple):
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
    """The experimental parameter set: the ``SystemParams`` defaults with
    the drive eta = kappa."""
    base = SystemParams()
    return replace(base, **{"eta": base.kappa, **overrides})


def _branch_failure(exc, ds, branches) -> InternalConsistencyError:
    """The error ``exc`` of a stage of the branch stacks, prefixed with the
    name of its failing branch ``branches[exc.item]``: ``delta_c=<x> eta=<x>
    omega_sw=<x> ck=<bool> branch <i>`` (the reprs of the point's values in
    rad/s). Only a failing branch is named."""
    p, b = branches[exc.item]
    return InternalConsistencyError(
        "delta_c={0.delta_c!r} eta={0.eta!r} omega_sw={0.omega_sw!r} "
        "ck={0.ck_enabled} branch {1.branch_index}: {2}".format(ds[p], b, exc))


def classify_points(ds) -> tuple:
    """Enumerate every branch of the points ``ds`` (DerivedParams), from
    one stacked companion eigen-solve per matrix size, and classify all of
    them in one ``classify_batch`` call. Returns the BranchSet of each
    point; per branch in point order, its (point index, branch) pair; and
    the DriftDiffusion and StabilityReport stacks of all branches. A branch
    that fails the build or classification is named in the error."""
    bsets = [enumerate_branches(d, roots)
             for d, roots in zip(ds, branch_candidates(ds))]
    branches = [(p, b) for p, bset in enumerate(bsets) for b in bset]
    try:
        dd = drift_diffusion_stacks([(ds[p], b) for p, b in branches])
        return bsets, branches, dd, classify_batch(dd.A, dd.kappa)
    except InternalConsistencyError as exc:
        raise _branch_failure(exc, ds, branches) from exc


def evaluate_points(ds, pick=None) -> tuple:
    """``classify_points`` of ``ds``; at each point every branch (``pick``
    None), else its ``pick``-th strictly stable one (0 lowest, -1 highest)
    or its first; the strictly stable ones among them are solved in one
    ``lyapunov_batch`` and one ``observables_batch`` call (a failing branch
    is named in the error). Returns the BranchSets, the DriftDiffusion and
    StabilityReport stacks, and per selected branch (stack position, point
    index, branch, (V, ObservableSet) or None): None exactly where it is
    not strictly stable."""
    bsets, branches, dd, report = classify_points(ds)
    # a branch only counts as stable for covariance purposes when it is
    # strictly stable and outside the near-marginal band
    grade = strictly_stable(report).tolist()
    selected, first = [], 0
    for bset in bsets:
        ids = range(first, first + len(bset))
        first += len(ids)
        stable_ids = [i for i in ids if grade[i]] or ids[:1]
        selected += ids if pick is None else [stable_ids[pick]]
    solved = [i for i in selected if grade[i]]
    solved_dd, solved_report = dd, report
    if solved != list(range(len(grade))):
        solved_dd, solved_report = (x._make(y[solved] for y in x)
                                    for x in (dd, report))
    try:
        cov = lyapunov_batch(solved_dd, solved_report)
        obs = observables_batch(solved_dd, cov)
    except InternalConsistencyError as exc:
        exc.item = solved[exc.item]
        raise _branch_failure(exc, ds, branches) from exc
    states = dict(zip(solved, zip(cov.V, record_items(obs))))
    return bsets, dd, report, [(i, *branches[i], states.get(i))
                               for i in selected]


_UNSOLVED = (None, ObservableSet._make([None] * len(ObservableSet._fields)))


def _grid_params(spec: SweepSpec, grid: np.ndarray, ck: bool) -> list:
    """DerivedParams at each value of ``grid`` with cross-Kerr ``ck``, from
    one elementwise ``derive_params`` of the swept input as an array (so
    Omega_c follows omega_sw), on a stand-in for SystemParams."""
    d = derive_params(SimpleNamespace(
        **{**vars(spec.base), "ck_enabled": ck, spec.var: grid}))
    columns = [x.tolist() if isinstance(x, np.ndarray) else [x] * len(grid)
               for x in d]
    return list(map(DerivedParams._make, zip(*columns)))


def _rows_for_points(spec: SweepSpec, values) -> list:
    """Rows of the grid ``values`` in grid order, from one evaluation of
    all points (value, ck setting)."""
    grid = np.asarray(values, dtype=float)
    cks = CK_MODES[spec.ck_mode]
    ds = [d for ck_ds in zip(*(_grid_params(spec, grid, ck) for ck in cks))
          for d in ck_ds]
    pick = BRANCH_POLICIES[spec.branch_policy]
    bsets, dd, report, evaluated = evaluate_points(ds, pick)
    keyed = []
    omega_B, max_real = dd.omega_B.tolist(), report.max_real_part.tolist()
    for i, p, b, state in evaluated:
        d, bset = ds[p], bsets[p]
        V, obs = state or _UNSOLVED
        keyed.append(((p // len(cks), b.branch_index, d.ck_enabled), SweepRow(
            spec.var, getattr(d, spec.var), d.ck_enabled, b.branch_index,
            len(bset), b.n_photon, b.alpha, b.beta, b.Delta, omega_B[i],
            omega_B[i] / bogoliubov_frequency(d, 0.0), state is not None,
            obs.E_N, obs.S_Q, obs.S_P, obs.n_incoherent,
            *validity_flags(d, b.n_photon, obs.n_incoherent),
            # where no branch is stable, the first is picked and flagged
            bset.warnings + ("no-stable-branch",) * (
                pick is not None and state is None), V, max_real[i])))
    # deterministic order: grid value, then branch index, then ck off before on
    keyed.sort(key=lambda item: item[0])
    return [row for _, row in keyed]


def run_sweep(spec: SweepSpec, workers: Optional[int] = None) -> list:
    """Evaluate the sweep and return rows in deterministic grid order;
    ``workers`` is ignored, since every sweep runs in one process."""
    return _rows_for_points(spec, spec.grid())

