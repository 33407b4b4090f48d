"""Sweep-row measures of the acceptance criteria on bistability.

``bistable_window`` gives the swept-value interval of a sweep's
three-branch points, and ``ck_comparison_metrics`` the pointwise relative
photon-number difference between the cross-Kerr settings of a paired sweep.
Criteria 02 to 04 measure preset sweeps with them; no command of becck
runs them.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


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
    differences: np.ndarray     # |n_on - n_off| / max(n_off, 1e-12)
    max_difference: float
    argmax_value: float
    skipped: tuple              # grid values lacking a selected branch


def ck_comparison_metrics(rows) -> CkComparison:
    """Pointwise relative photon-number differences between ck settings.

    Requires paired rows produced under a selecting branch policy (lowest or
    highest), so that each grid value carries exactly one branch per setting.
    """
    on: dict = {}
    off: dict = {}
    seen: dict = {}  # grid values in first-seen order
    for r in rows:
        table = on if r.ck_enabled else off
        if r.sweep_value in table:
            raise ValueError("multiple branches per point; run the sweep "
                             "with branch_policy 'lowest' or 'highest'")
        table[r.sweep_value] = seen[r.sweep_value] = r
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
                     / max(r_off.n_photon, 1e-12))
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
