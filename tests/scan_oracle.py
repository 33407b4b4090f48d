"""Reference branch enumeration by dense scan, used as a test oracle.

This is the enumeration becck used before the polynomial root finder:
f(n) is scanned on a uniform grid over [0, n_max*(1+1e-6)], every sign
change is bracketed and bisected, roots closer than 1e-9 relative are
merged, and a second scan at 10x density runs inside any cell whose
endpoints both have |f| below 1e-3*max|f| (a possible near-tangent fold).
It shares neither the method nor f with the package: f is
``reference_f`` of tests/polynomial_oracle.py.
"""

import numpy as np

from becck import upper_bound_photons
from polynomial_oracle import reference_f

GRID_POINTS = 20001
DEDUPE_RTOL = 1e-9
REFINE_FRACTION = 1e-3
REFINE_FACTOR = 10


def _bisect(d, lo, hi, flo, fhi):
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        fmid = reference_f(d, mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) != (fmid < 0.0):
            hi = mid
        else:
            lo, flo = mid, fmid


def _brackets_on(grid, fvals):
    sign = np.signbit(fvals)
    cells = np.nonzero((fvals[:-1] == 0.0) | (sign[:-1] != sign[1:]))[0]
    out = [(grid[i], grid[i + 1], fvals[i], fvals[i + 1]) for i in cells]
    if fvals[-1] == 0.0:
        out.append((grid[-1], grid[-1], fvals[-1], fvals[-1]))
    return out


def scan_roots(d, grid_points=GRID_POINTS):
    """Photon numbers of every branch, ascending, and the warnings raised.

    ``adjacent-brackets`` flags two sign changes in neighbouring cells, or
    a root pair that only the refinement pass resolved.
    """
    if d.eta == 0.0:
        return [0.0], ()
    n_hi = upper_bound_photons(d) * (1.0 + 1e-6)
    grid = np.linspace(0.0, n_hi, grid_points)
    fvals = reference_f(d, grid)
    brackets = _brackets_on(grid, fvals)

    sign = np.signbit(fvals)
    change = (fvals[:-1] == 0.0) | (sign[:-1] != sign[1:])
    adjacent = bool(np.any(change[:-1] & change[1:]))

    low = np.abs(fvals) < REFINE_FRACTION * float(np.max(np.abs(fvals)))
    for i in np.nonzero(low[:-1] & low[1:])[0]:
        sub = np.linspace(grid[i], grid[i + 1], REFINE_FACTOR + 1)
        found = _brackets_on(sub, reference_f(d, sub))
        if len(found) >= 2:
            adjacent = True
        brackets.extend(found)

    roots = sorted(_bisect(d, *b) for b in brackets)
    unique = []
    for r in roots:
        if unique and abs(r - unique[-1]) <= DEDUPE_RTOL * max(abs(r), 1e-300):
            continue
        unique.append(r)
    warnings = ["adjacent-brackets"] if adjacent else []
    if len(unique) not in (1, 3):
        warnings.append(f"branch-count={len(unique)}")
    return unique, tuple(warnings)
