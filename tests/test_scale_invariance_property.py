"""Property test of scale invariance, bitwise: scaling every frequency and T
by a power of two lambda scales Delta, omega_B, the sweep value, the drift
eigenvalues and the frequency parameters by lambda and leaves every other
result unchanged, bit for bit, since IEEE arithmetic commutes with such a
scaling away from overflow and underflow. Only the imaginary parts of the
drift eigenvalues may move, by at most 2 ulp: LAPACK takes the square root
of a product of rates there, which rounds differently for odd powers.

For a lambda that is no power of two, such as 3, every result rounds anew,
so on the fig6 and fig7 presets (the best and the worst conditioned) the
rows keep their branches, verdicts and flags, and their numbers stay within
tolerances measured on them."""

import dataclasses
import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from becck.cli import (FREQ_KEYS, build_config, cmd_steady,  # noqa: E402
                       preset_spec, sweep_spec_from_config)
from becck.dynamics import InternalConsistencyError  # noqa: E402
from becck.model import SystemParams  # noqa: E402
from becck.steadystate import UnstableDriftError  # noqa: E402
from becck.sweep import (BRANCH_POLICIES, CK_MODES, SWEEP_VARS,  # noqa: E402
                         SweepRow, run_sweep)

DEFAULT = SystemParams()
# the sweep range of each variable, in units of kappa or omega_R
RANGES = {"delta_c": (-20.0, 20.0), "eta": (0.0, 7.0), "omega_sw": (0.0, 40.0)}
# the results that scale with lambda: report keys, then SweepRow fields
SCALED_KEYS = set(FREQ_KEYS) | {"T", "U0", "Omega_c", "zeta", "g",
                                "delta_eff", "omega_plus", "omega_minus",
                                "eigenvalues_re", "eigenvalues_im",
                                "max_real_part", "omega_b"}
SCALED_FIELDS = {"sweep_value", "Delta", "omega_B", "max_real_part"}
FAILURES = (InternalConsistencyError, UnstableDriftError, ArithmeticError)


def _factor(lo, hi):
    # 0, or far from underflow: the property holds away from it (a drive of
    # 2.2e-313 kappa leaves subnormal couplings in the drift matrix)
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False).filter(
        lambda x: x == 0.0 or abs(x) >= 1e-100)


@st.composite
def configs(draw):
    """A valid config in rad/s around the paper's parameters, with a sweep
    of at most 5 points."""
    kappa = DEFAULT.kappa * draw(_factor(0.25, 4.0))
    omega_R = DEFAULT.omega_R * draw(_factor(0.25, 4.0))
    data = {
        "kappa": kappa, "omega_R": omega_R,
        "g0": DEFAULT.g0 * draw(_factor(0.25, 2.0)),
        "delta_a": DEFAULT.delta_a * draw(_factor(0.5, 2.0))
        * draw(st.sampled_from([1.0, -1.0])),
        "omega_sw": omega_R * draw(_factor(0.0, 40.0)),
        "gamma": kappa * draw(_factor(0.0, 1e-2)),
        "delta_c": kappa * draw(_factor(-20.0, 20.0)),
        "eta": kappa * draw(_factor(0.0, 7.0)),
        "T": draw(_factor(0.0, 1e-6)), "N": draw(st.integers(1, 10**6)),
        "ck_enabled": draw(st.booleans()),
        "sweep_var": draw(st.sampled_from(SWEEP_VARS)),
        "sweep_count": draw(st.integers(2, 5)),
    }
    unit = omega_R if data["sweep_var"] == "omega_sw" else kappa
    lo, hi = sorted(draw(_factor(*RANGES[data["sweep_var"]]))
                    for _ in range(2))
    if lo == hi:
        hi = lo + 1.0
    data.update(sweep_min=lo * unit, sweep_max=hi * unit)
    return data


def _scaled(data, lam):
    return {k: v * lam if k in FREQ_KEYS or k in ("T", "sweep_min",
                                                    "sweep_max") else v
            for k, v in data.items()}


def _bits(x):
    """The IEEE bits of a float, complex or array; anything else as is."""
    if isinstance(x, (float, complex, np.ndarray)):
        return np.asarray(x).tobytes()
    return x


def _outcome(fn):
    """``fn()``, or the type of the documented failure it raises."""
    with np.errstate(all="ignore"):
        try:
            return fn()
        except FAILURES as exc:
            return type(exc)


powers = st.integers(-30, 30).map(lambda k: 2.0 ** k)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(configs(), powers)
def test_sweep_rows_scale_bitwise(data, lam):
    spec = sweep_spec_from_config(build_config(data))
    spec_scaled = sweep_spec_from_config(build_config(_scaled(data, lam)))
    for ck_mode in CK_MODES:
        for policy in BRANCH_POLICIES:
            rows, rows_scaled = (_outcome(lambda s=s: run_sweep(
                dataclasses.replace(s, ck_mode=ck_mode,
                                    branch_policy=policy)))
                for s in (spec, spec_scaled))
            if not isinstance(rows, list):
                assert rows_scaled is rows
                continue
            assert len(rows_scaled) == len(rows)
            for row, row_scaled in zip(rows, rows_scaled):
                for field in SweepRow._fields:
                    x, y = (getattr(r, field) for r in (row, row_scaled))
                    expected = lam * x if field in SCALED_FIELDS else x
                    assert _bits(y) == _bits(expected), field


def _assert_scaled(x, y, lam, key=""):
    if isinstance(x, dict):
        assert list(y) == list(x)
        for k in x:
            _assert_scaled(x[k], y[k], lam, k)
    elif isinstance(x, list):
        assert len(y) == len(x)
        for a, b in zip(x, y):
            _assert_scaled(a, b, lam, key)
    elif key == "eigenvalues_im":
        assert abs(y - lam * x) <= 2.0 * math.ulp(lam * x), key
    else:
        expected = lam * x if key in SCALED_KEYS else x
        assert _bits(y) == _bits(expected), key


@settings(max_examples=60, derandomize=True, deadline=None)
@given(configs(), powers)
def test_steady_report_scales_bitwise(data, lam):
    texts = [_outcome(lambda c=c: cmd_steady(build_config(c))[1])
             for c in (data, _scaled(data, lam))]
    if not isinstance(texts[0], str):
        assert texts[1] is texts[0]
        return
    _assert_scaled(*map(json.loads, texts), lam)


# (relative tolerance per numeric cell, absolute tolerance of E_N) at lambda
# = 3, some 25 times the worst deviation measured (NumPy 2.x on OpenBLAS,
# x86-64): |y - x| / max(|x|, |y|) 2.0e-12 on fig6 and 4.0e-11 on fig7, and
# |y - x| of E_N 3.7e-15 and 4.7e-10. E_N = -ln(2 nu_min) takes its error
# from a covariance whose entries reach 4e3 next to nu_min near 1/2, so its
# error is absolute; fig7's is largest at delta_c = 9.12 kappa, where max Re
# lambda is -1.7e-5 kappa, next to the stability edge.
LAMBDA_3_TOLERANCES = {"fig6": (5e-11, 1e-13), "fig7": (1e-9, 1e-8)}
EXACT_FIELDS = ("sweep_var", "ck_enabled", "branch_index", "n_branches",
                "stable", "lattice_ok", "bogoliubov_ok", "warnings")


@pytest.mark.parametrize("name", sorted(LAMBDA_3_TOLERANCES))
def test_preset_rows_scale_by_three_within_their_conditioning(name):
    rtol, en_atol = LAMBDA_3_TOLERANCES[name]
    spec, lam = preset_spec(name), 3.0
    base = dataclasses.replace(spec.base, T=lam * spec.base.T, **{
        k: lam * getattr(spec.base, k) for k in FREQ_KEYS})
    rows = run_sweep(spec)
    rows_scaled = run_sweep(dataclasses.replace(
        spec, start=lam * spec.start, stop=lam * spec.stop, base=base))
    assert len(rows_scaled) == len(rows)
    for row, row_scaled in zip(rows, rows_scaled):
        for field in SweepRow._fields:
            x, y = (getattr(r, field) for r in (row, row_scaled))
            if x is None or y is None:
                assert x is y, field
                continue
            if field in EXACT_FIELDS:
                assert y == x, field
                continue
            x = np.asarray(lam * x if field in SCALED_FIELDS else x)
            deviation = np.abs(y - x)
            if field == "E_N":
                assert deviation <= en_atol, (field, row.sweep_value)
            else:
                assert np.all(deviation <= rtol * np.maximum(
                    np.abs(x), np.abs(y))), (field, row.sweep_value)
