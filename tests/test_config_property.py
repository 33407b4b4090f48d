"""Property test over the config space: every flat config given to
``steady`` or ``sweep`` ends in a documented exit code, never in an
escaped exception."""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from becck.cli import (OTHER_KEYS, PARAM_KEYS, SWEEP_KEYS,  # noqa: E402
                       main, preset_names)
from becck.sweep import (BRANCH_POLICIES, CK_MODES,  # noqa: E402
                         MAX_GRID_COUNT, SWEEP_VARS)

DOCUMENTED_EXITS = {0, 2, 3, 4}

# values a config file may hold for a key of the given kind; the
# extremes are finite and sit at the edges of the float range
frequencies = st.one_of(
    st.builds("{!r}*kappa".format, st.floats(-20.0, 20.0)),
    st.builds("{!r}*omegaR".format, st.floats(0.0, 40.0)),
    st.builds("2pi*{!r}{}".format, st.floats(0.0, 1e3),
              st.sampled_from(["Hz", "kHz", "MHz", "GHz"])),
    st.floats(-1e9, 1e9),
    st.sampled_from(["1e140*kappa", "1e150*kappa", "1e160*kappa",
                     "-1*kappa", "-1*omegaR", 1e-300, 5e-324, 1e308,
                     -1e308, 2.2e-16, 9.3e8]),
)
# output paths, taken relative to a temporary directory
OUTS = ("rows.out", "no/such/dir/rows.out", "nul\x00.out")
VALID = {key: frequencies for key in PARAM_KEYS}
VALID.update(
    N=st.one_of(st.integers(1, 10**7), st.sampled_from([10**300, 0])),
    T=st.one_of(st.floats(0.0, 1e-3), st.sampled_from([1e-300, 1e300])),
    ck_enabled=st.booleans(),
    sweep_var=st.sampled_from(SWEEP_VARS),
    sweep_min=frequencies,
    sweep_max=frequencies,
    ck_mode=st.sampled_from(tuple(CK_MODES)),
    branch_policy=st.sampled_from(tuple(BRANCH_POLICIES)),
    preset=st.sampled_from(preset_names()),
    out=st.sampled_from(OUTS),
    format=st.sampled_from(["csv", "json-lines"]),
    workers=st.integers(1, 4),
)
# counts stay tiny or above the bound: a count is a grid size, allocated
# in full
COUNTS = st.one_of(st.integers(-1, 5),
                   st.sampled_from([MAX_GRID_COUNT + 1, 10**400]))
HOSTILE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([10**400, -(10**400), "1e400*kappa", "nan*kappa",
                     "3*eta", "2pi*5", "", "nope"]),
    st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)
# whole configs that once escaped the exit-code table: omega_b overflows in
# every row of this sweep, and a red-detuned strong drive (delta_a < 0, so
# g < 0) gives an upper branch a non-real dressed Bogoliubov frequency
RED_DETUNED = {"delta_a": -7.5e11, "eta": "1000*kappa",
               "delta_c": "-30*kappa", "omega_sw": "40*omegaR"}
KNOWN = st.sampled_from([
    {"omega_sw": "1e150*kappa", "gamma": 2.2e-16, "T": 1e-12,
     "ck_enabled": False, "sweep_var": "delta_c", "sweep_min": 1e-300,
     "sweep_max": 9.3e8},
    RED_DETUNED,
])
KEYS = PARAM_KEYS + SWEEP_KEYS + OTHER_KEYS
assert set(VALID) | {"sweep_count"} == set(KEYS)


@st.composite
def configs(draw):
    """A known config now and then, valid values for a few keys, a sweep
    range or preset now and then, and up to two hostile values, possibly
    under unknown keys."""
    data = dict(draw(st.one_of(st.just({}), KNOWN)))
    data.update({key: draw(VALID[key]) for key in draw(st.lists(
        st.sampled_from(sorted(VALID)), max_size=4, unique=True))})
    if draw(st.booleans()):
        data.update(sweep_var=draw(VALID["sweep_var"]),
                    sweep_min=draw(frequencies), sweep_max=draw(frequencies))
    for key in draw(st.lists(st.sampled_from(KEYS + ("n_photons",)),
                             max_size=2, unique=True)):
        data[key] = draw(HOSTILE)
    # a sweep never runs at the default grid size of 501 points; a count
    # without a range or a preset would stop every command at exit 2, and
    # a count inside the bound, drawn a third of the time, lets a `steady`
    # draw with a sweep reach the solver
    if data.keys() & {"preset", "sweep_var", "sweep_min", "sweep_max"}:
        data["sweep_count"] = draw(st.one_of(st.integers(2, 5), COUNTS,
                                             HOSTILE))
    return data


def _exit_code(tmp_path, command, data) -> int:
    out = data.get("out")
    if isinstance(out, str):  # write nowhere but below tmp_path
        data = dict(data, out=str(tmp_path / (out if out in OUTS else OUTS[1])))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main([command, "--config", str(path)])
        except SystemExit as exc:
            return exc.code


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["steady", "sweep"]), data=configs())
@example(command="sweep", data={"preset": "nope"})
@example(command="steady", data={"preset": "nope"})
@example(command="sweep", data={"sweep_var": "eta", "sweep_min": "-1*kappa",
                                "sweep_max": "1*kappa", "sweep_count": 3})
@example(command="sweep", data={"sweep_var": "omega_sw",
                                "sweep_min": "-1*omegaR",
                                "sweep_max": "1*omegaR", "sweep_count": 3})
@example(command="sweep", data={"sweep_var": "delta_c", "sweep_min": -1e308,
                                "sweep_max": 1e308, "sweep_count": 3})
@example(command="sweep", data={"sweep_var": "delta_c", "sweep_min": 0,
                                "sweep_max": 1, "sweep_count": 0})
@example(command="sweep", data={"preset": "fig2a", "ck_mode": "",
                                "sweep_count": 2})
@example(command="steady", data={"eta": "1e150*kappa"})
@example(command="sweep", data={"preset": "fig2a", "sweep_count": 10**400})
@example(command="sweep", data={
    "omega_sw": "1e150*kappa", "gamma": 2.2e-16, "T": 1e-12,
    "ck_enabled": False, "sweep_var": "delta_c", "sweep_min": 1e-300,
    "sweep_max": 9.3e8, "sweep_count": 4, "format": "json-lines"})
@example(command="steady", data={"out": OUTS[2]})
# a preset lies beneath the config's own keys
@example(command="sweep", data={"preset": "fig2b", "sweep_min": "4*kappa",
                                "sweep_max": "5*kappa", "sweep_count": 3,
                                "eta": "0.5*kappa", "T": 0})
@example(command="sweep", data={"preset": "fig5", "sweep_var": "delta_c",
                                "sweep_count": 2})
@example(command="sweep", data={"preset": "fig2b", "kappa": "2pi*2.6MHz",
                                "sweep_min": "4*kappa",
                                "sweep_max": "5*kappa", "sweep_count": 3})
@example(command="steady", data={"preset": "fig2b"})
def test_every_config_ends_in_a_documented_exit_code(tmp_path, command, data):
    assert _exit_code(tmp_path, command, data) in DOCUMENTED_EXITS


@pytest.mark.parametrize("data,code", [
    ({"eta": "1e150*kappa"}, 3), ({"out": OUTS[2]}, 4), (RED_DETUNED, 3),
], ids=["eta-overflow", "nul-in-out", "red-detuned"])
def test_steady_examples_reach_the_solver_and_the_output(tmp_path, data,
                                                         code):
    assert _exit_code(tmp_path, "steady", data) == code
