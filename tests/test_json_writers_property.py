"""Property tests of the two JSON writers: ``cli.steady_report``
writes the text of ``json.dumps(report, indent=2, allow_nan=False)`` of the
``steady`` report of its inputs (and a newline), or raises json's own
``ValueError`` for the first float in document order that is not finite;
``cli.dump_config`` writes the text of ``json.dumps(config, indent=2,
allow_nan=False)`` of the flat, sorted config. Each is compared with a
report or config built here from the same inputs."""

import dataclasses
import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from becck import cli  # noqa: E402
from becck.dynamics import StabilityReport  # noqa: E402
from becck.meanfield import MeanFieldBranch  # noqa: E402
from becck.model import (DerivedParams, SystemParams,  # noqa: E402
                         validity_flags)
from becck.steadystate import ObservableSet  # noqa: E402
from becck.sweep import (BRANCH_POLICIES, CK_MODES, SWEEP_VARS,  # noqa: E402
                         SweepSpec)


def _dumps(x):
    return json.dumps(x, indent=2, allow_nan=False)


def _outcome(write, *args):
    """The text ``write`` returns for ``args``, or the type and text of the
    error it raises."""
    try:
        return write(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# finite floats with signed zero, subnormals and the largest exponents
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
         -1e308, 1.7976931348623157e308, 1e16, 1e-5, 0.1]
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGES))
NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# every float slot of a report drawn with NaN and the infinities as well
any_float = st.one_of(finite, NONFINITE)
# strings with non-ASCII, surrogate and control characters
text = st.text(st.characters(exclude_categories=()), max_size=6)


@st.composite
def steady_inputs(draw, floats):
    """The arguments of ``cli.steady_report`` for a point of 1 or 3
    branches, each with or without observables, every float from
    ``floats``: (DerivedParams, warnings, StabilityReport stacks,
    ``evaluate_points`` records)."""
    d = DerivedParams(*(draw(floats) for _ in range(11)),
                      draw(st.integers(1, 10 ** 300)), draw(st.booleans()))
    warnings = draw(st.lists(text, max_size=2))
    n = draw(st.sampled_from([1, 3]))
    eigs, verdicts, evaluated = [], [], []
    for i in range(n):
        eigs.append([complex(draw(floats), draw(floats)) for _ in range(4)])
        verdicts.append((draw(floats), *(draw(st.booleans())
                                          for _ in range(3))))
        b = MeanFieldBranch(draw(floats),
                            complex(draw(floats), draw(floats)),
                            complex(draw(floats), draw(floats)),
                            *(draw(floats) for _ in range(3)), i,
                            draw(floats))
        obs = draw(st.one_of(st.none(), st.builds(
            ObservableSet, *([floats] * len(ObservableSet._fields)))))
        evaluated.append((i, 0, b, obs and (None, obs)))
    max_real, rh, stable, marginal = map(np.array, zip(*verdicts))
    return (d, tuple(warnings), StabilityReport(
        np.array(eigs, complex), max_real, rh, stable, marginal), evaluated)


def _report(d, warnings, stability, evaluated) -> dict:
    """The ``steady`` report of the arguments of ``cli.steady_report``."""
    branches = []
    for i, _, b, state in evaluated:
        obs = None if state is None else state[1]
        lattice_ok, bogoliubov_ok = validity_flags(
            d, b.n_photon, None if obs is None else obs.n_incoherent)
        eigs = stability.eigenvalues[i].tolist()
        branches.append({
            "branch_index": b.branch_index, "n_photon": b.n_photon,
            "alpha_re": b.alpha.real, "alpha_im": b.alpha.imag,
            "beta_re": b.beta.real, "beta_im": b.beta.imag,
            "delta_eff": b.Delta, "omega_plus": b.Omega_plus,
            "omega_minus": b.Omega_minus, "residual": b.residual,
            "stability": {
                "eigenvalues_re": [z.real for z in eigs],
                "eigenvalues_im": [z.imag for z in eigs],
                "max_real_part": float(stability.max_real_part[i]),
                "routh_hurwitz_pass": bool(stability.routh_hurwitz_pass[i]),
                "stable": bool(stability.stable[i]),
                "marginal": bool(stability.marginal[i])},
            "lattice_depth_ok": lattice_ok, "bogoliubov_ok": bogoliubov_ok,
            "observables": None if obs is None else {
                k.lower(): v for k, v in obs._asdict().items()}})
    return {"params": d._asdict(), "warnings": list(warnings),
            "branches": branches}


def _report_text(*args):
    return _dumps(_report(*args)) + "\n"


def _one_branch(residual, obs):
    """``cli.steady_report`` arguments of one branch with the ``residual``
    and the ObservableSet ``obs`` (or None), every other float 1."""
    d = DerivedParams(*[1.0] * 11, 100, True)
    b = MeanFieldBranch(1.0, 1j, 1j, 1.0, 1.0, 1.0, 0, residual)
    stability = StabilityReport(np.ones((1, 4), complex), np.ones(1),
                                *np.ones((3, 1), bool))
    return d, (), stability, [(0, 0, b, obs and (None, obs))]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(steady_inputs(finite))
def test_writer_is_json_dumps_indent_2(args):
    assert cli.steady_report(*args) == _report_text(*args)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(steady_inputs(st.one_of(any_float, NONFINITE)))
@example(_one_branch(-math.inf, ObservableSet(math.nan, *[0.5] * 6)))
@example(_one_branch(0.5, ObservableSet(*[0.5] * 6, math.inf)))
@example(_one_branch(math.nan, None))
def test_nonfinite_floats_raise_what_json_dumps_raises(args):
    assert (_outcome(cli.steady_report, *args)
            == _outcome(_report_text, *args))


positive = finite.filter(lambda x: x > 0.0)
nonnegative = finite.filter(lambda x: x >= 0.0)


@st.composite
def run_configs(draw):
    """A RunConfig with drawn parameters, an optional sweep of delta_c, and
    drawn strings (a RunConfig does not check them)."""
    params = SystemParams(
        N=draw(st.integers(1, 10 ** 30)), g0=draw(finite),
        delta_a=draw(finite.filter(bool)), omega_R=draw(positive),
        omega_sw=draw(nonnegative), kappa=draw(positive),
        gamma=draw(nonnegative), delta_c=draw(finite), eta=draw(nonnegative),
        T=draw(nonnegative), ck_enabled=draw(st.booleans()))
    sweep = None
    start, stop = sorted((draw(finite), draw(finite)))
    if draw(st.booleans()) and start < stop and math.isfinite(stop - start):
        sweep = SweepSpec(SWEEP_VARS[0], start, stop, params,
                          draw(st.integers(2, 100_000)),
                          draw(st.sampled_from(tuple(CK_MODES))),
                          draw(st.sampled_from(tuple(BRANCH_POLICIES))))
    optional = st.one_of(st.none(), text)
    return cli.RunConfig(params, sweep, draw(optional), draw(optional),
                         draw(text), draw(st.one_of(
                             st.none(), st.integers(1, 10 ** 400))))


def _config(cfg: cli.RunConfig) -> dict:
    """The flat, sorted config that ``cli.dump_config`` writes."""
    data = {**vars(cfg), **dataclasses.asdict(cfg.params)}
    if cfg.sweep is not None:
        s = cfg.sweep
        data.update(sweep_var=s.var, sweep_min=s.start, sweep_max=s.stop,
                    sweep_count=s.count, ck_mode=s.ck_mode,
                    branch_policy=s.branch_policy)
    return dict(sorted((k, v) for k, v in data.items()
                       if k not in ("params", "sweep") and v is not None))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(run_configs())
@example(cli.build_config({"preset": "fig2a", "out": "é\x00\n\"\\\ud800"}))
def test_dump_config_is_json_dumps_indent_2(cfg):
    assert cli.dump_config(cfg) == _dumps(_config(cfg))


def _recording(calls):
    """``cli.steady_report``, recording the arguments of each call."""
    write = cli.steady_report

    def record(*args):
        calls.append(args)
        return write(*args)
    return record


@pytest.mark.parametrize("point,branches,with_observables", [
    ({"delta_c": "5.0*kappa", "eta": "2.0*kappa"}, 3, 2),
    ({"delta_c": "2*kappa", "eta": "4.25*kappa", "omega_sw": "27*omegaR"},
     1, 0),
], ids=["three-branches", "no-observables"])
def test_steady_writes_the_json_dumps_text_of_its_report(
        tmp_path, capsys, monkeypatch, point, branches, with_observables):
    calls = []
    monkeypatch.setattr(cli, "steady_report", _recording(calls))
    path = tmp_path / "point.json"
    path.write_text(json.dumps(point))
    assert cli.main(["steady", "--config", str(path)]) == 0
    (args,) = calls
    report = _report(*args)
    assert capsys.readouterr().out == _dumps(report) + "\n"
    assert len(report["branches"]) == branches
    assert sum(b["observables"] is not None
               for b in report["branches"]) == with_observables
