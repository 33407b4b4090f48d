"""Property test of ``cli.indented_json``: for every value of JSON's own
types it writes the text of ``json.dumps(x, indent=2, allow_nan=False)``,
and where that raises, it raises the same error; a value of any other type
raises json's ``TypeError`` naming it; ``steady`` writes its report with
it."""

import enum
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from becck import cli  # noqa: E402


def _dumps(x):
    return json.dumps(x, indent=2, allow_nan=False)


def _outcome(write, x):
    """The text ``write`` returns for ``x``, or the type and text of the
    error it raises."""
    try:
        return write(x)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


class _Level(enum.IntEnum):
    LOW = -1
    HIGH = 2 ** 70


class _Name(str):
    pass


# finite floats with signed zero, subnormals and the largest exponents
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
         -1e308, 1.7976931348623157e308, 1e16, 1e-5, 0.1]
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGES))
# keys and strings with non-ASCII, surrogate and control characters
text = st.text(st.characters(exclude_categories=()), max_size=6)
scalars = st.one_of(st.none(), st.booleans(), finite, text,
                    st.integers(), st.integers(-(2 ** 200), 2 ** 200))
NONFINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
# subclasses of JSON's scalar types, which json.dumps writes by isinstance
FOREIGN = st.one_of(st.builds(np.float64, st.one_of(finite, NONFINITE)),
                    st.sampled_from(_Level), st.builds(_Name, text))


def json_values(leaves, *containers):
    """Nested lists and str-keyed dicts of ``leaves``, and the containers
    that each of ``containers`` makes of the values inside."""
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(text, inner, max_size=4),
            *(make(inner) for make in containers)),
        max_leaves=24)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(json_values(scalars))
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[]], "é\x00\n": {"": [{}]}})
@example([True, False, None, 0, -0.0, 10 ** 40, "nan", "inf"])
def test_writer_is_json_dumps_indent_2(x):
    assert cli.indented_json(x) == _dumps(x)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(json_values(st.one_of(scalars, NONFINITE, NONFINITE)))
@example(float("nan"))
@example([1.0, float("inf")])
@example({"a": [1.0], "b": float("-inf"), "c": [float("nan")]})
@example({"a": [float("nan")], "b": float("inf")})
@example([{"x": 1}, float("nan")])
def test_nonfinite_floats_raise_what_json_dumps_raises(x):
    assert _outcome(cli.indented_json, x) == _outcome(_dumps, x)


def _first_foreign(x):
    """``(v,)`` of the first value ``v`` of ``x``, in document order, whose
    type is not one of JSON's own, or None."""
    if type(x) is dict or type(x) is list:
        return next(filter(None, map(_first_foreign, x.values()
                                     if type(x) is dict else x)), None)
    return None if type(x) in (str, int, float, bool, type(None)) else (x,)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(json_values(st.one_of(scalars, FOREIGN),
                   lambda inner: st.builds(tuple, st.lists(inner, max_size=3))))
@example(np.float64(1.5))
@example([1.0, np.float64("nan")])
@example({"a": _Level.LOW, "b": [()]})
@example([[_Name("x")], np.float64(0.0)])
def test_other_types_raise_jsons_type_error(x):
    found = _first_foreign(x)
    assume(found is not None)
    assert _outcome(cli.indented_json, x) == (
        TypeError,
        f"Object of type {type(found[0]).__name__} is not JSON serializable")


def test_unserializable_values_raise_what_json_dumps_raises():
    for x in (object(), [1.0, {"a": np.int64(3)}], {"a": [float("nan")],
                                                    "b": object()}):
        assert _outcome(cli.indented_json, x) == _outcome(_dumps, x)


def _recording(reports):
    """``cli.indented_json``, recording the values of its outermost calls."""
    write = cli.indented_json

    def record(x, nl="\n"):
        if nl == "\n":
            reports.append(x)
        return write(x, nl)
    return record


@pytest.mark.parametrize("point,branches,with_observables", [
    ({"delta_c": "5.0*kappa", "eta": "2.0*kappa"}, 3, 2),
    ({"delta_c": "2*kappa", "eta": "4.25*kappa", "omega_sw": "27*omegaR"},
     1, 0),
], ids=["three-branches", "no-observables"])
def test_steady_writes_the_json_dumps_text_of_its_report(
        tmp_path, capsys, monkeypatch, point, branches, with_observables):
    reports = []
    monkeypatch.setattr(cli, "indented_json", _recording(reports))
    path = tmp_path / "point.json"
    path.write_text(json.dumps(point))
    assert cli.main(["steady", "--config", str(path)]) == 0
    (report,) = reports
    assert capsys.readouterr().out == _dumps(report) + "\n"
    assert len(report["branches"]) == branches
    assert sum(b["observables"] is not None
               for b in report["branches"]) == with_observables

