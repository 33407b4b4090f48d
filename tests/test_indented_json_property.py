"""Property test of ``cli.indented_json``: for every JSON value it writes
the text of ``json.dumps(x, indent=2, allow_nan=False)``, and where that
raises, it raises the same error; ``steady`` writes its report with it."""

import enum
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
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


# finite floats with signed zero, subnormals and the largest exponents;
# np.float64, an IntEnum, a str subclass and tuples take json's isinstance
# path
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
         -1e308, 1.7976931348623157e308, 1e16, 1e-5, 0.1]
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGES))
# keys and strings with non-ASCII, surrogate and control characters
text = st.text(st.characters(exclude_categories=()), max_size=6)
scalars = st.one_of(
    st.none(), st.booleans(), finite, text,
    st.integers(), st.integers(-(2 ** 200), 2 ** 200),
    st.builds(np.float64, finite), st.sampled_from(_Level),
    st.builds(_Name, text))


def json_values(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.builds(tuple, st.lists(inner, max_size=3)),
            st.dictionaries(text, inner, max_size=4)),
        max_leaves=24)


NONFINITE = st.sampled_from([float("nan"), float("inf"), float("-inf"),
                             np.float64("nan"), np.float64("-inf")])


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

