"""Property test of the row text: the %-templates of ``row_to_csv`` and
``row_to_json`` write every row exactly as the per-cell formulas below do,
and both refuse a row with a float cell that is not finite."""

import json
import math
import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from becck.cli import CSV_COLUMNS, row_to_csv, row_to_json  # noqa: E402
from becck.dynamics import InternalConsistencyError  # noqa: E402
from becck.sweep import SWEEP_VARS, SweepRow  # noqa: E402


def _fmt(x) -> str:
    """Oracle of one CSV cell."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    return f"{x:.17g}"


# finite floats, with the values where the text of a float changes form:
# signed zero, subnormals, the smallest normal and both sides of the
# 1e16 and 1e-4 switches of repr to exponent form (1e-5 is written 1e-05)
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         2.225073858507201e-308, 1e16, 9999999999999998.0, 1e16 + 2.0,
         -1e16, 1e-5, 9.999999999999999e-06, 1.0000000000000001e-05,
         1e-4, 9.999999999999999e-05, 1.7976931348623157e308, 0.1, 1.0]
plain = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from(EDGES))
floats = st.one_of(plain, st.builds(np.float64, plain))
flags = st.booleans()


@st.composite
def rows(draw):
    """A row and its 19 cells in CSV_HEADER order."""
    observables = draw(st.one_of(st.just((None,) * 4),
                                 st.tuples(floats, floats, floats, floats)))
    alpha, beta = (draw(st.one_of(st.builds(complex, plain, plain),
                                  st.builds(np.complex128, plain, plain)))
                   for _ in range(2))
    fields = dict(
        sweep_var=draw(st.sampled_from(SWEEP_VARS)), sweep_value=draw(floats),
        ck_enabled=draw(flags), branch_index=draw(st.integers(0, 2)),
        n_photon=draw(floats), alpha=alpha, beta=beta, Delta=draw(floats),
        omega_B=draw(floats), omega_B_ratio=draw(floats), stable=draw(flags),
        lattice_ok=draw(flags),
        bogoliubov_ok=draw(st.sampled_from([None, True, False])))
    row = SweepRow(n_branches=3, E_N=observables[0], S_Q=observables[1],
                   S_P=observables[2], n_incoherent=observables[3],
                   warnings=(), covariance=None, max_real_part=-1.0, **fields)
    cells = (fields["sweep_var"], fields["sweep_value"],
             "on" if fields["ck_enabled"] else "off", fields["branch_index"],
             fields["n_photon"], alpha.real, alpha.imag, beta.real, beta.imag,
             fields["Delta"], fields["omega_B"], fields["omega_B_ratio"],
             fields["stable"], *observables, fields["lattice_ok"],
             fields["bogoliubov_ok"])
    return row, cells


@settings(max_examples=400, derandomize=True, deadline=None)
@given(rows())
def test_row_text_equals_the_per_cell_formulas(row_and_cells):
    row, cells = row_and_cells
    assert len(cells) == len(CSV_COLUMNS)
    assert row_to_csv(row) == ",".join(_fmt(cell) for cell in cells)
    assert row_to_json(row) == json.dumps(dict(zip(CSV_COLUMNS, cells)))



# the row field behind each float column, and the part of a complex field
FLOAT_CELLS = {"sweep_value": ("sweep_value", None),
               "n_photon": ("n_photon", None), "alpha_re": ("alpha", "real"),
               "alpha_im": ("alpha", "imag"), "beta_re": ("beta", "real"),
               "beta_im": ("beta", "imag"), "delta_eff": ("Delta", None),
               "omega_b": ("omega_B", None),
               "omega_b_ratio": ("omega_B_ratio", None),
               "e_n": ("E_N", None), "s_q": ("S_Q", None),
               "s_p": ("S_P", None), "n_incoh": ("n_incoherent", None)}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rows(), st.sampled_from(sorted(FLOAT_CELLS)),
       st.sampled_from([math.nan, math.inf, -math.inf]))
def test_row_writers_refuse_a_cell_that_is_not_finite(row_and_cells, column,
                                                      x):
    row = row_and_cells[0]
    field, part = FLOAT_CELLS[column]
    if part is not None:
        z = getattr(row, field)
        x = complex(x, z.imag) if part == "real" else complex(z.real, x)
    row = row._replace(**{field: x})
    bad = getattr(x, part) if part else x
    for write in (row_to_csv, row_to_json):
        with pytest.raises(InternalConsistencyError,
                           match=rf": {column} = {re.escape(repr(bad))} is "
                                 "not finite$"):
            write(row)
