"""The library contract: ``becck.__all__`` names what the package exports."""

import os
import subprocess
import sys

import becck

# public until the criterion helpers moved to tests/criteria.py and the
# conveniences that no command ran were deleted; classify_stability went
# when solve_lyapunov began classifying its own drift as a stack of one;
# the presets are the config layer's, becck.cli.preset_names/preset_spec
REMOVED = ("bistable_window", "CkComparison", "ck_comparison_metrics",
           "pump_rate_from_power", "check_physical", "classify_stability",
           "preset_spec", "preset_names")


def test_every_exported_name_resolves_once():
    assert len(set(becck.__all__)) == len(becck.__all__)
    for name in becck.__all__:
        assert hasattr(becck, name), name


def test_star_import_binds_exactly_the_exported_names():
    namespace: dict = {}
    exec("from becck import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(becck.__all__)


def test_removed_names_are_gone():
    assert [name for name in REMOVED if hasattr(becck, name)] == []
    assert not hasattr(becck.SystemParams, "with_ck")
    assert [name for name in ("_PRESETS", "preset_config", "preset_names",
                              "resolve_workers")
            if hasattr(becck.sweep, name)] == []
    assert not hasattr(becck.meanfield, "BISECT_RTOL")


def test_the_library_loads_no_command_line():
    # in a fresh interpreter, since the tests themselves import becck.cli
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(becck.__file__)))
    proc = subprocess.run([sys.executable, "-c", (
        "import sys, becck; print(sorted({'becck.cli', 'becck.verify', "
        "'argparse'} & set(sys.modules)))")], capture_output=True, text=True,
        env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
