"""The library contract: ``becck.__all__`` names what the package exports."""

import becck

# public until the criterion helpers moved to tests/criteria.py and the
# conveniences that no command ran were deleted
REMOVED = ("bistable_window", "CkComparison", "ck_comparison_metrics",
           "pump_rate_from_power", "check_physical")


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
