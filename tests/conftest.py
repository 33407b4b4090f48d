import pytest

from becck import run_sweep
from becck.cli import preset_spec


@pytest.fixture(scope="session")
def preset_rows():
    """Memoized preset sweeps; several suites share the same row sets.

    The cache is keyed on the spec, so presets that describe the same
    sweep (fig2b and fig4) run it once.
    """
    cache: dict = {}

    def get(name: str):
        spec = preset_spec(name)
        if spec not in cache:
            cache[spec] = run_sweep(spec)
        return cache[spec]

    return get
