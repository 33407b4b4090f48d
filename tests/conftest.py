import os
from dataclasses import replace

import pytest

from becck import preset_spec, run_sweep


def _worker_count() -> int:
    return max(1, min(8, os.cpu_count() or 1))


@pytest.fixture(scope="session")
def preset_rows():
    """Memoized preset sweeps; several suites share the same row sets.

    The cache is keyed on the spec without its preset name, so presets
    that describe the same sweep (fig2b and fig4) run it once.
    """
    cache: dict = {}

    def get(name: str):
        spec = replace(preset_spec(name), preset=None)
        if spec not in cache:
            cache[spec] = run_sweep(spec, workers=_worker_count())
        return cache[spec]

    return get


@pytest.fixture(scope="session")
def sweep_workers():
    return _worker_count()
