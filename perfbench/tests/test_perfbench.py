"""Self-tests of the benchmark: metrics emitted, checker sensitivity, seeding.

Run with ``python -m pytest perfbench/tests``. Tiny inputs keep them short;
the verify workload has no tiny form, so its smoke run takes a few seconds.
"""

import copy
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, run, spans  # noqa: E402
from perfbench.make_reference import make_reference  # noqa: E402
from perfbench.workloads import (WORKLOADS, Result, make_inputs,  # noqa: E402
                                 run_pass)

SEED = 7


def _declared(section):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def test_declared_metrics_match_the_emitted_ones():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    for size in ("tiny", "full"):
        a = make_inputs(workload, SEED, size)
        assert a.digest() == make_inputs(workload, SEED, size).digest()
        assert a.digest() != make_inputs(workload, SEED + 1, size).digest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload):
    report = run.run_workload(workload, SEED, seconds=0, trace=True,
                              size="tiny", setup_repeats=1)
    assert report["failed"] == 0, report["failures"]
    assert report["attempted"] >= 1
    assert set(report["end_to_end"]) == set(run.END_TO_END)
    assert set(report["per_layer"]) == set(run.PER_LAYER)
    for value in list(report["end_to_end"].values()) + list(report["per_layer"].values()):
        assert isinstance(value, (int, float)) and math.isfinite(value)
    assert all(v > 0 for v in report["end_to_end"].values())
    assert report["per_layer"]["meanfield.calls"] > 0
    assert report["per_layer"]["trace.spans"] > 0


def test_command_line_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "sweep-strong-pool", "--seed", str(SEED), "--seconds", "0",
         "--trace", "0", "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


def test_command_line_fails_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def tiny_sweep():
    inputs = make_inputs("sweep-bistable", SEED, "tiny")
    ref = make_reference(inputs)
    return inputs, ref


def _first_result(inputs, tmp_path):
    results, _ = run_pass(inputs.write(tmp_path))
    return results[0]


def test_matching_reference_passes(tiny_sweep, tmp_path):
    inputs, ref = tiny_sweep
    result = _first_result(inputs, tmp_path)
    assert checks.check_result(inputs, result,
                               checks.decode_reference(copy.deepcopy(ref))) == []


def test_corrupted_reference_row_raises_failed_frac(tiny_sweep):
    inputs, ref = tiny_sweep
    bad = copy.deepcopy(ref)
    bad["calls"][0]["rows"][1]["n"] *= 1.0 + 1e-6
    report = run.run_workload("sweep-bistable", SEED, seconds=0, trace=False,
                              size="tiny", setup_repeats=1,
                              reference=checks.decode_reference(bad))
    assert report["failed_frac"] > 0


def test_perturbed_sweep_output_is_a_miss(tiny_sweep, tmp_path):
    inputs, _ = tiny_sweep
    result = _first_result(inputs, tmp_path)
    header, first, *rest = result.out.splitlines()
    cells = first.split(",")
    cells[4] = repr(float(cells[4]) * (1.0 + 1e-6))  # n_photon
    bad = dataclasses.replace(result, out="\n".join([header, ",".join(cells), *rest]))
    assert checks.check_result(inputs, bad, None)


def test_perturbed_observable_is_a_miss(tmp_path):
    inputs = make_inputs("steady-points", SEED, "tiny")
    results, _ = run_pass(inputs.write(tmp_path))
    for result in results:
        report = json.loads(result.out)
        stable = [b for b in report["branches"] if b["observables"]]
        if stable:
            stable[0]["observables"]["s_q"] += 1e-6
            bad = dataclasses.replace(result, out=json.dumps(report))
            assert any("s_q" in m for m in checks.check_result(inputs, bad, None))
            return
    pytest.fail("no stable branch in the tiny steady-points inputs")


def test_failing_verify_output_is_a_miss():
    inputs = make_inputs("verify", SEED, "tiny")
    out = "jacobian: FAIL (max relative deviation 1e-3)\nverify: FAIL\n"
    misses = checks.check_result(inputs, Result(0, 0.0, 0.0, 0, out, ""), None)
    assert len(misses) == 2


def test_self_time_subtracts_same_process_children_only():
    recorded = [
        {"pid": 1, "id": 1, "name": "sweep.run", "start": 0, "end": 100,
         "parent": None, "pass": 0, "attrs": {}},
        {"pid": 1, "id": 2, "name": "cli.serialize", "start": 10, "end": 30,
         "parent": [1, 1], "pass": 0, "attrs": {}},
        {"pid": 2, "id": 1, "name": "sweep.point", "start": 5, "end": 95,
         "parent": [1, 1], "pass": 0, "attrs": {}},
    ]
    own = spans.self_times(recorded)
    assert own[(1, 1)] == 80
    assert own[(2, 1)] == 90
