"""Regenerate the stored references for the default seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs one pass of each workload at the default seed and stores what the
checker compares against in ``perfbench/reference/<workload>.json``. Sweep
rows also get ``max_real_part`` from ``becck.run_sweep``, since the marginal
band exception needs it and the CSV does not carry it.

Regenerating a reference changes what counts as correct, so it is a
benchmark change of its own: never part of a change that claims a gain.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

if not __package__:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import checks, run  # run sets the thread limits and sys.path
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, make_inputs, run_pass


def _row_record(row: dict, max_real_part: float) -> dict:
    rec = {k: row[k] for k in ("value", "ck", "branch", "n", "delta", "omega_b",
                               "omega_b_ratio", "stable", "obs")}
    rec.update(alpha=[row["alpha"].real, row["alpha"].imag],
               beta=[row["beta"].real, row["beta"].imag],
               max_real_part=max_real_part)
    return rec


def sweep_reference(call, result) -> dict:
    import becck.cli

    config = call.config
    rows = checks.parse_rows(result.out, config["format"])
    spec = becck.cli.sweep_spec_from_config(becck.cli.build_config(config))
    lib_rows = becck.run_sweep(spec, workers=1)
    if [r["n"] for r in rows] != [r.n_photon for r in lib_rows]:
        raise RuntimeError("run_sweep rows differ from the command output")
    return {"rows": [_row_record(r, lr.max_real_part)
                     for r, lr in zip(rows, lib_rows)]}


def steady_reference(result) -> dict:
    _, branches = checks.parse_steady(result.out)
    for b in branches:
        b["alpha"] = [b["alpha"].real, b["alpha"].imag]
        b["beta"] = [b["beta"].real, b["beta"].imag]
    return {"branches": branches}


def make_reference(inputs) -> dict:
    """Reference dict (as stored) for one pass over ``inputs``."""
    work_dir = run.OUT_DIR / "reference-inputs"
    try:
        results, _ = run_pass(inputs.write(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    calls = []
    for r in results:
        if r.code != 0:
            raise RuntimeError(f"call {r.index} exited {r.code}: {r.err}")
        if inputs.workload == "steady-points":
            calls.append(steady_reference(r))
        elif inputs.workload == "verify":
            calls.append({"suites": checks.parse_verify(r.out)[0]})
        else:
            calls.append(sweep_reference(inputs.calls[r.index], r))
    return {"workload": inputs.workload, "seed": inputs.seed, "size": inputs.size,
            "inputs_digest": inputs.digest(), "calls": calls}


def main(names) -> int:
    for name in names or WORKLOADS:
        ref = make_reference(make_inputs(name, DEFAULT_SEED))
        checks.REFERENCE_DIR.mkdir(exist_ok=True)
        path = checks.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=0) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
