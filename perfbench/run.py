"""Benchmark of the becck package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; becck is imported from its ``src/``.
Passes over the workload's inputs repeat while another one is expected to
end within ``--seconds``.
With ``--trace 0`` every pass is untraced and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are reported. Every command output is checked
(checks.py). Human-readable lines come first; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A report and, when traced, the merged spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

# one BLAS/OpenMP thread in this process, its probes and its pool workers;
# set before NumPy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
sys.path[:0] = [str(SRC), str(ROOT)]

SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 120

# name -> unit, in the order they are printed
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "points_per_s": "1/s",
    "latency_ms_p50": "ms", "latency_ms_p95": "ms", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "meanfield.calls": "count", "meanfield.self_ms_p50": "ms",
    "meanfield.self_ms_p95": "ms", "meanfield.share": "frac",
    "meanfield.f_calls": "count", "meanfield.f_points": "count",
    "meanfield.points_1_branch": "count", "meanfield.points_3_branch": "count",
    "meanfield.warn_adjacent_brackets": "count",
    "meanfield.warn_branch_count": "count", "meanfield.max_residual": "rel",
    "dynamics.build_calls": "count", "dynamics.build_us_p50": "us",
    "dynamics.classify_calls": "count", "dynamics.classify_us_p50": "us",
    "dynamics.classify_per_branch": "ratio", "dynamics.stable": "count",
    "dynamics.marginal": "count", "dynamics.unstable": "count",
    "dynamics.rh_disagreements": "count", "dynamics.min_margin_kappa": "kappa",
    "dynamics.share": "frac",
    "steadystate.lyapunov_calls": "count", "steadystate.lyapunov_us_p50": "us",
    "steadystate.observables_calls": "count",
    "steadystate.observables_us_p50": "us",
    "steadystate.max_residual_rel": "rel",
    "steadystate.min_symplectic_margin": "vacuum", "steadystate.share": "frac",
    "sweep.self_s": "s", "sweep.points": "count", "sweep.rows": "count",
    "sweep.no_stable_branch": "count", "sweep.workers": "count",
    "sweep.share": "frac",
    "cli.rows_serialized": "count", "cli.serialize_us_per_row": "us",
    "cli.bytes_out": "bytes", "cli.config_ms": "ms",
    "cli.steady_report_ms": "ms", "cli.share": "frac",
    "model.derive_calls": "count", "model.derive_us_p50": "us",
    "model.share": "frac",
    "trace.overhead_s": "s", "trace.spans": "count",
}


def _import_becck():
    import becck.cli
    if not Path(becck.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"becck was imported from {becck.__file__}, not {SRC}")
    return becck


def environment() -> dict:
    import numpy
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "nproc": os.cpu_count(), "cpu": cpu,
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                   "OPENBLAS_NUM_THREADS")}}


def setup_probe(workload: str, seed: int, size: str, probe_dir: Path) -> int:
    """Child side of a set-up probe: import, build inputs, print the time."""
    from perfbench.workloads import make_inputs
    _import_becck()
    make_inputs(workload, seed, size).write(probe_dir)
    print(time.perf_counter_ns(), flush=True)
    return 0


def measure_setup(workload: str, seed: int, size: str, probe_dir: Path) -> tuple:
    """(seconds, speed factor) of one set-up probe.

    The seconds run from launching a fresh interpreter to becck imported and
    the workload's inputs written; both processes read CLOCK_MONOTONIC. The
    speed factor comes from speed probes run just before and just after.
    """
    from perfbench.workloads import SPEED_REF_S, speed_probe
    speed = [speed_probe() for _ in range(3)]
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--size", size, "--setup-probe", str(probe_dir)]
    t0 = time.perf_counter_ns()
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    speed += [speed_probe() for _ in range(3)]
    factor = statistics.mean(speed) / SPEED_REF_S
    shutil.rmtree(probe_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return (int(proc.stdout.split()[-1]) - t0) / 1e9, factor


def _warm_up(work_dir: Path):
    """One steady solve, so lazy imports and first-call costs are paid."""
    from perfbench.workloads import run_pass
    path = work_dir / "warm-up.json"
    path.write_text('{"delta_c": "5*kappa", "eta": "2*kappa"}', encoding="utf-8")
    run_pass([["steady", "--config", str(path)]])


def per_command_medians(passes: list, key: str) -> list:
    """Each command's median time over the given passes."""
    return [statistics.median(times) for times in zip(*(p[key] for p in passes))]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", setup_repeats: int = SETUP_REPEATS,
                 reference="stored") -> dict:
    """Measure one workload; return the full report as a dict.

    Every command time is divided by the speed factor measured around it
    (see ``workloads.speed_factors`` and README.md, "Timing method"); the
    raw times are in the report too.
    """
    from perfbench import checks, spans
    from perfbench.workloads import (SPEED_REF_S, CpuProbes, make_inputs,
                                     run_pass, speed_factors, speed_probe)

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        inputs = make_inputs(workload, seed, size)
        argvs = inputs.write(work_dir / "inputs")
        if reference == "stored":
            reference = checks.load_reference(inputs)
        setup: list = []

        def probe():
            setup.append(measure_setup(workload, seed, size,
                                       work_dir / f"probe-{len(setup)}"))

        probe()
        _warm_up(work_dir)

        tracer = spans.Tracer(work_dir / "spill") if trace else None
        kinds = ("untraced", "traced") if trace else ("untraced",)
        passes: list = []
        verdicts: dict = {}
        failures: list = []
        attempted = failed = 0
        t_start = time.perf_counter()
        with (CpuProbes() if inputs.pool else contextlib.nullcontext(speed_probe)) as ref:
            while True:
                t_pass = time.perf_counter()
                kind = kinds[len(passes) % len(kinds)]
                if kind == "traced":
                    tracer.pass_id = len(passes)
                    with spans.Instrumented(tracer):
                        results, speed = run_pass(argvs, tracer, probe=ref)
                else:
                    results, speed = run_pass(argvs, probe=ref)
                factors = speed_factors(results, speed)
                passes.append({"kind": kind,
                               "factor": statistics.mean(t for _, t in speed) / SPEED_REF_S,
                               "raw_ops": [r.seconds for r in results],
                               "ops": [r.seconds / f for r, f in zip(results, factors)],
                               "bytes": sum(len(r.out) for r in results)})
                # identical outputs get identical verdicts: check each once
                for r in results:
                    key = (r.index, r.code, hash(r.out))
                    if key not in verdicts:
                        verdicts[key] = checks.check_result(inputs, r, reference)
                    attempted += 1
                    if verdicts[key]:
                        failed += 1
                        if len(failures) < 20:
                            failures.append({"pass": len(passes) - 1, "call": r.index,
                                             "misses": verdicts[key][:5]})
                elapsed = time.perf_counter() - t_start
                while (len(setup) < setup_repeats
                       and elapsed >= seconds * len(setup) / setup_repeats):
                    probe()
                # at least two passes; another only if it should end in time
                last = time.perf_counter() - t_pass
                if (len(passes) >= 2
                        and time.perf_counter() - t_start + last > seconds):
                    break
        while len(setup) < setup_repeats:
            probe()

        untraced = [p for p in passes if p["kind"] == "untraced"]
        ops = per_command_medians(untraced, "ops")
        wall_s = statistics.median(sum(p["ops"]) for p in untraced)
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        end_to_end = {
            "setup_s": statistics.median(t / f for t, f in setup),
            "wall_s": wall_s,
            "points_per_s": inputs.points_per_pass / wall_s,
            "latency_ms_p50": spans.percentile(ops, 50) * 1e3,
            "latency_ms_p95": spans.percentile(ops, 95) * 1e3,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        samples = {"setup_s": len(setup), "wall_s": len(untraced),
                   "points_per_s": len(untraced), "latency_ms_p50": len(ops),
                   "latency_ms_p95": len(ops), "peak_rss_mb": 1}
        raw_ops = per_command_medians(untraced, "raw_ops")
        report = {
            "workload": workload, "seed": seed, "size": size, "trace": int(trace),
            "seconds": seconds, "environment": environment(),
            "inputs_digest": inputs.digest(),
            "points_per_pass": inputs.points_per_pass,
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted, "failures": failures,
            "reference_checked": reference is not None,
            "end_to_end": end_to_end, "samples": samples,
            "raw": {
                "setup_s": statistics.median(t for t, _ in setup),
                "wall_s": statistics.median(sum(p["raw_ops"]) for p in untraced),
                "latency_ms_p50": spans.percentile(raw_ops, 50) * 1e3,
                "latency_ms_p95": spans.percentile(raw_ops, 95) * 1e3,
            },
            "speed_factors": {"passes": [p["factor"] for p in passes],
                              "setup": [f for _, f in setup]},
        }
        if trace:
            traced = [p for p in passes if p["kind"] == "traced"]
            recorded = tracer.collect()
            factors = {i: p["factor"] for i, p in enumerate(passes)}
            layers = spans.layer_metrics(recorded, len(traced), traced[0]["bytes"],
                                         factors)
            per_layer = layers["metrics"]
            traced_wall = statistics.median(sum(p["ops"]) for p in traced)
            per_layer["trace.overhead_s"] = traced_wall - wall_s
            per_layer["trace.spans"] = layers["spans_per_pass"]
            report.update(per_layer=per_layer, warnings=layers["warnings"],
                          traced_wall_s=traced_wall)
            report["samples"]["traced_passes"] = len(traced)
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            with open(OUT_DIR / f"{workload}-seed{seed}-spans.jsonl", "w",
                      encoding="utf-8") as fh:
                for s in recorded:
                    fh.write(json.dumps(s) + "\n")
        return report
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def print_report(report: dict):
    env = report["environment"]
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"trace={report['trace']} size={report['size']}")
    print(f"  environment: Python {env['python']}, NumPy {env['numpy']}, "
          f"BLAS {env['blas']}, nproc {env['nproc']}, CPU {env['cpu']}")
    from perfbench.workloads import SPEED_REF_S
    factors = report["speed_factors"]["passes"]
    print(f"  speed factor (probe time / {SPEED_REF_S * 1e3:g} ms): median "
          f"{statistics.median(factors):.3f} over {len(factors)} passes")
    print(f"  operations: {report['attempted']} attempted, {report['failed']} "
          f"failed, failed_frac {report['failed_frac']:.4g} "
          f"(reference checked: {report['reference_checked']})")
    for f in report["failures"][:5]:
        print(f"  FAILED pass {f['pass']} call {f['call']}: {'; '.join(f['misses'])}")
    for name, unit in END_TO_END.items():
        raw = report["raw"].get(name)
        print(f"  {name:<34} {report['end_to_end'][name]:>14.6g} {unit:<6} "
              f"n={report['samples'][name]}"
              + (f"  (raw {raw:.6g})" if raw is not None else ""))
    if report["trace"]:
        print(f"  traced passes: {report['samples']['traced_passes']}, "
              f"traced wall_s {report['traced_wall_s']:.6g} s")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<34} {report['per_layer'][name]:>14.6g} {unit}")
        for source, hist in report["warnings"].items():
            print(f"  warnings per pass ({source}): {json.dumps(hist)}")


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-tests")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        _import_becck()
    except ImportError as exc:
        print(f"perfbench: cannot import becck from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.size, Path(args.setup_probe))

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          size=args.size)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print_report(report)
    chosen = (report["per_layer"], PER_LAYER) if args.trace else (
        report["end_to_end"], END_TO_END)
    metrics = {name: {"value": chosen[0][name], "unit": unit}
               for name, unit in chosen[1].items()}
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
