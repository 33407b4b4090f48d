"""Stack-stage, per-preset and command timings of becck, in one JSON file.

    python scripts/bench.py --out REPORT.json [--before CHECKOUT]
                            [--repeats N]

Measures the package in this checkout's ``src/`` ("after") and, with
``--before``, the ``src/`` of another checkout, such as an export of the
parent commit ("before"). Both are loaded into this one interpreter, with
one BLAS thread, the before side as the package ``becck_before``. Each side
has one table of timed calls; every call is timed for both sides back to
back, repeat by repeat, the side going first alternating, so a change in
the load of a shared machine reaches both alike. A round's figure of a
call is the median of its repeats; each is reported per side as the
median and the quartiles (``q1``, ``q3``) over the ``--repeats`` rounds.
Recorded per side:

* per-stage figures at three fixed points (monostable, bistable, and the
  strong drive eta = 7 kappa), through the functions that ``steady`` and
  ``sweep`` run, in microseconds per call: at a paired delta_c grid of 4
  values from the point in steps of 0.01 kappa, ``classify_points`` on
  batches of 1, 4 and 8 of its points (one point with cross-Kerr on, or 2
  and 4 grid values with both settings, as a paired sweep builds them)
  and ``enumerate_branches`` at the point; on the branches of the 8-point
  batch (``branches_8``), ``drift_diffusion_stacks`` (``build_8_us``) and
  ``classify_batch`` (``classify_8_us``), and on its strictly stable ones
  (``stable_8``) ``lyapunov_batch`` (``lyapunov_8_us``) and
  ``observables_batch`` (``observables_8_us``); ``run_sweep`` of the grid
  (``sweep_8_points_us``), and ``row_to_csv``/``row_to_json`` per row of
  it;
* the serial wall time of each of the nine presets (one run per round, in
  seconds);
* the command path around the stacks, per command (a bistable ``steady``
  point, a 2-point fig2b CSV slice, a 4-point fig6 json-lines slice, and
  ``verify --seed 7 --perturb-drift 1e-3``), in microseconds per call:
  parsing its argv (``parse_us``, ``cli.parse_command_line``) and
  ``build_config`` on its config (``build_config_us``); for the ``steady``
  point also writing its report (``steady_report_us``,
  ``cli.steady_report``);
* end to end through the command line (``becck.cli.main`` in process,
  stdout discarded): one ``steady`` point (bistable, in milliseconds), the
  4-point fig6 json-lines slice (in milliseconds) and one ``verify`` run at
  its default seed (in seconds);
* the wall time of one run of the checkout's tier-1 tests (the command in
  ROADMAP.md, run from the checkout's root) and pytest's summary line.

Recorded once per side, since they do not vary from run to run:

* ``lines``: the line count of each ``src/becck/*.py``;
* ``public_names``: the number of names in ``becck.__all__``;
* ``polish_calls``: the root-function calls of the root polish
  (``meanfield._bisect``) per polished root over the nine presets (mean
  and maximum, with the root count), and all root-function calls there
  (``f_calls``);
* ``outputs``: the exit code and the SHA-256 digests of stdout and stderr
  of command-line runs (the side's ``cli.main`` in process): the CSV, the
  json-lines and the ``--dump-config`` of each of the nine presets,
  ``steady`` at 30 seeded random points, ``verify`` at its default seed
  and at ``--seed 7 --perturb-drift 1e-3``, the runs of REFUSALS (their
  exit codes and stderr lines) and the runs of ARGPARSE_RUNS, which
  argparse reads (help, usage and error texts, and the ``SystemExit`` code
  where argparse exits).

With ``--before``, ``differing_outputs`` maps each output that differs
between the sides (none when every output is byte-identical) to what
changed: per column, the largest relative change of its numbers, or
"text" where a cell that is no number (a flag, a branch count's layout, a
word) differs; a column is a CSV column, a JSON key path or a text line's
first word, and "exit" and "stderr:" columns stand for the exit code and
stderr. ``after_over_before`` holds, per timed figure, the median and
quartiles over the rounds of its per-round ratio after/before. Both sides
of a round are timed back to back, so the ratio follows the code where
each side's own figure also follows the load of the machine.

Timings on a shared machine swing by up to 2x; compare sides measured in
one invocation by their ratio, and against the ratios of a run with
``--before`` an unmodified copy of the same tree: identical code can put a
ratio's quartiles a few percent off 1. Nothing here asserts a time.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import importlib.util
import io
import itertools
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# name: (delta_c, eta) in units of kappa, cross-Kerr on
POINTS = {"monostable": (-5.0, 2.0), "bistable": (5.0, 2.0),
          "strong": (0.0, 7.0)}


class Timed(NamedTuple):
    """``fn`` run ``number`` times per repeat: a round's figure is the median
    over ``repeat`` repeats of the time per run, times ``unit``."""
    fn: Callable
    number: int = 200
    unit: float = 1e6
    repeat: int = 7


def _per_item(fn, items):
    """``fn`` on every item in one timed call, in microseconds per item."""
    return Timed(lambda: [fn(*it) for it in items],
                 unit=1e6 / len(items)) if items else None


def load_package(name: str, checkout: Path):
    """The package ``src/becck`` of ``checkout``, imported as ``name``, with
    its command line ``name.cli``, which the package itself need not load."""
    src = checkout / "src" / "becck"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def _batch_points(becck, spec, size):
    """``size`` points for ``classify_points`` at the first values of the
    grid of ``spec``, both cross-Kerr settings unless ``size`` is 1, as a
    paired sweep builds them."""
    cks = (True,) if size == 1 else (False, True)
    return [becck.derive_params(dataclasses.replace(
        spec.base, delta_c=x, ck_enabled=ck))
        for x in spec.grid()[:size // len(cks)].tolist() for ck in cks]


def stages(becck, spec) -> dict:
    """Timed stages of the stacked pipeline at the paired delta_c grid
    ``spec``, through the functions that ``steady`` and ``sweep`` run, with
    the counts of branches and of strictly stable ones they work on."""
    dynamics, steadystate = becck.dynamics, becck.steadystate
    classify_points = becck.sweep.classify_points
    batches = {size: _batch_points(becck, spec, size) for size in (1, 4, 8)}
    ds = batches[8]
    _, branches, dd, report = classify_points(ds)
    pairs = [(ds[p], b) for p, b in branches]
    keep = steadystate.strictly_stable(report).nonzero()[0]
    stable_dd, stable_report = (r._make(x[keep] for x in r)
                                for r in (dd, report))
    cov = steadystate.lyapunov_batch(stable_dd, stable_report)
    rows = becck.run_sweep(spec)
    cli = becck.cli
    return {
        "branches_8": len(branches), "stable_8": len(keep),
        **{f"classify_points_{size}_us": Timed(
            lambda batch=batch: classify_points(batch), 20)
           for size, batch in batches.items()},
        "enumerate_us": Timed(
            lambda: becck.enumerate_branches(batches[1][0]), 50),
        "build_8_us": Timed(lambda: dynamics.drift_diffusion_stacks(pairs),
                            50),
        "classify_8_us": Timed(
            lambda: dynamics.classify_batch(dd.A, dd.kappa), 50),
        "lyapunov_8_us": Timed(lambda: steadystate.lyapunov_batch(
            stable_dd, stable_report), 50),
        "observables_8_us": Timed(
            lambda: steadystate.observables_batch(stable_dd, cov), 50),
        "sweep_8_points_us": Timed(lambda: becck.run_sweep(spec), 20),
        "row_to_csv_us": _per_item(cli.row_to_csv, [(r,) for r in rows]),
        "row_to_json_us": _per_item(cli.row_to_json, [(r,) for r in rows]),
    }


# argv and config of the commands whose path around the stacks is timed
COMMANDS = {
    "steady": (["steady"], {"delta_c": "5.0*kappa", "eta": "2.0*kappa"}),
    "sweep_fig2b_csv": (["sweep"], {"preset": "fig2b", "sweep_count": 2,
                                    "sweep_min": "4.9*kappa",
                                    "sweep_max": "5.1*kappa"}),
    "sweep_fig6_jsonl": (["sweep"], {"preset": "fig6", "sweep_count": 4,
                                     "sweep_min": "-1.0*kappa",
                                     "sweep_max": "0.425*kappa",
                                     "format": "json-lines"}),
    "verify": (["verify", "--seed", "7", "--perturb-drift", "1e-3"], None),
}


ETA_BELOW_0 = {"sweep_var": "eta", "sweep_min": "-1*kappa",
               "sweep_max": "1*kappa", "sweep_count": 3}
# name: (argv, config) of the runs whose exit code and stderr are recorded
REFUSALS = {
    # a report with a NaN: json's ValueError, exit 3
    "steady-report-nan": (["steady"], {"eta": "1e150*kappa",
                                       "delta_c": "1*kappa"}),
    # Omega_minus*Omega_plus < 0 on branch 1, exit 3
    "steady-red-detuned": (["steady"], {
        "delta_a": -7.5e11, "eta": "1000*kappa", "delta_c": "-30*kappa",
        "omega_sw": "40*omegaR"}),
    # Omega_minus and Omega_plus both negative on branch 1, exit 3
    "steady-inverted-mode": (["steady"], {
        "delta_a": -7.5e11, "omega_sw": 0, "eta": "100*kappa",
        "delta_c": "-40*kappa"}),
    # a sweep grid outside eta's domain, exit 2
    "steady-eta-below-0": (["steady"], ETA_BELOW_0),
    "dump-config-eta-below-0": (["sweep", "--dump-config"], ETA_BELOW_0),
    # a key given twice, written as its text, exit 2
    "steady-duplicate-key": (["steady"], '{"eta": "2*kappa", "eta": 0}'),
    # no drive with the rates 14 decades apart: a stable branch, exit 0
    "steady-no-drive-kappa-1e-10": (["steady"], {"kappa": 1e-10}),
    # a stable branch whose eigenvalues put a real part at +1.55e12 rad/s,
    # which Routh-Hurwitz contradicts, exit 3
    "steady-eta-1e40": (["steady"], {"eta": "1e40*kappa"}),
}


# name: argv of the command-line runs that argparse reads (help, no or an
# unknown command, a bad choice, an unknown option, an extra word, an option
# without its value, ``--``, an abbreviation, ``--name=value``, a value that
# starts with '-'), with ``<cfg>`` standing for the path of the ``steady``
# config of COMMANDS; their outputs hold no temporary path
ARGPARSE_RUNS = {
    "no-arguments": [],
    "help": ["--help"],
    "bogus-command": ["bogus"],
    "steady-help": ["steady", "--help"],
    "sweep-preset-fig9": ["sweep", "--preset", "fig9"],
    "steady-extra": ["steady", "extra"],
    "steady-conf": ["steady", "--conf", "<cfg>"],
    "steady-config-equals": ["steady", "--config=<cfg>"],
    "verify-pe-negative": ["verify", "--pe", "-1e-3", "--seed", "7"],
    "sweep-bogus-option": ["sweep", "--preset", "fig2b", "--bogus"],
    "steady-config-no-value": ["steady", "--config"],
    "steady-double-dash": ["steady", "--", "x"],
    "verify-perturb-extra": ["verify", "--perturb-drift", "-1e-3", "extra"],
    "verify-pe-help": ["verify", "--pe", "-1e-3", "-h"],
}


def _write_config(tmp: str, name: str, config) -> list:
    """The ``--config`` arguments of ``config`` (a str is its text),
    written below ``tmp``."""
    if config is None:
        return []
    path = Path(tmp) / f"{name}.json"
    text = config if isinstance(config, str) else json.dumps(config)
    path.write_text(text, encoding="utf-8")
    return ["--config", str(path)]


def command_path(becck, tmp: str) -> dict:
    """Per command of COMMANDS: parse and ``build_config``, and for
    ``steady`` writing its report."""
    cli = becck.cli
    calls = {}
    for name, (argv, config) in COMMANDS.items():
        argv = argv + _write_config(tmp, name, config)
        calls[name] = {
            "parse_us": Timed(lambda argv=argv: cli.parse_command_line(argv)),
            "build_config_us": Timed(
                lambda data=config or {}: cli.build_config(data)),
        }
    # the report writer as cmd_steady calls it, on the point's records
    cfg = cli.build_config(dict(COMMANDS["steady"][1]))
    d = becck.derive_params(cfg.params)
    (bset,), _, stability, evaluated = becck.sweep.evaluate_points([d])
    args = (d, bset.warnings, stability, evaluated)
    calls["steady"]["steady_report_us"] = Timed(
        lambda: cli.steady_report(*args))
    return calls


def timed_calls(becck, tmp: str) -> dict:
    """The table of timed calls of the package ``becck``, nested as the
    report; a leaf that is no Timed is recorded as it is."""
    import numpy

    base = becck.paper_base_params()
    k = base.kappa
    layers = {name: stages(becck, becck.SweepSpec(
        var="delta_c", start=dc * k, stop=(dc + 0.03) * k, count=4,
        base=dataclasses.replace(base, eta=eta * k)))
        for name, (dc, eta) in POINTS.items()}
    presets = {name: Timed(lambda spec=becck.cli.preset_spec(name):
                           becck.run_sweep(spec), 1, 1.0, 1)
               for name in becck.cli.preset_names()}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "per_layer": layers, "command_path": command_path(becck, tmp),
            "preset_wall_s": presets, "end_to_end": end_to_end(becck, tmp)}


def end_to_end(becck, tmp: str) -> dict:
    """CLI commands run in process, stdout discarded."""
    main = becck.cli.main

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)

    dc, eta = POINTS["bistable"]
    point = _write_config(tmp, "point", {"delta_c": f"{dc}*kappa",
                                         "eta": f"{eta}*kappa"})
    argv, config = COMMANDS["sweep_fig6_jsonl"]
    fig6 = argv + _write_config(tmp, "fig6", config)
    return {"steady_point_ms": Timed(lambda: run(["steady", *point]), 20,
                                     1e3),
            "sweep_fig6_4_jsonl_ms": Timed(lambda: run(fig6), 20, 1e3),
            "verify_s": Timed(lambda: run(["verify"]), 1, 1.0, 1)}


def one_round(tables: list, turns) -> list:
    """One round of the tables ``tables`` (one per side, nested alike), each
    Timed leaf replaced by its figure: timed for all sides back to back,
    repeat by repeat, the side that goes first moving on at each repeat."""
    if isinstance(tables[0], dict):
        parts = {k: one_round([t[k] for t in tables], turns)
                 for k in tables[0]}
        return [dict(zip(parts, side)) for side in zip(*parts.values())]
    timed = [i for i, t in enumerate(tables) if isinstance(t, Timed)]
    times = {i: [] for i in timed}
    for _ in range(max((tables[i].repeat for i in timed), default=0)):
        first = next(turns) % len(timed)
        for i in timed[first:] + timed[:first]:
            fn, number, unit, _ = tables[i]
            times[i].append(timeit.Timer(fn).timeit(number) / number * unit)
    return [statistics.median(times[i]) if i in times else t
            for i, t in enumerate(tables)]


def outputs(becck) -> dict:
    """Exit code, stdout and stderr of the commands listed in the module
    docstring, run through ``becck.cli.main`` in process."""
    main = becck.cli.main

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's help, usage and errors
                code = exc.code
        return {"exit": code, "stdout": out.getvalue(),
                "stderr": err.getvalue()}

    names = becck.cli.preset_names()
    records = {f"sweep/{name}.csv": run(["sweep", "--preset", name])
               for name in names}
    records.update((f"dump-config/{name}", run(
        ["sweep", "--preset", name, "--dump-config"])) for name in names)
    with tempfile.TemporaryDirectory() as tmp:
        jsonl = _write_config(tmp, "jsonl", {"format": "json-lines"})
        for name in names:
            records[f"sweep/{name}.jsonl"] = run(
                ["sweep", "--preset", name, *jsonl])
        rng = random.Random(8)
        for i in range(30):
            point = Path(tmp) / f"steady_{i:02d}.json"
            point.write_text(json.dumps({
                "delta_c": f"{rng.uniform(-10.0, 15.0)!r}*kappa",
                "eta": f"{10.0 ** rng.uniform(-1.0, 1.0)!r}*kappa",
                "omega_sw": f"{rng.uniform(0.0, 20.0)!r}*omegaR",
                "ck_enabled": rng.random() < 0.5}))
            records[f"steady/{i:02d}"] = run(["steady", "--config",
                                              str(point)])
        for name, (argv, config) in REFUSALS.items():
            records[f"refusal/{name}"] = run(
                argv + _write_config(tmp, name, config))
        config = _write_config(tmp, "argparse", COMMANDS["steady"][1])[1]
        for name, argv in ARGPARSE_RUNS.items():
            records[f"argparse/{name}"] = run(
                [word.replace("<cfg>", config) for word in argv])
    records["verify/default"] = run(["verify"])
    records["verify/seed7-perturb1e-3"] = run(
        ["verify", "--seed", "7", "--perturb-drift", "1e-3"])
    return records


def digests(runs: dict) -> dict:
    """``outputs`` with stdout and stderr as their SHA-256 digests."""
    return {name: {key: value if key == "exit" else
                   hashlib.sha256(value.encode()).hexdigest()
                   for key, value in run.items()}
            for name, run in runs.items()}


# a decimal number, as the outputs write them
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _leaves(x, path=""):
    """(key path, value) of each leaf of a JSON value, list positions left
    out of the path."""
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(x, list):
        for v in x:
            yield from _leaves(v, path)
    else:
        yield path, x


def _cells(text: str) -> list:
    """(column, cell) of each cell of an output in order: a JSON document's
    or JSON lines' leaves by key path, a CSV's cells by header, else each
    line's numbers and the text between them, under the line's first
    word."""
    lines = text.splitlines()
    with contextlib.suppress(ValueError):
        return list(_leaves(json.loads(text)))
    with contextlib.suppress(ValueError):
        return [cell for line in lines for cell in _leaves(json.loads(line))]
    if lines and "," in lines[0] and " " not in lines[0]:
        rows = list(csv.reader(lines))
        return [cell for row in rows[1:] for cell in zip(rows[0], row)]
    return [(line.split()[0].rstrip(":"), part) for line in lines
            if line.strip() for part in _NUMBER.split(line)]


def _number(x):
    """``x`` as a float where it is a number (JSON or decimal text), else
    None."""
    if type(x) in (int, float):
        return float(x)
    if isinstance(x, str) and _NUMBER.fullmatch(x):
        return float(x)
    return None


def column_changes(after: str, before: str) -> dict:
    """Per column of two outputs (see ``_cells``) with a cell that differs,
    the largest relative change |a - b| / max(|a|, |b|) of its numbers;
    "text" where a cell that is no number differs, and "layout" where the
    cells do not pair."""
    a, b = _cells(after), _cells(before)
    if [k for k, _ in a] != [k for k, _ in b]:
        return {"layout": "text"}
    changes = {}
    for (key, x), (_, y) in zip(a, b):
        if x == y:
            continue
        u, v = _number(x), _number(y)
        if u is None or v is None:
            changes[key] = "text"
        elif changes.get(key) != "text":
            change = abs(u - v) / (max(abs(u), abs(v)) or 1.0)
            changes[key] = max(changes.get(key, 0.0), change)
    return changes


def output_changes(after: dict, before: dict) -> dict:
    """Per output whose exit code, stdout or stderr differs between the
    sides (both from ``outputs``), what changed: "exit", and the
    ``column_changes`` of stdout and of stderr (its columns prefixed
    "stderr:")."""
    changes = {}
    for name in sorted(set(after) | set(before)):
        a, b = after.get(name), before.get(name)
        if a == b:
            continue
        if a is None or b is None:
            changes[name] = {"missing": "text"}
            continue
        change = {"exit": "text"} if a["exit"] != b["exit"] else {}
        change.update(column_changes(a["stdout"], b["stdout"]))
        change.update((f"stderr:{k}", v) for k, v in column_changes(
            a["stderr"], b["stderr"]).items())
        changes[name] = change
    return changes


def polish_calls(becck) -> dict:
    """Root-function calls of the root polish (``meanfield._bisect``) per
    polished root over the nine presets, and all root-function calls."""
    meanfield, per_root, total = becck.meanfield, [], [0]
    polish, root_function = meanfield._bisect, meanfield._root_function

    def counted(f, *args):
        per_root.append(0)

        def g(n):
            per_root[-1] += 1
            return f(n)

        return polish(g, *args)

    def counted_root_function(d):
        f = root_function(d)

        def g(n, state=False):
            total[0] += 1
            return f(n, state=state)

        return g

    meanfield._bisect = counted
    meanfield._root_function = counted_root_function
    try:
        for name in becck.cli.preset_names():
            becck.run_sweep(becck.cli.preset_spec(name))
    finally:
        meanfield._bisect, meanfield._root_function = polish, root_function
    return {"roots": len(per_root), "mean": sum(per_root) / len(per_root),
            "max": max(per_root), "f_calls": total[0]}


def line_counts(checkout: Path) -> dict:
    return {path.name: len(path.read_text(encoding="utf-8").splitlines())
            for path in sorted((checkout / "src" / "becck").glob("*.py"))}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def tier1(checkout: Path) -> dict:
    """Wall time and summary line of one run of the tier-1 tests."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "--continue-on-collection-errors"], cwd=checkout,
                          capture_output=True, text=True, env=env)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "summary": lines[-1] if lines else ""}


def summarize(rounds: list):
    """The rounds merged leaf by leaf: a float becomes its median and
    quartiles over the rounds; any other leaf is taken from the first."""
    first = rounds[0]
    if isinstance(first, dict):
        return {k: summarize([r[k] for r in rounds]) for k in first}
    if not isinstance(first, float):
        return first
    q1, median, q3 = (statistics.quantiles(rounds, n=4, method="inclusive")
                      if len(rounds) > 1 else rounds * 3)
    return {"median": median, "q1": q1, "q3": q3}


def round_ratios(after, before):
    """The after/before ratio of each timed figure of one round (both
    sides' tables come from ``timed_calls``, nested alike), nested as the
    report; a leaf that is no timing on both sides is left out."""
    if isinstance(after, dict):
        parts = {k: round_ratios(v, before[k]) for k, v in after.items()}
        return {k: v for k, v in parts.items() if v is not None and v != {}}
    if isinstance(after, float) and isinstance(before, float):
        return after / before
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", type=Path,
                        help="another checkout to measure as 'before'")
    parser.add_argument("--out", type=Path, help="path of the JSON report")
    parser.add_argument("--repeats", type=int, default=5,
                        help="rounds per side (median and quartiles "
                             "reported)")
    args = parser.parse_args(argv)
    if args.out is None:
        parser.error("--out is required")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    sides = {"after": ROOT}
    if args.before is not None:
        sides["before"] = args.before.resolve()
    # one BLAS thread for both sides, set before either imports NumPy
    os.environ.update(dict.fromkeys(
        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    packages = {side: load_package("becck" if side == "after" else
                                   "becck_before", checkout)
                for side, checkout in sides.items()}
    with tempfile.TemporaryDirectory() as tmp:
        tables = [timed_calls(packages[side], tmp) for side in sides]
        turns = itertools.count()
        rounds = dict(zip(sides, zip(*(one_round(tables, turns)
                                       for _ in range(args.repeats)))))
    report = {"machine": {"cpu": cpu_model(), "cpu_count": os.cpu_count(),
                          "platform": platform.platform()},
              "repeats": args.repeats}
    runs = {side: outputs(packages[side]) for side in sides}
    for side, checkout in sides.items():
        report[side] = {**summarize(rounds[side]), "tier1": tier1(checkout),
                        "lines": line_counts(checkout),
                        "public_names": len(packages[side].__all__),
                        "polish_calls": polish_calls(packages[side]),
                        "outputs": digests(runs[side])}
    if "before" in sides:
        report["differing_outputs"] = output_changes(runs["after"],
                                                     runs["before"])
        report["after_over_before"] = summarize([
            round_ratios(a, b) for a, b in zip(rounds["after"],
                                               rounds["before"])])
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
