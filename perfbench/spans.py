"""Spans recorded around the calls into each becck layer.

The benchmark does not edit the package. For a traced pass it replaces the
module attributes through which callers reach a layer (``becck.cli.*``,
``becck.sweep.*``, ``becck.steadystate.classify_stability`` and
``becck.meanfield.consistency_residual``) with wrappers that record a span,
and puts the originals back afterwards, so untraced passes run the package
untouched. A span holds its name, start, end, parent span, pass id and a few
attributes read off the call's arguments and result.

Spans stay in memory. A forked pool worker inherits the wrappers, starts a
buffer of its own and appends it to ``spans-<pid>.jsonl`` in the spill
directory after each task; ``Tracer.collect`` merges those files with the
parent's spans.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import math
import os
import time
from pathlib import Path

# perf_counter is CLOCK_MONOTONIC on Linux, so stamps from pool workers and
# from the parent lie on one time line
_clock = time.perf_counter_ns

# record layout: [seq, name, start_ns, end_ns, parent, pass_id, attrs,
#                 f_calls at open, f_points at open]
_SEQ, _NAME, _START, _END, _PARENT, _PASS, _ATTRS, _FC, _FP = range(9)


class Tracer:
    """In-memory span buffer of one process (and of its forked workers)."""

    def __init__(self, spill_dir):
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.forked = False
        self.fork_parent = None
        self.seq = 0
        self.spans: list = []
        self.stack: list = []
        self.pass_id = None
        self.f_calls = 0
        self.f_points = 0
        self.classify_counts: dict = {}

    def _adopt_process(self):
        pid = os.getpid()
        if pid == self.pid:
            return
        # a forked worker inherits the parent's buffers; its spans hang off
        # the span that was open in the parent when the pool forked
        self.fork_parent = (self.pid, self.stack[-1][_SEQ]) if self.stack else None
        self.pid = pid
        self.forked = True
        self.spans = []
        self.stack = []
        self.classify_counts = {}

    def open(self, name: str) -> list:
        self._adopt_process()
        parent = (self.pid, self.stack[-1][_SEQ]) if self.stack else self.fork_parent
        self.seq += 1
        rec = [self.seq, name, _clock(), 0, parent, self.pass_id, None,
               self.f_calls, self.f_points]
        self.spans.append(rec)
        self.stack.append(rec)
        return rec

    def close(self, rec: list):
        rec[_END] = _clock()
        self.stack.pop()

    def span(self, name: str):
        return _SpanContext(self, name)

    def _export(self, rec) -> dict:
        attrs = rec[_ATTRS] or {}
        cov = attrs.pop("V", None)
        if cov is not None:
            from becck import symplectic_eigenvalues
            attrs["symplectic_margin"] = float(min(symplectic_eigenvalues(cov))) - 0.5
        return {"pid": self.pid, "id": rec[_SEQ], "name": rec[_NAME],
                "start": rec[_START], "end": rec[_END],
                "parent": list(rec[_PARENT]) if rec[_PARENT] else None,
                "pass": rec[_PASS], "attrs": attrs}

    def flush_worker(self):
        """Append a pool worker's finished spans to its spill file."""
        if not self.forked or self.stack:
            return
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"spans-{self.pid}.jsonl", "a",
                  encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(self._export(rec)) + "\n")
        self.spans = []

    def collect(self) -> list:
        """All spans of this process and of its workers, as dicts."""
        out = [self._export(rec) for rec in self.spans]
        self.spans = []
        if self.spill_dir.is_dir():
            for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
                with open(path, encoding="utf-8") as fh:
                    out.extend(json.loads(line) for line in fh)
                path.unlink()
        return out


class _SpanContext:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.rec = self.tracer.open(self.name)
        return self.rec

    def __exit__(self, *exc):
        self.tracer.close(self.rec)
        return False


def _attrs(rec) -> dict:
    if rec[_ATTRS] is None:
        rec[_ATTRS] = {}
    return rec[_ATTRS]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


# --- hooks: run after a span closes, read attributes off the call ----------

def _after_enumerate(tracer, rec, args, kwargs, bset):
    a = _attrs(rec)
    a["branches"] = len(bset)
    a["warnings"] = list(getattr(bset, "warnings", ()))
    a["max_residual"] = max((b.residual for b in bset), default=0.0)
    a["f_calls"] = tracer.f_calls - rec[_FC]
    a["f_points"] = tracer.f_points - rec[_FP]


def _after_build(tracer, rec, args, kwargs, dd):
    tracer.classify_counts[id(dd)] = 0


def _after_classify(tracer, rec, args, kwargs, report):
    dd = _arg(args, kwargs, 0, "dd")
    key = id(dd)
    if key in tracer.classify_counts:
        tracer.classify_counts[key] += 1
    a = _attrs(rec)
    a["stable"] = bool(report.stable)
    a["marginal"] = bool(report.marginal)
    a["rh_agrees"] = bool(report.routh_hurwitz_pass) == bool(report.stable)
    a["margin_kappa"] = abs(report.max_real_part) / dd.kappa


def _after_lyapunov(tracer, rec, args, kwargs, cov):
    dd = _arg(args, kwargs, 0, "dd")
    a = _attrs(rec)
    a["classify_count"] = tracer.classify_counts.get(id(dd))
    d_max = float(abs(dd.D).max())
    a["residual_rel"] = cov.residual / d_max if d_max else 0.0
    a["V"] = cov.V


def _after_run_sweep(tracer, rec, args, kwargs, rows):
    workers = _arg(args, kwargs, 1, "workers")
    if workers is None:
        workers = importlib.import_module("becck.sweep").resolve_workers(None)
    points = {}
    for row in rows:
        points.setdefault((row.sweep_value, row.ck_enabled), tuple(row.warnings))
    a = _attrs(rec)
    a["workers"] = int(workers)
    a["rows"] = len(rows)
    a["points"] = len(points)
    a["point_warnings"] = dict(collections.Counter(
        w for ws in points.values() for w in ws))


def _after_point(tracer, rec, args, kwargs, rows):
    tracer.flush_worker()


# (module, attribute, span name, hook). Callers reach each layer through
# these attributes; one missing in a later version of the package is skipped.
SPAN_POINTS = (
    ("becck.cli", "build_config", "cli.config", None),
    ("becck.cli", "cmd_steady", "cli.steady", None),
    ("becck.cli", "cmd_sweep", "cli.sweep", None),
    ("becck.cli", "cmd_verify", "cli.verify", None),
    ("becck.cli", "row_to_csv", "cli.serialize", None),
    ("becck.cli", "row_to_json", "cli.serialize", None),
    ("becck.cli", "run_sweep", "sweep.run", _after_run_sweep),
    ("becck.sweep", "_evaluate_point", "sweep.point", _after_point),
    ("becck.cli", "derive_params", "model.derive", None),
    ("becck.sweep", "derive_params", "model.derive", None),
    ("becck.cli", "enumerate_branches", "meanfield.enumerate", _after_enumerate),
    ("becck.sweep", "enumerate_branches", "meanfield.enumerate", _after_enumerate),
    ("becck.cli", "build_drift_diffusion", "dynamics.build", _after_build),
    ("becck.sweep", "build_drift_diffusion", "dynamics.build", _after_build),
    ("becck.cli", "classify_stability", "dynamics.classify", _after_classify),
    ("becck.sweep", "classify_stability", "dynamics.classify", _after_classify),
    ("becck.steadystate", "classify_stability", "dynamics.classify", _after_classify),
    ("becck.cli", "finite_difference_jacobian", "dynamics.fd_jacobian", None),
    ("becck.cli", "solve_lyapunov", "steadystate.lyapunov", _after_lyapunov),
    ("becck.sweep", "solve_lyapunov", "steadystate.lyapunov", _after_lyapunov),
    ("becck.cli", "observable_set", "steadystate.observables", None),
    ("becck.sweep", "observable_set", "steadystate.observables", None),
    ("becck.cli", "integrate_moment_ode", "steadystate.moment_ode", None),
    ("becck.cli", "logarithmic_negativity", "steadystate.negativity", None),
)


def _span_wrapper(tracer, name, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(rec)
            _attrs(rec)["error"] = type(exc).__name__
            raise
        tracer.close(rec)
        if hook is not None:
            hook(tracer, rec, args, kwargs, result)
        return result
    return traced


def _count_wrapper(tracer, fn):
    @functools.wraps(fn)
    def counted(d, n):
        tracer.f_calls += 1
        tracer.f_points += n.size if hasattr(n, "size") else 1
        return fn(d, n)
    return counted


class Instrumented:
    """Context manager that installs the span wrappers and restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list = []

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            return
        self.saved.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def __enter__(self):
        for module_name, attr, name, hook in SPAN_POINTS:
            self._patch(module_name, attr,
                        lambda fn, n=name, h=hook: _span_wrapper(self.tracer, n, fn, h))
        self._patch("becck.meanfield", "consistency_residual",
                    lambda fn: _count_wrapper(self.tracer, fn))
        return self.tracer

    def __exit__(self, *exc):
        while self.saved:
            module, attr, fn = self.saved.pop()
            setattr(module, attr, fn)
        return False


# --- per-layer metrics ------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def self_times(spans: list) -> dict:
    """Span key -> duration minus the time its same-process children cover."""
    own = {(s["pid"], s["id"]): s["end"] - s["start"] for s in spans}
    for s in spans:
        parent = s["parent"]
        if parent and parent[0] == s["pid"]:
            key = (parent[0], parent[1])
            if key in own:
                own[key] -= s["end"] - s["start"]
    return own


LAYERS = ("model", "meanfield", "dynamics", "steadystate", "sweep", "cli")


def layer_metrics(spans: list, passes: int, bytes_out: float,
                  factors: dict) -> dict:
    """Per-layer metrics (see README.md) from the spans of ``passes`` passes.

    Counts are per pass. Times are divided by the speed factor of their pass
    (``factors``: pass id -> factor). A share is a layer's self time over
    the self time of all spans in all processes, leaving out the self time
    of a ``run_sweep`` that ran a process pool (it is waiting for the
    workers).
    """
    own = self_times(spans)
    by_name = collections.defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def self_ns(s):
        return own[(s["pid"], s["id"])] / factors[s["pass"]]

    def dur_ns(s):
        return (s["end"] - s["start"]) / factors[s["pass"]]

    def p50_us(name):
        return percentile([self_ns(s) / 1e3 for s in by_name[name]], 50)

    per_pass = 1.0 / max(passes, 1)
    layer_self = collections.Counter()
    total = 0
    for s in spans:
        ns = self_ns(s)
        if s["name"] == "sweep.run" and (s["attrs"] or {}).get("workers", 1) > 1:
            continue
        layer_self[s["name"].split(".")[0]] += ns
        total += ns

    m: dict = {}
    enum = by_name["meanfield.enumerate"]
    ea = [s["attrs"] or {} for s in enum]
    m["meanfield.calls"] = len(enum) * per_pass
    m["meanfield.self_ms_p50"] = percentile([self_ns(s) / 1e6 for s in enum], 50)
    m["meanfield.self_ms_p95"] = percentile([self_ns(s) / 1e6 for s in enum], 95)
    m["meanfield.f_calls"] = sum(a.get("f_calls", 0) for a in ea) / max(len(enum), 1)
    m["meanfield.f_points"] = sum(a.get("f_points", 0) for a in ea) / max(len(enum), 1)
    m["meanfield.points_1_branch"] = sum(a.get("branches") == 1 for a in ea) * per_pass
    m["meanfield.points_3_branch"] = sum(a.get("branches") == 3 for a in ea) * per_pass
    warn = collections.Counter(w for a in ea for w in a.get("warnings", ()))
    m["meanfield.warn_adjacent_brackets"] = warn["adjacent-brackets"] * per_pass
    m["meanfield.warn_branch_count"] = sum(
        c for w, c in warn.items() if w.startswith("branch-count=")) * per_pass
    m["meanfield.max_residual"] = max((a.get("max_residual", 0.0) for a in ea), default=0.0)

    build = by_name["dynamics.build"]
    classify = by_name["dynamics.classify"]
    lyap = by_name["steadystate.lyapunov"]
    la = [s["attrs"] or {} for s in lyap]
    # one verdict per branch: the re-classification inside solve_lyapunov
    # is left out of the verdict counts
    lyap_keys = {(s["pid"], s["id"]) for s in lyap}
    first = [s["attrs"] or {} for s in classify
             if not (s["parent"] and tuple(s["parent"]) in lyap_keys)]
    m["dynamics.build_calls"] = len(build) * per_pass
    m["dynamics.build_us_p50"] = p50_us("dynamics.build")
    m["dynamics.classify_calls"] = len(classify) * per_pass
    m["dynamics.classify_us_p50"] = p50_us("dynamics.classify")
    solved = [a["classify_count"] for a in la if a.get("classify_count") is not None]
    m["dynamics.classify_per_branch"] = sum(solved) / len(solved) if solved else 0.0
    m["dynamics.stable"] = sum(a.get("stable", False) and not a.get("marginal", False)
                               for a in first) * per_pass
    m["dynamics.marginal"] = sum(a.get("marginal", False) for a in first) * per_pass
    m["dynamics.unstable"] = sum(not a.get("stable", True) and not a.get("marginal", False)
                                 for a in first) * per_pass
    m["dynamics.rh_disagreements"] = sum(
        (not (s["attrs"] or {}).get("rh_agrees", True))
        or (s["attrs"] or {}).get("error") == "InternalConsistencyError"
        for s in classify) * per_pass
    m["dynamics.min_margin_kappa"] = min(
        (a["margin_kappa"] for a in first
         if "margin_kappa" in a and not a.get("marginal")), default=0.0)

    obs = by_name["steadystate.observables"]
    m["steadystate.lyapunov_calls"] = len(lyap) * per_pass
    m["steadystate.lyapunov_us_p50"] = p50_us("steadystate.lyapunov")
    m["steadystate.observables_calls"] = len(obs) * per_pass
    m["steadystate.observables_us_p50"] = p50_us("steadystate.observables")
    m["steadystate.max_residual_rel"] = max(
        (a.get("residual_rel", 0.0) for a in la), default=0.0)
    m["steadystate.min_symplectic_margin"] = min(
        (a["symplectic_margin"] for a in la if "symplectic_margin" in a), default=0.0)

    runs = by_name["sweep.run"]
    ra = [s["attrs"] or {} for s in runs]
    point_warn = collections.Counter()
    for a in ra:
        point_warn.update(a.get("point_warnings", {}))
    m["sweep.self_s"] = sum(self_ns(s) for s in runs) / 1e9 * per_pass
    m["sweep.points"] = sum(a.get("points", 0) for a in ra) * per_pass
    m["sweep.rows"] = sum(a.get("rows", 0) for a in ra) * per_pass
    m["sweep.no_stable_branch"] = point_warn["no-stable-branch"] * per_pass
    m["sweep.workers"] = max((a.get("workers", 0) for a in ra), default=0)

    # the outermost serialization span per row: row_to_json calls row_to_csv
    ser_keys = {(s["pid"], s["id"]) for s in by_name["cli.serialize"]}
    rows_ser = [s for s in by_name["cli.serialize"]
                if not (s["parent"] and tuple(s["parent"]) in ser_keys)]
    m["cli.rows_serialized"] = len(rows_ser) * per_pass
    m["cli.serialize_us_per_row"] = (
        sum(dur_ns(s) for s in rows_ser) / 1e3 / len(rows_ser)
        if rows_ser else 0.0)
    m["cli.bytes_out"] = float(bytes_out)
    m["cli.config_ms"] = percentile(
        [dur_ns(s) / 1e6 for s in by_name["cli.config"]], 50)
    m["cli.steady_report_ms"] = percentile(
        [self_ns(s) / 1e6 for s in by_name["cli.steady"]], 50)

    m["model.derive_calls"] = len(by_name["model.derive"]) * per_pass
    m["model.derive_us_p50"] = p50_us("model.derive")

    for layer in LAYERS:
        m[f"{layer}.share"] = layer_self[layer] / total if total else 0.0

    warnings = {
        "branch_sets": {w: c * per_pass for w, c in sorted(warn.items())},
        "sweep_points": {w: c * per_pass for w, c in sorted(point_warn.items())},
    }
    return {"metrics": m, "warnings": warnings,
            "spans_per_pass": len(spans) * per_pass}
