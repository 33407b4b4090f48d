"""Workload inputs and passes.

Each workload turns ``--seed`` into a fixed list of ``becck`` command lines
(and the config files they read). A pass runs every command once, in this
process, through ``becck.cli.main``, with stdout and stderr captured, and
times each command. The program sees only the generated configs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import statistics
import time
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# documented defaults of the config (README "Configuration")
KAPPA = 2.0 * math.pi * 1.3e6
OMEGA_R = 2.37e4

DEFAULT_SEED = 0
WORKLOADS = ("sweep-bistable", "sweep-strong-pool", "steady-points", "verify")

# A sweep pass is a series of short sweep commands: (slices, points per
# slice) by size, "tiny" being for the self-tests. Short commands can be
# timed between the speed changes of a shared machine. With 20 bistable
# slices several lie inside the bistable window, so p95 does not hang on how
# one slice meets it. Pool commands keep 4 points, two tasks per worker:
# with one task each a command waits for the slower CPU, which the speed
# probes do not follow (and 20 such slices spread more than 10).
STEADY_GRID = {"full": (20, 10), "tiny": (3, 2)}  # eta cells x delta_c cells

# preset, range start and stop in kappa, base eta in kappa, format, slicing
SWEEPS = {
    "sweep-bistable": ("fig2b", -10.0, 15.0, 2.0, "csv",
                       {"full": (20, 2), "tiny": (2, 2)}),
    "sweep-strong-pool": ("fig6", -10.0, 9.0, 7.0, "json-lines",
                          {"full": (10, 4), "tiny": (2, 2)}),
}


def pool_workers() -> int:
    """One worker per usable core, at most eight."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return max(1, min(8, cores))


@dataclass
class Call:
    """One command: its argv, the config it reads, what a checker needs."""

    argv: list
    config: dict | None = None
    expect: dict = field(default_factory=dict)


@dataclass
class Inputs:
    workload: str
    seed: int
    size: str
    calls: list
    points_per_pass: int
    pool: bool = False

    def digest(self) -> str:
        """Fingerprint of the generated inputs, less the worker count (it
        follows the machine and leaves the output unchanged)."""
        blob = json.dumps([[c.argv, {k: v for k, v in (c.config or {}).items()
                                     if k != "workers"}] for c in self.calls],
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def write(self, workdir: Path) -> list:
        """Write the config files; return the argv of every call."""
        workdir.mkdir(parents=True, exist_ok=True)
        argvs = []
        for i, call in enumerate(self.calls):
            argv = list(call.argv)
            if call.config is not None:
                path = workdir / f"config-{i:04d}.json"
                path.write_text(json.dumps(call.config), encoding="utf-8")
                argv += ["--config", str(path)]
            argvs.append(argv)
        return argvs


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2 ** 63, zlib.crc32(workload.encode())])


def make_inputs(workload: str, seed: int, size: str = "full") -> Inputs:
    rng = _rng(workload, seed)
    if workload in SWEEPS:
        preset, lo, hi, eta, fmt, slicing = SWEEPS[workload]
        slices, per = slicing[size]
        # the seed shifts the grid by a fraction of one step; the grid stays
        # inside the preset range
        step = (hi - lo) * KAPPA / (slices * per)
        start = lo * KAPPA + float(rng.uniform()) * step
        workers = 1 if workload == "sweep-bistable" else pool_workers()
        calls = []
        for j in range(slices):
            first = start + j * per * step
            last = first + (per - 1) * step
            config = {"preset": preset, "sweep_min": first, "sweep_max": last,
                      "sweep_count": per, "format": fmt, "workers": workers}
            expect = {"eta": eta * KAPPA, "start": first, "stop": last,
                      "count": per, "format": fmt,
                      "policy": "all" if preset == "fig2b" else "lowest"}
            calls.append(Call(["sweep"], config, expect))
        return Inputs(workload, seed, size, calls,
                      points_per_pass=2 * slices * per, pool=workers > 1)
    if workload == "steady-points":
        # a lattice with one point in each cell of an eta x delta_c grid and
        # ck on in a checkerboard of the cells; the seed shifts the lattice by
        # a fraction of a cell on every axis and sets the visiting order, so
        # every seed has other points but the same mix of cheap, strong-drive
        # and near-fold ones (independent draws moved p95 by about 30%)
        n_eta, n_dc = STEADY_GRID[size]
        n = n_eta * n_dc
        shift_eta, shift_dc, shift_sw = rng.uniform(size=3)
        calls = []
        for k in rng.permutation(n):
            a, b = divmod(int(k), n_dc)
            delta_c = float(-20.0 + 40.0 * (b + shift_dc) / n_dc)
            eta = float(8.0 * (a + shift_eta) / n_eta)
            omega_sw = float(40.0 * ((7 * k) % n + shift_sw) / n)
            ck = (a + b) % 2 == 1
            config = {"delta_c": f"{delta_c!r}*kappa", "eta": f"{eta!r}*kappa",
                      "omega_sw": f"{omega_sw!r}*omegaR", "ck_enabled": ck}
            expect = {"delta_c": delta_c * KAPPA, "eta": eta * KAPPA,
                      "omega_sw": omega_sw * OMEGA_R, "ck_enabled": ck}
            calls.append(Call(["steady"], config, expect))
        return Inputs(workload, seed, size, calls, points_per_pass=n)
    if workload == "verify":
        # one verify run is the unit of work: its draws are internal
        return Inputs(workload, seed, size,
                      [Call(["verify", "--seed", str(seed)])], points_per_pass=1)
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Result:
    """One command's outcome; start and end are perf_counter readings."""

    index: int
    start: float
    end: float
    code: object
    out: str
    err: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


# Machine-speed probe. Its time is the speed reference for the commands
# timed next to it: on a shared machine both slow down together, so their
# ratio holds still while each alone swings by up to 2x. The mix resembles
# becck today (a NumPy vector op, a Python loop over array elements, small
# linalg calls, JSON). It must never change: a change rescales every time.
SPEED_REF_S = 3.4e-3  # the probe's time on the machine the benchmark was tuned on
_GRID = np.linspace(0.0, 1.0, 2001)
_MAT = np.arange(16.0).reshape(4, 4) + np.eye(4)


def speed_probe() -> float:
    """Run the fixed probe once; return its time in seconds."""
    t0 = time.perf_counter()
    f = _GRID * ((_GRID - 0.3) ** 2 + 0.01) - 0.001
    s = np.signbit(f)
    n = 0
    for i in range(len(f) - 1):
        if f[i] == 0.0 or s[i] != s[i + 1]:
            n += 1
    for _ in range(10):
        np.linalg.eigvals(_MAT)
    json.dumps({"n": n, "f": f[:50].tolist()})
    return time.perf_counter() - t0


def _probe_server(conn, cpu):
    os.sched_setaffinity(0, {cpu})
    while conn.recv():
        conn.send(speed_probe())


class CpuProbes:
    """One helper process pinned to each usable CPU (at most 8).

    A pool command runs on every CPU at once, so its speed reference is the
    harmonic mean of a probe run on each CPU at the same moment (the work
    goes to whichever worker is free, so throughput adds up). A serial
    command runs where this process runs, so it uses ``speed_probe`` here.
    Use as a context manager: leaving it stops and joins the helpers.
    """

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self.conns, self.procs = [], []
        for cpu in sorted(os.sched_getaffinity(0))[:8]:
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_probe_server, args=(child, cpu), daemon=True)
            proc.start()
            child.close()
            self.conns.append(conn)
            self.procs.append(proc)

    def __call__(self) -> float:
        for conn in self.conns:
            conn.send(True)
        return statistics.harmonic_mean([conn.recv() for conn in self.conns])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for conn in self.conns:
            conn.send(False)
            conn.close()
        for proc in self.procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()
        return False


def run_pass(argvs: list, tracer=None, probe=speed_probe) -> tuple:
    """Run every command once, with a speed probe before each command and
    one after the last.

    Returns ([Result], [(probe midpoint, probe seconds)]). A command's time
    covers only the call into ``becck.cli.main``.
    """
    import becck.cli

    def timed_probe():
        t0 = time.perf_counter()
        seconds = probe()
        probes.append((0.5 * (t0 + time.perf_counter()), seconds))

    results, probes = [], []
    for i, argv in enumerate(argvs):
        timed_probe()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = becck.cli.main(argv)
                else:
                    with tracer.span("cli.main"):
                        code = becck.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an operation failure, counted by the checker
                code = "exception"
                traceback.print_exc(file=err)
            t1 = time.perf_counter()
        results.append(Result(i, t0, t1, code, out.getvalue(), err.getvalue()))
    timed_probe()
    return results, probes


LOCAL_WINDOW_S = 0.25


def speed_factors(results: list, probes: list) -> list:
    """Each command's speed factor: the mean time of the probes that ran
    within 0.25 s of it (always the one just before and the one just after),
    over ``SPEED_REF_S``."""
    factors = []
    for r in results:
        near = [t for mid, t in probes
                if r.start - LOCAL_WINDOW_S <= mid <= r.end + LOCAL_WINDOW_S]
        factors.append(statistics.mean(near) / SPEED_REF_S)
    return factors
