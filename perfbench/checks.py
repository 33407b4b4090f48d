"""Correctness gate for every command output.

For every seed an output must come with exit code 0 and pass invariant
checks recomputed through becck's public functions: the mean-field residual
``consistency_residual(n) / eta^2 <= 1e-9``, ``|alpha|^2 = n``, and on each
branch reported stable a fresh Lyapunov solve whose residual
``max|A V + V A^T + D|`` is at most ``1e-10 * max|D|`` and whose observables
agree with the reported ones. ``verify`` must print ``verify: PASS``.

For the default seed the outputs are also compared with the stored
reference (``reference/<workload>.json``) within tolerances, not byte for
byte: branch counts and stable flags exactly (a stable flag may differ where
the reference's max Re(lambda) lies in the marginal band), n, alpha, beta
and the other mean-field fields to 1e-9 relative, observables to 1e-8
relative or 1e-12 absolute.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from perfbench.workloads import DEFAULT_SEED, KAPPA, OMEGA_R, Inputs

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

COLUMNS = ("sweep_var", "sweep_value", "ck", "branch", "n_photon", "alpha_re",
           "alpha_im", "beta_re", "beta_im", "delta_eff", "omega_b",
           "omega_b_ratio", "stable", "e_n", "s_q", "s_p", "n_incoh",
           "lattice_ok", "bogoliubov_ok")
ROW_OBSERVABLES = ("e_n", "s_q", "s_p", "n_incoh")
STEADY_OBSERVABLES = ("e_n", "eta_minus", "s_q", "s_p", "n_incoherent",
                      "omega_b", "n_c")

MEANFIELD_RTOL = 1e-9
OBS_RTOL, OBS_ATOL = 1e-8, 1e-12
RESIDUAL_MAX = 1e-9
LYAPUNOV_MAX = 1e-10
MARGINAL_BAND = 1e-6 * KAPPA  # rad/s


def documented_params(**overrides):
    """SystemParams from the documented config defaults plus overrides."""
    from becck import SystemParams
    fields = dict(N=100_000, g0=2.0 * math.pi * 14.1e6, delta_a=7.5e11,
                  omega_R=OMEGA_R, omega_sw=OMEGA_R, kappa=KAPPA,
                  gamma=1e-3 * KAPPA, delta_c=0.0, eta=0.0, T=1e-7,
                  ck_enabled=True)
    fields.update(overrides)
    return SystemParams(**fields)


def _close(x, ref, rtol, atol=0.0) -> bool:
    if x is None or ref is None:
        return x is None and ref is None
    return abs(x - ref) <= max(rtol * abs(ref), atol)


# --- parsing -----------------------------------------------------------------

def _cell(name, text):
    if text == "":
        return None
    if name == "sweep_var":
        return text
    if name == "ck":
        if text not in ("on", "off"):
            raise ValueError(f"bad ck {text!r}")
        return text
    if name == "branch":
        return int(text)
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def _normalize(raw: dict) -> dict:
    return {
        "value": raw["sweep_value"], "ck": raw["ck"] == "on",
        "branch": raw["branch"], "n": raw["n_photon"],
        "alpha": complex(raw["alpha_re"], raw["alpha_im"]),
        "beta": complex(raw["beta_re"], raw["beta_im"]),
        "delta": raw["delta_eff"], "omega_b": raw["omega_b"],
        "omega_b_ratio": raw["omega_b_ratio"], "stable": raw["stable"],
        "obs": None if raw["e_n"] is None else {k: raw[k] for k in ROW_OBSERVABLES},
    }


def parse_rows(text: str, fmt: str) -> list:
    """Sweep output (CSV or JSON lines) as normalized row dicts."""
    lines = text.splitlines()
    rows = []
    if fmt == "csv":
        if not lines or lines[0] != ",".join(COLUMNS):
            raise ValueError("CSV header differs from the documented 19 columns")
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != len(COLUMNS):
                raise ValueError(f"CSV row has {len(cells)} cells")
            rows.append(_normalize({k: _cell(k, c) for k, c in zip(COLUMNS, cells)}))
    else:
        for line in lines:
            obj = json.loads(line)
            if tuple(obj) != COLUMNS:
                raise ValueError("JSON row keys differ from the documented columns")
            rows.append(_normalize(obj))
    return rows


# --- invariants ----------------------------------------------------------------

def check_branch(d, br: dict, where: str) -> list:
    """Invariants of one reported branch at derived parameters ``d``.

    ``br`` has n, alpha, beta, delta, stable (covariance grade) and obs
    (dict of observables named as in ``ROW_OBSERVABLES``, or None).
    """
    from becck import (MeanFieldBranch, build_drift_diffusion,
                       consistency_residual, observable_set, omega_pm,
                       solve_lyapunov)
    misses = []
    n = br["n"]
    if d.eta > 0.0:
        resid = abs(consistency_residual(d, n)) / (d.eta * d.eta)
        if not resid <= RESIDUAL_MAX:
            misses.append(f"{where}: mean-field residual {resid:.3e}")
    elif n != 0.0:
        misses.append(f"{where}: nonzero photon number without drive")
    if not _close(abs(br["alpha"]) ** 2, n, MEANFIELD_RTOL, 1e-300):
        misses.append(f"{where}: |alpha|^2 differs from n_photon")
    if not br["stable"]:
        if br["obs"] is not None:
            misses.append(f"{where}: observables on a branch not stable")
        return misses
    if br["obs"] is None:
        misses.append(f"{where}: stable branch without observables")
        return misses
    om, op = omega_pm(d, n)
    branch = MeanFieldBranch(n_photon=n, alpha=br["alpha"], beta=br["beta"],
                             Delta=br["delta"], Omega_plus=op, Omega_minus=om,
                             branch_index=0, residual=0.0)
    try:
        dd = build_drift_diffusion(d, branch)
        cov = solve_lyapunov(dd)
        obs = observable_set(dd, cov)
    except Exception as exc:  # any refusal of a reported-stable branch is a miss
        return misses + [f"{where}: Lyapunov re-solve failed: {exc}"]
    A, D, V = dd.A, dd.D, cov.V
    resid = float(np.max(np.abs(A @ V + V @ A.T + D))) / float(np.max(np.abs(D)))
    if not resid <= LYAPUNOV_MAX:
        misses.append(f"{where}: Lyapunov residual/|D| {resid:.3e}")
    fresh = {"e_n": obs.E_N, "s_q": obs.S_Q, "s_p": obs.S_P,
             "n_incoh": obs.n_incoherent}
    for key, val in fresh.items():
        if not _close(br["obs"][key], val, OBS_RTOL, OBS_ATOL):
            misses.append(f"{where}: {key} {br['obs'][key]!r} vs recomputed {val!r}")
    return misses


def _check_sweep(call, result, ref) -> list:
    exp = call.expect
    try:
        rows = parse_rows(result.out, exp["format"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable sweep output: {exc}"]
    from becck import derive_params

    grid = np.linspace(exp["start"], exp["stop"], exp["count"])
    step = (exp["stop"] - exp["start"]) / (exp["count"] - 1)
    groups: dict = {}
    for row in rows:
        groups.setdefault((row["value"], row["ck"]), []).append(row)
    values = sorted({v for v, _ in groups})
    misses = []
    if len(values) != len(grid) or any(abs(v - g) > 1e-9 * step
                                       for v, g in zip(values, grid)):
        misses.append("grid values differ from the requested grid")
    for v in values:
        for ck in (False, True):
            rows_here = groups.get((v, ck), [])
            if not rows_here:
                misses.append(f"no rows at {v!r} ck={ck}")
                continue
            idx = [r["branch"] for r in rows_here]
            if exp["policy"] == "all" and idx != list(range(len(idx))):
                misses.append(f"branch indices {idx} at {v!r} ck={ck}")
            if exp["policy"] == "lowest" and len(idx) != 1:
                misses.append(f"{len(idx)} rows under policy lowest at {v!r}")
            d = derive_params(documented_params(
                eta=exp["eta"], delta_c=v, ck_enabled=ck))
            for r in rows_here:
                misses += check_branch(
                    d, r, f"delta_c={v!r} ck={ck} branch={r['branch']}")
    if ref is not None:
        misses += _compare_rows(rows, ref["rows"])
    return misses


def _compare_rows(rows: list, ref_rows: list) -> list:
    """Rows against reference rows, grouped by (grid position, ck)."""
    def grouped(items, key_of):
        out: dict = {}
        values: list = []
        for it in items:
            v, ck = key_of(it)
            if v not in values:
                values.append(v)
            out.setdefault((values.index(v), ck), []).append(it)
        return out, values

    got, got_values = grouped(rows, lambda r: (r["value"], r["ck"]))
    want, want_values = grouped(ref_rows, lambda r: (r["value"], r["ck"]))
    if len(got_values) != len(want_values):
        return [f"{len(got_values)} grid points against {len(want_values)} in the reference"]
    misses = []
    for key, ref_here in want.items():
        here = got.get(key, [])
        near_marginal = any(abs(r["max_real_part"]) <= MARGINAL_BAND for r in ref_here)
        where = f"grid point {key[0]} ck={key[1]}"
        if not _close(got_values[key[0]], want_values[key[0]], 1e-12):
            misses.append(f"{where}: sweep value differs from the reference")
        if len(here) != len(ref_here):
            if not near_marginal:
                misses.append(f"{where}: {len(here)} rows against {len(ref_here)}")
            continue
        for r, w in zip(here, ref_here):
            misses += _compare_branch(r, w, f"{where} branch {w['branch']}",
                                      ROW_OBSERVABLES, ("delta", "omega_b",
                                                        "omega_b_ratio"))
    return misses


def _compare_branch(got: dict, ref: dict, where: str, obs_keys, extra) -> list:
    misses = []
    if got["branch"] != ref["branch"]:
        misses.append(f"{where}: branch index {got['branch']}")
    for key in ("n",) + tuple(extra):
        if not _close(got[key], ref[key], MEANFIELD_RTOL, 1e-300):
            misses.append(f"{where}: {key} {got[key]!r} vs reference {ref[key]!r}")
    for key in ("alpha", "beta"):
        if abs(got[key] - ref[key]) > MEANFIELD_RTOL * max(abs(ref[key]), 1e-300):
            misses.append(f"{where}: {key} {got[key]!r} vs reference {ref[key]!r}")
    if got["stable"] != ref["stable"]:
        if abs(ref["max_real_part"]) > MARGINAL_BAND:
            misses.append(f"{where}: stable={got['stable']} against the reference")
        return misses
    if (got["obs"] is None) != (ref["obs"] is None):
        misses.append(f"{where}: observables present/absent against the reference")
    elif got["obs"] is not None:
        for key in obs_keys:
            if not _close(got["obs"][key], ref["obs"][key], OBS_RTOL, OBS_ATOL):
                misses.append(f"{where}: {key} {got['obs'][key]!r} vs "
                              f"reference {ref['obs'][key]!r}")
    return misses


def parse_steady(text: str) -> tuple:
    """(echoed params, [branch dict]) from a ``steady`` JSON report."""
    report = json.loads(text)
    branches = []
    for b in report["branches"]:
        stab = b["stability"]
        obs = b["observables"]
        branches.append({
            "branch": b["branch_index"], "n": b["n_photon"],
            "alpha": complex(b["alpha_re"], b["alpha_im"]),
            "beta": complex(b["beta_re"], b["beta_im"]),
            "delta": b["delta_eff"], "omega_plus": b["omega_plus"],
            "omega_minus": b["omega_minus"],
            "stable": bool(stab["stable"]) and not stab["marginal"],
            "max_real_part": stab["max_real_part"],
            "obs": None if obs is None else {
                **{k: obs[k] for k in STEADY_OBSERVABLES},
                "n_incoh": obs["n_incoherent"]},
        })
    return report["params"], branches


def _check_steady(call, result, ref) -> list:
    exp = call.expect
    try:
        params, branches = parse_steady(result.out)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable steady report: {exc}"]
    from becck import derive_params
    misses = []
    for key in ("delta_c", "eta", "omega_sw"):
        if not _close(params.get(key), exp[key], 1e-12, 1e-300):
            misses.append(f"echoed {key} {params.get(key)!r} differs from the input")
    if params.get("ck_enabled") != exp["ck_enabled"]:
        misses.append("echoed ck_enabled differs from the input")
    d = derive_params(documented_params(**exp))
    if [b["branch"] for b in branches] != list(range(len(branches))):
        misses.append("branch indices are not 0..k-1")
    if any(a["n"] > b["n"] for a, b in zip(branches, branches[1:])):
        misses.append("branches not in ascending photon number")
    for b in branches:
        misses += check_branch(d, b, f"branch {b['branch']}")
    if ref is not None:
        ref_branches = ref["branches"]
        near_marginal = any(abs(r["max_real_part"]) <= MARGINAL_BAND
                            for r in ref_branches)
        if len(branches) != len(ref_branches):
            if not near_marginal:
                misses.append(f"{len(branches)} branches against "
                              f"{len(ref_branches)} in the reference")
        else:
            for b, r in zip(branches, ref_branches):
                misses += _compare_branch(
                    b, r, f"branch {r['branch']}", STEADY_OBSERVABLES,
                    ("delta", "omega_plus", "omega_minus"))
    return misses


def parse_verify(text: str) -> tuple:
    """({suite: PASS|FAIL}, final verdict line) from ``verify`` output."""
    suites = {}
    final = None
    for line in text.splitlines():
        name, _, rest = line.partition(": ")
        status = rest.split(" ", 1)[0]
        if name == "verify":
            final = status
        elif status in ("PASS", "FAIL"):
            suites[name] = status
    return suites, final


def _check_verify(result, ref) -> list:
    suites, final = parse_verify(result.out)
    misses = []
    if final != "PASS":
        misses.append(f"verify verdict {final!r}")
    if not suites:
        misses.append("no verify suite lines")
    misses += [f"suite {name}: {status}" for name, status in suites.items()
               if status != "PASS"]
    if ref is not None:
        misses += [f"suite {name} missing" for name in ref["suites"]
                   if name not in suites]
    return misses


# --- entry points ----------------------------------------------------------------

def load_reference(inputs: Inputs):
    """The stored reference that applies to these inputs, or None.

    Only the default seed at full size has one. Its input fingerprint must
    match: a reference made for other inputs fails every call.
    """
    if inputs.seed != DEFAULT_SEED or inputs.size != "full":
        return None
    path = REFERENCE_DIR / f"{inputs.workload}.json"
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["inputs_digest"] != inputs.digest():
        return {"stale": True}
    return decode_reference(ref)


def decode_reference(ref: dict) -> dict:
    """Turn stored [re, im] pairs back into complex numbers."""
    for call in ref["calls"]:
        for rec in call.get("rows", []) + call.get("branches", []):
            rec["alpha"] = complex(*rec["alpha"])
            rec["beta"] = complex(*rec["beta"])
    return ref


def check_result(inputs: Inputs, result, reference) -> list:
    """Misses of one command's result; an empty list means it passed."""
    if reference is not None and reference.get("stale"):
        return ["stored reference was made for other inputs; regenerate it"]
    if result.code != 0:
        tail = result.err.strip().splitlines()[-1:] or [""]
        return [f"exit code {result.code!r}: {tail[0]}"]
    ref = reference["calls"][result.index] if reference is not None else None
    if inputs.workload in ("sweep-bistable", "sweep-strong-pool"):
        return _check_sweep(inputs.calls[result.index], result, ref)
    if inputs.workload == "steady-points":
        return _check_steady(inputs.calls[result.index], result, ref)
    return _check_verify(result, ref)
