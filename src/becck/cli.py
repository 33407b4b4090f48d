"""Command-line front end: single-point solves, sweeps, verification suites.

Exit codes: 0 success, 2 configuration error, 3 internal-consistency error,
4 output I/O failure, 5 verification-suite failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import (DriftDiffusion, InternalConsistencyError,
                       build_drift_diffusion, classify_stability,
                       finite_difference_jacobian, quadrature_fixed_point)
from .meanfield import consistency_residual, enumerate_branches
from .model import DerivedParams, DomainError, SystemParams, derive_params
from .steadystate import (UnstableDriftError, integrate_moment_ode,
                          logarithmic_negativity, observable_set,
                          solve_lyapunov, squeezing_and_excitation,
                          symplectic_eigenvalues)
from .sweep import (SweepSpec, SweepRow, preset_names, preset_spec,
                    resolve_workers, run_sweep)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTERNAL = 3
EXIT_IO = 4
EXIT_VERIFY = 5

CSV_HEADER = ("sweep_var,sweep_value,ck,branch,n_photon,alpha_re,alpha_im,"
              "beta_re,beta_im,delta_eff,omega_b,omega_b_ratio,stable,"
              "e_n,s_q,s_p,n_incoh,lattice_ok,bogoliubov_ok")

PARAM_KEYS = ("N", "g0", "delta_a", "omega_R", "omega_sw", "kappa", "gamma",
              "delta_c", "eta", "T", "ck_enabled")
FREQ_KEYS = ("g0", "delta_a", "omega_R", "omega_sw", "kappa", "gamma",
             "delta_c", "eta")
SWEEP_KEYS = ("sweep_var", "sweep_min", "sweep_max", "sweep_count",
              "ck_mode", "branch_policy", "preset")
OTHER_KEYS = ("out", "format", "workers")

_FLOAT = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_RE_KAPPA = re.compile(rf"^\s*({_FLOAT})\s*\*\s*kappa\s*$")
_RE_OMEGAR = re.compile(rf"^\s*({_FLOAT})\s*\*\s*omegaR\s*$")
_RE_2PI = re.compile(rf"^\s*2pi\*({_FLOAT})\s*(Hz|kHz|MHz|GHz)\s*$")
_HZ_MULT = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}


class ConfigError(ValueError):
    """A configuration key, value, or combination is invalid."""


@dataclass(frozen=True)
class RunConfig:
    params: SystemParams
    sweep_var: Optional[str] = None
    sweep_min: Optional[float] = None
    sweep_max: Optional[float] = None
    sweep_count: Optional[int] = None
    ck_mode: Optional[str] = None
    branch_policy: Optional[str] = None
    preset: Optional[str] = None
    out: Optional[str] = None
    format: str = "csv"
    workers: Optional[int] = None


def parse_quantity(raw, kappa: Optional[float] = None,
                   omega_R: Optional[float] = None, key: str = "") -> float:
    """Parse a finite frequency value in rad/s.

    Accepts a plain number, ``<x>*kappa``, ``<x>*omegaR``, or
    ``2pi*<value><Hz|kHz|MHz|GHz>``. NaN, infinities and values that
    overflow to them are rejected.
    """
    value = _parse_quantity(raw, kappa, omega_R, key)
    if not math.isfinite(value):
        raise ConfigError(f"{key}: value must be finite, got {raw!r}")
    return value


def _parse_quantity(raw, kappa, omega_R, key) -> float:
    if isinstance(raw, bool):
        raise ConfigError(f"{key}: expected a frequency, got a boolean")
    if isinstance(raw, (int, float)):
        return float(raw)
    if not isinstance(raw, str):
        raise ConfigError(f"{key}: expected a number or unit string")
    m = _RE_2PI.match(raw)
    if m:
        return 2.0 * math.pi * float(m.group(1)) * _HZ_MULT[m.group(2)]
    m = _RE_KAPPA.match(raw)
    if m:
        if kappa is None:
            raise ConfigError(f"{key}: '*kappa' form cannot be used here")
        return float(m.group(1)) * kappa
    m = _RE_OMEGAR.match(raw)
    if m:
        if omega_R is None:
            raise ConfigError(f"{key}: '*omegaR' form cannot be used here")
        return float(m.group(1)) * omega_R
    raise ConfigError(f"{key}: cannot parse quantity {raw!r}")


def build_config(data: dict) -> RunConfig:
    """Validate a flat key-value mapping into a RunConfig."""
    allowed = set(PARAM_KEYS) | set(SWEEP_KEYS) | set(OTHER_KEYS)
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    base = paper_defaults()
    # kappa and omega_R resolve first so '*kappa'/'*omegaR' can reference them
    kappa = parse_quantity(data.get("kappa", base["kappa"]), key="kappa")
    omega_R = parse_quantity(data.get("omega_R", base["omega_R"]),
                             key="omega_R")
    fields = dict(base, kappa=kappa, omega_R=omega_R)
    for key in FREQ_KEYS:
        if key in ("kappa", "omega_R") or key not in data:
            continue
        fields[key] = parse_quantity(data[key], kappa=kappa,
                                     omega_R=omega_R, key=key)
    if "N" in data:
        if not isinstance(data["N"], int) or isinstance(data["N"], bool):
            raise ConfigError("N: expected an integer")
        fields["N"] = data["N"]
    if "T" in data:
        if isinstance(data["T"], bool) or not isinstance(data["T"], (int, float)):
            raise ConfigError("T: expected a number in kelvin")
        fields["T"] = float(data["T"])
    if "ck_enabled" in data:
        if not isinstance(data["ck_enabled"], bool):
            raise ConfigError("ck_enabled: expected true or false")
        fields["ck_enabled"] = data["ck_enabled"]

    try:
        params = SystemParams(**fields)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    extras: dict = {}
    if "sweep_var" in data:
        extras["sweep_var"] = data["sweep_var"]
    for key in ("sweep_min", "sweep_max"):
        if key in data:
            extras[key] = parse_quantity(data[key], kappa=kappa,
                                         omega_R=omega_R, key=key)
    if "sweep_count" in data:
        if not isinstance(data["sweep_count"], int) or isinstance(data["sweep_count"], bool):
            raise ConfigError("sweep_count: expected an integer")
        extras["sweep_count"] = data["sweep_count"]
    for key in ("ck_mode", "branch_policy", "preset", "out", "format"):
        if key in data:
            if not isinstance(data[key], str):
                raise ConfigError(f"{key}: expected a string")
            extras[key] = data[key]
    if "workers" in data:
        if not isinstance(data["workers"], int) or isinstance(data["workers"], bool):
            raise ConfigError("workers: expected an integer")
        extras["workers"] = data["workers"]
    if extras.get("format", "csv") not in ("csv", "json-lines"):
        raise ConfigError("format: expected 'csv' or 'json-lines'")
    return RunConfig(params=params, **extras)


def paper_defaults() -> dict:
    kappa = 2.0 * math.pi * 1.3e6
    return dict(
        N=100_000,
        g0=2.0 * math.pi * 14.1e6,
        delta_a=7.5e11,
        omega_R=2.37e4,
        omega_sw=2.37e4,
        kappa=kappa,
        gamma=1e-3 * kappa,
        delta_c=0.0,
        eta=0.0,
        T=1e-7,
        ck_enabled=True,
    )


def dump_config(cfg: RunConfig) -> str:
    """Canonical JSON form; re-parsing it reproduces the same RunConfig."""
    data: dict = {k: getattr(cfg.params, k) for k in PARAM_KEYS}
    for key in SWEEP_KEYS + OTHER_KEYS:
        val = getattr(cfg, key)
        if val is not None:
            data[key] = val
    if cfg.format == "csv":
        data.pop("format", None)
        data["format"] = "csv"
    return json.dumps(data, indent=2, sort_keys=True)


def sweep_spec_from_config(cfg: RunConfig) -> SweepSpec:
    if cfg.preset is not None:
        spec = preset_spec(cfg.preset)
        overrides: dict = {}
        if cfg.sweep_min is not None:
            overrides["start"] = cfg.sweep_min
        if cfg.sweep_max is not None:
            overrides["stop"] = cfg.sweep_max
        if cfg.sweep_count is not None:
            overrides["count"] = cfg.sweep_count
        if cfg.ck_mode is not None:
            overrides["ck_mode"] = cfg.ck_mode
        if cfg.branch_policy is not None:
            overrides["branch_policy"] = cfg.branch_policy
        try:
            return dataclasses.replace(spec, **overrides) if overrides else spec
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    missing = [k for k in ("sweep_var", "sweep_min", "sweep_max")
               if getattr(cfg, k) is None]
    if missing:
        raise ConfigError("sweep needs a preset or explicit "
                          f"{', '.join(missing)}")
    try:
        return SweepSpec(
            var=cfg.sweep_var,
            start=cfg.sweep_min,
            stop=cfg.sweep_max,
            count=cfg.sweep_count or 501,
            base=cfg.params,
            ck_mode=cfg.ck_mode or "paired",
            branch_policy=cfg.branch_policy or "all",
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# serialization helpers

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return f"{x:.17g}"


def row_to_csv(row: SweepRow) -> str:
    cells = [
        row.sweep_var,
        _fmt(row.sweep_value),
        "on" if row.ck_enabled else "off",
        str(row.branch_index),
        _fmt(row.n_photon),
        _fmt(row.alpha.real),
        _fmt(row.alpha.imag),
        _fmt(row.beta.real),
        _fmt(row.beta.imag),
        _fmt(row.Delta),
        _fmt(row.omega_B),
        _fmt(row.omega_B_ratio),
        _fmt(row.stable),
        _fmt(row.E_N),
        _fmt(row.S_Q),
        _fmt(row.S_P),
        _fmt(row.n_incoherent),
        _fmt(row.lattice_ok),
        _fmt(row.bogoliubov_ok),
    ]
    return ",".join(cells)


def row_to_json(row: SweepRow) -> str:
    names = CSV_HEADER.split(",")
    cells = row_to_csv(row).split(",")
    obj = {}
    for name, cell in zip(names, cells):
        if cell == "":
            obj[name] = None
        elif name in ("sweep_var", "ck"):
            obj[name] = cell
        elif name == "branch":
            obj[name] = int(cell)
        elif cell in ("true", "false"):
            obj[name] = cell == "true"
        else:
            obj[name] = float(cell)
    return json.dumps(obj, sort_keys=False)


def branch_report(d: DerivedParams, b, dd: DriftDiffusion, rep,
                  obs, flags_ok) -> dict:
    rec = {
        "branch_index": b.branch_index,
        "n_photon": b.n_photon,
        "alpha_re": b.alpha.real,
        "alpha_im": b.alpha.imag,
        "beta_re": b.beta.real,
        "beta_im": b.beta.imag,
        "delta_eff": b.Delta,
        "omega_plus": b.Omega_plus,
        "omega_minus": b.Omega_minus,
        "residual": b.residual,
        "stability": {
            "eigenvalues_re": [z.real for z in rep.eigenvalues],
            "eigenvalues_im": [z.imag for z in rep.eigenvalues],
            "max_real_part": rep.max_real_part,
            "routh_hurwitz_pass": rep.routh_hurwitz_pass,
            "stable": rep.stable,
            "marginal": rep.marginal,
        },
        "lattice_depth_ok": flags_ok["lattice_depth_ok"],
        "bogoliubov_ok": flags_ok["bogoliubov_ok"],
    }
    if obs is None:
        rec["observables"] = None
    else:
        rec["observables"] = {
            "e_n": obs.E_N,
            "eta_minus": obs.eta_minus,
            "s_q": obs.S_Q,
            "s_p": obs.S_P,
            "n_incoherent": obs.n_incoherent,
            "omega_b": obs.omega_B,
            "n_c": obs.n_c,
        }
    return rec


# ---------------------------------------------------------------------------
# subcommands

def cmd_steady(cfg: RunConfig, stream) -> int:
    from .model import validity_flags

    d = derive_params(cfg.params)
    bset = enumerate_branches(d)
    branches = []
    for b in bset:
        dd = build_drift_diffusion(d, b)
        rep = classify_stability(dd)
        obs = None
        if rep.stable and not rep.marginal:
            obs = observable_set(dd, solve_lyapunov(dd, rep))
        flags = validity_flags(d, b.n_photon,
                               obs.n_incoherent if obs else None)
        branches.append(branch_report(d, b, dd, rep, obs, flags))
    report = {
        "params": {
            "U0": d.U0, "Omega_c": d.Omega_c, "zeta": d.zeta, "g": d.g,
            "delta_c": d.delta_c, "eta": d.eta, "kappa": d.kappa,
            "gamma": d.gamma, "omega_sw": d.omega_sw, "omega_R": d.omega_R,
            "T": d.T, "N": d.N, "ck_enabled": d.ck_enabled,
        },
        "warnings": list(bset.warnings),
        "branches": branches,
    }
    try:
        text = json.dumps(report, indent=2, allow_nan=False)
    except ValueError as exc:
        raise InternalConsistencyError(f"steady report: {exc}") from exc
    stream.write(text + "\n")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, stream) -> int:
    spec = sweep_spec_from_config(cfg)
    try:
        workers = resolve_workers(cfg.workers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = run_sweep(spec, workers=workers)
    if cfg.format == "json-lines":
        for row in rows:
            stream.write(row_to_json(row) + "\n")
    else:
        stream.write(CSV_HEADER + "\n")
        for row in rows:
            stream.write(row_to_csv(row) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites (independent-oracle cross checks)

def _random_stable_points(rng, count, base: SystemParams):
    """Draw random parameter points and keep stable branches."""
    out = []
    k = base.kappa
    wr = base.omega_R
    while len(out) < count:
        p = dataclasses.replace(
            base,
            delta_c=float(rng.uniform(-15.0, 15.0)) * k,
            eta=float(rng.uniform(0.1, 4.0)) * k,
            omega_sw=float(rng.uniform(0.0, 20.0)) * wr,
            ck_enabled=bool(rng.integers(0, 2)),
        )
        d = derive_params(p)
        for b in enumerate_branches(d):
            dd = build_drift_diffusion(d, b)
            rep = classify_stability(dd)
            if rep.stable and not rep.marginal:
                out.append((d, b, dd, rep))
                if len(out) >= count:
                    break
    return out


def verify_jacobian(rng, base: SystemParams, count: int = 100,
                    perturb: float = 0.0):
    """Analytic drift matrix against a finite-difference Jacobian."""
    worst = 0.0
    worst_at = None
    for d, b, dd, _ in _random_stable_points(rng, count, base):
        A = dd.A * (1.0 + perturb)
        J = finite_difference_jacobian(d, quadrature_fixed_point(b))
        err = float(np.max(np.abs(A - J)) / np.max(np.abs(A)))
        if err > worst:
            worst, worst_at = err, (d.delta_c, d.eta, d.omega_sw, d.ck_enabled)
    return worst <= 1e-6, f"max relative deviation {worst:.3e}", worst_at


def verify_lyapunov_ode(rng, base: SystemParams, count: int = 12):
    worst = 0.0
    worst_at = None
    for d, b, dd, rep in _random_stable_points(rng, count, base):
        V = solve_lyapunov(dd, rep).V
        t_final = 50.0 / abs(rep.max_real_part)
        W = integrate_moment_ode(dd, 0.5 * np.eye(4), t_final)
        err = float(np.max(np.abs(W - V)) / np.max(np.abs(V)))
        if err > worst:
            worst, worst_at = err, (d.delta_c, d.eta, d.omega_sw, d.ck_enabled)
    return worst <= 1e-6, f"max relative deviation {worst:.3e}", worst_at


def verify_routh_hurwitz(rng, base: SystemParams, count: int = 2000):
    """Verdict agreement on random drift-parameter draws."""
    from .dynamics import drift_matrix
    k = base.kappa
    bad = 0
    for _ in range(count):
        A = drift_matrix(
            Delta=float(rng.uniform(-20, 20)) * k,
            Omega_plus=float(rng.uniform(0.001, 0.2)) * k,
            Omega_minus=float(rng.uniform(0.001, 0.2)) * k,
            kappa=k,
            gamma=float(rng.uniform(1e-4, 1e-2)) * k,
            G_R=float(rng.uniform(-1, 1)) * k,
            G_I=float(rng.uniform(-1, 1)) * k,
            F_R=float(rng.uniform(-0.01, 0.01)) * k,
            F_I=float(rng.uniform(-0.01, 0.01)) * k,
        )
        dd = DriftDiffusion(A=A, D=np.diag([k, k, k, k]), G_R=0, G_I=0,
                            F_R=0, F_I=0, n_c=0.0, kappa=k, gamma=0.0,
                            omega_B=1.0)
        try:
            rep = classify_stability(dd)
        except InternalConsistencyError:
            bad += 1
            continue
        if not rep.marginal and rep.routh_hurwitz_pass != rep.stable:
            bad += 1
    return bad == 0, f"{bad} disagreements in {count} draws", None


def verify_meanfield(rng, base: SystemParams, count: int = 50):
    """Every enumerated branch satisfies the steady-state equations."""
    worst = 0.0
    k, wr = base.kappa, base.omega_R
    for _ in range(count):
        p = dataclasses.replace(
            base,
            delta_c=float(rng.uniform(-15.0, 15.0)) * k,
            eta=float(rng.uniform(0.0, 4.0)) * k,
            omega_sw=float(rng.uniform(0.0, 20.0)) * wr,
            ck_enabled=bool(rng.integers(0, 2)),
        )
        d = derive_params(p)
        for b in enumerate_branches(d):
            # alpha and beta closed forms, photon-number consistency
            den = b.Delta ** 2 + d.kappa ** 2
            alpha_ref = complex(-d.eta * d.kappa / den, d.eta * b.Delta / den)
            den2 = b.Omega_plus * b.Omega_minus + d.gamma ** 2
            beta_ref = (-d.zeta * b.n_photon
                        * complex(b.Omega_minus, d.gamma) / den2)
            scale = max(abs(alpha_ref), abs(beta_ref), 1e-30)
            err = max(abs(b.alpha - alpha_ref), abs(b.beta - beta_ref)) / scale
            nerr = abs(abs(b.alpha) ** 2 - b.n_photon) / max(b.n_photon, 1e-30)
            worst = max(worst, err, nerr if b.n_photon else 0.0, b.residual)
    return worst <= 1e-9, f"max substitution error {worst:.3e}", None


def verify_gaussian(rng):
    """Analytic Gaussian-state cases for the entanglement formulas."""
    checks = []
    e0, eta0 = logarithmic_negativity(0.5 * np.eye(4))
    checks.append(abs(e0) <= 1e-12 and abs(eta0 - 0.5) <= 1e-12)
    for r in (0.1, 0.5, 1.0):
        c, s = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
        V = np.block([[c * np.eye(2), s * np.diag([1.0, -1.0])],
                      [s * np.diag([1.0, -1.0]), c * np.eye(2)]])
        e_n, _ = logarithmic_negativity(V)
        checks.append(abs(e_n - 2 * r) <= 1e-9)
    # invariance under local phase-space rotations
    th, ph = rng.uniform(0, 2 * math.pi, size=2)
    R = np.zeros((4, 4))
    R[:2, :2] = [[math.cos(th), math.sin(th)], [-math.sin(th), math.cos(th)]]
    R[2:, 2:] = [[math.cos(ph), math.sin(ph)], [-math.sin(ph), math.cos(ph)]]
    c, s = math.cosh(1.0) / 2, math.sinh(1.0) / 2
    V = np.block([[c * np.eye(2), s * np.diag([1.0, -1.0])],
                  [s * np.diag([1.0, -1.0]), c * np.eye(2)]])
    e1, _ = logarithmic_negativity(V)
    e2, _ = logarithmic_negativity(R @ V @ R.T)
    checks.append(abs(e1 - e2) <= 1e-9)
    ok = all(checks)
    return ok, f"{sum(checks)}/{len(checks)} analytic cases", None


def cmd_verify(cfg: RunConfig, stream, seed: int = 20260813,
               perturb_drift: float = 0.0) -> int:
    base = cfg.params
    suites = [
        ("jacobian", lambda rng: verify_jacobian(rng, base,
                                                 perturb=perturb_drift)),
        ("lyapunov_ode", lambda rng: verify_lyapunov_ode(rng, base)),
        ("routh_hurwitz", lambda rng: verify_routh_hurwitz(rng, base)),
        ("meanfield_substitution", lambda rng: verify_meanfield(rng, base)),
        ("gaussian_cases", lambda rng: verify_gaussian(rng)),
    ]
    all_ok = True
    for name, fn in suites:
        rng = np.random.default_rng(seed)
        ok, detail, where = fn(rng)
        all_ok &= ok
        line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
        if not ok and where is not None:
            line += f" at delta_c={where[0]:.6e}, eta={where[1]:.6e}, " \
                    f"omega_sw={where[2]:.6e}, ck={where[3]}"
        stream.write(line + "\n")
    stream.write("verify: " + ("PASS" if all_ok else "FAIL") + "\n")
    return EXIT_OK if all_ok else EXIT_VERIFY


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="becck",
        description="Steady states and Gaussian fluctuations of a driven "
                    "cavity coupled to an interacting condensate")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("steady", "solve a single parameter point, report JSON"),
            ("sweep", "run a parameter sweep, write CSV"),
            ("verify", "run the independent-oracle verification suites")):
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--config", help="path to a JSON config file")
        s.add_argument("--preset", choices=preset_names(),
                       help="figure preset name")
        s.add_argument("--out", help="output path (default stdout)")
        s.add_argument("--workers", type=int,
                       help="process count for sweeps (default "
                            "BECCK_WORKERS or 1)")
        s.add_argument("--seed", type=int, default=20260813,
                       help="seed for randomized verification draws")
        s.add_argument("--dump-config", action="store_true",
                       help="print the canonical config and exit")
        s.add_argument("--perturb-drift", type=float, default=0.0,
                       metavar="EPS",
                       help="fault injection: scale the analytic drift "
                            "matrix by (1+EPS) inside verify")
    return parser


def _load_config_data(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        data = _load_config_data(args.config)
        if args.preset is not None:
            data["preset"] = args.preset
        if args.out is not None:
            data["out"] = args.out
        if args.workers is not None:
            data["workers"] = args.workers
        cfg = build_config(data)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.dump_config:
        print(dump_config(cfg))
        return EXIT_OK

    try:
        if cfg.out:
            try:
                stream = open(cfg.out, "w", encoding="utf-8")
            except OSError as exc:
                print(f"output error: {exc}", file=sys.stderr)
                return EXIT_IO
        else:
            stream = sys.stdout
        try:
            if args.command == "steady":
                return cmd_steady(cfg, stream)
            if args.command == "sweep":
                return cmd_sweep(cfg, stream)
            return cmd_verify(cfg, stream, seed=args.seed,
                              perturb_drift=args.perturb_drift)
        finally:
            if cfg.out:
                try:
                    stream.close()
                except OSError as exc:
                    print(f"output error: {exc}", file=sys.stderr)
                    return EXIT_IO
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InternalConsistencyError, UnstableDriftError) as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
