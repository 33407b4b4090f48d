"""Command-line front end: single-point solves, sweeps, verification suites.

Exit codes: 0 success, 2 configuration error, 3 internal-consistency error,
4 output I/O failure, 5 verification-suite failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from .dynamics import InternalConsistencyError
from .model import (DerivedParams, DomainError, SystemParams, derive_params,
                    validity_flags)
from .steadystate import ObservableSet
from .sweep import SWEEP_VARS, SweepSpec, SweepRow, evaluate_points, run_sweep
from .verify import DEFAULT_SEED, run_suites

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTERNAL = 3
EXIT_IO = 4
EXIT_VERIFY = 5
MAX_CONFIG_BYTES = 1 << 20  # a longer config is refused

CSV_HEADER = ("sweep_var,sweep_value,ck,branch,n_photon,alpha_re,alpha_im,"
              "beta_re,beta_im,delta_eff,omega_b,omega_b_ratio,stable,"
              "e_n,s_q,s_p,n_incoh,lattice_ok,bogoliubov_ok")
CSV_COLUMNS = tuple(CSV_HEADER.split(","))

_FLOAT = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_RE_UNIT = re.compile(rf"^\s*({_FLOAT})\s*\*\s*(kappa|omegaR)\s*$")
_RE_2PI = re.compile(rf"^\s*2pi\*({_FLOAT})\s*(Hz|kHz|MHz|GHz)\s*$")
_HZ_MULT = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}


class ConfigError(ValueError):
    """A configuration key, value, or combination is invalid."""


@dataclass(frozen=True)
class RunConfig:
    params: SystemParams
    sweep: Optional[SweepSpec] = None
    preset: Optional[str] = None
    out: Optional[str] = None
    format: str = "csv"
    workers: Optional[int] = None


PARAM_KEYS = tuple(f.name for f in dataclasses.fields(SystemParams))
# every default is an immutable scalar, so a shallow dict of them suffices
_PARAM_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SystemParams)}
# (JSON types, description) of the keys that take neither a frequency
# nor a string
_KINDS = dict.fromkeys(("N", "sweep_count", "workers"), ((int,), "an integer"))
_KINDS.update(T=((int, float), "a number in kelvin"),
              ck_enabled=((bool,), "true or false"))
# every other parameter is a frequency in rad/s
FREQ_KEYS = tuple(k for k in PARAM_KEYS if k not in _KINDS)
# the SweepSpec field of each sweep key, the range first
_SPEC_FIELDS = {"sweep_var": "var", "sweep_min": "start", "sweep_max": "stop",
                "sweep_count": "count", "ck_mode": "ck_mode",
                "branch_policy": "branch_policy"}
SWEEP_KEYS = tuple(_SPEC_FIELDS)
OTHER_KEYS = ("preset", "out", "format", "workers")
_CONFIG_KEYS = frozenset(PARAM_KEYS + SWEEP_KEYS + OTHER_KEYS)


def parse_quantity(raw, kappa: Optional[float] = None,
                   omega_R: Optional[float] = None, key: str = "") -> float:
    """Parse a finite frequency value in rad/s.

    Accepts a plain number, ``<x>*kappa``, ``<x>*omegaR``, or
    ``2pi*<value><Hz|kHz|MHz|GHz>``. NaN, infinities and values that
    overflow to them are rejected.
    """
    if isinstance(raw, bool):
        raise ConfigError(f"{key}: expected a frequency, got a boolean")
    if isinstance(raw, (int, float)):
        # an integer beyond the float range counts as infinite
        value = float(raw) if abs(raw) <= sys.float_info.max else math.inf
    elif not isinstance(raw, str):
        raise ConfigError(f"{key}: expected a number or unit string")
    elif m := _RE_UNIT.match(raw):  # the forms are disjoint
        unit = {"kappa": kappa, "omegaR": omega_R}[m.group(2)]
        if unit is None:
            raise ConfigError(f"{key}: '*{m.group(2)}' form cannot be used here")
        value = float(m.group(1)) * unit
    elif m := _RE_2PI.match(raw):
        value = 2.0 * math.pi * float(m.group(1)) * _HZ_MULT[m.group(2)]
    else:
        raise ConfigError(f"{key}: cannot parse quantity {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{key}: value must be finite, got {raw!r}")
    return value


def _config_value(data: dict, key: str, kappa: float, omega_R: float):
    raw = data[key]
    if key in FREQ_KEYS or key in ("sweep_min", "sweep_max"):
        return parse_quantity(raw, kappa=kappa, omega_R=omega_R, key=key)
    types, what = _KINDS.get(key, ((str,), "a string"))
    if type(raw) not in types:  # a bool is no integer here
        raise ConfigError(f"{key}: expected {what}")
    if key in ("N", "T") and not abs(raw) <= sys.float_info.max:
        raise ConfigError(f"{key}: value must be finite, got {raw!r}")
    return float(raw) if key == "T" else raw


# The figure presets: per name the sweep variable, start, stop, branch
# policy and parameter keys, config keys beneath those of a config that
# names it, in units of the run's own kappa and omega_R. Sweep ranges
# are generous supersets of the plotted axes. The fig6, fig7 and fig8
# presets mark multi-branch points explicitly through their branch rows;
# fig6 additionally restricts its range to the region where both cross-Kerr
# settings have a unique stable branch, since observables there are
# compared pointwise between the two settings.
_PRESETS = {
    "fig2a": ("delta_c", "-10*kappa", "15*kappa", "lowest",
              {"eta": "1*kappa", "omega_sw": "1*omegaR"}),
    "fig2b": ("delta_c", "-10*kappa", "15*kappa", "all",
              {"eta": "2*kappa", "omega_sw": "1*omegaR"}),
    "fig3a": ("delta_c", "-10*kappa", "15*kappa", "lowest",
              {"eta": "2*kappa", "omega_sw": "5*omegaR"}),
    "fig3b": ("delta_c", "-10*kappa", "15*kappa", "lowest",
              {"eta": "2*kappa", "omega_sw": "10*omegaR"}),
    "fig4": ("delta_c", "-10*kappa", "15*kappa", "all",
             {"eta": "2*kappa", "omega_sw": "1*omegaR"}),
    "fig5": ("eta", "0*kappa", "3*kappa", "highest",
             {"delta_c": "5*kappa", "eta": "1*kappa", "omega_sw": "1*omegaR"}),
    "fig6": ("delta_c", "-10*kappa", "9*kappa", "lowest",
             {"eta": "7*kappa", "omega_sw": "1*omegaR"}),
    "fig7": ("delta_c", "-20*kappa", "20*kappa", "all",
             {"eta": "2*kappa", "omega_sw": "1*omegaR"}),
    "fig8": ("omega_sw", "0*omegaR", "40*omegaR", "lowest",
             {"delta_c": "-15*kappa", "eta": "5*kappa"}),
}


def preset_names() -> tuple:
    return tuple(_PRESETS)


def build_config(data: dict) -> RunConfig:
    """Validate a flat mapping over its preset's keys into a RunConfig, its
    sweep keys into one SweepSpec (None without any)."""
    if not _CONFIG_KEYS.issuperset(data):
        unknown = sorted(set(data) - _CONFIG_KEYS)
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "preset" in data:
        if data["preset"] not in preset_names():  # a list is no dict key
            raise ConfigError(f"preset: unknown preset {data['preset']!r}; "
                              "expected one of " + ", ".join(preset_names()))
        var, lo, hi, policy, keys = _PRESETS[data["preset"]]
        other = data.get("sweep_var", var)  # SweepSpec judges an unknown one
        if other == var or other not in SWEEP_VARS:  # else not its range
            keys = {"sweep_min": lo, "sweep_max": hi, **keys}
        data = {"sweep_var": var, "branch_policy": policy, **keys, **data}

    # kappa and omega_R resolve first so '*kappa'/'*omegaR' can reference them
    kappa = parse_quantity(data.get("kappa", _PARAM_DEFAULTS["kappa"]),
                           key="kappa")
    omega_R = parse_quantity(data.get("omega_R", _PARAM_DEFAULTS["omega_R"]),
                             key="omega_R")
    fields = dict(_PARAM_DEFAULTS, kappa=kappa, omega_R=omega_R)
    for key in PARAM_KEYS:
        if key in data and key not in ("kappa", "omega_R"):
            fields[key] = _config_value(data, key, kappa, omega_R)
    try:
        params = SystemParams(**fields)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    values = {key: _config_value(data, key, kappa, omega_R)
              for key in SWEEP_KEYS + OTHER_KEYS if key in data}
    if values.get("format", "csv") not in ("csv", "json-lines"):
        raise ConfigError("format: expected 'csv' or 'json-lines'")
    if values.get("workers", 1) < 1:
        raise ConfigError("workers must be >= 1")
    sweep = {_SPEC_FIELDS[k]: values.pop(k) for k in SWEEP_KEYS if k in values}
    spec = _sweep_spec(sweep, params, values.get("preset")) if sweep else None
    return RunConfig(params=params, sweep=spec, **values)


def _sweep_spec(fields: dict, params: SystemParams, preset) -> SweepSpec:
    """The SweepSpec of the ``fields`` that a config's sweep keys give, over
    ``params``; a preset's range is only for its own sweep_var."""
    missing = [k for k in SWEEP_KEYS[:3] if _SPEC_FIELDS[k] not in fields]
    if missing:
        raise ConfigError(f"sweep needs explicit {', '.join(missing)}" + (
            f" for a sweep_var other than preset {preset}'s" if preset else
            " or a preset"))
    try:
        return SweepSpec(base=params, **fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def dump_config(cfg: RunConfig) -> str:
    """Canonical JSON form, the resolved sweep as its sweep keys; re-parsing
    it reproduces the same RunConfig."""
    data = {**vars(cfg), **vars(cfg.params), **{
        k: getattr(cfg.sweep, f) for k, f in _SPEC_FIELDS.items() if cfg.sweep}}
    return json.dumps({k: v for k, v in sorted(data.items()) if k not in (
        "params", "sweep") and v is not None}, indent=2, allow_nan=False)


def sweep_spec_from_config(cfg: RunConfig) -> SweepSpec:
    """The sweep of ``cfg``, as ``build_config`` resolved it."""
    return cfg.sweep or _sweep_spec({}, cfg.params, cfg.preset)  # raises


@functools.cache
def preset_spec(name: str) -> SweepSpec:
    """The sweep of a config that names only the figure preset ``name``."""
    return build_config({"preset": name}).sweep


# ---------------------------------------------------------------------------
# serialization helpers

def _row_cells(row: SweepRow, flags: dict) -> tuple:
    """The 19 column values of a row, in CSV_HEADER order, with its three
    flags spelled as ``flags`` maps them; a float cell that is not finite
    raises InternalConsistencyError."""
    (var, value, ck, index, _, n, alpha, beta, Delta, omega_B, ratio, stable,
     E_N, S_Q, S_P, n_incoherent, lattice_ok, bogoliubov_ok, _, _, _) = row
    cells = (var, value, "on" if ck else "off", index, n, alpha.real,
             alpha.imag, beta.real, beta.imag, Delta, omega_B, ratio,
             flags[stable], E_N, S_Q, S_P, n_incoherent, flags[lattice_ok],
             flags[bogoliubov_ok])
    for name, x in zip(CSV_COLUMNS, cells):
        if isinstance(x, float) and not math.isfinite(x):
            raise InternalConsistencyError(
                f"sweep row {var}={value!r} ck={cells[2]} "
                f"branch {index}: {name} = {x!r} is not finite")
    return cells


# One %-template per format for a row with its observables and one for a row
# with all four absent (None fills a %.0s). Flags fill a %s spelled out; the
# text cells are SWEEP_VARS names and "on"/"off", which JSON need not escape;
# %s of a finite float (or np.float64) is its repr, as json.dumps writes it.
_TEXT_COLUMNS = ("sweep_var", "ck")
_PLAIN_COLUMNS = _TEXT_COLUMNS + ("stable", "lattice_ok", "bogoliubov_ok")
_OBSERVABLE_COLUMNS = ("e_n", "s_q", "s_p", "n_incoh")
_CSV_TEMPLATES = tuple(",".join(
    "%.0s" if absent and c in _OBSERVABLE_COLUMNS else
    "%s" if c in _PLAIN_COLUMNS else "%.17g" for c in CSV_COLUMNS)
    for absent in (False, True))
_JSON_TEMPLATES = tuple("{%s}" % ", ".join(
    f'"{c}": ' + ("null%.0s" if absent and c in _OBSERVABLE_COLUMNS else
                  '"%s"' if c in _TEXT_COLUMNS else "%s") for c in CSV_COLUMNS)
    for absent in (False, True))
_CSV_FLAGS = {True: "true", False: "false", None: ""}
_JSON_FLAGS = {True: "true", False: "false", None: "null"}


def row_to_csv(row: SweepRow) -> str:
    return _CSV_TEMPLATES[row.E_N is None] % _row_cells(row, _CSV_FLAGS)


def row_to_json(row: SweepRow) -> str:
    return _JSON_TEMPLATES[row.E_N is None] % _row_cells(row, _JSON_FLAGS)


def _finite(numbers: tuple) -> tuple:
    """``numbers``, or json's ValueError at the first that is not finite."""
    if all(map(math.isfinite, numbers)):
        return numbers
    x = next(x for x in numbers if not math.isfinite(x))
    raise ValueError("Out of range float values are not JSON compliant: "
                     + repr(x))


def _template(schema, nl: str = "\n") -> str:
    """The text of json.dumps(schema, indent=2) on a line whose break and
    indent are ``nl``, each "%r" or "%s" string in it made a %-slot."""
    return json.dumps(schema, indent=2).replace("\n", nl).replace(
        '"%r"', "%r").replace('"%s"', "%s")


# The steady report: one template for the point and one per branch, with
# and without observables. Flags fill a %s spelled out by _JSON_FLAGS; every
# number is a Python float or int (NumPy 2 gives np.float64 another %r), in
# document order, so _finite finds the one json.dumps would refuse first.
_BRANCH = {**dict.fromkeys((
    "branch_index", "n_photon", "alpha_re", "alpha_im", "beta_re", "beta_im",
    "delta_eff", "omega_plus", "omega_minus", "residual"), "%r"),
    "stability": {"eigenvalues_re": ["%r"] * 4, "eigenvalues_im": ["%r"] * 4,
                  "max_real_part": "%r", "routh_hurwitz_pass": "%s",
                  "stable": "%s", "marginal": "%s"},
    "lattice_depth_ok": "%s", "bogoliubov_ok": "%s"}
_BRANCH_TEMPLATES = tuple(_template({**_BRANCH, "observables": observables},
                                    "\n    ") for observables in (
    {k.lower(): "%r" for k in ObservableSet._fields}, None))
_REPORT_TEMPLATE = _template({
    "params": {k: "%s" if k == "ck_enabled" else "%r"
               for k in DerivedParams._fields},
    "warnings": "%s", "branches": ["%s"]}) + "\n"


def steady_report(d, warnings, stability, evaluated) -> str:
    """``json.dumps(report, indent=2, allow_nan=False) + "\\n"`` of the
    ``steady`` report of the point ``d`` (DerivedParams) with its
    ``warnings``, the StabilityReport stacks of its branches and their
    ``evaluate_points`` records (at least one), or json's ValueError at its
    first float that is not finite."""
    eigs = stability.eigenvalues
    rows = list(zip(eigs.real.tolist(), eigs.imag.tolist(),
                    *(x.tolist() for x in stability[1:])))
    params = _finite(d[:-1])
    branches = []
    for i, _, b, state in evaluated:
        eig_re, eig_im, max_real, *verdicts = rows[i]
        obs = state and state[1]  # the ObservableSet, or None
        x = _finite((b.branch_index, b.n_photon, b.alpha.real, b.alpha.imag,
                     b.beta.real, b.beta.imag, b.Delta, b.Omega_plus,
                     b.Omega_minus, b.residual, *eig_re, *eig_im, max_real,
                     *(obs or ())))
        branches.append(_BRANCH_TEMPLATES[obs is None] % (
            *x[:19], *map(_JSON_FLAGS.get, (*verdicts, *validity_flags(
                d, b.n_photon, obs and obs.n_incoherent))), *x[19:]))
    warned = ",\n    ".join(map(encode_basestring_ascii, warnings))
    return _REPORT_TEMPLATE % (
        *params, _JSON_FLAGS[d.ck_enabled],
        "[\n    %s\n  ]" % warned if warned else "[]",
        ",\n    ".join(branches))


# ---------------------------------------------------------------------------
# subcommands

def cmd_steady(cfg: RunConfig) -> tuple[int, str]:
    d = derive_params(cfg.params)
    (bset,), _, stability, evaluated = evaluate_points([d])
    try:
        return EXIT_OK, steady_report(d, bset.warnings, stability, evaluated)
    except ValueError as exc:
        raise InternalConsistencyError(f"steady report: {exc}") from exc


def cmd_sweep(cfg: RunConfig) -> tuple[int, str]:
    rows = run_sweep(sweep_spec_from_config(cfg), workers=cfg.workers)
    serialize = row_to_json if cfg.format == "json-lines" else row_to_csv
    lines = [CSV_HEADER] if cfg.format == "csv" else []
    # a cell that is not finite raises, so no row is written unless all are
    lines += [serialize(row) for row in rows]
    return EXIT_OK, "".join(line + "\n" for line in lines)


def cmd_verify(cfg: RunConfig, seed: int,
               perturb_drift: float) -> tuple[int, str]:
    if seed < 0:
        raise ConfigError(f"--seed: expected a nonnegative integer, got {seed}")
    if not math.isfinite(perturb_drift):
        raise ConfigError("--perturb-drift: value must be finite, got "
                          f"{perturb_drift!r}")
    ok, lines = run_suites(cfg.params, seed, perturb_drift)
    return (EXIT_OK if ok else EXIT_VERIFY), "".join(f"{ln}\n" for ln in lines)


# ---------------------------------------------------------------------------

# each subcommand's help and the add_argument keywords of its options:
# build_parser declares them, and _read_exact reads the exact forms by them
_COMMANDS = {"steady": "solve a single parameter point, report JSON",
             "sweep": "run a parameter sweep, write CSV",
             "verify": "run the independent-oracle verification suites"}
_OPTIONS = {
    "--config": {"help": "path to a JSON config file"},
    "--preset": {"choices": preset_names(), "help": "figure preset name"},
    "--out": {"help": "output path (default stdout)"},
    "--dump-config": {"action": "store_true", "default": False,
                      "help": "print the canonical config and exit"}}
_COMMAND_OPTIONS = {**dict.fromkeys(_COMMANDS, _OPTIONS), "verify": {
    **_OPTIONS,
    "--seed": {"type": int, "default": DEFAULT_SEED,
               "help": "seed for randomized verification draws"},
    "--perturb-drift": {"type": float, "default": 0.0, "metavar": "EPS",
                        "help": "fault injection: scale the analytic drift "
                                "matrix by (1+EPS)"}}}
# each option's attribute and its default, per subcommand
_DEFAULTS = {name: {flag[2:].replace("-", "_"): spec.get("default")
                    for flag, spec in options.items()}
             for name, options in _COMMAND_OPTIONS.items()}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (it is only read)."""
    parser = argparse.ArgumentParser(
        prog="becck",
        description="Steady states and Gaussian fluctuations of a driven "
                    "cavity coupled to an interacting condensate")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        s = sub.add_parser(name, help=help_text)
        for flag, spec in _COMMAND_OPTIONS[name].items():
            s.add_argument(flag, **spec)
    return parser


def _read_exact(argv):
    """The options argparse gives an ``argv`` of the form ``<command>
    (--option value | --dump-config)*``, each option in full and each value
    passing its type and choices, not starting with ``-``; else None."""
    if not argv or (options := _COMMAND_OPTIONS.get(argv[0])) is None:
        return None
    values, words = dict(_DEFAULTS[argv[0]]), iter(argv[1:])
    for flag in words:
        if (spec := options.get(flag)) is None:
            return None
        if "action" in spec:  # store_true
            value = True
        elif (word := next(words, "-")).startswith("-"):
            return None
        else:
            try:
                value = spec.get("type", str)(word)
            except ValueError:
                return None
            if "choices" in spec and value not in spec["choices"]:
                return None
        values[flag[2:].replace("-", "_")] = value
    return argparse.Namespace(**values)


def _glue_perturb_drift(args) -> list:
    """``--perturb-drift X`` as ``--perturb-drift=X`` where float() takes X
    (up to any ``--``), for each abbreviation down to ``--pe``: argparse
    reads an X such as -1e-3 or -inf as an option. ``--p`` is left alone,
    since it also abbreviates ``--preset``."""
    args = list(args)
    end = args.index("--") if "--" in args else len(args)
    for i in reversed(range(end - 1)):
        if len(args[i]) >= 4 and "--perturb-drift".startswith(args[i]):
            try:
                float(args[i + 1])
            except ValueError:
                continue
            args[i:i + 2] = [f"{args[i]}={args[i + 1]}"]
    return args


def parse_command_line(argv) -> tuple:
    """(command, options) of ``argv``, an exact form read by the option
    table, any other by argparse's parse_args, with its help and errors."""
    if (args := _read_exact(argv)) is not None:
        return argv[0], args
    if argv[:1] == ["verify"]:
        argv = ["verify", *_glue_perturb_drift(argv[1:])]
    args = build_parser().parse_args(argv)
    return args.command, args


def _unique_keys(pairs: list) -> dict:
    """The JSON object of ``pairs``; a key given twice in it is refused."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"duplicate config key {key!r}")
        data[key] = value
    return data


def _load_config_data(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            raw = b""
            while chunk := os.read(fd, 1 << 16):
                if len(raw := raw + chunk) > MAX_CONFIG_BYTES:
                    raise OSError(f"more than {MAX_CONFIG_BYTES} bytes")
        finally:
            os.close(fd)
    except IsADirectoryError as exc:  # from read: name the path as open does
        raise ConfigError(f"cannot read config: {exc}: {path!r}") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        data = json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except ConfigError:  # a duplicate key
        raise
    # not JSON, not UTF-8, an over-long number, or nested past the limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def main(argv=None) -> int:
    command, args = parse_command_line(sys.argv[1:] if argv is None else argv)
    try:
        data = _load_config_data(args.config)
        data.update((k, getattr(args, k)) for k in ("preset", "out")
                    if getattr(args, k) is not None)
        cfg = build_config(data)
        # NumPy warns of no overflow: the checks on each result (finite
        # branch polynomial, residual bounds, strict JSON) report it instead
        with np.errstate(all="ignore"):
            if args.dump_config:
                code, text = EXIT_OK, dump_config(cfg) + "\n"
            elif command == "steady":
                code, text = cmd_steady(cfg)
            elif command == "sweep":
                code, text = cmd_sweep(cfg)
            else:
                code, text = cmd_verify(cfg, seed=args.seed,
                                        perturb_drift=args.perturb_drift)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # ArithmeticError: a result beyond the float range
    except (InternalConsistencyError, ArithmeticError) as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    # only a command that ran to the end opens its output; the canonical
    # config goes to stdout
    try:
        if cfg.out is not None and not args.dump_config:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        elif sys.stdout is None:  # started with file descriptor 1 closed
            raise OSError("stdout is closed")
        else:
            sys.stdout.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
