import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import becck
from becck import SweepSpec, paper_base_params, run_sweep
from becck.cli import (CSV_HEADER, ConfigError, build_config, build_parser,
                       dump_config, main, parse_command_line, parse_quantity,
                       row_to_csv, row_to_json, sweep_spec_from_config)
from becck.sweep import preset_config

KAPPA = paper_base_params().kappa
OMEGA_R = paper_base_params().omega_R


def _write(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------- parsing

def test_parse_quantity_forms():
    assert parse_quantity(12500.0) == 12500.0
    assert parse_quantity(3) == 3.0
    assert parse_quantity("5*kappa", kappa=2.0) == 10.0
    assert parse_quantity("-1.5*kappa", kappa=2.0) == -3.0
    assert parse_quantity("35*omegaR", omega_R=3.0) == 105.0
    assert parse_quantity("2pi*1.3MHz") == pytest.approx(
        2.0 * math.pi * 1.3e6, rel=1e-15)
    assert parse_quantity("2pi*250kHz") == pytest.approx(
        2.0 * math.pi * 2.5e5, rel=1e-15)
    assert parse_quantity("2pi*1Hz") == pytest.approx(2.0 * math.pi)
    assert parse_quantity("2pi*0.75GHz") == pytest.approx(
        2.0 * math.pi * 7.5e8, rel=1e-15)


@pytest.mark.parametrize("bad", [
    "3*eta", "kappa", "2pi*5", "2pi*5mHz", "10 rad", "", True, None, [1.0],
])
def test_parse_quantity_rejections(bad):
    with pytest.raises(ConfigError):
        parse_quantity(bad, kappa=1.0, omega_R=1.0, key="x")


def test_parse_quantity_suffix_needs_reference():
    with pytest.raises(ConfigError, match="kappa"):
        parse_quantity("2*kappa", key="kappa")


def test_build_config_defaults_match_experiment():
    cfg = build_config({})
    assert cfg.params == paper_base_params(eta=0.0)
    assert cfg.format == "csv"
    assert cfg.workers is None


def test_build_config_relative_units_resolve_against_overrides():
    cfg = build_config({"kappa": "2pi*2.6MHz", "eta": "2*kappa",
                        "omega_sw": "10*omegaR"})
    assert cfg.params.kappa == pytest.approx(2.0 * math.pi * 2.6e6)
    assert cfg.params.eta == pytest.approx(2.0 * cfg.params.kappa)
    assert cfg.params.omega_sw == pytest.approx(10.0 * OMEGA_R)


def test_build_config_rejects_unknown_and_bad_types():
    with pytest.raises(ConfigError, match="n_photons"):
        build_config({"n_photons": 3})
    with pytest.raises(ConfigError, match="N"):
        build_config({"N": 2.5})
    with pytest.raises(ConfigError, match="ck_enabled"):
        build_config({"ck_enabled": "yes"})
    with pytest.raises(ConfigError, match="sweep_count"):
        build_config({"sweep_count": "many"})
    with pytest.raises(ConfigError, match="format"):
        build_config({"format": "xml"})
    with pytest.raises(ConfigError, match="T"):
        build_config({"T": "cold"})
    with pytest.raises(ConfigError, match="^workers must be >= 1$"):
        build_config({"workers": 0})


def test_build_config_domain_violation_names_key():
    with pytest.raises(ConfigError, match="delta_a"):
        build_config({"delta_a": 0})


def test_dump_config_round_trip(tmp_path, capsys):
    cfg = build_config({"eta": "2*kappa", "delta_c": "5*kappa",
                        "sweep_var": "delta_c", "sweep_min": "-1*kappa",
                        "sweep_max": "1*kappa", "sweep_count": 11,
                        "branch_policy": "lowest", "workers": 2})
    again = build_config(json.loads(dump_config(cfg)))
    assert again == cfg
    assert dump_config(again) == dump_config(cfg)
    # the dump of a preset holds its resolved sweep, the defaults included
    assert main(["sweep", "--preset", "fig2a", "--dump-config"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert (dumped["sweep_count"], dumped["ck_mode"]) == (501, "paired")
    assert _sweep_csv(tmp_path, capsys, dumped) == _sweep_csv(
        tmp_path, capsys, {"preset": "fig2a"})


RANGE = {"sweep_var": "delta_c", "sweep_min": "0*kappa",
         "sweep_max": "1*kappa"}


@pytest.mark.parametrize("data,message", [
    ({"preset": "fig2a", "ck_mode": "bogus"}, "unknown ck_mode 'bogus'"),
    (dict(RANGE, ck_mode=""), "unknown ck_mode ''"),
    ({"preset": "fig2b", "branch_policy": "x"}, "unknown branch_policy 'x'"),
    (dict(RANGE, sweep_var="kappa"), "unknown sweep variable 'kappa'"),
    ({"preset": "fig2b", "sweep_var": "bogus"},
     "unknown sweep variable 'bogus'"),
    ({"preset": "fig2a", "sweep_count": 1},
     "grid count must be between 2 and 100000"),
    (dict(RANGE, sweep_count=100001),
     "grid count must be between 2 and 100000"),
    (dict(RANGE, sweep_min="1*kappa"), "grid start must be below stop"),
    ({"preset": "fig5", "sweep_min": "2*kappa", "sweep_max": "1*kappa"},
     "grid start must be below stop"),
    ({"ck_mode": "off"},
     "sweep needs explicit sweep_var, sweep_min, sweep_max or a preset"),
    # a grid point outside a parameter's domain
    ({"sweep_var": "eta", "sweep_min": "-1*kappa", "sweep_max": "1*kappa",
      "sweep_count": 3}, "eta must be >= 0"),
    ({"preset": "fig8", "sweep_min": "-1*omegaR"}, "omega_sw must be >= 0"),
    ({"preset": "fig2b", "sweep_min": -1e308, "sweep_max": 1e308,
      "sweep_count": 3}, "delta_c must be finite"),
], ids=["ck_mode-bogus", "ck_mode-empty", "branch_policy-x", "sweep_var-kappa",
        "preset-sweep_var-bogus", "count-1", "count-100001", "min-equals-max",
        "min-above-max", "no-range", "eta-below-0", "omega_sw-below-0",
        "nonfinite-grid"])
def test_every_command_refuses_a_bad_sweep_alike(tmp_path, capsys, data,
                                                 message):
    path = _write(tmp_path, data)
    for argv in (["steady"], ["sweep"], ["verify"], ["sweep", "--dump-config"]):
        assert main([*argv, "--config", path]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")


def test_sweep_spec_needs_preset_or_range():
    with pytest.raises(ConfigError, match="sweep_var"):
        sweep_spec_from_config(build_config({}))
    spec = sweep_spec_from_config(build_config({"preset": "fig2a"}))
    assert spec.count == 501
    narrowed = sweep_spec_from_config(
        build_config({"preset": "fig2a", "sweep_count": 5}))
    assert narrowed.count == 5


# a preset lies beneath the config's own keys
FIG2B_SLICE = {"preset": "fig2b", "sweep_min": "4*kappa",
               "sweep_max": "5*kappa", "sweep_count": 3,
               "eta": "0.5*kappa", "T": 0}


def _sweep_csv(tmp_path, capsys, data) -> str:
    assert main(["sweep", "--config", _write(tmp_path, data)]) == 0
    return capsys.readouterr().out


def test_config_keys_override_the_preset_and_its_dump_runs_the_same(
        tmp_path, capsys):
    csv = _sweep_csv(tmp_path, capsys, FIG2B_SLICE)
    explicit = {k: v for k, v in FIG2B_SLICE.items() if k != "preset"}
    explicit.update(sweep_var="delta_c", branch_policy="all",
                    omega_sw="1*omegaR")
    assert csv == _sweep_csv(tmp_path, capsys, explicit)
    assert main(["sweep", "--config", _write(tmp_path, FIG2B_SLICE),
                 "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    assert json.loads(dumped)["eta"] == 0.5 * KAPPA
    assert csv == _sweep_csv(tmp_path, capsys, json.loads(dumped))


def test_config_sweep_var_overrides_the_preset():
    spec = sweep_spec_from_config(build_config(
        {"preset": "fig5", "sweep_var": "delta_c", "sweep_min": "1*kappa",
         "sweep_max": "2*kappa", "sweep_count": 2}))
    assert (spec.var, spec.start, spec.stop) == ("delta_c", KAPPA, 2 * KAPPA)
    assert spec.base.eta == KAPPA  # fig5's other keys stay


@pytest.mark.parametrize("preset,extra,missing", [
    ("fig8", {}, "sweep_min, sweep_max"),
    ("fig5", {"sweep_min": "0*kappa"}, "sweep_max"),
    ("fig2b", {"sweep_max": "1*kappa"}, "sweep_min"),
])
def test_sweep_var_other_than_the_presets_needs_its_own_range(
        tmp_path, capsys, preset, extra, missing):
    data = {"preset": preset, "sweep_var": "eta" if preset == "fig2b" else
            "delta_c", "sweep_count": 2, **extra}
    assert main(["sweep", "--config", _write(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: sweep needs explicit {missing} for a "
                   f"sweep_var other than preset {preset}'s\n")
    # the preset's own variable keeps the preset's range
    same = dict(data, sweep_var=preset_config(preset)["sweep_var"])
    assert main(["sweep", "--config", _write(tmp_path, same)]) == 0


def test_presets_scale_with_the_config_kappa_and_omega_R():
    kappa, omega_R = 2.0 * math.pi * 2.6e6, 3.0e4
    spec = sweep_spec_from_config(build_config(
        {"preset": "fig2b", "kappa": "2pi*2.6MHz"}))
    assert (spec.start, spec.stop) == (-10 * kappa, 15 * kappa)
    assert spec.base.eta == 2 * kappa
    spec = sweep_spec_from_config(build_config(
        {"preset": "fig8", "kappa": "2pi*2.6MHz", "omega_R": omega_R}))
    assert (spec.start, spec.stop) == (0.0, 40 * omega_R)
    assert (spec.base.delta_c, spec.base.eta) == (-15 * kappa, 5 * kappa)


def test_preset_range_and_run_share_the_config_kappa():
    kappa = 2.0 * math.pi * 2.6e6
    spec = sweep_spec_from_config(build_config(
        {"preset": "fig2b", "kappa": "2pi*2.6MHz", "sweep_min": "4*kappa",
         "sweep_max": "5*kappa", "sweep_count": 3}))
    assert spec.base.kappa == kappa
    assert (spec.start, spec.stop) == (4 * kappa, 5 * kappa)


def test_steady_preset_runs_at_the_preset_parameters(capsys):
    assert main(["steady", "--preset", "fig2b"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["params"]["eta"] == 2 * KAPPA


def test_bad_preset_is_reported_before_a_bad_parameter():
    with pytest.raises(ConfigError, match="preset"):
        build_config({"preset": "nope", "kappa": "fast"})


# ------------------------------------------------------------ subcommands

def test_steady_undriven_uncoupled_point(tmp_path, capsys):
    cfg = _write(tmp_path, {"eta": 0, "omega_sw": 0, "T": 0})
    assert main(["steady", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["warnings"] == []
    (branch,) = report["branches"]
    assert branch["n_photon"] == 0.0
    assert branch["stability"]["stable"] is True
    obs = branch["observables"]
    assert 0.0 <= obs["e_n"] <= 1e-12
    assert abs(obs["s_q"]) <= 1e-12
    assert abs(obs["n_incoherent"]) <= 1e-12


def test_steady_fig8_point_squeezes_strongly(tmp_path, capsys):
    cfg = _write(tmp_path, {"delta_c": "-15*kappa", "eta": "5*kappa",
                            "omega_sw": "35*omegaR"})
    assert main(["steady", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    (branch,) = report["branches"]
    assert branch["observables"]["s_q"] < -0.3


def test_steady_config_error_names_key(tmp_path, capsys):
    cfg = _write(tmp_path, {"delta_a": 0})
    assert main(["steady", "--config", cfg]) == 2
    assert "delta_a" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    {"eta": math.nan}, {"eta": math.inf}, {"delta_c": math.inf},
    {"eta": "1e400*kappa"},
], ids=["eta-nan", "eta-inf", "delta_c-inf", "eta-overflow"])
def test_steady_rejects_nonfinite_values(tmp_path, data):
    # json.dumps writes the non-standard NaN/Infinity tokens json.load accepts
    cfg = _write(tmp_path, data)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(becck.__file__)))
    proc = subprocess.run([sys.executable, "-m", "becck", "steady",
                           "--config", cfg], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: ")
    assert proc.stdout == ""


def test_steady_nonfinite_result_is_internal_error(tmp_path, capsys):
    # n*Delta^2 overflows at this drive; strict JSON refuses the NaN residual
    cfg = _write(tmp_path, {"eta": "1e150*kappa", "delta_c": "1*kappa"})
    assert main(["steady", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert "NaN" not in captured.out
    assert captured.err.startswith("internal consistency error: ")
    # (eta/kappa)^2 itself overflows here: one line, no traceback
    cfg = _write(tmp_path, {"eta": "1e160*kappa"}, name="huge.json")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(becck.__file__)))
    proc = subprocess.run([sys.executable, "-m", "becck", "steady",
                           "--config", cfg], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 3
    assert proc.stderr.startswith("internal consistency error: ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    # overflow in the root search prints no NumPy warning: 1e140 kappa
    # succeeds with an empty stderr, 1e150 kappa leaves the one error line
    for eta, code, lines in (("1e140*kappa", 0, 0), ("1e150*kappa", 3, 1)):
        proc = _becck(tmp_path, "steady", {"eta": eta, "delta_c": "1*kappa"})
        assert (proc.returncode, proc.stderr.count("\n")) == (code, lines)


def _becck(tmp_path, command, data):
    """``python -m becck <command>`` on the config ``data``."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(becck.__file__)))
    return subprocess.run([sys.executable, "-m", "becck", command, "--config",
                           _write(tmp_path, data, name="run.json")],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("command,data", [
    ("sweep", {"preset": "nope"}),
    ("steady", {"preset": "nope"}),
    ("sweep", {"sweep_var": "eta", "sweep_min": "-1*kappa",
               "sweep_max": "1*kappa", "sweep_count": 3}),
    ("sweep", {"sweep_var": "omega_sw", "sweep_min": "-1*omegaR",
               "sweep_max": "1*omegaR", "sweep_count": 3}),
    ("sweep", {"sweep_var": "delta_c", "sweep_min": -1e308,
               "sweep_max": 1e308, "sweep_count": 3}),
    ("steady", {"eta": 10 ** 400}),
    ("steady", {"N": 10 ** 400}),
    ("steady", {"T": 10 ** 400}),
    ("steady", {"workers": 0}),
], ids=["sweep-preset", "steady-preset", "eta-below-0", "omega_sw-below-0",
        "nonfinite-grid", "eta-huge-int", "N-huge-int", "T-huge-int",
        "steady-workers-0"])
def test_run_time_config_errors_exit_2(tmp_path, command, data):
    proc = _becck(tmp_path, command, data)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("raw", [
    b'{"eta": "\xff"}', b'{"N": ' + b"9" * 5000 + b"}",
    b'\xef\xbb\xbf{"eta": "1*kappa"}', '{"eta": "1*kappa"}'.encode("utf-16"),
], ids=["not-utf8", "over-long-integer", "utf8-bom", "utf16"])
def test_undecodable_config_is_config_error(tmp_path, capsys, raw):
    path = tmp_path / "raw.json"
    path.write_bytes(raw)
    assert main(["steady", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("make,line", [
    (lambda path: path.mkdir(),
     "cannot read config: [Errno 21] Is a directory: {path!r}"),
    (lambda path: None,
     "cannot read config: [Errno 2] No such file or directory: {path!r}"),
    (lambda path: path.write_bytes(b'{"eta": "\xff"}'),
     "config is not valid JSON: 'utf-8' codec can't decode byte 0xff in "
     "position 9: invalid start byte"),
    (lambda path: path.write_bytes(b'\xef\xbb\xbf{}'),
     "config is not valid JSON: Unexpected UTF-8 BOM (decode using "
     "utf-8-sig): line 1 column 1 (char 0)"),
    (lambda path: path.write_bytes(b'{"eta": }'),
     "config is not valid JSON: Expecting value: line 1 column 9 (char 8)"),
    (lambda path: path.write_bytes(b'[{"eta": 1}]'),
     "config must be a JSON object"),
    (lambda path: path.write_bytes(b"[" * 100000 + b"]" * 100000),
     "config is not valid JSON: maximum recursion depth exceeded while "
     "decoding a JSON array from a unicode string"),
    (lambda path: path.write_bytes(b'{"a": ' * 100000 + b"}" * 100000),
     "config is not valid JSON: maximum recursion depth exceeded while "
     "decoding a JSON object from a unicode string"),
    # valid JSON one byte over the 1 MiB cap
    (lambda path: path.write_bytes(b" " * ((1 << 20) - 1) + b"{}"),
     "cannot read config: more than 1048576 bytes"),
], ids=["directory", "missing", "not-utf8", "utf8-bom", "invalid-json",
        "json-array", "nested-arrays", "nested-objects", "over-the-cap"])
def test_config_read_refusals_keep_their_lines(tmp_path, capsys, make, line):
    path = tmp_path / "config.json"
    make(path)
    assert main(["steady", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "config error: "
                          + line.format(path=str(path)) + "\n")


def test_a_config_path_with_a_nul_cannot_be_read(capsys):
    # os.open raises ValueError here, which is no verdict on the JSON
    assert main(["steady", "--config", "a\x00b"]) == 2
    assert capsys.readouterr() == (
        "", "config error: cannot read config: embedded null byte\n")


def test_a_config_up_to_the_size_cap_is_read(tmp_path, monkeypatch):
    # a small config takes two reads (its bytes, then the end of the file),
    # and one of exactly the 1 MiB cap is still read whole
    reads = []
    read = os.read
    monkeypatch.setattr(os, "read",
                        lambda fd, n: reads.append(n) or read(fd, n))
    cfg = _write(tmp_path, {"eta": "2*kappa"})
    assert main(["steady", "--config", cfg, "--dump-config"]) == 0
    assert len(reads) == 2
    (tmp_path / "cap.json").write_bytes(b" " * ((1 << 20) - 2) + b"{}")
    assert main(["steady", "--config", str(tmp_path / "cap.json"),
                 "--dump-config"]) == 0


def test_crlf_config_parses_as_its_lf_twin(tmp_path, capsys):
    text = json.dumps({"eta": "2*kappa", "delta_c": "5*kappa",
                       "preset": "fig4", "ck_enabled": False}, indent=2)
    dumped = []
    for name, newline in (("lf.json", "\n"), ("crlf.json", "\r\n")):
        path = tmp_path / name
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        assert main(["steady", "--config", str(path), "--dump-config"]) == 0
        dumped.append(capsys.readouterr().out)
    assert b"\r\n" in (tmp_path / "crlf.json").read_bytes()
    assert dumped[0] == dumped[1]
    assert json.loads(dumped[0])["preset"] == "fig4"


@pytest.mark.parametrize("preset", [None, "fig2a"])
@pytest.mark.parametrize("key,value", [
    ("sweep_count", 0), ("ck_mode", ""), ("branch_policy", "")])
def test_empty_sweep_values_are_config_errors(tmp_path, capsys, preset, key,
                                              value):
    data = ({"preset": preset} if preset else
            {"sweep_var": "delta_c", "sweep_min": "0*kappa",
             "sweep_max": "1*kappa"})
    data[key] = value
    assert main(["sweep", "--config", _write(tmp_path, data)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("command,data", [
    ("steady", {"T": 1e300}),
    ("sweep", {"eta": "1*kappa", "sweep_var": "omega_sw",
               "sweep_min": "1e140*kappa", "sweep_max": "1e160*kappa",
               "sweep_count": 4}),
    ("steady", {"delta_c": "1e150*kappa", "eta": "1e150*kappa",
                "g0": "2pi*700Hz"}),
    ("steady", {"delta_a": 1e-300, "N": 10 ** 300, "omega_sw": 1e-300}),
    ("steady", {"kappa": 1e-300, "g0": 1e-194}),
], ids=["lyapunov-overflow", "companion-overflow", "no-sign-change",
        "nonfinite-drift", "kappa-squared-underflow"])
def test_float_range_failures_are_one_line_internal_errors(tmp_path, command,
                                                           data):
    proc = _becck(tmp_path, command, data)
    assert proc.returncode == 3
    assert proc.stderr.startswith("internal consistency error: ")
    assert proc.stderr.count("\n") == 1


def test_vacuum_branch_division_by_zero_names_eta(tmp_path):
    # eta^2 underflows (the vacuum branch) and so does den(0) =
    # Omega_minus*Omega_plus + gamma^2
    proc = _becck(tmp_path, "steady", {"omega_R": 1e-300, "omega_sw": 0,
                                       "gamma": 0, "eta": "1e-200*kappa"})
    assert proc.returncode == 3
    assert proc.stderr.startswith("internal consistency error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert "eta = 8.168141e-194 rad/s" in proc.stderr
    assert proc.stdout == ""


# sqrt(Omega_plus*Omega_minus) overflows: omega_b = inf in every row
OVERFLOWING_OMEGA_B = {"omega_sw": "1e150*kappa", "gamma": 2.2e-16,
                       "T": 1e-12, "ck_enabled": False, "sweep_var": "delta_c",
                       "sweep_min": 1e-300, "sweep_max": 9.3e8,
                       "sweep_count": 4}


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_sweep_with_a_nonfinite_cell_writes_nothing(tmp_path, fmt):
    proc = _becck(tmp_path, "sweep", dict(OVERFLOWING_OMEGA_B, format=fmt))
    assert proc.returncode == 3
    assert proc.stderr.startswith("internal consistency error: ")
    assert "omega_b" in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("count", [10 ** 400, becck.sweep.MAX_GRID_COUNT + 1],
                         ids=["10**400", "bound+1"])
def test_sweep_count_above_the_bound_is_config_error(tmp_path, capsys, count):
    cfg = _write(tmp_path, {"preset": "fig2a", "sweep_count": count})
    assert main(["sweep", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_sweep_csv_schema_and_nulls(tmp_path):
    cfg = _write(tmp_path, {
        "eta": "2*kappa", "sweep_var": "delta_c",
        "sweep_min": "4.9*kappa", "sweep_max": "5.1*kappa",
        "sweep_count": 2, "branch_policy": "all",
    })
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines[0].split(",")) == 19
    assert len(lines) == 1 + 2 * 3 * 2  # 2 grid points, 3 branches, 2 ck
    header = lines[0].split(",")
    middle = [ln for ln in lines[1:]
              if ln.split(",")[header.index("branch")] == "1"]
    assert middle
    for ln in lines[1:]:
        cells = ln.split(",")
        assert len(cells) == 19
        assert cells[header.index("ck")] in ("on", "off")
        assert cells[header.index("stable")] in ("true", "false")
        float(cells[header.index("n_photon")])  # 17-digit floats parse back
    for ln in middle:
        cells = ln.split(",")
        for col in ("e_n", "s_q", "s_p", "n_incoh", "bogoliubov_ok"):
            assert cells[header.index(col)] == ""


def _json_from_csv_cells(row) -> str:
    # reference: parse the CSV cells back into typed JSON values
    obj = {}
    for name, cell in zip(CSV_HEADER.split(","), row_to_csv(row).split(",")):
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
    return json.dumps(obj)


def test_row_to_json_matches_the_csv_cells():
    spec = SweepSpec(var="delta_c", start=4.9 * KAPPA, stop=5.1 * KAPPA,
                     count=2, base=paper_base_params(eta=2 * KAPPA))
    rows = run_sweep(spec)
    assert {r.stable for r in rows} == {True, False}
    assert any(r.E_N is None for r in rows)
    for row in rows:
        assert row_to_json(row) == _json_from_csv_cells(row)


def test_sweep_preset_flag_and_count_override(tmp_path):
    out = tmp_path / "p.csv"
    cfg = _write(tmp_path, {"sweep_count": 3})
    assert main(["sweep", "--config", cfg, "--preset", "fig2a",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 2  # paired single-branch region rows


def test_sweep_json_lines_format(tmp_path, capsys):
    cfg = _write(tmp_path, {
        "eta": "1*kappa", "sweep_var": "delta_c", "sweep_min": "-1*kappa",
        "sweep_max": "0*kappa", "sweep_count": 2, "ck_mode": "on",
        "branch_policy": "lowest", "format": "json-lines",
    })
    assert main(["sweep", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for ln in lines:
        obj = json.loads(ln)
        assert list(obj) == CSV_HEADER.split(",")
        assert obj["ck"] == "on"
        assert isinstance(obj["stable"], bool)
        assert isinstance(obj["branch"], int)


def test_sweep_rejects_single_point_grid(tmp_path, capsys):
    cfg = _write(tmp_path, {"preset": "fig2a", "sweep_count": 1})
    assert main(["sweep", "--config", cfg]) == 2
    assert "count" in capsys.readouterr().err


def test_sweep_output_io_failure(tmp_path):
    cfg = _write(tmp_path, {"preset": "fig2a", "sweep_count": 2})
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["sweep", "--config", cfg, "--out", str(missing)]) == 4


@pytest.mark.parametrize("via", ["flag", "config"])
def test_an_empty_out_path_is_an_output_error(tmp_path, capsys, via):
    # an empty path names no file; the report does not go to stdout instead
    argv = ["steady", "--out", ""] if via == "flag" else [
        "steady", "--config", _write(tmp_path, {"out": ""})]
    assert main(argv) == 4
    assert capsys.readouterr() == (
        "", "output error: [Errno 2] No such file or directory: ''\n")
    # the canonical config still goes to stdout
    assert main(argv + ["--dump-config"]) == 0
    assert json.loads(capsys.readouterr().out)["out"] == ""


@pytest.mark.parametrize("command,data,code", [
    ("sweep", OVERFLOWING_OMEGA_B, 3),
    ("sweep", {"sweep_var": "eta", "sweep_min": "-1*kappa",
               "sweep_max": "1*kappa", "sweep_count": 3}, 2),
    ("steady", {"eta": "1e160*kappa"}, 3),
], ids=["sweep-omega_b-overflow", "sweep-eta-below-0", "steady-overflow"])
def test_failed_command_leaves_out_as_it_was(tmp_path, command, data, code):
    out = tmp_path / "results.csv"
    out.write_bytes(b"sweep_var,value\n1,2\n")
    proc = _becck(tmp_path, command, dict(data, out=str(out)))
    assert proc.returncode == code
    assert out.read_bytes() == b"sweep_var,value\n1,2\n"


def test_failed_command_creates_no_out_file(tmp_path):
    out = tmp_path / "new.csv"
    proc = _becck(tmp_path, "sweep", {"preset": "fig2a", "sweep_count": 1,
                                      "out": str(out)})
    assert proc.returncode == 2
    assert not out.exists()


def test_failed_command_reports_its_own_code_before_output(tmp_path):
    # the command fails before its unwritable output path is opened
    cfg = _write(tmp_path, {"eta": "1e160*kappa"})
    missing = tmp_path / "no" / "such" / "dir" / "x.json"
    assert main(["steady", "--config", cfg, "--out", str(missing)]) == 3


def test_dump_config_flag_round_trips(tmp_path, capsys):
    cfg = _write(tmp_path, {"eta": "2*kappa", "preset": "fig4"})
    assert main(["steady", "--config", cfg, "--dump-config"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    path2 = _write(tmp_path, dumped, name="round.json")
    assert main(["steady", "--config", path2, "--dump-config"]) == 0
    assert json.loads(capsys.readouterr().out) == dumped


class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("out", [None, "report.json"])
def test_a_failed_dump_config_write_exits_4(tmp_path, monkeypatch, capsys,
                                            out):
    # the canonical config goes to stdout, --out or not, through the
    # output block of every command
    data = {"preset": "fig2a"} if out is None else {
        "preset": "fig2a", "out": str(tmp_path / out)}
    cfg = _write(tmp_path, data)
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    assert main(["sweep", "--config", cfg, "--dump-config"]) == 4
    assert capsys.readouterr().err == (
        "output error: [Errno 28] No space left on device\n")
    assert not (tmp_path / "report.json").exists()


def test_a_closed_stdout_is_an_output_error():
    # a process started with file descriptor 1 closed has sys.stdout None
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(becck.__file__)))
    proc = subprocess.run([sys.executable, "-m", "becck", "sweep", "--preset",
                           "fig2b"], stderr=subprocess.PIPE, text=True,
                          env=env, timeout=60, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 4
    assert proc.stderr == "output error: stdout is closed\n"


def test_verify_passes_and_is_seed_deterministic(capsys):
    assert main(["verify", "--seed", "99"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--seed", "99"]) == 0
    assert capsys.readouterr().out == first
    assert "verify: PASS" in first
    for suite in ("jacobian", "lyapunov_ode", "routh_hurwitz",
                  "meanfield_substitution", "gaussian_cases"):
        assert f"{suite}: PASS" in first


def test_verify_detects_injected_drift_fault(capsys):
    assert main(["verify", "--perturb-drift", "1e-3"]) == 5
    out = capsys.readouterr().out
    assert "jacobian: FAIL" in out
    assert "delta_c=" in out  # failing case parameters echoed


def test_verify_fails_a_base_without_strictly_stable_branches(tmp_path):
    # with gamma = 0 no draw gives a strictly stable branch: the suites that
    # need such branches give up after a bounded number of draws (the run is
    # a subprocess with a timeout, so a hang fails the test)
    proc = _becck(tmp_path, "verify", {"gamma": 0, "g0": 1})
    assert proc.returncode == 5
    lines = proc.stdout.splitlines()
    assert lines[:2] == [
        "jacobian: FAIL (0 of 100 strictly stable branches found in 10000 "
        "draws)",
        "lyapunov_ode: FAIL (0 of 12 strictly stable branches found in 1200 "
        "draws)"]
    assert sum(" FAIL " in ln for ln in lines) == 2
    assert lines[-1] == "verify: FAIL"
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ["--perturb-drift", "nan"], ["--perturb-drift", "inf"],
    ["--perturb-drift=-inf"], ["--perturb-drift", "-inf"], ["--seed", "-1"],
], ids=["perturb-nan", "perturb-inf", "perturb-minus-inf",
        "perturb-minus-inf-spaced", "seed-minus-1"])
def test_verify_rejects_nonfinite_perturbation_and_negative_seed(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(becck.__file__)))
    proc = subprocess.run([sys.executable, "-m", "becck", "verify", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_only_verify_takes_the_verification_flags():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(becck.__file__)))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "becck", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)

    for argv in (("sweep", "--preset", "fig2b", "--seed", "7"),
                 ("sweep", "--preset", "fig2b", "--perturb-drift", "nan"),
                 ("steady", "--seed", "-5")):
        proc = run(*argv)
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr
        assert proc.stdout == ""
    for eps in ("1e-3", "-1e-3"):  # a value that starts with '-' too
        proc = run("verify", "--seed", "7", "--perturb-drift", eps)
        assert proc.returncode == 5
        assert "jacobian: FAIL" in proc.stdout


def _parse_outcome(parse, argv):
    """(exit code or None, options, stdout, stderr) of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    code, options = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            options = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, options, out.getvalue(), err.getvalue()


def _options(args):
    """The options of a parsed namespace, without its command."""
    return {k: v for k, v in vars(args).items() if k != "command"}


def _full_parse(argv):
    args = build_parser().parse_args(argv)
    return args.command, _options(args)


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["bogus"], ["stead"], ["steady", "--help"],
    ["sweep", "--preset", "fig2b", "--seed", "7"], ["steady", "--seed", "-5"],
    ["steady", "extra"], ["steady", "--config"], ["steady", "--conf", "x"],
    ["--workers", "2", "steady"], ["verify", "--perturb-drift", "--seed", "3"],
    ["sweep", "--preset", "fig9"], ["steady", "--", "x"], ["--", "steady"],
    ["verify", "--seed", "7", "--perturb-drift", "1e-3", "--dump-config"],
    ["sweep", "--workers", "two"], ["verify", "--perturb-drift", "-1"],
    ["verify", "--", "--perturb-drift", "-1e-3"], ["verify", "--p", "-1e-3"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_dispatch_matches_the_full_parser(argv):
    def direct(argv):
        command, args = parse_command_line(argv)
        return command, _options(args)
    assert _parse_outcome(direct, argv) == _parse_outcome(_full_parse, argv)


def _argv_strategy(st):
    """argv of the three commands and a bogus one, each followed by words:
    an option (in full, abbreviated or with ``=value``) with or without a
    value, a value alone, ``--dump-config``, ``-h`` or ``--``; half of them
    take only options in full, each with a value of the kind it takes."""
    full = ["--config", "--preset", "--out", "--seed", "--perturb-drift"]
    flags = st.sampled_from(full + [
        "--conf", "--pe", "--p", "--perturb", "--dump-config", "--dump"])
    values = st.one_of(
        st.sampled_from(["", "x", "-5", "-1e-3", "--", "nan", "-inf", "fig9",
                         " 7", "1_0", *becck.preset_names()]),
        st.integers(-10 ** 20, 10 ** 20).map(str),
        st.floats(allow_nan=True).map(repr), st.text(max_size=4))
    words = st.one_of(
        st.tuples(flags, values).map(list), flags.map(lambda f: [f]),
        st.tuples(flags, values).map(lambda fv: ["=".join(fv)]),
        values.map(lambda v: [v]), st.sampled_from([["-h"], ["--"]]))
    exact = st.one_of(
        st.tuples(st.sampled_from(full[:3]), st.sampled_from(
            ["x", "", "a b", *becck.preset_names()])).map(list),
        st.tuples(st.sampled_from(full[3:]), st.one_of(
            st.integers(0, 99).map(str), st.floats(0.0).map(repr),
            st.sampled_from(["nan", "inf", "x"]))).map(list),
        st.just(["--dump-config"]))
    return st.tuples(
        st.sampled_from(["steady", "sweep", "verify", "bogus"]),
        st.one_of(st.lists(exact, max_size=4), st.lists(words, max_size=4)),
    ).map(lambda cw: [cw[0], *(w for ws in cw[1] for w in ws)])


def test_the_exact_form_reader_agrees_with_argparse():
    hypothesis = pytest.importorskip("hypothesis")
    from becck.cli import _glue_perturb_drift

    def direct(argv):
        command, args = parse_command_line(argv)
        return command, _options(args)

    def outcome(parse, argv):  # options by repr: a NaN equals its repr
        code, options, out, err = _parse_outcome(parse, argv)
        return code, repr(options), out, err

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(_argv_strategy(hypothesis.strategies))
    @hypothesis.example(["steady", "--config"])
    @hypothesis.example(["steady", "--config", "", "--dump-config"])
    @hypothesis.example(["sweep", "--preset", "fig9"])
    @hypothesis.example(["verify", "--seed", "x", "--seed", "7"])
    @hypothesis.example(["verify", "--perturb-drift", "-1e-3"])
    def agrees(argv):
        # argparse's path joins a spaced --perturb-drift value for verify
        full = argv if argv[0] != "verify" else [
            "verify", *_glue_perturb_drift(argv[1:])]
        assert outcome(direct, argv) == outcome(_full_parse, full)

    agrees()


def test_exact_forms_are_read_without_argparse(monkeypatch, tmp_path):
    from becck import cli

    def no_parser():
        raise AssertionError("build_parser called")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    p = _write(tmp_path, {})
    command, args = parse_command_line(["steady", "--config", p])
    assert (command, vars(args)) == ("steady", {
        "config": p, "preset": None, "out": None, "dump_config": False})
    command, args = parse_command_line(
        ["sweep", "--preset", "fig2b", "--config", p])
    assert (command, vars(args)) == ("sweep", {
        "config": p, "preset": "fig2b", "out": None, "dump_config": False})
    command, args = parse_command_line(["verify", "--seed", "7"])
    assert (command, vars(args)) == ("verify", {
        "config": None, "preset": None, "out": None, "dump_config": False,
        "seed": 7, "perturb_drift": 0.0})
    with pytest.raises(AssertionError, match="build_parser called"):
        parse_command_line(["steady", "--conf", p])


def test_spaced_negative_perturbation_reaches_verify():
    for flag in ("--perturb-drift", "--perturb", "--pe"):
        for eps in ("-1e-3", "-inf", "-.5", "-1E+2"):
            command, args = parse_command_line(["verify", flag, eps])
            assert (command, args.perturb_drift) == ("verify", float(eps))


def test_verify_suites_fail_on_a_nan_deviation(monkeypatch):
    from becck import verify
    base = paper_base_params()
    ok, detail, _ = verify.verify_jacobian(np.random.default_rng(1), base,
                                           count=3, perturb=math.nan)
    assert (ok, detail) == (False, "max relative deviation nan")

    # a NaN after the first item, where max() and '>' would drop it
    def nan_after_first(fn, make_nan):
        calls = []

        def wrapped(*args, **kwargs):
            calls.append(None)
            out = fn(*args, **kwargs)
            return make_nan(out) if len(calls) == 2 else out
        return wrapped

    monkeypatch.setattr(verify, "integrate_moment_ode", nan_after_first(
        verify.integrate_moment_ode, lambda W: W * math.nan))
    ok, detail, where = verify.verify_lyapunov_ode(np.random.default_rng(1),
                                                   base, count=3)
    assert (ok, detail) == (False, "max relative deviation nan")
    assert where is not None
    monkeypatch.setattr(verify, "enumerate_branches", nan_after_first(
        verify.enumerate_branches, lambda bs: [
            b._replace(residual=math.nan) for b in bs]))
    ok, detail, _ = verify.verify_meanfield(np.random.default_rng(1), base,
                                            count=4)
    assert (ok, detail) == (False, "max substitution error nan")


def test_verify_names_the_draw_whose_verdicts_disagree(monkeypatch, capsys):
    import becck.dynamics
    verdict = becck.dynamics.routh_hurwitz_quartic
    monkeypatch.setattr("becck.dynamics.routh_hurwitz_quartic",
                        lambda *coefficients: ~verdict(*coefficients))
    assert main(["verify"]) == 5
    lines = capsys.readouterr().out.splitlines()
    (line,) = [ln for ln in lines if ln.startswith("routh_hurwitz: ")]
    assert re.match(r"routh_hurwitz: FAIL \(draw \d+: Routh-Hurwitz verdict "
                    r"(True|False) contradicts eigenvalue verdict", line)
    assert lines[-1] == "verify: FAIL"


def test_verify_checks_the_covariances_the_commands_report(monkeypatch,
                                                          capsys):
    # the moment-ODE suite reads the covariance of the command path, so a
    # fault there fails it
    import becck.sweep
    solve = becck.sweep.lyapunov_batch

    def skewed(*args):
        cov = solve(*args)
        return cov._replace(V=cov.V * (1.0 + 1e-3))
    monkeypatch.setattr(becck.sweep, "lyapunov_batch", skewed)
    assert main(["verify"]) == 5
    lines = capsys.readouterr().out.splitlines()
    assert any(ln.startswith("lyapunov_ode: FAIL") for ln in lines)
    assert lines[-1] == "verify: FAIL"


@pytest.mark.parametrize("command, data", [
    ("steady", {}), ("sweep", {"preset": "fig2a", "sweep_count": 2})])
def test_a_failing_branch_is_named_by_its_full_point(tmp_path, monkeypatch,
                                                     capsys, command, data):
    import becck.dynamics
    verdict = becck.dynamics.routh_hurwitz_quartic
    monkeypatch.setattr("becck.dynamics.routh_hurwitz_quartic",
                        lambda *coefficients: ~verdict(*coefficients))
    assert main([command, "--config", _write(tmp_path, data)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal consistency error: delta_c=")
    assert captured.err.count("\n") == 1
    for part in (" eta=", " omega_sw=", " ck=", " branch 0: Routh-Hurwitz"):
        assert part in captured.err


@pytest.mark.parametrize("command, data, name", [
    ("steady", {"eta": "2*kappa"},
     f"delta_c=0.0 eta={2.0 * KAPPA!r} omega_sw=23700.0 ck=True branch 0"),
    ("sweep", {"preset": "fig2a", "sweep_count": 2},
     f"delta_c={-10.0 * KAPPA!r} eta={1.0 * KAPPA!r} omega_sw=23700.0 "
     "ck=False branch 0")])
def test_a_failing_branch_line_carries_its_whole_name(tmp_path, monkeypatch,
                                                      capsys, command, data,
                                                      name):
    # names are made only for a failing branch: the line is as it was
    import becck.dynamics
    verdict = becck.dynamics.routh_hurwitz_quartic
    monkeypatch.setattr("becck.dynamics.routh_hurwitz_quartic",
                        lambda *coefficients: ~verdict(*coefficients))
    assert main([command, "--config", _write(tmp_path, data)]) == 3
    assert capsys.readouterr().err.startswith(
        f"internal consistency error: {name}: Routh-Hurwitz verdict ")


def test_a_verdict_lost_beyond_the_float_range_says_so(tmp_path, capsys):
    # at eta = 1e150 kappa the scaled quartic's constant term underflows to
    # 0, and the Routh-Hurwitz verdict is lost with it
    assert main(["steady", "--config",
                 _write(tmp_path, {"eta": "1e150*kappa"})]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.fullmatch(
        r"internal consistency error: delta_c=0\.0 eta=\S+ omega_sw=23700\.0 "
        r"ck=True branch 0: Routh-Hurwitz verdict False contradicts "
        r"eigenvalue verdict True \(max_real_part=\S+ rad/s\); the scaled "
        r"characteristic coefficients \(\S+, \S+, \S+, 0\.000e\+00\) leave "
        r"the float range\n", err)


# a red-detuned strong drive: delta_a < 0 makes the cross-Kerr coupling g
# negative, so Omega_minus goes negative on upper branches
RED_DETUNED = {"delta_a": -7.5e11, "eta": "1000*kappa",
               "delta_c": "-30*kappa", "omega_sw": "40*omegaR"}


@pytest.mark.parametrize("command, data", [
    ("steady", RED_DETUNED),
    ("sweep", dict(RED_DETUNED, sweep_var="delta_c", sweep_min="-31*kappa",
                   sweep_max="-29*kappa", sweep_count=3))])
def test_a_non_real_bogoliubov_frequency_names_its_branch(tmp_path, capsys,
                                                          command, data):
    assert main([command, "--config", _write(tmp_path, data)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"internal consistency error: delta_c=\S+ eta=\S+ omega_sw=948000\.0 "
        r"ck=True branch 1: the dressed Bogoliubov frequency is not real and "
        r"positive \(Omega_minus\*Omega_plus = -\S+ rad\^2/s\^2\)\n",
        captured.err)


# a red detuning that drives both Bogoliubov coefficients below zero on the
# upper branches: Omega_minus*Omega_plus is positive again
INVERTED = {"delta_a": -7.5e11, "omega_sw": 0, "eta": "100*kappa",
            "delta_c": "-40*kappa"}


@pytest.mark.parametrize("command, data", [
    ("steady", INVERTED),
    ("sweep", dict(INVERTED, sweep_var="delta_c", sweep_min="-41*kappa",
                   sweep_max="-39*kappa", sweep_count=3))])
def test_an_inverted_bogoliubov_mode_names_its_branch(tmp_path, capsys,
                                                      command, data):
    assert main([command, "--config", _write(tmp_path, data)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"internal consistency error: delta_c=\S+ eta=\S+ omega_sw=0\.0 "
        r"ck=True branch 1: the dressed Bogoliubov mode is inverted "
        r"\(Omega_minus = -\S+, Omega_plus = -\S+ rad/s\)\n", captured.err)


def test_a_sweep_grid_with_a_nan_inside_is_a_config_error(tmp_path, capsys):
    # the grid step overflows, so linspace makes the points nan, inf, 1e308
    # of a finite range
    assert main(["sweep", "--config", _write(tmp_path, {
        "preset": "fig2b", "sweep_min": -1e308, "sweep_max": 1e308,
        "sweep_count": 3})]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "config error: delta_c must be finite\n")


def test_exit_codes_are_disjoint():
    from becck import cli
    assert (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_INTERNAL, cli.EXIT_IO,
            cli.EXIT_VERIFY) == (0, 2, 3, 4, 5)


def test_workers_flag_matches_serial_output(tmp_path):
    # the workers config key is the one way to give a worker count
    outputs = []
    for workers in (1, 2):
        cfg = _write(tmp_path, {
            "eta": "2*kappa", "sweep_var": "delta_c", "sweep_min": "3.8*kappa",
            "sweep_max": "4.4*kappa", "sweep_count": 4, "workers": workers,
        }, name=f"workers{workers}.json")
        out = tmp_path / f"workers{workers}.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]
