import json
import math
import os
import subprocess
import sys

import pytest

import becck
from becck import paper_base_params
from becck.cli import (CSV_HEADER, ConfigError, build_config, dump_config,
                       main, parse_quantity, row_to_csv, sweep_spec_from_config)

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


def test_build_config_domain_violation_names_key():
    with pytest.raises(ConfigError, match="delta_a"):
        build_config({"delta_a": 0})


def test_dump_config_round_trip():
    cfg = build_config({"eta": "2*kappa", "delta_c": "5*kappa",
                        "sweep_var": "delta_c", "sweep_min": "-1*kappa",
                        "sweep_max": "1*kappa", "sweep_count": 11,
                        "branch_policy": "lowest", "workers": 2})
    again = build_config(json.loads(dump_config(cfg)))
    assert again == cfg
    assert dump_config(again) == dump_config(cfg)


def test_sweep_spec_needs_preset_or_range():
    with pytest.raises(ConfigError, match="sweep_var"):
        sweep_spec_from_config(build_config({}))
    spec = sweep_spec_from_config(build_config({"preset": "fig2a"}))
    assert spec.preset == "fig2a"
    assert spec.count == 501
    narrowed = sweep_spec_from_config(
        build_config({"preset": "fig2a", "sweep_count": 5}))
    assert narrowed.count == 5


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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_steady_nonfinite_result_is_internal_error(tmp_path, capsys):
    # n*Delta^2 overflows at this drive; strict JSON refuses the NaN residual
    cfg = _write(tmp_path, {"eta": "1e150*kappa", "delta_c": "1*kappa"})
    assert main(["steady", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert "NaN" not in captured.out
    assert captured.err.startswith("internal consistency error: ")


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


def test_dump_config_flag_round_trips(tmp_path, capsys):
    cfg = _write(tmp_path, {"eta": "2*kappa", "preset": "fig4"})
    assert main(["steady", "--config", cfg, "--dump-config"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    path2 = _write(tmp_path, dumped, name="round.json")
    assert main(["steady", "--config", path2, "--dump-config"]) == 0
    assert json.loads(capsys.readouterr().out) == dumped


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


def test_exit_codes_are_disjoint():
    from becck import cli
    assert (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_INTERNAL, cli.EXIT_IO,
            cli.EXIT_VERIFY) == (0, 2, 3, 4, 5)


def test_malformed_workers_env_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BECCK_WORKERS", "several")
    cfg = _write(tmp_path, {"preset": "fig2a", "sweep_count": 2})
    assert main(["sweep", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_workers_flag_matches_serial_output(tmp_path):
    cfg = _write(tmp_path, {
        "eta": "2*kappa", "sweep_var": "delta_c", "sweep_min": "3.8*kappa",
        "sweep_max": "4.4*kappa", "sweep_count": 4,
    })
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    assert main(["sweep", "--config", cfg, "--workers", "1",
                 "--out", str(one)]) == 0
    assert main(["sweep", "--config", cfg, "--workers", "2",
                 "--out", str(two)]) == 0
    assert one.read_text() == two.read_text()
