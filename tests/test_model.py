import math
from types import SimpleNamespace

import pytest

from becck import (DomainError, SystemParams, bogoliubov_frequency,
                   derive_params, omega_pm, paper_base_params,
                   thermal_occupation, validity_flags)
from becck.model import HBAR, KB


def test_derived_coefficients_reference_values():
    d = derive_params(paper_base_params())
    assert d.U0 == pytest.approx(1.04649e4, rel=1e-5)
    assert d.zeta == pytest.approx(1.17002e6, rel=1e-5)
    assert d.g == pytest.approx(d.U0 / 2.0)
    assert d.Omega_c == pytest.approx(5.0 * d.omega_R)


def test_coupling_ratio_exact():
    d = derive_params(paper_base_params())
    assert d.g / d.zeta == pytest.approx(2.0 / math.sqrt(2e5), rel=1e-14)


def test_ck_switch_zeroes_g_only():
    on = derive_params(paper_base_params(ck_enabled=True))
    off = derive_params(paper_base_params(ck_enabled=False))
    assert off.g == 0.0
    assert on.g > 0.0
    assert on.zeta == off.zeta
    assert on.U0 == off.U0


def test_negative_detuning_flips_u0_sign():
    d = derive_params(paper_base_params(delta_a=-7.5e11))
    assert d.U0 < 0.0
    assert d.zeta < 0.0


@pytest.mark.parametrize("field,value", [
    ("delta_a", 0.0),
    ("kappa", 0.0),
    ("kappa", -1.0),
    ("omega_R", 0.0),
    ("N", 0),
    ("eta", -1.0),
    ("T", -1e-9),
    ("omega_sw", -1.0),
    ("gamma", -1.0),
])
def test_precondition_violations_name_the_field(field, value):
    with pytest.raises(DomainError, match=field):
        SystemParams(**{field: value})


def test_omega_pm_split_and_photon_shift():
    d = derive_params(paper_base_params())
    om0, op0 = omega_pm(d, 0.0)
    assert op0 - om0 == pytest.approx(d.omega_sw)
    assert 0.5 * (op0 + om0) == pytest.approx(d.Omega_c)
    om1, op1 = omega_pm(d, 1.5)
    assert om1 - om0 == pytest.approx(1.5 * d.g)
    assert op1 - op0 == pytest.approx(1.5 * d.g)


def test_bogoliubov_frequency_undriven_value():
    # Omega_c = 5 omega_R and omega_sw = omega_R give
    # omega_c = omega_R * sqrt(24.75)
    d = derive_params(paper_base_params())
    expected = d.omega_R * math.sqrt(24.75)
    assert bogoliubov_frequency(d, 0.0) == pytest.approx(expected, rel=1e-12)
    assert bogoliubov_frequency(d, 0.0) == pytest.approx(117906.0113, rel=1e-9)


def test_bogoliubov_frequency_ck_off_is_photon_independent():
    d = derive_params(paper_base_params(ck_enabled=False))
    assert bogoliubov_frequency(d, 0.0) == bogoliubov_frequency(d, 7.3)


def test_thermal_occupation_limits():
    omega = 117906.0113
    assert thermal_occupation(omega, 0.0) == 0.0
    # classical limit kT >> hbar*omega approaches kT/(hbar*omega) - 1/2
    T_hot = 1e-3
    x = KB * T_hot / (HBAR * omega)
    assert thermal_occupation(omega, T_hot) == pytest.approx(x - 0.5, rel=1e-4)
    # exact Bose-Einstein value at the working temperature
    T = 1e-7
    expected = 1.0 / math.expm1(HBAR * omega / (KB * T))
    assert thermal_occupation(omega, T) == pytest.approx(expected, rel=1e-12)
    assert thermal_occupation(omega, T) == pytest.approx(1.226945e-4, rel=1e-6)


def test_thermal_occupation_cold_limits_underflow_to_zero():
    omega = 1.2e5
    # hbar*omega/(kB*T) = 917 at 1 nK: exp of it overflows, 1/exp underflows
    assert thermal_occupation(omega, 1e-9) == 0.0
    # kB*T itself underflows
    assert thermal_occupation(omega, 1e-320) == 0.0


def test_thermal_occupation_monotone_in_temperature():
    omega = 1e5
    vals = [thermal_occupation(omega, t) for t in (1e-8, 1e-7, 1e-6, 1e-5)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_validity_flags():
    d = derive_params(paper_base_params())
    threshold = 10.0 * d.omega_R / d.U0
    # (lattice_depth_ok, bogoliubov_ok)
    assert validity_flags(d, 0.9 * threshold, None) == (True, None)
    assert validity_flags(d, 1.1 * threshold, 0.02 * d.N) == (False, False)
    lattice_ok, bogoliubov_ok = validity_flags(d, 0.0, 0.005 * d.N)
    assert bogoliubov_ok is True
    assert lattice_ok is True


def test_derive_params_refuses_a_zero_delta_a_of_a_stand_in():
    # SystemParams refuses delta_a = 0 itself; a sweep's stand-in is no
    # SystemParams, so derive_params checks again
    stand_in = SimpleNamespace(**{**vars(SystemParams()), "delta_a": 0.0})
    with pytest.raises(DomainError, match="^delta_a must be nonzero$"):
        derive_params(stand_in)


@pytest.mark.parametrize("omega,T,message", [
    (0.0, 1e-7, "omega must be positive"),
    (-1e5, 1e-7, "omega must be positive"),
    (1e5, -1e-9, "T must be >= 0"),
])
def test_thermal_occupation_refuses_its_domain(omega, T, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        thermal_occupation(omega, T)
