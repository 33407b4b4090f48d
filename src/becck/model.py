"""Physical inputs and derived model coefficients.

The system is a laser-driven optical cavity containing an interacting
Bose-Einstein condensate. After restriction to the zero-momentum condensate
plus a single Bogoliubov excitation mode, the effective model is a pair of
coupled bosonic modes: the cavity field (decay kappa, drive eta, detuning
delta_c) and the Bogoliubov mode (frequency scale Omega_c, damping gamma),
coupled by a radiation-pressure term of strength zeta and an intrinsic
cross-Kerr term of strength g = U0/2.

All frequencies are angular (rad/s) throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

# SI-exact constants (2019 redefinition); hbar derived from exact h.
HBAR = 6.62607015e-34 / (2.0 * math.pi)
KB = 1.380649e-23


class DomainError(ValueError):
    """An input violates a declared precondition."""


@dataclass(frozen=True)
class SystemParams:
    """Microscopic inputs.

    Attributes
    ----------
    N : int
        Number of condensate atoms (>= 1).
    g0 : float
        Vacuum Rabi frequency (rad/s).
    delta_a : float
        Atom-pump detuning (rad/s, nonzero).
    omega_R : float
        Recoil frequency (rad/s, > 0).
    omega_sw : float
        s-wave scattering frequency of atomic collisions (rad/s, >= 0).
    kappa : float
        Cavity amplitude decay rate (rad/s, > 0).
    gamma : float
        Bogoliubov-mode dissipation rate (rad/s, >= 0).
    delta_c : float
        Stark-shifted cavity detuning, taken directly as an input knob (rad/s).
    eta : float
        Cavity drive rate (rad/s, >= 0).
    T : float
        Condensate temperature (kelvin, >= 0).
    ck_enabled : bool
        Cross-Kerr switch: g = U0/2 when True, g = 0 when False.
    """

    N: int = 100_000
    g0: float = 2.0 * math.pi * 14.1e6
    delta_a: float = 7.5e11
    omega_R: float = 2.37e4
    omega_sw: float = 2.37e4
    kappa: float = 2.0 * math.pi * 1.3e6
    gamma: float = 1e-3 * 2.0 * math.pi * 1.3e6
    delta_c: float = 0.0
    eta: float = 0.0
    T: float = 1e-7
    ck_enabled: bool = True

    def __post_init__(self):
        for name in ("g0", "delta_a", "omega_R", "omega_sw", "kappa",
                     "gamma", "delta_c", "eta", "T"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.delta_a == 0.0:
            raise DomainError("delta_a must be nonzero")
        if self.kappa <= 0.0:
            raise DomainError("kappa must be positive")
        if self.omega_R <= 0.0:
            raise DomainError("omega_R must be positive")
        if self.N < 1:
            raise DomainError("N must be >= 1")
        if self.eta < 0.0:
            raise DomainError("eta must be >= 0")
        if self.T < 0.0:
            raise DomainError("T must be >= 0")
        if self.omega_sw < 0.0:
            raise DomainError("omega_sw must be >= 0")
        if self.gamma < 0.0:
            raise DomainError("gamma must be >= 0")

    def with_ck(self, enabled: bool) -> "SystemParams":
        return replace(self, ck_enabled=enabled)


@dataclass(frozen=True)
class DerivedParams:
    """Effective-model coefficients plus pass-through inputs."""

    U0: float
    Omega_c: float
    zeta: float
    g: float
    delta_c: float
    eta: float
    kappa: float
    gamma: float
    omega_sw: float
    omega_R: float
    T: float
    N: int
    ck_enabled: bool


def derive_params(p: SystemParams) -> DerivedParams:
    """Derive the effective-model coefficients from microscopic inputs.

    U0 = g0^2 / delta_a is the lattice barrier height per photon,
    Omega_c = 4 omega_R + omega_sw, zeta = (sqrt(2N)/4) U0, and the
    cross-Kerr coupling is g = U0/2 when enabled (zero otherwise), so that
    g/zeta = 2/sqrt(2N) exactly.
    """
    if p.delta_a == 0.0:
        raise DomainError("delta_a must be nonzero")
    U0 = p.g0 * p.g0 / p.delta_a
    return DerivedParams(
        U0=U0,
        Omega_c=4.0 * p.omega_R + p.omega_sw,
        zeta=(math.sqrt(2.0 * p.N) / 4.0) * U0,
        g=0.5 * U0 if p.ck_enabled else 0.0,
        delta_c=p.delta_c,
        eta=p.eta,
        kappa=p.kappa,
        gamma=p.gamma,
        omega_sw=p.omega_sw,
        omega_R=p.omega_R,
        T=p.T,
        N=p.N,
        ck_enabled=p.ck_enabled,
    )


def pump_rate_from_power(P: float, kappa: float, omega_p: float) -> float:
    """Drive rate eta = sqrt(2 P kappa / (hbar omega_p)) for laser power P."""
    if omega_p <= 0.0:
        raise DomainError("omega_p must be positive")
    if kappa <= 0.0:
        raise DomainError("kappa must be positive")
    if P < 0.0:
        raise DomainError("P must be >= 0")
    return math.sqrt(2.0 * P * kappa / (HBAR * omega_p))


def omega_pm(d: DerivedParams, n_photon: float) -> tuple[float, float]:
    """Photon-dressed Bogoliubov coefficients (Omega_minus, Omega_plus).

    Omega_pm = Omega_c +/- omega_sw/2 + g*n. Both are positive for any
    n_photon >= 0 since Omega_c - omega_sw/2 = 4 omega_R + omega_sw/2 > 0.
    """
    gn = d.g * n_photon
    return (d.Omega_c - 0.5 * d.omega_sw + gn, d.Omega_c + 0.5 * d.omega_sw + gn)


def bogoliubov_frequency(d: DerivedParams, n_photon: float) -> float:
    """Effective Bogoliubov frequency omega_B = sqrt(Omega_plus * Omega_minus).

    At n_photon = 0 (or with g = 0) this reduces to the undressed frequency
    omega_c = sqrt(Omega_c^2 - omega_sw^2/4).
    """
    om, op = omega_pm(d, n_photon)
    return math.sqrt(om * op)


def thermal_occupation(omega: float, T: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar omega / kB T) - 1); 0 at T = 0."""
    if omega <= 0.0:
        raise DomainError("omega must be positive")
    if T < 0.0:
        raise DomainError("T must be >= 0")
    if T == 0.0:
        return 0.0
    x = HBAR * omega / (KB * T)
    # expm1 keeps the Rayleigh-Jeans limit accurate for x << 1
    return 1.0 / math.expm1(x)


def validity_flags(d: DerivedParams, n_photon: float,
                   n_incoherent: float | None) -> dict:
    """Advisory validity flags; they never abort a computation.

    lattice_depth_ok: the per-photon lattice stays shallow, U0*n <= 10 omega_R.
    bogoliubov_ok: the excitation stays small against the condensate,
    n_incoherent <= 0.01*N (None when n_incoherent is unavailable).
    """
    flags = {"lattice_depth_ok": bool(d.U0 * n_photon <= 10.0 * d.omega_R)}
    if n_incoherent is None:
        flags["bogoliubov_ok"] = None
    else:
        flags["bogoliubov_ok"] = bool(n_incoherent <= 0.01 * d.N)
    return flags
