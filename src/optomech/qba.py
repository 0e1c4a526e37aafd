"""Force-noise spectral densities and the quantum-backaction ratio.

All force PSDs here are double-sided. The thermal Langevin force is flat,

    S_FF_th = 2 * m_eff * Gamma_m * k_B * T,

and the radiation-pressure (quantum backaction) force noise of a
critically coupled, quantum-limited drive is

    S_FF_qba[O] = 8 * (hbar*g)^2/kappa^2 * (P_in/(hbar*w0))
                  / (1 + 4*O^2/kappa^2),

which together with the shot-noise displacement floor saturates the
Heisenberg pair S_xx_shot * S_FF_qba = hbar^2/2 at every frequency.
"""

from __future__ import annotations

from .devices import Microcavity
from .mechanics import MechanicalMode
from .sensing import DriveCondition
from .units import HBAR, K_B


def thermal_force_psd(mode: MechanicalMode, T: float) -> float:
    """Thermal Langevin force PSD 2*m_eff*Gamma_m*k_B*T (double-sided,
    N^2/Hz)."""
    if T < 0:
        raise ValueError("require T >= 0")
    return 2.0 * mode.m_eff * mode.gamma_m * K_B * T


def qba_force_psd(cav: Microcavity, g: float, drive: DriveCondition,
                  omega: float) -> float:
    """Quantum-backaction force PSD (double-sided, N^2/Hz)."""
    return (8.0 * (HBAR * g) ** 2 / cav.kappa ** 2
            * drive.p_in / (HBAR * cav.omega0)
            / (1.0 + 4.0 * omega ** 2 / cav.kappa ** 2))


def qba_thermal_ratio(cav: Microcavity, mode: MechanicalMode, g: float,
                      drive: DriveCondition) -> float:
    """Quantum-backaction over thermal force PSD at the mechanical
    resonance and the drive temperature; with omega0 = 2*pi*c/lambda,

        hbar*Q*g^2*P_in*lambda / (m_eff*Om*kappa^2*k_B*T*2pi*c)
        * 4/(1 + 4*Om^2/kappa^2),

    of order unity for the reference set of `paper_eq26_unity_ratio`."""
    return (qba_force_psd(cav, g, drive, mode.omega_m)
            / thermal_force_psd(mode, drive.temperature))

