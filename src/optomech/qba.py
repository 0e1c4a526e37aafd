"""Force-noise spectral densities and the quantum-backaction ratio.

All force PSDs here are double-sided. The thermal Langevin force is flat,

    S_FF_th = 2 * m_eff * Gamma_m * k_B * T,

defined in `mechanics` beside the Brownian spectrum it drives and bound
here as `thermal_force_psd`. The radiation-pressure (quantum backaction)
force noise of a critically coupled, quantum-limited drive is

    S_FF_qba[O] = 8 * (hbar*g)^2/kappa^2 * (P_in/(hbar*w0))
                  / (1 + (2*O/kappa)^2),

which together with the shot-noise displacement floor saturates the
Heisenberg pair S_xx_shot * S_FF_qba = hbar^2/2 at every frequency.
"""

from __future__ import annotations

from .devices import Microcavity, detuning_sq
from .mechanics import MechanicalMode, thermal_force_psd
from .sensing import DriveCondition
from .units import HBAR, require


def qba_force_psd(cav: Microcavity, g: float, drive: DriveCondition,
                  omega: float) -> float:
    """Quantum-backaction force PSD (double-sided, N^2/Hz)."""
    require("Positive", g=g)
    require("Finite", omega=omega)
    return (8.0 * (HBAR * g) ** 2 / cav.kappa ** 2
            * drive.p_in / (HBAR * cav.omega0)
            / (1.0 + detuning_sq(cav, omega)))


def qba_thermal_ratio(cav: Microcavity, mode: MechanicalMode, g: float,
                      drive: DriveCondition) -> float:
    """Quantum-backaction over thermal force PSD at the mechanical
    resonance and the drive temperature; with omega0 = 2*pi*c/lambda,

        hbar*Q*g^2*P_in*lambda / (m_eff*Om*kappa^2*k_B*T*2pi*c)
        * 4/(1 + 4*Om^2/kappa^2),

    of order unity for the reference set of `paper_eq26_unity_ratio`."""
    return (qba_force_psd(cav, g, drive, mode.omega_m)
            / thermal_force_psd(mode, drive.temperature))

