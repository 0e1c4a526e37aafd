"""Near-field cavity optomechanics: coupling rates, effective masses,
noise spectra, pump-probe interference, dynamical backaction, and
quantum-backaction budgets for nanomechanical oscillators evanescently
coupled to whispering-gallery microcavities."""

from .backaction import (
    BackactionResult,
    OscillationState,
    backaction_rate,
    blue_detuned_rate,
    linewidth_vs_coupling,
    oscillation_amplitude,
    threshold_power,
    transmission_modulation,
)
from .coupling import (
    ExpFit,
    ShiftCurve,
    StandingWaveShift,
    coupling_rate,
    coupling_ratio_hv,
    fit_exponential,
    frequency_shift,
    standing_wave_period,
    standing_wave_shift,
)
from .devices import (
    CouplingGeometry,
    Microcavity,
    NanoOscillator,
    decay_constant,
    finesse,
    index_for_decay_length,
    infer_stress,
    mode_volume,
    sampling_lengths,
    string_mode_frequency,
)
from .errors import (
    DivergentMass,
    GeometryMismatch,
    IllConditioned,
    NoResonanceInWindow,
    NonEvanescent,
    NotAString,
    OptomechError,
    OutOfDomain,
    ZeroPower,
)
from .mechanics import (
    MechanicalMode,
    ProbeProfile,
    effective_mass,
    integrated_rms,
    mode_from_oscillator,
    mode_shape,
    resonance_grid,
    snr_requirement,
    thermal_rms,
    thermal_spectrum,
    zero_point,
)
from .qba import (
    qba_force_psd,
    qba_thermal_ratio,
    thermal_force_psd,
)
from .sensing import (
    DriveCondition,
    NoiseBudget,
    ResponseCurve,
    ResponseFit,
    fit_response,
    g_eff_from_a1,
    noise_budget,
    response_coefficient,
    response_model,
    shot_noise_floor,
)
from .units import (
    C_LIGHT,
    HBAR,
    K_B,
    TWO_PI,
    SpectralDensity,
)

__version__ = "0.1.0"
