"""Near-field cavity optomechanics: coupling rates, effective masses,
noise spectra, pump-probe interference, dynamical backaction, and
quantum-backaction budgets for nanomechanical oscillators evanescently
coupled to whispering-gallery microcavities."""

from .backaction import (
    BackactionResult,
    OscillationState,
    backaction_rate,
    blue_detuned_rate,
    linewidth_slope,
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
    numeric_g_check,
    standing_wave_period,
    standing_wave_shift,
    thin_film_shift,
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
    GridMismatch,
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
    beta_inv,
    effective_mass,
    gaussian_fundamental_mass_ratio,
    integrated_rms,
    mode_from_oscillator,
    mode_shape,
    resonance_grid,
    snr_requirement,
    susceptibility,
    thermal_rms,
    thermal_spectrum,
    zero_point,
)
from .qba import (
    ForceNoise,
    intracavity_flux_noise,
    qba_force_psd,
    qba_force_psd_via_flux,
    qba_thermal_ratio,
    qba_thermal_ratio_scaling,
    thermal_force_psd,
)
from .quadrature import adaptive_quadrature
from .sensing import (
    DriveCondition,
    NoiseBudget,
    ResponseCurve,
    ResponseFit,
    dynamic_g,
    fit_response,
    g_eff_from_a1,
    kerr_shift,
    noise_budget,
    response_coefficient,
    response_magnitude,
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
