"""Shared builders for the test suite."""

import math

import numpy as np
import pytest

from optomech import (
    CouplingGeometry,
    DriveCondition,
    MechanicalMode,
    Microcavity,
    NanoOscillator,
)
from optomech.units import TWO_PI

HZ_PER_NM = TWO_PI * 1e9


def make_cavity(**overrides) -> Microcavity:
    params = dict(
        R=30e-6,
        r=3e-6,
        wavelength=1.55e-6,
        n=1.45,
        n_eff=1.44,
        kappa=TWO_PI * 4.9e6,
        D_mode=3.5e-6,
        xi=0.4,
    )
    params.update(overrides)
    return Microcavity(**params)


def make_string(**overrides) -> NanoOscillator:
    params = dict(
        kind="string",
        L=25e-6,
        w=800e-9,
        t=110e-9,
        rho=3100.0,
        stress=0.9e9,
        n_nano=2.05,
        Q=53000.0,
    )
    params.update(overrides)
    return NanoOscillator(**params)


def make_mode(f_m=10.74e6, Q=53000.0, m_eff=3.6e-15) -> MechanicalMode:
    return MechanicalMode.from_quality_factor(
        omega_m=TWO_PI * f_m, Q=Q, m_eff=m_eff)


def make_drive(p_in=65e-6, detuning_hz=0.0, temperature=300.0,
               readout="homodyne") -> DriveCondition:
    return DriveCondition(p_in=p_in, detuning=TWO_PI * detuning_hz,
                          temperature=temperature, readout=readout)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def random_cavity(rng) -> Microcavity:
    minor = rng.uniform(1.5e-6, 6e-6)
    return Microcavity(
        R=rng.uniform(15e-6, 60e-6),
        r=minor,
        wavelength=rng.uniform(0.7e-6, 1.6e-6),
        n=rng.uniform(1.3, 2.2),
        n_eff=rng.uniform(1.2, 1.6),
        kappa=TWO_PI * rng.uniform(1e6, 200e6),
        D_mode=rng.uniform(0.5, 0.9) * 2.0 * minor,
        xi=rng.uniform(0.2, 0.8),
    )


def random_string(rng) -> NanoOscillator:
    return NanoOscillator(
        kind="string",
        L=rng.uniform(10e-6, 50e-6),
        w=rng.uniform(0.3e-6, 1.5e-6),
        t=rng.uniform(30e-9, 200e-9),
        rho=rng.uniform(2000.0, 4000.0),
        stress=rng.uniform(0.1e9, 1.5e9),
        n_nano=rng.uniform(1.5, 2.5),
        Q=rng.uniform(1e4, 1e6),
    )


def approx_rel(actual, expected, rel):
    assert expected != 0
    assert abs(actual - expected) <= rel * abs(expected), \
        f"{actual} vs {expected} (rel err {abs(actual - expected) / abs(expected):.3e} > {rel})"
