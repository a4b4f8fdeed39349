"""Closed-form LiDAR power/precision model and frugal-sensing savings.

All quantities are SI.  The relations implemented here:

    E_pulse  = P_r * (4*pi*R^2)^2 * tau / (A_r * rho * eta)   (R^4 law)
    P_laser  = E_pulse * f_pulse / eta_laser
    P_scan   = V_motor * I_motor / eta_motor
    delta_R  = c * tau / 2
    delta_th = lambda / D
    f_pulse_req = c / (2*delta_R);  f_s = c / delta_R  (Nyquist)
    P_ADC    = k_adc * (c / delta_R) * 2^N_bits
    P_signal = k_signal * f_s * log2(N_fft)
    P_control = P_ADC + P_MCU
    P_total  = P_laser + P_scan + P_signal + P_control

EnergyParams is the model's one validator: it also rejects a parameter
set whose relations do not all evaluate to finite numbers.

Masking savings scale the duty-cycled components (laser, ADC, signal) by
the fraction of sensed angular groups, and the laser additionally by
(max sensed range / design range)^4; motor and MCU power are untouched.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import InvalidParams
from .radial_mask import MaskStats

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact SI value


@dataclass(frozen=True)
class EnergyParams:
    """Inputs of the power model; defaults sketch a 100 m pulsed unit."""

    P_r: float = 1e-9  # minimum received signal, W
    R: float = 100.0  # design range, m
    tau: float = 5e-9  # pulse width, s
    A_r: float = 1e-3  # receiver aperture area, m^2
    rho: float = 0.5  # target reflectivity
    eta: float = 0.5  # system efficiency
    f_pulse: float = 1e5  # pulse repetition frequency, Hz
    eta_laser: float = 0.25
    V_motor: float = 12.0  # V
    I_motor: float = 0.5  # A
    eta_motor: float = 0.8
    k_adc: float = 1e-12  # J per (sample * code)
    N_bits: int = 12
    P_MCU: float = 0.2  # W
    k_signal: float = 1e-10  # W per (sample/s * log2-sample)
    N_fft: int = 1024  # samples per processing window
    lam: float = 905e-9  # laser wavelength, m
    D_aperture: float = 0.01  # m

    def __post_init__(self):
        positive = {
            "R": self.R,
            "tau": self.tau,
            "A_r": self.A_r,
            "lam": self.lam,
            "D_aperture": self.D_aperture,
        }
        for name, v in positive.items():
            if not v > 0:
                raise InvalidParams(f"{name} must be positive, got {v}")
        unit = {
            "rho": self.rho,
            "eta": self.eta,
            "eta_laser": self.eta_laser,
            "eta_motor": self.eta_motor,
        }
        for name, v in unit.items():
            if not 0 < v <= 1:
                raise InvalidParams(f"{name} must lie in (0, 1], got {v}")
        nonneg = {
            "P_r": self.P_r,
            "f_pulse": self.f_pulse,
            "V_motor": self.V_motor,
            "I_motor": self.I_motor,
            "k_adc": self.k_adc,
            "k_signal": self.k_signal,
            "P_MCU": self.P_MCU,
        }
        for name, v in nonneg.items():
            if v < 0:
                raise InvalidParams(f"{name} must be non-negative, got {v}")
        if self.N_bits < 1:
            raise InvalidParams("N_bits must be >= 1")
        if self.N_fft < 2:
            raise InvalidParams("N_fft must be >= 2")
        if not self.A_r * self.rho * self.eta > 0:
            raise InvalidParams("A_r * rho * eta underflows to zero")
        try:
            report = _evaluate(self)
        except OverflowError as e:
            raise InvalidParams("power model overflows a float") from e
        for name, v in vars(report).items():
            if not math.isfinite(v):
                raise InvalidParams(f"power model gives {name}={v}")


@dataclass(frozen=True)
class EnergyReport:
    E_pulse: float
    P_laser: float
    P_scan: float
    P_signal: float
    P_ADC: float
    P_control: float
    P_total: float
    delta_R: float
    delta_theta: float
    f_s: float


@dataclass(frozen=True)
class FrugalReport:
    masked_P_laser: float
    masked_P_signal: float
    masked_P_ADC: float
    masked_P_total: float
    duty: float
    range_scale: float


def _evaluate(p: EnergyParams) -> EnergyReport:
    """The model's relations, unchecked: EnergyParams has validated them."""
    e_pulse = (
        p.P_r * (4.0 * math.pi * p.R**2) ** 2 * p.tau / (p.A_r * p.rho * p.eta)
    )
    p_laser = e_pulse * p.f_pulse / p.eta_laser
    p_scan = p.V_motor * p.I_motor / p.eta_motor
    d_r = SPEED_OF_LIGHT * p.tau / 2.0
    f_s = 2.0 * (SPEED_OF_LIGHT / (2.0 * d_r))
    p_adc = p.k_adc * (SPEED_OF_LIGHT / d_r) * 2.0**p.N_bits
    p_signal = p.k_signal * f_s * math.log2(p.N_fft)
    p_control = p_adc + p.P_MCU
    return EnergyReport(
        E_pulse=e_pulse,
        P_laser=p_laser,
        P_scan=p_scan,
        P_signal=p_signal,
        P_ADC=p_adc,
        P_control=p_control,
        P_total=p_laser + p_scan + p_signal + p_control,
        delta_R=d_r,
        delta_theta=p.lam / p.D_aperture,
        f_s=f_s,
    )


def total_power(p: EnergyParams) -> EnergyReport:
    """Evaluate the whole model; warns (not errors) when the configured
    pulse rate exceeds what the ADC sampling rate can resolve."""
    report = _evaluate(p)
    if report.f_s < 2.0 * p.f_pulse:
        warnings.warn(
            f"sampling rate f_s={report.f_s:.4g} Hz is below twice the pulse "
            f"rate {p.f_pulse:.4g} Hz",
            stacklevel=2,
        )
    return report


def frugal_savings(
    report: EnergyReport, stats: MaskStats, R_design: float
) -> FrugalReport:
    """Power after masking: laser/ADC/signal scale with the sensed-group
    duty cycle, the laser additionally with (sensed range / design)^4;
    motor and MCU are exempt."""
    if R_design <= 0:
        raise InvalidParams("R_design must be positive")
    duty = stats.group_visible_fraction
    range_scale = (min(stats.max_sensed_range, R_design) / R_design) ** 4
    p_mcu = report.P_control - report.P_ADC
    masked_laser = report.P_laser * duty * range_scale
    masked_signal = report.P_signal * duty
    masked_adc = report.P_ADC * duty
    return FrugalReport(
        masked_P_laser=masked_laser,
        masked_P_signal=masked_signal,
        masked_P_ADC=masked_adc,
        masked_P_total=masked_laser
        + report.P_scan
        + masked_signal
        + masked_adc
        + p_mcu,
        duty=duty,
        range_scale=range_scale,
    )
