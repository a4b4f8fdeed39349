import math

import numpy as np
import pytest

from rmae.energy_model import (
    SPEED_OF_LIGHT,
    EnergyParams,
    frugal_savings,
    total_power,
)
from rmae.errors import InvalidParams
from rmae.radial_mask import MaskStats

C = SPEED_OF_LIGHT


def stats(duty, max_range):
    return MaskStats(
        group_visible_fraction=duty,
        voxel_visible_fraction=duty,
        per_subgroup_drop_rate=(0.0,),
        max_sensed_range=max_range,
    )


def report(**params):
    return total_power(EnergyParams(**params))


class TestPulseEnergy:
    def test_hand_value(self):
        r = report(P_r=1e-9, R=100.0, tau=5e-9, A_r=1e-3, rho=0.5, eta=0.5)
        expect = 1e-9 * (4 * math.pi * 100.0**2) ** 2 * 5e-9 / (1e-3 * 0.5 * 0.5)
        assert r.E_pulse == pytest.approx(expect, rel=1e-12)
        assert r.E_pulse == pytest.approx(3.158e-4, rel=1e-3)

    def test_r4_scaling_exact(self):
        assert report(R=100.0).E_pulse == 16.0 * report(R=50.0).E_pulse

    def test_linear_in_tau(self):
        a = report(tau=5e-9).E_pulse
        assert report(tau=2.5e-9).E_pulse == a / 2.0
        assert report(tau=1e-30).E_pulse < 1e-20

    def test_invalid_denominator(self):
        with pytest.raises(InvalidParams, match="rho"):
            EnergyParams(rho=0.0)
        with pytest.raises(InvalidParams, match="A_r \\* rho \\* eta"):
            EnergyParams(A_r=1e-200, rho=1e-200)  # the product underflows


class TestLaserPower:
    def test_hand_value(self):
        r = report(f_pulse=1e5, eta_laser=0.25)
        assert r.P_laser == pytest.approx(r.E_pulse * 4e5, rel=1e-12)
        assert r.P_laser == pytest.approx(126.3, rel=1e-3)

    def test_zero_rate(self):
        assert report(f_pulse=0.0).P_laser == 0.0

    def test_identity_efficiency(self):
        r = report(f_pulse=5e4, eta_laser=1.0)
        assert r.P_laser == r.E_pulse * 5e4

    def test_invalid(self):
        with pytest.raises(InvalidParams, match="eta_laser"):
            EnergyParams(eta_laser=0.0)


class TestScanPower:
    def test_hand_value(self):
        r = report(V_motor=12.0, I_motor=0.5, eta_motor=0.8)
        assert r.P_scan == pytest.approx(7.5, rel=1e-12)

    def test_zero_current(self):
        assert report(I_motor=0.0).P_scan == 0.0

    def test_identity_efficiency(self):
        assert report(V_motor=12.0, I_motor=0.5, eta_motor=1.0).P_scan == 6.0

    def test_invalid(self):
        with pytest.raises(InvalidParams, match="eta_motor"):
            EnergyParams(eta_motor=0.0)


class TestResolutions:
    def test_zero_tau(self):
        with pytest.raises(InvalidParams, match="tau"):
            EnergyParams(tau=0.0)

    def test_one_meter_pulse(self):
        assert report(tau=6.6713e-9).delta_R == pytest.approx(1.000, abs=5e-4)

    def test_halving(self):
        assert report(tau=2e-9).delta_R == report(tau=4e-9).delta_R / 2.0

    def test_angular_hand_value(self):
        r = report(lam=905e-9, D_aperture=0.01)
        assert r.delta_theta == pytest.approx(9.05e-5, rel=1e-12)

    def test_angular_identity_and_scaling(self):
        assert report(lam=1e-6, D_aperture=1e-6).delta_theta == 1.0
        wide = report(lam=905e-9, D_aperture=0.02).delta_theta
        assert wide == report(lam=905e-9, D_aperture=0.01).delta_theta / 2.0

    def test_angular_invalid(self):
        with pytest.raises(InvalidParams, match="D_aperture"):
            EnergyParams(D_aperture=0.0)


class TestNyquist:
    def test_hand_value(self):
        r = report(tau=1e-9)
        assert r.f_s == pytest.approx(C / r.delta_R, rel=1e-12)
        assert r.f_s == pytest.approx(2e9, rel=1e-12)

    def test_ratio_exact(self):
        for tau in (1e-10, 1e-9, 5e-9, 6.6713e-9, 5e-8):
            r = report(tau=tau)
            assert r.f_s == C / r.delta_R

    def test_halving(self):
        assert report(tau=2e-9).f_s == 2 * report(tau=4e-9).f_s

    def test_invalid(self):
        with pytest.raises(InvalidParams, match="tau"):
            EnergyParams(tau=-1e-9)


class TestAdcPower:
    def test_hand_value(self):
        # 1e-12 * (c / 0.7495 m) * 2**12 = 1e-12 * 4e8 * 4096 = 1.6384 W
        r = report(k_adc=1e-12, tau=5e-9, N_bits=12)
        expect = 1e-12 * (C / r.delta_R) * 4096
        assert r.P_ADC == pytest.approx(expect, rel=1e-12)
        assert r.P_ADC == pytest.approx(1.6384, rel=1e-12)

    def test_per_bit_doubling_exact(self):
        assert report(N_bits=13).P_ADC == 2.0 * report(N_bits=12).P_ADC

    def test_resolution_scaling_exact(self):
        assert report(tau=2e-9).P_ADC == 2.0 * report(tau=4e-9).P_ADC

    def test_invalid(self):
        with pytest.raises(InvalidParams, match="N_bits"):
            EnergyParams(N_bits=0)
        with pytest.raises(InvalidParams, match="k_adc"):
            EnergyParams(k_adc=-1e-12)


class TestSignalPower:
    def test_window_of_two(self):
        r = report(k_signal=3e-10, N_fft=2)
        assert r.P_signal == 3e-10 * r.f_s

    def test_hand_value(self):
        r = report(k_signal=1e-10, tau=1e-9, N_fft=1024)
        assert r.P_signal == pytest.approx(2.0, rel=1e-12)

    def test_quadrupling_adds_two_9(self):
        k = 1e-10
        for n in (2, 8, 64, 256):
            r = report(k_signal=k, N_fft=n)
            assert report(k_signal=k, N_fft=4 * n).P_signal == pytest.approx(
                r.P_signal + 2 * k * r.f_s, rel=1e-12
            )

    def test_invalid(self):
        with pytest.raises(InvalidParams, match="N_fft"):
            EnergyParams(N_fft=1)


class TestTotalPower:
    def test_all_zeroed(self):
        p = EnergyParams(
            f_pulse=0.0, I_motor=0.0, k_signal=0.0, k_adc=0.0, P_MCU=0.0
        )
        report = total_power(p)
        assert report.P_total == 0.0

    def test_sum_oracle_default_profile(self):
        p = EnergyParams()
        r = total_power(p)
        e = 1e-9 * (4 * math.pi * 1e4) ** 2 * 5e-9 / (1e-3 * 0.25)
        p_laser = e * 1e5 / 0.25
        p_scan = 12.0 * 0.5 / 0.8
        d_r = C * 5e-9 / 2
        f_s = C / d_r
        p_adc = 1e-12 * f_s * 4096
        p_signal = 1e-10 * f_s * 10
        assert r.E_pulse == pytest.approx(e, rel=1e-12)
        assert r.P_laser == pytest.approx(p_laser, rel=1e-12)
        assert r.P_scan == pytest.approx(p_scan, rel=1e-12)
        assert r.P_ADC == pytest.approx(p_adc, rel=1e-12)
        assert r.P_signal == pytest.approx(p_signal, rel=1e-12)
        assert r.P_total == pytest.approx(
            p_laser + p_scan + p_signal + p_adc + 0.2, rel=1e-12
        )

    def test_control_identity(self):
        r = total_power(EnergyParams())
        assert r.P_control == r.P_ADC + 0.2

    def test_report_fields_finite_nonnegative(self):
        r = total_power(EnergyParams())
        for v in vars(r).values():
            assert np.isfinite(v) and v >= 0

    @pytest.mark.parametrize(
        "params",
        [
            {"R": 1e90},  # (4 pi R^2)^2 overflows
            {"N_bits": 2000},  # 2^N_bits overflows
            {"k_adc": 1e300},  # P_ADC is infinite
            {"P_r": 1e300},  # E_pulse is infinite
            {"P_r": float("inf")},
            {"P_r": float("nan")},
        ],
        ids=str,
    )
    def test_params_the_model_cannot_evaluate_are_invalid(self, params):
        with pytest.raises(InvalidParams, match="power model"):
            EnergyParams(**params)

    def test_nyquist_violation_warns(self):
        # tau 5e-9 -> delta_R 0.75 m -> f_s about 4e8; pulse rate 3e8 breaks
        # f_s >= 2 f_pulse
        with pytest.warns(UserWarning, match="below twice"):
            total_power(EnergyParams(f_pulse=3e8))


class TestFrugalSavings:
    def test_no_masking_keeps_report(self):
        r = total_power(EnergyParams())
        f = frugal_savings(r, stats(1.0, 100.0), 100.0)
        assert f.masked_P_laser == r.P_laser
        assert f.masked_P_signal == r.P_signal
        assert f.masked_P_ADC == r.P_ADC
        assert f.masked_P_total == pytest.approx(r.P_total, rel=1e-12)

    def test_zero_duty_leaves_motor_and_mcu(self):
        r = total_power(EnergyParams())
        f = frugal_savings(r, stats(0.0, 0.0), 100.0)
        assert f.masked_P_total == pytest.approx(r.P_scan + 0.2, rel=1e-12)

    def test_worked_example(self):
        from rmae.energy_model import EnergyReport

        r = EnergyReport(
            E_pulse=0.0,
            P_laser=10.0,
            P_scan=3.0,
            P_signal=2.0,
            P_ADC=0.8,
            P_control=1.0,
            P_total=16.0,
            delta_R=0.15,
            delta_theta=1e-4,
            f_s=2e9,
        )
        f = frugal_savings(r, stats(0.1, 50.0), 50.0)
        assert f.duty == 0.1
        assert f.range_scale == 1.0
        assert f.masked_P_total == pytest.approx(4.48, abs=1e-12)

    def test_zero_sensed_range_means_no_laser(self):
        r = total_power(EnergyParams())
        f = frugal_savings(r, stats(0.5, 0.0), 100.0)
        assert f.masked_P_laser == 0.0

    def test_monotone_in_duty_and_range(self):
        r = total_power(EnergyParams())
        rng = np.random.default_rng(40)
        for _ in range(100):
            d1, d2 = sorted(rng.uniform(0, 1, 2))
            r1, r2 = sorted(rng.uniform(0, 120, 2))
            lo = frugal_savings(r, stats(d1, r1), 100.0)
            hi = frugal_savings(r, stats(d2, r2), 100.0)
            assert lo.masked_P_laser <= hi.masked_P_laser + 1e-15
            assert lo.masked_P_signal <= hi.masked_P_signal + 1e-15
            assert lo.masked_P_ADC <= hi.masked_P_ADC + 1e-15
            assert lo.masked_P_total <= hi.masked_P_total + 1e-15

    def test_never_exceeds_unmasked(self):
        r = total_power(EnergyParams())
        rng = np.random.default_rng(41)
        for _ in range(100):
            f = frugal_savings(
                r, stats(rng.uniform(0, 1), rng.uniform(0, 150)), 100.0
            )
            assert f.masked_P_total <= r.P_total + 1e-12

    def test_invalid(self):
        r = total_power(EnergyParams())
        with pytest.raises(InvalidParams):
            frugal_savings(r, stats(0.5, 10.0), 0.0)
        with pytest.raises(InvalidParams):
            frugal_savings(r, stats(1.5, 10.0), 100.0)
