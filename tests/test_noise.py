"""Figures of merit: flux, efficiency, excess noise factor, variance law."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pnr_lab import (
    DegenerateDesignError,
    EfficiencyInput,
    GaussianPeak,
    InsufficientDataError,
    MixtureModel,
    excess_noise_factor,
    measured_efficiency,
    n_max,
    photon_flux,
    variance_law,
)
from pnr_lab.noise import PLANCK_H, SPEED_OF_LIGHT

from conftest import (
    CATALOG_MEANS,
    CATALOG_STDS,
    REF_ELEC_VAR,
    REF_EXTRA_VAR,
    REF_MULT_VAR,
    law_stds,
)


def peaks_from(means, stds):
    k = len(means)
    return MixtureModel.from_peaks(means, stds, np.full(k, 1.0 / k)).peaks


def line_oracle(stds, weights):
    """(v_0, v_M, residual) from the weighted normal equations of the line
    through sigma_i^2 - sigma_0^2 over i >= 1, each point weighted by its
    information weight_i / (2 sigma_i^4)."""
    var = np.asarray(stds, dtype=float) ** 2
    i = np.arange(1, len(var))
    y = var[1:] - var[0]
    w = np.asarray(weights, dtype=float)[1:] / (2.0 * var[1:] ** 2)
    s, sx, sxx, sy, sxy = w.sum(), w @ i, w @ (i * i), w @ y, w @ (i * y)
    det = s * sxx - sx * sx
    slope = (s * sxy - sx * sy) / det
    intercept = (sxx * sy - sx * sxy) / det
    r = y - intercept - slope * i
    return intercept, slope, float(w @ (r * r))


# ---------------------------------------------------------------- photon flux

def test_photon_flux_single_photon_energy():
    # power equal to one photon's energy per second -> flux of 1/s
    e = PLANCK_H * SPEED_OF_LIGHT / 543e-9
    assert e == pytest.approx(3.658279663257695e-19, rel=1e-12)
    assert photon_flux(543e-9, e) == pytest.approx(1.0, rel=1e-12)


def test_photon_flux_at_one_nanowatt():
    assert photon_flux(543e-9, 1e-9) == pytest.approx(2733525296.1756916, rel=1e-12)


def test_photon_flux_linear_in_power_and_wavelength():
    base = photon_flux(543e-9, 2e-9)
    assert photon_flux(543e-9, 4e-9) == pytest.approx(2 * base, rel=1e-12)
    assert photon_flux(2 * 543e-9, 2e-9) == pytest.approx(2 * base, rel=1e-12)
    assert photon_flux(543e-9, 0.0) == 0.0


def test_photon_flux_rejects_bad_inputs():
    with pytest.raises(ValueError):
        photon_flux(0.0, 1e-9)
    with pytest.raises(ValueError):
        photon_flux(543e-9, -1e-9)
    with pytest.raises(ValueError, match="wavelength must be a finite number > 0, got nan"):
        photon_flux(math.nan, 2e-9)


# ---------------------------------------------------------------- efficiency

def _effin(**kw):
    base = dict(wavelength=543e-9, power=2e-9, nd_transmission=1e-4,
                counts=0.0, dark_counts=0.0, loss_factors=())
    base.update(kw)
    return EfficiencyInput(**base)


def test_measured_efficiency_chain():
    flux = photon_flux(543e-9, 2e-9)
    atten = 1e-4
    dark = 100.0
    counts = dark + 0.85 * atten * flux
    res = measured_efficiency(_effin(counts=counts, dark_counts=dark,
                                     loss_factors=(0.93, 0.99)))
    assert res.raw == pytest.approx(0.85, rel=1e-12)
    assert res.intrinsic == pytest.approx(0.85 / (0.93 * 0.99), rel=1e-12)
    assert res.intrinsic == pytest.approx(0.9232106006299554, rel=1e-9)
    assert not res.calibration_suspect


def test_measured_efficiency_no_losses_keeps_raw():
    flux = photon_flux(543e-9, 2e-9)
    counts = 0.5 * 1e-4 * flux
    res = measured_efficiency(_effin(counts=counts))
    assert res.intrinsic == res.raw == pytest.approx(0.5, rel=1e-12)


def test_measured_efficiency_suspect_flags():
    flux = photon_flux(543e-9, 2e-9)
    # more dark counts than photon counts: negative raw, flagged not fatal
    res = measured_efficiency(_effin(counts=10.0, dark_counts=500.0))
    assert res.raw < 0 and res.calibration_suspect
    # more counts than photons delivered
    res2 = measured_efficiency(_effin(counts=2.0 * 1e-4 * flux))
    assert res2.raw > 1.05 and res2.calibration_suspect


def test_measured_efficiency_zero_power_rejected():
    with pytest.raises(ValueError):
        measured_efficiency(_effin(power=0.0, counts=100.0))


def test_efficiency_input_validation():
    with pytest.raises(ValueError):
        _effin(nd_transmission=0.0)
    with pytest.raises(ValueError):
        _effin(loss_factors=(0.93, 1.2))
    with pytest.raises(ValueError):
        _effin(counts=-1.0)


# ---------------------------------------------------------------- ENF / n_max

def test_excess_noise_factor_reference():
    assert excess_noise_factor(276.0, 135.0) == pytest.approx(
        1.0151440329218107, rel=1e-15)
    assert excess_noise_factor(0.0, 135.0) == 1.0


def test_excess_noise_factor_validation():
    with pytest.raises(ValueError):
        excess_noise_factor(276.0, 0.0)
    with pytest.raises(ValueError):
        excess_noise_factor(-1.0, 135.0)
    with pytest.raises(ValueError, match="mult_noise_var must be a finite number >= 0, got nan"):
        excess_noise_factor(math.nan, 135.0)


def test_n_max_values():
    assert n_max(2.0) == pytest.approx(1.0, rel=1e-15)
    assert n_max(1.2) == pytest.approx(5.0, rel=1e-12)
    assert n_max(1.03) == pytest.approx(33.33333333333331, rel=1e-12)
    assert n_max(excess_noise_factor(276.0, 135.0)) == pytest.approx(
        66.03260869565217, rel=1e-12)


def test_n_max_round_trips_one_over_k():
    for k in (1, 2, 5, 17, 400):
        assert n_max(1.0 + 1.0 / k) == pytest.approx(k, rel=1e-9)


def test_n_max_limits_and_domain():
    assert n_max(1.0) == math.inf
    with pytest.raises(ValueError):
        n_max(0.99)
    with pytest.raises(ValueError, match="enf must be a finite number >= 1, got nan"):
        n_max(math.nan)


# ---------------------------------------------------------------- variance law

def test_variance_law_exact_inputs():
    # variances built exactly from the law must come back to machine precision
    means = [135.0 * i for i in range(7)]
    rep = variance_law(peaks_from(means, law_stds(7)))
    assert rep.sigma_m_sq == pytest.approx(REF_MULT_VAR, rel=1e-12)
    assert rep.sigma_0_sq == pytest.approx(REF_EXTRA_VAR, rel=1e-12)
    assert rep.regression_residual == pytest.approx(0.0, abs=1e-12)
    assert rep.enf == pytest.approx(1.0 + REF_MULT_VAR / 135.0**2, rel=1e-12)
    assert rep.n_max == pytest.approx(1.0 / (rep.enf - 1.0), rel=1e-12)
    assert not rep.unbounded


def test_variance_law_catalog_regression():
    rep = variance_law(peaks_from(CATALOG_MEANS, CATALOG_STDS))
    v_0, v_m, resid = line_oracle(CATALOG_STDS, np.full(7, 1 / 7))
    assert (rep.sigma_m_sq, rep.sigma_0_sq, rep.regression_residual) == pytest.approx(
        (v_m, v_0, resid), rel=1e-9)
    assert rep.sigma_m_sq == pytest.approx(286.8567198943976, rel=1e-9)
    assert rep.sigma_0_sq == pytest.approx(243.60827350991235, rel=1e-9)
    assert rep.regression_residual == pytest.approx(0.0007684979424992718, rel=1e-9)
    # gain here is the mean adjacent spacing (143.17), not the fitted ladder
    assert rep.enf == pytest.approx(1.0139952674160173, rel=1e-9)
    assert rep.n_max == pytest.approx(71.45272543027792, rel=1e-9)


@given(st.integers(3, 12),
       st.lists(st.floats(0.01, 1.0), min_size=12, max_size=12),
       st.lists(st.floats(-0.05, 0.05), min_size=12, max_size=12))
def test_variance_law_is_the_weighted_line_over_excited_peaks(k, raw_weights, jitter):
    weights = np.array(raw_weights[:k]) / sum(raw_weights[:k])
    stds = law_stds(k) * (1.0 + np.array(jitter[:k]))
    rep = variance_law([GaussianPeak(i, 135.0 * i, stds[i], weights[i]) for i in range(k)])
    scale = 1e-9 * float(np.max(stds)) ** 2
    v_0, v_m, resid = line_oracle(stds, weights)
    assert rep.sigma_m_sq == pytest.approx(v_m, rel=1e-9, abs=scale)
    assert rep.sigma_0_sq == pytest.approx(v_0, rel=1e-9, abs=scale)
    assert rep.regression_residual == pytest.approx(resid, rel=1e-9, abs=1e-18)

    exact = variance_law([GaussianPeak(i, 135.0 * i, law_stds(k)[i], weights[i])
                          for i in range(k)])
    assert exact.sigma_m_sq == pytest.approx(REF_MULT_VAR, rel=1e-9)
    assert exact.sigma_0_sq == pytest.approx(REF_EXTRA_VAR, rel=1e-9)
    assert exact.regression_residual == pytest.approx(0.0, abs=1e-18)


def test_variance_law_needs_three_weighted_peaks():
    stds = law_stds(5)
    for weights in ([0.5, 0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.5, 0.0]):
        pks = [GaussianPeak(i, 135.0 * i, stds[i], weights[i]) for i in range(5)]
        with pytest.raises(DegenerateDesignError):
            variance_law(pks)


def test_variance_law_accepts_unsorted_peaks():
    means = [135.0 * i for i in range(7)]
    pks = list(peaks_from(means, law_stds(7)))
    rep = variance_law([pks[3], pks[0], pks[6], pks[1], pks[4], pks[2], pks[5]])
    assert rep.sigma_m_sq == pytest.approx(REF_MULT_VAR, rel=1e-12)


def test_variance_law_flat_ladder_unbounded():
    # identical widths: zero slope -> enf = 1 -> no resolvability bound
    rep = variance_law(peaks_from([0.0, 100.0, 200.0, 300.0],
                                  [12.0, 12.0, 12.0, 12.0]))
    assert rep.sigma_m_sq == pytest.approx(0.0, abs=1e-9)
    assert rep.enf == pytest.approx(1.0, abs=1e-12)
    assert rep.unbounded and rep.n_max == math.inf


def test_variance_law_insufficient_peaks():
    with pytest.raises(InsufficientDataError):
        variance_law(peaks_from([0.0, 135.0], [10.0, 25.0]))
    # no zero-photon peak: electronic floor cannot be anchored
    pks = peaks_from([135.0 * i for i in range(7)], law_stds(7))
    with pytest.raises(InsufficientDataError):
        variance_law(pks[1:])
    # a gap in the photon numbers: the law's rows are 0..K-1
    with pytest.raises(InsufficientDataError):
        variance_law(pks[:3] + pks[4:])


def test_variance_law_type_check():
    with pytest.raises(TypeError):
        variance_law([(0, 10.6), (1, 24.8), (2, 31.7)])

