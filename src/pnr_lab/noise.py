"""Detector figures of merit.

Three separate stories live here:

* variance_law: regress per-peak variances against photon number to split
  the noise into an electronic floor, a firing penalty, and a per-photon
  multiplication term -- then derive the excess noise factor and the
  largest resolvable photon number.
* excess_noise_factor / n_max: the gain-noise -> resolvability arithmetic
  on its own, for when the variance components are already known.
* photon_flux / measured_efficiency: quantum-efficiency calibration from
  counter readings against a calibrated optical power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GaussianPeak, NoiseReport, _finite, _variance_components

__all__ = [
    "PLANCK_H",
    "SPEED_OF_LIGHT",
    "EfficiencyInput",
    "EfficiencyResult",
    "InsufficientDataError",
    "photon_flux",
    "measured_efficiency",
    "variance_law",
    "excess_noise_factor",
    "n_max",
]

# CODATA exact values (SI definition constants)
PLANCK_H = 6.62607015e-34      # J*s
SPEED_OF_LIGHT = 2.99792458e8  # m/s

# a raw efficiency outside this range marks the calibration as suspect
_RAW_SANE = (0.0, 1.05)


class InsufficientDataError(ValueError):
    """Too few peaks to regress the variance law."""


@dataclass(frozen=True)
class EfficiencyInput:
    """Everything needed for one efficiency measurement.

    `nd_transmission` is the combined transmission of the neutral-density
    stack used to bring the source down to counting rates; `loss_factors`
    are the known passive optical losses (window, surface, ...) divided out
    to get from the raw figure to the detector-intrinsic one.
    """

    wavelength: float            # m
    power: float                 # W, measured before the ND stack
    nd_transmission: float       # (0, 1]
    counts: float                # detector counts per second
    dark_counts: float           # counts per second with the source blocked
    loss_factors: tuple = ()     # each in (0, 1]

    def __post_init__(self):
        _finite("wavelength", self.wavelength, above=0)
        for name in ("power", "counts", "dark_counts"):
            _finite(name, getattr(self, name), at_least=0)
        _finite("nd_transmission", self.nd_transmission, above=0, at_most=1)
        lf = tuple(self.loss_factors)
        for i, f in enumerate(lf):
            _finite(f"loss_factors[{i}]", f, above=0, at_most=1)
        object.__setattr__(self, "loss_factors", lf)


@dataclass(frozen=True)
class EfficiencyResult:
    raw: float
    intrinsic: float
    calibration_suspect: bool


def photon_flux(wavelength: float, power: float) -> float:
    """Photons per second in a beam: wavelength*power/(h*c)."""
    _finite("wavelength", wavelength, above=0)
    _finite("power", power, at_least=0)
    return wavelength * power / (PLANCK_H * SPEED_OF_LIGHT)


def measured_efficiency(inp: EfficiencyInput) -> EfficiencyResult:
    """Raw and intrinsic quantum efficiency from counter readings.

    raw = (counts - dark) / (nd_transmission * flux); intrinsic divides the
    known passive losses back out.  A raw value outside [0, 1.05] (negative
    rates, or more counts than photons) does not abort -- it flags the
    result as calibration-suspect so the caller can decide.
    """
    flux = photon_flux(inp.wavelength, inp.power)
    if flux <= 0:
        raise ValueError("zero photon flux: power must be > 0 for an efficiency measurement")
    raw = (inp.counts - inp.dark_counts) / (inp.nd_transmission * flux)
    intrinsic = raw / math.prod(inp.loss_factors) if inp.loss_factors else raw
    suspect = not (_RAW_SANE[0] <= raw <= _RAW_SANE[1])
    return EfficiencyResult(raw=float(raw), intrinsic=float(intrinsic),
                            calibration_suspect=suspect)


def excess_noise_factor(mult_noise_var: float, gain_per_photon: float) -> float:
    """F = 1 + (per-photon gain variance)/(gain)^2, in area units."""
    _finite("mult_noise_var", mult_noise_var, at_least=0)
    _finite("gain_per_photon", gain_per_photon, above=0)
    return 1.0 + mult_noise_var / gain_per_photon**2


def n_max(enf: float) -> float:
    """Largest photon number resolvable at excess noise factor `enf`.

    1/(enf - 1); exactly noise-free gain (enf = 1) resolves arbitrarily
    many photons and returns +inf.
    """
    _finite("enf", enf, at_least=1)
    if enf == 1.0:
        return math.inf
    return 1.0 / (enf - 1.0)


def variance_law(peaks) -> NoiseReport:
    """Split peak variances into noise components and derive F and n_max.

    One regression of sigma_i^2 = v_elec + v_0*[i>0] + i*v_M over peaks 0..K-1,
    each weighted by the information its width carries (see
    `core._variance_components`), so a near-empty peak or a last peak swollen
    by the truncated tail cannot steer the slope v_M, the per-photon
    multiplication variance; v_0 is the extra firing variance.  F uses the mean
    adjacent peak spacing as the gain.  A slightly negative slope yields
    enf <= 1 and an unbounded n_max rather than an error.
    """
    pks = list(peaks)
    if not all(isinstance(p, GaussianPeak) for p in pks):
        raise TypeError("peaks must be GaussianPeak instances")
    pks.sort(key=lambda p: p.index)
    if len(pks) < 3:
        raise InsufficientDataError(f"need at least 3 peaks, got {len(pks)}")
    if [p.index for p in pks] != list(range(len(pks))):
        raise InsufficientDataError(
            "variance law needs peaks 0..K-1, the zero-photon peak included, without gaps")

    (_, v_0, v_m), resid = _variance_components([p.std_dev for p in pks],
                                                [p.weight for p in pks])
    spacing = float(np.mean(np.diff([p.mean for p in pks])))
    if spacing <= 0:
        raise ValueError("peak means must be increasing to define a gain")
    enf = 1.0 + float(v_m) / spacing**2
    return NoiseReport(sigma_m_sq=float(v_m), sigma_0_sq=float(v_0), enf=enf,
                       n_max=n_max(max(enf, 1.0)), regression_residual=resid)

