"""pnr-lab: simulate and analyze photon-number-resolving detector spectra.

The package models a multiplication-gain photodetector whose pulse-area
spectrum shows one Gaussian peak per detected photon number.  It provides a
Monte Carlo spectrum generator, a constrained Gaussian-mixture fitter, photon
number decision rules with their error rates, and detector figures of merit
(quantum efficiency, excess noise factor, resolvable-photon ceiling).
"""

__version__ = "0.1.0"

from .core import (Constraint, DecisionScheme, DegenerateDesignError,
                   DetectorModel, GaussianPeak, Histogram, MixtureModel,
                   NoiseReport, substream)
from .discriminate import (ConfusionMatrix, InvalidModelError,
                           NoIntersectionError, build_scheme, classify,
                           confusion, one_vs_many_error, threshold)
from .fit import (FitConfig, FitReport, FitSetupError, expected_counts,
                  fit_spectrum, init_guess, report_from_json, report_to_json)
from .noise import (EfficiencyInput, EfficiencyResult, InsufficientDataError,
                    excess_noise_factor, measured_efficiency, n_max,
                    photon_flux, variance_law)
from .simulate import (CapacityError, FormatError, SimConfig,
                       histogram_from_areas, read_histogram_csv,
                       read_pulses_csv, run, write_histogram_csv,
                       write_pulses_csv)

__all__ = [
    "__version__",
    # core
    "Constraint", "DecisionScheme", "DegenerateDesignError", "DetectorModel",
    "GaussianPeak", "Histogram", "MixtureModel", "NoiseReport",
    "substream",
    # simulate
    "CapacityError", "FormatError", "SimConfig", "histogram_from_areas",
    "read_histogram_csv", "read_pulses_csv", "run", "write_histogram_csv",
    "write_pulses_csv",
    # fit
    "FitConfig", "FitReport", "FitSetupError", "expected_counts",
    "fit_spectrum", "init_guess", "report_from_json", "report_to_json",
    # discriminate
    "ConfusionMatrix", "InvalidModelError", "NoIntersectionError",
    "build_scheme", "classify", "confusion", "one_vs_many_error", "threshold",
    # noise
    "EfficiencyInput", "EfficiencyResult", "InsufficientDataError",
    "excess_noise_factor", "measured_efficiency", "n_max", "photon_flux",
    "variance_law",
]
