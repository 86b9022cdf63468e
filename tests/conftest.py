"""Shared fixtures: the reference seven-peak detector used across the suite.

The numbers describe a photon-counting detector whose pulse-area spectrum
shows Gaussian peaks near 0, 135, 275, 416, 561, 709 and 859 area units with
standard deviations growing from 10.6 to ~45.  The generator parameters
(spacing 134.464, quadratic pull -1.464, per-photon gain variance 276,
firing-noise variance 246, electronic variance 112.36) reproduce that ladder.
"""

import numpy as np
import pytest

from pnr_lab import Constraint, DetectorModel, MixtureModel, histogram_from_areas

# catalog of the seven fitted peaks (photon number, center, width)
CATALOG_MEANS = [0.0, 135.0, 275.0, 416.0, 561.0, 709.0, 859.0]
CATALOG_STDS = [10.6, 24.8, 31.7, 35.3, 39.0, 42.2, 44.5]

# ladder description fitted through the catalog means
REF_X0 = -0.285714285714365
REF_SPACING = 134.4642857142858
REF_SAT = -1.4642857142857169

REF_MULT_VAR = 276.0
REF_EXTRA_VAR = 246.0
REF_ELEC_VAR = 112.36  # 10.6**2


def law_stds(k):
    """Width ladder implied by the generator's variance components."""
    i = np.arange(k)
    return np.sqrt(REF_ELEC_VAR + np.where(i > 0, REF_EXTRA_VAR, 0.0) + i * REF_MULT_VAR)


@pytest.fixture
def ref_detector():
    """Generator whose mean detected count is 3.0 (3.5294 incident at 85% QE)."""
    return DetectorModel(
        mean_photon_number=3.5294,
        quantum_efficiency=0.85,
        gain_per_photon=REF_SPACING,
        mult_noise_var=REF_MULT_VAR,
        electronic_noise_var=REF_ELEC_VAR,
        extra_per_photon_var=REF_EXTRA_VAR,
        area_offset=REF_X0,
        saturation_coeff=REF_SAT,
    )


@pytest.fixture
def catalog_model():
    """The seven catalog peaks as a mixture with equal weights."""
    return MixtureModel.from_peaks(CATALOG_MEANS, CATALOG_STDS,
                                   weights=np.full(7, 1 / 7))


@pytest.fixture
def law_model():
    """Exact ladder model: means from the ladder, widths from the variance law."""
    return MixtureModel.from_ladder(REF_X0, REF_SPACING, REF_SAT, law_stds(7),
                                    np.full(7, 1 / 7),
                                    constraint_kind=Constraint.LINEAR_VARIANCE)


# 12 peaks 100 apart, 25 wide, equal weights: a start with more peaks than data
RANK_DEFICIENT_INIT = {"x0": 0.0, "delta": 100.0, "sat": 0.0,
                       "stds": [25.0] * 12, "weights": [1 / 12] * 12}


@pytest.fixture
def rank_deficient_case():
    """A two-peak spectrum and a 12-peak init whose ladder runs far past the
    data, so the Jacobian columns of the outer peaks are identically zero.
    The uniform background only supplies enough nonempty bins to run the fit.
    -> (histogram, init model)"""
    rng = np.random.default_rng(23)
    areas = np.concatenate([rng.normal(0.0, 5.0, 30_000),
                            rng.normal(100.0, 5.0, 30_000),
                            rng.uniform(-150.0, 400.0, 4_000)])
    d = RANK_DEFICIENT_INIT
    init = MixtureModel.from_ladder(d["x0"], d["delta"], d["sat"], d["stds"], d["weights"])
    return histogram_from_areas(areas, 2.0), init
