import math

import numpy as np
import pytest

from pnr_lab import (Constraint, DecisionScheme, DegenerateDesignError,
                     DetectorModel, GaussianPeak, Histogram, MixtureModel,
                     NoiseReport, gaussian_cdf, gaussian_pdf, linear_fit,
                     poisson_weights, substream)


# ---------------------------------------------------------------- substream

def test_substream_reproducible():
    a = substream(1234, 0).standard_normal(8)
    b = substream(1234, 0).standard_normal(8)
    assert np.array_equal(a, b)


def test_substream_independent_indices():
    a = substream(1234, 0).standard_normal(8)
    b = substream(1234, 1).standard_normal(8)
    assert not np.array_equal(a, b)


def test_substream_seed_matters():
    assert not np.array_equal(substream(1, 5).standard_normal(4),
                              substream(2, 5).standard_normal(4))


# ---------------------------------------------------------------- gaussians

def test_gaussian_cdf_basics():
    assert gaussian_cdf(0.0, 0.0, 1.0) == pytest.approx(0.5)
    assert gaussian_cdf(1.0, 0.0, 1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
    assert gaussian_cdf(-np.inf, 3.0, 2.0) == 0.0
    assert gaussian_cdf(np.inf, 3.0, 2.0) == 1.0


def test_gaussian_cdf_array_and_scalar():
    out = gaussian_cdf(np.array([-1.0, 0.0, 1.0]), 0.0, 1.0)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(0.5)
    assert isinstance(gaussian_cdf(0.2, 0.0, 1.0), float)


def test_gaussian_cdf_broadcasts_means_and_widths():
    x = np.array([-np.inf, 0.5, 2.0, np.inf])
    means = np.array([0.0, 1.0, 3.0])
    sigmas = np.array([1.0, 0.5, 2.0])
    grid = gaussian_cdf(x, means[:, None], sigmas[:, None])
    assert grid.shape == (3, 4)
    for row, m, s in zip(grid, means, sigmas):
        assert np.array_equal(row, gaussian_cdf(x, m, s))
    with pytest.raises(ValueError):
        gaussian_cdf(x, means[:, None], np.array([[1.0], [0.0], [2.0]]))
    with pytest.raises(ValueError):
        gaussian_cdf(x, np.array([[0.0], [np.nan]]), 1.0)


def test_gaussian_cdf_rejects_bad_input():
    with pytest.raises(ValueError):
        gaussian_cdf(np.nan, 0.0, 1.0)
    with pytest.raises(ValueError):
        gaussian_cdf(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_cdf(0.0, np.inf, 1.0)


def test_gaussian_pdf_matches_closed_form():
    x, m, s = 1.3, 0.4, 2.1
    expect = math.exp(-0.5 * ((x - m) / s) ** 2) / (s * math.sqrt(2 * math.pi))
    assert gaussian_pdf(x, m, s) == pytest.approx(expect, rel=1e-14)


# ---------------------------------------------------------------- linear_fit

def test_linear_fit_exact_line():
    pts = np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 5.0]])
    slope, intercept, rss = linear_fit(pts)
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(1.0)
    assert rss == pytest.approx(0.0, abs=1e-20)


def test_linear_fit_weighted_pulls_toward_heavy_point():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    s_unw, _, _ = linear_fit(pts)
    s_w, _, _ = linear_fit(pts, weights=np.array([1.0, 1.0, 100.0]))
    assert s_unw == pytest.approx(0.0, abs=1e-12)
    assert s_w < -0.15   # heavy last point drags the slope negative


def test_linear_fit_residual_is_weighted_rss():
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 0.0]])
    slope, intercept, rss = linear_fit(pts)
    pred = slope * pts[:, 0] + intercept
    assert rss == pytest.approx(float(np.sum((pts[:, 1] - pred) ** 2)))


def test_linear_fit_degenerate_design():
    with pytest.raises(DegenerateDesignError):
        linear_fit(np.array([[1.0, 2.0], [1.0, 3.0]]))
    with pytest.raises(DegenerateDesignError):
        linear_fit(np.array([[1.0, 2.0]]))


# ---------------------------------------------------------------- detector model

def test_detector_model_validation():
    ok = DetectorModel(mean_photon_number=2.0, quantum_efficiency=0.9,
                       gain_per_photon=100.0, mult_noise_var=10.0,
                       electronic_noise_var=5.0)
    assert ok.cell_count is None
    with pytest.raises(ValueError):
        DetectorModel(mean_photon_number=-1.0, quantum_efficiency=0.9,
                      gain_per_photon=100.0, mult_noise_var=10.0,
                      electronic_noise_var=5.0)
    with pytest.raises(ValueError):
        DetectorModel(mean_photon_number=2.0, quantum_efficiency=1.5,
                      gain_per_photon=100.0, mult_noise_var=10.0,
                      electronic_noise_var=5.0)
    with pytest.raises(ValueError):
        DetectorModel(mean_photon_number=2.0, quantum_efficiency=0.9,
                      gain_per_photon=100.0, mult_noise_var=-1.0,
                      electronic_noise_var=5.0)
    with pytest.raises(ValueError):
        DetectorModel(mean_photon_number=2.0, quantum_efficiency=0.9,
                      gain_per_photon=100.0, mult_noise_var=10.0,
                      electronic_noise_var=5.0, cell_count=0)


# ---------------------------------------------------------------- histogram

def test_histogram_props():
    h = Histogram(bin_edges=np.array([0.0, 1.0, 2.0, 3.0]),
                  counts=np.array([4, 5, 6]), total_pulses=15)
    assert h.n_bins == 3
    assert np.allclose(h.centers, [0.5, 1.5, 2.5])
    assert np.allclose(h.widths, 1.0)


def test_histogram_arrays_read_only():
    h = Histogram(bin_edges=np.array([0.0, 1.0, 2.0]),
                  counts=np.array([1, 2]), total_pulses=3)
    with pytest.raises(ValueError):
        h.counts[0] = 99


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram(bin_edges=np.array([0.0, 1.0]), counts=np.array([1, 2]),
                  total_pulses=3)
    with pytest.raises(ValueError):
        Histogram(bin_edges=np.array([0.0, 1.0, 0.5]), counts=np.array([1, 2]),
                  total_pulses=3)


# ---------------------------------------------------------------- constraints

@pytest.mark.parametrize("text,member", [
    ("free", Constraint.FREE_WEIGHTS_FREE_SIGMAS),
    ("poisson", Constraint.POISSON_WEIGHTS),
    ("linear_variance", Constraint.LINEAR_VARIANCE),
])
def test_constraint_parse(text, member):
    assert Constraint.parse(text) is member


def test_constraint_parse_rejects_unknown():
    with pytest.raises(ValueError):
        Constraint.parse("bananas")


def test_poisson_weights_normalized_pmf():
    w = poisson_weights(3.0, 8)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    raw = np.array([math.exp(-3.0) * 3.0 ** i / math.factorial(i) for i in range(8)])
    assert np.allclose(w, raw / raw.sum(), rtol=1e-12)


# ---------------------------------------------------------------- mixture model

def test_from_ladder_means_are_exact():
    m = MixtureModel.from_ladder(10.0, 100.0, 2.0, [5.0, 6.0, 7.0],
                                 [0.5, 0.3, 0.2])
    assert np.allclose(m.means(), [10.0, 108.0, 202.0])   # x0 + i*100 - i^2*2
    assert m.ladder_residual() == pytest.approx(0.0, abs=1e-18)


def test_from_ladder_rejects_bad_weights():
    with pytest.raises(ValueError):
        MixtureModel.from_ladder(0.0, 100.0, 0.0, [5.0, 5.0], [0.7, 0.7])
    with pytest.raises(ValueError):
        MixtureModel.from_ladder(0.0, 100.0, 0.0, [5.0, -1.0], [0.5, 0.5])


def test_from_peaks_keeps_explicit_means(catalog_model):
    assert np.allclose(catalog_model.means(),
                       [0.0, 135.0, 275.0, 416.0, 561.0, 709.0, 859.0])
    # the ladder description is a least-squares summary of those means
    assert catalog_model.x0 == pytest.approx(-0.285714285714365, abs=1e-9)
    assert catalog_model.spacing == pytest.approx(134.4642857142858, rel=1e-12)
    assert catalog_model.sat == pytest.approx(-1.4642857142857169, rel=1e-9)
    assert catalog_model.ladder_residual() < 1.0


def test_from_peaks_two_point_fallback():
    m = MixtureModel.from_peaks([0.0, 100.0], [5.0, 5.0])
    assert m.spacing == pytest.approx(100.0)
    assert m.sat == pytest.approx(0.0)


def test_density_integrates_to_one(law_model):
    xs = np.linspace(-200.0, 1400.0, 20001)
    total = np.trapezoid(law_model.density(xs), xs)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_mixture_constraint_recorded(law_model):
    assert law_model.constraint_kind is Constraint.LINEAR_VARIANCE
    assert law_model.n_peaks == 7


# ---------------------------------------------------------------- schemes, reports

def test_decision_scheme_requires_increasing_thresholds():
    with pytest.raises(ValueError):
        DecisionScheme(thresholds=(1.0, 1.0), priors=(1 / 3,) * 3,
                       error_per_number=(0.0, 0.0, 0.0))


def test_noise_report_unbounded_flag():
    r = NoiseReport(sigma_m_sq=0.0, sigma_0_sq=1.0, enf=1.0,
                    n_max=math.inf, regression_residual=0.0)
    assert r.unbounded
    r2 = NoiseReport(sigma_m_sq=276.0, sigma_0_sq=246.0, enf=1.015,
                     n_max=66.0, regression_residual=0.0)
    assert not r2.unbounded


def test_gaussian_peak_fields():
    p = GaussianPeak(index=2, mean=275.0, std_dev=31.7, weight=0.25)
    assert (p.index, p.mean, p.std_dev, p.weight) == (2, 275.0, 31.7, 0.25)
